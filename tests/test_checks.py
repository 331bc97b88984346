"""The randomized theorem-check harness itself."""

import json
from dataclasses import FrozenInstanceError, replace

import pytest

import laxcat.checks as checks
from laxcat.checks import (
    CHECKS,
    CheckReport,
    Ctx,
    Failure,
    instance_seed,
    minimize_diagram,
    probe_suite,
    run_check,
    theorem_defaults,
)
from laxcat.constructions import SizeCaps
from laxcat.core import Functor
from laxcat.errors import InvalidDiagram, InvariantViolation, MalformedTable
from laxcat.generator import GenParams, gen_category, gen_diagram, gen_marking
from laxcat.io_formats import canonical_json, diagram_to_data
from laxcat.localization import Bounds


def test_probe_suite_is_versioned():
    probes = probe_suite()
    assert set(probes) == {"terminal", "discrete2", "arrow", "iso",
                           "chain2", "parallel", "nonposet5"}
    assert probes["nonposet5"].n_morphisms == 5


def test_every_check_passes_smoke_counts():
    slow = {"thm-lax-colim-probe", "thm-oplax-colim-probe"}
    for theorem in CHECKS:
        count = 5 if theorem in slow else 20
        r = run_check(theorem, seed=0, count=count)
        assert not r.failures, (theorem, r.failures)
        assert r.passes + r.bound_exceeded == count


def test_report_accounting_and_canonical_bytes():
    r1 = run_check("thm-lax-lim", seed=3, count=20)
    r2 = run_check("thm-lax-lim", seed=3, count=20)
    assert r1.passes + len(r1.failures) + r1.bound_exceeded == r1.instances
    assert r1.canonical() == r2.canonical()
    data = json.loads(r1.canonical())
    assert "wall_time" not in data


def test_ghn_flat_passes_its_heaviest_stream():
    # stream 17 builds the largest functor categories of the ghn-flat streams
    r = run_check("ghn-flat", seed=17, count=1)
    assert (r.passes, r.bound_exceeded, r.failures) == (1, 0, [])


def test_colim_probe_stream_138_passes_at_the_shipped_caps():
    # its largest Fun† fiber holds over 100,000 transformations, far past the
    # 8192 cap, but the end formula reads only a few hundred of them
    r = run_check("thm-lax-colim-probe", seed=138, count=1)
    assert (r.passes, r.bound_exceeded, r.failures) == (1, 0, [])


def test_parallel_run_matches_sequential():
    r1 = run_check("pullback-remark", seed=5, count=20)
    r2 = run_check("pullback-remark", seed=5, count=20, jobs=3)
    assert r1.canonical() == r2.canonical()


@pytest.mark.parametrize("theorem", ["thm-lax-colim-probe", "thm-oplax-colim-probe"])
def test_probe_reports_do_not_depend_on_jobs(theorem):
    r1 = run_check(theorem, seed=0, count=20)
    r2 = run_check(theorem, seed=0, count=20, jobs=2)
    assert r1.passes >= 15
    assert r1.canonical() == r2.canonical()


def _record_probe_work(monkeypatch):
    """Record the domain of every FunHoms built, and every localization the
    probe check computes."""
    from laxcat import constructions

    doms, localized = [], []
    real_init, real_localize = constructions.FunHoms.__init__, checks.localize

    def init(self, C, *args, **kwargs):
        doms.append(C)
        real_init(self, C, *args, **kwargs)

    def localize(*args, **kwargs):
        localized.append(real_localize(*args, **kwargs))
        return localized[-1]

    monkeypatch.setattr(constructions.FunHoms, "__init__", init)
    monkeypatch.setattr(checks, "localize", localize)
    return doms, localized


@pytest.mark.parametrize("theorem", ["thm-lax-colim-probe", "thm-oplax-colim-probe"])
def test_the_probe_check_builds_one_fun_dagger_per_probe(monkeypatch, theorem):
    # one Fun† out of the Grothendieck total per probe serves the comparison
    # and the universal property of the localized total, in both flavours;
    # and no functor category out of the localization is built
    doms, localized = _record_probe_work(monkeypatch)
    _, ctx = theorem_defaults(theorem)
    for stream in range(6):
        doms.clear()
        localized.clear()
        r = run_check(theorem, seed=stream, count=1)
        assert r.passes == 1
        [L] = localized
        assert L.ok
        objects = set(L.cat.objects)  # those of the total
        out_of_total = [C for C in doms if set(C.objects) == objects]
        assert len(out_of_total) == len(ctx.probes), stream
        assert not any(C is L.cat for C in doms)


def test_check_localization_up_builds_no_functor_category_out_of_the_localization(
        monkeypatch):
    from laxcat.grothendieck import grothendieck_cocart
    from laxcat.localization import check_localization_up, localize

    doms, _ = _record_probe_work(monkeypatch)
    params, ctx = theorem_defaults("thm-lax-colim-probe")
    checked = 0
    for s in range(10):
        F = checks._gen_instance(replace(params, seed=s))
        E = grothendieck_cocart(F, ctx.caps)
        L = localize(E.total, ctx.bounds)
        if L.ok:
            doms.clear()
            assert check_localization_up(E.total, L, ctx.probes, ctx.caps).ok
            assert len(doms) == len(ctx.probes)
            assert all(C is E.total.cat for C in doms)
            checked += 1
    assert checked >= 8


def test_instance_seeds_injective():
    seen = {instance_seed(s, k) for s in range(10) for k in range(200)}
    assert len(seen) == 2000


def test_minimize_diagram_preserves_predicate():
    # minimization against a monotone predicate keeps the witness property
    p = GenParams(seed=7)
    F = gen_diagram(gen_marking(gen_category(p), p), p)
    target = F.base.cat.objects[0]

    def still(d):
        return target in d.base.cat.objects

    small = minimize_diagram(F, still)
    small.validate()
    assert target in small.base.cat.objects
    assert small.base.cat.n_objects <= F.base.cat.n_objects


def test_failure_dump_replays(tmp_path):
    # force a failing "theorem" by flipping a real check, then replay the dump
    from laxcat.checks import Failure, _gen_instance
    from laxcat.io_formats import diagram_from_data, diagram_to_data
    import laxcat.checks as checks

    def always_fails(p, ctx):
        F = _gen_instance(p)
        return "fail", Failure("diagram", diagram_to_data(F), "forced",
                               lambda d: True)

    checks.CHECKS["always-fails"] = always_fails
    try:
        r = run_check("always-fails", seed=0, count=2, out_dir=str(tmp_path))
        assert len(r.failures) == 2
        for entry in r.failures:
            dump = json.loads((tmp_path / f"always-fails-{entry['instance']}.json"
                               ).read_text())
            replay = diagram_from_data(dump["instance"])
            replay.validate()
            assert dump["seed"] == entry["seed"]
            # the dump records the whole configuration of its run
            params, ctx = theorem_defaults("always-fails")
            assert GenParams(**dump["params"]) == replace(params,
                                                          seed=entry["seed"])
            assert SizeCaps(**dump["caps"]) == ctx.caps
            assert Bounds(**dump["bounds"]) == ctx.bounds
            assert dump["probes"] == list(ctx.probes)
    finally:
        del checks.CHECKS["always-fails"]


def test_check_context_is_frozen_and_shared():
    _, ctx = theorem_defaults("thm-lax-lim")
    with pytest.raises(FrozenInstanceError):
        ctx.caps = None
    assert theorem_defaults("thm-lax-lim")[1] is theorem_defaults("ff-lemma")[1]
    roomier = replace(ctx, bounds=replace(ctx.bounds, word_length=9))
    assert roomier.bounds.word_length == 9 and roomier.probes is ctx.probes


# -- a program bug is an error, never a verdict or a minimisation step ----------


def _planted(error):
    def raise_it(*args):
        raise error("planted")
    return raise_it


def _two_object_diagram():
    # base: two objects and the removable parallel pair u, v between them
    p = GenParams(seed=7)
    F = gen_diagram(gen_marking(gen_category(p), p), p)
    assert F.base.cat.n_objects == 2
    return F


def test_marked_limit_check_raises_a_bug_instead_of_failing(monkeypatch):
    params, ctx = theorem_defaults("marked-limit")
    p = replace(params, seed=instance_seed(0, 0))
    assert checks._marked_limit_ok(p, ctx)
    for error, verdict in ((MalformedTable, False), (InvariantViolation, None)):
        class Planted(Functor):
            validate = _planted(error)

        monkeypatch.setattr(checks, "Functor", Planted)
        if verdict is None:
            with pytest.raises(InvariantViolation):
                checks._marked_limit_ok(p, ctx)
        else:  # the comparison map is not a functor: a counterexample
            assert checks._marked_limit_ok(p, ctx) is verdict


def test_minimize_diagram_raises_a_bug_in_an_object_deletion(monkeypatch):
    monkeypatch.setattr(checks, "_delete_base_object",
                        _planted(InvariantViolation))
    with pytest.raises(InvariantViolation):
        minimize_diagram(_two_object_diagram(), lambda d: True)


def test_minimize_diagram_raises_a_bug_in_a_morphism_deletion(monkeypatch):
    F = _two_object_diagram()
    # an invalid candidate is skipped, as before
    monkeypatch.setattr(checks, "_delete_base_morphism", _planted(InvalidDiagram))
    assert minimize_diagram(F, lambda d: False) is F
    monkeypatch.setattr(checks, "_delete_base_morphism",
                        _planted(InvariantViolation))
    with pytest.raises(InvariantViolation):
        minimize_diagram(F, lambda d: False)


def test_run_check_raises_a_bug_in_a_failure_replay(monkeypatch, tmp_path):
    F = _two_object_diagram()
    for error in (InvalidDiagram, InvariantViolation):
        monkeypatch.setitem(CHECKS, "planted", lambda p, ctx: (
            "fail", Failure("diagram", diagram_to_data(F), "forced",
                            _planted(error))))
        if error is InvariantViolation:
            with pytest.raises(InvariantViolation):
                run_check("planted", seed=0, count=1, out_dir=str(tmp_path))
        else:  # a replay that raises an input error does not fail again
            r = run_check("planted", seed=0, count=1, out_dir=str(tmp_path))
            assert len(r.failures) == 1
