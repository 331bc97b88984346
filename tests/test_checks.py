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
from laxcat.core import Functor, sharp_marking
from laxcat.errors import (InvalidDiagram, InvariantViolation, MalformedTable,
                           SizeBoundExceeded)
from laxcat.generator import (GenParams, gen_category, gen_diagram, gen_marking,
                              gen_set_diagram)
from laxcat.io_formats import canonical_json, category_to_data, diagram_to_data
from laxcat.localization import Bounds, localize


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
    assert checks._marked_limit(p, ctx) is None
    reason = "marked limit marking invalid or not compatible with products"
    for error, verdict in ((MalformedTable, reason), (InvariantViolation, None)):
        class Planted(Functor):
            validate = _planted(error)

        monkeypatch.setattr(checks, "Functor", Planted)
        if verdict is None:
            with pytest.raises(InvariantViolation):
                checks._marked_limit(p, ctx)
        else:  # the comparison map is not a functor: a counterexample
            assert checks._marked_limit(p, ctx) == verdict


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


# -- one runner: each check is a draw, a decision and a dump kind ---------------


def _forced(reason):
    def decide(instance, ctx):
        return reason
    return decide


def _parent_dump(theorem, p):
    """The data a failure of theorem at p dumped before the checks shared
    one runner, rebuilt the way each check's own wrapper built it."""
    if theorem.startswith("cofinality"):
        C = gen_category(p)
        S = gen_set_diagram(C, p)
        return {"category": category_to_data(C),
                "values": {x: list(v) for x, v in S.values.items()},
                "action": {m: {str(k): v for k, v in f.items()}
                           for m, f in S.action.items()}}
    if theorem in ("marked-limit", "pullback-remark", "ff-lemma", "monotonicity"):
        return {"seed": p.seed}
    return diagram_to_data(checks._gen_instance(p))


@pytest.mark.parametrize("theorem, kind", [
    ("thm-lax-lim", "diagram"), ("thm-oplax-colim-probe", "diagram"),
    ("cofinality-left", "set-diagram"), ("cofinality-right", "set-diagram"),
    ("marked-limit", "params"), ("monotonicity", "params")])
def test_a_forced_failure_dumps_what_its_check_dumped(monkeypatch, theorem, kind):
    params, ctx = theorem_defaults(theorem)
    p = replace(params, seed=instance_seed(0, 1))
    monkeypatch.setitem(CHECKS, theorem,
                        replace(CHECKS[theorem], decide=_forced("forced")))
    status, failure = CHECKS[theorem](p, ctx)
    assert status == "fail"
    assert (failure.kind, failure.reason) == (kind, "forced")
    assert canonical_json(failure.data) == canonical_json(_parent_dump(theorem, p))
    assert (failure.reeval is None) == (kind != "diagram")
    if kind == "set-diagram":
        assert list(failure.data) == ["category", "values", "action"]


def test_every_check_passes_through_the_decision_it_names(monkeypatch):
    # each check decides its instance with its own decision, and a pass
    # carries no failure
    p = replace(GenParams(), seed=instance_seed(0, 0))
    for theorem, check in CHECKS.items():
        assert isinstance(check, checks.Check)
        seen = []
        monkeypatch.setitem(CHECKS, theorem, replace(
            check, decide=lambda x, ctx, seen=seen: seen.append((x, ctx))))
        _, ctx = theorem_defaults(theorem)
        assert CHECKS[theorem](p, ctx) == ("pass", None)
        [(instance, used)] = seen
        assert used is ctx
        assert (instance is p) == (check.dump == "params")


def test_the_decisions_keep_their_reasons(monkeypatch):
    # no equivalence and no full faithfulness holds: each decision reports
    # the reason its check always gave
    monkeypatch.setattr(checks, "is_equivalent", lambda *args: False)
    monkeypatch.setattr(checks, "is_fully_faithful", lambda *args: False)
    reasons = {
        "thm-lax-lim": "end-formula lax limit not equivalent to marked sections",
        "thm-oplax-lim": "oplax limit not equivalent to cartesian marked sections",
        "prop-sharp-limit":
            "sharp lax/oplax limit does not collapse to the pseudo-limit",
        "ghn-flat": "flat reduction failed (full sections or identity localization)",
        "ff-lemma":
            "limit of full inclusions not fully faithful with componentwise image",
    }
    for theorem, reason in reasons.items():
        params, ctx = theorem_defaults(theorem)
        status, failure = CHECKS[theorem](replace(params, seed=1), ctx)
        assert (status, failure.reason) == ("fail", reason), theorem


def test_ghn_flat_fails_on_a_quotient_that_is_not_fully_faithful(monkeypatch):
    # the sections half passes, and a localization at every morphism of the
    # total inverts a non-isomorphism, so its quotient, the identity on
    # objects, is not fully faithful: the localization half fails
    monkeypatch.setattr(checks, "localize", lambda Cm, bounds: localize(
        sharp_marking(Cm.cat), bounds))
    params, ctx = theorem_defaults("ghn-flat")
    status, failure = CHECKS["ghn-flat"](replace(params, seed=1), ctx)
    assert (status, failure.reason) == (
        "fail", "flat reduction failed (full sections or identity localization)")


def test_a_diagram_failure_replays_the_same_decision():
    seen = []

    def decide(F, ctx):
        seen.append((F, ctx))
        return "forced" if F.base.cat.n_objects == 2 else None

    _, ctx = theorem_defaults("thm-lax-lim")
    check = replace(CHECKS["thm-lax-lim"], decide=decide)
    F = _two_object_diagram()
    status, failure = check(GenParams(seed=7), ctx)
    assert status == "fail" and failure.data == diagram_to_data(F)
    smaller = checks._delete_base_object(F, F.base.cat.objects[0])
    assert failure.reeval(F) is True and failure.reeval(smaller) is False
    assert len(seen) == 3 and seen[1][0] is F and seen[2][0] is smaller
    assert all(used is ctx for _, used in seen)


def _sharp_cospan_without(delete, part):
    F = checks._sharp_instance(GenParams(seed=1))
    assert set(F.base.cat.objects) == {"a", "b", "c"}
    return delete(F, part)


@pytest.mark.parametrize("delete, part", [
    (checks._delete_base_object, "c"),
    (checks._delete_base_morphism, "f"),
    (checks._delete_base_morphism, "g"),
], ids=["object c", "morphism f", "morphism g"])
def test_sharp_collapse_rejects_a_base_that_is_no_arrow_or_cospan(delete, part):
    # deleting c leaves the discrete base {a, b}, and deleting f or g a
    # three-object base with one arrow: none is an instance of the
    # proposition, so a replay can never keep one as a counterexample
    _, ctx = theorem_defaults("prop-sharp-limit")
    with pytest.raises(InvalidDiagram, match="walking arrow or a cospan"):
        checks._sharp_collapse(_sharp_cospan_without(delete, part), ctx)


def test_sharp_collapse_decides_the_arrow_left_by_deleting_a():
    # deleting a leaves the walking arrow g: b -> c, which passes
    _, ctx = theorem_defaults("prop-sharp-limit")
    F = _sharp_cospan_without(checks._delete_base_object, "a")
    assert checks._sharp_collapse(F, ctx) is None


def test_a_sharp_limit_failure_replay_shrinks_to_the_walking_arrow(
        monkeypatch, tmp_path):
    # with every comparison failing, the replay of instance 0 (an arrow) and
    # instance 1 (a cospan) deletes all it can and stops at the arrow
    monkeypatch.setattr(checks, "is_equivalent", lambda *args: False)
    r = run_check("prop-sharp-limit", seed=0, count=2, out_dir=str(tmp_path))
    assert [e["instance"] for e in r.failures] == [0, 1]
    for entry in r.failures:
        with open(entry["path"]) as fh:
            base = json.load(fh)["instance"]["base"]
        assert len(base["objects"]) == 2 and len(base["morphisms"]) == 1


def test_ghn_flat_skips_a_localization_bound():
    # a localization stopped at a bound is a skip, never a counterexample
    _, ctx = theorem_defaults("ghn-flat")
    tight = replace(ctx, bounds=Bounds(word_length=0))
    r = run_check("ghn-flat", seed=0, count=3, ctx=tight)
    assert (r.passes, r.bound_exceeded, r.failures) == (0, 3, [])
    F = checks._flat_instance(GenParams(seed=instance_seed(0, 0)))
    with pytest.raises(SizeBoundExceeded) as bound:
        checks._ghn_flat(F, tight)
    assert (bound.value.what, bound.value.kind, bound.value.cap) == (
        "localization", "word_length", 0)
