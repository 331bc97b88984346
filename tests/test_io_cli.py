"""File formats, canonical serialization, and the command-line interface."""

import json
import random

import pytest

from laxcat.cli import main
from laxcat.core import (
    chain_cat,
    flat_marking,
    marked,
    saturate_marking,
    sharp_marking,
    terminal_cat,
    walking_arrow,
    walking_iso,
)
from laxcat.diagrams import constant_diagram
from laxcat.errors import LaxcatError, MalformedTable
from laxcat.generator import GenParams, gen_category, gen_diagram, gen_marking
from laxcat.io_formats import (
    canonical_json,
    category_from_data,
    category_to_data,
    diagram_from_data,
    diagram_to_data,
    functor_from_data,
    presentation_from_data,
    presentation_to_data,
    probes_from_data,
)
from laxcat.localization import present


def test_category_roundtrip():
    for s in range(15):
        p = GenParams(seed=s)
        Cm = gen_marking(gen_category(p), p)
        data = category_to_data(Cm.cat, Cm.marked)
        C2, mk2 = category_from_data(json.loads(canonical_json(data)))
        assert C2.same_table(Cm.cat)
        assert mk2 == Cm.marked


def test_category_unknown_keys_rejected():
    data = category_to_data(terminal_cat())
    data["extra"] = 1
    with pytest.raises(MalformedTable):
        category_from_data(data)


def test_identities_synthesized_when_absent():
    data = {"objects": ["a"], "morphisms": [], "composition": []}
    C, mk = category_from_data(data)
    assert C.identity == {"a": "id_a"}
    assert mk is None


def test_diagram_roundtrip():
    for s in range(10):
        p = GenParams(seed=s)
        F = gen_diagram(gen_marking(gen_category(p), p), p)
        F2 = diagram_from_data(json.loads(canonical_json(diagram_to_data(F))))
        assert F2.base.cat.same_table(F.base.cat)
        assert F2.base.marked == F.base.marked
        for i in F.fiber:
            assert F2.fiber[i].same_table(F.fiber[i])
        for m in F.transition:
            assert F2.transition[m].object_map == F.transition[m].object_map


def test_presentation_roundtrip():
    A = walking_arrow()
    pres = present(marked(A, saturate_marking(A, ["a01"])))
    back = presentation_from_data(
        json.loads(canonical_json(presentation_to_data(pres))))
    assert back.objects == pres.objects
    assert back.arrows == pres.arrows
    assert sorted(back.relations, key=str) == sorted(pres.relations, key=str)


def test_canonical_json_is_deterministic():
    data = category_to_data(chain_cat(2))
    assert canonical_json(data) == canonical_json(json.loads(canonical_json(data)))


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(canonical_json(data))
    return str(path)


def test_cli_tw_gives_span(tmp_path, capsys):
    f = _write(tmp_path, "arrow.json", category_to_data(walking_arrow()))
    assert main(["tw", f]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["objects"]) == 3
    assert len(data["morphisms"]) == 2


def test_cli_equiv_exit_codes(tmp_path):
    iso = _write(tmp_path, "iso.json", category_to_data(walking_iso()))
    term = _write(tmp_path, "term.json", category_to_data(terminal_cat()))
    arrow = _write(tmp_path, "arrow.json", category_to_data(walking_arrow()))
    assert main(["equiv", iso, term]) == 0
    assert main(["equiv", arrow, term]) == 1


def test_cli_localize_free_monoid_exits_2(tmp_path, capsys):
    pres = {"objects": ["x"],
            "arrows": [{"id": "m", "src": "x", "tgt": "x"},
                       {"id": "inv_m", "src": "x", "tgt": "x"}],
            "relations": [
                {"lhs": ["m", "inv_m"], "rhs": [], "src": "x", "tgt": "x"},
                {"lhs": ["inv_m", "m"], "rhs": [], "src": "x", "tgt": "x"}]}
    f = _write(tmp_path, "free.json", pres)
    # the localization is the group of integers; every word bound is hit
    assert main(["localize", f, "--word-bound", "4"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "word-bound"
    assert out["bound"]["hom"] == ["x", "x"]


def test_cli_localize_marked_category(tmp_path, capsys):
    A = walking_arrow()
    mk = saturate_marking(A, ["a01"])
    f = _write(tmp_path, "arrow.json", category_to_data(A, mk))
    assert main(["localize", f]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "ok"
    assert len(out["category"]["morphisms"]) + len(
        out["category"]["identities"]) == 4


def test_cli_oplaxcolim_stops_at_max_words_at_default_bounds(tmp_path, capsys):
    # the localize benchmark's stream-4 diagram outgrows the word window at
    # the CLI's default bounds; the closure must reach that bound quickly
    p = GenParams(seed=4)
    F = gen_diagram(gen_marking(gen_category(p), p), p)
    f = _write(tmp_path, "stream4.json", diagram_to_data(F))
    assert main(["oplaxcolim", f]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "size-bound"
    assert out["bound"] == {"which": "max_words", "cap": 200000, "at": 200001,
                            "word_length": 14}


def test_cli_invalid_input_exits_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 3
    junk = _write(tmp_path, "junk.json", {"objects": ["a"], "nope": 1})
    assert main(["validate", junk]) == 3


def test_cli_bound_exceeded_exits_2(tmp_path):
    f = _write(tmp_path, "c2.json", category_to_data(chain_cat(2)))
    assert main(["tw", f, "--max-objects", "2", "--max-morphisms", "2"]) == 2


def test_cli_caps_and_bounds_of_zero_are_honoured(tmp_path, capsys):
    # 0 is a cap like any other, not "use the default"
    arrow = _write(tmp_path, "arrow.json", category_to_data(walking_arrow()))
    assert main(["tw", arrow, "--max-objects", "0"]) == 2
    assert main(["tw", arrow, "--max-morphisms", "0"]) == 2
    err = capsys.readouterr().err
    assert "object count 3 exceeds cap 0" in err
    assert "morphism count 5 exceeds cap 0" in err
    A = walking_arrow()
    f = _write(tmp_path, "marked.json",
               category_to_data(A, saturate_marking(A, ["a01"])))
    assert main(["localize", f, "--word-bound", "1"]) == 0
    capsys.readouterr()
    for flag, which in (("--word-bound", "word_length"),
                        ("--size-bound", "max_morphisms")):
        assert main(["localize", f, flag, "0"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["bound"]["which"] == which
        assert out["bound"]["cap"] == 0


def test_cli_check_overrides_of_zero_are_honoured(monkeypatch):
    import laxcat.cli as cli

    seen = {}
    run_check = cli.run_check

    def spy(theorem, **kw):
        seen.update(kw)
        return run_check(theorem, **kw)

    monkeypatch.setattr(cli, "run_check", spy)
    assert main(["check", "thm-lax-lim", "--count", "0", "--max-objects", "0",
                 "--max-morphisms", "0", "--word-bound", "0",
                 "--size-bound", "0"]) == 0
    assert (seen["params"].max_objects, seen["params"].max_morphisms) == (0, 0)
    assert seen["ctx"].bounds.word_length == 0
    assert seen["ctx"].bounds.max_morphisms == 0


@pytest.mark.parametrize("flag", ["--max-objects", "--max-morphisms",
                                  "--word-bound", "--size-bound", "--count",
                                  "--jobs", "--max-skip"])
def test_cli_rejects_a_negative_cap_or_bound(tmp_path, capsys, flag):
    arrow = _write(tmp_path, "arrow.json", category_to_data(walking_arrow()))
    runs = [["check", "thm-lax-lim", "--count", "0", flag, "-1"]]
    if flag in ("--max-objects", "--max-morphisms"):  # caps: tw reads them
        runs.append(["tw", arrow, flag, "-1"])
    if flag in ("--word-bound", "--size-bound"):  # bounds: localize reads them
        runs.append(["localize", arrow, flag, "-1"])
    for argv in runs:
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert f"argument {flag}: expected a count >= 0, got '-1'" in \
            capsys.readouterr().err


@pytest.mark.parametrize("argv", [["slice", "{f}", "0"], ["equiv", "{f}", "{f}"]])
def test_cli_rejects_a_cap_flag_the_command_does_not_read(tmp_path, capsys, argv):
    # slice and equiv build no capped category, so they take no cap flag
    arrow = _write(tmp_path, "arrow.json", category_to_data(walking_arrow()))
    with pytest.raises(SystemExit) as exit_:
        main([a.format(f=arrow) for a in argv] + ["--max-objects", "1"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --max-objects 1" in capsys.readouterr().err


def test_cli_check_and_report(tmp_path, capsys):
    rc = main(["check", "cofinality-left", "--seed", "1", "--count", "25",
               "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "cofinality-left-report.json").read_text())
    assert report["passes"] == 25
    assert report["failures"] == []


def test_cli_check_overrides_keep_theorem_defaults(monkeypatch, capsys):
    import laxcat.cli as cli
    from laxcat.checks import DEFAULT_CTX, DEFAULT_PARAMS

    seen = {}

    def spy(theorem, **kw):
        seen.update(kw)
        return run_check(theorem, **kw)

    run_check = cli.run_check
    monkeypatch.setattr(cli, "run_check", spy)
    theorem = "thm-lax-colim-probe"
    params, ctx = DEFAULT_PARAMS[theorem], DEFAULT_CTX[theorem]
    assert main(["check", theorem, "--count", "0", "--max-objects", "3",
                 "--word-bound", "5", "--size-bound", "999"]) == 0
    assert seen["params"].max_objects == 3
    assert seen["params"].max_morphisms == params.max_morphisms
    assert seen["params"].fiber_max_objects == params.fiber_max_objects
    assert seen["params"].fiber_max_morphisms == params.fiber_max_morphisms
    assert seen["ctx"].caps == ctx.caps
    assert seen["ctx"].bounds.word_length == 5
    assert seen["ctx"].bounds.max_morphisms == 999
    assert seen["ctx"].bounds.max_words == ctx.bounds.max_words


def test_cli_check_unknown_theorem_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["check", "not-a-theorem"])


def test_cli_grothendieck_and_sections_roundtrip(tmp_path, capsys):
    p = GenParams(seed=4)
    F = gen_diagram(gen_marking(gen_category(p), p), p)
    f = _write(tmp_path, "diag.json", diagram_to_data(F))
    assert main(["grothendieck", f]) == 0
    total = json.loads(capsys.readouterr().out)["total"]
    C, mk = category_from_data(total)
    assert mk is not None
    assert main(["sections", f, "--marked"]) == 0
    assert main(["laxlim", f]) == 0
    assert main(["laxcolim", f]) in (0, 2)


def test_cli_reports_an_invariant_violation_as_an_internal_error(
        tmp_path, monkeypatch, capsys):
    from laxcat import equiv

    iso = _write(tmp_path, "iso.json", category_to_data(walking_iso()))
    term = _write(tmp_path, "term.json", category_to_data(terminal_cat()))
    monkeypatch.setattr(equiv, "is_fully_faithful", lambda F: False)
    assert main(["equiv", iso, term]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "invalid input" not in err


def test_cli_word_bound_of_zero_reports_no_placeholder_hom(tmp_path, capsys):
    A = walking_arrow()
    f = _write(tmp_path, "arrow.json",
               category_to_data(A, saturate_marking(A, ["a01"])))
    assert main(["localize", f, "--word-bound", "0"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["bound"] == {"which": "word_length", "cap": 0}


_CYCLE = {"objects": ["x", "y"],
          "arrows": [{"id": "a", "src": "x", "tgt": "y"},
                     {"id": "b", "src": "x", "tgt": "x"}],
          "relations": [{"lhs": ["b", "b"], "rhs": [], "src": "x", "tgt": "x"}]}

BAD_PRESENTATION_FILES = {
    "no objects": {k: v for k, v in _CYCLE.items() if k != "objects"},
    "no arrows": {k: v for k, v in _CYCLE.items() if k != "arrows"},
    "no relations": {k: v for k, v in _CYCLE.items() if k != "relations"},
    "unknown arrow": {**_CYCLE, "relations": [{"lhs": ["a", "zz"], "rhs": []}]},
    "two empty sides, no endpoints": {**_CYCLE,
                                      "relations": [{"lhs": [], "rhs": []}]},
    # a: x -> y and b: x -> x are not parallel
    "ill-typed": {**_CYCLE, "relations": [{"lhs": ["a"], "rhs": ["b"]}]},
}


@pytest.mark.parametrize("case", sorted(BAD_PRESENTATION_FILES))
def test_cli_localize_rejects_a_malformed_presentation(tmp_path, capsys, case):
    f = _write(tmp_path, "pres.json", BAD_PRESENTATION_FILES[case])
    assert main(["localize", f]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid input: presentation:")
    assert captured.out == ""


def test_cli_localize_reads_a_presentation(tmp_path, capsys):
    f = _write(tmp_path, "pres.json", _CYCLE)
    assert main(["localize", f]) == 0
    out = json.loads(capsys.readouterr().out)
    # id_x, id_y, a, b, a after b
    assert len(out["category"]["morphisms"]) == 3


def _arrow_over_an_arrow(edit):
    """The constant diagram of the walking arrow over itself as file data,
    after ``edit`` has changed it in place."""
    data = diagram_to_data(constant_diagram(flat_marking(walking_arrow()),
                                            walking_arrow()))
    edit(data)
    return data


# each case: the command line before the file's name, and the file's data
MALFORMED_INPUT_FILES = {
    "transition without object_map": (["grothendieck"], _arrow_over_an_arrow(
        lambda d: d["transitions"]["a01"].pop("object_map"))),
    "transition with an empty object_map": (["grothendieck"], _arrow_over_an_arrow(
        lambda d: d["transitions"]["a01"].update(object_map={}))),
    "diagram without fibers": (["grothendieck"], _arrow_over_an_arrow(
        lambda d: d.pop("fibers"))),
    "fibers given as a list": (["grothendieck"], _arrow_over_an_arrow(
        lambda d: d.update(fibers=list(d["fibers"].values())))),
    "base object without a fiber": (["grothendieck"], _arrow_over_an_arrow(
        lambda d: d["fibers"].pop("1"))),
    "fiber at a non-object": (["grothendieck"], _arrow_over_an_arrow(
        lambda d: d["fibers"].__setitem__("zzz", d["fibers"]["0"]))),
    "morphism id that is a number": (["validate"], {
        "objects": ["x"], "morphisms": [{"id": 5, "src": "x", "tgt": "x"}]}),
    "morphism to an unknown object": (["validate"], {
        "objects": ["x"], "morphisms": [{"id": "f", "src": "x", "tgt": "y"}]}),
    "identities given as a list": (["validate"], {
        "objects": ["x"], "identities": ["id_x"]}),
    # a falsy value of the wrong type is no absent key
    **{f"marked given as {v!r}": (["validate"], {"objects": ["x"], "marked": v})
       for v in (0, False, "", {}, None)},
    **{f"identities given as {v!r}": (["validate"], {
        "objects": ["x"], "identities": v}) for v in (0, False, "", [], None)},
    "file to localize that is a number": (["localize"], 5),
    # one morphism is the identity of two objects, or of a non-object
    "identity shared by two objects": (["validate"], {
        "objects": ["x", "y"], "identities": {"x": "i", "y": "i"}}),
    "identity of a non-object": (["validate"], {
        "objects": ["x"], "identities": {"x": "id_x", "zzz": "id_x"}}),
    "probe manifest that is a list": (
        ["check", "thm-lax-colim-probe", "--count", "1", "--probes"],
        [category_to_data(terminal_cat())]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUT_FILES))
def test_cli_malformed_input_file_exits_3(tmp_path, capsys, case):
    argv, data = MALFORMED_INPUT_FILES[case]
    f = _write(tmp_path, "input.json", data)
    assert main(argv + [f]) == 3
    assert capsys.readouterr().err.startswith("invalid input:")


def test_absent_marking_and_identities_keep_their_meaning():
    # no marked key is no marking, and absent or empty identities are id_x
    for data in ({"objects": ["x"]}, {"objects": ["x"], "identities": {}}):
        C, mk = category_from_data(data)
        assert (C.identity, mk) == ({"x": "id_x"}, None)
    C, mk = category_from_data({"objects": ["x"], "marked": []})
    assert mk == frozenset({"id_x"})


# values of every JSON shape, falsy ones among them
_FUZZ_VALUES = (0, 1, -1, 2.5, True, False, "", "zz", None, [], {}, ["zz"],
                {"zz": "zz"})


def _slots(data):
    """Every (container, key or index) pair of a JSON value, outside in."""
    if isinstance(data, (dict, list)):
        for k, v in data.items() if isinstance(data, dict) else enumerate(data):
            yield data, k
            yield from _slots(v)


def _mutant(text: str, strings: list[str], rng: random.Random):
    """The JSON value ``text`` with one slot changed: its value replaced by
    one of _FUZZ_VALUES or by a string of the file, its entry removed, its
    key renamed to a string of the file, or its list item repeated."""
    data = json.loads(text)
    box, key = rng.choice(list(_slots(data)))
    kind = rng.randrange(4)
    if kind == 0:
        box[key] = rng.choice(_FUZZ_VALUES)
    elif kind == 1:
        box[key] = rng.choice(strings)
    elif kind == 2:
        del box[key]
    elif isinstance(box, dict):
        box[rng.choice(strings)] = box.pop(key)
    else:
        box.insert(key, box[key])
    return data


def _has_identity_table(C) -> bool:
    """Whether C's identity table gives each object, and nothing else, one
    endomorphism of that object."""
    return set(C.identity) == set(C.objects) and all(
        C.has_mor(i) and (C.src(i), C.tgt(i)) == (x, x)
        for x, i in C.identity.items())


def _fuzz_inputs(s: int):
    """The files of seed s, each with its kind, its reader and the categories
    an accepted read holds: a diagram, its marked base category, a probe
    manifest of its categories, the presentation of its base and, when it
    has a non-identity transition, the first one's functor file."""
    p = GenParams(seed=s)
    F = gen_diagram(gen_marking(gen_category(p), p), p)
    data = diagram_to_data(F)
    yield ("diagram", diagram_from_data, data,
           lambda D: [D.base.cat, *D.fiber.values()])
    yield "category", category_from_data, data["base"], lambda r: [r[0]]
    yield ("probe manifest", probes_from_data,
           {**data["fibers"], "base": data["base"]}, dict.values)
    yield ("presentation", presentation_from_data,
           presentation_to_data(present(F.base)), lambda pres: [])
    I = F.base.cat
    for m in sorted(data["transitions"])[:1]:
        dom, cod = F.fiber[I.src(m)], F.fiber[I.tgt(m)]
        yield ("functor", lambda d: functor_from_data(d, dom, cod),
               data["transitions"][m], lambda T: [])


def test_a_mutated_file_is_read_or_rejected_with_a_laxcat_error():
    # single-point mutants of seeded files of every kind: a reader accepts
    # each or raises a LaxcatError, never another exception (a non-list
    # "marked" once escaped as TypeError), and every category it accepts has
    # one identity endomorphism per object (one morphism once stood as the
    # identity of two objects)
    rng = random.Random(0)
    outcomes = {}  # kind: [accepted, rejected]
    for s in range(30):
        for kind, reader, doc, categories in _fuzz_inputs(s):
            counts = outcomes.setdefault(kind, [0, 0])
            text = json.dumps(doc)
            strings = sorted({x for box, k in _slots(doc)
                              for x in (k, box[k]) if isinstance(x, str)})
            for _ in range(80):
                mutant = _mutant(text, strings, rng)
                try:
                    value = reader(mutant)
                except LaxcatError:
                    counts[1] += 1
                    continue
                counts[0] += 1
                bad = [C.objects for C in categories(value)
                       if not _has_identity_table(C)]
                assert not bad, (kind, mutant)
    assert {kind: sum(n) for kind, n in outcomes.items()} == {
        "diagram": 2400, "category": 2400, "probe manifest": 2400,
        "presentation": 2400, "functor": 1600}
    assert all(min(n) > 0 for n in outcomes.values()), outcomes


@pytest.mark.parametrize("command", ["grothendieck", "laxlim"])
def test_cli_names_a_transition_at_a_non_morphism(tmp_path, capsys, command):
    data = _arrow_over_an_arrow(
        lambda d: d["transitions"].__setitem__("zzz", d["transitions"]["a01"]))
    f = _write(tmp_path, "input.json", data)
    assert main([command, f]) == 3
    assert capsys.readouterr().err.startswith(
        "invalid input: diagram: transitions at non-morphisms ['zzz']")


@pytest.mark.parametrize("which, key", [("morphism_map", "a01"), ("object_map", "1")])
def test_cli_names_a_functor_file_key_outside_the_domain(tmp_path, capsys,
                                                         which, key):
    data = _arrow_over_an_arrow(
        lambda d: d["transitions"]["a01"][which].update(nope=key))
    f = _write(tmp_path, "input.json", data)
    assert main(["grothendieck", f]) == 3
    assert capsys.readouterr().err.startswith(
        "invalid input: functor: nope is not in the domain")
