"""Category axioms, markings, and the basic constructors."""

import itertools
import random

import pytest

from laxcat import checks, limits

from laxcat.core import (
    FinCat,
    Functor,
    MarkedFinCat,
    Mor,
    build_category,
    chain_cat,
    check_axioms,
    compose_functors,
    discrete_cat,
    fincat,
    flat_marking,
    is_iso,
    marked,
    marked_subcategory,
    opposite,
    opposite_cat,
    opposite_functor,
    pair_id,
    parallel_pair,
    product,
    saturate_marking,
    sharp_marking,
    short_id,
    subcategory,
    terminal_cat,
    validate_marking,
    walking_arrow,
    walking_iso,
)
from laxcat.checks import probe_suite
from laxcat.constructions import enumerate_functors
from laxcat.equiv import is_isomorphic
from laxcat.errors import InvalidMarking, MalformedTable, UnknownMorphism
from laxcat.generator import GenParams, gen_category, gen_diagram, gen_marking
from laxcat.grothendieck import grothendieck_cocart
from laxcat.io_formats import functor_from_data, functor_to_data


def test_validate_terminal():
    C = FinCat(["*"], [Mor("id_*", "*", "*")], {"*": "id_*"},
               {("id_*", "id_*"): "id_*"})
    assert check_axioms(C) is None


def test_validate_walking_arrow():
    C = walking_arrow()
    assert len(C.objects) == 2 and len(C.morphisms) == 3


def test_validate_reports_unit_law_failure():
    C = FinCat(["0", "1"],
               [Mor("id_0", "0", "0"), Mor("id_1", "1", "1"),
                Mor("u", "0", "1"), Mor("w", "0", "1")],
               {"0": "id_0", "1": "id_1"},
               {("id_0", "id_0"): "id_0", ("id_1", "id_1"): "id_1",
                ("u", "id_0"): "w", ("id_1", "u"): "u",
                ("w", "id_0"): "w", ("id_1", "w"): "w"})
    with pytest.raises(MalformedTable, match=r"(?m)^unit: \(u, id_0\)$"):
        check_axioms(C)
    # a composite with mismatched endpoints is flagged too
    bad = FinCat(["0", "1"],
                 [Mor("id_0", "0", "0"), Mor("id_1", "1", "1"),
                  Mor("u", "0", "1")],
                 {"0": "id_0", "1": "id_1"},
                 {("id_0", "id_0"): "id_0", ("id_1", "id_1"): "id_1",
                  ("u", "id_0"): "id_0", ("id_1", "u"): "u"})
    with pytest.raises(MalformedTable,
                       match=r"(?m)^composite: \(u,id_0\)=id_0 has wrong endpoints$"):
        check_axioms(bad)
    # an identity table with one morphism for two objects and a key that is
    # no object: one line per violation of the first stage that finds any
    C = FinCat(["x", "y"], [Mor("i", "x", "x"), Mor("f", "x", "z")],
               {"x": "i", "y": "i", "zzz": "i"},
               {("i", "i"): "i", ("g", "i"): "i"})
    with pytest.raises(MalformedTable) as exc:
        check_axioms(C)
    assert str(exc.value) == (
        "axiom failure:\n"
        "unit: identity i of y is no endomorphism of y\n"
        "dangling: identity given for non-object zzz\n"
        "dangling: morphism f has bad endpoints\n"
        "dangling: comp entry (g,i)=i unknown id")


# -- the axiom check against its per-triple reference ------------------------------


def _reference_check_axioms(C: FinCat) -> None:
    """``check_axioms`` as it was before it read the table as rows, kept
    verbatim as the reference the shipped check is compared with: accessor
    calls per entry, totality by a look-up per composable pair, and a loop
    over every composable triple."""
    bad: list[str] = []
    objects = set(C.objects)
    for o in C.objects:
        if o not in C.identity:
            bad.append(f"dangling: object {o} has no identity")
        elif not C.has_mor(C.identity[o]):
            bad.append(f"dangling: identity of {o} is unknown")
        elif (C.src(C.identity[o]), C.tgt(C.identity[o])) != (o, o):
            bad.append(f"unit: identity {C.identity[o]} of {o} is no "
                       f"endomorphism of {o}")
    for o in sorted(set(C.identity) - objects):
        bad.append(f"dangling: identity given for non-object {o}")
    for m in C.morphisms:
        if m.src not in objects or m.tgt not in objects:
            bad.append(f"dangling: morphism {m.name} has bad endpoints")
    for (g, f), h in C.comp.items():
        if not (C.has_mor(g) and C.has_mor(f) and C.has_mor(h)):
            bad.append(f"dangling: comp entry ({g},{f})={h} unknown id")
            continue
        if C.tgt(f) != C.src(g):
            bad.append(f"composite: ({g},{f}) not composable")
            continue
        if C.src(h) != C.src(f) or C.tgt(h) != C.tgt(g):
            bad.append(f"composite: ({g},{f})={h} has wrong endpoints")
    _reference_fail_on(bad)
    # totality
    entries = C.comp.keys()
    for g, f in C.composable_pairs():
        if (g, f) not in entries:
            bad.append(f"composite: missing composite ({g},{f})")
    _reference_fail_on(bad)
    # units
    for m in C.morphisms:
        e_src = C.identity[m.src]
        e_tgt = C.identity[m.tgt]
        if C.compose(m.name, e_src) != m.name:
            bad.append(f"unit: ({m.name}, {e_src})")
        if C.compose(e_tgt, m.name) != m.name:
            bad.append(f"unit: ({e_tgt}, {m.name})")
    # associativity on every composable triple
    by_src: dict[str, list[str]] = {}
    for m in C.morphisms:
        by_src.setdefault(m.src, []).append(m.name)
    for f in C.morphisms:
        for g in by_src.get(f.tgt, []):
            gf = C.comp[(g, f.name)]
            for h in by_src.get(C.tgt(g), []):
                if C.comp[(h, gf)] != C.comp[(C.comp[(h, g)], f.name)]:
                    bad.append(f"associativity: ({h}, {g}, {f.name})")
    _reference_fail_on(bad)


def _reference_fail_on(violations: list[str]) -> None:
    if violations:
        raise MalformedTable("axiom failure:\n" + "\n".join(violations))


def _verdict(check, C: FinCat) -> str | None:
    """None when ``check`` accepts C, else its MalformedTable message."""
    try:
        check(C)
    except MalformedTable as exc:
        return str(exc)
    return None


def _mutants(C: FinCat, rng: random.Random):
    """Single-point mutations of C's tables, as (kind, identity, comp)."""
    names = [m.name for m in C.morphisms]
    entries = sorted(C.comp)
    # a changed composite: another id, in the composite's hom when it has one
    g, f = rng.choice(entries)
    others = [m for m in C.hom(C.src(f), C.tgt(g)) if m != C.comp[g, f]]
    if not others or rng.random() < 0.2:
        others = [m for m in names if m != C.comp[g, f]]
    if others:
        yield "changed composite", C.identity, {**C.comp, (g, f): rng.choice(others)}
    # a deleted entry
    comp = dict(C.comp)
    del comp[rng.choice(entries)]
    yield "deleted entry", C.identity, comp
    # an added entry, for a pair of ids that has none, composable or not
    absent = [(g, f) for g in names for f in names if (g, f) not in C.comp]
    if absent:
        yield "added entry", C.identity, {**C.comp, rng.choice(absent): rng.choice(names)}
    # an unknown id, as a composite or in a key
    comp = dict(C.comp)
    g, f = rng.choice(entries)
    key = rng.choice([(g, f), ("zz", f), (g, "zz")])
    comp[key] = "zz" if key == (g, f) else comp.pop((g, f))
    yield "unknown id", C.identity, comp
    # a changed identity: another morphism, an unknown id, or a non-object
    x = rng.choice(C.objects)
    pick = rng.randrange(4)
    if pick == 0 and len(C.hom(x, x)) > 1:
        new = {x: rng.choice([m for m in C.hom(x, x) if m != C.identity[x]])}
    elif pick == 1:
        new = {x: rng.choice(names)}
    elif pick == 2:
        new = {x: "zz"}
    else:
        new = {"zz": C.identity[x]}
    yield "changed identity", {**C.identity, **new}, C.comp


def _axiom_corpus() -> list[FinCat]:
    cats = [terminal_cat(), discrete_cat(["a", "b"]), walking_arrow(), walking_iso(),
            parallel_pair(), chain_cat(3), checks._nonposet5(), checks._cospan_cat()]
    cats += list(probe_suite().values())
    for s in range(40):
        cats.append(gen_category(GenParams(seed=s)))
        cats.append(gen_category(GenParams(seed=s, max_objects=3, max_morphisms=6)))
    for s in range(6):
        p = GenParams(seed=s)
        cats.append(grothendieck_cocart(gen_diagram(gen_marking(gen_category(p), p), p)).total.cat)
    return cats


def test_axiom_check_agrees_with_the_per_triple_reference_on_mutants():
    # every single-point mutant is accepted by both checks, or rejected by
    # both with the same message: the same stages, lines and line order
    rng = random.Random(20801)
    kinds: dict[str, int] = {}
    lines: set[str] = set()
    compared = several = 0
    for C in _axiom_corpus():
        assert _verdict(check_axioms, C) is None
        for _ in range(5):
            for kind, identity, comp in _mutants(C, rng):
                # a table read from a file may list its entries in any order
                items = list(comp.items())
                rng.shuffle(items)
                M = FinCat(C.objects, C.morphisms, identity, dict(items))
                expected = _verdict(_reference_check_axioms, M)
                assert _verdict(check_axioms, M) == expected, (kind, expected)
                compared += 1
                if expected is not None:
                    kinds[kind] = kinds.get(kind, 0) + 1
                    body = [line.split(":")[0] for line in expected.splitlines()[1:]]
                    lines.update(body)
                    several = max(several, body.count("associativity"))
    assert compared >= 2000
    assert set(kinds) == {"changed composite", "deleted entry", "added entry",
                          "unknown id", "changed identity"}
    # every stage rejects some mutant, and a message lists several
    # associativity failures, whose order is pinned with their text
    assert lines == {"dangling", "composite", "unit", "associativity"}
    assert several >= 3


def test_duplicate_ids_rejected():
    with pytest.raises(MalformedTable):
        fincat(["x"], [Mor("id_x", "x", "x"), Mor("id_x", "x", "x")],
               {"x": "id_x"}, {("id_x", "id_x"): "id_x"})


def test_is_iso():
    A = walking_arrow()
    assert is_iso(A, "id_0")
    assert not is_iso(A, "a01")
    W = walking_iso()
    assert is_iso(W, "u") and is_iso(W, "v")
    with pytest.raises(UnknownMorphism):
        is_iso(A, "nope")


def _two_sided_inverses(C, f):
    """The search FinCat.inverse replaced: every g with g f and f g
    identities."""
    m = C.mor(f)
    return [g for g in C.hom(m.tgt, m.src)
            if C.compose(g, f) == C.identity[m.src]
            and C.compose(f, g) == C.identity[m.tgt]]


def test_inverse_agrees_with_the_two_sided_search():
    from laxcat.checks import probe_suite
    from laxcat.generator import GenParams, gen_category

    cats = [*probe_suite().values(),
            *(gen_category(GenParams(seed=s)) for s in range(200))]
    nontrivial = 0
    for C in cats:
        for m in C.morphisms:
            found = _two_sided_inverses(C, m.name)
            assert len(found) <= 1
            inv = C.inverse(m.name)
            assert inv == (found[0] if found else None)
            assert (inv is None) == (m.name not in C.iso_set())
            nontrivial += inv is not None and not C.is_identity(m.name)
    assert nontrivial >= 10
    with pytest.raises(UnknownMorphism):
        walking_arrow().inverse("nope")


def test_saturate_marking_examples():
    A = walking_arrow()
    assert saturate_marking(A, []) == frozenset({"id_0", "id_1"})
    C2 = chain_cat(2)
    ids = frozenset(C2.identity.values())
    assert saturate_marking(C2, ["a01"]) == ids | {"a01"}
    assert saturate_marking(C2, ["a01", "a12"]) == ids | {"a01", "a12", "a02"}


def test_saturate_is_idempotent_and_monotone():
    for s in range(20):
        C = gen_category(GenParams(seed=s))
        names = sorted(m.name for m in C.morphisms)
        small = saturate_marking(C, names[: len(names) // 2])
        assert saturate_marking(C, small) == small
        big = saturate_marking(C, names)
        assert small <= big


def test_validate_marking_rejects_non_closed():
    C2 = chain_cat(2)
    ids = list(C2.identity.values())
    with pytest.raises(InvalidMarking):
        validate_marking(C2, ids + ["a01", "a12"])  # missing a02
    with pytest.raises(InvalidMarking):
        validate_marking(C2, ["a01"])  # missing identities


def test_flat_and_sharp():
    A = walking_arrow()
    assert sharp_marking(A).marked == frozenset(m.name for m in A.morphisms)
    assert flat_marking(A).marked == frozenset({"id_0", "id_1"})
    W = walking_iso()
    assert flat_marking(W).marked == frozenset(m.name for m in W.morphisms)


def test_opposite_involution():
    for s in range(10):
        Cm = gen_marking(gen_category(GenParams(seed=s)), GenParams(seed=s))
        back = opposite(opposite(Cm))
        assert back.cat.same_table(Cm.cat)
        assert back.marked == Cm.marked


def test_product_markings():
    sharp1 = sharp_marking(walking_arrow())
    flat1 = flat_marking(walking_arrow())
    P = product(sharp1, flat1)
    validate_marking(P.cat, P.marked)
    # (u, id) marked, (u, u) unmarked, componentwise
    from laxcat.core import pair_id
    assert pair_id("a01", "id_0") in P.marked
    assert pair_id("a01", "a01") not in P.marked


def test_product_with_terminal_is_unit():
    D = flat_marking(parallel_pair())
    P = product(flat_marking(terminal_cat()), D)
    assert is_isomorphic(P.cat, D.cat)


def _hand_built_product(Cm, Dm):
    """The product as its table was filled by hand before build_category
    assembled it: every pair of morphisms, composed pairwise from the two
    composition tables.  Kept as an independent reference."""
    C, D = Cm.cat, Dm.cat
    objects = [pair_id(x, y) for x in C.objects for y in D.objects]
    morphisms = [Mor(pair_id(f.name, g.name), pair_id(f.src, g.src),
                     pair_id(f.tgt, g.tgt))
                 for f in C.morphisms for g in D.morphisms]
    identity = {pair_id(x, y): pair_id(C.identity[x], D.identity[y])
                for x in C.objects for y in D.objects}
    comp = {(pair_id(g1, g2), pair_id(f1, f2)): pair_id(h1, h2)
            for (g1, f1), h1 in C.comp.items()
            for (g2, f2), h2 in D.comp.items()}
    return (fincat(objects, morphisms, identity, comp),
            frozenset(pair_id(f, g) for f in Cm.marked for g in Dm.marked))


def test_product_matches_the_hand_built_table():
    generated = []
    for s in range(12):
        p = GenParams(seed=s)
        generated.append(gen_marking(gen_category(p), p))
    for D in probe_suite().values():
        for Gm in generated:
            for Am, Bm in ((flat_marking(D), Gm), (Gm, sharp_marking(D))):
                P = product(Am, Bm)
                cat, mk = _hand_built_product(Am, Bm)
                assert P.cat.same_table(cat)
                assert P.marked == mk


def test_marked_subcategory():
    C2 = chain_cat(2)
    ids = frozenset(C2.identity.values())
    sub = marked_subcategory(marked(C2, ids | {"a01"}))
    assert set(m.name for m in sub.morphisms) == set(ids) | {"a01"}
    assert marked_subcategory(sharp_marking(C2)).same_table(C2)
    # flat marking of a skeletal poset keeps only identities
    assert all(sub2.src(m.name) == sub2.tgt(m.name)
               for sub2 in [marked_subcategory(flat_marking(C2))]
               for m in sub2.morphisms)


def test_marked_functor_restricts_to_marked_subcategories():
    # a marked functor restricts to the wide subcategories of marked morphisms
    C2 = chain_cat(2)
    Cm = marked(C2, saturate_marking(C2, ["a01"]))
    Dm = sharp_marking(walking_arrow())
    F = Functor(C2, Dm.cat,
                {"0": "0", "1": "1", "2": "1"},
                {"id_0": "id_0", "id_1": "id_1", "id_2": "id_1",
                 "a01": "a01", "a12": "id_1", "a02": "a01"})
    F.validate()
    assert all(F.morphism_map[m] in Dm.marked for m in Cm.marked)


def test_generated_categories_pass_axioms():
    for s in range(30):
        check_axioms(gen_category(GenParams(seed=s)))  # raises on a violation


def test_discrete_and_opposite_cat():
    D = discrete_cat(["a", "b"])
    assert opposite_cat(D).same_table(D)
    A = walking_arrow()
    Aop = opposite_cat(A)
    assert Aop.src("a01") == "1" and Aop.tgt("a01") == "0"


def _chain_homs():
    """The chain 0 -> 1 -> 2 as homs whose payload is the pair (src, tgt)."""
    return [(f"h{i}{j}", str(i), str(j), (i, j))
            for i in range(3) for j in range(i, 3)]


def test_build_category_rebuilds_chain():
    C = build_category(["0", "1", "2"], _chain_homs(),
                       lambda q, p: (p[0], q[1]), lambda p: p[0] == p[1])
    assert C.identity == {"0": "h00", "1": "h11", "2": "h22"}
    assert C.compose("h12", "h01") == "h02"
    assert is_isomorphic(C, chain_cat(2))


def test_build_category_rejects_missing_composite():
    homs = [h for h in _chain_homs() if h[0] != "h02"]
    with pytest.raises(MalformedTable, match="missing composite"):
        build_category(["0", "1", "2"], homs,
                       lambda q, p: (p[0], q[1]), lambda p: p[0] == p[1])


def test_build_category_rejects_duplicate_payload():
    homs = _chain_homs() + [("h01bis", "0", "1", (0, 1))]
    with pytest.raises(MalformedTable, match="coincide"):
        build_category(["0", "1", "2"], homs,
                       lambda q, p: (p[0], q[1]), lambda p: p[0] == p[1])


def test_a_pair_that_does_not_compose_is_unknown():
    C = build_category(["0", "1", "2"], _chain_homs(),
                       lambda q, p: (p[0], q[1]), lambda p: p[0] == p[1])
    with pytest.raises(UnknownMorphism, match="h01 after h01"):
        C.compose("h01", "h01")
    with pytest.raises(UnknownMorphism, match="nope after h01"):
        C.compose("nope", "h01")
    with pytest.raises(KeyError):
        C.comp["h01", "h01"]


def test_an_unchecked_build_rejects_a_missing_composite():
    homs = [h for h in _chain_homs() if h[0] != "h02"]
    with pytest.raises(MalformedTable, match="missing composite"):
        build_category(["0", "1", "2"], homs, lambda q, p: (p[0], q[1]),
                       lambda p: p[0] == p[1], check=False)


def test_build_category_fills_its_table_in_hom_order():
    # homs in order, and for each its partners out of its target in hom
    # order: generating_morphisms and equiv._morphism_order iterate this
    C = build_category(["0", "1", "2"], _chain_homs(),
                       lambda q, p: (p[0], q[1]), lambda p: p[0] == p[1],
                       check=False)
    assert list(C.comp) == [
        ("h00", "h00"), ("h01", "h00"), ("h02", "h00"),
        ("h11", "h01"), ("h12", "h01"), ("h22", "h02"),
        ("h11", "h11"), ("h12", "h11"), ("h22", "h12"), ("h22", "h22")]


def test_subcategory_keeps_composites_of_kept_pairs():
    C2 = chain_cat(2)
    full = subcategory(C2, ["0", "2"],
                       [m for m in C2.morphisms if m.src != "1" and m.tgt != "1"])
    assert is_isomorphic(full, walking_arrow())
    # dropping a01 keeps every composite of kept pairs: still a category
    assert subcategory(C2, C2.objects,
                       [m for m in C2.morphisms if m.name != "a01"]).n_morphisms == 5
    # dropping a02, the composite of a12 after a01, leaves it dangling
    with pytest.raises(MalformedTable):
        subcategory(C2, C2.objects, [m for m in C2.morphisms if m.name != "a02"])
    unchecked = subcategory(C2, C2.objects,
                            [m for m in C2.morphisms if m.name != "a02"],
                            check=False)
    assert ("a12", "a01") in unchecked.comp


# -- generating sets and the generator-only functor check ------------------------


def _generated_by(C, gens) -> bool:
    """Every non-identity is a generator, or compose(g, r) for a generator g
    and an r reached before it."""
    reached = set(gens)
    frontier = list(gens)
    while frontier:
        r = frontier.pop()
        for g in gens:
            if C.src(g) == C.tgt(r):
                h = C.compose(g, r)
                if h not in reached and not C.is_identity(h):
                    reached.add(h)
                    frontier.append(h)
    return reached == set(C.nonidentity())


def _generation_cases():
    yield from (gen_category(GenParams(seed=s)) for s in range(200))
    yield from probe_suite().values()


def test_generators_generate_every_morphism():
    for C in _generation_cases():
        gens = C.generators()
        assert C.generators() is gens  # computed once
        assert set(gens) <= set(C.nonidentity())
        assert _generated_by(C, gens)


def test_chain_generators_are_the_covering_arrows():
    for n in range(1, 6):
        assert set(chain_cat(n).generators()) == {
            f"a{i}{i + 1}" for i in range(n)}


def _monoid(elements: list[str], mult) -> FinCat:
    """The one-object category of a finite monoid with unit "id"."""
    return fincat(["*"], [Mor(m, "*", "*") for m in elements], {"*": "id"},
                  {(g, f): mult(g, f) for g in elements for f in elements})


def test_a_stalled_closure_adds_one_generator():
    # in {1, e} with e e = e and in the cyclic monoid of order 3, every
    # non-identity is a composite of non-identities: none is indecomposable
    idem = _monoid(["id", "e"], lambda g, f: "e" if "e" in (g, f) else "id")
    power = {"id": 0, "a": 1, "a2": 2}
    name = {k: m for m, k in power.items()}
    cyclic = _monoid(list(power), lambda g, f: name[(power[g] + power[f]) % 3])
    assert idem.generators() == ("e",)
    assert cyclic.generators() == ("a",)


def _is_functor_all_pairs(F) -> bool:
    """The reference check: every composable pair of the domain."""
    C, D = F.dom, F.cod
    for m in C.morphisms:
        img = F.morphism_map.get(m.name)
        if (img is None or not D.has_mor(img) or D.src(img) != F.obj(m.src)
                or D.tgt(img) != F.obj(m.tgt)):
            return False
    if any(F.mor(C.identity[x]) != D.identity[F.obj(x)] for x in C.objects):
        return False
    return all(F.mor(h) == D.compose(F.mor(g), F.mor(f))
               for (g, f), h in C.comp.items())


def _accepts(F) -> bool:
    try:
        F.validate()
    except MalformedTable:
        return False
    return True


def test_validate_agrees_with_the_all_pairs_check():
    targets = list(probe_suite().values())
    targets += [gen_category(GenParams(seed=s, max_objects=3, max_morphisms=6))
                for s in range(6)]
    verdicts = {True: 0, False: 0}
    for s in range(40):
        C = gen_category(GenParams(seed=s))
        for D in targets:
            for F in enumerate_functors(C, D):
                assert _accepts(F) and _is_functor_all_pairs(F)
                # each one-morphism change to a parallel morphism
                for m in C.morphisms:
                    for other in D.hom(F.obj(m.src), F.obj(m.tgt)):
                        if other == F.mor(m.name):
                            continue
                        G = Functor(C, D, F.object_map,
                                    {**F.morphism_map, m.name: other})
                        want = _is_functor_all_pairs(G)
                        assert _accepts(G) == want, (s, m.name, other)
                        verdicts[want] += 1
    assert verdicts[True] and verdicts[False]


def _chain3_with_a_second_long_arrow() -> FinCat:
    """chain_cat(3) with one more morphism b03 from 0 to 3."""
    C = chain_cat(3)
    comp = {**C.comp, ("b03", "id_0"): "b03", ("id_3", "b03"): "b03"}
    return fincat(C.objects, [*C.morphisms, Mor("b03", "0", "3")],
                  C.identity, comp)


def test_validate_rejects_a_map_wrong_only_at_a_non_generator():
    C, D = chain_cat(3), _chain3_with_a_second_long_arrow()
    mmap = {m.name: m.name for m in C.morphisms}
    Functor(C, D, {x: x for x in C.objects}, mmap).validate()
    assert "a03" not in C.generators()
    F = Functor(C, D, {x: x for x in C.objects}, {**mmap, "a03": "b03"})
    with pytest.raises(MalformedTable, match="not preserved"):
        F.validate()


def test_validate_reads_the_domain_table_through_compose():
    # an unchecked domain missing a12 after a01 raises as an unknown composite
    C2 = chain_cat(2)
    holed = fincat(C2.objects, C2.morphisms, C2.identity,
                   {k: h for k, h in C2.comp.items() if k != ("a12", "a01")},
                   check=False)
    F = Functor(holed, C2, {x: x for x in C2.objects},
                {m.name: m.name for m in C2.morphisms})
    with pytest.raises(UnknownMorphism, match="a12 after a01"):
        F.validate()


def test_validate_rejects_a_domain_object_without_an_identity():
    # an unchecked domain that lost the identity of 1: the check names it
    # as a malformed table, not with a bare KeyError
    C2 = chain_cat(2)
    holed = fincat(C2.objects, C2.morphisms,
                   {x: i for x, i in C2.identity.items() if x != "1"},
                   C2.comp, check=False)
    F = Functor(holed, C2, {x: x for x in C2.objects},
                {m.name: m.name for m in C2.morphisms})
    with pytest.raises(MalformedTable, match="1 has no identity"):
        F.validate()


# -- functor ids --------------------------------------------------------------


def reference_key(F):
    """Functor.key as it was formatted before it read its domain's layout:
    the object images in the domain's order, then the images of the
    non-identity morphisms in sorted(morphism_map) order."""
    os = ",".join(f"{x}>{F.obj(x)}" for x in F.dom.objects)
    ms = ",".join(f"{m}>{F.mor(m)}" for m in sorted(F.morphism_map)
                  if not F.dom.is_identity(m))
    return short_id(f"F{{{os};{ms}}}")


def test_functor_key_bytes_are_the_sorted_map_formula():
    # enumerated, composed, opposite and file-read functors, long keys
    # (hashed by short_id) among them
    checked = hashed = 0
    for s in range(12):
        C, D = gen_category(GenParams(seed=s)), gen_category(GenParams(seed=s + 40))
        there = list(itertools.islice(enumerate_functors(C, D), 20))
        back = list(itertools.islice(enumerate_functors(D, C), 3))
        functors = there + [compose_functors(G, F) for F in there for G in back]
        functors += [opposite_functor(F) for F in there]
        for F in there:  # read back with its maps in reversed order
            data = functor_to_data(F)
            data = {k: dict(reversed(list(v.items()))) for k, v in data.items()}
            functors.append(functor_from_data(data, F.dom, F.cod))
        p = GenParams(seed=s)
        diagram = gen_diagram(gen_marking(gen_category(p), p), p)
        functors += diagram.transition.values()
        total = grothendieck_cocart(diagram).total.cat  # long object ids
        functors += itertools.islice(enumerate_functors(diagram.base.cat, total), 20)
        functors += itertools.islice(enumerate_functors(total, C), 20)
        for F in functors:
            assert F.key() == reference_key(F)
            hashed += "#" in F.key()
        checked += len(functors)
    assert checked > 600 and hashed > 100


def test_whiskered_ids_are_the_keys_of_the_whiskered_functors(monkeypatch):
    # every id _Whiskering mints over the probe-check streams is the key of
    # post . G . pre, built as a functor
    minted = []
    real = limits._Whiskering.obj

    def recorded(W, gid):
        hid = real(W, gid)
        minted.append((W.post, W.src[gid], W.pre, hid))
        return hid

    monkeypatch.setattr(limits._Whiskering, "obj", recorded)
    for s in range(127, 137):
        checks.run_check("thm-lax-colim-probe", seed=s, count=1)
    assert len(minted) > 1000
    for post, G, pre, hid in minted:
        assert hid == reference_key(compose_functors(post, compose_functors(G, pre)))
