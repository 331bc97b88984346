"""Set/category limits, lax and oplax limits, and the pseudo-limit oracle."""

import itertools
import random
from dataclasses import replace

import pytest

from laxcat import constructions, core, equiv, limits, localization
from laxcat.checks import _gen_instance, probe_suite, theorem_defaults
from laxcat.constructions import (
    FunCat,
    FunHoms,
    SizeCaps,
    coslice_cat,
    marked_functor_category,
    marked_functor_homs,
    slice_cat,
    slice_transition,
)
from laxcat.core import (
    Functor,
    _by_construction,
    _product_functor,
    chain_cat,
    compose_functors,
    discrete_cat,
    flat_marking,
    identity_functor,
    marked,
    opposite_cat,
    parallel_pair,
    product,
    saturate_marking,
    sharp_marking,
    subcategory,
    terminal_cat,
    walking_arrow,
    walking_iso,
)
from laxcat.constructions import twisted_arrow
from laxcat.diagrams import (
    CatDiagram,
    MarkedCatDiagram,
    SetDiagram,
    constant_diagram,
    fiberwise_op,
    restrict_set_diagram,
)
from laxcat.equiv import (
    is_equivalent,
    is_fully_faithful,
    is_isomorphic,
    unfaithful_pair,
    unreached_object,
)
from laxcat.generator import (
    GenParams,
    _monoid3,
    gen_category,
    gen_diagram,
    gen_marking,
    gen_set_diagram,
)
from laxcat.grothendieck import all_sections, grothendieck_cocart, marked_sections
from laxcat.limits import (
    _Whiskering,
    _family_mor_id,
    _family_obj_id,
    cat_limit,
    cat_limit_map,
    end_limit,
    iso_comma,
    lax_limit,
    marked_cat_limit,
    oplax_limit,
    set_colimit,
    set_limit,
)
from laxcat.errors import InvariantViolation, MalformedTable, SizeBoundExceeded
from laxcat.localization import check_localization_up, probe_check_colimit_theorem

BIG = SizeCaps(max_objects=1024, max_morphisms=8192, max_candidates=10**6)


def _arrow_set_diagram() -> SetDiagram:
    I = walking_arrow()
    return SetDiagram(I, {"0": ["x", "y"], "1": ["z"]},
                      {"a01": {"x": "z", "y": "z"},
                       "id_0": {"x": "x", "y": "y"}, "id_1": {"z": "z"}})


def test_set_limit_and_colimit_examples():
    I = chain_cat(2)
    const = SetDiagram(I, {i: ["*"] for i in I.objects},
                       {m.name: {"*": "*"} for m in I.morphisms})
    assert len(set_limit(const)) == 1
    assert len(set(set_colimit(const).values())) == 1

    F = _arrow_set_diagram()
    assert sorted(set_limit(F)) == [("x", "z"), ("y", "z")]
    assert len(set(set_colimit(F).values())) == 1


def test_cofinality_pushout_instance():
    # Tw([1]) -> [1] turns the arrow diagram into the span {x,y} <- {x,y} -> {z}
    F = _arrow_set_diagram()
    tw = twisted_arrow(F.base)
    G = restrict_set_diagram(F, tw.proj_src)
    assert len(set(set_colimit(G).values())) == len(set(set_colimit(F).values()))
    assert len(set_limit(G)) == len(set_limit(F))


def test_cat_limit_examples():
    empty = CatDiagram(flat_marking(discrete_cat([])), {}, {})
    assert is_isomorphic(cat_limit(empty).cat, terminal_cat())

    D2 = flat_marking(discrete_cat(["l", "r"]))
    A = walking_arrow()
    prod = CatDiagram(D2, {"l": A, "r": chain_cat(2)},
                      {"id_l": identity_functor(A),
                       "id_r": identity_functor(chain_cat(2))})
    lim = cat_limit(prod)
    assert lim.cat.n_objects == A.n_objects * 3
    assert lim.cat.n_morphisms == A.n_morphisms * chain_cat(2).n_morphisms

    # cospan along identity legs collapses onto the common category
    I = flat_marking(_cospan_base())
    C = chain_cat(2)
    ident = identity_functor(C)
    cospan = CatDiagram(I, {"a": C, "b": C, "c": C},
                        {"f": ident, "g": ident,
                         **{i: ident for i in I.cat.identity.values()}})
    assert is_isomorphic(cat_limit(cospan).cat, C)


def _cospan_base():
    from laxcat.core import Mor, fincat
    mors = [Mor("id_a", "a", "a"), Mor("id_b", "b", "b"), Mor("id_c", "c", "c"),
            Mor("f", "a", "c"), Mor("g", "b", "c")]
    comp = {("id_c", "f"): "f", ("f", "id_a"): "f",
            ("id_c", "g"): "g", ("g", "id_b"): "g",
            ("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b",
            ("id_c", "id_c"): "id_c"}
    return fincat(["a", "b", "c"], mors,
                  {"a": "id_a", "b": "id_b", "c": "id_c"}, comp)


def test_marked_cat_limit_binary_product_marking():
    from laxcat.core import pair_id, product
    D2 = flat_marking(discrete_cat(["l", "r"]))
    A = walking_arrow()
    sharpA, flatA = sharp_marking(A), flat_marking(A)
    diag = MarkedCatDiagram(D2, {"l": sharpA, "r": flatA},
                            {"id_l": identity_functor(A),
                             "id_r": identity_functor(A)})
    Lm, L = marked_cat_limit(diag)
    P = product(sharpA, flatA)
    v = is_isomorphic(Lm.cat, P.cat)
    assert v
    w = v.witness
    assert {w.morphism_map[m] for m in Lm.marked} == set(P.marked)


def test_lax_limit_examples():
    # sharp [1]: lax limit of an arrow-shaped diagram is its source fiber
    F = _fiber_arrow_diagram(sharp=True)
    r = lax_limit(F, BIG)
    assert is_equivalent(r.cat, F.fiber["0"])
    for proj in r.projections.values():
        proj.validate()
    # flat [1]: lax limit is the comma construction = all sections
    Ff = _fiber_arrow_diagram(sharp=False)
    rf = lax_limit(Ff, BIG)
    E = grothendieck_cocart(Ff)
    assert is_equivalent(rf.cat, all_sections(E).cat)
    # constant terminal diagram
    const = constant_diagram(sharp_marking(chain_cat(2)), terminal_cat())
    assert is_equivalent(lax_limit(const, BIG).cat, terminal_cat())


def _fiber_arrow_diagram(sharp: bool) -> CatDiagram:
    I = walking_arrow()
    Im = sharp_marking(I) if sharp else flat_marking(I)
    F0 = terminal_cat()
    F1 = walking_arrow()
    u = Functor(F0, F1, {"*": "0"}, {"id_*": "id_0"})
    return CatDiagram(Im, {"0": F0, "1": F1},
                      {"a01": u, "id_0": identity_functor(F0),
                       "id_1": identity_functor(F1)})


def test_oplax_limit_sharp_agrees_with_lax():
    F = _fiber_arrow_diagram(sharp=True)
    assert is_equivalent(oplax_limit(F, BIG).cat, lax_limit(F, BIG).cat)


def test_iso_comma_examples():
    C = gen_category(GenParams(seed=3))
    ident = identity_functor(C)
    assert is_equivalent(iso_comma(ident, ident), C)
    A = walking_arrow()
    t = terminal_cat()
    pick0 = Functor(t, A, {"*": "0"}, {"id_*": "id_0"})
    pick1 = Functor(t, A, {"*": "1"}, {"id_*": "id_1"})
    assert iso_comma(pick0, pick1).n_objects == 0
    same = iso_comma(pick0, pick0)
    assert same.n_objects > 0
    assert is_equivalent(same, t)


def test_monotonicity_of_marking_via_sections():
    # a larger marking constrains sections to a full subcategory
    for s in range(10):
        p = GenParams(seed=s)
        I = gen_category(p)
        F = gen_diagram(flat_marking(I), p)
        small = flat_marking(I)
        big = gen_marking(I, p)
        E1 = grothendieck_cocart(CatDiagram(small, F.fiber, F.transition))
        E2 = grothendieck_cocart(CatDiagram(big, F.fiber, F.transition))
        s1 = marked_sections(E1)
        s2 = marked_sections(E2)
        assert set(s2.cat.objects) <= set(s1.cat.objects)
        for x in s2.cat.objects:
            for y in s2.cat.objects:
                assert sorted(s2.cat.hom(x, y)) == sorted(s1.cat.hom(x, y))


def test_cat_limit_map_of_inclusions_is_fully_faithful():
    # full-subcategory inclusions componentwise, limit compared by inclusion
    from laxcat.checks import _ff_lemma, Ctx
    for s in range(10):
        assert _ff_lemma(GenParams(seed=s), Ctx()) is None


def test_lax_limit_raises_on_a_corrupted_transport(monkeypatch):
    # the fault the whiskered CatDiagram used to catch, injected where the end
    # formula now transports transformations: one identity of a fiber goes to
    # a parallel non-identity endomorphism of its image's hom
    F = constant_diagram(flat_marking(walking_arrow()), probe_suite()["nonposet5"])
    lax_limit(F, BIG)  # the uncorrupted transport is fine
    fibers, corrupted = [], []
    real_homs, real_mor = limits.marked_functor_homs, limits._Whiskering.mor

    def recorded(*args):
        fibers.append(real_homs(*args))
        return fibers[-1]

    def corrupt(self, nid):
        img = real_mor(self, nid)
        if corrupted:
            return corrupted[0][2] if corrupted[0][:2] == (self, nid) else img
        H = next(H for H in fibers if img in H.hom_of)
        _, s, t, _ = H.hom_of[img]
        others = [n for n in H.hom(s, t) if n != img]
        if H.is_identity(img) and others:
            corrupted.append((self, nid, others[0]))
            return others[0]
        return img

    monkeypatch.setattr(limits, "marked_functor_homs", recorded)
    monkeypatch.setattr(limits._Whiskering, "mor", corrupt)
    with pytest.raises(MalformedTable):
        lax_limit(F, BIG)
    assert corrupted


# -- whiskering whole functor categories: the reference transport -------------------


def _components(fc: FunCat, nid: str) -> dict[str, str]:
    """The components of the transformation nid, by object of the domain."""
    _, fid, _, comps = fc.hom_of[nid]
    return dict(zip(fc.functors[fid].dom.objects, comps))


def whisker_functor(src_fc: FunCat, dst_fc: FunCat,
                    pre: Functor, post: Functor) -> Functor:
    """Fun(A', B') -> Fun(A, B) by G |-> post . G . pre, for pre: A -> A' and
    a functor post: B' -> B.

    A transformation a goes to the one between the endpoint images with the
    components post(a_{pre x}), computed from a's component tuple and looked
    up by endpoints and components in dst_fc.hom_of (see _Whiskering).  An
    object image outside dst_fc raises KeyError; a missing transformation
    raises InvariantViolation.

    A functor by construction, as composition in a functor category is
    componentwise: the image of b a has the components
    post(b_{pre x} a_{pre x}) = post(b_{pre x}) post(a_{pre x}), those of the
    composite of the images.  So validate checks only objects, endpoints and
    identities; a caller other than a CatDiagram constructor must call it."""
    find = {(s, t, comps): nid for nid, s, t, comps in dst_fc.hom_of.values()}
    W = _Whiskering(src_fc.functors, src_fc.hom_of, dst_fc.functors,
                    find.__getitem__, pre, post)
    omap = {gid: W.obj(gid) for gid in src_fc.functors}
    mmap = {nid: W.mor(nid) for nid in src_fc.hom_of}
    return _by_construction(Functor(src_fc.cat, dst_fc.cat, omap, mmap))


def _whisker_pair():
    """Fun([2], [1]) -> Fun([1], [1]) by precomposition with the inclusion
    [1] -> [2] skipping the middle object."""
    A, A2, B = walking_arrow(), chain_cat(2), walking_arrow()
    pre = Functor(A, A2, {"0": "0", "1": "2"},
                  {"id_0": "id_0", "id_1": "id_2", "a01": "a02"})
    src = marked_functor_category(flat_marking(A2), flat_marking(B), BIG)
    dst = marked_functor_category(flat_marking(A), flat_marking(B), BIG)
    return src, dst, pre, identity_functor(B)


def test_whisker_functor_maps_transformations_to_whiskered_ones():
    src, dst, pre, post = _whisker_pair()
    W = whisker_functor(src, dst, pre, post)
    W.validate()
    for gid, G in src.functors.items():
        assert dst.functors[W.obj(gid)].object_map == \
            compose_functors(G, pre).object_map
    assert any(not src.cat.is_identity(nid) for nid in src.hom_of)
    for nid in src.hom_of:
        img = W.mor(nid)
        a = _components(src, nid)
        assert _components(dst, img) == \
            {x: a[pre.obj(x)] for x in pre.dom.objects}
        assert dst.cat.src(img) == W.obj(src.cat.src(nid))
        assert dst.cat.tgt(img) == W.obj(src.cat.tgt(nid))


def test_whisker_functor_raises_on_a_missing_whiskered_transformation():
    src, dst, pre, post = _whisker_pair()
    W = whisker_functor(src, dst, pre, post)
    assert any(not dst.cat.is_identity(W.mor(n)) for n in src.cat.nonidentity())
    # the same functors, with only the transformations whose components are
    # identities: the whiskered image of a non-identity is missing
    A, B = pre.dom, post.cod
    partial = FunHoms(A, list(dst.functors.values()), B, "partial", BIG,
                      lambda x, c: B.is_identity(c)).category()
    with pytest.raises(InvariantViolation, match="has no image"):
        whisker_functor(src, partial, pre, post)


# -- functor categories: unchecked tables, functors by construction --------------


def _small_diagrams():
    for s in range(7):
        p = GenParams(seed=s, max_objects=2, max_morphisms=5,
                      fiber_max_objects=2, fiber_max_morphisms=4)
        yield gen_diagram(gen_marking(gen_category(p), p), p)
    yield constant_diagram(flat_marking(walking_arrow()),
                           probe_suite()["nonposet5"])


def _probes():
    return {n: probe_suite()[n] for n in ("arrow", "iso", "parallel")}


def _limits_and_comparisons():
    """lax_limit and the probe check of each small diagram, the universal
    property of its localized total where the localization completes, and,
    per comparison the probe check decided, the objects of its end and the
    number of end morphisms it read."""
    ends = []
    real = localization.end_reader

    def recorded(*args):
        ends.append(real(*args))
        return ends[-1]

    def up(F):
        E = grothendieck_cocart(F, BIG)
        r = localization.localize(E.total, localization.Bounds(word_length=4))
        return r.ok and check_localization_up(E.total, r, _probes(), BIG)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(localization, "end_reader", recorded)
        out = [(lax_limit(F, BIG), probe_check_colimit_theorem(F, _probes(), BIG),
                up(F))
               for F in _small_diagrams()]
    return out, [(lim.objects, lim.read) for lim in ends]


def test_lazy_functor_categories_agree_with_full_tables_and_checks(monkeypatch):
    shipped, shipped_read = _limits_and_comparisons()
    # the full path: every table filled and checked when built, every functor
    # validated on the generator pairs of its domain
    real = core.build_category
    for module in (core, constructions, limits):
        monkeypatch.setattr(module, "build_category",
                            lambda *args, check=True: real(*args, check=True))
    monkeypatch.setattr(equiv, "_by_construction", lambda F: F)
    full, full_read = _limits_and_comparisons()
    for (lax, verdict, up), (lax2, verdict2, up2) in zip(shipped, full, strict=True):
        assert lax.cat.same_table(lax2.cat)
        assert all(P.same_maps(lax2.projections[i])
                   for i, P in lax.projections.items())
        assert verdict == verdict2
        assert up == up2
    assert any(verdict.failures == [] for _, verdict, _ in shipped)
    # the comparisons read the same ends, hom by hom
    assert shipped_read == full_read
    assert len(shipped_read) > 10 and all(read for _, read in shipped_read)


def test_no_functor_category_computes_its_generators(monkeypatch):
    # the probe check in both flavours, the end formula of lax_limit and the
    # universal property of the localized total assemble no functor category
    # whole, so none computes its generators: each reads its FunHoms hom by
    # hom, and those are counted
    built, made = [], []
    real_category, real_init = FunHoms.category, FunHoms.__init__

    def recorded(self, *args, **kwargs):
        built.append(real_category(self, *args, **kwargs))
        return built[-1]

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(FunHoms, "category", recorded)
    monkeypatch.setattr(FunHoms, "__init__", init)
    F = constant_diagram(flat_marking(walking_arrow()), probe_suite()["nonposet5"])
    assert probe_check_colimit_theorem(F, _probes(), BIG).ok
    lax_limit(F, BIG)
    E = grothendieck_cocart(F, BIG)
    r = localization.localize(E.total)
    probes = {n: D for n, D in probe_suite().items() if n != "nonposet5"}
    assert check_localization_up(E.total, r, probes, BIG).ok
    for cartesian in (False, True):
        assert probe_check_colimit_theorem(F, probes, BIG, cartesian).ok
    assert built == []
    assert len(made) > 10


def test_a_hand_made_non_functor_out_of_a_functor_category_is_rejected():
    fc = marked_functor_category(flat_marking(walking_arrow()),
                                 flat_marking(probe_suite()["nonposet5"]), BIG)
    C = fc.cat
    nonid = C.nonidentity()
    composites = {C.compose(g, f) for f in nonid for g in nonid
                  if C.src(g) == C.tgt(f)} - set(C.identity.values())
    h, other = next((h, o) for h in sorted(composites)
                    for o in C.hom(C.src(h), C.tgt(h))
                    if o != h and not C.is_identity(o))
    ident = {m.name: m.name for m in C.morphisms}
    G = Functor(C, C, {x: x for x in C.objects}, {**ident, h: other})
    with pytest.raises(MalformedTable, match="not preserved"):
        G.validate()
    with pytest.raises(TypeError):  # the mark is no constructor argument
        Functor(C, C, {}, {}, True)


# -- the end formula, hom by hom ---------------------------------------------------


def _whole_fiber_lax_limit(F, caps):
    """lax_limit on whole fibers: every Fun† built, each transition a
    whisker_functor, their CatDiagram's cat_limit, and the projection to F(i)
    the component at id_i of the limit's projection at id_i."""
    Im = F.base
    I = Im.cat
    tw = twisted_arrow(I, caps)
    slices = {i: slice_cat(Im, i) for i in I.objects}
    funcats = {f: marked_functor_category(slices[I.src(f)].marked,
                                          flat_marking(F.fiber[I.tgt(f)]), caps)
               for f in tw.cat.objects}
    transitions = {}
    for m in tw.cat.morphisms:
        a, b = tw.legs[m.name]
        pre = slice_transition(Im, slices[I.src(m.src)], slices[I.src(m.tgt)], a)
        transitions[m.name] = whisker_functor(funcats[m.tgt], funcats[m.src],
                                              pre, F.transition[b])
    res = cat_limit(CatDiagram(flat_marking(opposite_cat(tw.cat)),
                               {f: fc.cat for f, fc in funcats.items()},
                               transitions), caps)
    projections = {}
    for i in I.objects:
        idf = I.identity[i]
        P, fc = res.projections[idf], funcats[idf]
        projections[i] = Functor(
            res.cat, F.fiber[i],
            {x: fc.functors[P.obj(x)].obj(idf) for x in res.cat.objects},
            {m.name: _components(fc, P.mor(m.name))[idf]
             for m in res.cat.morphisms})
    return res.cat, projections


def _whole_fiber_probe_sides(F, probes, caps):
    """Per probe D, the two sides the probe check compares, on whole fibers:
    Fun†(E.total, D♭), and cat_limit of the whiskered CatDiagram of the whole
    Fun†(coslice(t) x flat F(s), D♭)."""
    Im = F.base
    I = Im.cat
    E = grothendieck_cocart(F, caps)
    tw = twisted_arrow(I, caps)
    coslices = {i: coslice_cat(Im, i) for i in I.objects}
    pcats = {f: product(coslices[I.tgt(f)].marked, flat_marking(F.fiber[I.src(f)]))
             for f in tw.cat.objects}
    pre = {}
    for m in tw.cat.morphisms:
        a, b = tw.legs[m.name]
        cos = slice_transition(Im, coslices[I.tgt(m.src)], coslices[I.tgt(m.tgt)], b)
        pre[m.name] = _product_functor(pcats[m.src], pcats[m.tgt], cos,
                                       F.transition[a])
    sides = {}
    for name, D in probes.items():
        Dm = flat_marking(D)
        pfun = {f: marked_functor_category(P, Dm, caps) for f, P in pcats.items()}
        post = identity_functor(D)
        diagram = CatDiagram(
            flat_marking(opposite_cat(tw.cat)), {f: fc.cat for f, fc in pfun.items()},
            {m.name: whisker_functor(pfun[m.tgt], pfun[m.src], pre[m.name], post)
             for m in tw.cat.morphisms})
        sides[name] = (marked_functor_category(E.total, Dm, caps).cat,
                       cat_limit(diagram, caps).cat)
    return sides


def test_the_end_read_hom_by_hom_matches_whole_fibers(monkeypatch):
    # the end is read hom by hom, and the probe check's verdict agrees with
    # is_equivalent, the independent oracle, on every diagram and probe, lax
    # and oplax
    ends = []
    real = localization.end_reader

    def recorded(*args):
        ends.append(real(*args))
        return ends[-1]

    monkeypatch.setattr(localization, "end_reader", recorded)
    compared = 0
    for F in _small_diagrams():
        cat, projections = _whole_fiber_lax_limit(F, BIG)
        lax = lax_limit(F, BIG)
        assert lax.cat.same_table(cat)
        assert lax.projections.keys() == projections.keys()
        assert all(P.same_maps(projections[i]) for i, P in lax.projections.items())
        for G, probes, cartesian in (
                (F, _probes(), False),
                (fiberwise_op(F), {n: opposite_cat(D) for n, D in _probes().items()},
                 True)):
            sides = _whole_fiber_probe_sides(G, probes, BIG)
            ends.clear()
            verdict = probe_check_colimit_theorem(F, _probes(), BIG, cartesian)
            assert len(ends) == len(sides)
            inequivalent = []
            for (name, (side_a, side_b)), lim in zip(sides.items(), ends):
                # the reader the probe check read, assembled whole here
                end, _, _ = limits._assemble(lim, check=False)
                assert end.same_table(side_b)
                if not is_equivalent(side_a, side_b):
                    inequivalent.append(name)
                compared += end.n_morphisms
            assert [name for name, _ in verdict.failures] == inequivalent
            assert verdict.ok == (not inequivalent)
        compared += cat.n_morphisms
    assert compared > 100


# -- the whole-category comparison decision: the probe check's oracle ---------------


def _comparison(side_a: FunCat, end: core.FinCat, fun: dict[str, FunHoms],
                iota: dict[str, Functor], post: Functor) -> Functor:
    """The comparison functor c: Fun†(E.total, D♭) -> end, where end is the
    end_limit over opposite(Tw(I)) of f |-> fun[f] = Fun†(P(f), D♭):
    G |-> (f |-> G iota_f), and a |-> (f |-> a iota_f), each component
    whiskered by _Whiskering and each family named by _family_obj_id and
    _family_mor_id, as end_limit names them.

    The families are compatible: along m = (a, b): f -> f2 of Tw, with
    b f2 a = f, iota_f2 pre(m) sends (c, x) to (u, F(c b f2) F(a) x)
    = (u, F(c f) x), which is iota_f(c, x), and likewise on morphisms.
    c is a functor by construction: whiskering and family composition are
    componentwise, so c(b a) has at f the components b_{iota_f p} a_{iota_f p},
    those of c(b)_f c(a)_f, and the end composes families componentwise.  So
    validate checks only objects, endpoints and identities.  post is the
    identity of D."""
    table = side_a.hom_of
    whisker = {f: _Whiskering(side_a.functors, table, H.functors, H.find,
                              iota[f], post)
               for f, H in fun.items()}
    try:
        omap = {gid: _family_obj_id({f: W.obj(gid) for f, W in whisker.items()})
                for gid in side_a.functors}
    except KeyError as out:
        raise InvariantViolation(
            f"comparison: {out.args[0]} is not a marked functor") from None
    mmap = {nid: _family_mor_id({f: W.mor(nid) for f, W in whisker.items()})
            for nid in table}
    c = _by_construction(Functor(side_a.cat, end, omap, mmap))
    c.validate()
    return c


def _comparison_failure(c: Functor) -> str | None:
    """Why the comparison functor c is no equivalence, naming a witness, or
    None: it is one when fully faithful and essentially surjective (Mac Lane,
    Categories for the Working Mathematician, IV.4)."""
    pair = unfaithful_pair(c)
    if pair is not None:
        return "comparison not fully faithful on hom(%s, %s)" % pair
    d = unreached_object(c)
    if d is not None:
        return f"comparison not essentially surjective: no image reaches {d}"
    return None


def _whole_category_mapping_out(F, E, probes, caps):
    """The probe check's decision on whole categories, kept as the oracle of
    the hom-by-hom one: for each probe D, its name, Fun†(E.total, D♭) built
    whole, the end_limit category with its families, and why the comparison
    functor between them (_comparison) is no equivalence, or None, decided
    by unfaithful_pair and unreached_object."""
    I = F.base.cat
    tw, pcats, pre_diagram, iota, plan = localization._end_diagram(F, E, caps)
    for name, D in probes.items():
        Dm = flat_marking(D)
        side_a = marked_functor_category(E.total, Dm, caps)
        fun = {st: marked_functor_homs(P, Dm, caps) for st, P in pcats.items()}
        post = identity_functor(D)
        fun_at = {f: fun[I.src(f), I.tgt(f)] for f in tw.cat.objects}
        end = end_limit(pre_diagram, plan, fun_at,
                        {m.name: post for m in tw.cat.morphisms}, caps)
        c = _comparison(side_a, end[0], fun_at, iota, post)
        yield name, side_a, end, _comparison_failure(c)


def test_the_hom_by_hom_decision_agrees_with_the_whole_category_oracle():
    # 100 probe-size instances, lax and oplax, against each of the 7 probes
    # at 512/512 caps: the verdicts agree wherever both decide
    caps = SizeCaps(max_objects=512, max_morphisms=512, max_candidates=10**6)
    params, ctx = theorem_defaults("thm-lax-colim-probe")
    decided = failed = 0
    capped = {"both": 0, "shipped": 0, "oracle": 0}
    suite = probe_suite()
    for s in range(100):
        F = _gen_instance(replace(params, seed=s))
        for G, probes, cartesian in (
                (F, suite, False),
                (fiberwise_op(F), {n: opposite_cat(D) for n, D in suite.items()},
                 True)):
            E = grothendieck_cocart(G, caps)
            for name, D in suite.items():
                try:
                    _, [(_, _, shipped)] = localization._mapping_out(
                        F, {name: D}, caps, cartesian)
                except SizeBoundExceeded:
                    shipped = capped
                try:
                    [(_, _, _, oracle)] = _whole_category_mapping_out(
                        G, E, {name: probes[name]}, caps)
                except SizeBoundExceeded:
                    oracle = capped
                if shipped is capped or oracle is capped:
                    capped["both" if shipped is oracle else
                           "shipped" if shipped is capped else "oracle"] += 1
                    continue
                assert (shipped is None) == (oracle is None), (s, name, shipped, oracle)
                failed += shipped is not None
                decided += 1
    # every comparison decided is an equivalence; where a cap stops one
    # side, it stops the oracle, which builds both sides whole
    assert decided >= 1300 and failed == 0
    assert capped["shipped"] == 0 and sum(capped.values()) < 40


def test_the_end_read_hom_by_hom_is_the_oracle_end():
    # the probe check reads exactly the end the oracle assembles: the same
    # object families, and as many morphisms as the oracle's end has
    F = constant_diagram(flat_marking(walking_arrow()), probe_suite()["nonposet5"])
    E = grothendieck_cocart(F, BIG)
    ends = []
    real = localization.end_reader
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(localization, "end_reader",
                   lambda *args: ends.append(real(*args)) or ends[-1])
        _, shipped = localization._mapping_out(F, _probes(), BIG)
    oracle = list(_whole_category_mapping_out(F, E, _probes(), BIG))
    for lim, (_, side_a, (end, obj_family, _), reason), (_, _, r) in zip(
            ends, oracle, shipped, strict=True):
        assert reason is None and r is None
        assert lim.obj_family == obj_family
        assert lim.read == end.n_morphisms == side_a.cat.n_morphisms


# -- the comparison rejects what is no equivalence, naming its witness ----------------


def _arrow_against_parallel():
    """The walking arrow, as the constant diagram over it with the terminal
    fiber, to be probed with the parallel pair u, v: a -> b; its total and
    the inclusions of the probe check."""
    F = constant_diagram(flat_marking(walking_arrow()), terminal_cat())
    E = grothendieck_cocart(F, BIG)
    iota = localization._end_diagram(F, E, BIG)[3]
    return F, E, iota


def _with_extra_family(monkeypatch, iota, component):
    """Patch the end reader of the probe check so that the hom from the
    image of the functor constant at a to that of the one constant at b also
    yields a corrupted family: at each f, the transformation of fun[f] with
    the components component(f, iota_f(p)) over the objects p of P(f),
    added to fun[f] when it has none."""
    real = localization.limit_hom

    def constant_at(lim, family):
        values = {y for f, gid in family.items()
                  for y in lim.fiber[f].functors[gid].object_map.values()}
        return values.pop() if len(values) == 1 else None

    def extra(lim, xid, yid):
        yield from real(lim, xid, yid)
        X, Y = lim.obj_family[xid], lim.obj_family[yid]
        if (constant_at(lim, X), constant_at(lim, Y)) != ("a", "b"):
            return
        beta = {}
        for f in X:
            H = lim.fiber[f]
            comps = tuple(component(f, iota[f].obj(p)) for p in H.dom.objects)
            try:
                beta[f] = H.find((X[f], Y[f], comps))
            except KeyError:
                beta[f] = f"corrupt-{f}"
                H.hom_of[beta[f]] = (beta[f], X[f], Y[f], comps)
        yield beta

    monkeypatch.setattr(localization, "limit_hom", extra)


def _constant_functors(side_a):
    return [next(gid for gid, G in side_a.functors.items()
                 if set(G.object_map.values()) == {y}) for y in "ab"]


def test_a_corrupted_end_family_with_unnatural_components_is_rejected(monkeypatch):
    # the family whose components are u over 0 and v over 1 agrees with its
    # identity components restricted along every inclusion, but those are
    # no natural transformation: only the naturality check sees it
    F, E, iota = _arrow_against_parallel()
    probes = {"parallel": parallel_pair()}
    _, [(_, _, reason)] = localization._mapping_out(F, probes, BIG)
    assert reason is None
    _with_extra_family(monkeypatch, iota,
                       lambda f, x: "u" if E.proj.obj(x) == "0" else "v")
    _, [(_, side_a, reason)] = localization._mapping_out(F, probes, BIG)
    assert reason == "comparison not fully faithful on hom(%s, %s)" % tuple(
        _constant_functors(side_a))


def test_a_corrupted_end_family_off_its_identity_components_is_rejected(monkeypatch):
    # the family with the component u at both identities of the walking
    # arrow, whose identity components are the natural transformation
    # constantly u, but with v at the arrow: every component is a
    # transformation of its fiber, and only the comparison with the
    # whiskered identity components sees that the family is no image
    F, E, iota = _arrow_against_parallel()
    probes = {"parallel": parallel_pair()}
    _with_extra_family(monkeypatch, iota,
                       lambda f, x: "v" if f == "a01" else "u")
    _, [(_, side_a, reason)] = localization._mapping_out(F, probes, BIG)
    assert reason == "comparison not fully faithful on hom(%s, %s)" % tuple(
        _constant_functors(side_a))


def test_a_comparison_missing_an_object_is_rejected(monkeypatch):
    # with side A cut to one functor, the comparison is fully faithful but
    # reaches no object of the end outside one isomorphism class
    F = constant_diagram(flat_marking(walking_arrow()), chain_cat(1))
    probes = {"arrow": walking_arrow()}
    total, [(_, _, reason)] = localization._mapping_out(F, probes, BIG)
    assert reason is None
    real = localization.marked_functor_homs

    def cut(Cm, Dm, caps):
        # side A is the one Fun† out of a category with the total's table
        H = real(Cm, Dm, caps)
        if not Cm.cat.same_table(total.cat):
            return H
        return FunHoms(Cm.cat, [H.functors[H.objects[0]]], Dm.cat, "Fun†", caps)

    monkeypatch.setattr(localization, "marked_functor_homs", cut)
    _, [(name, _, reason)] = localization._mapping_out(F, probes, BIG)
    assert name == "arrow"
    assert reason.startswith("comparison not essentially surjective: no image reaches")


def test_a_family_search_reads_candidates_only_at_its_roots():
    def identity(m, v):
        return v

    # 0 reaches every object of [2], so it is the one root
    read = []
    plan = limits.FamilyPlan(chain_cat(2))
    assert plan.roots == ("0",)
    assert list(plan.families(lambda b: read.append(b) or ["x"], identity)) == [
        {"0": "x", "1": "x", "2": "x"}]
    assert read == ["0"]
    read.clear()
    assert list(plan.families(lambda b: read.append(b) or [], identity)) == []
    assert read == ["0"]
    # the largest reach set comes first, whatever the object order
    assert limits.FamilyPlan(opposite_cat(chain_cat(2))).roots == ("2",)
    # the two sources of a cospan reach as many objects: object order, and
    # no list is read after the first empty one
    plan = limits.FamilyPlan(_cospan_base())
    assert plan.roots == ("a", "b")
    for empty, reads in ((None, ["a", "b"]), ("a", ["a"]), ("b", ["a", "b"])):
        read.clear()
        found = list(plan.families(
            lambda b: read.append(b) or ([] if b == empty else ["x", "y"]),
            identity))
        assert read == reads
        assert len(found) == (0 if empty else 2)
    assert limits.FamilyPlan(discrete_cat(["l", "r"])).roots == ("l", "r")
    # every non-identity morphism is stepped once, from the level that
    # assigns its source
    for B in (walking_iso(), parallel_pair(), _monoid3(), _cospan_base()):
        plan = limits.FamilyPlan(B)
        stepped = [phi for _, steps in plan.levels for _, phi, _, _ in steps]
        assert sorted(stepped) == sorted(B.nonidentity())
        assert len(plan.roots) == (2 if B.objects == ("a", "b", "c") else 1)


def _brute_force_families(B, candidates, force):
    """Every choice of one candidate per object of B that force carries
    along every morphism, identities included: the family search's
    reference, as an itertools.product filter."""
    for combo in itertools.product(*(candidates(b) for b in B.objects)):
        at = dict(zip(B.objects, combo))
        if all(force(m.name, at[m.src]) == at[m.tgt] for m in B.morphisms):
            yield at


def _renamed(B, rng):
    """A copy of B whose object and morphism names sort in a shuffled
    order, and the maps from its names back to B's."""
    objs, names = list(B.objects), [m.name for m in B.morphisms]
    on = dict(zip(objs, rng.sample([f"x{i}" for i in range(len(objs))], len(objs))))
    mn = dict(zip(names, rng.sample([f"m{i:02d}" for i in range(len(names))],
                                    len(names))))
    C = core.fincat([on[x] for x in objs],
                    [core.Mor(mn[m.name], on[m.src], on[m.tgt]) for m in B.morphisms],
                    {on[x]: mn[i] for x, i in B.identity.items()},
                    {(mn[g], mn[f]): mn[h] for (g, f), h in B.comp.items()})
    return C, {v: k for k, v in on.items()}, {v: k for k, v in mn.items()}


def _set_valued(B, seeds):
    """Functors B -> sets as (values, action): seeded ones and every
    representable hom(c, -), whose value sets may be empty."""
    for s in seeds:
        F = gen_set_diagram(B, GenParams(seed=s))
        yield F.values, F.action
    for c in B.objects:
        values = {x: B.hom(c, x) for x in B.objects}
        yield values, {m.name: {e: B.compose(m.name, e) for e in values[m.src]}
                       for m in B.morphisms}


def _same_families(B, candidates, force, rng, reordered):
    """The families the plan of B finds, and those it finds over a renamed
    copy of B, mapped back, are the brute-force families; returns them.
    Appends to reordered whether the copy's plan took other roots or
    another order of them."""
    def key(fams):
        return sorted(tuple(fam[b] for b in B.objects) for fam in fams)

    expected = key(_brute_force_families(B, candidates, force))
    plan = limits.FamilyPlan(B)
    found = list(plan.families(candidates, force))
    assert len(found) == len(expected) and key(found) == expected
    C, ob, mb = _renamed(B, rng)
    other = limits.FamilyPlan(C)
    renamed = other.families(lambda x: candidates(ob[x]),
                             lambda phi, v: force(mb[phi], v))
    assert key({ob[x]: v for x, v in fam.items()} for fam in renamed) == expected
    reordered.append([ob[x] for x in other.roots] != list(plan.roots))
    return expected


def _family_bases():
    return [walking_iso(), _monoid3(), parallel_pair(), chain_cat(2),
            opposite_cat(chain_cat(2)), _cospan_base(), discrete_cat(["l", "r"])
            ] + [gen_category(GenParams(seed=s)) for s in range(12)]


def test_the_family_search_finds_the_brute_force_families_in_any_object_order():
    rng = random.Random(20)
    found = empty = 0
    reordered: list[bool] = []
    for B in _family_bases():
        for values, action in _set_valued(B, range(4)):
            fams = _same_families(B, lambda b: list(values[b]),
                                  lambda phi, v: action[phi][v], rng, reordered)
            found += len(fams)
            empty += not fams
    # seeded Cat-valued diagrams: the object families, then the morphism
    # families of every hom of the limit
    homs = 0
    for s in range(30):
        p = GenParams(seed=s)
        F = gen_diagram(gen_marking(gen_category(p), p), p)
        B, T = F.base.cat, F.transition
        objs = _same_families(B, lambda b: F.fiber[b].objects,
                              lambda phi, x: T[phi].obj(x), rng, reordered)
        for X in objs:
            for Y in objs:
                homs += len(_same_families(
                    B, lambda b: F.fiber[b].hom(X[B.objects.index(b)],
                                                Y[B.objects.index(b)]),
                    lambda phi, m: T[phi].mor(m), rng, reordered))
    assert found > 200 and empty > 25 and homs > 100
    # the renamed copies did branch in another order
    assert sum(reordered) > 20


def test_set_limit_finds_the_brute_force_families():
    # the same families as the product of the value sets filtered by every
    # action, each once, also where a value set is empty
    found = empty = 0
    for B in _family_bases():
        for values, action in _set_valued(B, range(4)):
            want = [tuple(fam.values()) for fam in _brute_force_families(
                B, lambda b: values[b], lambda phi, e: action[phi][e])]
            got = set_limit(SetDiagram(B, values, action))
            assert sorted(got) == sorted(want)
            assert len(set(got)) == len(got)
            found += len(got)
            empty += not got
    assert found > 200 and empty > 25


def test_the_probe_check_enumerates_only_the_homs_its_limit_reads(monkeypatch):
    enumerated, ends, totals, assembled = [], [], [], []
    searches, object_searches, listed = [], set(), []
    real_enumerate = constructions.FunHoms._enumerate
    real_hom = constructions.FunHoms.hom
    real_families = limits.FamilyPlan.families
    real_reader = localization.end_reader
    real_cocart = localization.grothendieck_cocart
    real_assemble = limits._assemble

    def counted(self, fid, gid):
        enumerated.append((self, fid, gid))
        return real_enumerate(self, fid, gid)

    def hom(self, fid, gid):
        listed.append(self)
        return real_hom(self, fid, gid)

    def families(self, candidates, force):
        read = []
        searches.append((self, read))

        def recorded_candidates(b):
            values = candidates(b)
            read.append((b, len(values)))
            return values

        return real_families(self, recorded_candidates, force)

    def recorded(pre, plan, fun, post, caps):
        before = len(searches)
        lim = real_reader(pre, plan, fun, post, caps)
        object_searches.update(range(before, len(searches)))
        ends.append((fun, lim))
        return lim

    def total(*args):
        E = real_cocart(*args)
        totals.append(E.total.cat)
        return E

    def assemble(*args, **kwargs):
        assembled.append(args)
        return real_assemble(*args, **kwargs)

    monkeypatch.setattr(constructions.FunHoms, "_enumerate", counted)
    monkeypatch.setattr(constructions.FunHoms, "hom", hom)
    monkeypatch.setattr(limits.FamilyPlan, "families", families)
    monkeypatch.setattr(localization, "end_reader", recorded)
    monkeypatch.setattr(localization, "grothendieck_cocart", total)
    monkeypatch.setattr(limits, "_assemble", assemble)
    p = GenParams(seed=18, max_objects=2, max_morphisms=5,
                  fiber_max_objects=2, fiber_max_morphisms=4)
    sparse = gen_diagram(gen_marking(gen_category(p), p), p)
    dense = constant_diagram(flat_marking(walking_arrow()), probe_suite()["nonposet5"])
    for F in (sparse, dense):
        enumerated.clear()
        ends.clear()
        totals.clear()
        searches.clear()
        object_searches.clear()
        listed.clear()
        assert probe_check_colimit_theorem(F, _probes(), BIG).ok
        # no end category is assembled, and no hom of Fun†(E.total, D♭) is
        # enumerated
        assert assembled == [] and len(totals) == 1
        assert not any(H.dom is totals[0] for H, _, _ in enumerated)
        # each hom enumerated once, and only the (b, X_b, Y_b) of families
        # X, Y, though not all of them: a family search stops at its first
        # empty hom
        read = {(id(fun[b]), X[b], Y[b]) for fun, lim in ends
                for X in lim.obj_family.values() for Y in lim.obj_family.values()
                for b in fun}
        fibers = {id(H): H for fun, _ in ends for H in fun.values()}
        mine = [(id(H), fid, gid) for H, fid, gid in enumerated if id(H) in fibers]
        assert len(mine) == len(set(mine)) and set(mine) <= read
        assert len(mine) > 10
        # every search reads candidate lists at its plan's roots only, in
        # plan order, and none after the first empty one; each hom search's
        # list is a fiber hom, and no other fiber hom is listed
        plan = ends[0][1].plan
        assert all(lim.plan is plan for _, lim in ends)
        hom_searches = [read for i, (P, read) in enumerate(searches)
                        if i not in object_searches]
        assert all(P is plan for P, _ in searches) and hom_searches
        for _, read in searches:
            assert [b for b, _ in read] == list(plan.roots[:len(read)])
            assert all(n for _, n in read[:-1])
            assert len(read) == len(plan.roots) or read[-1][1] == 0
        reads = sum(map(len, hom_searches))
        listed_fibers = [H for H in listed if id(H) in fibers]
        assert len(listed_fibers) == reads
        # fewer lists than one per base object, as the plan forces the rest
        n = len(plan.base.objects)
        assert len(plan.roots) < n and reads < n * len(hom_searches)
        # so the Fun† cap counts the transformations of those homs, no others
        for key, H in fibers.items():
            assert len(H.hom_of) == sum(len(H.hom(x, y))
                                        for k, x, y in mine if k == key)
        if F is sparse:
            part = sum(len(H.hom_of) for H in fibers.values())
            assert 3 * part < sum(len(H.every_hom()) for H in fibers.values())
