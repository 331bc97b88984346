"""Set/category limits, lax and oplax limits, and the pseudo-limit oracle."""

import pytest

from laxcat import constructions, core, equiv, limits, localization
from laxcat.checks import probe_suite
from laxcat.constructions import (
    FunCat,
    SizeCaps,
    _assemble_funcat,
    coslice_cat,
    marked_functor_category,
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
    product,
    saturate_marking,
    sharp_marking,
    subcategory,
    terminal_cat,
    walking_arrow,
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
from laxcat.equiv import is_equivalent, is_fully_faithful, is_isomorphic
from laxcat.generator import GenParams, gen_category, gen_diagram, gen_marking
from laxcat.grothendieck import all_sections, grothendieck_cocart, marked_sections
from laxcat.limits import (
    _Whiskering,
    cat_limit,
    cat_limit_map,
    iso_comma,
    lax_limit,
    marked_cat_limit,
    oplax_limit,
    set_colimit,
    set_limit,
)
from laxcat.errors import InvariantViolation, MalformedTable
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
    from laxcat.checks import _ff_lemma_ok, Ctx
    for s in range(10):
        assert _ff_lemma_ok(GenParams(seed=s), Ctx())


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


def whisker_functor(src_fc: FunCat, dst_fc: FunCat,
                    pre: Functor, post: Functor) -> Functor:
    """Fun(A', B') -> Fun(A, B) by G |-> post . G . pre, for pre: A -> A' and
    a functor post: B' -> B.

    A transformation a goes to the one between the endpoint images with the
    components post(a_{pre x}), computed from a's component tuple and looked
    up by endpoints and components in dst_fc's table (see _Whiskering).  An
    object image outside dst_fc raises KeyError; a missing transformation
    raises InvariantViolation.

    A functor by construction, as composition in a functor category is
    componentwise: the image of b a has the components
    post(b_{pre x} a_{pre x}) = post(b_{pre x}) post(a_{pre x}), those of the
    composite of the images.  So validate checks only objects, endpoints and
    identities; a caller other than a CatDiagram constructor must call it."""
    W = _Whiskering(src_fc.functors, src_fc.cat.comp.hom, dst_fc.functors,
                    dst_fc.cat.comp.index.__getitem__, pre, post)
    omap = {gid: W.obj(gid) for gid in src_fc.functors}
    mmap = {nid: W.mor(nid) for nid in src_fc.cat.comp.hom}
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
    assert any(not src.cat.is_identity(nid) for nid in src.transformations)
    for nid, a in src.transformations.items():
        img = W.mor(nid)
        assert dst.transformations[img].components == \
            {x: a.at(pre.obj(x)) for x in pre.dom.objects}
        assert dst.cat.src(img) == W.obj(src.cat.src(nid))
        assert dst.cat.tgt(img) == W.obj(src.cat.tgt(nid))


def test_whisker_functor_raises_on_a_missing_whiskered_transformation():
    src, dst, pre, post = _whisker_pair()
    W = whisker_functor(src, dst, pre, post)
    assert any(not dst.cat.is_identity(W.mor(n)) for n in src.cat.nonidentity())
    # the same functors, with only the transformations whose components are
    # identities: the whiskered image of a non-identity is missing
    A, B = pre.dom, post.cod
    partial = _assemble_funcat(A, list(dst.functors.values()), B, "partial",
                               BIG, component_filter=lambda x, c: B.is_identity(c))
    with pytest.raises(InvariantViolation, match="has no image"):
        whisker_functor(src, partial, pre, post)


# -- functor categories: composites on first read, functors by construction -----


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
    property of its localized total where the localization completes, and
    the maps of every comparison functor the probe check made."""
    made = []
    real = localization._comparison

    def recorded(*args):
        made.append(real(*args))
        return made[-1]

    def up(F):
        E = grothendieck_cocart(F, BIG)
        r = localization.localize(E.total, localization.Bounds(word_length=4))
        return r.ok and check_localization_up(E.total, r, _probes(), BIG)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(localization, "_comparison", recorded)
        out = [(lax_limit(F, BIG), probe_check_colimit_theorem(F, _probes(), BIG),
                up(F))
               for F in _small_diagrams()]
    return out, made


def test_lazy_functor_categories_agree_with_full_tables_and_checks(monkeypatch):
    lazy, lazy_made = _limits_and_comparisons()
    # the full path: every table filled and checked when built, every functor
    # validated on the generator pairs of its domain
    real = core.build_category
    for module in (core, constructions, limits):
        monkeypatch.setattr(module, "build_category",
                            lambda *args, check=True: real(*args, check=True))
    for module in (equiv, localization):
        monkeypatch.setattr(module, "_by_construction", lambda F: F)
    full, full_made = _limits_and_comparisons()
    for (lax, verdict, up), (lax2, verdict2, up2) in zip(lazy, full, strict=True):
        assert lax.cat.same_table(lax2.cat)
        assert all(P.same_maps(lax2.projections[i])
                   for i, P in lax.projections.items())
        assert verdict == verdict2
        assert up == up2
    assert any(verdict.failures == [] for _, verdict, _ in lazy)
    assert len(lazy_made) == len(full_made) > 10
    for W, V in zip(lazy_made, full_made):
        assert W._proved and not V._proved
        assert W.same_maps(V)
        assert W.dom.generators() == V.dom.generators()
        assert W.dom.same_table(V.dom) and W.cod.same_table(V.cod)
        Functor(W.dom, W.cod, W.object_map, W.morphism_map).validate()


def test_no_functor_category_computes_its_generators(monkeypatch):
    built = []
    real = constructions._assemble_funcat

    def recorded(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(constructions, "_assemble_funcat", recorded)
    F = constant_diagram(flat_marking(walking_arrow()), probe_suite()["nonposet5"])
    assert probe_check_colimit_theorem(F, _probes(), BIG).ok
    lax_limit(F, BIG)
    E = grothendieck_cocart(F, BIG)
    r = localization.localize(E.total)
    probes = {n: D for n, D in probe_suite().items() if n != "nonposet5"}
    assert check_localization_up(E.total, r, probes, BIG).ok
    # the end formula and the universal property of the localized total
    # build no functor category; the probe check builds one per probe
    assert len(built) == len(_probes())
    for cartesian in (False, True):
        assert probe_check_colimit_theorem(F, probes, BIG, cartesian).ok
    assert len(built) > 10
    assert all(fc.cat._gen_cache is None for fc in built)
    assert any(fc.cat.comp._full is False for fc in built)


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
            {m.name: fc.transformations[P.mor(m.name)].at(idf)
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
    # the end is read hom by hom, and the comparison functor's verdict agrees
    # with is_equivalent, the independent oracle, on every diagram and probe,
    # lax and oplax
    ends = []
    real = localization.end_limit

    def recorded(*args):
        ends.append(real(*args))
        return ends[-1]

    monkeypatch.setattr(localization, "end_limit", recorded)
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
            for (name, (side_a, side_b)), (end, _, _) in zip(sides.items(), ends):
                assert end.same_table(side_b)
                if not is_equivalent(side_a, side_b):
                    inequivalent.append(name)
            assert [name for name, _ in verdict.failures] == inequivalent
            assert verdict.ok == (not inequivalent)
            compared += sum(end.n_morphisms for end, _, _ in ends)
        compared += cat.n_morphisms
    assert compared > 100


def test_a_wrong_comparison_is_rejected_where_the_sides_are_equivalent(monkeypatch):
    # a constant functor onto one family of the end is no equivalence, though
    # the two sides it connects are equivalent; only the comparison check sees it
    F = constant_diagram(flat_marking(walking_arrow()), chain_cat(1))
    probes = {"arrow": walking_arrow()}
    E = grothendieck_cocart(F, BIG)
    [(_, side_a, (end, _, _), reason)] = localization._mapping_out(F, E, probes, BIG)
    assert reason is None and is_equivalent(side_a.cat, end)
    real = localization._comparison

    def constant(side_a, end, fun, iota, post):
        c = real(side_a, end, fun, iota, post)
        x = c.obj(side_a.cat.objects[0])
        return Functor(c.dom, c.cod, dict.fromkeys(c.dom.objects, x),
                       dict.fromkeys(c.morphism_map, c.cod.identity[x]))

    monkeypatch.setattr(localization, "_comparison", constant)
    verdict = probe_check_colimit_theorem(F, probes, BIG)
    assert not verdict.ok
    [(name, reason)] = verdict.failures
    assert name == "arrow" and reason.startswith("comparison not fully faithful")


def test_a_comparison_missing_an_object_is_rejected(monkeypatch):
    # restricted to one functor, the comparison is fully faithful but reaches
    # no object of the end outside one isomorphism class
    F = constant_diagram(flat_marking(walking_arrow()), chain_cat(1))
    probes = {"arrow": walking_arrow()}
    real = localization._comparison

    def restricted(side_a, end, fun, iota, post):
        c = real(side_a, end, fun, iota, post)
        x = side_a.cat.objects[0]
        one = subcategory(side_a.cat, [x],
                          [side_a.cat.mor(m) for m in side_a.cat.hom(x, x)])
        return Functor(one, c.cod, {x: c.obj(x)},
                       {m: c.mor(m) for m in side_a.cat.hom(x, x)})

    monkeypatch.setattr(localization, "_comparison", restricted)
    [(name, reason)] = probe_check_colimit_theorem(F, probes, BIG).failures
    assert name == "arrow"
    assert reason.startswith("comparison not essentially surjective: no image reaches")


def test_the_probe_check_enumerates_only_the_homs_its_limit_reads(monkeypatch):
    enumerated, ends = [], []
    real_enumerate = constructions.FunHoms._enumerate
    real_end = localization.end_limit

    def counted(self, fid, gid):
        enumerated.append((self, fid, gid))
        return real_enumerate(self, fid, gid)

    def recorded(pre, fun, post, caps):
        out = real_end(pre, fun, post, caps)
        ends.append((fun, list(out[1].values())))
        return out

    monkeypatch.setattr(constructions.FunHoms, "_enumerate", counted)
    monkeypatch.setattr(localization, "end_limit", recorded)
    p = GenParams(seed=18, max_objects=2, max_morphisms=5,
                  fiber_max_objects=2, fiber_max_morphisms=4)
    sparse = gen_diagram(gen_marking(gen_category(p), p), p)
    dense = constant_diagram(flat_marking(walking_arrow()), probe_suite()["nonposet5"])
    for F in (sparse, dense):
        enumerated.clear()
        ends.clear()
        assert probe_check_colimit_theorem(F, _probes(), BIG).ok
        # each hom enumerated once, and only the (b, X_b, Y_b) of families X, Y
        read = {(id(fun[b]), X[b], Y[b]) for fun, families in ends
                for X in families for Y in families for b in fun}
        fibers = {id(H): H for fun, _ in ends for H in fun.values()}
        mine = [(id(H), fid, gid) for H, fid, gid in enumerated if id(H) in fibers]
        assert len(mine) == len(set(mine)) and set(mine) == read
        # so the Fun† cap counts the transformations of those homs, no others
        for key, H in fibers.items():
            assert len(H.hom_of) == sum(len(H.hom(x, y))
                                        for k, x, y in read if k == key)
        if F is sparse:
            part = sum(len(H.hom_of) for H in fibers.values())
            assert 3 * part < sum(len(H.every_hom()) for H in fibers.values())
