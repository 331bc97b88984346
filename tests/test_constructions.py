"""Twisted arrows, slices, coslices, and (marked) functor categories."""

import gc
import itertools

import pytest

from laxcat.checks import probe_suite
from laxcat.constructions import (
    FunHoms,
    SizeCaps,
    _forward_schedule,
    coslice_cat,
    enumerate_functors,
    functor_category,
    generating_morphisms,
    marked_functor_category,
    marked_functor_homs,
    slice_cat,
    slice_transition,
    twisted_arrow,
)
from laxcat.core import (
    FinCat,
    Functor,
    chain_cat,
    discrete_cat,
    fincat,
    flat_marking,
    is_iso,
    marked,
    opposite_cat,
    saturate_marking,
    sharp_marking,
    short_id,
    terminal_cat,
    walking_arrow,
    walking_iso,
)
from laxcat.equiv import is_equivalent, is_isomorphic
from laxcat.errors import SizeBoundExceeded, UnknownMorphism, UnknownObject
from laxcat.generator import GenParams, gen_category, gen_diagram, gen_marking
from laxcat.grothendieck import grothendieck_cocart, marked_sections


def test_twisted_arrow_terminal():
    assert is_isomorphic(twisted_arrow(terminal_cat()).cat, terminal_cat())


def test_twisted_arrow_walking_arrow_is_span():
    tw = twisted_arrow(walking_arrow())
    T = tw.cat
    assert set(T.objects) == {"id_0", "id_1", "a01"}
    non_id = T.nonidentity()
    assert len(non_id) == 2
    assert all(T.src(m) == "a01" for m in non_id)
    assert {T.tgt(m) for m in non_id} == {"id_0", "id_1"}


def test_twisted_arrow_discrete():
    D = discrete_cat(["a", "b"])
    assert is_isomorphic(twisted_arrow(D).cat, D)


def _bases() -> list[FinCat]:
    """Fifteen generated categories and the probe suite."""
    return ([gen_category(GenParams(seed=s)) for s in range(15)]
            + list(probe_suite().values()))


def test_twisted_arrow_object_count_and_projections():
    for I in _bases():
        tw = twisted_arrow(I)
        assert tw.cat.n_objects == I.n_morphisms
        tw.proj_src.validate()
        # the second leg is a functor to opposite(I)
        Functor(tw.cat, opposite_cat(I), {f: I.tgt(f) for f in tw.cat.objects},
                {m: b for m, (_, b) in tw.legs.items()}).validate()
        # (first leg, second leg) is jointly injective on morphisms
        seen = set()
        for m in tw.cat.morphisms:
            key = (tw.cat.src(m.name), tw.cat.tgt(m.name), tw.legs[m.name])
            assert key not in seen
            seen.add(key)


def test_twisted_arrow_size_cap():
    with pytest.raises(SizeBoundExceeded):
        twisted_arrow(chain_cat(3), SizeCaps(max_objects=2, max_morphisms=2))


def test_coslice_examples():
    flat1 = flat_marking(walking_arrow())
    assert is_isomorphic(coslice_cat(flat1, "1").cat, terminal_cat())
    assert is_isomorphic(slice_cat(flat1, "0").cat, terminal_cat())
    u_marked = marked(walking_arrow(),
                      saturate_marking(walking_arrow(), ["a01"]))
    co = coslice_cat(u_marked, "0")
    assert is_isomorphic(co.cat, walking_arrow())
    lift = [m for m in co.cat.nonidentity()]
    assert len(lift) == 1
    # the unique morphism id_0 -> u lies over u, so the marking pulls it back
    assert co.witness[lift[0]] == "a01"
    assert lift[0] in co.marked.marked
    with pytest.raises(UnknownObject):
        coslice_cat(flat1, "nope")


def test_slices_and_coslices_forget_along_their_witnesses():
    for I in _bases():
        Im = flat_marking(I)
        for i in I.objects:
            for sl in (slice_cat(Im, i), coslice_cat(Im, i)):
                end = I.src if sl.kind == "slice" else I.tgt
                Functor(sl.cat, I, {f: end(f) for f in sl.cat.objects},
                        sl.witness).validate()


def test_slice_transition_images():
    flat1 = flat_marking(walking_arrow())
    cos = {i: coslice_cat(flat1, i) for i in "01"}
    sl = {i: slice_cat(flat1, i) for i in "01"}
    for m in flat1.cat.morphisms:
        slice_transition(flat1, cos[m.tgt], cos[m.src], m.name).validate()
        slice_transition(flat1, sl[m.src], sl[m.tgt], m.name).validate()
    # precomposition along u: I_{1/} -> I_{0/} sends id_1 to u
    tr = slice_transition(flat1, cos["1"], cos["0"], "a01")
    [obj] = cos["1"].cat.objects
    assert tr.object_map[obj] == "a01"
    # postcomposition along u: I_{/0} -> I_{/1} sends id_0 to u
    tr2 = slice_transition(flat1, sl["0"], sl["1"], "a01")
    assert tr2.object_map["id_0"] == "a01"


def test_functor_category_examples():
    A = walking_arrow()
    fc = functor_category(terminal_cat(), A)
    assert is_isomorphic(fc.cat, A)
    sq = functor_category(A, A)
    assert sq.cat.n_objects == 3
    assert is_equivalent(sq.cat, chain_cat(2))
    assert is_isomorphic(functor_category(A, terminal_cat()).cat,
                         terminal_cat())


def test_functor_count_against_brute_force():
    for s in range(8):
        C = gen_category(GenParams(seed=s, max_objects=2, max_morphisms=5))
        D = gen_category(GenParams(seed=s + 100, max_objects=2,
                                   max_morphisms=5))
        fc = functor_category(C, D, SizeCaps(max_objects=512,
                                             max_morphisms=4096,
                                             max_candidates=10**6))
        count = 0
        mor_names = [m.name for m in C.morphisms]
        for objs in itertools.product(D.objects, repeat=C.n_objects):
            omap = dict(zip(C.objects, objs))
            cands = [D.hom(omap[C.src(m)], omap[C.tgt(m)]) for m in mor_names]
            for pick in itertools.product(*cands):
                mmap = dict(zip(mor_names, pick))
                if any(mmap[i] != D.identity[omap[x]]
                       for x, i in C.identity.items()):
                    continue
                if all(mmap[h] == D.compose(mmap[g], mmap[f])
                       for (g, f), h in C.comp.items()):
                    count += 1
        assert fc.cat.n_objects == count, s


def _brute_functors(C, D):
    """Every object map times every generator image, in the search's order,
    kept when every composite of C is preserved."""
    gens, words = generating_morphisms(C)
    out = []
    for objs in itertools.product(D.objects, repeat=C.n_objects):
        omap = dict(zip(C.objects, objs))
        homs = [D.hom(omap[C.src(g)], omap[C.tgt(g)]) for g in gens]
        for pick in itertools.product(*homs):
            gmap = dict(zip(gens, pick))
            mmap = {}
            for m in C.morphisms:
                cur = D.identity[omap[m.src]]
                for w in words[m.name]:
                    cur = D.compose(gmap[w], cur)
                mmap[m.name] = cur
            if all(mmap[h] == D.compose(mmap[g], mmap[f])
                   for (g, f), h in C.comp.items()):
                out.append((omap, mmap))
    return out


def _unpruned_candidates(C, D):
    """Candidates the search explores when no relation prunes: every node of
    the object tree, then every node of each generator tree."""
    gens, _ = generating_morphisms(C)
    n = sum(D.n_objects ** k for k in range(1, C.n_objects + 1))
    for objs in itertools.product(D.objects, repeat=C.n_objects):
        omap = dict(zip(C.objects, objs))
        below = 0
        for g in reversed(gens):
            below = len(D.hom(omap[C.src(g)], omap[C.tgt(g)])) * (1 + below)
        n += below
    return n


def test_enumerate_functors_matches_brute_force_sequence():
    # probe categories are not thin, so relations of C fail and prune
    targets = list(probe_suite().values())
    targets += [gen_category(GenParams(seed=s, max_objects=3, max_morphisms=8,
                                       relation_density=0.0))
                for s in range(2)]
    for s in range(45):
        C = gen_category(GenParams(seed=s))
        for D in targets:
            if _unpruned_candidates(C, D) > 5000:
                continue
            got = [(list(F.object_map.items()), list(F.morphism_map.items()))
                   for F in enumerate_functors(C, D)]
            want = [(list(o.items()), list(m.items()))
                    for o, m in _brute_functors(C, D)]
            assert got == want, s


def test_relation_pruning_keeps_enumeration_under_the_cap():
    # the unpruned search would explore 1898 candidates here
    C = gen_category(GenParams(seed=33))
    D = probe_suite()["nonposet5"]
    assert _unpruned_candidates(C, D) > 1000
    got = list(enumerate_functors(C, D, max_candidates=1000))
    assert len(got) == len(_brute_functors(C, D)) == 43


def recursive_functors(C, D, obj_filter=None, gen_filter=None,
                       max_candidates=200_000):
    """The recursive search enumerate_functors ran before it ran a compiled
    FunctorPlan in one flat loop, kept as its reference: the functors in
    the same order, and the same explored count where the cap fires."""
    gens, words = generating_morphisms(C)
    objs = list(C.objects)
    explored = 0
    derived, entries = _forward_schedule(C, gens, words)

    def assign_objects(i, omap):
        nonlocal explored
        if i == len(objs):
            yield dict(omap)
            return
        x = objs[i]
        for y in D.objects:
            if obj_filter is not None and not obj_filter(x, y):
                continue
            explored += 1
            if explored > max_candidates:
                raise SizeBoundExceeded("functor enumeration", "candidate",
                                        explored, max_candidates)
            omap[x] = y
            yield from assign_objects(i + 1, omap)
            del omap[x]

    def decide(i, omap, mmap):
        for m, x, word in derived[i]:
            cur = D.identity[omap[x]]
            for w in word:
                cur = D.compose(mmap[w], cur)
            mmap[m] = cur
        return all(mmap[h] == D.compose(mmap[g], mmap[f])
                   for g, f, h in entries[i])

    def assign_gens(i, omap, mmap):
        nonlocal explored
        if i == len(gens):
            yield {m.name: mmap[m.name] for m in C.morphisms}
            return
        g = gens[i]
        for d in D.hom(omap[C.src(g)], omap[C.tgt(g)]):
            if gen_filter is not None and not gen_filter(g, d):
                continue
            explored += 1
            if explored > max_candidates:
                raise SizeBoundExceeded("functor enumeration", "candidate",
                                        explored, max_candidates)
            mmap[g] = d
            if decide(i, omap, mmap):
                yield from assign_gens(i + 1, omap, mmap)

    for omap in assign_objects(0, {}):
        ids = {C.identity[x]: D.identity[y] for x, y in omap.items()}
        for mmap in assign_gens(0, omap, ids):
            yield Functor(C, D, omap, mmap)


def _capped_run(search, C, D, cap, **filters):
    """The maps of the functors search yields under the cap, and the count
    of the SizeBoundExceeded that ends it, or None."""
    out = []
    try:
        for F in search(C, D, max_candidates=cap, **filters):
            out.append((F.object_map, F.morphism_map))
    except SizeBoundExceeded as hit:
        assert (hit.what, hit.kind, hit.cap) == \
            ("functor enumeration", "candidate", cap)
        return out, hit.count
    return out, None


def _assert_runs_as_the_recursive_search(C, D, **filters):
    """At every cap k from 0 up to the explored count of the whole search,
    enumerate_functors yields the reference's functors and, where the
    reference stops at the cap, stops with the same count k + 1 after the
    same functors.  The maps' key order is compared on the whole search."""
    for k in itertools.count():
        want = _capped_run(recursive_functors, C, D, k, **filters)
        assert _capped_run(enumerate_functors, C, D, k, **filters) == want, k
        if want[1] is None:
            break
        assert want[1] == k + 1
    got = [(list(F.object_map.items()), list(F.morphism_map.items()))
           for F in enumerate_functors(C, D, **filters)]
    assert got == [(list(F.object_map.items()), list(F.morphism_map.items()))
                   for F in recursive_functors(C, D, **filters)]
    return k


def test_the_flat_search_runs_as_the_recursive_one_at_every_cap():
    # the brute-force corpus, with no filter; it holds the pruning case of
    # test_relation_pruning_keeps_enumeration_under_the_cap
    targets = dict(probe_suite())
    targets.update({f"free{s}": gen_category(GenParams(
        seed=s, max_objects=3, max_morphisms=8, relation_density=0.0))
        for s in range(2)})
    explored = {}
    for s in range(45):
        C = gen_category(GenParams(seed=s))
        for name, D in targets.items():
            if _unpruned_candidates(C, D) <= 5000:
                explored[s, name] = _assert_runs_as_the_recursive_search(C, D)
    assert len(explored) > 300 and explored[33, "nonposet5"] < 1000


def test_the_flat_search_runs_as_the_recursive_one_under_filters():
    # marked_sections' object and generator filters, and the generator
    # filter of the marked functors where its search explores at most 300
    sections = marked = 0
    for s in range(40):
        p = GenParams(seed=s)
        E = grothendieck_cocart(gen_diagram(gen_marking(gen_category(p), p), p),
                                ROOMY)
        base, total = E.base_marked, E.total
        sections += _assert_runs_as_the_recursive_search(
            base.cat, total.cat,
            obj_filter=lambda i, e: E.proj.obj(e) == i,
            gen_filter=lambda g, d: E.proj.mor(d) == g)
        marks = {"gen_filter":
                 lambda g, d: g not in base.marked or d in total.marked}
        if _capped_run(recursive_functors, base.cat, total.cat, 300,
                       **marks)[1] is None:
            marked += _assert_runs_as_the_recursive_search(
                base.cat, total.cat, **marks)
    assert sections > 500 and marked > 500


def test_a_hole_met_by_the_functor_search_is_unknown():
    # chain_cat(2) -> itself with the composite a12 after a01 torn out of
    # the (unchecked) codomain: the search derives the image of a02 from it
    C = chain_cat(2)
    D = fincat(C.objects, C.morphisms, C.identity,
               {k: h for k, h in C.comp.items() if k != ("a12", "a01")},
               check=False)
    for search in (enumerate_functors, recursive_functors):
        with pytest.raises(UnknownMorphism, match=r"a12 after a01"):
            list(search(C, D))


def test_the_functor_searches_leave_no_cyclic_garbage():
    # with the cyclic collector off, an enumeration and a FunHoms read
    # whole free everything they made once nothing holds them
    gc.collect()
    gc.disable()
    try:
        C, D = chain_cat(2), walking_iso()
        functors = list(enumerate_functors(C, D))
        H = marked_functor_homs(flat_marking(C), flat_marking(D))
        homs = H.every_hom()
        composed = [H.compose(g, f) for f, _, b, _ in homs
                    for g, a, _, _ in homs if a == b]
        found = (len(functors), len(homs), len(composed))
        del C, D, functors, H, homs, composed
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert found == (8, 64, 512)


def test_marked_functor_category_examples():
    A = walking_arrow()
    flatA, sharpA = flat_marking(A), sharp_marking(A)
    # flat source: every functor preserves isos, nothing is cut
    full = functor_category(A, A)
    mk = marked_functor_category(flatA, flat_marking(A))
    assert mk.cat.same_table(full.cat)
    # sharp [1] into D flat = the category of isomorphisms of D (objects are
    # the isos of D, morphisms all squares); for D = [1] the two constant
    # functors with one transformation between them, so the result is [1]
    iso_of_arrow = marked_functor_category(sharpA, flat_marking(A))
    assert iso_of_arrow.cat.n_objects == 2
    assert is_equivalent(iso_of_arrow.cat, A)
    assert is_equivalent(
        marked_functor_category(sharpA, flat_marking(walking_iso())).cat,
        terminal_cat())


def test_sharp_source_iso_components_are_isos():
    # transformations between iso-inverting functors are isos exactly when
    # every component is (the converse inclusion holds in any functor category)
    for s in range(10):
        C = gen_category(GenParams(seed=s, max_objects=3, max_morphisms=8))
        D = gen_category(GenParams(seed=s + 50, max_objects=2,
                                   max_morphisms=4))
        fc = marked_functor_category(
            sharp_marking(C), flat_marking(D),
            SizeCaps(max_objects=512, max_morphisms=4096,
                     max_candidates=10**6))
        for m in fc.cat.morphisms:
            componentwise = all(is_iso(D, c) for c in fc.hom_of[m.name][3])
            assert is_iso(fc.cat, m.name) == componentwise


def _brute_transformations(fc, D: FinCat, keep=lambda x, c: True):
    """Every choice of components from every hom set, for every ordered pair
    of the functor category's objects in id order, kept when the naturality
    square of every morphism of the domain holds.  Ids are formatted here as
    the functor category formats them."""
    out = []
    ids = sorted(fc.functors)
    for fid in ids:
        F = fc.functors[fid]
        C = F.dom
        for gid in ids:
            G = fc.functors[gid]
            homs = [[c for c in D.hom(F.obj(x), G.obj(x)) if keep(x, c)]
                    for x in C.objects]
            for pick in itertools.product(*homs):
                a = dict(zip(C.objects, pick))
                if all(D.compose(a[m.tgt], F.mor(m.name))
                       == D.compose(G.mor(m.name), a[m.src])
                       for m in C.morphisms):
                    cs = ",".join(f"{x}:{c}" for x, c in a.items())
                    out.append((short_id(f"N{{{fid}=>{gid};{cs}}}"), fid, gid,
                                list(a.items())))
    return out


def _transformations(fc):
    """hom_of decoded: the components run over the objects of the domain."""
    return [(nid, fc.cat.src(nid), fc.cat.tgt(nid),
             list(zip(fc.functors[fid].dom.objects, comps)))
            for nid, fid, _, comps in fc.hom_of.values()]


def _assert_transformations_match(fc, want):
    assert _transformations(fc) == want
    for nid, fid, gid, _ in want:
        assert fc.hom_of[nid][:3] == (nid, fid, gid)


ROOMY = SizeCaps(max_objects=512, max_morphisms=1 << 16, max_candidates=10**6)


def _functor_category_corpus():
    """Pairs (C, D): twenty generated C, each into every probe category and
    two generated categories without relations."""
    targets = list(probe_suite().values())
    targets += [gen_category(GenParams(seed=s, max_objects=2, max_morphisms=4,
                                       relation_density=0.0))
                for s in range(2)]
    for s in range(20):
        C = gen_category(GenParams(seed=s))
        for D in targets:
            yield C, D


def test_transformations_match_the_all_squares_enumeration():
    checked = 0
    for C, D in _functor_category_corpus():
        fc = functor_category(C, D, ROOMY)
        _assert_transformations_match(fc, _brute_transformations(fc, D))
        checked += fc.cat.n_morphisms
    assert checked > 5000


def test_compose_matches_the_functor_category_table():
    # a second FunHoms on the same functors composes every composable pair
    # as the functor category's table does, and refuses every other pair
    checked = refused = 0
    for C, D in _functor_category_corpus():
        functors = list(enumerate_functors(C, D))
        cat = FunHoms(C, functors, D, "Fun", ROOMY).category().cat
        H = FunHoms(C, functors, D, "Fun", ROOMY)
        H.every_hom()
        for (g, f), h in cat.comp.items():
            assert H.compose(g, f) == h
        checked += len(cat.comp)
        apart = next(((g.name, f.name) for f in cat.morphisms
                      for g in cat.morphisms if g.src != f.tgt), None)
        if apart is not None:
            with pytest.raises(UnknownMorphism, match="no composite"):
                H.compose(*apart)
            refused += 1
    assert checked > 90_000 and refused > 100


def test_is_natural_holds_exactly_on_the_enumerated_transformations():
    # every component tuple with components in the right homs is natural iff
    # the hom enumeration finds it, and is_natural enumerates no hom
    decided = natural = 0
    for s in range(10):
        C = gen_category(GenParams(seed=s, max_objects=3, max_morphisms=6))
        for D in (probe_suite()["parallel"], probe_suite()["nonposet5"]):
            H = FunHoms(C, list(enumerate_functors(C, D)), D, "Fun", ROOMY)
            for fid, gid in itertools.product(H.objects, repeat=2):
                F, G = H.functors[fid], H.functors[gid]
                cands = [D.hom(F.obj(x), G.obj(x)) for x in C.objects]
                before = len(H.hom_of)
                verdicts = {comps: H.is_natural(fid, gid, comps)
                            for comps in itertools.product(*cands)}
                assert len(H.hom_of) == before
                found = {H.hom_of[n][3] for n in H.hom(fid, gid)}
                assert {c for c, ok in verdicts.items() if ok} == found
                decided += len(verdicts)
                natural += len(found)
    assert decided > 1000 and 0 < natural < decided


def test_section_transformations_match_the_all_squares_enumeration():
    # the component_filter path: vertical transformations of sections
    checked = 0
    for s in range(40):
        p = GenParams(seed=s)
        E = grothendieck_cocart(gen_diagram(gen_marking(gen_category(p), p), p),
                                ROOMY)
        fc = marked_sections(E, ROOMY)
        idents = E.base_marked.cat.identity
        want = _brute_transformations(
            fc, E.total.cat, lambda x, c: E.proj.mor(c) == idents[x])
        _assert_transformations_match(fc, want)
        checked += fc.cat.n_morphisms
    assert checked > 100


def test_functor_category_cap_fires_at_the_first_hom_past_it():
    C = gen_category(GenParams(seed=3))
    D = probe_suite()["nonposet5"]
    Cm, Dm = flat_marking(C), flat_marking(D)
    p = GenParams(seed=36)
    E = grothendieck_cocart(gen_diagram(gen_marking(gen_category(p), p), p),
                            ROOMY)
    builds = [(lambda caps: functor_category(C, D, caps),
               f"Fun({C.n_objects}o,{D.n_objects}o)"),
              (lambda caps: marked_functor_category(Cm, Dm, caps), "Fun†"),
              (lambda caps: marked_sections(E, caps), "section category")]
    for build, what in builds:
        total = build(ROOMY).cat.n_morphisms
        assert total > 20
        for k in (0, 1, total // 2, total - 1):
            with pytest.raises(SizeBoundExceeded) as hit:
                build(SizeCaps(max_objects=512, max_morphisms=k,
                               max_candidates=10**6))
            assert (hit.value.what, hit.value.kind) == (what, "morphism")
            assert (hit.value.count, hit.value.cap) == (k + 1, k)
        assert build(SizeCaps(max_objects=512, max_morphisms=total,
                              max_candidates=10**6)).cat.n_morphisms == total


def test_a_missing_composite_in_a_naturality_square_is_unknown():
    A = walking_arrow()
    comp = {k: h for k, h in A.comp.items() if k != ("a01", "id_0")}
    D = FinCat(A.objects, A.morphisms, A.identity, comp)  # unchecked
    F = Functor(A, D, {x: x for x in A.objects},
                {m.name: m.name for m in A.morphisms})
    with pytest.raises(UnknownMorphism, match=r"a01 after id_0"):
        FunHoms(A, [F], D, "broken", ROOMY).category()
    H = FunHoms(A, [F], D, "broken", ROOMY)
    with pytest.raises(UnknownMorphism, match=r"a01 after id_0"):
        H.is_natural(F.key(), F.key(), ("id_0", "id_1"))
