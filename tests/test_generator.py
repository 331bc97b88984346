"""Seeded generation: determinism, validity, and distribution sanity."""

import gc
import random
from dataclasses import replace

import pytest

from laxcat.constructions import enumerate_functors, generating_morphisms
from laxcat.core import (
    Mor,
    check_axioms,
    compose_functors,
    fincat,
    identity_functor,
    short_id,
    validate_marking,
    walking_arrow,
)
from laxcat.equiv import is_equivalent
import laxcat.generator as generator
from laxcat.generator import (
    GenParams,
    _backtrack_transitions,
    gen_category,
    gen_diagram,
    gen_marking,
    gen_set_diagram,
)


def test_determinism():
    for s in range(10):
        p = GenParams(seed=s)
        a, b = gen_category(p), gen_category(p)
        assert a.same_table(b)
        ma, mb = gen_marking(a, p), gen_marking(b, p)
        assert ma.marked == mb.marked
        da, db = gen_diagram(ma, p), gen_diagram(mb, p)
        assert da.base.cat.same_table(db.base.cat)
        assert all(da.fiber[i].same_table(db.fiber[i]) for i in da.fiber)
        for m in da.transition:
            assert da.transition[m].object_map == db.transition[m].object_map
            assert da.transition[m].morphism_map == db.transition[m].morphism_map


def test_generated_artifacts_validate():
    for s in range(40):
        p = GenParams(seed=s)
        C = gen_category(p)
        check_axioms(C)  # raises MalformedTable on a violation
        Cm = gen_marking(C, p)
        validate_marking(Cm.cat, Cm.marked)
        F = gen_diagram(Cm, p)
        F.validate()
        S = gen_set_diagram(Cm.cat, p)
        S.validate()


def test_size_caps_respected():
    for s in range(20):
        p = GenParams(seed=s, max_objects=3, max_morphisms=7)
        C = gen_category(p)
        assert C.n_objects <= 3
        assert len(C.nonidentity()) <= 7


def test_density_extremes():
    C = walking_arrow()
    flat = gen_marking(C, GenParams(seed=0, marking_density=0.0))
    assert flat.marked == C.iso_set()
    sharp = gen_marking(C, GenParams(seed=0, marking_density=1.0))
    assert sharp.marked == frozenset(m.name for m in C.morphisms)


def test_single_edge_no_relations_is_walking_arrow():
    # smallest nontrivial draw collapses to the walking arrow shape
    for s in range(40):
        p = GenParams(seed=s, max_objects=2, max_morphisms=1,
                      relation_density=0.0, nonposet_prob=0.0)
        C = gen_category(p)
        if len(C.nonidentity()) == 1:
            assert is_equivalent(C, walking_arrow())
            break
    else:
        raise AssertionError("no two-object draw in 40 seeds")


def test_distribution_sanity():
    posets = nonposets = 0
    marking_sizes = set()
    for s in range(1000):
        p = GenParams(seed=s)
        C = gen_category(p)
        skeletal_poset = all(len(C.hom(x, y)) <= 1
                             for x in C.objects for y in C.objects)
        if skeletal_poset:
            posets += 1
        else:
            nonposets += 1
        if len(C.nonidentity()) >= 3:
            marking_sizes.add(len(gen_marking(C, p).marked))
    assert posets > 0 and nonposets > 0
    assert len(marking_sizes) >= 3


def test_fiber_caps():
    for s in range(15):
        p = GenParams(seed=s, fiber_max_objects=2, fiber_max_morphisms=3)
        F = gen_diagram(gen_marking(gen_category(p), p), p)
        for fib in F.fiber.values():
            assert fib.n_objects <= 2
            assert len(fib.nonidentity()) <= 3


def _unpruned_transitions(I, fibers, rng, limit):
    """The search without pruning: every assignment of the generators within
    the node budget is derived and checked in full.  Returns the transitions
    (or None) and whether the budget ran out."""
    gens, words = generating_morphisms(I)
    gens = sorted(gens)
    candidates = {}
    for g in gens:
        cs = list(enumerate_functors(fibers[I.src(g)], fibers[I.tgt(g)]))
        if not cs:
            return None, False
        rng.shuffle(cs)
        candidates[g] = cs

    def derive(assign):
        tr = {I.identity[x]: identity_functor(fibers[x]) for x in I.objects}
        for m in I.morphisms:
            if I.is_identity(m.name):
                continue
            T = identity_functor(fibers[m.src])
            for g in words[m.name]:
                T = compose_functors(assign[g], T)
            tr[m.name] = T
        for (g, f), h in I.comp.items():
            if not compose_functors(tr[g], tr[f]).same_maps(tr[h]):
                return None
        return tr

    budget = [limit]

    def rec(i, assign):
        if i == len(gens):
            return derive(assign)
        for c in candidates[gens[i]]:
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            assign[gens[i]] = c
            got = rec(i + 1, assign)
            if got is not None:
                return got
        return None

    got = rec(0, {})
    return got, got is None and budget[0] <= 0


def _same_as_unpruned(I, fibers, rng, limit=generator._TRANSITION_NODES):
    """Run both searches from the same rng state; they must agree on the
    transitions and leave the same state.  Returns the transitions (or None)
    and whether the budget ran out."""
    ref_rng = random.Random()
    ref_rng.setstate(rng.getstate())
    got = _backtrack_transitions(I, fibers, rng)
    want, ran_out = _unpruned_transitions(I, fibers, ref_rng, limit)
    assert rng.getstate() == ref_rng.getstate()
    assert (got is None) == (want is None)
    if got is not None:
        assert list(got) == list(want)
        assert all(got[m].same_maps(want[m]) for m in want)
    return got, ran_out


def _draw_fibers(I, rng, p):
    """One fiber draw of gen_diagram."""
    fiber_params = replace(p, max_objects=p.fiber_max_objects,
                           max_morphisms=p.fiber_max_morphisms)
    return {x: gen_category(replace(fiber_params, seed=rng.randrange(2 ** 32)))
            for x in I.objects}


def test_backtrack_transitions_matches_unpruned_search():
    # the draws gen_diagram makes: the same transitions, the same rng state
    # afterwards, and so the same next draw
    exhausted = 0
    for s in range(300):
        p = GenParams(seed=s)
        I = gen_category(p)
        rng = random.Random(("diagram", p.seed).__repr__())
        for _ in range(p.retries):
            got, ran_out = _same_as_unpruned(I, _draw_fibers(I, rng, p), rng)
            exhausted += ran_out
            if got is not None:
                break
    # pruned subtrees are charged, so a draw that ran out stays one
    assert exhausted >= 1


def test_backtrack_transitions_budget_matches_unpruned_search(monkeypatch):
    # at small budgets a node miscounted in a cut subtree moves the point
    # where the search gives up
    outcomes = set()
    for s in range(60):
        p = GenParams(seed=s)
        I = gen_category(p)
        fibers = _draw_fibers(I, random.Random(s), p)
        for limit in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233):
            monkeypatch.setattr(generator, "_TRANSITION_NODES", limit)
            got, ran_out = _same_as_unpruned(I, fibers, random.Random(s), limit)
            outcomes.add((got is None, ran_out))
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_gen_diagram_leaves_no_cyclic_garbage():
    # with the cyclic collector off, the transition search frees everything
    # it made once nothing holds it: no closure of it refers to itself
    p = GenParams(seed=3)
    I = gen_marking(gen_category(p), p)
    gc.collect()
    gc.disable()
    try:
        F = gen_diagram(I, p)
        n_objects = F.base.cat.n_objects
        del F
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert n_objects == I.cat.n_objects


# -- gen_category against the union-find quotient it replaced ------------------------


_Path = tuple[str, tuple[str, ...]]  # (source object, edge names in order)


def _reference_dag_paths(objects, edges):
    """All composable edge sequences, including the empty path per object."""
    tgt = {e: j for e, (_, j) in edges.items()}
    by_src: dict[str, list[str]] = {}
    for e, (i, _) in edges.items():
        by_src.setdefault(i, []).append(e)
    paths = [(x, ()) for x in objects]
    frontier = [((x, ()), x) for x in objects]
    while frontier:
        nxt = []
        for (s, p), end in frontier:
            for e in by_src.get(end, []):
                q = (s, p + (e,))
                paths.append(q)
                nxt.append((q, tgt[e]))
        frontier = nxt
    return paths, tgt


def _union_find_category(p: GenParams):
    """gen_category as it was before it drew its categories through the word
    closure: a path BFS, a union-find closed under one-edge extensions on
    either side, and a hand-filled table.  Kept verbatim as an independent
    reference; it makes the same rng draws in the same order."""
    rng = random.Random(("cat", p.seed, p.max_objects, p.max_morphisms,
                         p.relation_density).__repr__())
    if rng.random() < p.nonposet_prob:
        return generator._curated(rng)

    n = rng.randint(1, max(1, p.max_objects))
    objects = [f"o{i}" for i in range(n)]
    edges: dict[str, tuple[str, str]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            k = rng.choices([0, 1, 2], weights=[45, 40, 15])[0]
            for c in range(k):
                edges[f"e{i}{j}{'ab'[c]}"] = (objects[i], objects[j])
    # trim edges until the free category fits the morphism budget
    while True:
        paths, tgt_of = _reference_dag_paths(objects, edges)
        if len(paths) - n <= p.max_morphisms or not edges:
            break
        del edges[rng.choice(sorted(edges))]

    def path_tgt(path):
        s, es = path
        return tgt_of[es[-1]] if es else s

    # random parallel-path identifications, then congruence closure
    parent = {q: q for q in paths}

    def find(q):
        while parent[q] != q:
            parent[q] = parent[parent[q]]
            q = parent[q]
        return q

    def union(a, b) -> bool:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        lo, hi = sorted((ra, rb), key=lambda q: (len(q[1]), q[1], q[0]))
        parent[hi] = lo
        return True

    groups: dict[tuple[str, str], list[_Path]] = {}
    for q in paths:
        groups.setdefault((q[0], path_tgt(q)), []).append(q)
    for key in sorted(groups):
        grp = groups[key]
        for a in range(len(grp)):
            for b in range(a + 1, len(grp)):
                if len(grp[a][1]) >= 1 and len(grp[b][1]) >= 1 \
                        and rng.random() < p.relation_density:
                    union(grp[a], grp[b])
    by_src: dict[str, list[str]] = {}
    for e, (i, _) in edges.items():
        by_src.setdefault(i, []).append(e)
    by_tgt: dict[str, list[str]] = {}
    for e, (_, j) in edges.items():
        by_tgt.setdefault(j, []).append(e)
    changed = True
    while changed:
        changed = False
        classes: dict[_Path, list[_Path]] = {}
        for q in paths:
            classes.setdefault(find(q), []).append(q)
        for members in classes.values():
            base = members[0]
            for q in members[1:]:
                for e in by_src.get(path_tgt(base), []):
                    if union((base[0], base[1] + (e,)), (q[0], q[1] + (e,))):
                        changed = True
                for e in by_tgt.get(base[0], []):
                    s = edges[e][0]
                    if union((s, (e,) + base[1]), (s, (e,) + q[1])):
                        changed = True

    reps = sorted({find(q) for q in paths}, key=lambda q: (q[0], len(q[1]), q[1]))

    def mname(rep: _Path) -> str:
        s, es = rep
        return f"id_{s}" if not es else short_id("*".join(es))

    morphisms = [Mor(mname(r), r[0], path_tgt(r)) for r in reps]
    identity = {x: f"id_{x}" for x in objects}
    comp = {}
    for r1 in reps:
        for r2 in reps:
            if path_tgt(r1) != r2[0]:
                continue
            comp[(mname(r2), mname(r1))] = mname(find((r1[0], r1[1] + r2[1])))
    return fincat(objects, morphisms, identity, comp)


REFERENCE_PARAMS = {
    "default": GenParams(),
    "2/5": GenParams(max_objects=2, max_morphisms=5),
    "3/6": GenParams(max_objects=3, max_morphisms=6),
    "5/20 at density 0.8": GenParams(max_objects=5, max_morphisms=20,
                                     relation_density=0.8),
    "density 0.2": GenParams(relation_density=0.2),
}


@pytest.mark.parametrize("label", sorted(REFERENCE_PARAMS))
def test_gen_category_matches_the_union_find_quotient(label):
    for s in range(500):
        p = replace(REFERENCE_PARAMS[label], seed=s)
        assert gen_category(p).same_table(_union_find_category(p)), (label, s)
