"""Seeded generation: determinism, validity, and distribution sanity."""

import random
from dataclasses import replace

from laxcat.constructions import enumerate_functors, generating_morphisms
from laxcat.core import (
    check_axioms,
    compose_functors,
    identity_functor,
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
        assert check_axioms(C).ok
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
