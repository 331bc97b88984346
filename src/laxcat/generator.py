"""Seeded random generation of categories, markings, and diagrams.

A random category is the quotient of its DAG presentation by the word
closure of localization: the free category on a random acyclic quiver
modulo random identifications of parallel paths.  A DAG on n objects has no
path of n edges, so a window of n letters holds every path and the closure
is exact.  Curated non-poset seeds are mixed in at low probability since
DAG quotients are always posets up to identification.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .core import (
    FinCat,
    Functor,
    MarkedFinCat,
    Mor,
    fincat,
    identity_functor,
    parallel_pair,
    saturate_marking,
    walking_iso,
)
from .constructions import _functors, functor_plan, generating_morphisms
from .diagrams import CatDiagram, SetDiagram
from .errors import GenerationExhausted, SizeBoundExceeded
from .localization import (Arrow, PresentedCat, Relation, _out_of, _paths, _quotient,
                           _Words)


@dataclass(frozen=True)
class GenParams:
    seed: int = 0
    max_objects: int = 4
    max_morphisms: int = 14  # non-identity morphisms
    relation_density: float = 0.5
    marking_density: float = 0.3
    fiber_max_objects: int = 3
    fiber_max_morphisms: int = 6
    nonposet_prob: float = 0.12
    max_set_size: int = 3
    retries: int = 40


def _monoid3() -> FinCat:
    # one object, absorbing element: a*a = aa, everything with aa gives aa
    ms = [Mor("id_x", "x", "x"), Mor("a", "x", "x"), Mor("aa", "x", "x")]
    comp = {("a", "a"): "aa", ("a", "aa"): "aa", ("aa", "a"): "aa",
            ("aa", "aa"): "aa"}
    for n in ("a", "aa"):
        comp[("id_x", n)] = n
        comp[(n, "id_x")] = n
    comp[("id_x", "id_x")] = "id_x"
    return fincat(["x"], ms, {"x": "id_x"}, comp)


def _curated(rng: random.Random) -> FinCat:
    return [walking_iso, _monoid3, parallel_pair][rng.randrange(3)]()


def gen_category(p: GenParams) -> FinCat:
    """Random finite category; identical params give identical output."""
    rng = random.Random(("cat", p.seed, p.max_objects, p.max_morphisms,
                         p.relation_density).__repr__())
    if rng.random() < p.nonposet_prob:
        return _curated(rng)

    n = rng.randint(1, max(1, p.max_objects))
    objects = [f"o{i}" for i in range(n)]
    edges: dict[str, tuple[str, str]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            k = rng.choices([0, 1, 2], weights=[45, 40, 15])[0]
            for c in range(k):
                edges[f"e{i}{j}{'ab'[c]}"] = (objects[i], objects[j])
    # trim edges until the free category fits the budget (below 0 counts as 0)
    while True:
        arrows = tuple(Arrow(e, s, t) for e, (s, t) in edges.items())
        try:
            window = _paths(objects, _out_of(arrows), n, n + max(p.max_morphisms, 0))
            break
        except SizeBoundExceeded:
            del edges[rng.choice(sorted(edges))]

    # random identifications of parallel nonempty paths: those numbered from
    # n on (_Window), each from the source of its first letter; a path's
    # word is built only for a relation
    heads, tgts, word = window.heads, window.tgts, window.word
    groups: dict[tuple[str, str], list[int]] = {}
    for i in range(n, len(tgts)):
        groups.setdefault((edges[heads[i]][0], tgts[i]), []).append(i)
    relations = []
    for s, t in sorted(groups):
        grp = groups[s, t]
        for a in range(len(grp)):
            for b in range(a + 1, len(grp)):
                if rng.random() < p.relation_density:
                    relations.append(Relation(s, t, word(grp[a])[1], word(grp[b])[1]))
    words = _Words(PresentedCat(tuple(objects), arrows, tuple(relations)), window)
    # every path is shorter than n, so representatives(n) holds the class of
    # every path, and every composite r1·r2 is a path of the window
    find, walk = words._find, window.walk
    reps = words.representatives(n)
    return _quotient(words, reps, lambda r2, r1: find(walk(r1, reps[r2][1])))


def gen_marking(C: FinCat, p: GenParams) -> MarkedFinCat:
    rng = random.Random(("marking", p.seed, p.marking_density).__repr__())
    picked = {m.name for m in C.morphisms
              if not C.is_identity(m.name) and rng.random() < p.marking_density}
    picked.update(C.identity.values())
    return MarkedFinCat(C, saturate_marking(C, frozenset(picked)))


# assignment attempts per fiber draw of gen_diagram
_TRANSITION_NODES = 4000


def _backtrack_transitions(I: FinCat, fibers: dict[str, FinCat],
                           rng: random.Random) -> dict[str, Functor] | None:
    """Assign functors to the generators of I, derive the rest from the
    decomposition words, and keep only strictly functorial assignments.

    The search runs I's FunctorPlan (functor_plan), like enumerate_functors:
    a level per generator, in id order; a morphism's transition is composed
    along its word once the last generator of the word is assigned, and each
    relation (g, f) -> h of I is checked at the highest level among g, f and
    h (_forward_schedule).  A failed relation cuts the subtree.

    A transition T: fibers[x] -> fibers[y] is held as a tuple of places:
    T[j] is the place in fibers[y].morphisms of the image of the j-th
    morphism of fibers[x].  A generator's candidates are these tuples, in
    enumerate_functors' order, shuffled once per generator in id order; the
    first generator with none ends the draw.  G after F is
    (G[j] for j in F), and a relation holds when two tuples are equal.
    That equality is Functor.same_maps: equal tuples are equal morphism
    maps, and a functor F sends the identity of a to the identity of F(a),
    distinct objects having distinct identities, so the morphism map fixes
    the object map.  Functors are built only for the assignment returned.

    The node budget decides which fiber draw succeeds, and so the rest of
    the shared rng's stream.  A cut subtree holds no success, and it is
    charged the nodes the unpruned search would have spent in it, so every
    success and every exhausted budget falls where the unpruned search
    puts it."""
    plan = functor_plan(I)
    names, gens = plan.names, plan.gens
    fiber = [fibers[x] for x in plan.objects]
    places: dict[int, dict[str, int]] = {}  # the target fibers' places
    candidates = []
    for _, s, t, _, _ in gens:
        if t not in places:
            places[t] = {m.name: j for j, m in enumerate(fiber[t].morphisms)}
        cs = list(_functors(fiber[s], fiber[t], places[t]))
        if not cs:
            return None
        rng.shuffle(cs)
        candidates.append(cs)

    n = len(gens)
    # below[i]: nodes of the unpruned tree under one node of level i - 1
    below = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        below[i] = len(candidates[i]) * (1 + below[i + 1])

    tr: list[tuple[int, ...]] = [()] * len(names)  # by index in names
    for x, i in enumerate(plan.identities):
        tr[i] = tuple(range(len(fiber[x].morphisms)))
    # depth first: one iterator per level, like enumerate_functors
    budget = _TRANSITION_NODES
    its = [iter(cs) for cs in candidates]
    i = 0
    while i < n:
        c = next(its[i], None)
        if c is None:  # level i is exhausted: back to the one above
            if i == 0:
                return None
            i -= 1
            continue
        if budget <= 0:
            return None
        budget -= 1
        gi, _, _, derived, entries = gens[i]
        tr[gi] = c
        for m, _, word in derived:
            T = tr[word[0]]
            for g in word[1:]:
                G = tr[g]
                T = tuple([G[j] for j in T])
            tr[m] = T
        for g, f, h in entries:
            G = tr[g]
            if tuple([G[j] for j in tr[f]]) != tr[h]:
                budget -= below[i + 1]
                break
        else:
            if i + 1 < n:
                i += 1
                its[i] = iter(candidates[i])
            else:
                break
    # the functors, identities first: a morphism's places read as names,
    # and an object's image read off the image of its identity
    out = {names[i]: identity_functor(F) for i, F in zip(plan.identities, fiber)}
    if n:  # with no generator, every morphism of I is an identity
        at = {x: i for i, x in enumerate(plan.objects)}
        names_of = [[f.name for f in F.morphisms] for F in fiber]
        object_of = [{i: a for a, i in F.identity.items()} for F in fiber]
        for k, m in enumerate(I.morphisms):
            if m.name in out:
                continue
            s, t = at[m.src], at[m.tgt]
            src, objs = fiber[s], object_of[t]
            mmap = dict(zip(names_of[s], map(names_of[t].__getitem__, tr[k])))
            omap = {a: objs[mmap[src.identity[a]]] for a in src.objects}
            out[m.name] = Functor(src, fiber[t], omap, mmap)
    return out


def gen_diagram(Im: MarkedFinCat, p: GenParams) -> CatDiagram:
    """Random strict diagram of categories over the marked base; retries with
    fresh fibers when no strictly functorial transition assignment exists."""
    rng = random.Random(("diagram", p.seed).__repr__())
    I = Im.cat
    fiber_params = replace(p, max_objects=p.fiber_max_objects,
                           max_morphisms=p.fiber_max_morphisms)
    for _ in range(p.retries):
        fibers = {x: gen_category(replace(fiber_params,
                                          seed=rng.randrange(2 ** 32)))
                  for x in I.objects}
        tr = _backtrack_transitions(I, fibers, rng)
        if tr is not None:
            return CatDiagram(Im, fibers, tr)
    raise GenerationExhausted(
        f"no strict diagram over base with {I.n_objects} objects "
        f"after {p.retries} retries")


def gen_set_diagram(C: FinCat, p: GenParams) -> SetDiagram:
    """Random functor to finite sets, built the same way as gen_diagram."""
    rng = random.Random(("setdiag", p.seed).__repr__())
    gens, words = generating_morphisms(C)
    gens = sorted(gens)
    for _ in range(p.retries):
        values = {x: tuple(range(rng.randint(1, p.max_set_size)))
                  for x in C.objects}
        assign = {g: {e: rng.choice(values[C.tgt(g)]) for e in values[C.src(g)]}
                  for g in gens}
        action = {C.identity[x]: {e: e for e in values[x]} for x in C.objects}
        for m in C.morphisms:
            if C.is_identity(m.name):
                continue
            f = {e: e for e in values[m.src]}
            for g in words[m.name]:
                f = {e: assign[g][v] for e, v in f.items()}
            action[m.name] = f
        if all({e: action[g][v] for e, v in action[f2].items()} == action[h]
               for (g, f2), h in C.comp.items()):
            return SetDiagram(C, values, action)
    # random assignments on generators can be incompatible with the
    # relations of C; a representable functor is always strict
    c = rng.choice(C.objects)
    values = {x: tuple(sorted(m.name for m in C.morphisms
                              if m.src == c and m.tgt == x))
              for x in C.objects}
    action = {m.name: {e: C.compose(m.name, e) for e in values[m.src]}
              for m in C.morphisms}
    return SetDiagram(C, values, action)
