"""Derived categories: twisted arrows, slices, functor categories.

Derived object ids are canonical serializations of their content, so goldens
are diffable and stable across runs.  Enumeration order is by object id, then
by morphism id.

The searches out of a category C run the one FunctorPlan compiled for C and
kept on it (functor_plan), each as one flat depth-first loop: the functor
search (enumerate_functors), the transformation search (FunHoms), and the
generator's search for the transitions of a diagram over C
(generator._backtrack_transitions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .core import (
    FinCat,
    Functor,
    MarkedFinCat,
    build_category,
    short_id,
)
from .errors import SizeBoundExceeded, UnknownMorphism, UnknownObject


@dataclass(frozen=True)
class SizeCaps:
    """Caps on derived categories; fail loudly, never truncate silently."""

    max_objects: int = 64
    max_morphisms: int = 512
    # hard ceiling on raw functor candidates explored per functor category
    max_candidates: int = 200_000

    def check_objects(self, what: str, n: int) -> None:
        if n > self.max_objects:
            raise SizeBoundExceeded(what, "object", n, self.max_objects)

    def check_morphisms(self, what: str, n: int) -> None:
        if n > self.max_morphisms:
            raise SizeBoundExceeded(what, "morphism", n, self.max_morphisms)


DEFAULT_CAPS = SizeCaps()


# -- generating data -----------------------------------------------------------


def generating_morphisms(C: FinCat) -> tuple[list[str], dict[str, tuple[str, ...]]]:
    """A generating set plus a decomposition word for every morphism.

    Words are in diagram order: word (f, g) denotes g after f.  Identities
    decompose as the empty word at their object.
    """
    words: dict[str, tuple[str, ...]] = {
        C.identity[x]: () for x in C.objects
    }
    gens: list[str] = []

    def close() -> None:
        changed = True
        while changed:
            changed = False
            for (g, f), h in C.comp.items():
                if h not in words and g in words and f in words:
                    words[h] = words[f] + words[g]
                    changed = True

    for m in C.morphisms:
        if m.name not in words:
            gens.append(m.name)
            words[m.name] = (m.name,)
            close()
    return gens, words


# -- functor enumeration --------------------------------------------------------


def _forward_schedule(
    C: FinCat, gens: list[str], words: dict[str, tuple[str, ...]],
) -> tuple[list[list[tuple[str, str, tuple[str, ...]]]],
           list[list[tuple[str, str, str]]]]:
    """When each image becomes known and each relation is decided, for an
    assignment of gens in the given order (forward checking on a constraint
    network, as in Mackworth, Consistency in networks of relations, 1977).

    A morphism's level is the index of the last generator of its word.  Per
    level, derived holds (name, source, word) for the morphisms other than
    identities and generators whose words are complete there, and entries
    every composition entry (g, f, h) of C whose highest level among g, f and
    h it is.  An entry with an identity factor holds in every category, for
    any assignment that respects sources and targets, so it is left out.
    """
    index = {g: i for i, g in enumerate(gens)}
    # the identities, and only they, have the empty word, at level -1
    level = {m: max(map(index.__getitem__, w)) if w else -1
             for m, w in words.items()}
    derived: list[list[tuple[str, str, tuple[str, ...]]]] = [[] for _ in gens]
    for m in C.morphisms:
        i = level[m.name]
        if i >= 0 and m.name not in index:
            derived[i].append((m.name, m.src, words[m.name]))
    entries: list[list[tuple[str, str, str]]] = [[] for _ in gens]
    for (g, f), h in C.comp.items():
        i, j = level[g], level[f]
        if i >= 0 and j >= 0:
            entries[max(i, j, level[h])].append((g, f, h))
    return derived, entries


class FunctorPlan:
    """The schedules of the searches out of C, compiled once for C
    (functor_plan).  Three searches run them: for functors
    (enumerate_functors), for transformations (FunHoms), and for the
    transitions of a diagram over C (generator._backtrack_transitions).  It
    holds C's names, never C, so the cache on C is no reference cycle.

    Functors: ``objects`` and ``identities`` are C's objects and their
    identities, ``names`` C's morphisms in id order, and ``gens`` holds one
    level per generator of generating_morphisms(C), in its order, which is
    id order: (g, src, tgt, derived, entries), with the images derived and the
    composition entries decided there (_forward_schedule), every morphism
    as its index in ``names`` and every object as its index in ``objects``.

    Transformations: ``squares``, filled by transformation_squares on
    first use.
    """

    def __init__(self, C: FinCat):
        gens, words = generating_morphisms(C)
        derived, entries = _forward_schedule(C, gens, words)
        self.objects = C.objects
        self.names = tuple([m.name for m in C.morphisms])
        at = {x: i for i, x in enumerate(C.objects)}
        ix = {m: i for i, m in enumerate(self.names)}
        self.identities = tuple([ix[C.identity[x]] for x in C.objects])
        self.gens = tuple([
            (ix[g], at[C.src(g)], at[C.tgt(g)],
             tuple([(ix[m], at[x], tuple(map(ix.__getitem__, word)))
                    for m, x, word in der]),
             tuple([(ix[a], ix[b], ix[h]) for a, b, h in ent]))
            for g, der, ent in zip(gens, derived, entries)])
        self.squares: tuple[tuple[tuple[int, int, str], ...], ...] | None = None


def functor_plan(C: FinCat) -> FunctorPlan:
    """C's FunctorPlan, compiled on first use and kept on C."""
    if C._plan_cache is None:
        C._plan_cache = FunctorPlan(C)
    return C._plan_cache


def transformation_squares(C: FinCat) -> tuple[tuple[tuple[int, int, str], ...], ...]:
    """The squares of C's FunctorPlan (see FunHoms): per object index i, the
    (s, t, g) of each generator g: x_s -> x_t of C.generators() with
    max(s, t) = i.  Computed on first use, as only a FunHoms reads them."""
    plan = functor_plan(C)
    if plan.squares is None:
        at = {x: i for i, x in enumerate(C.objects)}
        squares: list[list[tuple[int, int, str]]] = [[] for _ in at]
        for g in C.generators():
            s, t = at[C.src(g)], at[C.tgt(g)]
            squares[max(s, t)].append((s, t, g))
        plan.squares = tuple(map(tuple, squares))
    return plan.squares


def enumerate_functors(
    C: FinCat,
    D: FinCat,
    obj_filter: Callable[[str, str], bool] | None = None,
    gen_filter: Callable[[str, str], bool] | None = None,
    max_candidates: int = DEFAULT_CAPS.max_candidates,
) -> Iterator[Functor]:
    """All functors C -> D, by backtracking over objects then generators
    (_functors).

    obj_filter / gen_filter prune assignments early; both default to no
    constraint, and both must be pure: an object's candidates are filtered
    once, and a generator's each time its level is entered.  Every
    candidate that passes its filter counts as explored, and
    SizeBoundExceeded is raised once the count passes max_candidates.
    """
    return _functors(C, D, None, obj_filter, gen_filter, max_candidates)


def _functors(
    C: FinCat,
    D: FinCat,
    places: dict[str, int] | None,
    obj_filter: Callable[[str, str], bool] | None = None,
    gen_filter: Callable[[str, str], bool] | None = None,
    max_candidates: int = DEFAULT_CAPS.max_candidates,
) -> Iterator:
    """Each functor C -> D; or, given the places of D's morphisms (their
    indices in D.morphisms), each as the tuple of the places of its
    morphism images, in the order of C's morphisms.  The filters and the
    count are those of enumerate_functors.

    One flat depth-first loop runs C's FunctorPlan: a level per object of
    C, its image tried in D's object order, then a level per generator, its
    image tried in hom order.  The relations of C prune as generators are
    assigned: each image is evaluated, and each composition entry checked,
    as soon as the generators it depends on are assigned (see
    _forward_schedule).  A failed entry cuts the subtree, so the functors
    come out in the order of the unpruned search and only the explored
    count falls.  A missing composite of D raises UnknownMorphism.
    """
    plan = functor_plan(C)
    objs, names, gens = plan.objects, plan.names, plan.gens
    n = len(objs)
    last = n + len(gens) - 1
    if last < 0:  # C is empty: the one empty functor
        yield Functor(C, D, {}, {}) if places is None else ()
        return
    obj_cands = [D.objects if obj_filter is None
                 else [y for y in D.objects if obj_filter(x, y)] for x in objs]
    dcomp, did = D.comp, D.identity
    vals = [""] * n  # the object images
    img = [""] * len(names)  # the morphism images, by index in names
    omap: dict[str, str] = {}
    its: list = [iter(obj_cands[0])] + [None] * last
    explored = k = 0
    try:
        while True:
            for v in its[k]:
                explored += 1
                if explored > max_candidates:
                    raise SizeBoundExceeded("functor enumeration", "candidate",
                                            explored, max_candidates)
                if k < n:
                    vals[k] = v
                    if k == n - 1:  # every object has its image
                        omap = dict(zip(objs, vals))
                        for i, y in zip(plan.identities, vals):
                            img[i] = did[y]
                else:
                    gi, _, _, derived, entries = gens[k - n]
                    img[gi] = v
                    for m, x, word in derived:
                        cur = did[vals[x]]
                        for w in word:
                            cur = dcomp[img[w], cur]
                        img[m] = cur
                    ok = True
                    for g, f, h in entries:
                        if img[h] != dcomp[img[g], img[f]]:
                            ok = False
                            break
                    if not ok:
                        continue
                if k == last:
                    yield (Functor(C, D, omap, dict(zip(names, img))) if places is None
                           else tuple(map(places.__getitem__, img)))
                    continue
                k += 1
                if k < n:
                    its[k] = iter(obj_cands[k])
                    break
                gi, s, t, _, _ = gens[k - n]
                cands = D.hom(vals[s], vals[t])
                if gen_filter is not None:
                    g = names[gi]
                    cands = [d for d in cands if gen_filter(g, d)]
                its[k] = iter(cands)
                break
            else:  # level k is exhausted: back to the one above
                if k == 0:
                    return
                k -= 1
    except KeyError as hole:  # a hole in D's table
        D.compose(*hole.args[0])  # raises UnknownMorphism
        raise


# -- functor categories ----------------------------------------------------------


@dataclass
class FunCat:
    """A functor category together with decodings of its ids: ``hom_of``,
    the ``FunHoms.hom_of`` that built it, maps each transformation to
    ``(id, src, tgt, components)``."""

    cat: FinCat
    functors: dict[str, Functor]
    hom_of: dict[str, tuple[str, str, str, tuple[str, ...]]]


def _natural_families(cands, squares, fgen, ggen, dcomp) -> Iterator[tuple[str, ...]]:
    """The component tuples of the transformations F => G, in candidate
    order, by one flat depth-first loop: a level per object of C, its
    component tried from cands[i], and kept once the squares decided there
    (transformation_squares; fgen and ggen hold F's and G's generators level
    by level) commute in D, whose table is dcomp.  A hole in dcomp raises
    KeyError."""
    last = len(cands) - 1
    if last < 0:  # C is empty: the one empty family
        yield ()
        return
    comps = [""] * len(cands)
    its: list = [iter(cands[0])] + [None] * last
    k = 0
    while True:
        for comps[k] in its[k]:
            for (s, t, _), fg, gg in zip(squares[k], fgen[k], ggen[k]):
                if dcomp[comps[t], fg] != dcomp[gg, comps[s]]:
                    break
            else:
                if k == last:
                    yield tuple(comps)
                    continue
                k += 1
                its[k] = iter(cands[k])
                break
        else:  # level k is exhausted: back to the one above
            if k == 0:
                return
            k -= 1


class FunHoms:
    """Functors C -> D as objects, natural transformations (with components
    passing component_filter) as morphisms, each hom enumerated when first
    read (``hom``) and kept.  This is the one transformation enumerator: a
    functor category reads every hom through it (``category``), and the end
    formula only the homs its limit reads (``limits.end_limit``).

    Object ids are ``key()``s; this is the one place transformation ids,
    ``N{src=>tgt;cs}``, are formatted.  ``hom_of`` maps a transformation to
    ``(id, src, tgt, components)``, the components a tuple over the objects
    of C, and ``find`` maps ``(src, tgt, components)`` back to its id.
    ``compose(g, f)`` composes componentwise in D and finds the result on
    the first call for the pair, and memoises it in a plain dict of ids,
    which holds only strings and so makes no reference cycle.
    The morphism cap counts the transformations enumerated so far.

    Components a_x are chosen object by object of C, each in hom(Fx, Gx) in
    hom order, by one flat loop (_natural_families).  One schedule, C's
    transformation_squares, serves every pair F, G: the square
    a_y F(g) = G(g) a_x of each non-identity generator g: x -> y of C is
    checked once the later of x and y has its component.  Identity squares
    always hold.  If the squares of g and h commute, so does that of g h, as
    a_z F(g h) = G(g) a_y F(h) = G(g) G(h) a_x; and every non-identity is a
    composite of generators (FinCat.generators).  So generator squares decide
    naturality, and each hom comes out in candidate order.
    """

    def __init__(self, C: FinCat, functors: list[Functor], D: FinCat,
                 what: str, caps: SizeCaps,
                 component_filter: Callable[[str, str], bool] | None = None):
        caps.check_objects(what, len(functors))
        self.dom, self.cod, self.what, self.caps = C, D, what, caps
        self.component_filter = component_filter
        self.functors = {F.key(): F for F in functors}
        self.objects = sorted(self.functors)
        self.hom_of: dict[str, tuple[str, str, str, tuple[str, ...]]] = {}
        # (src, tgt) -> components -> id, for the homs enumerated so far
        self._homs: dict[tuple[str, str], dict[tuple[str, ...], str]] = {}
        # (g, f) -> the id of g after f, for the pairs composed so far
        self._composites: dict[tuple[str, str], str] = {}
        self._squares = squares = transformation_squares(C)
        # each functor's objects, and its generators level by level
        self._images = {fid: ([F.obj(x) for x in C.objects],
                              [[F.mor(g) for _, _, g in level]
                               for level in squares])
                        for fid, F in self.functors.items()}

    def hom(self, fid: str, gid: str):
        """The transformations F => G, enumerated on the first call."""
        return self._hom(fid, gid).values()

    def _hom(self, fid: str, gid: str) -> dict[tuple[str, ...], str]:
        found = self._homs.get((fid, gid))
        if found is None:
            found = self._homs[fid, gid] = self._enumerate(fid, gid)
        return found

    def _enumerate(self, fid: str, gid: str) -> dict[tuple[str, ...], str]:
        D, objs = self.cod, self.dom.objects
        (fobj, fgen), (gobj, ggen) = self._images[fid], self._images[gid]
        cands = [D.hom(a, b) for a, b in zip(fobj, gobj)]
        if self.component_filter is not None:
            keep = self.component_filter
            cands = [[c for c in cs if keep(x, c)] for x, cs in zip(objs, cands)]
        found: dict[tuple[str, ...], str] = {}
        if not all(cands):
            return found
        hom_of = self.hom_of
        check, what = self.caps.check_morphisms, self.what
        try:
            for comps in _natural_families(cands, self._squares, fgen, ggen,
                                           D.comp):
                cs = ",".join(map("{}:{}".format, objs, comps))
                nid = found[comps] = short_id(f"N{{{fid}=>{gid};{cs}}}")
                hom_of[nid] = (nid, fid, gid, comps)
                check(what, len(hom_of))
        except KeyError as hole:  # a hole in D's table
            D.compose(*hole.args[0])  # raises UnknownMorphism
            raise
        return found

    def is_natural(self, fid: str, gid: str, comps) -> bool:
        """Whether the components comps, one per object of C in order, each
        in hom(Fx, Gx), make a transformation F => G: whether its generator
        squares commute in D's table, which decides naturality (see above).
        No hom is enumerated; a hole in the table raises UnknownMorphism."""
        dcomp = self.cod.comp
        fgen, ggen = self._images[fid][1], self._images[gid][1]
        try:
            for level, fl, gl in zip(self._squares, fgen, ggen):
                for (s, t, _), fg, gg in zip(level, fl, gl):
                    if dcomp[comps[t], fg] != dcomp[gg, comps[s]]:
                        return False
        except KeyError as hole:  # a hole in D's table
            self.cod.compose(*hole.args[0])  # raises UnknownMorphism
            raise
        return True

    def find(self, key: tuple[str, str, tuple[str, ...]]) -> str:
        """The transformation with these endpoints and components, its hom
        enumerated first; KeyError if there is none."""
        return self._hom(key[0], key[1])[key[2]]

    def compose(self, g: str, f: str) -> str:
        """g after f, composed componentwise in D on the first call for the
        pair and kept.  Defined exactly when tgt(f) == src(g), as for
        FinCat.compose; otherwise UnknownMorphism."""
        try:
            return self._composites[g, f]
        except KeyError:
            pass
        hom_of = self.hom_of
        if g not in hom_of or f not in hom_of or hom_of[f][2] != hom_of[g][1]:
            raise UnknownMorphism(f"no composite ({g} after {f})")
        _, _, t2, c2 = hom_of[g]
        _, s1, _, c1 = hom_of[f]
        dcomp = self.cod.comp
        h = self._composites[g, f] = self.find(
            (s1, t2, tuple(map(dcomp.__getitem__, zip(c2, c1)))))
        return h

    def is_identity(self, nid: str) -> bool:
        return all(map(self.cod.is_identity, self.hom_of[nid][3]))

    def every_hom(self) -> list[tuple[str, str, str, tuple[str, ...]]]:
        """Every transformation, hom by hom in id order."""
        return [self.hom_of[nid] for fid in self.objects for gid in self.objects
                for nid in self.hom(fid, gid)]

    def category(self, check: bool = False) -> FunCat:
        """Every hom, as a FunCat, each composite composed componentwise in D
        when it is built; check is build_category's."""
        homs = self.every_hom()
        D = self.cod
        dcomp = D.comp
        cat = build_category(
            self.objects, homs,
            lambda t2, t1: tuple(map(dcomp.__getitem__, zip(t2, t1))),
            lambda t: all(D.is_identity(c) for c in t),
            check=check)
        return FunCat(cat, self.functors, self.hom_of)


def functor_category(C: FinCat, D: FinCat, caps: SizeCaps = DEFAULT_CAPS) -> FunCat:
    """Objects: all functors C -> D; morphisms: all natural transformations."""
    functors = list(enumerate_functors(C, D, max_candidates=caps.max_candidates))
    return FunHoms(C, functors, D, f"Fun({C.n_objects}o,{D.n_objects}o)",
                   caps).category()


def marked_functor_homs(Cm: MarkedFinCat, Dm: MarkedFinCat,
                        caps: SizeCaps = DEFAULT_CAPS) -> FunHoms:
    """The marked functors C -> D, each hom between them read on demand."""
    C, D = Cm.cat, Dm.cat

    def gen_ok(g: str, d: str) -> bool:
        # necessary condition only; closure can mark composites of unmarked
        # generators, so a full filter still runs below
        return g not in Cm.marked or d in Dm.marked

    functors = [F for F in enumerate_functors(C, D, gen_filter=gen_ok,
                                              max_candidates=caps.max_candidates)
                if F.is_marked(Cm.marked, Dm.marked)]
    return FunHoms(C, functors, D, "Fun†", caps)


def marked_functor_category(
    Cm: MarkedFinCat, Dm: MarkedFinCat, caps: SizeCaps = DEFAULT_CAPS
) -> FunCat:
    """Full subcategory of functor_category(C, D) on the marked functors."""
    return marked_functor_homs(Cm, Dm, caps).category()


# -- twisted arrow category -------------------------------------------------------


@dataclass
class TwistedArrowCat:
    cat: FinCat
    proj_src: Functor  # to the base, first coordinate (covariant)
    legs: dict[str, tuple[str, str]]  # morphism id -> (a, b)


def tw_mor_id(a: str, b: str, f: str, f2: str) -> str:
    return short_id(f"({a}|{b}):{f}>{f2}")


def twisted_arrow(I: FinCat, caps: SizeCaps = DEFAULT_CAPS) -> TwistedArrowCat:
    """Objects are the morphisms of I; morphisms f -> f' are twisted squares
    (a: src f -> src f', b: tgt f' -> tgt f) with b(f'a) = f."""
    objects = [m.name for m in I.morphisms]
    caps.check_objects("twisted arrow", len(objects))
    homs = []
    for f in I.morphisms:
        for f2 in I.morphisms:
            for a in I.hom(f.src, f2.src):
                fa = I.compose(f2.name, a)
                for b in I.hom(f2.tgt, f.tgt):
                    if I.compose(b, fa) == f.name:
                        homs.append((tw_mor_id(a, b, f.name, f2.name),
                                     f.name, f2.name, (a, b)))
    caps.check_morphisms("twisted arrow", len(homs))
    cat = build_category(
        objects, homs,
        lambda l2, l1: (I.compose(l2[0], l1[0]), I.compose(l1[1], l2[1])),
        lambda ab: I.is_identity(ab[0]) and I.is_identity(ab[1]))
    legs = {name: ab for name, _, _, ab in homs}
    proj_src = Functor(
        cat, I,
        {f: I.src(f) for f in objects},
        {name: ab[0] for name, ab in legs.items()},
    )
    proj_src.validate()
    return TwistedArrowCat(cat, proj_src, legs)


# -- slices and coslices ------------------------------------------------------------


@dataclass
class SliceCat:
    """I_{/i} or I_{i/} with the marking pulled back along the forgetful
    functor, whose morphism map is witness."""

    marked: MarkedFinCat
    kind: str  # "slice" | "coslice"
    witness: dict[str, str]  # slice morphism id -> underlying morphism of I

    @property
    def cat(self) -> FinCat:
        return self.marked.cat


def slice_mor_id(a: str, f: str, g: str) -> str:
    return short_id(f"({a}):{f}>{g}")


def _slice_like(Im: MarkedFinCat, i: str, kind: str) -> SliceCat:
    I = Im.cat
    if i not in I.objects:
        raise UnknownObject(i)
    if kind == "slice":
        objects = [m.name for m in I.morphisms if m.tgt == i]
    else:
        objects = [m.name for m in I.morphisms if m.src == i]
    homs = []
    for f in objects:
        for g in objects:
            if kind == "slice":
                # a: src f -> src g with g a = f
                cands = [a for a in I.hom(I.src(f), I.src(g))
                         if I.compose(g, a) == f]
            else:
                # a: tgt f -> tgt g with a f = g
                cands = [a for a in I.hom(I.tgt(f), I.tgt(g))
                         if I.compose(a, f) == g]
            homs += [(slice_mor_id(a, f, g), f, g, a) for a in cands]
    cat = build_category(objects, homs, I.compose, I.is_identity)
    witness = {name: a for name, _, _, a in homs}
    mk = frozenset(m for m in witness if witness[m] in Im.marked)
    return SliceCat(MarkedFinCat(cat, mk), kind, witness)


def slice_cat(Im: MarkedFinCat, i: str) -> SliceCat:
    """I_{/i}: morphisms into i."""
    return _slice_like(Im, i, "slice")


def coslice_cat(Im: MarkedFinCat, i: str) -> SliceCat:
    """I_{i/}: morphisms out of i."""
    return _slice_like(Im, i, "coslice")


def slice_transition(Im: MarkedFinCat, sl_from: SliceCat, sl_to: SliceCat,
                     a: str) -> Functor:
    """Postcomposition I_{/x} -> I_{/y} along a: x -> y (slice kind), or
    precomposition I_{x/} -> I_{y/} along a: y -> x (coslice kind)."""
    I = Im.cat
    if sl_from.kind == "slice":
        omap = {f: I.compose(a, f) for f in sl_from.cat.objects}
    else:
        omap = {f: I.compose(f, a) for f in sl_from.cat.objects}
    mmap = {}
    for m in sl_from.cat.morphisms:
        w = sl_from.witness[m.name]
        mmap[m.name] = slice_mor_id(w, omap[m.src], omap[m.tgt])
    F = Functor(sl_from.cat, sl_to.cat, omap, mmap)
    F.validate()
    return F
