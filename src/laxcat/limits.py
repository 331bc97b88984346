"""Ordinary, partially lax, and oplax limits.

Lax limits are computed by the end formula: a limit over the opposite of the
twisted arrow category of the diagram sending an arrow f: s -> t to the
category of marked functors from the marked slice over s into the flat-marked
fiber at t.  One core (``LimitReader`` and ``limit_hom``) computes every
strict limit family by family: the object families when the reader is made,
and the morphism families one hom at a time, reading a fiber's homs only
between the components of two families, so the end formula enumerates only
those homs of its functor categories.  Both run one search, a
``FamilyPlan`` compiled once per base: it branches only at the objects no
other value forces (its roots), reads candidate lists only there, and
computes every other value by a transport.  ``_assemble`` builds the limit
category from the reader (``cat_limit``, ``end_limit``); the probe check
reads the end (``end_reader``) hom by hom and assembles no category, with
one plan per diagram for all its probes.  The oplax variant is obtained
from the lax one by fiberwise opposites, so a single implementation carries
the correctness burden.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .core import (
    FinCat,
    Functor,
    MarkedFinCat,
    build_category,
    flat_marking,
    functor_key,
    is_iso,
    opposite_cat,
    opposite_functor,
    short_id,
)
from .constructions import (
    DEFAULT_CAPS,
    FunHoms,
    SizeCaps,
    marked_functor_homs,
    slice_cat,
    slice_transition,
    twisted_arrow,
)
from .diagrams import CatDiagram, MarkedCatDiagram, SetDiagram, fiberwise_op
from .errors import InvariantViolation, MalformedTable


# -- set-valued (co)limits -------------------------------------------------------


def set_limit(F: SetDiagram) -> list[tuple]:
    """Compatible families, as tuples ordered by base object id."""
    fams = FamilyPlan(F.base).families(lambda b: F.values[b],
                                       lambda phi, e: F.action[phi][e])
    return [tuple(fam.values()) for fam in fams]


def set_colimit(F: SetDiagram) -> dict[tuple, int]:
    """Quotient of the disjoint union by the zigzag closure (union-find).

    Returns a map (object id, element) -> class index; class indices are
    assigned in order of first occurrence over sorted elements.
    """
    B = F.base
    elems = [(x, e) for x in B.objects for e in sorted(F.values[x], key=repr)]
    parent = {p: p for p in elems}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    def union(p, q):
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[max(rp, rq, key=repr)] = min(rp, rq, key=repr)

    for m in B.morphisms:
        for e in F.values[m.src]:
            union((m.src, e), (m.tgt, F.action[m.name][e]))
    roots: dict[tuple, int] = {}
    out = {}
    for p in elems:
        r = find(p)
        if r not in roots:
            roots[r] = len(roots)
        out[p] = roots[r]
    return out


# -- strict limits of Cat-valued diagrams ------------------------------------------


def _family_obj_id(family: dict[str, str]) -> str:
    return short_id("L{" + "|".join(f"{b}:{family[b]}" for b in sorted(family)) + "}")


def _family_mor_id(family: dict[str, str]) -> str:
    return short_id("Lm{" + "|".join(f"{b}:{family[b]}" for b in sorted(family)) + "}")


class FamilyPlan:
    """The search for the families over B, compiled once for B.  A family
    is a value at every object, with force(phi, value at src) == value at
    tgt for every morphism phi.

    The plan is static: assigning b forces a value at every object b
    reaches, whatever the value.  The roots are the objects no earlier root
    reaches, taken by reach-set size, largest first, ties in B's object
    order.  ``levels`` holds, per root, its index and the steps (src, phi,
    tgt, assign) of a breadth-first walk of the non-identity morphisms from
    it: assign tgt if no earlier step has, else check it.  So every
    non-identity morphism is stepped once, after its source has a value.
    An identity's constraint always holds, as a transition at an identity
    is the identity (checked for a CatDiagram; the end's transport returns
    its argument there).

    The search yields the families of the product of all candidate lists
    filtered by every morphism: it tries each candidate at each root, sets
    the other values by steps and keeps exactly the assignments whose
    steps all hold; a family is fixed by its root values, so each comes out
    once.  A transport sends a candidate to a candidate (an object of a
    fiber to one, a morphism between two families' components to one), so
    forced values are candidates, and an empty list at b empties the list
    at every root reaching b.  So lists are read only at the roots, in plan
    order, none after the first empty one.  The order of the roots decides
    which lists are read, never the families.
    """

    def __init__(self, B: FinCat):
        objs = B.objects
        at = {b: i for i, b in enumerate(objs)}
        out: list[list[tuple[str, int]]] = [[] for _ in objs]
        for m in B.morphisms:
            if not B.is_identity(m.name):
                out[at[m.src]].append((m.name, at[m.tgt]))

        # B is closed under composition: what b reaches is one step away
        sizes = [len({i, *(t for _, t in ts)}) for i, ts in enumerate(out)]
        assigned = [False] * len(objs)
        levels = []
        for r in sorted(range(len(objs)), key=lambda i: -sizes[i]):
            if assigned[r]:
                continue
            assigned[r] = True
            steps, queue = [], [r]
            for cur in queue:
                for name, t in out[cur]:
                    steps.append((cur, name, t, not assigned[t]))
                    if not assigned[t]:
                        assigned[t] = True
                        queue.append(t)
            levels.append((r, tuple(steps)))
        self.base = B
        self.levels = tuple(levels)
        self.roots = tuple(objs[r] for r, _ in levels)

    def families(self, candidates, force) -> Iterator[dict[str, str]]:
        """Every family, a dict over B's objects in order; candidates(b)
        lists the values at a root b, force(phi, v) transports v."""
        cands = []
        for b in self.roots:
            values = candidates(b)
            if not values:  # no value at b, so no family
                return
            cands.append(values)
        objs, levels = self.base.objects, self.levels
        if not levels:  # B has no objects: the one empty family
            yield {}
            return
        # depth first: one iterator per level, the values in one flat list
        vals: list = [None] * len(objs)
        last = len(levels) - 1
        its = [iter(cands[0])] + [None] * last
        k = 0
        while True:
            r, steps = levels[k]
            for vals[r] in its[k]:
                for s, phi, t, assign in steps:
                    w = force(phi, vals[s])
                    if assign:
                        vals[t] = w
                    elif vals[t] != w:
                        break
                else:
                    if k == last:
                        yield dict(zip(objs, vals))
                        continue
                    k += 1
                    its[k] = iter(cands[k])
                    break
            else:  # level k is exhausted: back to the one above
                if k == 0:
                    return
                k -= 1


@dataclass
class CatLimitResult:
    cat: FinCat
    obj_family: dict[str, dict[str, str]]
    mor_family: dict[str, dict[str, str]]
    fiber: dict[str, FinCat]  # base object -> its fiber

    @cached_property
    def projections(self) -> dict[str, Functor]:
        """Base object -> projection onto its fiber, made and validated on
        first read."""
        out = {}
        for b, C in self.fiber.items():
            P = Functor(
                self.cat, C,
                {xid: fam[b] for xid, fam in self.obj_family.items()},
                {mid: fam[b] for mid, fam in self.mor_family.items()},
            )
            P.validate()
            out[b] = P
        return out


class LimitReader:
    """The strict limit over plan.base of the fibers, read one hom at a
    time: the object families are found when it is made, and ``limit_hom``
    enumerates the morphism families between two of them.  Both searches
    run the one FamilyPlan of the base.

    fiber[b] is a FinCat or a FunHoms, which share the protocol the limit
    core reads: ``objects``, ``hom(x, y)``, ``compose(g, f)`` and
    ``is_identity(m)``; the reader reads the first two, _assemble the last
    two.  obj(phi, x) and mor(phi, m) transport along the
    transition at phi.  A hom is read only as hom(X_b, Y_b) for object
    families X and Y and a root b of the plan, so a FunHoms enumerates no
    other hom except through the transports.  ``objects`` lists the family
    ids in order, and ``read`` counts the morphism families read so far,
    which the ``cat limit`` morphism cap bounds."""

    def __init__(self, plan: FamilyPlan, fiber, obj, mor, caps: SizeCaps):
        families = list(plan.families(lambda b: fiber[b].objects, obj))
        caps.check_objects("cat limit", len(families))
        self.plan, self.fiber, self.mor, self.caps = plan, fiber, mor, caps
        self.obj_family = {_family_obj_id(fam): fam for fam in families}
        self.objects = sorted(self.obj_family)
        self.read = 0


def limit_hom(lim: LimitReader, xid: str, yid: str) -> Iterator[dict[str, str]]:
    """The morphism families from the object family xid to yid, enumerated
    afresh on each call; each one read counts against the morphism cap."""
    X, Y = lim.obj_family[xid], lim.obj_family[yid]
    fiber = lim.fiber
    for fam in lim.plan.families(lambda b: fiber[b].hom(X[b], Y[b]), lim.mor):
        lim.read += 1
        lim.caps.check_morphisms("cat limit", lim.read)
        yield fam


def _assemble(lim: LimitReader, check: bool = True):
    """The limit category, hom by hom in the order of ``lim.objects``, with
    its object and morphism families.  Its composites are componentwise,
    each fiber composing through its ``compose`` (a FinCat's table lookup,
    or a FunHoms's componentwise composite, memoised on it), each computed
    when the category is built; its identities are the families of
    identities (``is_identity``); check is build_category's."""
    B, ids = lim.plan.base, lim.objects
    # a hom's payload is its family as a tuple over B.objects
    homs = []
    mor_family: dict[str, dict[str, str]] = {}
    for xid in ids:
        for yid in ids:
            for fam in limit_hom(lim, xid, yid):
                mid = _family_mor_id(fam)
                homs.append((mid, xid, yid, tuple(fam[b] for b in B.objects)))
                mor_family[mid] = fam
    fibers = [lim.fiber[b] for b in B.objects]
    composes = [C.compose for C in fibers]
    cat = build_category(
        ids, homs,
        lambda t2, t1: tuple([c(g, f) for c, g, f in zip(composes, t2, t1)]),
        lambda t: all(C.is_identity(x) for C, x in zip(fibers, t)),
        check=check)
    return cat, lim.obj_family, mor_family


def cat_limit(F: CatDiagram, caps: SizeCaps = DEFAULT_CAPS) -> CatLimitResult:
    """Strictly compatible families of objects and morphisms, componentwise."""
    B = F.base.cat
    T = F.transition
    cat, obj_family, mor_family = _assemble(LimitReader(
        FamilyPlan(B), F.fiber,
        lambda phi, x: T[phi].obj(x), lambda phi, m: T[phi].mor(m), caps))
    return CatLimitResult(cat, obj_family, mor_family,
                          {b: F.fiber[b] for b in B.objects})


def marked_cat_limit(F: MarkedCatDiagram,
                     caps: SizeCaps = DEFAULT_CAPS) -> tuple[MarkedFinCat, CatLimitResult]:
    """cat_limit of the underlying diagram; a morphism is marked iff every
    projection marks it."""
    res = cat_limit(F.underlying, caps)
    B = F.base.cat
    marked = frozenset(
        mid for mid, fam in res.mor_family.items()
        if all(fam[b] in F.fiber[b].marked for b in B.objects)
    )
    return MarkedFinCat(res.cat, marked), res


# -- whiskering ----------------------------------------------------------------------


def _whiskerable(src: dict[str, Functor], dst: dict[str, Functor],
                 pre: Functor, post: Functor) -> None:
    """Raise unless the functors src go pre.cod -> post.dom and the functors
    dst pre.dom -> post.cod (the functors of a functor category share their
    domain and codomain), which the whiskering proofs need."""
    for functors, dom, cod in ((src, pre.cod, post.dom), (dst, pre.dom, post.cod)):
        G = next(iter(functors.values()), None)
        if G is not None and not (G.dom.same_table(dom) and G.cod.same_table(cod)):
            raise MalformedTable("functor category does not fit the whiskering")


class _Whiskering:
    """G |-> post . G . pre from the functors src to the functors dst, and a
    transformation a of src (hom: id -> (id, source, target, components)) to
    the one with the components post(a_{pre x}) (``components``), found by
    lookup on (endpoints, components).  Each image is computed on its first
    request.  An object image outside dst raises KeyError; a missing
    transformation, which a full functor category cannot lack, raises
    InvariantViolation."""

    def __init__(self, src: dict[str, Functor], hom, dst: dict[str, Functor],
                 lookup, pre: Functor, post: Functor):
        _whiskerable(src, dst, pre, post)
        self.src, self.hom, self.dst, self.lookup = src, hom, dst, lookup
        self.pre, self.post = pre, post
        # what the image's key reads (functor_key): the objects, and the
        # non-identity morphisms, of pre.dom
        objs, mors = pre.dom.key_layout()
        self.objs = [(x, pre.obj(x)) for x in objs]
        self.mors = [(m, pre.mor(m)) for m in mors]
        at = {x: i for i, x in enumerate(pre.cod.objects)}
        self.idx = [at[y] for _, y in self.objs]
        self.omap: dict[str, str] = {}
        self.mmap: dict[str, str] = {}

    def obj(self, gid: str) -> str:
        try:
            return self.omap[gid]
        except KeyError:
            pass
        G = self.src[gid]
        go, gm = G.object_map, G.morphism_map
        po, pm = self.post.object_map, self.post.morphism_map
        hid = functor_key(self.pre.dom, {x: po[go[y]] for x, y in self.objs},
                          {m: pm[gm[n]] for m, n in self.mors})
        if hid not in self.dst:
            raise KeyError(hid)
        self.omap[gid] = hid
        return hid

    def components(self, comps) -> tuple[str, ...]:
        """post(a_{pre x}) over the objects x of pre.dom, for the components
        comps of a over the objects of pre.cod."""
        pm = self.post.morphism_map
        return tuple([pm[comps[i]] for i in self.idx])

    def mor(self, nid: str) -> str:
        try:
            return self.mmap[nid]
        except KeyError:
            pass
        _, s, t, comps = self.hom[nid]
        key = (self.obj(s), self.obj(t), self.components(comps))
        try:
            h = self.mmap[nid] = self.lookup(key)
        except KeyError:
            raise InvariantViolation(f"whiskering: {nid} has no image") from None
        return h


# -- the end formula -------------------------------------------------------------------


def end_reader(pre: CatDiagram, plan: FamilyPlan, fun: dict[str, FunHoms],
               post: dict[str, Functor],
               caps: SizeCaps = DEFAULT_CAPS) -> LimitReader:
    """The limit over opposite(Tw) of f |-> Fun†(pre(f), D_f), where Tw is
    pre's base, plan is FamilyPlan(opposite(Tw)), and fun[f] lists the
    marked functors pre(f) -> D_f (marked_functor_homs) into a flat-marked
    D_f; the transition along m: f -> f2 of Tw whiskers G to
    post(m) . G . pre(m).  This is the end formula of lax_limit and of the
    probe check, and it builds no fiber whole.  A caller that reads several
    ends over one Tw passes them one plan.

    A hom of transformations is read only as hom(X_b, Y_b) for object
    families X, Y (see LimitReader): as a candidate list at a root b of the
    plan, or through the transport into b.  So fun[f] enumerates no other
    hom.
    Objects are transported by their whiskered key, and a transformation by
    its component tuple, looked up in the target fiber (see _Whiskering);
    each is computed on its first request.

    The transitions form a diagram, so nothing checks them beyond pre, a
    CatDiagram checked when made.  Each is a functor, transformations
    composing componentwise, and lands in Fun† when pre(m) is marked and
    post(m) sends isomorphisms to isomorphisms; an image outside fun[f] raises
    InvariantViolation.  At an identity m, pre(m) and post(m) are
    identities, so the transition is one.  Along m2 m1 the transition sends
    G to post(m1) post(m2) G pre(m2) pre(m1), the composite of the
    transitions along m1 and m2 of opposite(Tw), since pre is a functor
    Tw -> Cat and post is contravariant: post(m2 m1) = post(m1) post(m2),
    with identities at identities.  The caller gives such a post (the
    transitions of a CatDiagram along the second leg, or identities).

    So the limit is a category by construction (end_limit assembles it).

    Returns the limit's reader: its object families, each hom read on
    request by limit_hom."""
    tw = pre.base.cat
    whisker = {m.name: _Whiskering(fun[m.tgt].functors, fun[m.tgt].hom_of,
                                   fun[m.src].functors, fun[m.src].find,
                                   pre.transition[m.name], post[m.name])
               for m in tw.morphisms if not tw.is_identity(m.name)}

    def obj(phi: str, gid: str) -> str:
        W = whisker.get(phi)
        if W is None:
            return gid
        try:
            return W.obj(gid)
        except KeyError:
            raise InvariantViolation(
                f"end_limit: {gid} leaves Fun† along {phi}") from None

    def mor(phi: str, nid: str) -> str:
        W = whisker.get(phi)
        return nid if W is None else W.mor(nid)

    return LimitReader(plan, fun, obj, mor, caps)


def end_limit(pre: CatDiagram, plan: FamilyPlan, fun: dict[str, FunHoms],
              post: dict[str, Functor], caps: SizeCaps = DEFAULT_CAPS):
    """The end_reader limit as a category, every hom read.  Its table is
    built unchecked: the composite of two families is a family, as every
    transition preserves composites, and units and associativity hold
    componentwise, where composition is that of D_f componentwise.

    Returns the limit category and its object and morphism families."""
    return _assemble(end_reader(pre, plan, fun, post, caps), check=False)


# -- lax and oplax limits --------------------------------------------------------------


@dataclass
class LaxLimitResult:
    cat: FinCat
    projections: dict[str, Functor]  # base object i -> evaluation to F(i)


def lax_limit(F: CatDiagram, caps: SizeCaps = DEFAULT_CAPS) -> LaxLimitResult:
    """Partially lax limit via the end formula over the twisted arrow category:
    the limit, over opposite(Tw(I)), of the marked functors from the marked
    slice over s into the flat-marked fiber at t, for f: s -> t (end_limit).
    The projection to F(i) evaluates the component at id_i at id_i."""
    Im = F.base
    I = Im.cat
    tw = twisted_arrow(I, caps)
    slices = {i: slice_cat(Im, i) for i in I.objects}
    # slice_transition keeps each morphism's witness, so it is marked
    pre = CatDiagram(
        flat_marking(tw.cat),
        {f: slices[I.src(f)].cat for f in tw.cat.objects},
        {m.name: slice_transition(Im, slices[I.src(m.src)], slices[I.src(m.tgt)],
                                  tw.legs[m.name][0])
         for m in tw.cat.morphisms})
    # Fun†(slice over s, flat F(t)) once per (s, t), enumerated whole, so
    # that the Fun† cap bounds each functor category of lax_limit whole
    # (the golden digest pins such cap hits at tight caps)
    made: dict[tuple[str, str], FunHoms] = {}
    fun = {}
    for f in tw.cat.objects:
        s, t = I.src(f), I.tgt(f)
        if (s, t) not in made:
            made[s, t] = marked_functor_homs(
                slices[s].marked, flat_marking(F.fiber[t]), caps)
            made[s, t].every_hom()
        fun[f] = made[s, t]
    cat, obj_family, mor_family = end_limit(
        pre, FamilyPlan(opposite_cat(tw.cat)), fun,
        {name: F.transition[b] for name, (_, b) in tw.legs.items()}, caps)

    projections = {}
    for i in I.objects:
        idf = I.identity[i]
        H = fun[idf]
        k = H.dom.objects.index(idf)
        P = Functor(
            cat, F.fiber[i],
            {xid: H.functors[fam[idf]].obj(idf) for xid, fam in obj_family.items()},
            {mid: H.hom_of[fam[idf]][3][k] for mid, fam in mor_family.items()},
        )
        P.validate()
        projections[i] = P
    return LaxLimitResult(cat, projections)


def oplax_limit(F: CatDiagram, caps: SizeCaps = DEFAULT_CAPS) -> LaxLimitResult:
    """Oplax limit: the opposite of the lax limit of the fiberwise-opposite
    diagram (same marked base)."""
    R = lax_limit(fiberwise_op(F), caps)
    cat = opposite_cat(R.cat)
    projections = {
        i: opposite_functor(R.projections[i], dom_op=cat, cod_op=F.fiber[i])
        for i in R.projections
    }
    return LaxLimitResult(cat, projections)


# -- pseudo-limit oracle for cospans ------------------------------------------------


def iso_comma(g: Functor, h: Functor, caps: SizeCaps = DEFAULT_CAPS) -> FinCat:
    """Objects (a, c, beta: g(a) ~ h(c)); morphisms are pairs commuting with
    the betas.  Independent oracle for pseudo-limits of cospans."""
    if not g.cod.same_table(h.cod):
        raise ValueError("iso_comma: codomains differ")
    A, C, B = g.dom, h.dom, g.cod
    objects = []
    data: dict[str, tuple[str, str, str]] = {}
    for a in A.objects:
        for c in C.objects:
            for beta in B.hom(g.obj(a), h.obj(c)):
                if not is_iso(B, beta):
                    continue
                oid = short_id(f"({a}|{c}|{beta})")
                objects.append(oid)
                data[oid] = (a, c, beta)
    caps.check_objects("iso comma", len(objects))
    homs = []
    for o1 in objects:
        a1, c1, b1 = data[o1]
        for o2 in objects:
            a2, c2, b2 = data[o2]
            for m in A.hom(a1, a2):
                for n in C.hom(c1, c2):
                    if B.compose(b2, g.mor(m)) == B.compose(h.mor(n), b1):
                        homs.append((short_id(f"({m}|{n}):{o1}>{o2}"),
                                     o1, o2, (m, n)))
    caps.check_morphisms("iso comma", len(homs))
    return build_category(
        objects, homs,
        lambda mn2, mn1: (A.compose(mn2[0], mn1[0]), C.compose(mn2[1], mn1[1])),
        lambda mn: A.is_identity(mn[0]) and C.is_identity(mn[1]))


# -- induced maps on limits (fully-faithful lemma support) ----------------------------


def cat_limit_map(eta: dict[str, Functor], lim0: CatLimitResult,
                  lim1: CatLimitResult) -> Functor:
    """The induced functor lim(F0) -> lim(F1) along a componentwise natural
    transformation eta (strictly commuting with transitions)."""
    omap = {}
    for xid, fam in lim0.obj_family.items():
        omap[xid] = _family_obj_id({b: eta[b].obj(x) for b, x in fam.items()})
    mmap = {}
    for mid, fam in lim0.mor_family.items():
        mmap[mid] = _family_mor_id({b: eta[b].mor(m) for b, m in fam.items()})
    F = Functor(lim0.cat, lim1.cat, omap, mmap)
    F.validate()
    return F
