"""Ordinary, partially lax, and oplax limits.

Lax limits are computed by the end formula: a limit over the opposite of the
twisted arrow category of the diagram sending an arrow f: s -> t to the
category of marked functors from the marked slice over s into the flat-marked
fiber at t.  The oplax variant is obtained from the lax one by fiberwise
opposites, so a single implementation carries the correctness burden.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    FinCat,
    Functor,
    MarkedFinCat,
    _by_construction,
    build_category,
    compose_functors,
    flat_marking,
    is_iso,
    opposite_cat,
    opposite_functor,
    short_id,
)
from .constructions import (
    DEFAULT_CAPS,
    FunCat,
    SizeCaps,
    marked_functor_category,
    slice_cat,
    slice_transition,
    twisted_arrow,
)
from .diagrams import CatDiagram, MarkedCatDiagram, SetDiagram, fiberwise_op
from .errors import InvariantViolation, MalformedTable


# -- set-valued (co)limits -------------------------------------------------------


def set_limit(F: SetDiagram) -> list[tuple]:
    """Compatible families, as tuples ordered by base object id."""
    B = F.base
    objs = list(B.objects)
    out = []
    for combo in itertools.product(*(F.values[x] for x in objs)):
        at = dict(zip(objs, combo))
        if all(
            F.action[m.name][at[m.src]] == at[m.tgt] for m in B.morphisms
        ):
            out.append(combo)
    return out


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


def _enumerate_families(B: FinCat, candidates, force):
    """All families (b -> value) with force(phi, value at src) == value at tgt.

    candidates(b) lists values; force(phi, v) transports along phi.  Uses
    forward constraint propagation: assigning b forces every target of a
    morphism out of b.
    """
    objs = sorted(B.objects, key=lambda b: len(candidates(b)))
    out_mor: dict[str, list] = {b: [] for b in B.objects}
    for m in B.morphisms:
        out_mor[m.src].append(m)

    def rec(assigned: dict):
        pending = [b for b in objs if b not in assigned]
        if not pending:
            yield dict(assigned)
            return
        b = pending[0]
        for v in candidates(b):
            new = {b: v}
            queue = [(b, v)]
            ok = True
            while queue and ok:
                cur, val = queue.pop()
                for m in out_mor[cur]:
                    w = force(m.name, val)
                    have = assigned.get(m.tgt, new.get(m.tgt))
                    if have is None:
                        new[m.tgt] = w
                        queue.append((m.tgt, w))
                    elif have != w:
                        ok = False
                        break
            if not ok:
                continue
            # morphisms out of previously assigned objects into newly forced
            # ones were already propagated when their source was assigned
            assigned.update(new)
            yield from rec(assigned)
            for k in new:
                del assigned[k]

    yield from rec({})


@dataclass
class CatLimitResult:
    cat: FinCat
    projections: dict[str, Functor]  # base object -> evaluation functor
    obj_family: dict[str, dict[str, str]]
    mor_family: dict[str, dict[str, str]]


def cat_limit(F: CatDiagram, caps: SizeCaps = DEFAULT_CAPS) -> CatLimitResult:
    """Strictly compatible families of objects and morphisms, componentwise."""
    B = F.base.cat

    obj_families = list(_enumerate_families(
        B,
        lambda b: list(F.fiber[b].objects),
        lambda phi, x: F.transition[phi].obj(x),
    ))
    caps.check_objects("cat limit", len(obj_families))
    obj_family = {_family_obj_id(fam): fam for fam in obj_families}
    ids = sorted(obj_family)

    # a hom's payload is its family as a tuple over B.objects
    homs = []
    mor_family: dict[str, dict[str, str]] = {}
    for xid in ids:
        X = obj_family[xid]
        for yid in ids:
            Y = obj_family[yid]
            for fam in _enumerate_families(
                B,
                lambda b: F.fiber[b].hom(X[b], Y[b]),
                lambda phi, m: F.transition[phi].mor(m),
            ):
                mid = _family_mor_id(fam)
                homs.append((mid, xid, yid, tuple(fam[b] for b in B.objects)))
                mor_family[mid] = fam
                caps.check_morphisms("cat limit", len(homs))
    fibers = [F.fiber[b] for b in B.objects]
    tables = [C.comp for C in fibers]
    cat = build_category(
        ids, homs,
        lambda t2, t1: tuple(map(dict.__getitem__, tables, zip(t2, t1))),
        lambda t: all(C.is_identity(x) for C, x in zip(fibers, t)))
    projections = {}
    for b in B.objects:
        P = Functor(
            cat, F.fiber[b],
            {xid: obj_family[xid][b] for xid in ids},
            {mid: fam[b] for mid, fam in mor_family.items()},
        )
        P.validate()
        projections[b] = P
    return CatLimitResult(cat, projections, obj_family, mor_family)


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


# -- helpers on functor categories ---------------------------------------------------


def _land_in(fc: FunCat, B: FinCat) -> None:
    """Raise unless fc's functors, which share one codomain, land in B."""
    if fc.functors and not next(iter(fc.functors.values())).cod.same_table(B):
        raise MalformedTable("functor category lands outside the codomain")


def whisker_functor(src_fc: FunCat, dst_fc: FunCat,
                    pre: Functor, post: Functor) -> Functor:
    """Fun(A', B') -> Fun(A, B) by G |-> post . G . pre, for pre: A -> A' and
    a functor post: B' -> B.

    A transformation a goes to the one between the endpoint images with the
    components post(a_{pre x}), computed from a's component tuple and looked
    up by endpoints and components in dst_fc's table.  An object image outside
    dst_fc raises KeyError; a missing transformation, which a full functor
    category cannot lack, raises InvariantViolation.

    A functor by construction, as composition in a functor category is
    componentwise: the image of b a has the components
    post(b_{pre x} a_{pre x}) = post(b_{pre x}) post(a_{pre x}), those of the
    composite of the images.  So validate checks only objects, endpoints and
    identities; a caller other than a CatDiagram constructor must call it."""
    _land_in(dst_fc, post.cod)
    omap = {}
    for gid, G in src_fc.functors.items():
        hid = compose_functors(post, compose_functors(G, pre)).key()
        if hid not in dst_fc.functors:
            raise KeyError(hid)
        omap[gid] = hid
    at = {x: i for i, x in enumerate(pre.cod.objects)}
    idx = [at[pre.obj(x)] for x in pre.dom.objects]
    pmor, image = post.morphism_map, dst_fc.cat.comp.index
    mmap = {}
    for nid, s, t, comps in src_fc.cat.comp.hom.values():
        key = (omap[s], omap[t], tuple([pmor[comps[i]] for i in idx]))
        try:
            mmap[nid] = image[key]
        except KeyError:
            raise InvariantViolation(
                f"whisker_functor: {nid} has no image") from None
    return _by_construction(Functor(src_fc.cat, dst_fc.cat, omap, mmap))


def evaluation_functor(fc: FunCat, at_obj: str, codomain: FinCat) -> Functor:
    """Fun(A, B) -> B evaluating at a fixed object x of A; codomain is B.
    A functor by construction, as (b a)_x = b_x a_x in B, so validate checks
    only objects, endpoints and identities."""
    _land_in(fc, codomain)
    omap = {gid: G.obj(at_obj) for gid, G in fc.functors.items()}
    mmap = {nid: a.at(at_obj) for nid, a in fc.transformations.items()}
    F = _by_construction(Functor(fc.cat, codomain, omap, mmap))
    F.validate()
    return F


# -- lax and oplax limits --------------------------------------------------------------


@dataclass
class LaxLimitResult:
    cat: FinCat
    projections: dict[str, Functor]  # base object i -> evaluation to F(i)


def lax_limit(F: CatDiagram, caps: SizeCaps = DEFAULT_CAPS) -> LaxLimitResult:
    """Partially lax limit via the end formula over the twisted arrow category."""
    Im = F.base
    I = Im.cat
    tw = twisted_arrow(I, caps)
    slices = {i: slice_cat(Im, i) for i in I.objects}

    # Q(f: s -> t) = marked functors from the marked slice over s into the
    # flat-marked fiber at t; contravariant on Tw(I), so the limit diagram
    # lives over opposite(Tw(I)).
    funcats: dict[str, FunCat] = {}
    for f in tw.cat.objects:
        s, t = I.src(f), I.tgt(f)
        funcats[f] = marked_functor_category(
            slices[s].marked, flat_marking(F.fiber[t]), caps)

    transitions: dict[str, Functor] = {}
    for m in tw.cat.morphisms:
        a, b = tw.legs[m.name]
        f, f2 = m.src, m.tgt  # twisted arrow: f -> f2 in Tw(I)
        s, s2 = I.src(f), I.src(f2)
        pre = slice_transition(Im, slices[s], slices[s2], a)
        post = F.transition[b]
        transitions[m.name] = whisker_functor(funcats[f2], funcats[f], pre, post)

    diagram = CatDiagram(
        flat_marking(opposite_cat(tw.cat)),
        {f: funcats[f].cat for f in tw.cat.objects},
        transitions,
    )
    res = cat_limit(diagram, caps)

    projections = {}
    for i in I.objects:
        idf = I.identity[i]
        ev = evaluation_functor(funcats[idf], idf, F.fiber[i])
        projections[i] = compose_functors(ev, res.projections[idf])
        projections[i].validate()
    return LaxLimitResult(res.cat, projections)


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
