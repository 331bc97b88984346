"""Covariant and contravariant Grothendieck constructions with induced markings.

The cartesian construction is derived from the cocartesian one via opposites,
so exactly one construction bears the correctness burden.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    FinCat,
    Functor,
    MarkedFinCat,
    build_category,
    is_iso,
    opposite,
    opposite_functor,
    pair_id,
    short_id,
    subcategory,
)
from .constructions import (
    DEFAULT_CAPS,
    FunCat,
    FunHoms,
    SizeCaps,
    enumerate_functors,
)
from .diagrams import CatDiagram, fiberwise_op


def total_mor_id(phi: str, f: str, x: str) -> str:
    return short_id(f"({phi}|{f}|{x})")


@dataclass
class FiberedCat:
    """A total category fibered over a marked base.

    A morphism is marked iff its fiber component is invertible (the strict
    (co)cartesian condition) and it lies over a marked base morphism.
    """

    total: MarkedFinCat
    proj: Functor  # to base (cocartesian) or to opposite(base) (cartesian)
    base_marked: MarkedFinCat  # the marked category proj lands in
    flavor: str  # "cocartesian" | "cartesian"
    obj_part: dict[str, tuple[str, str]]  # total object -> (base obj, fiber obj)
    fiber_part: dict[str, tuple[str, str]]  # total morphism -> (base mor, fiber mor)
    fiber_of: dict[str, FinCat]  # base obj -> fiber category (from the diagram)


def grothendieck_cocart(F: CatDiagram, caps: SizeCaps = DEFAULT_CAPS) -> FiberedCat:
    """Total category of pairs (i, x); morphisms (phi: i -> j, f: F(phi)x -> y)."""
    Im = F.base
    I = Im.cat
    objects: list[str] = []
    obj_part: dict[str, tuple[str, str]] = {}
    for i in I.objects:
        for x in F.fiber[i].objects:
            oid = pair_id(i, x)
            objects.append(oid)
            obj_part[oid] = (i, x)
    caps.check_objects("grothendieck total", len(objects))

    homs = []
    for phi in I.morphisms:
        T = F.transition[phi.name]
        Fj = F.fiber[phi.tgt]
        for x in F.fiber[phi.src].objects:
            fx = T.obj(x)
            for f in Fj.morphisms:
                if Fj.src(f.name) != fx:
                    continue
                homs.append((total_mor_id(phi.name, f.name, x),
                             pair_id(phi.src, x),
                             pair_id(phi.tgt, f.tgt),
                             (phi.name, f.name)))
    caps.check_morphisms("grothendieck total", len(homs))

    def compose(second, first):
        (psi, g), (phi, f) = second, first
        return (I.compose(psi, phi),
                F.fiber[I.tgt(psi)].compose(g, F.transition[psi].mor(f)))

    def is_identity(pf):
        return I.is_identity(pf[0]) and F.fiber[I.tgt(pf[0])].is_identity(pf[1])

    cat = build_category(objects, homs, compose, is_identity)
    fiber_part = {name: pf for name, _, _, pf in homs}

    marked = frozenset(
        mid for mid, (phi, f) in fiber_part.items()
        if phi in Im.marked and is_iso(F.fiber[I.tgt(phi)], f)
    )
    total = MarkedFinCat(cat, marked)
    proj = Functor(
        cat, I,
        {o: obj_part[o][0] for o in objects},
        {name: pf[0] for name, pf in fiber_part.items()},
    )
    proj.validate()
    return FiberedCat(total, proj, Im, "cocartesian", obj_part, fiber_part,
                      dict(F.fiber))


def grothendieck_cart(F: CatDiagram, caps: SizeCaps = DEFAULT_CAPS) -> FiberedCat:
    """Cartesian fibration over opposite(I): the opposite of the cocartesian
    construction applied to the fiberwise-opposite diagram."""
    E = grothendieck_cocart(fiberwise_op(F), caps)
    total = opposite(E.total)
    base_op = opposite(F.base)
    proj = opposite_functor(E.proj, dom_op=total.cat, cod_op=base_op.cat)
    proj.validate()
    return FiberedCat(total, proj, base_op, "cartesian", E.obj_part,
                      E.fiber_part, E.fiber_of)


def is_cocartesian(E: FiberedCat, m: str) -> bool:
    """Strict model: true iff the fiber component of m is an isomorphism.

    For the cartesian flavor this detects cartesian morphisms (the fiber
    components live in the opposite fibers, where invertibility agrees).
    """
    E.total.cat.mor(m)
    phi, f = E.fiber_part[m]
    return is_iso(E.fiber_of[_transition_target(E, phi)], f)


def _transition_target(E: FiberedCat, phi: str) -> str:
    # fiber components of a morphism over phi live in the fiber at tgt(phi),
    # measured in the cocartesian presentation
    if E.flavor == "cocartesian":
        return E.base_marked.cat.tgt(phi)
    return E.base_marked.cat.src(phi)  # base is opposite(I); src here = tgt in I


def strict_fiber(E: FiberedCat, i: str) -> FinCat:
    """The subcategory of the total category over id_i; isomorphic to F(i)."""
    C = E.total.cat
    base = E.base_marked.cat
    objs = [o for o, (j, _) in E.obj_part.items() if j == i]
    ms = [m for m in C.morphisms
          if E.fiber_part[m.name][0] == base.identity[i]]
    return subcategory(C, objs, ms)


# -- sections --------------------------------------------------------------------


def marked_sections(E: FiberedCat, caps: SizeCaps = DEFAULT_CAPS,
                    require_marked: bool = True) -> FunCat:
    """Strict sections of proj that send marked base morphisms into the
    induced marking; morphisms are vertical natural transformations."""
    base = E.base_marked
    total = E.total

    def obj_ok(i: str, e: str) -> bool:
        return E.proj.obj(e) == i

    def gen_ok(g: str, d: str) -> bool:
        return E.proj.mor(d) == g

    sections = []
    for s in enumerate_functors(base.cat, total.cat, obj_filter=obj_ok,
                                gen_filter=gen_ok,
                                max_candidates=caps.max_candidates):
        # generators lie over themselves, hence so do all composites
        if require_marked and not s.is_marked(base.marked, total.marked):
            continue
        sections.append(s)

    # morphisms are the vertical transformations: components over identities
    idents = base.cat.identity
    return FunHoms(base.cat, sections, total.cat, "section category", caps,
                   lambda x, c: E.proj.mor(c) == idents[x]).category(check=True)


def all_sections(E: FiberedCat, caps: SizeCaps = DEFAULT_CAPS) -> FunCat:
    """The unmarked section category (as over a flat base)."""
    return marked_sections(E, caps, require_marked=False)


# -- pullbacks -------------------------------------------------------------------


def pullback_fibered(t: Functor, t_marked: MarkedFinCat, E: FiberedCat,
                     caps: SizeCaps = DEFAULT_CAPS) -> FiberedCat:
    """The strict pullback I x_J (total E) with the pullback marking.

    t: I -> J must be a marked functor from t_marked into E.base_marked.
    """
    if E.flavor != "cocartesian":
        raise ValueError("pullback_fibered expects a cocartesian FiberedCat")
    Im = t_marked
    I = Im.cat
    T = E.total.cat
    if not t.is_marked(Im.marked, E.base_marked.marked):
        raise ValueError("t is not a marked functor")

    # ids follow the (base | fiber-component) scheme of grothendieck_cocart so
    # the guaranteed isomorphism with grothendieck_cocart(F∘t) is literal
    objects: list[str] = []
    obj_part: dict[str, tuple[str, str]] = {}
    pair_oid: dict[tuple[str, str], str] = {}
    for i in I.objects:
        for e, (j, x) in E.obj_part.items():
            if j == t.obj(i):
                oid = pair_id(i, x)
                objects.append(oid)
                obj_part[oid] = (i, x)
                pair_oid[(i, e)] = oid
    caps.check_objects("pullback total", len(objects))

    def mor_id(phi: str, m: str) -> str:
        return total_mor_id(phi, E.fiber_part[m][1],
                            E.obj_part[T.src(m)][1])

    homs = []
    for phi in I.morphisms:
        for m in T.morphisms:
            if E.proj.mor(m.name) == t.mor(phi.name):
                homs.append((mor_id(phi.name, m.name),
                             pair_oid[(phi.src, m.src)],
                             pair_oid[(phi.tgt, m.tgt)],
                             (phi.name, m.name)))
    caps.check_morphisms("pullback total", len(homs))
    cat = build_category(
        objects, homs,
        lambda q2, q1: (I.compose(q2[0], q1[0]), T.compose(q2[1], q1[1])),
        lambda q: I.is_identity(q[0]) and T.is_identity(q[1]))
    parts = {name: q for name, _, _, q in homs}
    marked = frozenset(
        mid for mid, (phi, m) in parts.items()
        if phi in Im.marked and m in E.total.marked
    )
    total = MarkedFinCat(cat, marked)
    proj = Functor(cat, I,
                   {o: obj_part[o][0] for o in objects},
                   {name: q[0] for name, q in parts.items()})
    proj.validate()
    # fiber components transport from E so cocartesian detection still works
    fiber_part = {mid: (phi, E.fiber_part[m][1]) for mid, (phi, m) in parts.items()}
    fiber_of = {i: E.fiber_of[t.obj(i)] for i in I.objects}
    return FiberedCat(total, proj, Im, "cocartesian", obj_part, fiber_part,
                      fiber_of)
