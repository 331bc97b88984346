"""Seeded theorem checks with counterexample dumps.

Each check is a ``Check`` record: it draws a random instance, decides a
comparison whose two sides are computed independently, and reports
pass/fail/skip per instance.  Skips come only from resource bounds, never
from falsified comparisons, and a bound is never reported as a failure: a
decision that stops at a bound raises one of ``errors.BOUND_ERRORS``.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Callable

from .core import (
    FinCat,
    Functor,
    MarkedFinCat,
    Mor,
    _product_functor,
    chain_cat,
    discrete_cat,
    fincat,
    flat_marking,
    pair_id,
    parallel_pair,
    product,
    saturate_marking,
    sharp_marking,
    subcategory,
    terminal_cat,
    walking_iso,
)
from .constructions import SizeCaps, enumerate_functors, twisted_arrow
from .diagrams import CatDiagram, MarkedCatDiagram, SetDiagram, restrict_set_diagram
from .equiv import is_equivalent, is_fully_faithful, iso_classes
from .errors import (
    BOUND_ERRORS,
    InvalidDiagram,
    InvariantViolation,
    LaxcatError,
    MalformedTable,
    SizeBoundExceeded,
)
from .generator import GenParams, gen_category, gen_diagram, gen_marking, gen_set_diagram
from .grothendieck import (
    all_sections,
    grothendieck_cart,
    grothendieck_cocart,
    marked_sections,
    pullback_fibered,
)
from .io_formats import canonical_json, category_to_data, diagram_from_data, diagram_to_data
from .limits import (
    _family_mor_id,
    _family_obj_id,
    cat_limit,
    cat_limit_map,
    iso_comma,
    lax_limit,
    marked_cat_limit,
    oplax_limit,
    set_colimit,
    set_limit,
)
from .localization import Bounds, _mapping_out, _up_failure, localize


def _nonposet5() -> FinCat:
    # two objects, a non-identity idempotent, and a parallel pair through it
    ms = [Mor("id_0", "0", "0"), Mor("id_1", "1", "1"), Mor("e", "0", "0"),
          Mor("u", "0", "1"), Mor("v", "0", "1")]
    comp = {("e", "e"): "e", ("u", "e"): "u", ("v", "e"): "v"}
    for n in ("e", "u", "v"):
        comp[(n, "id_0")] = n
    comp[("id_1", "u")] = "u"
    comp[("id_1", "v")] = "v"
    comp[("id_0", "e")] = "e"
    comp[("id_0", "id_0")] = "id_0"
    comp[("id_1", "id_1")] = "id_1"
    return fincat(["0", "1"], ms, {"0": "id_0", "1": "id_1"}, comp)


def probe_suite() -> dict[str, FinCat]:
    return {
        "terminal": terminal_cat(),
        "discrete2": discrete_cat(["a", "b"]),
        "arrow": chain_cat(1),
        "iso": walking_iso(),
        "chain2": chain_cat(2),
        "parallel": parallel_pair(),
        "nonposet5": _nonposet5(),
    }


def _cospan_cat() -> FinCat:
    ms = [Mor("id_a", "a", "a"), Mor("id_b", "b", "b"), Mor("id_c", "c", "c"),
          Mor("f", "a", "c"), Mor("g", "b", "c")]
    comp = {("id_c", "f"): "f", ("f", "id_a"): "f",
            ("id_c", "g"): "g", ("g", "id_b"): "g",
            ("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b",
            ("id_c", "id_c"): "id_c"}
    return fincat(["a", "b", "c"], ms,
                  {"a": "id_a", "b": "id_b", "c": "id_c"}, comp)


# check runs get roomier caps than interactive construction; probe functor
# categories routinely outgrow the 64/512 defaults without being infeasible
CHECK_CAPS = SizeCaps(max_objects=2048, max_morphisms=32768,
                      max_candidates=1_000_000)


@dataclass(frozen=True)
class Ctx:
    caps: SizeCaps = CHECK_CAPS
    bounds: Bounds = field(default_factory=Bounds)
    probes: dict[str, FinCat] = field(default_factory=probe_suite)


@dataclass
class Failure:
    kind: str  # "diagram" | "set-diagram" | "params": what data dumps
    data: dict
    reason: str
    reeval: Callable | None = None  # instance -> True iff the failure persists


def _gen_instance(p: GenParams):
    C = gen_category(p)
    M = gen_marking(C, p)
    return gen_diagram(M, p)


def _sharp_instance(p: GenParams) -> CatDiagram:
    shape = chain_cat(1) if p.seed % 2 == 0 else _cospan_cat()
    return gen_diagram(sharp_marking(shape), p)


def _flat_instance(p: GenParams) -> CatDiagram:
    return gen_diagram(flat_marking(gen_category(p)), p)


def _set_instance(p: GenParams) -> SetDiagram:
    return gen_set_diagram(gen_category(p), p)


def _params(p: GenParams) -> GenParams:
    """The instance of a check whose decision draws its own from p."""
    return p


@dataclass(frozen=True)
class Check:
    """One theorem check: draw makes the instance from the generator
    params, decide returns why the instance fails or None, and dump names
    what a failure records: the diagram, which a failure replay minimizes
    against the same decision, the set-valued diagram, or the params."""

    draw: Callable[[GenParams], object]
    decide: Callable[[object, Ctx], str | None]
    dump: str  # "diagram" | "set-diagram" | "params"

    def __call__(self, p: GenParams, ctx: Ctx):
        x = self.draw(p)
        reason = self.decide(x, ctx)
        if reason is None:
            return "pass", None
        if self.dump == "diagram":
            return "fail", Failure("diagram", diagram_to_data(x), reason,
                                   lambda F: self.decide(F, ctx) is not None)
        if self.dump == "set-diagram":
            data = {"category": category_to_data(x.base),
                    "values": {b: list(v) for b, v in x.values.items()},
                    "action": {m: {str(k): v for k, v in f.items()}
                               for m, f in x.action.items()}}
        else:
            data = {"seed": p.seed}
        return "fail", Failure(self.dump, data, reason)


# -- the decisions: each returns why its instance fails, or None ----------------


def _lax_lim(F: CatDiagram, ctx: Ctx) -> str | None:
    lax = lax_limit(F, ctx.caps)
    secs = marked_sections(grothendieck_cocart(F, ctx.caps), ctx.caps)
    if not is_equivalent(lax.cat, secs.cat):
        return "end-formula lax limit not equivalent to marked sections"
    return None


def _oplax_lim(F: CatDiagram, ctx: Ctx) -> str | None:
    opl = oplax_limit(F, ctx.caps)
    secs = marked_sections(grothendieck_cart(F, ctx.caps), ctx.caps)
    if not is_equivalent(opl.cat, secs.cat):
        return "oplax limit not equivalent to cartesian marked sections"
    return None


def _colim_probe(F: CatDiagram, ctx: Ctx, cartesian: bool) -> str | None:
    """The probe check (probe_check_colimit_theorem: per probe, the comparison
    functor from Fun†(E.total, D♭) to the end is fully faithful and
    essentially surjective) and, when the bounded localization of the total
    category completes, its universal property (_up_failure), on one
    Grothendieck total, which _mapping_out builds and, in the oplax case,
    reduces to the lax one.  Each probe's list of marked functors out of the
    total serves both checks, and no hom between them is read."""
    total, compared = _mapping_out(F, ctx.probes, ctx.caps, cartesian)
    failures = [(name, reason) for name, _, reason in compared
                if reason is not None]
    if failures:
        return f"mapping-out comparison failed: {failures}"
    r = localize(total, ctx.bounds)
    if r.ok:
        failures = []
        for name, side_a, _ in compared:
            reason = _up_failure(total, r, ctx.probes[name], side_a.functors.values())
            if reason is not None:
                failures.append((name, reason))
        if failures:
            return f"localization universal property failed: {failures}"
    return None


def _sharp_collapse(F: CatDiagram, ctx: Ctx) -> str | None:
    """Over the walking arrow the pseudo-limit is the source fiber, and over
    a cospan f, g it is the iso-comma category.  A failure replay deletes
    parts of the base, so any other base is no instance of the proposition
    and raises InvalidDiagram."""
    I = F.base.cat
    arrows = I.nonidentity()
    srcs, tgts = {I.src(m) for m in arrows}, {I.tgt(m) for m in arrows}
    if not (I.n_objects == 2 and len(arrows) == 1 and srcs != tgts
            or I.n_objects == 3 and len(arrows) == 2 and len(srcs) == 2
            and len(tgts) == 1 and not srcs & tgts):
        raise InvalidDiagram("prop-sharp-limit needs the walking arrow or a "
                             f"cospan as its base, not {arrows}")
    lax = lax_limit(F, ctx.caps)
    opl = oplax_limit(F, ctx.caps)
    if len(arrows) == 1:
        oracle = F.fiber[I.src(arrows[0])]
    else:
        f, g = arrows
        oracle = iso_comma(F.transition[f], F.transition[g], ctx.caps)
    if not (is_equivalent(lax.cat, opl.cat) and is_equivalent(lax.cat, oracle)):
        return "sharp lax/oplax limit does not collapse to the pseudo-limit"
    return None


def _ghn_flat(F: CatDiagram, ctx: Ctx) -> str | None:
    """Over a flat base the lax limit is the category of all sections, and
    the total category localizes to itself: the quotient E.total -> L, the
    identity on objects, is then an isomorphism, which holds exactly when it
    is fully faithful.  A localization that stops at a bound raises the
    bound it names: it is never a counterexample."""
    reason = "flat reduction failed (full sections or identity localization)"
    lax = lax_limit(F, ctx.caps)
    E = grothendieck_cocart(F, ctx.caps)
    if not is_equivalent(lax.cat, all_sections(E, ctx.caps).cat):
        return reason
    r = localize(E.total, ctx.bounds)
    if not r.ok:
        b = r.bound
        raise SizeBoundExceeded("localization", b["which"],
                                b.get("at", b["cap"] + 1), b["cap"])
    if not is_fully_faithful(r.quotient):
        return reason
    return None


def _cofinal_left(S: SetDiagram, ctx: Ctx) -> str | None:
    tw = twisted_arrow(S.base, ctx.caps)
    R = restrict_set_diagram(S, tw.proj_src)
    cls_s = set_colimit(S)
    cls_r = set_colimit(R)
    reason = "left cofinality of the twisted-arrow projection failed"
    # the projection must induce a well-defined bijection on colimit classes
    induced: dict[int, int] = {}
    for (f, e), c in cls_r.items():
        target = cls_s[(tw.proj_src.obj(f), e)]
        if induced.setdefault(c, target) != target:
            return reason
    if len(induced) != len(set(cls_s.values())) \
            or len(set(induced.values())) != len(induced):
        return reason
    return None


def _cofinal_right(S: SetDiagram, ctx: Ctx) -> str | None:
    tw = twisted_arrow(S.base, ctx.caps)
    R = restrict_set_diagram(S, tw.proj_src)
    lim_s = set_limit(S)
    lim_r = set_limit(R)
    objs_s = sorted(S.base.objects)
    objs_r = sorted(tw.cat.objects)
    restricted = set()
    for fam in lim_s:
        by_obj = dict(zip(objs_s, fam))
        restricted.add(tuple(by_obj[tw.proj_src.obj(f)] for f in objs_r))
    if len(restricted) != len(lim_s) or restricted != set(map(tuple, lim_r)):
        return "right cofinality of the twisted-arrow projection failed"
    return None


def _gen_marked_diagram(M: MarkedFinCat, p: GenParams) -> MarkedCatDiagram:
    F = gen_diagram(M, p)
    rng = random.Random(("fibmark", p.seed).__repr__())
    I = F.base.cat
    picks = {x: {m.name for m in F.fiber[x].morphisms
                 if rng.random() < p.marking_density}
             for x in I.objects}
    changed = True
    while changed:
        changed = False
        for x in I.objects:
            sat = saturate_marking(F.fiber[x], frozenset(picks[x]))
            if sat - picks[x]:
                picks[x] |= sat
                changed = True
        for m in I.morphisms:
            T = F.transition[m.name]
            img = {T.mor(f) for f in picks[m.src]}
            if img - picks[m.tgt]:
                picks[m.tgt] |= img
                changed = True
    fibers = {x: MarkedFinCat(F.fiber[x], frozenset(picks[x]))
              for x in I.objects}
    return MarkedCatDiagram(F.base, fibers, F.transition)


def _marked_limit(p: GenParams, ctx: Ctx) -> str | None:
    reason = "marked limit marking invalid or not compatible with products"
    C = gen_category(p)
    M = gen_marking(C, p)
    Fm = _gen_marked_diagram(M, p)
    Gm = _gen_marked_diagram(M, replace(p, seed=p.seed + 1))
    I = M.cat
    # componentwise marking is a valid marking (the MarkedFinCat that
    # marked_cat_limit returns raises InvalidMarking otherwise)
    limF, resF = marked_cat_limit(Fm, ctx.caps)
    limG, resG = marked_cat_limit(Gm, ctx.caps)
    # binary products: limit of the pointwise product vs product of limits
    fibers = {x: product(Fm.fiber[x], Gm.fiber[x]) for x in I.objects}
    trans = {m.name: _product_functor(fibers[m.src], fibers[m.tgt],
                                      Fm.transition[m.name], Gm.transition[m.name])
             for m in I.morphisms}
    Hm = MarkedCatDiagram(Fm.base, fibers, trans)
    limH, resH = marked_cat_limit(Hm, ctx.caps)
    P = product(limF, limG)
    if P.cat.n_objects != limH.cat.n_objects \
            or len(P.cat.morphisms) != len(limH.cat.morphisms):
        return reason
    # match pairs of families with families of pairs
    omap = {}
    for oF in limF.cat.objects:
        for oG in limG.cat.objects:
            fam = {b: pair_id(resF.obj_family[oF][b], resG.obj_family[oG][b])
                   for b in I.objects}
            omap[pair_id(oF, oG)] = _family_obj_id(fam)
    mmap = {}
    for mF in limF.cat.morphisms:
        for mG in limG.cat.morphisms:
            fam = {b: pair_id(resF.mor_family[mF.name][b],
                              resG.mor_family[mG.name][b]) for b in I.objects}
            mmap[pair_id(mF.name, mG.name)] = _family_mor_id(fam)
    try:
        iso = Functor(P.cat, limH.cat, omap, mmap)
        iso.validate()
    except MalformedTable:  # not a functor; any other error is not a verdict
        return reason
    if len(set(mmap.values())) != len(mmap) \
            or any((m in P.marked) != (mmap[m] in limH.marked) for m in mmap):
        return reason
    return None


def _restricted_diagram(F: CatDiagram, t: Functor, Im: MarkedFinCat) -> CatDiagram:
    I = Im.cat
    return CatDiagram(Im, {i: F.fiber[t.obj(i)] for i in I.objects},
                      {m.name: F.transition[t.mor(m.name)] for m in I.morphisms})


def _pullback(p: GenParams, ctx: Ctx) -> str | None:
    F = _gen_instance(p)
    Jm = F.base
    rng = random.Random(("pullback", p.seed).__repr__())
    q = replace(p, seed=p.seed + 7, max_objects=3, max_morphisms=6)
    C = gen_category(q)
    Im = gen_marking(C, q)
    cands = [t for t in enumerate_functors(Im.cat, Jm.cat,
                                           max_candidates=ctx.caps.max_candidates)
             if t.is_marked(Im.marked, Jm.marked)]
    if not cands:
        Im = Jm
        t = Functor(Jm.cat, Jm.cat,
                    {x: x for x in Jm.cat.objects},
                    {m.name: m.name for m in Jm.cat.morphisms})
    else:
        t = cands[rng.randrange(len(cands))]
    E = grothendieck_cocart(F, ctx.caps)
    PB = pullback_fibered(t, Im, E, ctx.caps)
    G = _restricted_diagram(F, t, Im)
    EG = grothendieck_cocart(G, ctx.caps)
    if not (PB.total.cat.same_table(EG.total.cat)
            and PB.total.marked == EG.total.marked):
        return "pullback of the fibration differs from the restricted construction"
    return None


def _ff_lemma(p: GenParams, ctx: Ctx) -> str | None:
    reason = "limit of full inclusions not fully faithful with componentwise image"
    F = _gen_instance(p)
    I = F.base.cat
    rng = random.Random(("ff", p.seed).__repr__())
    chosen = {x: {o for o in F.fiber[x].objects if rng.random() < 0.6}
              for x in I.objects}
    # close under transitions and under isomorphism (replete full subcategories)
    fiber_classes = {x: iso_classes(F.fiber[x]) for x in I.objects}
    changed = True
    while changed:
        changed = False
        for x in I.objects:
            classes = fiber_classes[x]
            closure = {o for o in F.fiber[x].objects
                       if any(classes[o] == classes[c] for c in chosen[x])}
            if closure - chosen[x]:
                chosen[x] = closure
                changed = True
        for m in I.morphisms:
            T = F.transition[m.name]
            img = {T.obj(o) for o in chosen[m.src]}
            if img - chosen[m.tgt]:
                chosen[m.tgt] |= img
                changed = True

    def full_sub(C: FinCat, objs: set[str]) -> FinCat:
        return subcategory(C, sorted(objs), [m for m in C.morphisms
                                             if m.src in objs and m.tgt in objs])

    subfibers = {x: full_sub(F.fiber[x], chosen[x]) for x in I.objects}
    subtrans = {}
    for m in I.morphisms:
        T = F.transition[m.name]
        subtrans[m.name] = Functor(
            subfibers[m.src], subfibers[m.tgt],
            {o: T.obj(o) for o in subfibers[m.src].objects},
            {mm.name: T.mor(mm.name) for mm in subfibers[m.src].morphisms})
    G = CatDiagram(F.base, subfibers, subtrans)
    limF = cat_limit(F, ctx.caps)
    limG = cat_limit(G, ctx.caps)
    eta = {x: Functor(subfibers[x], F.fiber[x],
                      {o: o for o in subfibers[x].objects},
                      {mm.name: mm.name for mm in subfibers[x].morphisms})
           for x in I.objects}
    inc = cat_limit_map(eta, limG, limF)
    if not is_fully_faithful(inc):
        return reason
    # essential image is detected componentwise
    image = {inc.obj(o) for o in limG.cat.objects}
    classes = iso_classes(limF.cat)
    in_image = {o: any(classes[o] == classes[i] for i in image)
                for o in limF.cat.objects}
    for o in limF.cat.objects:
        componentwise = all(limF.obj_family[o][x] in chosen[x] for x in I.objects)
        if in_image[o] != componentwise:
            return reason
    return None


def _monotonicity(p: GenParams, ctx: Ctx) -> str | None:
    C = gen_category(p)
    M1 = gen_marking(C, p)
    rng = random.Random(("mono", p.seed).__repr__())
    extra = {m.name for m in C.morphisms if rng.random() < 0.4}
    M2 = MarkedFinCat(C, saturate_marking(C, M1.marked | frozenset(extra)))
    F = gen_diagram(M1, p)
    F2 = CatDiagram(M2, F.fiber, F.transition)
    s1 = marked_sections(grothendieck_cocart(F, ctx.caps), ctx.caps)
    s2 = marked_sections(grothendieck_cocart(F2, ctx.caps), ctx.caps)
    objs1 = set(s1.cat.objects)
    objs2 = set(s2.cat.objects)
    reason = "larger marking did not give a full subcategory of sections"
    if not objs2 <= objs1:
        return reason
    hom1 = {(m.src, m.tgt, m.name) for m in s1.cat.morphisms
            if m.src in objs2 and m.tgt in objs2}
    hom2 = {(m.src, m.tgt, m.name) for m in s2.cat.morphisms}
    if hom1 != hom2:
        return reason
    return None


CHECKS: dict[str, Callable] = {
    "thm-lax-lim": Check(_gen_instance, _lax_lim, "diagram"),
    "thm-oplax-lim": Check(_gen_instance, _oplax_lim, "diagram"),
    "thm-lax-colim-probe": Check(_gen_instance, partial(_colim_probe, cartesian=False),
                                 "diagram"),
    "thm-oplax-colim-probe": Check(_gen_instance, partial(_colim_probe, cartesian=True),
                                   "diagram"),
    "prop-sharp-limit": Check(_sharp_instance, _sharp_collapse, "diagram"),
    "ghn-flat": Check(_flat_instance, _ghn_flat, "diagram"),
    "cofinality-left": Check(_set_instance, _cofinal_left, "set-diagram"),
    "cofinality-right": Check(_set_instance, _cofinal_right, "set-diagram"),
    "marked-limit": Check(_params, _marked_limit, "params"),
    "pullback-remark": Check(_params, _pullback, "params"),
    "ff-lemma": Check(_params, _ff_lemma, "params"),
    "monotonicity": Check(_params, _monotonicity, "params"),
}

# mapping-out probe categories grow like 2^(objects of the total category),
# so the colimit-side checks run on smaller instances than the limit side
_SMALL = GenParams(max_objects=2, max_morphisms=5,
                   fiber_max_objects=2, fiber_max_morphisms=4)

DEFAULT_PARAMS: dict[str, GenParams] = {
    "thm-lax-colim-probe": _SMALL,
    "thm-oplax-colim-probe": _SMALL,
}

# the same explosion argues for lower caps (so a bad draw skips fast instead
# of assembling a huge functor category) and a shorter localization ladder
_PROBE_CTX = Ctx(
    caps=SizeCaps(max_objects=512, max_morphisms=8192,
                  max_candidates=1_000_000),
    bounds=Bounds(word_length=4, max_morphisms=2048, max_words=30_000),
)

# every other theorem shares one context, so the probe suite is built (and
# its categories axiom-checked) once, not on every run
_CHECK_CTX = Ctx()

DEFAULT_CTX: dict[str, Ctx] = {
    "thm-lax-colim-probe": _PROBE_CTX,
    "thm-oplax-colim-probe": _PROBE_CTX,
}


def theorem_defaults(theorem: str) -> tuple[GenParams, Ctx]:
    """The generator parameters and context a theorem runs with by default."""
    return (DEFAULT_PARAMS.get(theorem, GenParams()),
            DEFAULT_CTX.get(theorem, _CHECK_CTX))


# -- counterexample minimization ---------------------------------------------------


def _removable_morphisms(C: FinCat) -> list[str]:
    """Non-identity morphisms whose removal keeps the table composition-closed."""
    out = []
    for m in C.morphisms:
        if C.is_identity(m.name):
            continue
        needed = any(h == m.name and g != m.name and f != m.name
                     for (g, f), h in C.comp.items())
        if not needed:
            out.append(m.name)
    return out


def _delete_base_object(F: CatDiagram, x: str) -> CatDiagram:
    I = F.base.cat
    objs = [o for o in I.objects if o != x]
    ms = [m for m in I.morphisms if m.src != x and m.tgt != x]
    keep = {m.name for m in ms}
    sub = subcategory(I, objs, ms)
    base = MarkedFinCat(sub, frozenset(F.base.marked & keep))
    return CatDiagram(base, {o: F.fiber[o] for o in objs},
                      {m: T for m, T in F.transition.items() if m in keep})


def _delete_base_morphism(F: CatDiagram, m: str) -> CatDiagram:
    I = F.base.cat
    ms = [mm for mm in I.morphisms if mm.name != m]
    keep = {mm.name for mm in ms}
    # the axiom check rejects a deletion that leaves a composite dangling
    sub = subcategory(I, I.objects, ms)
    base = MarkedFinCat(sub, frozenset(F.base.marked & keep))
    return CatDiagram(base, dict(F.fiber),
                      {k: T for k, T in F.transition.items() if k in keep})


def minimize_diagram(F: CatDiagram, still_fails: Callable) -> CatDiagram:
    """Greedy deletion of base objects and removable base morphisms while the
    failure persists; each candidate validates itself when it is built,
    before the retest."""
    changed = True

    def attempt(delete: Callable, part: str) -> None:
        nonlocal F, changed
        try:
            F2 = delete(F, part)
            if still_fails(F2):
                F, changed = F2, True
        except InvariantViolation:  # a program bug, not a failed deletion
            raise
        except LaxcatError:
            pass

    while changed:
        changed = False
        for x in list(F.base.cat.objects):
            if F.base.cat.n_objects <= 1:
                break
            attempt(_delete_base_object, x)
        for m in _removable_morphisms(F.base.cat):
            attempt(_delete_base_morphism, m)
    return F


# -- report and runner ------------------------------------------------------------


@dataclass
class CheckReport:
    theorem: str
    seed: int
    instances: int
    passes: int
    failures: list[dict]
    bound_exceeded: int
    wall_time: float
    params: dict

    def to_data(self) -> dict:
        # canonical bytes exclude wall time: equal runs serialize identically
        return {k: v for k, v in asdict(self).items() if k != "wall_time"}

    def canonical(self) -> str:
        return canonical_json(self.to_data())


def instance_seed(seed: int, k: int) -> int:
    return seed * 1_000_003 + k


def _run_one(theorem: str, p: GenParams, ctx: Ctx) -> str:
    """One instance's status, "pass", "fail" or "skip": statuses only, so a
    parallel worker sends back no Failure closure."""
    try:
        status, _ = CHECKS[theorem](p, ctx)
    except BOUND_ERRORS:
        return "skip"
    return status


def run_check(theorem: str, seed: int = 0, count: int = 50,
              params: GenParams | None = None, ctx: Ctx | None = None,
              out_dir: str | None = None, jobs: int = 1) -> CheckReport:
    if theorem not in CHECKS:
        raise KeyError(f"unknown theorem {theorem!r}")
    default_params, default_ctx = theorem_defaults(theorem)
    params = params or default_params
    ctx = ctx or default_ctx
    t0 = time.monotonic()
    passes = 0
    skips = 0
    failures: list[dict] = []
    instances = [replace(params, seed=instance_seed(seed, k))
                 for k in range(count)]
    args = ([theorem] * count, instances, [ctx] * count)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            statuses = list(pool.map(_run_one, *args))
    else:
        statuses = list(map(_run_one, *args))
    for k, (p, status) in enumerate(zip(instances, statuses)):
        if status == "skip":
            skips += 1
            continue
        if status == "pass":
            passes += 1
            continue
        # a failure, replayed for its witness
        _, failure = CHECKS[theorem](p, ctx)
        entry = {"instance": k, "seed": p.seed, "reason": failure.reason}
        if out_dir is not None:
            data = failure.data
            if failure.kind == "diagram" and failure.reeval is not None:
                small = minimize_diagram(diagram_from_data(data), failure.reeval)
                data = diagram_to_data(small)
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"{theorem}-{k}.json")
            with open(path, "w") as fh:
                fh.write(canonical_json({
                    "theorem": theorem, "seed": p.seed,
                    "kind": failure.kind, "reason": failure.reason,
                    "params": asdict(p), "caps": asdict(ctx.caps),
                    "bounds": asdict(ctx.bounds), "probes": list(ctx.probes),
                    "instance": data,
                }))
            entry["path"] = path
        failures.append(entry)
    return CheckReport(theorem, seed, count, passes, failures, skips,
                       time.monotonic() - t0,
                       {"max_objects": params.max_objects,
                        "max_morphisms": params.max_morphisms,
                        "fiber_max_objects": params.fiber_max_objects})
