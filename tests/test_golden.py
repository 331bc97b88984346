"""Golden digest of every derived-category construction.

Each construction's output is serialized as canonical JSON; each LaxcatError
it raises is recorded by type and message, so cap hits and their counts are
pinned too.  The digest was computed before the constructions shared one
category builder and must not move when their assembly is refactored.
"""

import hashlib

from laxcat.checks import (
    CHECKS,
    Ctx,
    _delete_base_morphism,
    _delete_base_object,
    probe_suite,
)
from laxcat.constructions import (
    SizeCaps,
    SliceCat,
    coslice_cat,
    functor_category,
    marked_functor_category,
    slice_cat,
    twisted_arrow,
)
from laxcat.core import (
    FinCat,
    flat_marking,
    identity_functor,
    marked_subcategory,
    sharp_marking,
)
from laxcat.equiv import skeleton
from laxcat.errors import LaxcatError
from laxcat.generator import GenParams, gen_category, gen_diagram, gen_marking
from laxcat.grothendieck import (
    FiberedCat,
    all_sections,
    grothendieck_cart,
    grothendieck_cocart,
    marked_sections,
    pullback_fibered,
    strict_fiber,
)
from laxcat.io_formats import canonical_json, category_to_data, localization_to_data
from laxcat.limits import cat_limit, iso_comma, lax_limit, oplax_limit
from laxcat.localization import (
    Bounds,
    LocalizationResult,
    ProbeVerdict,
    check_localization_up,
    localize,
    probe_check_colimit_theorem,
)

GOLDEN_SHA256 = "d8084ba62701446f1433c5d183380ab190b00c9926fa469954013608b858961e"

CAPS = SizeCaps(max_objects=24, max_morphisms=160, max_candidates=5_000)
# tight enough that many constructions stop at a cap, pinning where they check
TIGHT = SizeCaps(max_objects=5, max_morphisms=12, max_candidates=200)
BOUNDS = Bounds(word_length=3, max_morphisms=256, max_words=5_000)
SMALL = dict(max_objects=3, max_morphisms=6,
             fiber_max_objects=2, fiber_max_morphisms=4)


def _cat(C, marked=None) -> str:
    return canonical_json(category_to_data(C, marked))


def _record(out: list[str], label: str, fn) -> object:
    """Append the serialized result of fn(), or the error it raised."""
    try:
        value = fn()
    except LaxcatError as exc:
        out.append(f"{label}\t{type(exc).__name__}: {exc}")
        return None
    if isinstance(value, FiberedCat):
        text = _cat(value.total.cat, value.total.marked)
    elif isinstance(value, SliceCat):
        text = _cat(value.cat, value.marked.marked)
    elif isinstance(value, LocalizationResult):
        text = canonical_json(localization_to_data(value))
    elif isinstance(value, ProbeVerdict):
        text = repr(value)
    elif isinstance(value, FinCat):
        text = _cat(value)
    else:  # FunCat, CatLimitResult, LaxLimitResult, SkeletonResult
        text = _cat(value.cat)
    out.append(f"{label}\t{text}")
    return value


def _diagram_lines(s: int, out: list[str]) -> None:
    p = GenParams(seed=s, **SMALL)
    C = gen_category(p)
    M = gen_marking(C, p)
    _record(out, f"{s}:tw", lambda: twisted_arrow(C, CAPS))
    _record(out, f"{s}:marked-sub", lambda: marked_subcategory(M))
    _record(out, f"{s}:skeleton", lambda: skeleton(C))
    for i in C.objects:
        _record(out, f"{s}:slice:{i}", lambda: slice_cat(M, i))
        _record(out, f"{s}:coslice:{i}", lambda: coslice_cat(M, i))
    try:
        F = gen_diagram(M, p)
    except LaxcatError as exc:
        out.append(f"{s}:diagram\t{type(exc).__name__}: {exc}")
        return
    for x in C.objects:
        _record(out, f"{s}:del-obj:{x}", lambda: _delete_base_object(F, x).base.cat)
    for m in C.nonidentity():
        _record(out, f"{s}:del-mor:{m}", lambda: _delete_base_morphism(F, m).base.cat)
    E = _record(out, f"{s}:cocart", lambda: grothendieck_cocart(F, CAPS))
    Ec = _record(out, f"{s}:cart", lambda: grothendieck_cart(F, CAPS))
    for label, fib in (("cocart", E), ("cart", Ec)):
        if fib is None:
            continue
        for i in C.objects:
            _record(out, f"{s}:{label}:fiber:{i}", lambda: strict_fiber(fib, i))
        _record(out, f"{s}:{label}:sections", lambda: marked_sections(fib, CAPS))
        _record(out, f"{s}:{label}:all-sections", lambda: all_sections(fib, CAPS))
    if E is not None:
        _record(out, f"{s}:pullback",
                lambda: pullback_fibered(identity_functor(C), M, E, CAPS))
        L = _record(out, f"{s}:localize", lambda: localize(E.total, BOUNDS))
        if L is not None and L.ok and s % 4 == 0:
            probes = {"arrow": probe_suite()["arrow"]}
            _record(out, f"{s}:loc-up",
                    lambda: check_localization_up(E.total, L, probes, CAPS))
    for tag, caps in (("", CAPS), ("tight:", TIGHT)):
        _record(out, f"{s}:{tag}cat-limit", lambda: cat_limit(F, caps))
        _record(out, f"{s}:{tag}lax-limit", lambda: lax_limit(F, caps))
        _record(out, f"{s}:{tag}oplax-limit", lambda: oplax_limit(F, caps))
        for m in C.nonidentity():
            T = F.transition[m]
            _record(out, f"{s}:{tag}iso-comma:{m}", lambda: iso_comma(T, T, caps))
    _record(out, f"{s}:tight:tw", lambda: twisted_arrow(C, TIGHT))
    if E is not None:
        _record(out, f"{s}:tight:cocart", lambda: grothendieck_cocart(F, TIGHT))
        _record(out, f"{s}:tight:sections", lambda: marked_sections(E, TIGHT))
        _record(out, f"{s}:tight:pullback",
                lambda: pullback_fibered(identity_functor(C), M, E, TIGHT))
    if s % 6 == 0:
        probes = {"terminal": probe_suite()["terminal"]}
        _record(out, f"{s}:colim-probe",
                lambda: probe_check_colimit_theorem(F, probes, CAPS))
    ctx = Ctx(caps=CAPS, bounds=BOUNDS)
    for theorem in ("ff-lemma", "pullback-remark", "marked-limit", "monotonicity"):
        try:
            status = CHECKS[theorem](p, ctx)[0]
        except LaxcatError as exc:
            status = f"{type(exc).__name__}: {exc}"
        out.append(f"{s}:{theorem}\t{status}")


def _probe_lines(out: list[str]) -> None:
    suite = probe_suite()
    for name, P in suite.items():
        _record(out, f"{name}:tw", lambda: twisted_arrow(P, CAPS))
        _record(out, f"{name}:skeleton", lambda: skeleton(P))
        for mk in (flat_marking(P), sharp_marking(P)):
            tag = "sharp" if mk.marked == sharp_marking(P).marked else "flat"
            _record(out, f"{name}:{tag}:marked-sub", lambda: marked_subcategory(mk))
            for i in P.objects:
                _record(out, f"{name}:{tag}:slice:{i}", lambda: slice_cat(mk, i))
                _record(out, f"{name}:{tag}:coslice:{i}", lambda: coslice_cat(mk, i))
        for qname, Q in suite.items():
            for tag, caps in (("", CAPS), ("tight:", TIGHT)):
                _record(out, f"{tag}Fun({name},{qname})",
                        lambda: functor_category(P, Q, caps))
                _record(out, f"{tag}Fun+({name},{qname})",
                        lambda: marked_functor_category(sharp_marking(P),
                                                        flat_marking(Q), caps))


def golden_lines() -> list[str]:
    out: list[str] = []
    for s in range(60):
        _diagram_lines(s, out)
    _probe_lines(out)
    return out


def golden_digest() -> str:
    return hashlib.sha256("\n".join(golden_lines()).encode()).hexdigest()


def test_constructions_match_golden_digest():
    assert golden_digest() == GOLDEN_SHA256


if __name__ == "__main__":
    print(golden_digest())
