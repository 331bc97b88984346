"""Finite-category engine for marked categories and partially lax (co)limits."""

from .core import (
    FinCat,
    Functor,
    MarkedFinCat,
    Mor,
    fincat,
    flat_marking,
    is_iso,
    marked_subcategory,
    opposite,
    opposite_cat,
    product,
    saturate_marking,
    sharp_marking,
    validate_marking,
)
from .constructions import (
    SizeCaps,
    coslice_cat,
    functor_category,
    marked_functor_category,
    slice_cat,
    twisted_arrow,
)
from .diagrams import CatDiagram, MarkedCatDiagram, SetDiagram
from .equiv import is_equivalent, is_isomorphic, skeleton
from .grothendieck import (
    FiberedCat,
    all_sections,
    grothendieck_cart,
    grothendieck_cocart,
    is_cocartesian,
    marked_sections,
    pullback_fibered,
)
from .limits import (
    CatLimitResult,
    LaxLimitResult,
    cat_limit,
    cat_limit_map,
    iso_comma,
    lax_limit,
    marked_cat_limit,
    oplax_limit,
    set_colimit,
    set_limit,
)
from .localization import (
    Bounds,
    LocalizationResult,
    PresentedCat,
    ProbeVerdict,
    check_localization_up,
    lax_colimit,
    localize,
    localize_presentation,
    oplax_colimit,
    present,
    probe_check_colimit_theorem,
)
from .generator import (
    GenParams,
    gen_category,
    gen_diagram,
    gen_marking,
    gen_set_diagram,
)
from .checks import CHECKS, CheckReport, probe_suite, run_check
from .io_formats import (
    canonical_json,
    category_from_data,
    category_to_data,
    diagram_from_data,
    diagram_to_data,
    marked_category_from_data,
    presentation_from_data,
    presentation_to_data,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
