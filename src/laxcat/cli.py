"""Command-line entry point.

Exit codes: 0 success, 1 counterexample (or inequivalence), 2 resource bound
exceeded (or, from argparse, a command-line usage error), 3 invalid input,
4 internal error (a program bug).  Bound hits never masquerade as success or
failure, and bugs never as invalid input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .checks import CHECKS, run_check, theorem_defaults
from .constructions import (
    DEFAULT_CAPS,
    coslice_cat,
    slice_cat,
    twisted_arrow,
)
from .equiv import is_equivalent, skeleton
from .errors import BOUND_ERRORS, InvariantViolation, LaxcatError
from .grothendieck import all_sections, grothendieck_cart, grothendieck_cocart, marked_sections
from .io_formats import (
    canonical_json,
    category_from_data,
    category_to_data,
    diagram_from_data,
    functor_to_data,
    localization_to_data,
    marked_category_from_data,
    presentation_from_data,
    probes_from_data,
    verdict_to_data,
)
from .limits import lax_limit, oplax_limit
from .localization import Bounds, lax_colimit, localize, localize_presentation, oplax_colimit


def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise LaxcatError(f"{path}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _override(value, **fields):
    """value with the fields of the flags given replaced.  A flag is given
    when it is not None, so 0 is a value like any other."""
    given = {k: v for k, v in fields.items() if v is not None}
    return replace(value, **given) if given else value


def _caps(args, caps):
    """SizeCaps or GenParams with --max-objects and --max-morphisms."""
    return _override(caps, max_objects=args.max_objects,
                     max_morphisms=args.max_morphisms)


def _bounds(args, bounds: Bounds) -> Bounds:
    return _override(bounds, word_length=args.word_bound,
                     max_morphisms=args.size_bound)


def _count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {text!r}")
    return int(text)


def _add_caps(sp):
    """The size-cap flags, for a command that builds a capped category."""
    sp.add_argument("--max-objects", type=_count, default=None)
    sp.add_argument("--max-morphisms", type=_count, default=None)
    return sp


def _add_bounds(sp):
    """The localization-bound flags, for a command that localizes."""
    sp.add_argument("--word-bound", type=_count, default=None)
    sp.add_argument("--size-bound", type=_count, default=None)
    return sp


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="laxcat",
        description="Finite marked categories: constructions, partially lax "
                    "(co)limits, localization, and randomized theorem checks.")
    sub = ap.add_subparsers(dest="command", required=True)

    def cmd(name: str, help: str, *files: str):
        sp = sub.add_parser(name, help=help)
        for f in files:
            sp.add_argument(f)
        sp.add_argument("--out", help="write the result here instead of stdout")
        return sp

    # each command takes the cap and bound flags it reads, and no others
    cmd("validate", "validate a category file", "file")
    _add_caps(cmd("tw", "twisted arrow category of a category file", "file"))
    cmd("slice", "slice over an object, marking pulled back", "file", "object")
    cmd("coslice", "coslice under an object, marking pulled back", "file", "object")
    g = _add_caps(cmd("grothendieck", "total category of a diagram file", "file"))
    g.add_argument("--cartesian", action="store_true")
    s = _add_caps(cmd("sections", "sections of the fibration of a diagram file",
                      "file"))
    s.add_argument("--marked", action="store_true",
                   help="only sections cocartesian on marked base morphisms")
    _add_caps(cmd("laxlim", "partially lax limit of a diagram file", "file"))
    _add_caps(cmd("oplaxlim", "partially oplax limit of a diagram file", "file"))
    _add_bounds(_add_caps(cmd(
        "laxcolim", "partially lax colimit (localized total category)", "file")))
    _add_bounds(_add_caps(cmd(
        "oplaxcolim", "partially oplax colimit (cartesian variant)", "file")))
    _add_bounds(cmd("localize",
                    "invert marked morphisms (category or presentation file)",
                    "file"))
    cmd("equiv", "decide equivalence of two category files", "file", "file2")
    cmd("skeleton", "one object per isomorphism class", "file")

    ck = sub.add_parser("check", help="run a seeded theorem-check suite")
    ck.add_argument("theorem", choices=sorted(CHECKS))
    ck.add_argument("--seed", type=int, default=0)
    ck.add_argument("--count", type=_count, default=50)
    ck.add_argument("--jobs", type=_count, default=1)
    ck.add_argument("--max-skip", type=_count, default=None,
                    help="exit 2 if more than this many instances hit bounds")
    ck.add_argument("--probes", default=None,
                    help="JSON manifest {name: category} replacing the probe suite")
    ck.add_argument("--out", default=None,
                    help="directory for the report and counterexample files")
    ck.add_argument("--max-objects", type=_count, default=None,
                    help="generator cap on base objects")
    ck.add_argument("--max-morphisms", type=_count, default=None,
                    help="generator cap on base morphisms")
    _add_bounds(ck)
    return ap


def _cmd_compute(args) -> int:
    # a command without the cap or bound flags reads no caps or bounds
    caps = _caps(args, DEFAULT_CAPS) if "max_objects" in args else DEFAULT_CAPS
    bounds = _bounds(args, Bounds()) if "word_bound" in args else Bounds()
    name = args.command
    if name == "validate":
        cat, mk = category_from_data(_load(args.file))
        _emit(canonical_json({"status": "valid",
                              "objects": len(cat.objects),
                              "morphisms": len(cat.morphisms),
                              "marked": sorted(mk) if mk is not None else None}),
              args.out)
        return 0
    if name == "tw":
        Cm = marked_category_from_data(_load(args.file))
        tw = twisted_arrow(Cm.cat, caps)
        _emit(canonical_json(category_to_data(tw.cat)), args.out)
        return 0
    if name in ("slice", "coslice"):
        Cm = marked_category_from_data(_load(args.file))
        build = slice_cat if name == "slice" else coslice_cat
        sl = build(Cm, args.object)
        _emit(canonical_json(category_to_data(sl.cat, sl.marked.marked)), args.out)
        return 0
    if name == "grothendieck":
        F = diagram_from_data(_load(args.file))
        build = grothendieck_cart if args.cartesian else grothendieck_cocart
        E = build(F, caps)
        _emit(canonical_json({
            "total": category_to_data(E.total.cat, E.total.marked),
            "projection": functor_to_data(E.proj),
        }), args.out)
        return 0
    if name == "sections":
        F = diagram_from_data(_load(args.file))
        E = grothendieck_cocart(F, caps)
        fc = marked_sections(E, caps) if args.marked else all_sections(E, caps)
        _emit(canonical_json(category_to_data(fc.cat)), args.out)
        return 0
    if name in ("laxlim", "oplaxlim"):
        F = diagram_from_data(_load(args.file))
        r = (lax_limit if name == "laxlim" else oplax_limit)(F, caps)
        _emit(canonical_json({
            "category": category_to_data(r.cat),
            "projections": {i: functor_to_data(p)
                            for i, p in r.projections.items()},
        }), args.out)
        return 0
    if name in ("laxcolim", "oplaxcolim"):
        F = diagram_from_data(_load(args.file))
        fn = lax_colimit if name == "laxcolim" else oplax_colimit
        result, _ = fn(F, bounds, caps)
        _emit(canonical_json(localization_to_data(result)), args.out)
        return 0 if result.ok else 2
    if name == "localize":
        data = _load(args.file)
        if isinstance(data, dict) and ("arrows" in data or "relations" in data):
            result = localize_presentation(presentation_from_data(data), bounds)
        else:
            result = localize(marked_category_from_data(data), bounds)
        _emit(canonical_json(localization_to_data(result)), args.out)
        return 0 if result.ok else 2
    if name == "equiv":
        C, _ = category_from_data(_load(args.file))
        D, _ = category_from_data(_load(args.file2))
        v = is_equivalent(C, D)
        _emit(canonical_json(verdict_to_data(v)), args.out)
        return 0 if v else 1
    if name == "skeleton":
        C, _ = category_from_data(_load(args.file))
        sk = skeleton(C)
        _emit(canonical_json(category_to_data(sk.cat)), args.out)
        return 0
    raise AssertionError(name)


def _cmd_check(args) -> int:
    # overrides replace single fields of the theorem's own defaults, so a
    # flag never resets a setting it does not name
    params, ctx = theorem_defaults(args.theorem)
    params = _caps(args, params)
    ctx = replace(ctx, bounds=_bounds(args, ctx.bounds))
    if args.probes:
        ctx = replace(ctx, probes=probes_from_data(_load(args.probes)))
    report = run_check(args.theorem, seed=args.seed, count=args.count,
                       params=params, ctx=ctx, out_dir=args.out,
                       jobs=args.jobs)
    text = report.canonical()
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, f"{args.theorem}-report.json"), "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    sys.stdout.write(
        f"{args.theorem}: {report.passes}/{report.instances - report.bound_exceeded}"
        f" passed, {len(report.failures)} failed,"
        f" {report.bound_exceeded} bound-skipped ({report.wall_time:.1f}s)\n")
    if report.failures:
        return 1
    if args.max_skip is not None and report.bound_exceeded > args.max_skip:
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_compute(args)
    except BOUND_ERRORS as exc:
        sys.stderr.write(f"bound exceeded: {exc}\n")
        return 2
    except InvariantViolation as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 4
    except LaxcatError as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
