"""The benchmark's workloads: their op lists, the op each runs, and the output
gate every op passes through.

An op is one unit of user-visible work.  Every op list is a fixed corpus of
instance streams, the same on every ``--seed``: instance cost in laxcat is
heavy-tailed (one ``thm-lax-lim`` instance of a random 200-instance window
took 50 s, 92% of its window), so a window drawn from the seed would make
the run-to-run spread far wider than any useful regression bound.  The seed
fixes the order the ops run in, shuffled afresh for every pass.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

# limit-side theorem checks at their shipped defaults.  thm-oplax-lim is left
# out: it runs the thm-lax-lim code through opposites.
LIMIT_THEOREMS = ("thm-lax-lim", "prop-sharp-limit", "marked-limit",
                  "pullback-remark", "ff-lemma", "monotonicity",
                  "cofinality-left", "cofinality-right")
LIMIT_STREAMS = range(0, 24)

# the mapping-out probe check at its shipped _SMALL/_PROBE_CTX defaults; the
# window holds at least one SizeBoundExceeded and one SearchBudgetExceeded
# skip, so both skip costs are in the numbers.  thm-oplax-colim-probe is left
# out: it calls the lax check on fiberwise_op.
COLIM_THEOREM = "thm-lax-colim-probe"
COLIM_STREAMS = range(127, 158)

# seeded diagrams at default GenParams, each localized both ways
LOCALIZE_STREAMS = range(0, 20)


def localize_bounds():
    """The localize workload's own bounds, equal to the probe-check bounds.
    The CLI defaults are not used: at those bounds one bound-failing
    laxcolim ran 74-134 s before giving up at max_words."""
    from laxcat.localization import Bounds

    return Bounds(word_length=4, max_morphisms=2048, max_words=30_000)


@dataclass
class Outcome:
    status: str  # "ok" (verdict or result) | "bound" | "fail"
    output: str  # the canonical bytes the op produced
    bound: dict | None = None  # kind, cap, count, module of a bound hit
    reason: str = ""  # why the gate failed the op


# -- bound attribution -----------------------------------------------------------


def origin(exc: BaseException) -> str:
    """The innermost laxcat module the exception left: the module of the
    innermost public module-level function on its traceback.  Methods such
    as SizeCaps.check_morphisms are skipped, so a cap hit in cat_limit is
    attributed to limits, not to the constructions module defining SizeCaps."""
    frames = []
    tb = exc.__traceback__
    while tb is not None:
        frames.append(tb.tb_frame)
        tb = tb.tb_next
    for frame in reversed(frames):
        modname = frame.f_globals.get("__name__", "")
        name = frame.f_code.co_name
        if not modname.startswith("laxcat.") or name.startswith("_"):
            continue
        fn = vars(sys.modules[modname]).get(name)
        fn = getattr(fn, "__wrapped__", fn)
        if getattr(fn, "__code__", None) is frame.f_code:
            return modname.split(".", 1)[1]
    return "unknown"


def bound_record(exc: BaseException) -> dict:
    from laxcat.errors import SearchBudgetExceeded, SizeBoundExceeded

    rec = {"kind": type(exc).__name__, "module": origin(exc),
           "cap": None, "count": None}
    if isinstance(exc, SizeBoundExceeded):
        rec.update(cap=exc.cap, count=exc.count, what=f"{exc.what} {exc.kind}")
    elif isinstance(exc, SearchBudgetExceeded):
        rec.update(cap=exc.budget, count=exc.budget + 1, what="search nodes")
    return rec


class BoundProbe:
    """Records the resource-bound exception a theorem check raises before
    run_check counts the instance as a skip, so that every skipped op can
    say which bound, in which module, at what count.  It wraps the entries of
    laxcat.checks.CHECKS, which run_check looks up at call time."""

    def __init__(self) -> None:
        self.last: BaseException | None = None
        self._saved: dict | None = None

    def install(self) -> None:
        from laxcat import checks
        from laxcat.errors import (GenerationExhausted, SearchBudgetExceeded,
                                   SizeBoundExceeded)

        bound_errors = (SizeBoundExceeded, SearchBudgetExceeded,
                        GenerationExhausted)
        self._saved = dict(checks.CHECKS)

        def probe(fn):
            def run(p, ctx):
                try:
                    return fn(p, ctx)
                except bound_errors as exc:
                    self.last = exc
                    raise
            return run

        for name, fn in self._saved.items():
            checks.CHECKS[name] = probe(fn)

    def uninstall(self) -> None:
        from laxcat import checks

        if self._saved is not None:
            checks.CHECKS.update(self._saved)
            self._saved = None


# -- ops -------------------------------------------------------------------------


@dataclass
class CheckOp:
    """One instance of a seeded theorem check: run_check with count=1."""

    theorem: str
    stream: int

    @property
    def label(self) -> str:
        return f"{self.theorem}@{self.stream}"

    def run(self, probe: BoundProbe) -> Outcome:
        from laxcat import checks

        probe.last = None
        report = checks.run_check(self.theorem, seed=self.stream, count=1)
        # the exception's traceback holds the op's data: free it in this op
        exc, probe.last = probe.last, None
        text = report.canonical()
        if report.failures:
            return Outcome("fail", text, reason=f"verdict fail: {report.failures}")
        if report.bound_exceeded:
            if exc is None:
                return Outcome("fail", text, reason="skip without a bound error")
            return Outcome("bound", text, bound_record(exc))
        if report.passes != 1:
            return Outcome("fail", text, reason="instance neither passed nor skipped")
        return Outcome("ok", text)


@dataclass
class LocalizeOp:
    """Read a diagram from canonical JSON, compute its lax or oplax colimit,
    write the result as canonical JSON, and parse that output back."""

    stream: int
    variant: str  # "lax" | "oplax"
    diagram_json: str

    @property
    def label(self) -> str:
        return f"{self.variant}colim@{self.stream}"

    def run(self, probe: BoundProbe) -> Outcome:
        from laxcat import io_formats, localization
        from laxcat.errors import SizeBoundExceeded

        F = io_formats.diagram_from_data(json.loads(self.diagram_json))
        colimit = (localization.lax_colimit if self.variant == "lax"
                   else localization.oplax_colimit)
        try:
            r, _ = colimit(F, localize_bounds())
        except SizeBoundExceeded as exc:  # the total category outgrew its caps
            return Outcome("bound", "", bound_record(exc))
        text = io_formats.canonical_json(io_formats.localization_to_data(r))
        return _gate_localization(r, text)


def _gate_localization(r, text: str) -> Outcome:
    """The output must re-parse through the strict reader to the same table."""
    from laxcat.errors import LaxcatError
    from laxcat.io_formats import category_from_data

    data = json.loads(text)
    if data.get("status") != r.status:
        return Outcome("fail", text, reason="status lost in the output")
    if not r.ok:
        b = r.bound or {}
        return Outcome("bound", text, {
            "kind": r.status, "module": "localization", "what": b.get("which"),
            "cap": b.get("cap"), "count": b.get("at", b.get("frontier"))})
    try:
        C, _ = category_from_data(data["category"])
    except (LaxcatError, KeyError) as exc:
        return Outcome("fail", text, reason=f"output does not re-parse: {exc}")
    if not C.same_table(r.cat):
        return Outcome("fail", text, reason="re-parsed output differs from the result")
    return Outcome("ok", text)


# -- workloads -------------------------------------------------------------------


def build(workload: str) -> list:
    """The op list of a workload.  For localize this is where the inputs are
    generated and written as canonical JSON."""
    import laxcat  # noqa: F401  (the import is part of the set-up)

    if workload == "limit-checks":
        return [CheckOp(t, s) for t in LIMIT_THEOREMS for s in LIMIT_STREAMS]
    if workload == "colim-probe":
        return [CheckOp(COLIM_THEOREM, s) for s in COLIM_STREAMS]
    if workload == "localize":
        from laxcat import generator, io_formats

        ops = []
        for s in LOCALIZE_STREAMS:
            p = generator.GenParams(seed=s)
            C = generator.gen_category(p)
            F = generator.gen_diagram(generator.gen_marking(C, p), p)
            text = io_formats.canonical_json(io_formats.diagram_to_data(F))
            ops += [LocalizeOp(s, "lax", text), LocalizeOp(s, "oplax", text)]
        return ops
    raise KeyError(workload)


WORKLOADS = ("limit-checks", "colim-probe", "localize")


def configuration(workload: str) -> dict:
    """Seeds, counts, caps and bounds the workload runs with."""
    from dataclasses import asdict

    from laxcat import checks
    from laxcat.constructions import DEFAULT_CAPS
    from laxcat.generator import GenParams

    def check_config(theorem: str) -> dict:
        params = checks.DEFAULT_PARAMS.get(theorem, GenParams())
        ctx = checks.DEFAULT_CTX.get(theorem) or checks.Ctx()
        return {"params": asdict(params), "caps": asdict(ctx.caps),
                "bounds": asdict(ctx.bounds), "probes": sorted(ctx.probes)}

    if workload == "limit-checks":
        return {"streams": [LIMIT_STREAMS.start, LIMIT_STREAMS.stop],
                "theorems": {t: check_config(t) for t in LIMIT_THEOREMS}}
    if workload == "colim-probe":
        return {"streams": [COLIM_STREAMS.start, COLIM_STREAMS.stop],
                "theorems": {COLIM_THEOREM: check_config(COLIM_THEOREM)}}
    return {"streams": [LOCALIZE_STREAMS.start, LOCALIZE_STREAMS.stop],
            "params": asdict(GenParams()), "caps": asdict(DEFAULT_CAPS),
            "bounds": asdict(localize_bounds())}
