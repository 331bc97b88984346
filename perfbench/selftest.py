"""Self-test of the benchmark at tiny counts.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is reported with its unit, that
the output gate trips on a wrong verdict, a corrupted localization output and
an output that changes between passes, that an op of known work normalises
to its time at the reference speed, that bound hits are attributed to the
module they left, and that per-layer self times sum to no more than the
traced wall time.  Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
problems: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def tiny_corpus() -> None:
    workloads.LIMIT_STREAMS = range(0, 2)
    workloads.COLIM_STREAMS = range(0, 2)
    workloads.LOCALIZE_STREAMS = range(0, 3)


def metrics_present() -> None:
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            args = argparse.Namespace(workload=workload, seed=1, seconds=1.0,
                                      trace=trace)
            result = run.run_workload(args)
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace={trace}: every op passes the gate")
            if not trace:
                passes = len(result["detail"]["pass_walls_s"])
                check(passes >= 2, f"{workload}: passes repeat while time "
                      f"allows ({passes} passes)")
            for spec in SPEC[key]:
                m = result["metrics"].get(spec["name"])
                check(m is not None and m["unit"] == spec["unit"]
                      and isinstance(m["value"], (int, float)),
                      f"{workload} trace={trace}: {spec['name']} [{spec['unit']}]")
            if trace:
                self_s = sum(v["value"] for k, v in result["metrics"].items()
                             if k.endswith(".self_s"))
                wall = result["detail"]["traced_wall_s"]
                check(self_s <= wall,
                      f"{workload}: layer self times {self_s:.4f} s <= traced "
                      f"wall {wall:.4f} s")


def gate_trips_on_wrong_verdict() -> None:
    from laxcat import checks

    theorem = "cofinality-left"
    real = checks.CHECKS[theorem]

    def wrong(p, ctx):
        return "fail", checks.Failure("params", {"seed": p.seed}, "injected")

    probe = workloads.BoundProbe()
    checks.CHECKS[theorem] = wrong
    try:
        r = run.Run([workloads.CheckOp(theorem, 0)])
        r.run_pass([0], probe)
    finally:
        checks.CHECKS[theorem] = real
    check(r.failed() == 1 and "verdict fail" in r.failures[0]["reason"],
          "gate fails an op whose check returns a wrong verdict")


def gate_trips_on_bad_localization_output() -> None:
    from laxcat import io_formats

    real = io_formats.localization_to_data

    def corrupted(result):
        data = real(result)
        if "category" in data and data["category"]["morphisms"]:
            data["category"]["morphisms"].pop()
        return data

    ops = [op for op in workloads.build("localize")
           if op.stream == 0 and op.variant == "lax"]
    io_formats.localization_to_data = corrupted
    try:
        r = run.Run(ops)
        r.run_pass([0], workloads.BoundProbe())
    finally:
        io_formats.localization_to_data = real
    check(r.failed() == 1, "gate fails a localization output that does not "
          "re-parse to the same table")


def gate_trips_on_changed_output() -> None:
    class Flaky:
        label = "flaky"
        calls = 0

        def run(self, probe):
            Flaky.calls += 1
            return workloads.Outcome("ok", f"output {Flaky.calls}")

    r = run.Run([Flaky()])
    r.run_pass([0], None)
    r.run_pass([0], None)
    check(r.failed() == 1 and "differs" in r.failures[0]["reason"],
          "gate fails an op whose output changes between passes")


def speed_normalisation() -> None:
    """An op made of N kernel calls must come out at about N reference
    kernel times, whatever the machine's speed while it ran."""
    import speed

    n = 400

    class KernelOp:
        label = "kernel"

        def run(self, probe):
            for _ in range(n):
                speed.kernel()
            return workloads.Outcome("ok", "")

    r = run.Run([KernelOp()], speed.Sampler())
    with r.sampler:
        for _ in range(3):
            r.run_pass([0], None)
    norm = r.op_medians(normalised=True)[0]
    want = n * speed.REF_KERNEL_S
    check(0.8 < norm / want < 1.25 and r.sampler.stolen > 0,
          f"an op of {n} kernels normalises to {norm:.4f} s, about "
          f"{want:.4f} s, with the timer's samples left out")


def bounds_attributed() -> None:
    from laxcat import constructions, core, limits
    from laxcat.diagrams import constant_diagram
    from laxcat.errors import SizeBoundExceeded

    tiny = constructions.SizeCaps(max_objects=0, max_morphisms=0)
    F = constant_diagram(core.flat_marking(core.terminal_cat()), core.chain_cat(1))
    for fn, module in ((lambda: limits.cat_limit(F, tiny), "limits"),
                       (lambda: constructions.twisted_arrow(
                           core.chain_cat(2), tiny), "constructions")):
        try:
            fn()
            check(False, f"a {module} cap hit raises")
        except SizeBoundExceeded as exc:
            rec = workloads.bound_record(exc)
            check(rec["module"] == module and rec["cap"] == 0
                  and rec["count"] > 0,
                  f"cap hit attributed to {module} with cap and count: {rec}")


def main() -> int:
    if not (run.SRC / "laxcat" / "__init__.py").is_file():
        print(f"selftest: no laxcat sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    tiny_corpus()
    metrics_present()
    gate_trips_on_wrong_verdict()
    gate_trips_on_bad_localization_output()
    gate_trips_on_changed_output()
    speed_normalisation()
    bounds_attributed()
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
