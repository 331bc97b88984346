"""laxcat benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload limit-checks --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a laxcat source tree; the engine is imported from
``src/``.  Each workload is a fixed op list (see workloads.py), run
sequentially in this one process.  With ``--trace 0`` the op list is run in
passes: one full pass in list order, then passes of the ops that still fit
in ``--seconds``, each in a fresh order drawn from ``--seed``.  The
end-to-end metrics are reported, with times normalised to a reference
machine speed that is sampled while the ops run (see speed.py).  With
``--trace 1`` one untraced pass is followed by one traced pass, and the
per-layer metrics of the traced pass are reported.

Every op goes through the output gate: a check instance that returns
``fail``, a localization output that does not re-parse, or an op whose
canonical output differs between passes (traced or not) fails the op and the
run.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
and ``perfbench/out/<workload>-seed<seed>-trace<t>.json``, hold the full
result with the run metadata and every bound hit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9  # set-ups per run: this process plus fresh interpreters
TAIL_BEYOND = 10  # ops beyond the tail percentile
OP_OVERHEAD_S = 1e-3  # the harness's time per op, for planning passes
MIN_SAMPLES = 5  # samples of each cheap op, even past --seconds
CHEAP_OP_S = 0.25  # an op is cheap when its last sample took at most this

sys.path.insert(0, str(HERE))
import speed  # noqa: E402  (the benchmark's own modules, no laxcat import)
import workloads  # noqa: E402

SPEED_SAMPLES = 10  # kernel samples on each side of a set-up

# a fresh interpreter's set-up: import laxcat and generate the inputs; prints
# the raw and the normalised set-up seconds
_SETUP_CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import run
print(json.dumps(run.timed_setup(sys.argv[2])[1:]))
"""


# -- metadata --------------------------------------------------------------------


def loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except (OSError, ValueError):
        return None


def source_digest() -> str:
    """sha256 over the engine sources, identifying the code when the tree is
    not a git checkout."""
    h = hashlib.sha256()
    for path in sorted((SRC / "laxcat").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() or None


def metadata(args, load_start) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "commit": commit(),
        "source_sha256": source_digest(),
        "loadavg_start": load_start, "loadavg_end": loadavg(),
        "config": workloads.configuration(args.workload),
    }


# -- set-up ----------------------------------------------------------------------


def timed_setup(workload: str) -> tuple[list, float, float]:
    """Import laxcat and build the op list, with the speed sampler on;
    returns the ops and the raw and normalised set-up seconds."""
    with speed.Sampler() as sampler:
        for _ in range(SPEED_SAMPLES):
            sampler.sample()
        stolen = sampler.stolen
        a = perf_counter()
        sys.path.insert(0, str(SRC))
        ops = workloads.build(workload)
        b = perf_counter()
        stolen = sampler.stolen - stolen
        for _ in range(SPEED_SAMPLES):
            sampler.sample()
    raw = b - a - stolen
    return ops, raw, raw * sampler.speed(a, b)


def child_setup(workload: str) -> tuple[float, float]:
    r = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(HERE), workload],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    raw, norm = json.loads(r.stdout.strip().splitlines()[-1])
    return float(raw), float(norm)


def setup(workload: str) -> tuple[list, list[tuple[float, float]]]:
    """Import laxcat and build the op list here, then time the same set-up
    in fresh interpreters; returns the ops and every set-up's raw and
    normalised seconds."""
    ops, raw, norm = timed_setup(workload)
    times = [(raw, norm)]
    times += [child_setup(workload) for _ in range(SETUP_REPEATS - 1)]
    return ops, times


# -- measurement -----------------------------------------------------------------


class Run:
    """The samples of one run: (pass, op index, seconds, outcome), and each
    sample's start and end.  With a speed sampler, an op's seconds exclude
    the time the sampler's timer took inside it."""

    def __init__(self, ops: list, sampler: speed.Sampler | None = None) -> None:
        self.ops = ops
        self.sampler = sampler
        self.samples: list[tuple[int, int, float, workloads.Outcome]] = []
        self.intervals: list[tuple[float, float]] = []
        self.pass_walls: list[float] = []
        self.pass_rss_mb: list[float] = []  # peak memory at each pass's end
        self.first_output: dict[int, str] = {}
        self.failures: list[dict] = []

    def run_pass(self, order: list[int], probe, tracer=None) -> float:
        k = len(self.pass_walls)
        sampler = self.sampler
        t_pass = perf_counter()
        for i in order:
            if tracer is not None:
                tracer.op = i
            if sampler is not None:
                sampler.sample()
                stolen = sampler.stolen
            t = perf_counter()
            out = self.ops[i].run(probe)
            t_end = perf_counter()
            dt = t_end - t
            if sampler is not None:
                dt -= sampler.stolen - stolen
            self.samples.append((k, i, dt, out))
            self.intervals.append((t, t_end))
        if sampler is not None:
            sampler.sample()
        wall = perf_counter() - t_pass
        self.pass_walls.append(wall)
        self.pass_rss_mb.append(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        for _, i, _, out in self.samples[-len(order):]:
            self.gate(k, i, out)
        return wall

    def gate(self, k: int, i: int, out: workloads.Outcome) -> None:
        label = self.ops[i].label
        if out.status == "fail":
            self.failures.append({"op": label, "pass": k, "reason": out.reason})
            return
        first = self.first_output.setdefault(i, out.output)
        if out.output != first:
            self.failures.append({"op": label, "pass": k,
                                  "reason": "output differs from the first pass"})

    def failed(self) -> int:
        return len(self.failures)

    def last_seconds(self) -> dict[int, float]:
        """Each op's seconds in its latest sample."""
        return {i: dt for _, i, dt, _ in self.samples}

    def op_medians(self, normalised: bool = False) -> dict[int, float]:
        """Each op's median seconds over the passes, raw or normalised to the
        reference speed (see speed.py)."""
        times: dict[int, list[float]] = {}
        for (_, i, dt, _), (a, b) in zip(self.samples, self.intervals):
            if normalised:
                dt *= self.sampler.speed(a, b)
            times.setdefault(i, []).append(dt)
        return {i: statistics.median(ts) for i, ts in sorted(times.items())}

    def per_op(self) -> dict[str, dict]:
        status = {i: out.status for _, i, _, out in self.samples}
        ops = {self.ops[i].label: {"status": status[i], "median_s": t}
               for i, t in self.op_medians().items()}
        if self.sampler is not None:
            for i, t in self.op_medians(normalised=True).items():
                ops[self.ops[i].label]["normalised_s"] = t
        return ops

    def bounds(self, k: int | None = None) -> list[dict]:
        return [{"op": self.ops[i].label, "pass": p, "seconds": dt, **out.bound}
                for p, i, dt, out in self.samples
                if out.status == "bound" and (k is None or p == k)]


def next_pass(rng: random.Random, run: Run, left: float) -> list[int]:
    """The next pass, in a fresh order: every cheap op not yet sampled
    MIN_SAMPLES times, whatever the time left, and every other op that still
    fits in the time left, judged by its last time.  So cheap ops get at
    least MIN_SAMPLES samples even when the machine is slow, and a heavy op
    is not started when it would overrun the run."""
    est = run.last_seconds()
    count = Counter(i for _, i, _, _ in run.samples)
    order = rng.sample(sorted(est), len(est))
    chosen = {i for i in order
              if count[i] < MIN_SAMPLES and est[i] <= CHEAP_OP_S}
    left -= sum(est[i] + OP_OVERHEAD_S for i in chosen)
    for i in order:
        cost = est[i] + OP_OVERHEAD_S
        if i not in chosen and cost <= left:
            chosen.add(i)
            left -= cost
    return [i for i in order if i in chosen]


def end_to_end(run: Run, setup_times: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Timings are normalised to the reference speed (see speed.py), since
    the shared machine's speed moves faster than a run can average out.
    Latencies are per-op medians over the passes; wall_s is the op list's
    time at those medians.  Counts and shares are over the op list, each op
    counted once.  The raw timings are in the detail."""
    status = [out.status for _, _, _, out in run.samples[:len(run.ops)]]
    decided, bounded = status.count("ok"), status.count("bound")

    def timings(lat: list[float], setup: list[float]) -> dict:
        lat = sorted(lat)
        wall = sum(lat)
        return {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall, "s"),
            "ops_per_s": (decided / wall, "1/s"),
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "op_tail_ms": (lat[rank - 1] * 1e3, "ms"),
        }

    # the highest percentile with TAIL_BEYOND ops beyond it
    n = len(run.ops)
    rank = max(1, n - TAIL_BEYOND)
    metrics = timings(list(run.op_medians(normalised=True).values()),
                      [norm for _, norm in setup_times])
    # peak memory of the op list run once, in list order: later passes run
    # a seeded share of the ops, so their peak depends on the seed
    metrics["peak_rss_mb"] = (run.pass_rss_mb[0], "MB")
    metrics["bound_share"] = (bounded / n, "share")
    raw = timings(list(run.op_medians().values()),
                  [raw for raw, _ in setup_times])
    sampler = run.sampler
    detail = {"op_tail": {"percentile": 100 * rank / n, "ops": n,
                          "beyond": n - rank},
              "passes": len(run.pass_walls), "pass_walls_s": run.pass_walls,
              "pass_rss_mb": run.pass_rss_mb,
              "ops": n, "setup_times_s": setup_times,
              "decided": decided, "bounded": bounded,
              "raw": {k: v for k, (v, _) in raw.items()},
              "speed": {"samples": len(sampler.times),
                        "kernel_s_quartiles": statistics.quantiles(sampler.times, n=4),
                        "ref_kernel_s": speed.REF_KERNEL_S,
                        "sampler_s": sampler.stolen}}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def per_layer(run: Run, tracer, untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics of the traced pass (pass 1)."""
    tot = tracer.layer_totals()
    bounds = run.bounds(1)

    def bound_count(kind: str, module: str | None = None) -> int:
        return sum(1 for b in bounds if b["kind"] == kind
                   and (module is None or b["module"] == module))

    def bound_s(pred) -> float:
        return sum(b["seconds"] for b in bounds if pred(b))

    loc = {}
    morphisms_out = 0
    for i, status in tracer.loc_status.items():
        if tracer.is_entry(i):
            loc[status] = loc.get(status, 0) + 1
            if status == "ok":
                morphisms_out += tracer.morphisms.get(i, 0)
    decided_s = sum(dt for p, _, dt, out in run.samples
                    if p == 1 and out.status == "ok")
    check_ops = isinstance(run.ops[0], workloads.CheckOp)
    check_bound_s = sum(b["seconds"] for b in bounds) if check_ops else 0.0
    m = {
        "generator.calls": (tot["generator"]["calls"], "count"),
        "generator.self_s": (tot["generator"]["self_s"], "s"),
        "generator.exhausted": (bound_count("GenerationExhausted"), "count"),
        "core.self_s": (tot["core"]["self_s"], "s"),
        "core.validate_calls": (tot["core"]["validate_calls"], "count"),
        "core.validate_self_s": (tot["core"]["validate_self_s"], "s"),
        "diagrams.self_s": (tot["diagrams"]["self_s"], "s"),
        "diagrams.validate_self_s": (tot["diagrams"]["validate_self_s"], "s"),
        "constructions.self_s": (tot["constructions"]["self_s"], "s"),
        "constructions.morphisms_built":
            (tot["constructions"]["morphisms_built"], "count"),
        "constructions.size_bound":
            (bound_count("SizeBoundExceeded", "constructions"), "count"),
        "constructions.size_bound_s":
            (bound_s(lambda b: b["kind"] == "SizeBoundExceeded"
                     and b["module"] == "constructions"), "s"),
        "grothendieck.self_s": (tot["grothendieck"]["self_s"], "s"),
        "grothendieck.morphisms_built":
            (tot["grothendieck"]["morphisms_built"], "count"),
        "limits.self_s": (tot["limits"]["self_s"], "s"),
        "limits.morphisms_built": (tot["limits"]["morphisms_built"], "count"),
        "limits.size_bound": (bound_count("SizeBoundExceeded", "limits"), "count"),
        "equiv.calls": (tot["equiv"]["calls"], "count"),
        "equiv.self_s": (tot["equiv"]["self_s"], "s"),
        "equiv.budget_exceeded": (bound_count("SearchBudgetExceeded"), "count"),
        "equiv.budget_s":
            (bound_s(lambda b: b["kind"] == "SearchBudgetExceeded"), "s"),
        "localization.self_s": (tot["localization"]["self_s"], "s"),
        "localization.ok": (loc.get("ok", 0), "count"),
        "localization.word_bound": (loc.get("word-bound", 0), "count"),
        "localization.size_bound": (loc.get("size-bound", 0), "count"),
        "localization.bound_s":
            (bound_s(lambda b: b["module"] == "localization"), "s"),
        "localization.morphisms_out": (morphisms_out, "count"),
        "io_formats.self_s": (tot["io_formats"]["self_s"], "s"),
        "io_formats.bytes": (tot["io_formats"]["bytes"], "B"),
        "checks.self_s": (tot["checks"]["self_s"], "s"),
        "checks.bound_s": (check_bound_s, "s"),
        "checks.useful_share": (decided_s / traced_wall, "share"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# -- one workload ----------------------------------------------------------------


def run_workload(args) -> dict:
    load_start = loadavg()
    ops, setup_times = setup(args.workload)
    rng = random.Random(f"{args.workload}/{args.seed}")
    probe = workloads.BoundProbe()
    probe.install()
    run = Run(ops, None if args.trace else speed.Sampler())
    spans_path = None
    try:
        if not args.trace:
            t0 = perf_counter()
            order = list(range(len(ops)))  # the first pass in list order
            with run.sampler:
                while order:
                    run.run_pass(order, probe)
                    order = next_pass(rng, run,
                                      args.seconds - (perf_counter() - t0))
            metrics, detail = end_to_end(run, setup_times)
        else:
            from tracing import Tracer

            order = rng.sample(range(len(ops)), len(ops))
            untraced = run.run_pass(order, probe)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run.run_pass(order, probe, tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(run, tracer, untraced, traced)
            detail = {"spans": len(tracer), "untraced_wall_s": untraced,
                      "traced_wall_s": traced,
                      "layer_share": layer_shares(metrics)}
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.txt"
            tracer.write(str(spans_path))
    finally:
        probe.uninstall()
    result = {
        "correct": run.failed() == 0, "attempted": len(run.samples),
        "failed": run.failed(), "metrics": metrics, "detail": detail,
        "failures": run.failures, "bounds": run.bounds(), "ops": run.per_op(),
        "samples": [[k, run.ops[i].label, dt] for k, i, dt, _ in run.samples],
        "spans_file": str(spans_path.relative_to(ROOT)) if spans_path else None,
        "meta": metadata(args, load_start),
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def layer_shares(metrics: dict) -> dict:
    """Each layer's share of the summed traced self time."""
    selfs = {k.split(".")[0]: v["value"] for k, v in metrics.items()
             if k.endswith(".self_s")}
    total = sum(selfs.values()) or 1.0
    return {k: v / total for k, v in selfs.items()}


def contract_line(result: dict, names: list[str]) -> str:
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: result["metrics"][k] for k in names}})


def benchmark_metric_names(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


# -- every workload --------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced, printing every
    metric by name with its unit."""
    ok = True
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or len(lines) < 2:
                print(f"{workload} trace={trace}: exit {r.returncode}\n{r.stderr}")
                ok = False
                continue
            full = json.loads(lines[-2])
            ok &= full["correct"]
            print(f"== {workload} trace={trace} correct={full['correct']} "
                  f"attempted={full['attempted']} failed={full['failed']}")
            for name, m in full["metrics"].items():
                print(f"   {name:32s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "laxcat" / "__init__.py").is_file():
        print(f"perfbench: no laxcat sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    names = benchmark_metric_names(args.trace)
    result = run_workload(args)
    print(json.dumps(result))
    print(contract_line(result, names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
