"""Acceptance suite: every top-level claim, one pass/fail line each.

Each criterion prints exactly one line, "PASS <criterion>: <summary>" or
"FAIL <criterion>: <summary>", then asserts.  Run with -s (or read captured
output) to see the lines.
"""

import sys
import time

from laxcat.checks import run_check
from laxcat.cli import main
from laxcat.core import sharp_marking, terminal_cat, walking_arrow, flat_marking
from laxcat.equiv import is_equivalent
from laxcat.generator import GenParams, gen_category
from laxcat.io_formats import canonical_json
from laxcat.localization import localize

JOBS = 4


def _line(name: str, ok: bool, summary: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {summary}",
          file=sys.stderr, flush=True)
    assert ok, f"{name}: {summary}"


def _suite(name: str, theorem: str, count: int, max_skip: int | None = None,
           time_limit: float | None = None, jobs: int = JOBS):
    r = run_check(theorem, seed=0, count=count, jobs=jobs)
    non_skipped = r.instances - r.bound_exceeded
    ok = not r.failures and r.passes == non_skipped
    if max_skip is not None:
        ok = ok and r.bound_exceeded <= max_skip
    if time_limit is not None:
        ok = ok and r.wall_time <= time_limit
    _line(name, ok,
          f"{r.passes}/{non_skipped} non-skipped passed, "
          f"{len(r.failures)} failed, {r.bound_exceeded} bound-skipped, "
          f"{r.wall_time:.1f}s")
    return r


def test_criterion_01_lax_limit_vs_marked_sections():
    # end-formula lax limit equivalent to marked sections, 200 instances,
    # at most 5% bound-skips, under 10 minutes
    _suite("criterion-01 thm-lax-lim", "thm-lax-lim", 200,
           max_skip=10, time_limit=600.0)


def test_criterion_02_oplax_limit_vs_cartesian_sections():
    _suite("criterion-02 thm-oplax-lim", "thm-oplax-lim", 200,
           max_skip=10, time_limit=600.0)


def test_criterion_03_colimit_mapping_out_probes():
    # mapping-out equivalence on every probe; whenever the bounded
    # localization completes the universal-property check also passes
    # (both conditions are folded into a single pass verdict per instance);
    # no instance at seed 0 skips: the end formula reads few enough of each
    # Fun† fiber that none reaches the Fun† morphism cap (instances 7, 10,
    # 42 and 87 did while the fibers were built whole)
    _suite("criterion-03 thm-lax-colim-probe", "thm-lax-colim-probe", 100,
           max_skip=0)


def test_criterion_04_sharp_collapse():
    _suite("criterion-04 prop-sharp-limit", "prop-sharp-limit", 50)


def test_criterion_05_flat_reduction():
    _suite("criterion-05 ghn-flat", "ghn-flat", 50)


def test_criterion_06_cofinality():
    t0 = time.monotonic()
    rl = run_check("cofinality-left", seed=0, count=200, jobs=JOBS)
    rr = run_check("cofinality-right", seed=0, count=200, jobs=JOBS)
    elapsed = time.monotonic() - t0
    ok = (rl.passes == 200 and rr.passes == 200
          and not rl.failures and not rr.failures and elapsed <= 60.0)
    _line("criterion-06 cofinality", ok,
          f"{rl.passes + rr.passes}/400 passed, {elapsed:.1f}s")


def test_criterion_07_marked_limits():
    _suite("criterion-07 marked-limit", "marked-limit", 50)


def test_criterion_08_pullback_square():
    _suite("criterion-08 pullback-remark", "pullback-remark", 100)


def test_criterion_09_fully_faithful_limits():
    _suite("criterion-09 ff-lemma", "ff-lemma", 50)


def test_criterion_10_localization_units(tmp_path):
    flat_ok = 0
    for s in range(25):
        C = gen_category(GenParams(seed=s))
        r = localize(flat_marking(C))
        if r.ok and is_equivalent(r.cat, C):
            flat_ok += 1
    sharp_r = localize(sharp_marking(walking_arrow()))
    sharp_ok = bool(sharp_r.ok and is_equivalent(sharp_r.cat, terminal_cat()))
    pres = {"objects": ["x"],
            "arrows": [{"id": "m", "src": "x", "tgt": "x"},
                       {"id": "inv_m", "src": "x", "tgt": "x"}],
            "relations": [
                {"lhs": ["m", "inv_m"], "rhs": [], "src": "x", "tgt": "x"},
                {"lhs": ["inv_m", "m"], "rhs": [], "src": "x", "tgt": "x"}]}
    f = tmp_path / "free.json"
    f.write_text(canonical_json(pres))
    code = main(["localize", str(f), "--word-bound", "4"])
    ok = flat_ok == 25 and sharp_ok and code == 2
    _line("criterion-10 localization-units", ok,
          f"flat {flat_ok}/25, sharp-arrow {'ok' if sharp_ok else 'bad'}, "
          f"free-monoid exit {code}")


def test_criterion_11_deterministic_reports():
    pairs = []
    for theorem, count in [("prop-sharp-limit", 50), ("cofinality-left", 50),
                           ("thm-lax-lim", 50)]:
        a = run_check(theorem, seed=0, count=count).canonical()
        b = run_check(theorem, seed=0, count=count, jobs=JOBS).canonical()
        pairs.append(a == b)
    ok = all(pairs)
    _line("criterion-11 determinism", ok,
          f"{sum(pairs)}/{len(pairs)} reports byte-identical across reruns")
