"""The benchmark's outputs, pinned: every op of the three workloads in
``perfbench/workloads.py`` runs once, with ``BoundProbe`` installed, and one
sha256 over each op's (label, status, sha256 of its canonical output, bound
record) must equal ``PINNED``.

So a change that moves any op's verdict, skip, bound record or canonical
bytes fails here.  The constant moves only together with a CHANGES.md list
of the ops whose status changed (a bound-skip that became a pass, say) and
why; a change that claims byte-identical outputs leaves it alone.

``perfbench/workloads.py`` is imported read-only, without writing bytecode
next to it, and nothing under ``perfbench/`` is changed.
"""

import hashlib
import importlib.util
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS_PY = ROOT / "perfbench" / "workloads.py"

# 192 limit-checks ops, 31 colim-probe ops and 40 localize ops
N_OPS = 263
PINNED = "ab7be163138daffc78e45c3776575f654c27ad259baf7c3c98ecaefbea382a8c"


def _workloads():
    name = "_pinned_perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_benchmark_op_keeps_its_output():
    workloads = _workloads()
    probe = workloads.BoundProbe()
    probe.install()
    try:
        rows = []
        for name in workloads.WORKLOADS:
            for op in workloads.build(name):
                out = op.run(probe)
                rows.append([op.label, out.status, _sha256(out.output), out.bound])
    finally:
        probe.uninstall()
        del sys.modules["_pinned_perfbench_workloads"]
    assert len(rows) == N_OPS
    failed = [(label, status) for label, status, _, _ in rows if status == "fail"]
    assert not failed, f"ops failed the benchmark's output gate: {failed}"
    assert _sha256(json.dumps(rows, sort_keys=True)) == PINNED
