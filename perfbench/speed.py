"""The machine's speed, sampled while the benchmark runs, and op times
normalised by it.

The benchmark runs on a few cores of a shared host, whose speed for this
process moves by up to a factor of two within a second, as other tenants come
and go on the same cores.  Raw op times follow it, so two runs of the same
code can differ by more than any useful regression bound.  The sampler times a
fixed pure-Python kernel every ``INTERVAL`` seconds of this process's CPU time
(a ``SIGPROF`` timer, so samples land inside long ops too) and between ops.
An op's normalised time is its raw time scaled by the machine's mean speed
around and during the op, relative to ``REF_KERNEL_S``: the seconds the op
would have taken at the reference speed.  The kernel is the benchmark's own
code, so a change to laxcat cannot move it.

The kernel is a small tree of ``__slots__`` objects walked by method calls
and sorted by a key function; of the kernels tried it tracked laxcat's op
times best (a slope near 1 between log kernel time and log op time).  It runs
with the collector off, so laxcat's heap does not change its cost.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

INTERVAL = 0.02  # seconds of process CPU time between timer samples
NEIGHBOURS = 3  # samples taken on each side of an op, beside those inside it
# the kernel's median time on a quiet 2-vCPU Xeon VM, Python 3.11.7
REF_KERNEL_S = 2.6e-4
_NODES = 300


class _Node:
    __slots__ = ("key", "kids", "val")

    def __init__(self, key: int, val: int) -> None:
        self.key = key
        self.kids: list[_Node] = []
        self.val = val

    def add(self, node: "_Node") -> None:
        self.kids.append(node)

    def total(self) -> int:
        t = self.val
        for k in self.kids:
            t += k.total()
        return t


def kernel() -> int:
    """A fixed amount of pure-Python work: build, walk and sort a tree."""
    was = gc.isenabled()
    gc.disable()
    try:
        nodes = [_Node(i % 17, i) for i in range(_NODES)]
        for i in range(1, _NODES):
            nodes[(i - 1) // 3].add(nodes[i])
        ranked = sorted(nodes, key=lambda n: (n.key, -n.val))
        return nodes[0].total() + ranked[0].val + sum(
            1 for n in ranked if n.key in {1, 3, 5})
    finally:
        if was:
            gc.enable()


class Sampler:
    """Kernel times (start, seconds), taken on a CPU-time timer and on
    request.  ``stolen`` is the total time spent in the timer's samples, which
    an op's raw time must not include."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.times: list[float] = []
        self.stolen = 0.0
        self._busy = False
        self._old = None

    def sample(self) -> float:
        """Time the kernel once; returns the seconds the sample took.  A
        timer sample that falls inside another sample is dropped."""
        t = perf_counter()
        if self._busy:
            return 0.0
        self._busy = True
        try:
            kernel()
            dt = perf_counter() - t
            self.starts.append(t)
            self.times.append(dt)
        finally:
            self._busy = False
        return perf_counter() - t

    def _on_timer(self, signum, frame) -> None:
        self.stolen += self.sample()

    def __enter__(self) -> "Sampler":
        """Start the timer samples."""
        self._old = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old)

    def speed(self, a: float, b: float) -> float:
        """The mean speed relative to the reference over [a, b]: the mean of
        REF_KERNEL_S / kernel time over the samples inside the interval and
        NEIGHBOURS on each side of it.  Work done is speed integrated over
        time, so the mean is taken of speeds, not of kernel times."""
        lo = max(0, bisect_left(self.starts, a) - NEIGHBOURS)
        hi = min(len(self.starts), bisect_right(self.starts, b) + NEIGHBOURS)
        window = self.times[lo:hi]
        if not window:
            raise ValueError("no speed samples")
        return sum(REF_KERNEL_S / c for c in window) / len(window)
