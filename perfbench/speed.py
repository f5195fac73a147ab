"""Machine-speed sampling, so that CPU-bound timings stay comparable.

On a shared machine the same pure-Python code can run up to about twice
as slowly for a second or for minutes at a time, because of the load
other tenants put on the host.  A median over one run cannot remove a
slowdown that lasts the whole run.  So the benchmark runs a fixed
pure-Python kernel on the same thread as the measured work, interleaved
with it, and reports CPU-bound times scaled to the speed at which one
kernel run takes :data:`REFERENCE_NS`.  Each stretch of measured time
between two kernel samples is scaled by the mean of those two samples::

    reported time = sum(stretch * REFERENCE_NS / mean of its two kernel times)

The machine switches between a fast and a slow state within a single
build, so scaling stretch by stretch follows it much more closely than
one factor per block does.  A faster or slower program still moves the
reported time one for one; a faster or slower machine does not.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Iterator, List

#: Kernel time (ns) that defines the reference speed.  It is about the
#: kernel's time on an idle core of a 2-core x86-64 cloud VM running
#: CPython 3.11, so reported times there read close to wall time.
REFERENCE_NS = 250_000

#: Sampling period inside a monolithic measured call (seconds).
INTERVAL_S = 0.05


def kernel_ns() -> int:
    """Run the calibration kernel once; its duration in nanoseconds."""
    began = perf_counter_ns()
    table: dict = {}
    for i in range(3000):
        key = i & 255
        table[key] = table.get(key, 0) + i
    return perf_counter_ns() - began


def factor(before: int, after: int) -> float:
    """Scale from measured to reference time for a stretch between two samples."""
    return 2 * REFERENCE_NS / (before + after)


class Window:
    """One measured block, cut into stretches by kernel samples.

    ``kernels`` holds the sample before the block, every sample taken
    inside it, and the sample after it; ``stretches[i]`` is the measured
    time between ``kernels[i]`` and ``kernels[i + 1]``.
    """

    def __init__(self, wall: bool) -> None:
        self.wall = wall
        self.kernels: List[int] = []
        self.stretches: List[int] = []
        self._mark = 0

    def sample(self) -> None:
        now = perf_counter_ns()
        self.stretches.append(now - self._mark)
        self.kernels.append(kernel_ns())
        self._mark = now if self.wall else perf_counter_ns()

    @property
    def seconds(self) -> float:
        """Measured time of the block (without the in-process kernel runs)."""
        return sum(self.stretches) / 1e9

    @property
    def scaled(self) -> float:
        """The block's time at the reference speed."""
        k = self.kernels
        return sum(s * factor(k[i], k[i + 1]) for i, s in enumerate(self.stretches)) / 1e9


@contextmanager
def sampled(wall: bool = False) -> Iterator[Window]:
    """Time a block, sampling speed before, after and every ``INTERVAL_S``.

    The periodic samples come from ``SIGALRM`` and run between bytecodes
    of the main thread, so they see the speed of the core that runs the
    block, even while it sits in one long call such as an index build.
    In-process work stands still while a sample runs, so its time is left
    out.  With ``wall`` the block is work in another process, which goes
    on meanwhile, so the sample's time stays in.
    """
    window = Window(wall)
    window.kernels.append(kernel_ns())

    def sample(signum, frame) -> None:
        window.sample()

    previous = signal.signal(signal.SIGALRM, sample)
    window._mark = perf_counter_ns()
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield window
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
        window.stretches.append(perf_counter_ns() - window._mark)
        window.kernels.append(kernel_ns())
