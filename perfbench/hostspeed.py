"""The host's speed, measured by a fixed kernel between timed segments of work.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes, the same for every process: the same stretch of
interpreter and small-array work can take 1.5x as long as it did a
minute earlier.  A wall-clock time measured in such a spell says more
about the neighbours than about the program.

Two things make a host slow, and each is measured on the CPUs the timed
work runs on:

- *Speed while running.*  Every timed segment is bracketed by two probes
  of :func:`kernel`, a fixed mix of Python-level loops, small numpy
  operations and an im2col-sized GEMM (the mix the program itself runs).
  The kernel imports nothing from the repository and allocates nothing,
  so neither a change to the program nor the state of the allocator can
  move it.  A probe is the fastest of a few kernel runs, so it does not
  see the second thing.
- *Time taken away.*  The hypervisor runs other guests on a vCPU that
  wants to run; the kernel counts that as steal time (``/proc/stat``).
  On the reference host it took from nothing to 45% of a segment.

A segment's *slowness* is the mean of its two probes over
:data:`NOMINAL_S`, divided by the share of the segment's wall time not
stolen, and the benchmark reports ``wall / slowness``: the time the
segment would have taken on a host where the kernel takes ``NOMINAL_S``
and nothing is stolen.  A change to the program moves the segment and
neither the kernel nor the steal, so it moves the reported time in full.
The exception: the probes run while the program waits, so a program
that keeps a CPU busy while idle (a spinning thread) slows the probes
too and hides part of its own cost.  ``README.md`` gives what the
scaling was measured to remove.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: The kernel's time on the reference host, rounded (a 2-vCPU shared VM,
#: OpenBLAS limited to one thread; it read 6-10 ms there).  Reported
#: times are scaled to a host where the kernel takes this long.
NOMINAL_S = 0.010

#: Kernel runs per probe; the probe is the fastest, so a run hit by an
#: interrupt or a preemption does not count.
RUNS = 3

_rng = np.random.default_rng(20250401)
_SQUARE = _rng.normal(size=(64, 64))
_IMAGES = _rng.normal(size=(64, 3, 16, 16))
_WEIGHTS = _rng.normal(size=(3,))
_COLUMNS = _rng.normal(size=(4096, 144))
_FILTERS = _rng.normal(size=(144, 16))
# Outputs are written in place: a fresh array of this size would come
# from mmap, and page faults cost more or less with the allocator's state.
_SQUARE_OUT = np.empty_like(_SQUARE)
_IMAGES_OUT = np.empty_like(_IMAGES)
_MIXED_OUT = np.empty((64, 16, 16))
_FEATURES_OUT = np.empty((4096, 16))


def kernel() -> None:
    """Fixed work: a dict-and-integer loop, small array operations, one GEMM."""
    acc, table = 0, {}
    for i in range(20000):
        acc += i % 7
        table[i & 255] = acc
    for __ in range(12):
        np.matmul(_SQUARE, _SQUARE, out=_SQUARE_OUT)
        np.multiply(_IMAGES, 0.5, out=_IMAGES_OUT)
        np.tanh(_IMAGES_OUT, out=_IMAGES_OUT)
        np.einsum("bchw,c->bhw", _IMAGES, _WEIGHTS, out=_MIXED_OUT)
    for __ in range(3):
        np.matmul(_COLUMNS, _FILTERS, out=_FEATURES_OUT)
        np.maximum(_FEATURES_OUT, 0.0, out=_FEATURES_OUT)


def probe() -> float:
    """Seconds one :func:`kernel` run takes now: the fastest of ``RUNS``."""
    times = []
    for __ in range(RUNS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return min(times)


def stolen_seconds(cpus: set[int]) -> float:
    """Steal time of ``cpus`` since boot, summed, in seconds."""
    names = {f"cpu{cpu}" for cpu in cpus}
    ticks = 0
    with open("/proc/stat", encoding="ascii") as handle:
        for line in handle:
            fields = line.split()
            if fields[0] in names:
                ticks += int(fields[8])
    return ticks / os.sysconf("SC_CLK_TCK")


class HostSpeed:
    """Slowness of the host over consecutive timed segments.

    Create it just before the first segment starts and call
    :meth:`segment` just after each one ends.  The probe that closes one
    segment also opens the next, so untimed work between two segments
    should be short.
    """

    def __init__(self, cpus: set[int] | None = None) -> None:
        """``cpus``: where the timed work runs (default: where this process
        may run).  The probes run there and its steal time counts."""
        self.cpus = cpus or os.sched_getaffinity(0)
        #: Seconds spent in probes so far.
        self.probing = 0.0
        self.slowness: list[float] = []
        self.before = self._probe()
        self.mark = self._clocks()

    def _probe(self) -> float:
        start = time.perf_counter()
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, self.cpus)
        try:
            seconds = probe()
        finally:
            os.sched_setaffinity(0, allowed)
        self.probing += time.perf_counter() - start
        return seconds

    def _clocks(self) -> tuple[float, float]:
        return time.perf_counter(), stolen_seconds(self.cpus)

    def segment(self) -> float:
        """Slowness over the segment that just ended (1.0 = reference host)."""
        (began, stolen_then), (now, stolen) = self.mark, self._clocks()
        stolen_share = (stolen - stolen_then) / len(self.cpus) / (now - began)
        after = self._probe()
        self.mark = self._clocks()
        # Steal is counted in clock ticks, so a short segment can read more
        # than it lost; the cap keeps the divisor away from 0.
        running = 1.0 - min(stolen_share, 0.9)
        slowness = (self.before + after) / 2.0 / NOMINAL_S / running
        self.before = after
        self.slowness.append(slowness)
        return slowness


class SegmentTimer:
    """Time of one unit of work, cut into segments where the host is probed.

    Each segment's wall time is divided by the slowness around it, and the
    probes themselves are not counted.  The first segment starts when the
    timer is made; call :meth:`cut` at each segment's end, the unit's end
    included.
    """

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        #: Scaled seconds of the segments cut so far.
        self.seconds = 0.0
        self.mark = time.perf_counter()

    def cut(self) -> None:
        wall = time.perf_counter() - self.mark
        self.seconds += wall / self.speed.segment()
        self.mark = time.perf_counter()
