"""A fixed reference kernel that measures how fast the host runs right now.

Shared virtual machines change speed from moment to moment: on the machine
the benchmark was tuned on, a fixed 13 ms loop ranged from 7 ms to over
30 ms, and whole minutes ran 20-40% slow.  The benchmark therefore runs
this kernel right before and right after every segment it times, and about
every ``PERIOD_S`` seconds inside them, and reports each segment in
*reference seconds*: its measured time, less the kernel's own, scaled by
the kernel's time on the reference machine over its mean time sampled
around and inside the segment.  Reference seconds stay put when the host
slows down and move when the program does.

The kernel calls nothing from stratclass, so no change to the package can
speed it up or slow it down.  It has two halves, one like each kind of
work the package does: a Python loop of small numpy operations on
6-vectors, like a protocol step, and blocked pairwise squared distances
between 2048 points, like ``bounds.dataset_constants``.  Each timed span
is scaled by the half it resembles: online runs, set-up and the CSV
round-trip by the loop (``step_seconds``), ``certify``, which is nearly
all ``dataset_constants``, by the distances (``bulk_seconds``).  On the
tuning machine, over 25 s windows, the loop made the CSV round-trip
spread 0.03 instead of 0.14 raw, but ``dataset_constants`` 0.16 instead
of 0.06 raw; the distance half brought that to 0.05.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_clock = time.perf_counter

# Median times of the kernel's two halves on the machine the reference
# figures in README.md were taken on (CPython 3.11.7, numpy 2.4.6, one
# BLAS thread).
LOOP_S = 0.015
BULK_S = 0.014
# Inside a segment, a kernel sample is taken at the first online step or
# boundary call that comes at least this long after the previous sample.
PERIOD_S = 0.25

_rng = np.random.default_rng(20240327)
_ROWS = _rng.standard_normal((64, 6))
_W = _rng.standard_normal(6)
_POINTS = _rng.standard_normal((2048, 6))
_SQ = np.einsum("ij,ij->i", _POINTS, _POINTS)


def kernel() -> tuple[float, float]:
    """Run the reference kernel once; return the wall times of its two halves."""
    start = _clock()
    acc = 0.0
    for i in range(3000):
        x = _ROWS[i & 63]
        acc += float(x @ _W) + float(np.linalg.norm(x - _W))
    mid = _clock()
    for lo in (0, 512):
        block = _POINTS[lo : lo + 512]
        acc += float(np.max(_SQ[lo : lo + 512, None] + _SQ[None, :] - 2.0 * block @ _POINTS.T))
    end = _clock()
    if acc != acc:  # keeps the results live; never true for these inputs
        raise AssertionError("reference kernel produced nan")
    return mid - start, end - mid


def step_seconds(seconds: float, speed: tuple[float, float]) -> float:
    """Reference seconds of interpreter-bound work timed at ``speed`` (``HostSampler.close``)."""
    return seconds * LOOP_S / speed[0]


def bulk_seconds(seconds: float, speed: tuple[float, float]) -> float:
    """Reference seconds of whole-array work timed at ``speed``."""
    return seconds * BULK_S / speed[1]


class HostSampler:
    """Kernel samples that split a round into segments, and each segment's speed.

    ``sample`` runs the kernel; ``maybe_sample`` runs it when ``PERIOD_S``
    has passed since the last sample.  Both return the time they took, for
    the caller to take out of what it was timing.  ``close`` ends a
    segment: it samples once more and returns the mean time of each half
    over the samples since the previous ``close``, that one included, for
    ``step_seconds`` or ``bulk_seconds``.
    """

    def __init__(self):
        self.kernel_s = 0.0  # all time spent sampling so far
        self._window: list[tuple[float, float]] = []
        self._last = 0.0

    def sample(self) -> float:
        start = _clock()
        self._window.append(kernel())
        self._last = _clock()
        self.kernel_s += self._last - start
        return self._last - start

    def maybe_sample(self) -> float:
        return self.sample() if _clock() - self._last >= PERIOD_S else 0.0

    def close(self) -> tuple[float, float]:
        self.sample()
        speed = (statistics.fmean(w[0] for w in self._window), statistics.fmean(w[1] for w in self._window))
        self._window = self._window[-1:]
        return speed
