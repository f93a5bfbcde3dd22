"""Contention-corrected timing: a calibration probe measured beside the work.

On a shared host the CPU time of a fixed piece of work is not fixed. When a
co-located guest runs on the sibling hardware thread, the same
fleet-ape-4096 round takes about 70 ms of CPU time instead of 42 ms. Those
phases last seconds, so a 20-second run can fall mostly in one or the other.
Neither steal-free CPU time nor any percentile removes that.

The benchmark therefore runs a small fixed kernel, the probe, next to every
timed interval: after each round and around each trainer construction.
Interpreter work plus sums over an array that fits the 4 MiB L2 cache slow
down by about the same factor as fleet-ape-4096 and semisync-straggler-strict
rounds when the sibling thread is busy (1.6-1.7x). Each interval is
rescaled by ``REFERENCE_PROBE_S / probe``: the time the interval would have
taken had the probe run at its reference speed. With contention induced on
the other vCPU, this cut the variation of 10-round medians from 20% to 7% on
fleet-ape-4096 and from 16% to 7% on semisync-straggler-strict.
mnist-mlp-lossy rounds, dominated by long numpy kernels, slow down less than
the probe, so the rescaling over-corrects them slightly (9% either way).
Raw CPU seconds stay in the ``samples`` output line.
"""

from __future__ import annotations

import statistics
from typing import Callable

import numpy as np

from perfbench.workloads import CLOCK

#: Probe CPU time the rescaled figures refer to. It is a fixed constant, so
#: figures from different runs, and from a parent and a child commit, share
#: one scale. It is close to the probe's uncontended time on the 2-vCPU
#: Xeon KVM guest the benchmark was built on.
REFERENCE_PROBE_S = 1.0e-3

#: Probes around each round gap whose median rescales it: wide enough to
#: outvote one probe hit by an interrupt, narrow next to a contention phase
#: (seconds, tens of rounds).
GAP_PROBE_WINDOW = 9

#: Interpreter iterations and L2-resident array sums per probe.
_LOOP_ITERATIONS = 20_000
_ARRAY_SUMS = 16
_ARRAY_ELEMENTS = 1 << 16


class Probe:
    """The fixed calibration kernel; remembers every duration it measured."""

    def __init__(self):
        self._array = np.ones(_ARRAY_ELEMENTS)
        self.samples: list[float] = []

    def __call__(self) -> float:
        start = CLOCK()
        total = 0
        for i in range(_LOOP_ITERATIONS):
            total += i
        for _ in range(_ARRAY_SUMS):
            self._array.sum()
        elapsed = CLOCK() - start
        self.samples.append(elapsed)
        return elapsed

    def scale(self) -> float:
        """Rescaling factor for work spread over every probed interval."""
        return REFERENCE_PROBE_S / statistics.median(self.samples)


def timed(probe: Probe, work):
    """Run ``work()``; return its result and its rescaled duration."""
    before = probe()
    start = CLOCK()
    result = work()
    elapsed = CLOCK() - start
    after = probe()
    return result, elapsed * REFERENCE_PROBE_S / ((before + after) / 2)


class RoundTimer:
    """Rescaled time between consecutive round completions.

    Subscribe it with ``trainer.add_round_observer`` and call :meth:`start`
    right before the drive. Each completion records the clock, then runs
    the probe; the gap to the next completion excludes the probe's own time
    and is rescaled by the median of the ``GAP_PROBE_WINDOW`` probes
    centred on it.
    """

    def __init__(self, probe: Callable[[], float]):
        self.probe = probe
        #: ``(clock before the probe, clock after it, probe duration)``.
        self.marks: list[tuple[float, float, float]] = []

    def start(self) -> None:
        self._mark()

    def __call__(self, record) -> None:
        self._mark()

    def _mark(self) -> None:
        before = CLOCK()
        duration = self.probe()
        self.marks.append((before, CLOCK(), duration))

    def gaps(self) -> list[float]:
        """One rescaled duration per completed round, in seconds."""
        probes = [duration for _, _, duration in self.marks]
        half = GAP_PROBE_WINDOW // 2
        out = []
        for index in range(1, len(self.marks)):
            begin, end = self.marks[index][0], self.marks[index - 1][1]
            window = probes[max(0, index - half) : index + half + 1]
            out.append((begin - end) * REFERENCE_PROBE_S / statistics.median(window))
        return out

    def raw_seconds(self) -> float:
        """Unscaled clock time of all gaps (probes excluded)."""
        return sum(
            begin - end
            for (_, end, _), (begin, _, _) in zip(self.marks, self.marks[1:])
        )
