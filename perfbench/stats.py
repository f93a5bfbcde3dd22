"""Summary statistics with the benchmark's tail-percentile rule."""

from __future__ import annotations

import statistics

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def min_samples_for(q: float) -> int:
    """Fewest samples that leave ``MIN_TAIL_SAMPLES`` beyond the q-th percentile."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    tail = (100.0 - q) / 100.0
    # Round before ceiling: 10 / 0.1 is 100.00000000000001 in binary floats.
    needed = round(MIN_TAIL_SAMPLES / tail, 9)
    return int(-(-needed // 1))


def tail_percentile(samples, q: float) -> float:
    """The q-th percentile, interpolated linearly between order statistics.

    This is ``statistics.quantiles``' inclusive method, numpy's default.

    Raises ``ValueError`` when fewer than ``MIN_TAIL_SAMPLES`` samples lie
    beyond it: a p90 needs at least 100 samples.
    """
    data = [float(s) for s in samples]
    needed = min_samples_for(q)
    if len(data) < needed:
        raise ValueError(
            f"p{q:g} needs at least {needed} samples "
            f"({MIN_TAIL_SAMPLES} beyond it), got {len(data)}"
        )
    cuts = statistics.quantiles(data, n=1000, method="inclusive")
    return cuts[int(round(q * 10)) - 1]

