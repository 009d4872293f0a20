"""Sample summaries used by every workload.

Percentiles are nearest-rank over the sorted samples. A percentile is
reported only when at least ten samples lie beyond it, so a p99 needs
1,000 samples; `percentile` raises instead of printing a tail that one
outlier decides.

Latency percentiles are taken over all samples of a run, pooled. On a
shared host the speed can sit at a slow level for tens of seconds at a
time. A pooled percentile moves smoothly with the share of the run
spent at that level; a median over windows jumps from one level to the
other when that share crosses one half.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def samples_needed(p: float) -> int:
    """Fewest samples for which `p` (0..100) has MIN_BEYOND samples
    beyond it."""
    return math.ceil(round(MIN_BEYOND * 100 / (100 - p), 6))


def percentile(values, p: float) -> float:
    """Nearest-rank `p`-th percentile; raises ValueError when fewer
    than MIN_BEYOND samples lie beyond it (or when p is the median of
    an empty list)."""
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        raise ValueError("percentile of no samples")
    if p > 50 and n < samples_needed(p):
        raise ValueError(
            f"p{p:g} needs {samples_needed(p)} samples, got {n}")
    rank = max(1, math.ceil(p / 100 * n))
    return float(vals[rank - 1])


def median(values) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))
