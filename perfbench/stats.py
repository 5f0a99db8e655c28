"""Percentiles for latency samples."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of ``pct`` among ``n`` samples."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def nearest_rank(samples: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile of ``samples``."""
    ordered = sorted(samples)
    return ordered[_rank(pct, len(ordered)) - 1]


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> float | None:
    """The highest candidate percentile with ``min_beyond`` or more of
    ``n`` samples above its rank; ``None`` when even the median has
    too few."""
    for pct in TAIL_CANDIDATES:
        if n - _rank(pct, n) >= min_beyond:
            return pct
    return None


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)
