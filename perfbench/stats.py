"""Order statistics for round timings, and the run-length rules built on them.

A tail percentile is only trusted when at least ``MIN_BEYOND`` samples lie
beyond it; with fewer, one slow round decides the value.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10
PROCESSES = 3  # workload processes per end-to-end run; their rounds are pooled
MAX_SECONDS_FACTOR = 3  # run.py stops a run not ended by this many times --seconds, plus set-up time


def percentile(samples, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method), q in [0, 1]."""
    values = sorted(samples)
    if not values:
        raise ValueError("percentile of an empty sample")
    pos = q * (len(values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def median(samples) -> float:
    return percentile(samples, 0.5)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the q-th percentile's position."""
    return n - 1 - math.floor(q * (n - 1)) if n else 0


def min_samples(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count whose q-th percentile has ``min_beyond`` beyond it."""
    n = 1
    while samples_beyond(n, q) < min_beyond:
        n += 1
    return n


def tail_rule_met(n: int, q: float, min_beyond: int = MIN_BEYOND) -> bool:
    return samples_beyond(n, q) >= min_beyond

