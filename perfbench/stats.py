"""Small statistics the benchmark reports with: percentiles, spreads, the
open-loop rate ladder rule and the metric-name check."""
from __future__ import annotations

import math
import re
import statistics

__all__ = [
    "MIN_BEYOND",
    "METRIC_NAME",
    "check_metric_name",
    "percentile",
    "supported_percentile",
    "latency_summary",
    "quartile_spread",
    "LadderStep",
    "max_sustained_rate",
]

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10
CANDIDATE_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def check_metric_name(name: str) -> str:
    """``name`` if it is a legal metric name (starts with a letter or digit,
    at most 64 characters of ``[A-Za-z0-9_.-]``); raises ValueError otherwise."""
    if (not isinstance(name, str) or len(name) > 64
            or METRIC_NAME.fullmatch(name) is None or not name[0].isalnum()):
        raise ValueError(f"illegal metric name {name!r}")
    return name


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` sorted values."""
    # Rounding first keeps e.g. 99.9% of 10000 at rank 9990, not 9991.
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``% of
    the samples at or below it."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    return data[_rank(q, len(data)) - 1]


def supported_percentile(n: int, candidates=CANDIDATE_PERCENTILES) -> float | None:
    """Highest candidate percentile with at least ``MIN_BEYOND`` of ``n``
    samples strictly beyond its nearest rank; None if even the median is not."""
    best = None
    for q in candidates:
        if n - _rank(q, n) >= MIN_BEYOND:
            best = q
    return best


def latency_summary(values) -> dict:
    """Median, the highest supported tail percentile, and the sample count."""
    data = sorted(values)
    n = len(data)
    tail = supported_percentile(n)
    return {
        "n": n,
        "p50": percentile(data, 50.0) if n else None,
        "tail_q": tail,
        "tail": percentile(data, tail) if tail is not None else None,
    }


def quartile_spread(values) -> tuple[float, float, float]:
    """(median, IQR, IQR/median) with Python's ``statistics.quantiles``."""
    data = list(values)
    med = statistics.median(data)
    if len(data) < 2:
        return med, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(data, n=4)
    iqr = q3 - q1
    return med, iqr, (iqr / abs(med) if med else float("inf"))


class LadderStep:
    """One offered rate of the open-loop ladder and what it achieved."""

    def __init__(self, rate: float, latencies_ms, failed: int = 0,
                 backlog_growing: bool = False):
        self.rate = rate
        self.latencies_ms = list(latencies_ms)
        self.failed = failed
        self.backlog_growing = backlog_growing

    def meets(self, limit_ms: float, q: float) -> bool:
        """Zero failures, a steady backlog, enough samples for percentile
        ``q``, and that percentile within ``limit_ms``."""
        if self.failed or self.backlog_growing:
            return False
        n = len(self.latencies_ms)
        if n == 0 or n - _rank(q, n) < MIN_BEYOND:
            return False
        return percentile(self.latencies_ms, q) <= limit_ms


def max_sustained_rate(steps, limit_ms: float, q: float) -> float:
    """Highest rate of an ascending ladder whose step, and every lower step,
    meets the limit; 0.0 when the first step already fails."""
    best = 0.0
    for step in sorted(steps, key=lambda s: s.rate):
        if not step.meets(limit_ms, q):
            break
        best = step.rate
    return best
