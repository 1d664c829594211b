"""Small statistics utilities used across the harness."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean — the paper's aggregate for per-benchmark speedups."""
    values = list(values)
    if not values:
        raise ValueError("geometric mean of nothing")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Histogram:
    """Fixed-width bucket histogram for latency/queue-depth profiles.

    Values at or beyond ``max_buckets * bucket_width`` land in an
    explicit **overflow** bucket rather than being silently folded into
    the last regular bucket — folding made a tail of 10000-cycle
    latencies indistinguishable from a cluster just past the range, and
    percentiles reported from the clamped bucket understated the tail
    by an unbounded amount.  A percentile that falls in the overflow
    region returns ``math.inf``: "beyond the histogram's range" is an
    answer, a fabricated finite edge is not.
    """

    def __init__(self, bucket_width: float, max_buckets: int = 256) -> None:
        if bucket_width <= 0:
            raise ValueError("bucket width must be positive")
        if max_buckets < 1:
            raise ValueError("need at least one bucket")
        self.bucket_width = bucket_width
        self.max_buckets = max_buckets
        self._buckets: Dict[int, int] = {}
        self.count = 0
        #: values at or beyond ``span`` (the overflow bucket's count).
        self.overflow = 0
        #: largest value ever added (finite even when everything
        #: overflowed, so reports can say *how far* the tail reaches).
        self.max_value = 0.0

    @property
    def span(self) -> float:
        """Upper edge of the bucketed range (overflow starts here)."""
        return self.max_buckets * self.bucket_width

    def add(self, value: float) -> None:
        if value < 0:
            raise ValueError("histogram values must be non-negative")
        bucket = int(value / self.bucket_width)
        if bucket >= self.max_buckets:
            self.overflow += 1
        else:
            self._buckets[bucket] = self._buckets.get(bucket, 0) + 1
        self.count += 1
        self.max_value = max(self.max_value, value)

    def percentile(self, p: float) -> float:
        """Upper edge of the bucket containing the p-th percentile;
        ``math.inf`` when that percentile lies in the overflow bucket."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        if self.count == 0:
            return 0.0
        target = self.count * p / 100.0
        seen = 0
        for bucket in sorted(self._buckets):
            seen += self._buckets[bucket]
            if seen >= target:
                return (bucket + 1) * self.bucket_width
        return math.inf

    def buckets(self) -> List:
        """In-range ``(bucket, count)`` pairs, ascending; the overflow
        count is *not* included (read :attr:`overflow`)."""
        return sorted(self._buckets.items())
