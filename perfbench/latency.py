"""Quantiles of many timings in constant memory.

A pass of the bijection workload makes about 290k requests; storing one
float each would make the benchmark's own memory show in ``peak_rss_mb``.
Timings go instead into log-spaced buckets 0.5% wide that keep a count and
a sum, and a quantile is read as the mean of the bucket that holds its
rank: exact when that bucket holds one timing, within 0.5% otherwise.
"""

from __future__ import annotations

import math

_PER_E_FOLD = 200  # buckets per factor e, about 0.5% each


class LogHistogram:
    def __init__(self) -> None:
        self.buckets: dict[int, list[int]] = {}  # bucket -> [count, sum of ns]
        self.total = 0

    def add(self, ns: int) -> None:
        bucket = int(math.log(ns if ns > 1 else 1) * _PER_E_FOLD)
        cell = self.buckets.get(bucket)
        if cell is None:
            self.buckets[bucket] = [1, ns]
        else:
            cell[0] += 1
            cell[1] += ns
        self.total += 1

    def merge(self, buckets: dict) -> None:
        """Add the buckets of another histogram (``buckets`` as it comes back from JSON)."""
        for bucket, (count, total_ns) in buckets.items():
            cell = self.buckets.setdefault(int(bucket), [0, 0])
            cell[0] += count
            cell[1] += total_ns
            self.total += count

    def quantile(self, q: float) -> float:
        """The q-quantile in nanoseconds; 0.0 when nothing was recorded."""
        target = q * self.total
        seen = 0
        for bucket in sorted(self.buckets):
            count, total_ns = self.buckets[bucket]
            seen += count
            if seen >= target:
                return total_ns / count
        return 0.0
