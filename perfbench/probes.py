"""Per-layer probes that time one layer directly, outside any workload.

* ``series.<ctor>.growth_exp``: least-squares slope of log(time) against
  log(order) at three orders, with the ``q_binomial`` cache cleared before
  each order so every point is a cold call.
* ``partitions.enum_rate``: partitions per second from
  ``iter_partition_tuples`` at the weights above the oracle's cache limit
  of 40, the ones the oracle streams, summed to over a second of work.
* ``partitions.validate_us``: microseconds per validated ``Partition(...)``
  construction over every partition of n <= 25, median of five sweeps.
"""

from __future__ import annotations

import math
import statistics
import time

from hooklab import series
from hooklab.partitions import Partition, iter_partition_tuples

GROWTH_CTORS = {
    "gf_all_h_fixed": lambda order: series.gf_all_h_fixed(0, order),
    "gf_h_fixed_part_k": lambda order: series.gf_h_fixed_part_k(0, 1, order),
    "gf_M_k": lambda order: series.gf_M_k(1, order),
    "gf_fixed_hooks_double_sum": series.gf_fixed_hooks_double_sum,
}

SIZES = {
    # growth orders, enumeration weights, largest n of the validation sweep
    "full": {"orders": (80, 160, 240), "enum": range(41, 55), "validate_n": 25},
    "smoke": {"orders": (10, 20, 40), "enum": range(41, 43), "validate_n": 10},
}


def _slope(xs: list[float], ys: list[float]) -> float:
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return num / sum((x - mx) ** 2 for x in xs)


def growth_exponent(ctor, orders) -> float:
    logs_n, logs_t = [], []
    for order in orders:
        series.q_binomial.cache_clear()
        t0 = time.perf_counter()
        ctor(order)
        logs_t.append(math.log(time.perf_counter() - t0))
        logs_n.append(math.log(order))
    return _slope(logs_n, logs_t)


def enum_rate(weights) -> float:
    count = 0
    t0 = time.perf_counter()
    for n in weights:
        for _ in iter_partition_tuples(n):
            count += 1
    return count / (time.perf_counter() - t0)


def validate_us(n_max: int) -> float:
    inputs = [parts for n in range(n_max + 1) for parts in iter_partition_tuples(n)]
    sweeps = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for parts in inputs:
            Partition(parts)
        sweeps.append((time.perf_counter_ns() - t0) / len(inputs) / 1e3)
    return statistics.median(sweeps)


def run(size: str) -> dict[str, tuple[float, str]]:
    cfg = SIZES[size]
    out = {
        f"series.{name}.growth_exp": (growth_exponent(ctor, cfg["orders"]), "exponent")
        for name, ctor in GROWTH_CTORS.items()
    }
    out["partitions.enum_rate"] = (enum_rate(cfg["enum"]), "1/s")
    out["partitions.validate_us"] = (validate_us(cfg["validate_n"]), "us")
    return out
