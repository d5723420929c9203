"""Brute-force counting oracles, independent of the series engine.

Every statistic here is computed by exhaustively enumerating partitions
and testing the defining predicate directly on parts and first-column
hook lengths.  Each statistic that a verification grid refines (fixed
hooks, mex classes, box fits, ones, first-column hooks) is read from one
memoized census per weight, so every cell of a grid shares one sweep.
Nothing in this module imports :mod:`hooklab.series`; agreement between
the two sides is what the verification layer checks.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .partitions import check_weight, find_fixed_hook, iter_partition_tuples, mex_of


def partitions_of(n: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n as raw tuples, streamed once the weight bound is checked."""
    check_weight(n)
    return iter_partition_tuples(n)


@dataclass
class CountTable:
    """Exact counts of one statistic, for every n in a contiguous range."""

    statistic: str
    params: dict[str, int]
    values: dict[int, int] = field(default_factory=dict)

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def items(self):
        return sorted(self.values.items())

    def to_csv(self) -> str:
        lines = ["n,count"]
        lines += [f"{n},{c}" for n, c in self.items()]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "params": dict(self.params),
            "values": {str(n): c for n, c in self.items()},
        }

    def to_bfile(self, start: int = 1) -> str:
        lines = [f"{n} {c}" for n, c in self.items() if n >= start]
        return "\n".join(lines) + "\n"


def _table(statistic: str, params: dict[str, int], n_max: int,
           count_one: Callable[[int], int], top: int | None = None) -> CountTable:
    # top is the largest weight count_one enumerates; it is checked before any is.
    check_weight(max(n_max if top is None else top, 0))
    return CountTable(statistic, params, {n: count_one(n) for n in range(n_max + 1)})


@functools.lru_cache(maxsize=None)
def _fixed_hook_census(h: int, n: int) -> Counter:
    """How many partitions of n have each h-fixed hook (position, hook, part), or None."""
    return Counter(find_fixed_hook(parts, h) for parts in partitions_of(n))


@functools.lru_cache(maxsize=None)
def _mex_census(n: int) -> Counter:
    """How many partitions of n have each (mex, #parts below it - #parts above it)."""
    census: Counter = Counter()
    for parts in partitions_of(n):
        m = mex_of(parts)
        below = 0  # the parts below the mex are the trailing ones; none equals it
        for value in reversed(parts):
            if value > m:
                break
            below += 1
        census[m, 2 * below - len(parts)] += 1
    return census


@functools.lru_cache(maxsize=None)
def _box_census(n: int) -> Counter:
    """How many partitions of n have each (#parts, largest part)."""
    return Counter((len(parts), parts[0] if parts else 0) for parts in partitions_of(n))


@functools.lru_cache(maxsize=None)
def _ones_census(n: int) -> Counter:
    """How many partitions of n have each (#parts equal to 1, #parts)."""
    return Counter((parts.count(1), len(parts)) for parts in partitions_of(n))


@functools.lru_cache(maxsize=None)
def _first_column_census(n: int) -> Counter:
    """How many partitions of n have a first-column hook of each length."""
    census: Counter = Counter()
    for parts in partitions_of(n):
        t = len(parts)
        census.update(value + t - s for s, value in enumerate(parts, start=1))
    return census


def _fixed_hook_table(statistic: str, params: dict[str, int], h: int, n_max: int,
                      keep: Callable[[int, int, int], bool]) -> CountTable:
    """Partitions of n whose h-fixed hook (position, hook, part) passes keep."""
    return _table(statistic, params, n_max,
                  lambda n: sum(c for hit, c in _fixed_hook_census(h, n).items()
                                if hit is not None and keep(*hit)))


def _mex_table(statistic: str, params: dict[str, int], h: int, k: int,
               n_max: int) -> CountTable:
    """Partitions of n with mex k where h + 1 + #parts>k exceeds #parts<k."""
    return _table(statistic, params, n_max,
                  lambda n: sum(c for (m, diff), c in _mex_census(n).items()
                                if m == k and diff < h + 1))


def count_fixed_hooks(h: int, n_max: int) -> CountTable:
    """Partitions of n possessing an h-fixed hook (f(n) when h = 0)."""
    return _fixed_hook_table("fixed-hooks", {"h": h}, h, n_max, lambda s, hook, part: True)


def count_parts_eq_mult(n_max: int) -> CountTable:
    """Sum over partitions of n of the number of part sizes equal to their multiplicity."""

    def one(n: int) -> int:
        total = 0
        for parts in partitions_of(n):
            i = 0
            t = len(parts)
            while i < t:
                j = i
                while j < t and parts[j] == parts[i]:
                    j += 1
                if parts[i] == j - i:
                    total += 1
                i = j
        return total

    return _table("parts-eq-mult", {}, n_max, one)


def count_h_fixed_by_part(h: int, k: int, n_max: int) -> CountTable:
    """Partitions of n whose h-fixed hook sits at a part of size k."""
    return _fixed_hook_table("fixed-hooks-by-part", {"h": h, "k": k}, h, n_max,
                             lambda s, hook, part: part == k)


def count_h_fixed_by_hook(h: int, k: int, n_max: int) -> CountTable:
    """Partitions of n whose h-fixed hook has hook length exactly k."""
    return _fixed_hook_table("fixed-hooks-by-hook", {"h": h, "k": k}, h, n_max,
                             lambda s, hook, part: hook == k)


def count_first_column_k_hooks(k: int, n_max: int) -> CountTable:
    """Occurrences of a first-column hook equal to k over all partitions of n.

    First-column hooks are distinct within a partition, so each partition
    contributes 0 or 1.
    """
    return _table("first-column-k-hooks", {"k": k}, n_max,
                  lambda n: _first_column_census(n)[k])


def count_mex_class(k: int, n_max: int) -> CountTable:
    """M_k(n): partitions of n with mex k and more parts above k than below it."""
    return count_mex_class_multi((k,), n_max)[k]


def count_mex_class_multi(ks: tuple[int, ...], n_max: int) -> dict[int, CountTable]:
    """M_k(n) for several k, read from one mex census per n."""
    if any(k < 1 for k in ks):
        raise ValueError(f"mex values must be >= 1, got {ks}")
    return {k: _mex_table("mex-class", {"k": k}, -1, k, n_max) for k in ks}


def count_generalized_mex(h: int, k: int, n_max: int) -> CountTable:
    """Partitions of n with mex k where h + 1 + #parts>k exceeds #parts<k."""
    if k < 1:
        raise ValueError(f"mex value must be >= 1, got {k}")
    return _mex_table("generalized-mex", {"h": h, "k": k}, h, k, n_max)


def count_ones_exact(h: int, n_max: int) -> CountTable:
    """Partitions of n in which 1 appears exactly h+1 times (h >= -1)."""
    if h < -1:
        raise ValueError(f"the exact-ones statistic needs h >= -1, got {h}")
    return _table("ones-exact", {"h": h}, n_max,
                  lambda n: sum(c for (ones, t), c in _ones_census(n).items() if ones == h + 1))


def count_ones_shifted(h: int, n_max: int) -> CountTable:
    """Partitions of n-h with at least 1-h parts and exactly one part 1, tabulated at n."""
    return _table("ones-shifted", {"h": h}, n_max,
                  lambda n: sum(c for (ones, t), c in _ones_census(n - h).items()
                                if ones == 1 and t >= 1 - h) if n >= h else 0,
                  top=n_max - h)


def count_box_partitions(rows: int, cols: int, n_max: int) -> CountTable:
    """Partitions of n that fit in a rows x cols box: at most rows parts, none above cols."""
    return _table("box-partitions", {"rows": rows, "cols": cols}, n_max,
                  lambda n: sum(c for (t, top), c in _box_census(n).items()
                                if t <= rows and top <= cols))


def partition_counts(n_max: int) -> CountTable:
    """p(n) by direct enumeration; a sanity gate for the generator itself."""

    def one(n: int) -> int:
        return sum(1 for _ in partitions_of(n))

    return _table("partition-numbers", {}, n_max, one)
