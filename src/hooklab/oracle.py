"""Brute-force counting oracles, independent of the series engine.

Every statistic here is computed by exhaustively enumerating partitions
and testing the defining predicate directly on parts and first-column
hook lengths.  Nothing in this module imports :mod:`hooklab.series`;
agreement between the two sides is what the verification layer checks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .partitions import check_weight, find_fixed_hook, iter_partition_tuples, mex_of

# Partition lists up to this weight are memoized; above it they are streamed.
_CACHE_WEIGHT = 40


@functools.lru_cache(maxsize=None)
def _cached_partitions(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(iter_partition_tuples(n))


def partitions_of(n: int) -> Iterable[tuple[int, ...]]:
    """Partitions of n as raw tuples, cached for small n."""
    check_weight(n)
    if n <= _CACHE_WEIGHT:
        return _cached_partitions(n)
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


def _count_above_below(parts: tuple[int, ...], k: int) -> tuple[int, int]:
    """(#parts > k, #parts < k); parts are nonincreasing."""
    above = 0
    for value in parts:
        if value > k:
            above += 1
        else:
            break
    below = 0
    for value in reversed(parts):
        if value < k:
            below += 1
        else:
            break
    return above, below


def count_fixed_hooks(h: int, n_max: int) -> CountTable:
    """Partitions of n possessing an h-fixed hook (f(n) when h = 0)."""

    def one(n: int) -> int:
        return sum(1 for parts in partitions_of(n) if find_fixed_hook(parts, h))

    return _table("fixed-hooks", {"h": h}, n_max, one)


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


def count_part_multiplicity_class(i: int, n_max: int) -> CountTable:
    """Partitions of n in which the part i appears exactly i times."""
    if i < 1:
        raise ValueError(f"part size must be >= 1, got {i}")

    def one(n: int) -> int:
        return sum(1 for parts in partitions_of(n) if parts.count(i) == i)

    return _table("mult-eq-part", {"i": i}, n_max, one)


def count_h_fixed_by_part(h: int, k: int, n_max: int) -> CountTable:
    """Partitions of n whose h-fixed hook sits at a part of size k."""

    def one(n: int) -> int:
        total = 0
        for parts in partitions_of(n):
            hit = find_fixed_hook(parts, h)
            if hit is not None and hit[2] == k:
                total += 1
        return total

    return _table("fixed-hooks-by-part", {"h": h, "k": k}, n_max, one)


def count_h_fixed_by_hook(h: int, k: int, n_max: int) -> CountTable:
    """Partitions of n whose h-fixed hook has hook length exactly k."""

    def one(n: int) -> int:
        total = 0
        for parts in partitions_of(n):
            hit = find_fixed_hook(parts, h)
            if hit is not None and hit[1] == k:
                total += 1
        return total

    return _table("fixed-hooks-by-hook", {"h": h, "k": k}, n_max, one)


def count_first_column_k_hooks(k: int, n_max: int) -> CountTable:
    """Occurrences of a first-column hook equal to k over all partitions of n.

    First-column hooks are distinct within a partition, so each partition
    contributes 0 or 1.
    """

    def one(n: int) -> int:
        total = 0
        for parts in partitions_of(n):
            t = len(parts)
            for s in range(1, t + 1):
                hook = parts[s - 1] + t - s
                if hook == k:
                    total += 1
                    break
                if hook < k:
                    break
        return total

    return _table("first-column-k-hooks", {"k": k}, n_max, one)


def count_mex_class(k: int, n_max: int) -> CountTable:
    """M_k(n): partitions of n with mex k and more parts above k than below it."""
    return count_mex_class_multi((k,), n_max)[k]


def count_mex_class_multi(ks: tuple[int, ...], n_max: int) -> dict[int, CountTable]:
    """M_k(n) for several k in a single enumeration sweep."""
    if any(k < 1 for k in ks):
        raise ValueError(f"mex values must be >= 1, got {ks}")
    check_weight(max(n_max, 0))
    tables = {k: CountTable("mex-class", {"k": k}) for k in ks}
    for n in range(n_max + 1):
        totals = dict.fromkeys(ks, 0)
        for parts in partitions_of(n):
            m = mex_of(parts)
            if m in totals:
                above, below = _count_above_below(parts, m)
                if above > below:
                    totals[m] += 1
        for k in ks:
            tables[k].values[n] = totals[k]
    return tables


def count_generalized_mex(h: int, k: int, n_max: int) -> CountTable:
    """Partitions of n with mex k where h + 1 + #parts>k exceeds #parts<k."""
    if k < 1:
        raise ValueError(f"mex value must be >= 1, got {k}")

    def one(n: int) -> int:
        total = 0
        for parts in partitions_of(n):
            if mex_of(parts) != k:
                continue
            above, below = _count_above_below(parts, k)
            if h + 1 + above > below:
                total += 1
        return total

    return _table("generalized-mex", {"h": h, "k": k}, n_max, one)


def count_ones_exact(h: int, n_max: int) -> CountTable:
    """Partitions of n in which 1 appears exactly h+1 times (h >= -1)."""
    if h < -1:
        raise ValueError(f"the exact-ones statistic needs h >= -1, got {h}")
    wanted = h + 1

    def one(n: int) -> int:
        total = 0
        for parts in partitions_of(n):
            ones = 0
            for value in reversed(parts):
                if value != 1:
                    break
                ones += 1
            if ones == wanted:
                total += 1
        return total

    return _table("ones-exact", {"h": h}, n_max, one)


def count_ones_shifted(h: int, n_max: int) -> CountTable:
    """Partitions of n-h with at least 1-h parts and exactly one part 1, tabulated at n."""

    def one(n: int) -> int:
        w = n - h
        if w < 0:
            return 0
        total = 0
        for parts in partitions_of(w):
            if len(parts) < 1 - h:
                continue
            if parts and parts[-1] == 1 and (len(parts) < 2 or parts[-2] != 1):
                total += 1
        return total

    return _table("ones-shifted", {"h": h}, n_max, one, top=n_max - h)


def count_ones_statistics(h: int, n_max: int) -> tuple[CountTable | None, CountTable]:
    """Both size-one-part statistics; the exact form exists only for h >= -1."""
    exact = count_ones_exact(h, n_max) if h >= -1 else None
    return exact, count_ones_shifted(h, n_max)


def partition_counts(n_max: int) -> CountTable:
    """p(n) by direct enumeration; a sanity gate for the generator itself."""

    def one(n: int) -> int:
        return sum(1 for _ in partitions_of(n))

    return _table("partition-numbers", {}, n_max, one)
