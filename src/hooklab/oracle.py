"""Brute-force counting oracles, independent of the series engine.

Every statistic here is computed by exhaustively enumerating partitions
and counting them one by one; no count comes from a formula.  Each
statistic that a verification grid refines is read from a memoized
census, so the cells of a grid share its walks:

* first-column hooks are read off every partition of n, one census per
  weight, from an ascending walk that shares the hooks of the smaller
  parts between the partitions that have them;
* the fixed-hook class is built from its definition, one census per (h,
  top weight) with one count list per (position, part): the rows below the
  hook, then each choice of the rows above, walked once for all weights;
* the mex-k, exact-ones and (lambda, i) classes are each a fixed block
  (one copy of each of 1..k-1, the ones, i copies of i) plus a partition
  of the rest with no part b (b = k, 1, i), so all three read one census
  per (b, weight) of the partitions that avoid b: the multiplicities of
  1..b-1, from the enumerator that also lists the fixed-hook class's lower
  rows, and every partition of the rest into parts above b;
* box counts walk the partitions in their box once, for every weight at once.

In each walk every partition is generated once and adds 1 at its weight.
Nothing in this module imports :mod:`hooklab.series`; agreement between
the two sides is what the verification layer checks.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from collections.abc import Callable, Iterator

from .partitions import Record, check_weight, iter_partition_tuples


def partitions_of(n: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n as raw tuples, streamed once the weight bound is checked."""
    check_weight(n)
    return iter_partition_tuples(n)


class CountTable(Record):
    """Exact counts of one statistic, for every n in a contiguous range."""

    def __init__(self, values: dict[int, int]) -> None:
        self.values = values

    def __getitem__(self, n: int) -> int:
        return self.values[n]


def _table(n_max: int, count_one: Callable[[int], int], top: int | None = None) -> CountTable:
    # top is the largest weight count_one enumerates; it is checked before any is.
    check_weight(max(n_max if top is None else top, 0))
    return CountTable({n: count_one(n) for n in range(n_max + 1)})


def _walk_box(counts: list[int], at: int, rows: int, cols: int) -> None:
    """Add 1 at counts[at + |lam|] for every partition lam with at most rows parts, none above
    cols, and at + |lam| < len(counts): each one walked once, whatever its weight."""
    end = len(counts) - 1
    if rows < 0 or cols < 0 or at > end:
        return
    counts[at] += 1  # the empty partition
    # (index of the weight so far, rows left, largest part left) of each partition to extend;
    # a part is >= 1, so the walk is as deep as the weight, never as deep as rows or cols
    stack = [(at, rows, cols)] if rows and cols else []
    while stack:
        w, rows, x = stack.pop()
        room = end - w
        # one, two, ... more parts of 1, which only more 1s can follow
        for v in range(w + 1, w + (rows if rows < room else room) + 1):
            counts[v] += 1
        rows -= 1
        # or a next part of 2 or more, to extend in turn
        for v in range(w + 2, w + (x if x < room else room) + 1):
            counts[v] += 1
            if rows and v < end:
                stack.append((v, rows, v - w))


def _multiplicities(below: int, room: int, rows: int) -> list[tuple[int, int]]:
    """(weight, #parts) of every choice of multiplicities of 1..below-1 that weighs at most
    room >= 0 and has at most rows >= 0 parts, each choice listed once."""
    choices = [(0, 0)]
    # largest part first, so the lists before the last hold only the few choices of large parts
    for part in range(below - 1, 0, -1):
        choices = [(weight + part * c, parts + c) for weight, parts in choices
                   for c in range(min(rows - parts, (room - weight) // part) + 1)]
    return choices


@functools.lru_cache(maxsize=None)
def _fixed_hook_census(h: int, top: int) -> dict[tuple[int, int], list[int]]:
    """{(s, p): counts}: counts[n] partitions of n <= top have their h-fixed hook,
    of length s + h, at position s on a part p; top + 1 counts per block.

    A partition whose h-fixed hook sits at position s on a part p has
    t = 2s + h - p parts: s - 1 rows >= p above row s, and m = s + h - p rows
    in 1..p below it.  So every one of them is generated once, one (s, p)
    block at a time: each set of lower rows by the multiplicities of 1..p-1
    left after taking one box from every row, at most m of them, from
    _multiplicities, and for each such set one walk of every choice of the
    rows above, less p each, that fits under the top, into the block's list.
    Each set walks its own rows above, even when two sets weigh the same.
    """
    check_weight(top)
    census: dict[tuple[int, int], list[int]] = {}
    for p in range(1, top + 1):
        for s in range(max(1, p - h), (top - h + p) // (p + 1) + 1):
            m = s + h - p
            base = s * p + m  # the block's lightest partition has s rows of p and m rows of 1
            room = top - base  # weight of the rows above beyond p, plus the lower rows beyond 1
            counts = census[s, p] = [0] * (top + 1)
            for weight, _ in _multiplicities(p, room, m):
                _walk_box(counts, base + weight, s - 1, room)
    return census


def _lengths_from(n: int, floor: int) -> dict[int, int]:
    """How many partitions of n into parts >= floor have each number of parts."""
    if n == 0:
        return {0: 1}
    if n < floor:
        return {}
    # AccelAsc (Kelleher & O'Sullivan) started at the floor: a[0..k-1] is the
    # stack of parts below the last two, each partition is visited once, and
    # y + 1 + sum(a[0..k-1]) == n at the top of the loop.
    counts = [0] * (n // floor + 1)
    a = [0] * (n // floor + 1)
    a[0] = floor - 1
    k = 1
    y = n - floor
    while k:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        while x <= y:  # a[0..k-1] + (x, y)
            counts[k + 2] += 1
            x += 1
            y -= 1
        counts[k + 1] += 1  # a[0..k-1] + (x + y,)
        a[k] = x + y
        y = x + y - 1
    return {t: c for t, c in enumerate(counts) if c}


@functools.lru_cache(maxsize=None)
def _avoiding_census(b: int, n: int) -> Counter:
    """How many partitions of n with no part b have each #parts below b - #parts above it.

    Such a partition is some multiplicities of 1..b-1 and a partition of the
    rest into parts >= b + 1, so every one of them is generated once: the
    multiplicities by _multiplicities, each rest by _lengths_from; a rest
    below 2b + 2 has at most one partition into parts >= b + 1, () or
    (rest,), and is counted where it is met.
    """
    census: Counter = Counter()
    for weight, below in _multiplicities(b, n, n):  # a part is >= 1: rows never binds
        rest = n - weight
        if rest >= 2 * b + 2:
            for above, c in _lengths_from(rest, b + 1).items():
                census[below - above] += c
        elif rest == 0 or rest > b:  # () or (rest,) is the rest's only partition
            census[below - (rest > 0)] += 1
    return census


def _first_column_hooks(n: int) -> Iterator[tuple[int, ...]]:
    """The first-column hooks of each partition of n, one ascending tuple per partition."""
    if n == 0:
        yield ()
        return
    # AccelAsc (Kelleher & O'Sullivan) lists the parts in ascending order, and the
    # hook of the j-th smallest part (from 0) is that part plus j, whatever the
    # length: b[0..k-1] holds the hooks of the parts below the last two, shared by
    # every partition of the inner loop, and y + 1 + sum(parts) == n at the top.
    b = [0] * (n + 1)
    k = 1
    y = n - 1
    while k:
        x = b[k - 1] - k + 2  # one more than the part below
        k -= 1
        while 2 * x <= y:
            b[k] = x + k
            y -= x
            k += 1
        prefix = tuple(b[:k])
        while x <= y:  # parts ... x, y
            yield prefix + (x + k, y + k + 1)
            x += 1
            y -= 1
        b[k] = x + y + k  # parts ... x + y
        yield prefix + (b[k],)
        y = x + y - 1


@functools.lru_cache(maxsize=None)
def _first_column_census(n: int) -> Counter:
    """How many partitions of n have a first-column hook of each length."""
    check_weight(n)
    # counted in one pass at C level, each partition's hooks still generated on their own
    return Counter(itertools.chain.from_iterable(_first_column_hooks(n)))


def _fixed_hook_table(h: int, n_max: int, keep: Callable[[int, int], bool]) -> CountTable:
    """Partitions of n whose h-fixed hook's (position, part) passes keep, run once per block."""
    blocks = [counts for (s, p), counts in _fixed_hook_census(h, max(n_max, 0)).items()
              if keep(s, p)]
    return _table(n_max, lambda n: sum(counts[n] for counts in blocks))


def count_fixed_hooks(h: int, n_max: int) -> CountTable:
    """Partitions of n possessing an h-fixed hook (f(n) when h = 0)."""
    return _fixed_hook_table(h, n_max, lambda s, p: True)


def count_parts_eq_mult(n_max: int) -> CountTable:
    """Sum over partitions of n of the number of part sizes equal to their multiplicity.

    That is the number of pairs (lambda, i) in which i appears exactly i times
    in lambda, the domain of Theorem 2.1's bijection B.  Each pair is i copies
    of i plus a partition of the rest with no part i, so it is read from the
    census of the partitions of n - i^2 that avoid i.
    """
    return _table(n_max, lambda n: sum(sum(_avoiding_census(i, n - i * i).values())
                                       for i in range(1, math.isqrt(n) + 1)))


def count_h_fixed_by_part(h: int, k: int, n_max: int) -> CountTable:
    """Partitions of n whose h-fixed hook sits at a part of size k."""
    return _fixed_hook_table(h, n_max, lambda s, p: p == k)


def count_h_fixed_by_hook(h: int, k: int, n_max: int) -> CountTable:
    """Partitions of n whose h-fixed hook has hook length exactly k."""
    return _fixed_hook_table(h, n_max, lambda s, p: s + h == k)


def count_first_column_k_hooks(k: int, n_max: int) -> CountTable:
    """Occurrences of a first-column hook equal to k over all partitions of n.

    First-column hooks are distinct within a partition, so each partition
    contributes 0 or 1.
    """
    return _table(n_max, lambda n: _first_column_census(n)[k])


def count_mex_class(k: int, n_max: int) -> CountTable:
    """M_k(n): partitions of n with mex k and more parts above k than below it."""
    return count_generalized_mex(-1, k, n_max)


def count_mex_class_multi(ks: tuple[int, ...], n_max: int) -> dict[int, CountTable]:
    """M_k(n) for several k, each read from the census of the partitions that avoid its own k."""
    if any(k < 1 for k in ks):
        raise ValueError(f"mex values must be >= 1, got {ks}")
    return {k: count_mex_class(k, n_max) for k in ks}


def count_generalized_mex(h: int, k: int, n_max: int) -> CountTable:
    """Partitions of n with mex k where h + 1 + #parts>k exceeds #parts<k."""
    if k < 1:
        raise ValueError(f"mex value must be >= 1, got {k}")

    def one(n: int) -> int:
        # one copy of each of 1..k-1, then a partition of the rest with no part k
        rest = n - k * (k - 1) // 2
        if rest < 0:  # 1..k-1 do not fit, and k may be far too large to walk 1..k-1
            return 0
        return sum(c for diff, c in _avoiding_census(k, rest).items() if k - 1 + diff < h + 1)

    return _table(n_max, one)


def count_ones_exact(h: int, n_max: int) -> CountTable:
    """Partitions of n in which 1 appears exactly h+1 times (h >= -1)."""
    if h < -1:
        raise ValueError(f"the exact-ones statistic needs h >= -1, got {h}")
    return _table(n_max, lambda n: sum(_avoiding_census(1, n - h - 1).values()))


def count_ones_shifted(h: int, n_max: int) -> CountTable:
    """Partitions of n-h with at least 1-h parts and exactly one part 1, tabulated at n."""
    # one 1 and a rest with no part 1 and -diff parts: 1 - diff >= 1 - h parts
    return _table(n_max,
                  lambda n: sum(c for diff, c in _avoiding_census(1, n - h - 1).items()
                                if diff <= h),
                  top=n_max - h)


def count_box_partitions(rows: int, cols: int, n_max: int) -> CountTable:
    """Partitions of n that fit in a rows x cols box: at most rows parts, none above cols."""
    check_weight(max(n_max, 0))
    counts = [0] * (n_max + 1)
    _walk_box(counts, 0, rows, cols)
    return CountTable(dict(enumerate(counts)))


def partition_counts(n_max: int) -> CountTable:
    """p(n) by direct enumeration; a sanity gate for the generator itself."""

    def one(n: int) -> int:
        return sum(1 for _ in partitions_of(n))

    return _table(n_max, one)
