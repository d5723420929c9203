import ast
import bisect
import itertools
import math
import operator
import time
from collections import Counter
from pathlib import Path

import pytest

import hooklab
from hooklab import (
    count_first_column_k_hooks,
    count_fixed_hooks,
    count_generalized_mex,
    count_h_fixed_by_hook,
    count_h_fixed_by_part,
    count_mex_class,
    count_mex_class_multi,
    count_ones_exact,
    count_ones_shifted,
    count_parts_eq_mult,
    generate_partitions,
    partition_numbers,
)
from hooklab.oracle import (
    _avoiding_census,
    _first_column_census,
    _first_column_hooks,
    _fixed_hook_census,
    _lengths_from,
    _multiplicities,
    _walk_box,
    count_box_partitions,
    partition_counts,
    partitions_of,
)
from hooklab.partitions import MAX_ENUMERATION_WEIGHT, Partition, iter_partition_tuples


class TestFixedHookCounts:
    def test_f_values(self):
        table = count_fixed_hooks(0, 9)
        assert [table[n] for n in range(1, 6)] == [1, 0, 1, 2, 3]
        assert table[9] == 12
        assert table[0] == 0

    def test_parts_eq_mult_totals(self):
        table = count_parts_eq_mult(9)
        assert table[9] == 12
        assert table[5] == 3
        assert table[2] == 0

    def test_parts_eq_mult_split_at_nine(self):
        # twelve occurrences split as seven (i=1), four (i=2), one (i=3)
        split = [sum(1 for lam in generate_partitions(9) if lam.multiplicity(i) == i)
                 for i in (1, 2, 3)]
        assert split == [7, 4, 1]
        assert sum(split) == count_parts_eq_mult(9)[9]

    def test_by_part(self):
        assert count_h_fixed_by_part(0, 1, 4)[4] == 1  # only (2,1,1)

    def test_by_hook(self):
        # at n=5 only (4,1) has its -1-fixed hook of size 1; the -1-fixed
        # hook of (2,1,1,1) has size 2
        assert count_h_fixed_by_hook(-1, 1, 5)[5] == 1
        assert count_h_fixed_by_hook(-1, 2, 5)[5] == 1
        assert count_fixed_hooks(-1, 5)[5] == 2

    def test_by_part_sums_to_fixed_hooks(self):
        for h in (-2, 0, 1):
            total_table = count_fixed_hooks(h, 12)
            for n in range(13):
                split = sum(count_h_fixed_by_part(h, k, n)[n] for k in range(1, n + 1))
                assert split == total_table[n]

    def test_first_column_hooks(self):
        table = count_first_column_k_hooks(1, 8)
        p = partition_numbers(8)
        assert table[5] == 5
        assert table[1] == 1
        assert all(table[n] == p[n - 1] for n in range(1, 9))


class TestMexCounts:
    def test_M1(self):
        table = count_mex_class(1, 6)
        assert table[5] == 2  # (5), (3,2)
        assert table[1] == 0
        assert table[0] == 0

    def test_multi_matches_single(self):
        multi = count_mex_class_multi((1, 2, 3), 15)
        for k in (1, 2, 3):
            single = count_mex_class(k, 15)
            assert multi[k].values == single.values

    def test_multi_refuses_a_mex_below_one(self):
        with pytest.raises(ValueError, match=r"mex values must be >= 1, got \(0, 2\)"):
            count_mex_class_multi((0, 2), 10)

    def test_generalized_reduces_to_M_at_minus_one(self):
        for k in (1, 2, 3):
            a = count_generalized_mex(-1, k, 18)
            b = count_mex_class(k, 18)
            assert a.values == b.values

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="mex value must be >= 1, got 0"):
            count_mex_class(0, 5)
        with pytest.raises(ValueError, match="mex value must be >= 1, got 0"):
            count_generalized_mex(0, 0, 5)


class TestOnesCounts:
    def test_exact_examples(self):
        assert count_ones_exact(0, 4)[4] == 1  # only (3,1)
        # raw count at n=0, h=-1 is 1 (the empty partition): the stated
        # exception, where there is no -1-fixed hook
        assert count_ones_exact(-1, 3)[0] == 1
        assert count_h_fixed_by_part(-1, 1, 3)[0] == 0

    def test_exact_rejects_small_h(self):
        with pytest.raises(ValueError):
            count_ones_exact(-2, 5)

    def test_shifted_agrees_with_exact_at_zero(self):
        a = count_ones_exact(0, 20)
        b = count_ones_shifted(0, 20)
        assert a.values == b.values

    def test_shifted_matches_hook_counts(self):
        for h in range(-3, 3):
            hooks = count_h_fixed_by_part(h, 1, 15)
            shifted = count_ones_shifted(h, 15)
            assert hooks.values == shifted.values

    def test_shifted_below_the_exact_domain(self):
        # h = -2 has no exact-ones form; at n = 3 the shifted form counts the
        # partitions of 5 with at least 3 parts and exactly one 1: only (2,2,1)
        assert count_ones_shifted(-2, 6)[3] == 1


class TestGeneratorGate:
    def test_counts_match_pentagonal_recurrence(self):
        table = partition_counts(20)
        p = partition_numbers(20)
        assert [table[n] for n in range(21)] == p

    @pytest.mark.parametrize("call", [
        lambda: partitions_of(MAX_ENUMERATION_WEIGHT + 1),
        lambda: count_fixed_hooks(0, MAX_ENUMERATION_WEIGHT + 1),
        lambda: count_mex_class_multi((1, 2), MAX_ENUMERATION_WEIGHT + 1),
        lambda: count_generalized_mex(0, 3, MAX_ENUMERATION_WEIGHT + 1),
        lambda: count_mex_class(2, MAX_ENUMERATION_WEIGHT + 1),
        lambda: count_ones_exact(0, MAX_ENUMERATION_WEIGHT + 1),
        # visits partitions of n - h, so the bound is crossed at n_max = bound - 9
        lambda: count_ones_shifted(-10, MAX_ENUMERATION_WEIGHT - 9),
        lambda: count_h_fixed_by_part(0, 1, MAX_ENUMERATION_WEIGHT + 1),
        lambda: count_h_fixed_by_hook(0, 1, MAX_ENUMERATION_WEIGHT + 1),
        lambda: count_box_partitions(3, 3, MAX_ENUMERATION_WEIGHT + 1),
        lambda: count_parts_eq_mult(MAX_ENUMERATION_WEIGHT + 1),
        lambda: count_first_column_k_hooks(1, MAX_ENUMERATION_WEIGHT + 1),
        # the censuses check their own top, before they fill anything
        lambda: _fixed_hook_census(0, MAX_ENUMERATION_WEIGHT + 1),
        lambda: _first_column_census(MAX_ENUMERATION_WEIGHT + 1),
    ])
    def test_enumeration_bound(self, call):
        with pytest.raises(ValueError, match=f"enumeration bound {MAX_ENUMERATION_WEIGHT}$"):
            call()


def _direct_fixed_hook(parts, h):
    """(hook, part) at the position s whose first-column hook is s + h, or None."""
    t = len(parts)
    hits = [(parts[s - 1] + t - s, parts[s - 1])
            for s in range(1, t + 1) if parts[s - 1] + t - s == s + h]
    assert len(hits) <= 1
    return hits[0] if hits else None


def _direct_mex_class(parts, h, k):
    """mex k and h + 1 + #parts>k > #parts<k, from the definition."""
    mex = min(set(range(1, len(parts) + 2)) - set(parts))
    above = sum(1 for value in parts if value > k)
    below = sum(1 for value in parts if value < k)
    return mex == k and h + 1 + above > below


class TestCensusDifferential:
    """The census-backed counters against predicate sweeps written out here."""

    N = 20
    HS = range(-3, 4)
    KS = range(1, 6)

    @pytest.fixture(scope="class")
    def partitions(self):
        return {n: list(iter_partition_tuples(n)) for n in range(self.N + 1)}

    def test_fixed_hook_counters(self, partitions):
        for h in self.HS:
            hits = {n: [_direct_fixed_hook(parts, h) for parts in ps]
                    for n, ps in partitions.items()}
            assert count_fixed_hooks(h, self.N).values == {
                n: sum(hit is not None for hit in hs) for n, hs in hits.items()}
            for k in self.KS:
                assert count_h_fixed_by_part(h, k, self.N).values == {
                    n: sum(hit is not None and hit[1] == k for hit in hs)
                    for n, hs in hits.items()}, (h, k)
                assert count_h_fixed_by_hook(h, k, self.N).values == {
                    n: sum(hit is not None and hit[0] == k for hit in hs)
                    for n, hs in hits.items()}, (h, k)

    def test_mex_counters(self, partitions):
        for h, k in itertools.product(self.HS, self.KS):
            assert count_generalized_mex(h, k, self.N).values == {
                n: sum(_direct_mex_class(parts, h, k) for parts in ps)
                for n, ps in partitions.items()}, (h, k)
        multi = count_mex_class_multi(tuple(self.KS), self.N)
        for k in self.KS:
            assert multi[k].values == {
                n: sum(_direct_mex_class(parts, -1, k) for parts in ps)
                for n, ps in partitions.items()}, k

    def test_ones_and_first_column_counters(self, partitions):
        for h in self.HS:
            if h >= -1:
                assert count_ones_exact(h, self.N).values == {
                    n: sum(parts.count(1) == h + 1 for parts in ps)
                    for n, ps in partitions.items()}, h
            assert count_ones_shifted(h, self.N).values == {
                n: sum(len(parts) >= 1 - h and parts.count(1) == 1
                       for parts in (iter_partition_tuples(n - h) if n >= h else ()))
                for n in partitions}, h
        for k in self.KS:
            assert count_first_column_k_hooks(k, self.N).values == {
                n: sum(any(value + len(parts) - s == k for s, value in enumerate(parts, 1))
                       for parts in ps)
                for n, ps in partitions.items()}, k

    def test_box_counter(self, partitions):
        for rows, cols in itertools.product(range(6), repeat=2):
            assert count_box_partitions(rows, cols, self.N).values == {
                n: sum(len(parts) <= rows and all(v <= cols for v in parts) for parts in ps)
                for n, ps in partitions.items()}, (rows, cols)


def _by_weight(h, top):
    """The (position, part) block census of (h, top) as one Counter of (position, hook, part)
    per weight, the form the reports of find_h_fixed_hook and the old census take."""
    census = _fixed_hook_census(h, top)
    assert all(len(counts) == top + 1 for counts in census.values()), (h, top)
    whole = [Counter() for _ in range(top + 1)]
    for (s, p), counts in census.items():
        for n, count in enumerate(counts):
            if count:
                whole[n][s, s + h, p] = count
    return whole


def _whole_mex_census(parts_of_n):
    """(mex, #below - #above) counts of whole partitions, as the single-sweep census kept them."""
    census = Counter()
    for parts in parts_of_n:
        m = Partition._trusted(parts).mex()
        below = 0
        for value in reversed(parts):
            if value > m:
                break
            below += 1
        census[m, 2 * below - len(parts)] += 1
    return census


def _mex_entries(k, n):
    """(#below - #above) counts of the mex-k partitions of n, read as one copy of each of
    1..k-1 plus a partition of the rest that avoids k."""
    rest = n - k * (k - 1) // 2
    return {} if rest < 0 else {k - 1 + diff: c for diff, c in _avoiding_census(k, rest).items()}


class TestPrefixSplitDifferential:
    """The prefix-split censuses against the whole-partition sweeps they replaced."""

    N = 35

    @pytest.fixture(scope="class")
    def partitions(self):
        return {n: list(iter_partition_tuples(n)) for n in range(self.N + 1)}

    def test_lengths_from_matches_filter(self, partitions):
        for n in range(31):
            for floor in range(1, n + 3):
                expected = Counter(len(parts) for parts in partitions[n]
                                   if all(value >= floor for value in parts))
                assert _lengths_from(n, floor) == dict(expected), (n, floor)

    def test_lengths_from_edges(self):
        assert _lengths_from(0, 1) == {0: 1}
        assert _lengths_from(0, 7) == {0: 1}
        # a rest below the floor has no partition, not one of a single part
        assert _lengths_from(3, 4) == {}
        assert _lengths_from(4, 4) == {1: 1}

    def test_mex_census(self, partitions):
        for n, ps in partitions.items():
            whole = _whole_mex_census(ps)
            for k in {m for m, _ in whole}:
                assert _mex_entries(k, n) == {diff: c for (m, diff), c in whole.items()
                                              if m == k}, (k, n)
            assert not _mex_entries(max(m for m, _ in whole) + 1, n), n

    def test_ones_census(self, partitions):
        for n, ps in partitions.items():
            whole = Counter((parts.count(1), len(parts)) for parts in ps)
            for j in {ones for ones, _ in whole}:
                assert {j - diff: c for diff, c in _avoiding_census(1, n - j).items()} == {
                    t: c for (ones, t), c in whole.items() if ones == j}, (j, n)
        assert not _avoiding_census(1, -1)  # more ones than the weight

    def test_first_column_census(self, partitions):
        for n, ps in partitions.items():
            whole = Counter()
            for parts in ps:
                t = len(parts)
                whole.update(value + t - s for s, value in enumerate(parts, start=1))
            assert _first_column_census(n) == whole, n

    def test_first_column_hooks_match_the_descending_sweep(self, partitions):
        # the ascending walk yields one hook tuple per partition, the same tuples
        # (read backwards) as the descending sweep it replaced, and the same census
        p = partition_numbers(self.N)
        for n, ps in partitions.items():
            walked = [hooks[::-1] for hooks in _first_column_hooks(n)]
            swept = [tuple(_descending_hooks(parts)) for parts in ps]
            assert len(walked) == p[n], n
            assert Counter(walked) == Counter(swept), n
            assert len(set(walked)) == p[n], n
            assert _first_column_census(n) == _descending_census(n), n

    def test_fixed_hook_census(self, partitions):
        for h in range(-8, 9):
            whole = [Counter(Partition._trusted(parts).find_h_fixed_hook(h)
                             for parts in partitions[n])
                     for n in range(self.N + 1)]
            for census in whole:
                del census[None]
            assert _by_weight(h, self.N) == whole, h
            # a lower top cuts the walk, and keeps the same counts below it
            for top in (0, 1, 2, 7, 18):
                assert _by_weight(h, top) == whole[: top + 1], (h, top)

    def test_fixed_hook_census_far_h(self):
        start = time.perf_counter()
        for h in (-10**9, 10**9):
            assert set(count_fixed_hooks(h, 30).values.values()) == {0}, h
        assert time.perf_counter() - start < 1

    def test_walk_box_matches_filter(self, partitions):
        # each box up to 25 x 25, walked once for every n <= 24
        top = 24
        for rows in range(top + 2):
            tops = {n: sorted(parts[0] if parts else 0
                              for parts in partitions[n] if len(parts) <= rows)
                    for n in range(top + 1)}
            for cols in range(top + 2):
                assert _box_counts(top, rows, cols) == [
                    bisect.bisect_right(tops[n], cols) for n in range(top + 1)], (rows, cols)

    def test_walk_box_matches_in_box(self):
        # the boxes of each n <= 24 up to (n + 1) x (n + 1), as the filter test's, each
        # weight of a box against the walk that went one weight at a time
        top = 24
        for rows, cols in itertools.product(range(-1, top + 2), repeat=2):
            counts = _box_counts(top, rows, cols)
            for n in range(max(rows, cols, 1) - 1, top + 1):
                assert counts[n] == _old_in_box(n, rows, cols), (n, rows, cols)
        for rows, cols in ((10**9, 10**9), (10**9, 3), (3, 10**9), (-1, 10**9), (10**9, -1)):
            assert _box_counts(9, rows, cols) == [
                _old_in_box(n, rows, cols) for n in range(10)], (rows, cols)

    def test_walk_box_edges(self):
        assert [_box_counts(0, rows, cols) for rows, cols in ((0, 0), (0, 5), (5, 0))] == [[1]] * 3
        assert [_box_counts(n, 0, n)[n] for n in (1, 2, 7)] == [0, 0, 0]
        assert [_box_counts(n, n, 0)[n] for n in (1, 2, 7)] == [0, 0, 0]
        start = time.perf_counter()
        assert _box_counts(4, 10**9, 10**9) == [1, 1, 2, 3, 5]  # no walk over the unused rows
        assert time.perf_counter() - start < 1
        assert _box_counts(0, -1, 0) == _box_counts(0, 0, -1) == [0]
        assert _box_counts(3, -1, 3) == [0, 0, 0, 0]
        # a walk starting past the end, or at it, adds nothing, or the empty partition
        counts = [0, 0, 0]
        _walk_box(counts, 3, 5, 5)
        _walk_box(counts, 2, 5, 5)
        assert counts == [0, 0, 1]
        assert count_box_partitions(2, 2, -1).values == {}


def _box_counts(top, rows, cols):
    """How many partitions of each n <= top fit in the rows x cols box, by one walk."""
    counts = [0] * (top + 1)
    _walk_box(counts, 0, rows, cols)
    return counts


def _old_in_box(n, rows, cols):
    """How many partitions of n have at most rows parts, none above cols: the
    one-weight-at-a-time walk the box walker replaced."""
    if rows < 2 or cols < 0:
        return int(rows >= 0 and cols >= 0 and (n == 0 or rows == 1 and n <= cols))
    count = 0
    stack = [(n, rows, cols)]
    while stack:
        rest, rows, x = stack.pop()
        if x > rest:
            x = rest
        if rows == 2 or rest == 0:
            while 2 * x >= rest:
                count += 1
                x -= 1
        else:
            low = (rest - 1) // rows
            rows -= 1
            while x > low:
                stack.append((rest - x, rows, x))
                x -= 1
    return count


def _descending_hooks(parts):
    """First-column hooks of nonincreasing parts, as the descending sweep read them."""
    return map(operator.add, parts, range(len(parts) - 1, -1, -1))


def _descending_census(n):
    """The first-column census as the ZS1 sweep counted it, before the ascending walk."""
    return Counter(itertools.chain.from_iterable(
        _descending_hooks(parts) for parts in iter_partition_tuples(n)))


def _per_partition_parts_eq_mult(n):
    """Part sizes equal to their multiplicity, summed over every partition of n
    by a scan of its runs: the per-partition loop the pair walk replaced."""
    total = 0
    for parts in iter_partition_tuples(n):
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


def test_parts_eq_mult_matches_the_per_partition_loop():
    table = count_parts_eq_mult(40)
    assert table.values == {n: _per_partition_parts_eq_mult(n) for n in range(41)}


def _old_fixed_hook_census(h, top):
    """The fixed-hook census with its lower rows walked inline, as before the shared enumerator."""
    census = [Counter() for _ in range(top + 1)]
    for p in range(1, top + 1):
        for s in range(max(1, p - h), (top - h + p) // (p + 1) + 1):
            m = s + h - p
            base = s * p + m
            room = top - base
            lower = [(0, 0)]
            for part in range(1, p):
                lower = [(weight + part * c, rows + c) for weight, rows in lower
                         for c in range(min(m - rows, (room - weight) // part) + 1)]
            counts = [0] * (room + 1)
            for weight, _ in lower:
                _walk_box(counts, weight, s - 1, room)
            for n, count in enumerate(counts, base):
                if count:
                    census[n][s, s + h, p] = count
    return census


def _old_mex_census(k, n):
    """The mex census with one or more copies of each of 1..k-1 walked under a per-part
    reserved room, as before the shared enumerator."""
    census = Counter()
    if k * (k - 1) // 2 > n:
        return census
    prefixes = [(0, 0)]
    for part in range(1, k):
        room = n - (part + k) * (k - 1 - part) // 2
        prefixes = [(weight + part * m, below + m) for weight, below in prefixes
                    for m in range(1, (room - weight) // part + 1)]
    for weight, below in prefixes:
        rest = n - weight
        if rest >= 2 * k + 2:
            for above, c in _lengths_from(rest, k + 1).items():
                census[below - above] += c
        elif rest == 0 or rest > k:
            census[below - (rest > 0)] += 1
    return census


def _old_mex_census_from_multiplicities(k, n):
    """How many partitions of n with mex k have each #parts below k - #parts above it, walked
    per (k, n) as before the census of the partitions that avoid a part."""
    census = Counter()
    room = n - k * (k - 1) // 2
    if room < 0:
        return census
    for weight, extra in _multiplicities(k, room, room):
        rest = room - weight
        below = k - 1 + extra
        if rest >= 2 * k + 2:
            for above, c in _lengths_from(rest, k + 1).items():
                census[below - above] += c
        elif rest == 0 or rest > k:
            census[below - (rest > 0)] += 1
    return census


def _old_ones_census(ones, n):
    """How many partitions of n with exactly `ones` parts equal to 1 have each #parts, walked
    per (ones, n) as before the census of the partitions that avoid a part."""
    return {ones + t: c for t, c in _lengths_from(n - ones, 2).items()}


def _old_parts_eq_mult(n):
    """The pairs (lambda, i) with the weights of the parts below i walked inline."""
    total = 0
    for i in range(1, math.isqrt(n) + 1):
        room = n - i * i
        lower = [0]
        for part in range(1, i):
            lower = [weight + part * c for weight in lower
                     for c in range((room - weight) // part + 1)]
        total += sum(sum(_lengths_from(room - weight, i + 1).values()) for weight in lower)
    return total


class TestMultiplicities:
    """The one multiplicity-prefix enumerator, and the counters that read the census of
    the partitions that avoid a part against the walks it replaced."""

    N = 35

    def test_matches_filtered_vectors(self):
        top = 12
        for below in range(1, 7):
            parts = range(1, below)
            vectors = [(sum(map(operator.mul, parts, c)), sum(c))
                       for c in itertools.product(*(range(top // part + 1) for part in parts))]
            for room in range(top + 1):
                for rows in range(top + 2):
                    expected = Counter((weight, t) for weight, t in vectors
                                       if weight <= room and t <= rows)
                    assert Counter(_multiplicities(below, room, rows)) == expected, (
                        below, room, rows)

    def test_edges(self):
        assert _multiplicities(1, 0, 0) == [(0, 0)]
        assert _multiplicities(1, 5, 5) == [(0, 0)]
        assert _multiplicities(4, 9, 0) == [(0, 0)]  # no rows: only the empty choice
        assert sorted(_multiplicities(3, 2, 1)) == [(0, 0), (1, 1), (2, 1)]

    def test_fixed_hook_census(self):
        for h in range(-8, 9):
            assert _by_weight(h, self.N) == _old_fixed_hook_census(h, self.N), h

    def test_mex_census(self):
        for walk, k in itertools.product(
                (_old_mex_census, _old_mex_census_from_multiplicities), range(1, 10)):
            census = {n: walk(k, n) for n in range(self.N + 1)}
            for h in range(-9, 9):
                assert count_generalized_mex(h, k, self.N).values == {
                    n: sum(c for diff, c in by_diff.items() if diff < h + 1)
                    for n, by_diff in census.items()}, (walk.__name__, h, k)

    def test_ones_census(self):
        for h in range(-1, self.N + 2):
            assert count_ones_exact(h, self.N).values == {
                n: sum(_old_ones_census(h + 1, n).values()) for n in range(self.N + 1)}, h
        for h in range(-12, self.N + 2):  # down to the thm3.4 --h -10 edge
            assert count_ones_shifted(h, self.N).values == {
                n: sum(c for t, c in _old_ones_census(1, n - h).items() if t >= 1 - h)
                for n in range(self.N + 1)}, h

    def test_parts_eq_mult(self):
        assert count_parts_eq_mult(self.N).values == {
            n: _old_parts_eq_mult(n) for n in range(self.N + 1)}


class TestAvoidingCensus:
    """The census of the partitions that avoid a part, against a filter of every partition."""

    def test_matches_filter(self):
        for n in range(36):
            expected = {b: Counter() for b in range(1, n + 3)}
            for parts in iter_partition_tuples(n):
                ascending = parts[::-1]
                for b in range(1, n + 3):
                    below = bisect.bisect_left(ascending, b)
                    if below == len(parts) or ascending[below] != b:
                        expected[b][2 * below - len(parts)] += 1
            for b, census in expected.items():
                assert _avoiding_census(b, n) == census, (b, n)

    def test_totals_are_p_n_minus_p_n_minus_b(self):
        # a partition of n with a part b is b plus any partition of n - b
        p = partition_numbers(45)
        for n in range(46):
            for b in range(1, 13):
                assert sum(_avoiding_census(b, n).values()) == p[n] - (p[n - b] if n >= b else 0)


def _package_imports(path: Path) -> set[str]:
    """Modules of the package that the file at path imports, by short name."""
    package = hooklab.__name__
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package if node.level else ""  # modules of the package are one level deep
            base = ".".join(filter(None, (base, node.module)))
            modules = [base] if base != package else [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        names.update(m.split(".")[1] for m in modules if m.startswith(package + "."))
    return names


def test_oracle_never_imports_series():
    """The oracle reaches no package module but partitions, so it stays independent of
    series, and of the bijections and verification layers built beside it."""
    root = Path(hooklab.__file__).parent
    seen, todo = set(), ["oracle"]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(_package_imports(root / f"{module}.py"))
    assert seen == {"oracle", "partitions"}, seen


def test_package_has_no_assert_statements():
    """Invariants are checks that raise: python -O strips assert statements."""
    root = Path(hooklab.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}" for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert not found, found


def test_all_is_exactly_what_the_package_imports():
    """__all__ lists each name that __init__'s `from .x import` statements bind, once,
    and nothing else, and each resolves on the package."""
    tree = ast.parse(Path(hooklab.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign) and node.targets[0].id == "__all__")
    assert sorted(exported) == sorted(imported)
    assert [name for name in exported if not hasattr(hooklab, name)] == []
