import functools
import itertools
import operator
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from hooklab import (
    InvariantError,
    Series,
    TruncationError,
    count_generalized_mex,
    gf_M_k,
    gf_all_h_fixed,
    gf_first_column_k_hooks,
    gf_fixed_hooks_double_sum,
    gf_fixed_hooks_simplified,
    gf_h_fixed_hook_k,
    gf_h_fixed_part_k,
    gf_hook_k_all_h,
    gf_ones_shifted,
    inv_finite_pochhammer,
    inv_pochhammer_tail,
    partition_numbers,
    pentagonal_series,
    q_binomial,
    series,
    truncated_pentagonal,
)
from hooklab.oracle import partitions_of
from hooklab.series import _nested_sum, _ratio, _scale, gf_h_fixed_part_sum, pentagonal_exponents

import qlists

N = 60

series_st = st.builds(
    lambda coeffs, offset: Series.make(coeffs, offset + len(coeffs) + 3, offset=offset),
    st.lists(st.integers(-9, 9), min_size=0, max_size=8),
    st.integers(-4, 4),
)
# (coeffs, order, offset) as handed to Series.make: orders fall below the offset too
raw_st = st.tuples(st.lists(st.integers(-3, 3), max_size=8), st.integers(-6, 12), st.integers(-4, 4))
any_series_st = raw_st.map(lambda raw: Series.make(raw[0], raw[1], offset=raw[2]))


class TestArithmetic:
    def test_product(self):
        one_plus_q = Series.make([1, 1], 4)
        sq = one_plus_q * one_plus_q
        assert sq.coefficients(0, 3) == (1, 2, 1, 0)

    def test_shift_laurent(self):
        s = Series.make([1, 1], 4).shift(-1)
        assert s.offset == -1
        assert s.coefficients(-1, 1) == (1, 1, 0)

    def test_telescoping(self):
        geo = inv_finite_pochhammer(1, 10)
        one_minus_q = Series.make([1, -1], 10)
        assert (one_minus_q * geo).coefficients(0, 9) == (1,) + (0,) * 9

    def test_order_tracking(self):
        a = Series.make([1] * 6, 5)
        b = Series.make([1] * 3, 2)
        assert (a + b).order == 2
        assert (a * b).order == 2
        with pytest.raises(TruncationError):
            (a * b).coeff(3)

    def test_product_takes_only_a_series(self):
        a = Series.make([1, 2], 4)
        for product in (lambda: 3 * a, lambda: a * 3):
            with pytest.raises((TypeError, AttributeError)):
                product()

    @staticmethod
    def _agree(x, y):
        # "equal up to order": identical coefficients on the shared exact range
        hi = min(x.order, y.order)
        lo = min(x.offset, y.offset, hi)
        return x.coefficients(lo, hi) == y.coefficients(lo, hi)

    @given(series_st, series_st)
    def test_commutative(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(series_st, series_st, series_st)
    def test_associative(self, a, b, c):
        assert self._agree((a + b) + c, a + (b + c))
        assert self._agree((a * b) * c, a * (b * c))

    @given(series_st, st.integers(-5, 5))
    def test_shift_roundtrip(self, a, m):
        assert a.shift(m).shift(-m) == a

    @given(raw_st, any_series_st, any_series_st, st.integers(-5, 5))
    # nothing above the order is kept: make([1, 2, 3], 5, offset=8) is zero
    @example(([1, 2, 3], 5, 8), Series.zero(5), Series.zero(5), 0)
    # a zero series sits at offset 0: zero(5).shift(3) == zero(8)
    @example(([], 5, 0), Series.zero(5), Series.zero(5), 3)
    def test_every_operation_returns_the_canonical_form(self, raw, a, b, m):
        coeffs, order, offset = raw
        results = {"make": Series.make(coeffs, order, offset=offset), "shift": a.shift(m),
                   "add": a + b, "mul": a * b}
        for name, r in results.items():
            assert r == Series.make(r.coeffs, r.order, offset=r.offset), name


class TestPochhammer:
    def test_partition_counts(self):
        gf = inv_pochhammer_tail(1, 20)
        p = partition_numbers(20)
        assert [gf.coeff(n) for n in range(21)] == p
        assert gf.coeff(5) == 7

    def test_p_10000_from_oeis(self, monkeypatch):
        # A000041(10000), the 107-digit value OEIS lists; the Durfee sum and the
        # recurrence, from a memo holding p(0) alone, must each reach it
        p_10000 = int("36167251325636293988820471890953695495016030339315650422081868605887"
                      "952568754066420592310556052906916435144")
        monkeypatch.setattr(series, "_P", [1])
        assert inv_pochhammer_tail(1, 10000).coeff(10000) == p_10000
        assert partition_numbers(10000)[10000] == p_10000

    def test_no_ones(self):
        assert inv_pochhammer_tail(2, 10).coeff(5) == 2  # (5), (3,2)

    def test_above_cutoff_is_one(self):
        s = inv_pochhammer_tail(11, 10)
        assert s.coefficients(0, 10) == (1,) + (0,) * 10

    def test_finite_cases(self):
        assert inv_finite_pochhammer(0, 8) == Series.one(8)
        assert inv_finite_pochhammer(1, 8).coefficients(0, 8) == (1,) * 9
        assert inv_finite_pochhammer(2, 10).coeff(4) == 3

    def test_tail_identity_from_sum(self):
        # sum_j q^((T+2)j)/(q)_j = 1/(q^(T+2); q)_inf for T <= 10
        for t in range(11):
            acc = qlists.make([], N)
            for j in itertools.count(0):
                e = (t + 2) * j
                if e > N:
                    break
                acc = qlists.add(acc, qlists.shift(inv_finite_pochhammer(j, N - e), e))
            assert qlists.of(inv_pochhammer_tail(t + 2, N)) == acc


def _box_partitions(weight: int, rows: int, cols: int) -> int:
    return sum(
        1 for parts in partitions_of(weight) if len(parts) <= rows and (not parts or parts[0] <= cols)
    )


class TestQBinomial:
    def test_examples(self):
        assert q_binomial(2, 1, 10).coefficients(0, 2) == (1, 1, 0)
        assert q_binomial(4, 2, 10).coefficients(0, 5) == (1, 1, 2, 1, 1, 0)
        assert q_binomial(7, 0, 10) == Series.one(10)

    def test_out_of_range_is_zero(self):
        assert q_binomial(3, 5, 10) == Series.zero(10)
        assert q_binomial(3, -1, 10) == Series.zero(10)

    def test_counts_box_partitions(self):
        for a in range(8):
            for b in range(a + 1):
                gf = q_binomial(a, b, 16)
                for w in range(17):
                    assert gf.coeff(w) == _box_partitions(w, b, a - b), (a, b, w)

    def test_symmetry(self):
        for a in range(9):
            for b in range(a + 1):
                assert q_binomial(a, b, 20) == q_binomial(a, a - b, 20)

    def test_product_identity(self):
        # 1/(q)_a * 1/(q)_b = 1/(q)_{a+b} * [a+b over a]_q
        for a in range(9):
            for b in range(9):
                lhs = qlists.mul(inv_finite_pochhammer(a, N), inv_finite_pochhammer(b, N))
                rhs = qlists.mul(inv_finite_pochhammer(a + b, N), q_binomial(a + b, a, N))
                assert lhs == rhs, (a, b)


class TestFixedHookSeries:
    def test_forms_agree(self):
        assert gf_fixed_hooks_double_sum(N) == gf_fixed_hooks_simplified(N)

    def test_known_coefficients(self):
        gf = gf_fixed_hooks_simplified(40)
        assert gf.coeff(0) == 0
        assert gf.coefficients(1, 5) == (1, 0, 1, 2, 3)
        assert gf.coeff(9) == 12

    def test_part_k_spot_values(self):
        assert gf_h_fixed_part_k(0, 1, 10).coeff(4) == 1  # only (2,1,1)
        assert gf_h_fixed_part_k(0, 9, 9).coeff(9) == 0

    def test_part_k_weight_42_example(self):
        # the weight-42 partition (11,6,5,5,4,4,4,2,1) has a -1-fixed hook
        # h_{7,1} = 6 at part size 4; the coefficient counts its whole class
        from hooklab import Partition, count_h_fixed_by_part

        lam = Partition((11, 6, 5, 5, 4, 4, 4, 2, 1))
        report = lam.find_h_fixed_hook(-1)
        assert report.position == 7 and report.hook == 6 and report.part == 4
        coeff = gf_h_fixed_part_k(-1, 4, 42).coeff(42)
        assert coeff == count_h_fixed_by_part(-1, 4, 42)[42] >= 1

    def test_part_sum_is_fixed_hooks(self):
        total = qlists.make([], 40)
        for k in range(1, 41):
            total = qlists.add(total, gf_h_fixed_part_k(0, k, 40))
        assert qlists.of(gf_fixed_hooks_simplified(40)) == total

    def test_forms_agree_at_order_300(self):
        simplified = gf_fixed_hooks_simplified(300)
        assert gf_fixed_hooks_double_sum(300) == simplified == gf_all_h_fixed(0, 300)

    def test_part_sum_is_fixed_hooks_at_order_150(self):
        total = qlists.make([], 150)
        for k in range(1, 151):
            total = qlists.add(total, gf_h_fixed_part_k(0, k, 150))
        assert qlists.of(gf_fixed_hooks_simplified(150)) == total

    def test_hook_k_edge_cases(self):
        assert gf_h_fixed_hook_k(0, 1, 10).coefficients(0, 10) == (0, 1) + (0,) * 9
        with pytest.raises(ValueError, match="needs h <="):
            gf_h_fixed_hook_k(3, 2, 10)

    def test_hook_row_one(self):
        # h = k-1 places the hook in row 1
        from hooklab import count_h_fixed_by_hook

        for k in range(1, 6):
            gf = gf_h_fixed_hook_k(k - 1, k, 20)
            table = count_h_fixed_by_hook(k - 1, k, 20)
            assert [gf.coeff(n) for n in range(21)] == [table[n] for n in range(21)]

    def test_all_h_fixed_vanishing(self):
        gf = gf_all_h_fixed(-8, 30)
        for n in range(0, 8):
            assert gf.coeff(n) == 0

    def test_all_h_minus_one_is_shifted_M_sum(self):
        # the inner sum at h = -1 is q^(-C(l,2)) M_l(q)
        total = qlists.make([], N)
        for l in range(1, 11):
            c2 = l * (l - 1) // 2
            if l * (l + 1) > N:
                break
            total = qlists.add(total, qlists.shift(gf_M_k(l, N + c2), -c2))
        assert qlists.of(gf_all_h_fixed(-1, N)) == total

    def test_hook_k_all_h_is_theorem_43(self):
        # the h-sum of the hook-k series is the first-column series (Theorem 4.3)
        for k in range(1, 8):
            for order in (0, 1, 5, 17, 60, 200):
                assert gf_hook_k_all_h(k, order) == gf_first_column_k_hooks(k, order), (k, order)
        with pytest.raises(ValueError, match="hook size must be >= 1, got 0"):
            gf_hook_k_all_h(0, 10)

    def test_first_column_hooks_k1(self):
        gf = gf_first_column_k_hooks(1, 20)
        p = partition_numbers(20)
        assert gf.coeff(1) == 1
        assert gf.coeff(5) == 5
        assert all(gf.coeff(n) == p[n - 1] for n in range(1, 21))


class TestOnesSeries:
    def test_exact_examples(self):
        # Theorem 3.3's exact-ones form, h >= -1
        assert gf_ones_shifted(0, 10).coeff(4) == 1  # only (3,1)
        assert gf_ones_shifted(-1, 10).coeff(0) == 0
        assert gf_ones_shifted(1, 10).coeff(2) == 1  # (1,1)

    def test_shifted_matches_part_one_all_h(self):
        for h, order in itertools.product(range(-7, 7), range(41)):
            assert gf_ones_shifted(h, order) == gf_h_fixed_part_k(h, 1, order), (h, order)

    def test_shifted_h_minus_two_spot(self):
        # partitions of n+2 with >= 3 parts and exactly one 1; n = 3 gives (2,2,1) only
        assert gf_ones_shifted(-2, 10).coeff(3) == 1


class TestMexSeries:
    def test_M1_values(self):
        gf = gf_M_k(1, 20)
        p = partition_numbers(20)
        assert gf.coeff(0) == 0
        assert gf.coeff(1) == 0
        assert gf.coeff(5) == 2  # (5), (3,2)
        for n in range(1, 21):
            assert gf.coeff(n) == p[n] - p[n - 1]

    def test_minus_one_is_shifted_M(self):
        for k in range(1, 6):
            c2 = k * (k - 1) // 2
            shifted = qlists.shift(gf_M_k(k, N + c2), -c2)
            assert qlists.of(gf_h_fixed_part_k(-1, k, N)) == shifted

    def test_generalized_matches_oracle_at_shift(self):
        h, k = 0, 1
        gf = gf_h_fixed_part_k(h, k, 20)
        table = count_generalized_mex(h, k, 20)
        # coefficient at q^n counts partitions of n + C(k,2) - (h+1) in the class
        assert gf.coeff(4) == table[3] == 1


class TestPentagonal:
    def test_series_signs(self):
        gf = pentagonal_series(20)
        expected = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1}
        for e in range(16):
            assert gf.coeff(e) == expected.get(e, 0)

    def test_recurrence(self):
        p = partition_numbers(10)
        assert p == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        assert p[5] == p[4] + p[3] - p[0]
        with pytest.raises(ValueError, match="need n_max >= 0, got -1"):
            partition_numbers(-1)

    def test_euler_inverse(self):
        product = qlists.mul(pentagonal_series(N), inv_pochhammer_tail(1, N))
        assert product == qlists.make([1], N)

    def test_truncation_values(self):
        assert truncated_pentagonal(1, 5) == 2
        p = partition_numbers(9)
        assert truncated_pentagonal(2, 9) == p[9] - p[8] - p[7] + p[4]
        with pytest.raises(ValueError, match="need kk >= 1, got 0"):
            truncated_pentagonal(0, 5)
        with pytest.raises(ValueError, match="need n >= 0, got -1"):
            truncated_pentagonal(1, -1)

    def test_truncation_sign_identity(self):
        from hooklab import count_mex_class_multi

        tables = count_mex_class_multi((1, 2, 3, 4, 5), 30)
        for k in range(1, 6):
            sign = 1 if k % 2 else -1
            for n in range(1, 31):
                assert sign * truncated_pentagonal(k, n) == tables[k][n]

    def test_nonnegative_after_sign(self):
        for k in range(1, 6):
            sign = 1 if k % 2 else -1
            for n in range(1, 61):
                assert sign * truncated_pentagonal(k, n) >= 0


class TestNonnegativity:
    def test_counting_series_have_nonnegative_coefficients(self):
        candidates = [
            gf_fixed_hooks_simplified(40),
            gf_first_column_k_hooks(3, 40),
            gf_M_k(2, 40),
            gf_all_h_fixed(-2, 40),
            gf_ones_shifted(-3, 40),
            gf_h_fixed_hook_k(-1, 3, 40),
        ]
        for s in candidates:
            assert all(c >= 0 for c in s.coefficients(0, 40))


# -- the summand-by-summand implementations the product kernel replaced -------
#
# Each summand was built from scratch as a product of two truncated series
# and added into a dense list; the kernel rewrite must give the same series,
# or raise the same error, at every grid point.  The copies compute with the
# reference arithmetic of qlists, so they share no kernel with the package.

def _old_geometric_divide(dense, k):
    for e in range(k, len(dense)):
        dense[e] += dense[e - k]


def _old_one_minus_multiply(dense, k):
    for e in range(len(dense) - 1, k - 1, -1):
        dense[e] -= dense[e - k]


def _old_accumulate(dense, term, shift):
    for i, c in enumerate(term.coeffs):
        e = shift + term.offset + i
        if 0 <= e < len(dense):
            dense[e] += c


def _old_inv_pochhammer_tail(a, order):
    if a < 1:
        raise ValueError(f"smallest part must be >= 1, got {a}")
    dense = [1] + [0] * order  # [1] below q^0, cut to nothing by make
    for k in range(a, order + 1):
        _old_geometric_divide(dense, k)
    return qlists.make(dense, order)


def _old_inv_finite_pochhammer(n, order):
    if n < 0:
        raise ValueError(f"Pochhammer length must be >= 0, got {n}")
    dense = [0] * (order + 1)
    dense[0] = 1
    for k in range(1, min(n, order) + 1):
        _old_geometric_divide(dense, k)
    return qlists.make(dense, order)


def _old_q_binomial(a, b, order):
    if b < 0 or b > a:
        return qlists.make([], order)
    dense = [0] * (order + 1)
    dense[0] = 1
    for k in range(b + 1, a + 1):
        if k <= order:
            _old_one_minus_multiply(dense, k)
    for k in range(1, a - b + 1):
        if k <= order:
            _old_geometric_divide(dense, k)
    return qlists.make(dense, order)


def _old_gf_fixed_hooks_double_sum(order):
    dense = [0] * (order + 1)
    for k in itertools.count(1):
        if k > order:
            break
        for j in range(0, (k - 1) // 2 + 1):
            exponent = k * k - 3 * k * j + 2 * j * j + j
            if exponent > order:
                continue
            rest = order - exponent
            term = qlists.mul(_old_inv_finite_pochhammer(k - 2 * j - 1, rest),
                              _old_inv_finite_pochhammer(j, rest))
            _old_accumulate(dense, term, exponent)
    return qlists.make(dense, order)


def _old_gf_fixed_hooks_simplified(order):
    if order < 0:  # the p(n) memo's error: the tail is read up to q^-1
        raise ValueError("need n_max >= 0, got -1")
    poly = [0] * (order + 1)
    for t in itertools.count(0):
        square = (t + 1) * (t + 1)
        if square > order:
            break
        poly[square] += 1
        if square + t + 1 <= order:
            poly[square + t + 1] -= 1
    return qlists.mul(qlists.make(poly, order), _old_inv_pochhammer_tail(1, order))


def _old_gf_h_fixed_part_k(h, k, order):
    if k < 1:
        raise ValueError(f"part size must be >= 1, got {k}")
    dense = [0] * (order + 1)
    for s in itertools.count(max(k - h, 1)):
        exponent = (k + 1) * (s - 1) + h + 1
        if exponent > order:
            break
        rest = order - exponent
        term = qlists.mul(_old_q_binomial(s + h - 1, k - 1, rest),
                          _old_inv_finite_pochhammer(s - 1, rest))
        _old_accumulate(dense, term, exponent)
    return qlists.make(dense, order)


def _old_gf_ones_exact(h, order):
    if h < -1:
        raise ValueError(f"the exact-ones form needs h >= -1, got {h}")
    inner_order = order - (h + 1)
    if inner_order < 0:
        return qlists.make([], order)
    base = _old_inv_pochhammer_tail(2, inner_order)
    if h == -1:
        base = qlists.add(base, qlists.neg(qlists.make([1], inner_order)))
    return qlists.shift(base, h + 1)


def _old_gf_ones_shifted(h, order):
    inner_order = order - (h + 1)
    if inner_order < 0:
        return qlists.make([], order)
    total = _old_inv_pochhammer_tail(2, inner_order)
    dense = [0] * (inner_order + 1)
    for m in range(0, -h):
        if 2 * m > inner_order:
            break
        _old_accumulate(dense, _old_inv_finite_pochhammer(m, inner_order - 2 * m), 2 * m)
    return qlists.shift(qlists.add(total, qlists.neg(qlists.make(dense, inner_order))), h + 1)


def _old_gf_M_k(k, order):
    if k < 1:
        raise ValueError(f"mex value must be >= 1, got {k}")
    binom2 = k * (k - 1) // 2
    dense = [0] * (order + 1)
    for n in itertools.count(k):
        exponent = binom2 + (k + 1) * n
        if exponent > order:
            break
        rest = order - exponent
        term = qlists.mul(_old_q_binomial(n - 1, k - 1, rest), _old_inv_finite_pochhammer(n, rest))
        _old_accumulate(dense, term, exponent)
    return qlists.make(dense, order)


def _old_gf_h_fixed_hook_k(h, k, order):
    if k < 1:
        raise ValueError(f"hook size must be >= 1, got {k}")
    if h > k - 1:
        raise ValueError(f"an h-fixed hook of size {k} needs h <= {k - 1}, got {h}")
    d = k - h - 1
    poly = qlists.make([], order)
    for l in range(1, k + 1):
        exponent = k + l * d
        if exponent > order:
            break
        term = _old_q_binomial(k - 1, l - 1, order - exponent)
        poly = qlists.add(poly, qlists.shift(term, exponent))
    if not poly.coeffs:
        return qlists.make([], order)
    return qlists.mul(poly, _old_inv_finite_pochhammer(d, order - poly.offset))


def _old_gf_all_h_fixed(h, order):
    dense = [0] * (order + 1)
    for k in range(max(1, h + 1), order + 1):
        _old_accumulate(dense, _old_gf_h_fixed_hook_k(h, k, order), 0)
    return qlists.make(dense, order)


def _old_gf_first_column_k_hooks(k, order):
    if k < 1:
        raise ValueError(f"hook size must be >= 1, got {k}")
    inner_order = order - k
    if inner_order < 0:
        return qlists.make([], order)
    dense = [0] * (inner_order + 1)
    for l in range(1, k + 1):
        _old_accumulate(dense, _old_inv_finite_pochhammer(k - l, inner_order), 0)
    total = qlists.mul(qlists.make(dense, inner_order), _old_inv_pochhammer_tail(k, inner_order))
    return qlists.shift(total, k)


def _outcome(fn, *args):
    try:
        s = fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return s.offset, s.order, s.coeffs


def _kernel_grid(order):
    """(new, old, args) at one order: h in -7..6, k in 0..8 and 10, a <= 11, b in -1..12.

    gf_M_k's rows also take k = 11, whose first term is q^187, and only they
    run outside orders 0..97: at a negative order gf_M_k calls
    gf_h_fixed_part_k(-1, k) at order - C(k, 2), below 0 as well.
    """
    hs, ks = range(-7, 7), (*range(0, 9), 10)
    for k in (*ks, 11):
        yield gf_M_k, _old_gf_M_k, (k, order)
    if not 0 <= order <= 97:
        return
    yield gf_fixed_hooks_double_sum, _old_gf_fixed_hooks_double_sum, (order,)
    yield gf_fixed_hooks_simplified, _old_gf_fixed_hooks_simplified, (order,)
    for a in range(-1, 12):
        yield inv_pochhammer_tail, _old_inv_pochhammer_tail, (a, order)
        yield inv_finite_pochhammer, _old_inv_finite_pochhammer, (a, order)
        for b in range(-1, 13):
            yield q_binomial, _old_q_binomial, (a, b, order)
    for k in ks:
        yield gf_first_column_k_hooks, _old_gf_first_column_k_hooks, (k, order)
    for h in hs:
        if h >= -1:  # Theorem 3.3's exact-ones form
            yield gf_ones_shifted, _old_gf_ones_exact, (h, order)
        yield gf_ones_shifted, _old_gf_ones_shifted, (h, order)
        yield gf_all_h_fixed, _old_gf_all_h_fixed, (h, order)
        for k in ks:
            yield gf_h_fixed_part_k, _old_gf_h_fixed_part_k, (h, k, order)
            yield gf_h_fixed_hook_k, _old_gf_h_fixed_hook_k, (h, k, order)


# -- the carried sums that the Horner-form sums replaced -----------------------
#
# Each summand was carried from the one before at the full length left below
# the order, T_(i+1) = T_i prod(1 - q^a) / prod(1 - q^b), and added in turn.

def _carried_sum(total, exponent, term, steps):
    order = len(total) - 1
    for gap, ups, downs in itertools.chain([(0, (), ())], steps):
        exponent += gap
        if exponent > order:
            return
        del term[order - exponent + 1 :]
        _scale(term, ups, downs)
        total[exponent:] = map(operator.add, total[exponent:], term)


def _carried_gf_fixed_hooks_double_sum(order):
    total = [0] * (order + 1)
    inverse = _ratio(order)
    for j in range((order + 1) // 2):
        del inverse[order - 2 * j :]
        steps = ((j + 2 * i + 3, (), (i + 1,)) for i in itertools.count(0))
        _carried_sum(total, 2 * j + 1, list(inverse), steps)
        _scale(inverse, downs=(j + 1,))
    return Series.make(total, order)


def _carried_gf_h_fixed_part_k(h, k, order):
    if k < 1:
        raise ValueError(f"part size must be >= 1, got {k}")
    s0 = max(k - h, 1)
    exponent = (k + 1) * (s0 - 1) + h + 1
    if exponent > order:
        return Series.zero(order)
    downs = itertools.chain(range(1, s0 + h - k + 1), range(1, s0))
    total = [0] * (order + 1)
    steps = ((k + 1, (s + h,), (s + h - k + 1, s)) for s in itertools.count(s0))
    _carried_sum(total, exponent, _ratio(order - exponent + 1, range(k, s0 + h), downs), steps)
    return Series.make(total, order)


def _carried_gf_ones_shifted(h, order):
    inner_order = order - (h + 1)
    dense = _ratio(inner_order + 1, downs=range(2, inner_order + 1))
    if h < 0:
        steps = ((2, (), (m + 1,)) for m in range(-h - 1))
        _carried_sum(dense, 0, [-1] + [0] * inner_order, steps)
    return Series.make(dense, order, offset=h + 1)


def _carried_gf_ones_exact(h, order):
    if h < -1:
        raise ValueError(f"the exact-ones form needs h >= -1, got {h}")
    return _carried_gf_ones_shifted(h, order)


def _carried_gf_M_k(k, order):
    if k < 1:
        raise ValueError(f"mex value must be >= 1, got {k}")
    exponent = k * (k - 1) // 2 + (k + 1) * k
    if exponent > order:
        return Series.zero(order)
    total = [0] * (order + 1)
    steps = ((k + 1, (n,), (n - k + 1, n + 1)) for n in itertools.count(k))
    _carried_sum(total, exponent, _ratio(order - exponent + 1, downs=range(1, k + 1)), steps)
    return Series.make(total, order)


def _carried_gf_h_fixed_hook_k(h, k, order):
    if k < 1:
        raise ValueError(f"hook size must be >= 1, got {k}")
    if h > k - 1:
        raise ValueError(f"an h-fixed hook of size {k} needs h <= {k - 1}, got {h}")
    d = k - h - 1
    if k + d > order:
        return Series.zero(order)
    total = [0] * (order + 1)
    steps = ((d, (k - l,), (l,)) for l in range(1, k))
    _carried_sum(total, k + d, _ratio(order - k - d + 1, downs=range(1, d + 1)), steps)
    return Series.make(total, order)


def _carried_gf_all_h_fixed(h, order):
    k0 = max(1, h + 1)
    if 2 * k0 - h - 1 > order:
        return Series.zero(order)
    total = [0] * (order + 1)
    inverse = _ratio(order + 1, downs=range(1, k0 - h))
    for k in itertools.count(k0):
        d = k - h - 1
        if k + d > order:
            break
        del inverse[order - k - d + 1 :]
        steps = ((d, (k - l,), (l,)) for l in range(1, k))
        _carried_sum(total, k + d, list(inverse), steps)
        _scale(inverse, downs=(d + 1,))
    return Series.make(total, order)


def _carried_gf_first_column_k_hooks(k, order):
    if k < 1:
        raise ValueError(f"hook size must be >= 1, got {k}")
    inner_order = order - k
    dense = [0] * (inner_order + 1)
    steps = ((0, (), (m + 1,)) for m in range(k - 1))
    _carried_sum(dense, 0, _ratio(inner_order + 1), steps)
    _scale(dense, downs=range(k, inner_order + 1))
    return Series.make(dense, order, offset=k)


def _carried_grid(order):
    """(new, carried, args) at one order: h in -7..6, k in 0..8 and 10.

    gf_M_k's rows also take k = 11, and only they run below order 0.
    """
    hs, ks = range(-7, 7), (*range(0, 9), 10)
    for k in (*ks, 11):
        yield gf_M_k, _carried_gf_M_k, (k, order)
    if order < 0:
        return
    yield gf_fixed_hooks_double_sum, _carried_gf_fixed_hooks_double_sum, (order,)
    for k in ks:
        yield gf_first_column_k_hooks, _carried_gf_first_column_k_hooks, (k, order)
    for h in hs:
        if h >= -1:
            yield gf_ones_shifted, _carried_gf_ones_exact, (h, order)
        yield gf_ones_shifted, _carried_gf_ones_shifted, (h, order)
        yield gf_all_h_fixed, _carried_gf_all_h_fixed, (h, order)
        for k in ks:
            yield gf_h_fixed_part_k, _carried_gf_h_fixed_part_k, (h, k, order)
            yield gf_h_fixed_hook_k, _carried_gf_h_fixed_hook_k, (h, k, order)


class TestKernelDifferential:
    @pytest.mark.parametrize("order", [-5, -1, *range(0, 41), 97, 250])
    def test_same_series_or_error_as_the_summand_products(self, order):
        for new, old, args in _kernel_grid(order):
            assert _outcome(new, *args) == _outcome(old, *args), (new.__name__, args)

    @pytest.mark.parametrize("order", [-5, -1, *range(0, 41), 97, 250])
    def test_same_series_or_error_as_the_carried_sums(self, order):
        for new, old, args in _carried_grid(order):
            assert _outcome(new, *args) == _outcome(old, *args), (new.__name__, args)


# -- the per-h sum that gf_hook_k_all_h replaced in verify thm4.3 -------------

def _per_h_hook_k_all_h(k, order):
    # gf_h_fixed_hook_k(h, k) for h = k-1 down to the last h whose minimal
    # exponent k + (k - h - 1) is within the order, each added into a list
    # anchored at q^0
    total = [0] * (order + 1)
    h = k - 1
    while k + (k - h - 1) <= order:
        s = gf_h_fixed_hook_k(h, k, order)
        end = s.offset + len(s.coeffs)
        total[s.offset : end] = map(operator.add, total[s.offset : end], s.coeffs)
        h -= 1
    return Series.make(total, order)


class TestHSumDifferential:
    @pytest.mark.parametrize("order", [*range(0, 41), 97, 250])
    def test_same_series_or_error_as_the_per_h_sum(self, order):
        for k in range(0, 8):
            assert _outcome(gf_hook_k_all_h, k, order) == _outcome(_per_h_hook_k_all_h, k, order), k


# -- the fold by + that gf_h_fixed_part_sum replaced in verify thm4.2 ---------

def _folded_part_sum(h, order):
    parts = (gf_h_fixed_part_k(h, k, order) for k in range(1, order + 1))
    return functools.reduce(operator.add, parts, Series.zero(order))


class TestPartSumDifferential:
    @pytest.mark.parametrize("order", [*range(0, 41), 97, 250])
    def test_same_series_or_error_as_the_folded_sum(self, order):
        for h in range(-7, 7):
            assert _outcome(gf_h_fixed_part_sum, h, order) == _outcome(_folded_part_sum, h, order), h

    # h near order / 2: a term for each k up to about h, each some order - h long
    @pytest.mark.parametrize("h, order", [(50, 120), (150, 300)])
    def test_same_series_at_h_near_half_the_order(self, h, order):
        assert gf_h_fixed_part_sum(h, order) == _folded_part_sum(h, order)


class TestNestedSum:
    def test_a_term_below_the_base_raises(self):
        # it would land at a negative index, where the slice is empty and the
        # term is dropped
        with pytest.raises(InvariantError, match=r"a term starts at q\^-1, below q\^0"):
            _nested_sum(0, 5, [(-1, [7, 8, 9], 0)])
        with pytest.raises(InvariantError, match=r"a term starts at q\^2, below q\^3"):
            _nested_sum(3, 9, [(4, [1], 1), (2, [1], 0)])


# -- the schoolbook product that Kronecker substitution replaced, qlists.mul --

# coefficients up to 10^40 in size, of either sign, so that a digit of the
# packed integers takes from one byte to well over 64 bits; orders fall below
# the offset too, and short lists give zero and one-coefficient series
wide_series_st = st.builds(
    lambda coeffs, offset, span: Series.make(coeffs, offset + span, offset=offset),
    st.lists(st.one_of(st.integers(-9, 9), st.integers(-10**40, 10**40)), max_size=12),
    st.integers(-6, 6),
    st.integers(-3, 14),
)


class TestProductDifferential:
    @settings(max_examples=400, deadline=None)
    @given(wide_series_st, wide_series_st)
    @example(Series.zero(5), Series.make([7], 5))
    # one coefficient at a time: the product fills its digit up to the sign bit
    @example(Series.make([255], 4), Series.make([1], 4))
    @example(Series.make([-128], 4, offset=-6), Series.make([-(2**63)], 9, offset=6))
    def test_same_series_as_the_schoolbook_product(self, a, b):
        for x, y in ((a, b), (b, a), (a, a)):
            assert qlists.of(x * y) == qlists.mul(x, y)


# -- the per-coefficient addition that _nested_sum replaced in Series.__add__,
# qlists.add -------------------------------------------------------------------

class TestSumDifferential:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(any_series_st, wide_series_st), min_size=1, max_size=6))
    # terms that run past the lowest order, one of them wholly
    @example([Series.make([1, 2, 3], 9, offset=-3), Series.make([4], 0), Series.make([5], 7, 2)])
    # every term starts below q^0, and the orders are negative
    @example([Series.make([1, -1], -2, offset=-4), Series.make([2], -3, offset=-5)])
    @example([Series.zero(4)])
    def test_same_series_as_the_folded_loop_add(self, terms):
        new, old = functools.reduce(operator.add, terms), functools.reduce(qlists.add, terms)
        assert qlists.of(new) == qlists.of(old)


# -- the per-exponent reads and the cached recurrence that one slice and one
# grow-only list replaced ---------------------------------------------------

def _per_exponent_coeff(s, exponent):
    if exponent > s.order:
        raise TruncationError(
            f"coefficient of q^{exponent} is beyond the truncation order {s.order}"
        )
    i = exponent - s.offset
    if i < 0 or i >= len(s.coeffs):
        return 0
    return s.coeffs[i]


def _per_exponent_coefficients(s, lo, hi):
    return tuple(_per_exponent_coeff(s, e) for e in range(lo, hi + 1))


@functools.lru_cache(maxsize=64)
def _cached_partition_numbers(n_max):
    p = [0] * (n_max + 1)
    p[0] = 1
    for n in range(1, n_max + 1):
        total = 0
        for exponent, sign in pentagonal_exponents():
            if exponent == 0:
                continue
            if exponent > n:
                break
            total -= sign * p[n - exponent]
        p[n] = total
    return tuple(p)


def _cached_truncated_pentagonal(kk, n):
    p = _cached_partition_numbers(n)
    total = 0
    for exponent, sign in itertools.islice(pentagonal_exponents(), 2 * kk):
        if exponent > n:
            break
        total += sign * p[n - exponent]
    return total


def _read(fn, *args):
    try:
        return fn(*args)
    except TruncationError as exc:
        return TruncationError, str(exc)


class TestReadDifferential:
    @settings(max_examples=400)
    @given(any_series_st, st.integers(-14, 16), st.integers(-14, 16))
    @example(Series.make([1, 2], 5, offset=3), -4, -1)  # wholly below the offset
    @example(Series.make([1, 2], 5, offset=3), 2, 9)  # from below the offset to above the order
    @example(Series.make([1, 2], 5, offset=3), 9, 7)  # lo > hi, both above the order
    @example(Series.make([1, -2, 3], -3, offset=-4), -6, -3)  # negative exponents and order
    @example(Series.zero(3), -2, 3)
    def test_same_tuple_or_error_as_the_per_exponent_reads(self, s, lo, hi):
        assert _read(s.coefficients, lo, hi) == _read(_per_exponent_coefficients, s, lo, hi)
        assert _read(s.coeff, lo) == _read(_per_exponent_coeff, s, lo)

    def test_same_numbers_as_the_cached_recurrence(self, monkeypatch):
        monkeypatch.setattr(series, "_P", [1])  # grow the memo from p(0) alone
        old = {partition_numbers: lambda n: list(_cached_partition_numbers(2000)[: n + 1]),
               truncated_pentagonal: _cached_truncated_pentagonal}
        rng = random.Random(15)
        # every n to 120, and n to 2000 in random steps, so that fills start
        # and end at random points of the memo
        asks = [(partition_numbers, n) for n in [*range(121), *rng.sample(range(121, 2001), 15), 2000]]
        asks += [(truncated_pentagonal, k, n) for k in range(1, 7) for n in range(121)]
        rng.shuffle(asks)
        for fn, *args in asks:
            got = fn(*args)
            assert got == old[fn](*args), (fn.__name__, args)
            if isinstance(got, list):  # a caller's edit must not reach a later answer
                got.reverse()
                got.append(-1)


# -- the division chains that the p(n) memo replaced in the closed forms, and
# that the Durfee sum replaced in inv_pochhammer_tail -------------------------

def _tail_grid(order):
    """(new, old, args before the order): the constructors that read p(n), and 1/(q^a; q)_inf."""
    for a in (1, 2, 9, order, order + 1):
        yield inv_pochhammer_tail, _old_inv_pochhammer_tail, (a,)
    yield gf_fixed_hooks_simplified, _old_gf_fixed_hooks_simplified, ()
    for k in range(0, 8):
        yield gf_first_column_k_hooks, _old_gf_first_column_k_hooks, (k,)
    for h in range(-7, 7):
        yield gf_ones_shifted, _old_gf_ones_shifted, (h,)


class TestTailDifferential:
    ORDERS = [-5, -1, *range(0, 41), 97, 250, 1000]

    def test_same_series_or_error_as_the_division_chains(self, monkeypatch):
        expected = {(new, args, order): _outcome(old, *args, order)
                    for order in self.ORDERS for new, old, args in _tail_grid(order)}
        # from the highest order down the memo grows once and is then read as a
        # prefix; from the lowest up it grows at every order
        for orders in (self.ORDERS[::-1], self.ORDERS):
            monkeypatch.setattr(series, "_P", [1])
            for order in orders:
                for new, _, args in _tail_grid(order):
                    assert _outcome(new, *args, order) == expected[new, args, order], \
                        (new.__name__, args, order)
            # no constructor wrote into the memo
            assert series._P == list(_cached_partition_numbers(len(series._P) - 1))


class TestEulerIndependence:
    # pentagonal_series(N) * inv_pochhammer_tail(1, N) == 1 is Euler's identity,
    # checked here and by criterion 7. partition_numbers derives p(n) from the
    # pentagonal numbers, so a product side read from it would make the identity
    # hold by construction: the closed forms read p(n), the product side divides
    @pytest.mark.parametrize("memo", ["partition_numbers", "_P"])
    def test_only_the_closed_forms_read_p(self, monkeypatch, memo):
        closed_forms = [gf_fixed_hooks_simplified(N), gf_first_column_k_hooks(2, N),
                        gf_ones_shifted(0, N)]
        wrong_p = partition_numbers(N)
        wrong_p[7] += 1
        if memo == "_P":  # the memo itself, read directly or through partition_numbers
            monkeypatch.setattr(series, "_P", wrong_p)
        else:
            monkeypatch.setattr(series, "partition_numbers", lambda n: wrong_p[: n + 1])
        assert qlists.mul(pentagonal_series(N), inv_pochhammer_tail(1, N)) == qlists.make([1], N)
        wrong = [gf_fixed_hooks_simplified(N), gf_first_column_k_hooks(2, N),
                 gf_ones_shifted(0, N)]
        assert all(a != b for a, b in zip(wrong, closed_forms))
