"""Exact truncated formal Laurent series in q, and the package's generating functions.

A :class:`Series` stores exact integer coefficients for exponents
``offset..order`` and refuses to report anything above ``order``.
Combining two series truncates to the order on which the result is still
exact.  Offsets may be negative; they arise from Laurent prefactors such
as q^(h+1-C(k,2)).

Every infinite sum below is cut off when the minimal q-exponent of the
next term exceeds the truncation order; for each sum that minimal
exponent is a linear or quadratic increasing function of the summation
index, so the bound is computed rather than guessed.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass


class TruncationError(ValueError):
    """Raised when a coefficient beyond the tracked order is requested."""


def _strip(offset: int, coeffs: list[int]) -> tuple[int, tuple[int, ...]]:
    # canonical form: no leading or trailing zero coefficients are stored
    # (coeff() reports 0 for any untracked exponent at or below the order)
    i = 0
    while i < len(coeffs) and coeffs[i] == 0:
        i += 1
    j = len(coeffs)
    while j > i and coeffs[j - 1] == 0:
        j -= 1
    if i == j:
        return 0, ()
    return offset + i, tuple(coeffs[i:j])


@dataclass(frozen=True)
class Series:
    """Truncated Laurent series with exact integer coefficients."""

    offset: int
    order: int
    coeffs: tuple[int, ...]

    @classmethod
    def make(cls, coeffs, order: int, offset: int = 0) -> "Series":
        dense = list(coeffs)
        if offset + len(dense) - 1 > order:
            dense = dense[: order - offset + 1]
        offset, tail = _strip(offset, dense)
        return cls(offset=offset, order=order, coeffs=tail)

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls(offset=0, order=order, coeffs=())

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls.monomial(0, order)

    @classmethod
    def monomial(cls, exponent: int, order: int, coefficient: int = 1) -> "Series":
        if exponent > order:
            return cls.zero(order)
        return cls.make([coefficient], order, offset=exponent)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, exponent: int) -> int:
        """Exact coefficient of q^exponent; exponents above the order are unknown."""
        if exponent > self.order:
            raise TruncationError(
                f"coefficient of q^{exponent} is beyond the truncation order {self.order}"
            )
        i = exponent - self.offset
        if i < 0 or i >= len(self.coeffs):
            return 0
        return self.coeffs[i]

    def coefficients(self, lo: int, hi: int) -> tuple[int, ...]:
        """Coefficients of q^lo .. q^hi inclusive."""
        return tuple(self.coeff(e) for e in range(lo, hi + 1))

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise TruncationError(f"cannot extend order {self.order} to {order}")
        return Series.make(list(self.coeffs), order, offset=self.offset)

    def shift(self, m: int) -> "Series":
        """Multiply by q^m; offset and order move together, so nothing is lost."""
        return Series(offset=self.offset + m, order=self.order + m, coeffs=self.coeffs)

    def __add__(self, other: "Series") -> "Series":
        order = min(self.order, other.order)
        if self.is_zero():
            return other.truncate(order)
        if other.is_zero():
            return self.truncate(order)
        offset = min(self.offset, other.offset)
        dense = [0] * (order - offset + 1)
        for src in (self, other):
            for i, c in enumerate(src.coeffs):
                e = src.offset + i
                if e <= order:
                    dense[e - offset] += c
        return Series.make(dense, order, offset=offset)

    def __neg__(self) -> "Series":
        return Series(self.offset, self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return Series.zero(self.order)
            return Series(self.offset, self.order, tuple(other * c for c in self.coeffs))
        order = min(self.order + other.offset, other.order + self.offset)
        offset = self.offset + other.offset
        dense = [0] * (order - offset + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            ea = self.offset + i
            top = order - ea
            for j, b in enumerate(other.coeffs):
                eb = other.offset + j
                if eb > top:
                    break
                dense[ea + eb - offset] += a * b
        return Series.make(dense, order, offset=offset)

    __rmul__ = __mul__

    def to_json_dict(self) -> dict:
        dense = [str(self.coeff(e)) for e in range(self.offset, self.order + 1)]
        return {"offset": self.offset, "order": self.order, "coeffs": dense}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Series":
        return cls.make([int(c) for c in data["coeffs"]], int(data["order"]), int(data["offset"]))


# -- helpers on dense coefficient arrays anchored at exponent 0 --------------

def _geometric_divide(dense: list[int], k: int) -> None:
    # multiply in place by 1/(1 - q^k)
    for e in range(k, len(dense)):
        dense[e] += dense[e - k]


def _one_minus_multiply(dense: list[int], k: int) -> None:
    # multiply in place by (1 - q^k)
    for e in range(len(dense) - 1, k - 1, -1):
        dense[e] -= dense[e - k]


def inv_pochhammer_tail(a: int, order: int) -> Series:
    """1/(q^a; q)_inf: partitions with all parts >= a."""
    if a < 1:
        raise ValueError(f"smallest part must be >= 1, got {a}")
    dense = [0] * (order + 1)
    dense[0] = 1
    for k in range(a, order + 1):
        _geometric_divide(dense, k)
    return Series.make(dense, order)


def inv_finite_pochhammer(n: int, order: int) -> Series:
    """1/(q; q)_n: partitions with parts at most n."""
    if n < 0:
        raise ValueError(f"Pochhammer length must be >= 0, got {n}")
    dense = [0] * (order + 1)
    dense[0] = 1
    for k in range(1, min(n, order) + 1):
        _geometric_divide(dense, k)
    return Series.make(dense, order)


@functools.lru_cache(maxsize=None)
def q_binomial(a: int, b: int, order: int) -> Series:
    """Gaussian binomial [a over b]_q, truncated at the given order.

    Zero when b < 0 or b > a; otherwise the generating polynomial for
    partitions fitting in a b x (a-b) box.
    """
    if b < 0 or b > a:
        return Series.zero(order)
    dense = [0] * (order + 1)
    dense[0] = 1
    for k in range(b + 1, a + 1):  # (q)_a / (q)_b
        if k <= order:
            _one_minus_multiply(dense, k)
    for k in range(1, a - b + 1):  # divide by (q)_{a-b}
        if k <= order:
            _geometric_divide(dense, k)
    return Series.make(dense, order)


def _accumulate(dense: list[int], term: Series, shift: int) -> None:
    # dense[shift + e] += term[e] for all tracked exponents that fit
    for i, c in enumerate(term.coeffs):
        e = shift + term.offset + i
        if 0 <= e < len(dense):
            dense[e] += c


# -- generating functions from the fixed-hook counting results ---------------

def gf_fixed_hooks_double_sum(order: int) -> Series:
    """Partitions with a 0-fixed hook: double sum over part count k and j.

    sum_{k>=1} sum_{j>=0} q^(k^2 - 3kj + 2j^2 + j) / ((q)_{k-2j-1} (q)_j),
    with 1/(q)_m = 0 for m < 0.  The exponent is at least k, so k stops
    at the truncation order.
    """
    dense = [0] * (order + 1)
    for k in itertools.count(1):
        if k > order:
            break
        for j in range(0, (k - 1) // 2 + 1):
            exponent = k * k - 3 * k * j + 2 * j * j + j
            if exponent > order:
                continue
            rest = order - exponent
            term = inv_finite_pochhammer(k - 2 * j - 1, rest) * inv_finite_pochhammer(j, rest)
            _accumulate(dense, term, exponent)
    return Series.make(dense, order)


def gf_fixed_hooks_simplified(order: int) -> Series:
    """Partitions with a 0-fixed hook: sum_T q^((T+1)^2) (1 - q^(T+1)) / (q)_inf."""
    poly = [0] * (order + 1)
    for t in itertools.count(0):
        square = (t + 1) * (t + 1)
        if square > order:
            break
        poly[square] += 1
        if square + t + 1 <= order:
            poly[square + t + 1] -= 1
    return Series.make(poly, order) * inv_pochhammer_tail(1, order)


def gf_fixed_hooks(order: int) -> Series:
    """Partitions of n with a 0-fixed hook; computed both ways and cross-checked."""
    double = gf_fixed_hooks_double_sum(order)
    simplified = gf_fixed_hooks_simplified(order)
    if double != simplified:
        raise ArithmeticError("the two fixed-hook generating function forms disagree")
    return simplified


def gf_h_fixed_part_k(h: int, k: int, order: int) -> Series:
    """Partitions with an h-fixed hook whose part at the hook position is k.

    sum_{s >= max(k-h, 1)} q^((k+1)(s-1) + h + 1) [s+h-1 over k-1]_q / (q)_{s-1}.
    """
    if k < 1:
        raise ValueError(f"part size must be >= 1, got {k}")
    dense = [0] * (order + 1)
    for s in itertools.count(max(k - h, 1)):
        exponent = (k + 1) * (s - 1) + h + 1
        if exponent > order:
            break
        rest = order - exponent
        term = q_binomial(s + h - 1, k - 1, rest) * inv_finite_pochhammer(s - 1, rest)
        _accumulate(dense, term, exponent)
    return Series.make(dense, order)


def gf_ones_exact(h: int, order: int) -> Series:
    """Partitions counted by "1 appears exactly h+1 times": q^(h+1)/(q^2; q)_inf.

    Only valid for h >= -1; at h = -1 the constant term is removed (the
    empty partition has no -1-fixed hook although 1 appears zero times in it).
    """
    if h < -1:
        raise ValueError(f"the exact-ones form needs h >= -1, got {h}")
    inner_order = order - (h + 1)
    if inner_order < 0:
        return Series.zero(order)
    base = inv_pochhammer_tail(2, inner_order)
    if h == -1:
        base = base - Series.one(inner_order)
    return base.shift(h + 1)


def gf_ones_shifted(h: int, order: int) -> Series:
    """q^(h+1) ( 1/(q^2; q)_inf - sum_{m=0}^{-h-1} q^(2m)/(q)_m ), any integer h.

    The correction sum is empty for h >= 0.  Equals gf_h_fixed_part_k(h, 1).
    """
    inner_order = order - (h + 1)
    if inner_order < 0:
        return Series.zero(order)
    total = inv_pochhammer_tail(2, inner_order)
    dense = [0] * (inner_order + 1)
    for m in range(0, -h):
        if 2 * m > inner_order:
            break
        _accumulate(dense, inv_finite_pochhammer(m, inner_order - 2 * m), 2 * m)
    return (total - Series.make(dense, inner_order)).shift(h + 1)


def gf_M_k(k: int, order: int) -> Series:
    """Andrews-Merca M_k(n): sum_{n>=k} q^(C(k,2) + (k+1) n) / (q)_n * [n-1 over k-1]_q."""
    if k < 1:
        raise ValueError(f"mex value must be >= 1, got {k}")
    binom2 = k * (k - 1) // 2
    dense = [0] * (order + 1)
    for n in itertools.count(k):
        exponent = binom2 + (k + 1) * n
        if exponent > order:
            break
        rest = order - exponent
        term = q_binomial(n - 1, k - 1, rest) * inv_finite_pochhammer(n, rest)
        _accumulate(dense, term, exponent)
    return Series.make(dense, order)


def gf_generalized_mex(h: int, k: int, order: int) -> Series:
    """Laurent-prefactor form of the h-fixed-hook-at-part-k generating function.

    q^(h+1-C(k,2)) sum_{s >= max(k-h,1)} q^((k+1)(s-1) + C(k,2)) [s+h-1 over k-1]_q / (q)_{s-1};
    the Laurent prefactor exponent may be negative.  At h = -1 this is
    q^(-C(k,2)) M_k(q).  The exponents add up to (k+1)(s-1) + h + 1, so this
    is exactly :func:`gf_h_fixed_part_k`.
    """
    return gf_h_fixed_part_k(h, k, order)


def gf_h_fixed_hook_k(h: int, k: int, order: int) -> Series:
    """Partitions with an h-fixed hook of hook length exactly k.

    sum_{l=1}^{k} q^(k + l(k-h-1)) / (q)_{k-h-1} * [k-1 over l-1]_q; the
    hook sits at position s = k - h, so h <= k - 1 is required.
    """
    if k < 1:
        raise ValueError(f"hook size must be >= 1, got {k}")
    if h > k - 1:
        raise ValueError(f"an h-fixed hook of size {k} needs h <= {k - 1}, got {h}")
    d = k - h - 1
    poly = Series.zero(order)
    for l in range(1, k + 1):
        exponent = k + l * d
        if exponent > order:
            break
        poly = poly + q_binomial(k - 1, l - 1, order - exponent).shift(exponent)
    if poly.is_zero():
        return Series.zero(order)
    return poly * inv_finite_pochhammer(d, order - poly.offset)


def gf_all_h_fixed(h: int, order: int) -> Series:
    """Partitions of n with an h-fixed hook: the hook-size sum of gf_h_fixed_hook_k."""
    dense = [0] * (order + 1)
    for k in range(max(1, h + 1), order + 1):
        # minimal exponent of the k-th summand is k + (k-h-1) if k > h+1, else k
        term = gf_h_fixed_hook_k(h, k, order)
        _accumulate(dense, term, 0)
    return Series.make(dense, order)


def gf_first_column_k_hooks(k: int, order: int) -> Series:
    """Total number of first-column hooks equal to k over all partitions of n.

    q^k / (q^k; q)_inf * sum_{l=1}^{k} 1/(q)_{k-l}.
    """
    if k < 1:
        raise ValueError(f"hook size must be >= 1, got {k}")
    inner_order = order - k
    if inner_order < 0:
        return Series.zero(order)
    dense = [0] * (inner_order + 1)
    for l in range(1, k + 1):
        _accumulate(dense, inv_finite_pochhammer(k - l, inner_order), 0)
    total = Series.make(dense, inner_order) * inv_pochhammer_tail(k, inner_order)
    return total.shift(k)


# -- pentagonal number machinery ---------------------------------------------

def pentagonal_exponents() -> "itertools.chain":
    """(exponent, sign) pairs of (q)_inf = sum (-1)^j q^(j(3j-1)/2), by exponent."""

    def tail():
        for j in itertools.count(1):
            sign = -1 if j % 2 else 1
            yield j * (3 * j - 1) // 2, sign
            yield j * (3 * j + 1) // 2, sign

    return itertools.chain([(0, 1)], tail())


def pentagonal_series(order: int) -> Series:
    """(q; q)_inf expanded by the pentagonal number theorem."""
    dense = [0] * (order + 1)
    for exponent, sign in pentagonal_exponents():
        if exponent > order:
            break
        dense[exponent] = sign
    return Series.make(dense, order)


@functools.lru_cache(maxsize=64)
def _partition_numbers(n_max: int) -> tuple[int, ...]:
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


def partition_numbers(n_max: int) -> list[int]:
    """p(0..n_max) via the pentagonal number recurrence."""
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    return list(_partition_numbers(n_max))


def truncated_pentagonal(kk: int, n: int) -> int:
    """Pentagonal recurrence for p(n) truncated after its first 2*kk terms.

    Keeps p(n) - p(n-1) - p(n-2) + p(n-5) + ... through 2*kk pentagonal
    exponents (0, 1, 2, 5, 7, 12, ...).  For n >= 1 this equals
    (-1)^(kk+1) M_kk(n); n = 0 lies outside the recurrence.
    """
    if kk < 1:
        raise ValueError(f"need kk >= 1, got {kk}")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    p = partition_numbers(n)
    total = 0
    for exponent, sign in itertools.islice(pentagonal_exponents(), 2 * kk):
        if exponent <= n:
            total += sign * p[n - exponent]
    return total
