"""Exact truncated formal Laurent series in q, and the package's generating functions.

A :class:`Series` stores exact integer coefficients for exponents
``offset..order`` and refuses to report anything above ``order``.
Combining two series truncates to the order on which the result is still
exact.  Offsets may be negative; they arise from Laurent prefactors such
as q^(h+1-C(k,2)).

Each summed generating function is a sum of q^(e_i) B_i over a product of
factors (1 - q^b) that gains one factor per index (two in the Durfee sum of
1/(q^a; q)_inf).  It is summed inside out, from its last index down: the
running sum is divided by the factors its index adds, and the next
q-binomial B_i, carried from the one above and kept no longer than its
degree, is added.  A sum starts at the last index whose
minimal q-exponent, which increases with the index, is within the order.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .partitions import Frozen, InvariantError


class TruncationError(ValueError):
    """Raised when a coefficient beyond the tracked order is requested."""


class Series(Frozen):
    """Truncated Laurent series with exact integer coefficients."""

    __slots__ = ("offset", "order", "coeffs", "__weakref__")

    def __init__(self, offset: int, order: int, coeffs: tuple[int, ...]) -> None:
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.offset, self.order, self.coeffs)
                    == (other.offset, other.order, other.coeffs))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.offset, self.order, self.coeffs))

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(offset={self.offset!r}, order={self.order!r}, "
                f"coeffs={self.coeffs!r})")

    def __reduce__(self):  # copy and pickle call __init__, as Frozen refuses their setattr
        return Series, (self.offset, self.order, self.coeffs)

    @classmethod
    def make(cls, coeffs, order: int, offset: int = 0) -> "Series":
        """The canonical series of coeffs from q^offset on: every series is built here.

        Nothing above the order is stored, nor any leading or trailing zero
        coefficient (coeff() reports 0 for any untracked exponent at or below
        the order); a zero series sits at offset 0.
        """
        dense = list(coeffs)[: max(order - offset + 1, 0)]
        i = 0
        while i < len(dense) and dense[i] == 0:
            i += 1
        j = len(dense)
        while j > i and dense[j - 1] == 0:
            j -= 1
        if i == j:
            return cls.zero(order)
        return cls(offset=offset + i, order=order, coeffs=tuple(dense[i:j]))

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls(offset=0, order=order, coeffs=())

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls.make([1], order)

    def coeff(self, exponent: int) -> int:
        """Exact coefficient of q^exponent; exponents above the order are unknown."""
        return self.coefficients(exponent, exponent)[0]

    def coefficients(self, lo: int, hi: int) -> tuple[int, ...]:
        """Coefficients of q^lo .. q^hi inclusive, () when lo > hi; one slice of coeffs."""
        n = hi - lo + 1
        if n <= 0:
            return ()
        if hi > self.order:
            raise TruncationError(f"coefficient of q^{max(lo, self.order + 1)} "
                                  f"is beyond the truncation order {self.order}")
        start = lo - self.offset
        lead = min(max(-start, 0), n)  # exponents below the offset
        body = self.coeffs[max(start, 0) : max(start + n, 0)]
        return (0,) * lead + body + (0,) * (n - lead - len(body))

    def shift(self, m: int) -> "Series":
        """Multiply by q^m; offset and order move together, so nothing is lost."""
        return Series.make(self.coeffs, self.order + m, offset=self.offset + m)

    def __add__(self, other: "Series") -> "Series":
        """The sum, exact up to the lower order: one dense list from the lower offset."""
        offset, order = min(self.offset, other.offset), min(self.order, other.order)
        terms = ((t.offset, t.coeffs, 0) for t in (self, other))
        return Series.make(_nested_sum(offset, order, terms), order, offset=offset)

    def __mul__(self, other: "Series") -> "Series":
        order = min(self.order + other.offset, other.order + self.offset)
        offset = self.offset + other.offset
        length = max(order - offset + 1, 0)  # the product's exact coefficients
        a, b = self.coeffs[:length], other.coeffs[:length]
        if not a or not b:
            return Series.zero(order)
        return Series.make(_kronecker(a, b, min(length, len(a) + len(b) - 1)), order, offset=offset)


def _kronecker(a: tuple[int, ...], b: tuple[int, ...], length: int) -> list[int]:
    # the first length coefficients of a * b by Kronecker substitution (Harvey,
    # arXiv:0712.4046): each list becomes one integer, its digits in base
    # 2^(8 width), and the two integers are multiplied once. No coefficient of
    # the product exceeds bound in size, and width has the bits of bound plus a
    # sign bit, so with the bias 2^(8 width - 1) added to every digit no digit
    # borrows from or carries into the next, and each reads back exactly
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    width = (bound.bit_length() + 8) // 8
    bias = 1 << (8 * width - 1)
    biases = bias.to_bytes(width, "little") * length  # no operand is longer than length

    def pack(coeffs: tuple[int, ...]) -> int:
        digits = b"".join([(c + bias).to_bytes(width, "little") for c in coeffs])
        return int.from_bytes(digits, "little") - int.from_bytes(biases[: len(digits)], "little")

    size = width * length
    product = pack(a) * pack(b) + int.from_bytes(biases, "little")
    digits = (product & ((1 << 8 * size) - 1)).to_bytes(size, "little")
    return [int.from_bytes(digits[i : i + width], "little") - bias for i in range(0, size, width)]


# -- the product kernel on dense coefficient lists anchored at exponent 0 ----

def _divide(dense: list[int], b: int, start: int = 0) -> None:
    # divide dense[start:], a series from q^start, in place by 1 - q^b (b >= 1):
    # a running sum along each residue class mod b, or by blocks of b
    n = len(dense)
    if b * b < n - start:
        for r in range(start, start + b):
            dense[r::b] = itertools.accumulate(dense[r::b])
    else:
        for i in range(start + b, n, b):
            dense[i : i + b] = map(operator.add, dense[i : i + b], dense[i - b : i])


def _scale(dense: list[int], ups=(), downs=()) -> None:
    # multiply in place by prod(1 - q^a) / prod(1 - q^b) over a in ups, b in
    # downs (all >= 1); a factor with its exponent past the end is 1 there
    n = len(dense)
    for a in ups:
        if a < n:
            dense[a:] = map(operator.sub, dense[a:], dense[: n - a])
    for b in downs:
        _divide(dense, b)


def _ratio(length: int, ups=(), downs=()) -> list[int]:
    # prod(1 - q^a) / prod(1 - q^b) on q^0 .. q^(length-1)
    dense = [1] + [0] * (length - 1)
    _scale(dense, ups, downs)
    return dense


def _over_tail(poly: list[int], a: int) -> tuple[int, ...]:
    # poly / (q^a; q)_inf on q^0 .. q^(len(poly)-1), len(poly) >= 1 and a >= 1:
    # poly times (q; q)_(a-1), in place, times sum p(n) q^n read from the memo
    # of partition_numbers. The ups stop at the list's end, where each is 1
    n = len(poly)
    _scale(poly, ups=range(1, min(a, n)))
    tail = Series.make(poly, n - 1) * Series.make(partition_numbers(n - 1), n - 1)
    return tail.coefficients(0, n - 1)


def _nested_sum(base: int, order: int, terms) -> list[int]:
    # q^base .. q^order of the sum that total <- total / (1 - q^b) + q^e poly
    # builds over the (e, poly, b) of terms in turn, b = 0 dividing by nothing:
    # given from the last index down, a sum of q^(e_i) B_i over a product that
    # gains a factor (1 - q^(b_i)) past each index i, in Horner form, so each
    # factor divides the running sum once. Every e is at least base, or this
    # raises; a poly may run past the order, and what runs past is dropped
    total = [0] * (order - base + 1)
    low = len(total)  # total is zero below q^(base + low)
    for e, poly, b in terms:
        if e < base:
            raise InvariantError(f"a term starts at q^{e}, below q^{base}")
        if b:
            _divide(total, b, low)
        e -= base
        total[e : e + len(poly)] = map(operator.add, total[e : e + len(poly)], poly)
        low = min(low, e)
    return total


def _binomials_down(a: int, b: int, exponents: list[int], order: int):
    # [a over b]_q, [a-1 over b]_q, ... (0 <= b <= a), the i-th for the term at
    # q^exponents[i], exact on its q^0 .. q^(order - exponents[i]); each is cut
    # at its degree b(a-i-b) or at the order, and carried from the one above on
    # the longest cut still to come, so no list outgrows its polynomial
    cuts = [min(b * (a - i - b), order - e) + 1 for i, e in enumerate(exponents)]
    widths = list(itertools.accumulate(reversed(cuts), max))
    poly = _ratio(widths.pop(), range(a - b + 1, a + 1), range(1, b + 1))
    yield poly
    for top in range(a, a - len(cuts) + 1, -1):
        del poly[widths.pop() :]
        _scale(poly, (top - b,), (top,))  # [top over b] to [top-1 over b]
        yield poly


def _hook_terms(k: int, d: int, order: int, divisor: int = 0):
    # (k + l d, [k-1 over l-1]_q, b) for l = 1, 2, ... while k + l d <= order,
    # b = divisor at l = 1 and 0 after: the hook polynomial of gf_h_fixed_hook_k
    # for _nested_sum. Each binomial is carried from the one before, cut at its
    # degree (l-1)(k-l) or at the order, whichever comes first; a list grows only
    # past a whole polynomial, as the room below the order shrinks with l
    poly = [1]
    for l in range(1, k + 1):
        exponent = k + l * d
        if exponent > order:
            return
        if l > 1:  # [k-1 over l-2] to [k-1 over l-1]
            cut = min((l - 1) * (k - l), order - exponent) + 1
            del poly[cut:]
            poly += [0] * (cut - len(poly))
            _scale(poly, (k - l + 1,), (l - 1,))
        yield exponent, poly, divisor if l == 1 else 0


def inv_pochhammer_tail(a: int, order: int) -> Series:
    """1/(q^a; q)_inf: partitions with all parts >= a.

    Summed over Durfee squares, never from partition_numbers: it is the
    product side of Euler's identity, which is checked against the pentagonal
    series that the recurrence for p(n) comes from.  Cauchy's identity
    1/(zq; q)_inf = sum_m z^m q^(m^2) / ((q)_m (zq; q)_m) at z = q^(a-1) gives
    sum_m q^(m(m+a-1)) / ((q)_m (q^a; q)_m), summed inside out from the last m
    within the order: two divisions per m, not one per part size.
    """
    if a < 1:
        raise ValueError(f"smallest part must be >= 1, got {a}")
    squares = list(itertools.takewhile(lambda m: m * (m + a - 1) <= order, itertools.count(0)))
    dense = [0] * (order + 1)
    # the term of m has two factors more than that of m - 1: (1 - q^m)(1 - q^(m+a-1))
    for m in reversed(squares):
        e = m * (m + a - 1)
        dense[e] += 1
        if m:
            _divide(dense, m, e)
            _divide(dense, m + a - 1, e)
    return Series.make(dense, order)


def inv_finite_pochhammer(n: int, order: int) -> Series:
    """1/(q; q)_n: partitions with parts at most n."""
    if n < 0:
        raise ValueError(f"Pochhammer length must be >= 0, got {n}")
    return Series.make(_ratio(order + 1, downs=range(1, min(n, order) + 1)), order)


@functools.lru_cache(maxsize=None)
def q_binomial(a: int, b: int, order: int) -> Series:
    """Gaussian binomial [a over b]_q, truncated at the given order.

    Zero when b < 0 or b > a; otherwise the generating polynomial for
    partitions fitting in a b x (a-b) box.
    """
    if b < 0 or b > a:
        return Series.zero(order)
    # (q)_a / (q)_b, divided by (q)_{a-b}
    ups, downs = range(b + 1, min(a, order) + 1), range(1, min(a - b, order) + 1)
    return Series.make(_ratio(order + 1, ups, downs), order)


# -- generating functions from the fixed-hook counting results ---------------

def gf_fixed_hooks_double_sum(order: int) -> Series:
    """Partitions with a 0-fixed hook: double sum over part count k and j.

    sum_{k>=1} sum_{j>=0} q^(k^2 - 3kj + 2j^2 + j) / ((q)_{k-2j-1} (q)_j),
    with 1/(q)_m = 0 for m < 0.  With k = 2j + 1 + i the exponent is
    (j+1+i)(1+i) + j: 2j + 1 at i = 0, growing by j + 2i + 3 from i to i + 1.
    """
    def inner(j):  # sum_i q^((j+1+i)(1+i) + j) / (q)_i, from q^(2j+1) on
        exponents = itertools.accumulate(itertools.count(0), lambda e, i: e + j + 2 * i + 3,
                                         initial=2 * j + 1)
        exponents = list(itertools.takewhile(lambda e: e <= order, exponents))
        terms = ((e, [1], i + 1) for i, e in reversed(list(enumerate(exponents))))
        return 2 * j + 1, _nested_sum(2 * j + 1, order, terms), j + 1

    # the sum over j of inner(j) / (q)_j, from the largest j with 2j + 1 <= order down
    return Series.make(_nested_sum(0, order, map(inner, range((order - 1) // 2, -1, -1))), order)


def gf_fixed_hooks_simplified(order: int) -> Series:
    """Partitions with a 0-fixed hook: sum_T q^((T+1)^2) (1 - q^(T+1)) / (q)_inf.

    The sparse polynomial in T times p(n), read from partition_numbers: each
    of its coefficients +-1 adds or subtracts the whole list of p(n), shifted
    to its exponent, in one slice.
    """
    dense = [0] * (order + 1)
    p = partition_numbers(len(dense) - 1)  # at a negative order, the error of n_max -1
    for t in itertools.count(1):  # t = T + 1
        if t * t > order:
            break
        for e, sign in ((t * t, operator.add), (t * t + t, operator.sub)):
            dense[e:] = map(sign, dense[e:], p)
    return Series.make(dense, order)


def gf_h_fixed_part_k(h: int, k: int, order: int) -> Series:
    """Partitions with an h-fixed hook whose part at the hook position is k.

    sum_{s >= max(k-h, 1)} q^((k+1)(s-1) + h + 1) [s+h-1 over k-1]_q / (q)_{s-1}.
    Theorem 3.5's Laurent form, q^(h+1-C(k,2)) times q^((k+1)(s-1) + C(k,2)) per term, is this.
    """
    if k < 1:
        raise ValueError(f"part size must be >= 1, got {k}")
    s0 = max(k - h, 1)
    base = (k + 1) * (s0 - 1) + h + 1
    if base > order:
        return Series.zero(order)
    indices = range(s0 + (order - base) // (k + 1), s0 - 1, -1)  # s from the last one down
    exponents = [(k + 1) * (s - 1) + h + 1 for s in indices]
    binomials = _binomials_down(indices[0] + h - 1, k - 1, exponents, order)
    # the term of s + 1 has one more factor 1/(1 - q^s) than that of s
    dense = _nested_sum(base, order, zip(exponents, binomials, indices))
    _scale(dense, downs=range(1, s0))  # 1/(q)_{s0-1}, shared by every term
    return Series.make(dense, order, offset=base)


def gf_h_fixed_part_sum(h: int, order: int) -> Series:
    """Partitions with an h-fixed hook, resummed over the part k at the hook.

    sum_{k>=1} gf_h_fixed_part_k(h, k), each term added to one list and dropped
    before the next is built; gf_h_fixed_part_k is looked up at call time.
    Unlike the module's other sums, k runs to the order, not to the last k whose
    minimal exponent is within it: at h = 0 and order 60, 53 of the 60 terms are zero.
    """
    parts = (gf_h_fixed_part_k(h, k, order) for k in range(1, order + 1))
    return Series.make(_nested_sum(0, order, ((s.offset, s.coeffs, 0) for s in parts)), order)


def gf_ones_shifted(h: int, order: int) -> Series:
    """q^(h+1) ( 1/(q^2; q)_inf - sum_{m=0}^{-h-1} q^(2m)/(q)_m ), any integer h.

    The correction sum is empty for h >= 0.  Equals gf_h_fixed_part_k(h, 1).
    For h >= -1 this is Theorem 3.3's q^(h+1)/(q^2; q)_inf, less its constant 1 at h = -1.
    1/(q^2; q)_inf is (1 - q) times p(n), read from partition_numbers.
    """
    inner_order = order - (h + 1)
    # minus sum_m q^(2m)/(q)_m from the last m with 2m <= inner_order down, then 1/(q^2; q)_inf
    last = min(-h - 1, inner_order // 2)
    terms = itertools.chain(((2 * m, [-1], m + 1) for m in range(last, -1, -1)),
                            [(0, _over_tail([1] + [0] * inner_order, 2), 0)])
    return Series.make(_nested_sum(0, inner_order, terms), order, offset=h + 1)


def gf_M_k(k: int, order: int) -> Series:
    """Andrews-Merca M_k(n): sum_{n>=k} q^(C(k,2) + (k+1) n) / (q)_n * [n-1 over k-1]_q.

    With n = s - 1 this is q^(C(k,2)) gf_h_fixed_part_k(-1, k) term by term (Corollary 3.6).
    """
    if k < 1:
        raise ValueError(f"mex value must be >= 1, got {k}")
    c2 = k * (k - 1) // 2
    return gf_h_fixed_part_k(-1, k, order - c2).shift(c2)


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
    if k + d > order:
        return Series.zero(order)
    dense = _nested_sum(k + d, order, _hook_terms(k, d, order))
    _scale(dense, downs=range(1, d + 1))
    return Series.make(dense, order, offset=k + d)


def gf_hook_k_all_h(k: int, order: int) -> Series:
    """h-fixed hooks of hook length exactly k, counted over every h <= k-1.

    sum_{h <= k-1} gf_h_fixed_hook_k(h, k); with d = k - h - 1 the term of h
    is q^k sum_l q^(l d) [k-1 over l-1]_q / (q)_d.
    """
    if k < 1:
        raise ValueError(f"hook size must be >= 1, got {k}")
    if k > order:
        return Series.zero(order)
    # d from the last one with k + d <= order down; the hook polynomial of d + 1
    # has one more factor 1/(1 - q^(d+1)) than that of d, and that of d = 0 none
    polys = (_hook_terms(k, d, order, d + 1) for d in range(order - k, -1, -1))
    return Series.make(_nested_sum(k, order, itertools.chain.from_iterable(polys)), order,
                       offset=k)


def gf_all_h_fixed(h: int, order: int) -> Series:
    """Partitions of n with an h-fixed hook: the hook-size sum of gf_h_fixed_hook_k."""
    k0 = max(1, h + 1)
    base = 2 * k0 - h - 1
    if base > order:
        return Series.zero(order)
    # k from the last one with k + d <= order down; the hook polynomial of k + 1
    # has one more factor 1/(1 - q^(d+1)) than that of k, d = k - h - 1
    ks = range((order + h + 1) // 2, k0 - 1, -1)
    polys = (_hook_terms(k, k - h - 1, order, k - h) for k in ks)
    dense = _nested_sum(base, order, itertools.chain.from_iterable(polys))
    _scale(dense, downs=range(1, k0 - h))  # 1/(q)_d at k0, shared by every term
    return Series.make(dense, order, offset=base)


def gf_first_column_k_hooks(k: int, order: int) -> Series:
    """Total number of first-column hooks equal to k over all partitions of n.

    q^k / (q^k; q)_inf * sum_{l=1}^{k} 1/(q)_{k-l}.  The sum times (q; q)_{k-1}
    is a polynomial of degree at most C(k,2), which is multiplied by p(n), read
    from partition_numbers.
    """
    if k < 1:
        raise ValueError(f"hook size must be >= 1, got {k}")
    if k > order:
        return Series.zero(order)
    inner_order = order - k
    # sum_{m<k} 1/(q)_m from m = k - 1 down, then 1/(q^k; q)_inf
    dense = _nested_sum(0, inner_order, ((0, [1], m + 1) for m in range(k - 1, -1, -1)))
    return Series.make(_over_tail(dense, k), order, offset=k)


# -- pentagonal number machinery ---------------------------------------------

def pentagonal_exponents():
    """(exponent, sign) pairs of (q)_inf = sum (-1)^j q^(j(3j-1)/2), by exponent."""
    yield 0, 1
    for j in itertools.count(1):
        sign = -1 if j % 2 else 1
        yield j * (3 * j - 1) // 2, sign
        yield j * (3 * j + 1) // 2, sign


def pentagonal_series(order: int) -> Series:
    """(q; q)_inf expanded by the pentagonal number theorem."""
    dense = [0] * (order + 1)
    for exponent, sign in pentagonal_exponents():
        if exponent > order:
            break
        dense[exponent] = sign
    return Series.make(dense, order)


_P = [1]  # p(0), p(1), ...: the only memo of p(n), grown by partition_numbers and never shrunk


def partition_numbers(n_max: int) -> list[int]:
    """p(0..n_max) via the pentagonal number recurrence, each p(n) computed once per process."""
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    if n_max >= len(_P):
        # the exponents e > 0 up to n_max whose p(n - e) the recurrence adds,
        # and those whose p(n - e) it subtracts, listed once per fill
        adds, subs = [], []
        for exponent, sign in itertools.islice(pentagonal_exponents(), 1, None):
            if exponent > n_max:
                break
            (adds if sign < 0 else subs).append(exponent)
        for n in range(len(_P), n_max + 1):
            _P.append(sum([_P[n - e] for e in adds if e <= n])
                      - sum([_P[n - e] for e in subs if e <= n]))
    return _P[: n_max + 1]


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
        if exponent > n:  # the exponents increase, so every later one is above n too
            break
        total += sign * p[n - exponent]
    return total
