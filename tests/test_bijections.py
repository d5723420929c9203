"""Worked examples and exhaustive roundtrips for the three bijections.

The slide insertion and both reference F examples reproduce exactly.  For the fixed-hook map B the construction is pinned down by
requiring it to be a bijection on every fiber; see the acceptance module
and tests/data/table1_n9.json for the frozen n=9 table.
"""

import itertools
import re

import pytest

from hooklab import (
    InvariantError,
    b_bijection,
    b_inverse,
    count_parts_eq_mult,
    f_bijection,
    f_inverse,
    mex_map,
    mex_map_inverse,
)
from hooklab.bijections import b_steps
from hooklab.oracle import partitions_of
from hooklab.partitions import Partition

from conftest import P


def insert(lam, r):
    """Slide-insert r into lam: F with capacity lam.t for lam and the single part r."""
    return f_bijection(lam.t, 1, lam, Partition((r,)))


class TestSlideInsertion:
    def test_figure_replay(self):
        assert insert(P(7, 5, 3, 2), 9) == (P(7, 6, 5, 3, 2), P(3))

    def test_empty_target(self):
        assert insert(P(), 5) == (P(5), P())

    def test_no_slide(self):
        assert insert(P(3, 2), 1) == (P(3, 2, 1), P())

    def test_weight_ledger(self):
        for parts in partitions_of(8):
            for r in range(1, 7):
                nu, rho = insert(Partition(parts), r)
                assert nu.n == sum(parts) + r - rho.n
                assert rho.n <= len(parts)


class TestFBijection:
    def test_paper_display(self):
        nu, rho = f_bijection(4, 3, P(7, 5, 3, 2), P(9, 7, 5))
        assert nu == P(7, 6, 5, 5, 3, 3, 2)
        assert rho == P(3, 2, 2)

    def test_section_two_example(self):
        nu, rho = f_bijection(5, 4, P(10, 6, 2, 2, 1), P(6, 6, 5, 2))
        assert nu == P(10, 6, 3, 3, 2, 2, 2, 1, 1)
        assert rho == P(3, 3, 3, 1)

    def test_nothing_to_insert(self):
        assert f_bijection(4, 0, P(3, 2), P()) == (P(3, 2), P())

    def test_membership_validation(self):
        with pytest.raises(ValueError, match="at most 1"):
            f_bijection(1, 2, P(3, 2), P(1))
        with pytest.raises(ValueError, match="at most 1"):
            f_bijection(2, 1, P(3), P(1, 1))

    def test_inverse_of_paper_examples(self):
        assert f_inverse(4, 3, P(7, 6, 5, 5, 3, 3, 2), P(3, 2, 2)) == (
            P(7, 5, 3, 2),
            P(9, 7, 5),
        )
        assert f_inverse(5, 4, P(10, 6, 3, 3, 2, 2, 2, 1, 1), P(3, 3, 3, 1)) == (
            P(10, 6, 2, 2, 1),
            P(6, 6, 5, 2),
        )
        assert f_inverse(4, 0, P(3, 2), P()) == (P(3, 2), P())

    def test_inverse_depends_on_capacities(self):
        # the declared capacities are part of the data: an image pair whose
        # partition fills all a+b slots is only readable at the larger b,
        # and enlarging b changes which slot a slide count refers to
        nu, rho = P(7, 6, 5, 5, 3, 3, 2, 1), P(3, 2, 2)
        with pytest.raises(ValueError, match="at most 7"):
            f_inverse(4, 3, nu, rho)
        lam4, mu4 = f_inverse(4, 4, nu, rho)
        assert f_bijection(4, 4, lam4, mu4) == (nu, rho)
        assert mu4.t == 4

    def test_inverse_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="slide count"):
            f_inverse(2, 1, P(3), P(3))

    def test_roundtrip_small_grid(self):
        for a in range(5):
            for b in range(5):
                for w1 in range(9):
                    lams = [Partition(p) for p in partitions_of(w1) if len(p) <= a]
                    for w2 in range(9 - w1):
                        mus = [Partition(p) for p in partitions_of(w2) if len(p) <= b]
                        for lam in lams:
                            for mu in mus:
                                nu, rho = f_bijection(a, b, lam, mu)
                                assert lam.n + mu.n == nu.n + rho.n
                                assert rho.t <= b
                                assert not rho.parts or rho.parts[0] <= a
                                assert f_inverse(a, b, nu, rho) == (lam, mu)

    def test_padding_matches_full_capacity(self):
        # F pads only the zeros an insertion can reach, F^-1 only those an
        # extraction can reach; both must agree, errors included, with
        # padding to the full capacity
        small = [Partition(p) for w in range(11) for p in partitions_of(w)]
        for a, b in itertools.product(range(8), repeat=2):
            for x, y in itertools.product(small, repeat=2):
                if x.n + y.n <= 10:
                    assert _outcome(f_bijection, a, b, x, y) == \
                        _outcome(_f_full_padding, a, b, x, y), (a, b, x, y)
                    assert _outcome(f_inverse, a, b, x, y) == \
                        _outcome(_f_inverse_full_padding, a, b, x, y), (a, b, x, y)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, InvariantError) as exc:
        return type(exc), str(exc)


def _f_full_padding(a, b, lam, mu):
    """F as first written, with lam padded to its full capacity a."""
    if a < 0 or b < 0:
        raise ValueError(f"capacities must be nonnegative, got a={a}, b={b}")
    if lam.t > a:
        raise ValueError(f"lam has {lam.t} parts but at most {a} are allowed")
    if mu.t > b:
        raise ValueError(f"mu has {mu.t} parts but at most {b} are allowed")
    arr = list(lam.parts) + [0] * (a - lam.t)
    slides = []
    for r in mu.parts:
        t, s = len(arr), 0
        while s < t and r - s > arr[t - 1 - s]:
            s += 1
        arr.insert(t - s, r - s)
        slides.append(s)
    nu = Partition(tuple(v for v in arr if v))
    if any(slides[idx] < slides[idx + 1] for idx in range(len(slides) - 1)):
        raise InvariantError(f"slide counts {slides} are not nonincreasing")
    rho = Partition(tuple(s for s in slides if s))
    if rho.t > b or (rho.parts and rho.parts[0] > a):
        raise InvariantError(f"slide record {slides} escaped the {b} x {a} rectangle")
    return nu, rho


def _f_inverse_full_padding(a, b, nu, rho):
    """F^-1 as first written, with nu padded to its full capacity a + b."""
    if a < 0 or b < 0:
        raise ValueError(f"capacities must be nonnegative, got a={a}, b={b}")
    if nu.t > a + b:
        raise ValueError(f"nu has {nu.t} parts but at most {a + b} are allowed")
    if rho.t > b:
        raise ValueError(f"rho has {rho.t} slide counts but at most {b} are allowed")
    if rho.parts and rho.parts[0] > a:
        raise ValueError(f"slide count {rho.parts[0]} exceeds the {a} available parts")
    arr = list(nu.parts) + [0] * (a + b - nu.t)
    padded = list(rho.parts) + [0] * (b - rho.t)
    recovered = []
    for j in range(b, 0, -1):
        s = padded[j - 1]
        position = a + j - s
        if not 1 <= position <= len(arr):
            raise ValueError(f"slide count {s} is inconsistent with {nu!r}")
        recovered.append(arr.pop(position - 1) + s)
    mu_parts = list(reversed(recovered))
    for idx in range(len(mu_parts) - 1):
        if mu_parts[idx] < mu_parts[idx + 1]:
            raise ValueError(f"trace does not reverse to a partition: recovered {mu_parts}")
    return Partition(tuple(v for v in arr if v)), Partition(tuple(v for v in mu_parts if v))


class TestTupleDifferential:
    def test_same_outcome_as_the_partition_level_maps(self):
        # F and F^-1 read raw part tuples and build both results with
        # Partition._trusted; they must agree, errors included, with the
        # versions that read Partition properties, and return partitions.
        # The right argument also comes as an increasing tuple, which no
        # caller passes, so that the invariant checks are reached.
        small = [Partition(p) for w in range(11) for p in partitions_of(w)]
        rights = small + [Partition._trusted(p.parts[::-1]) for p in small
                          if p.parts != p.parts[::-1]]
        pairs = [(x, y) for x, y in itertools.product(small, rights) if x.n + y.n <= 10]
        errors = set()
        # Each map is also compared with its copy from before its loops
        # dropped min().
        maps = ((f_bijection, (_old_f_bijection, _min_f_bijection)),
                (f_inverse, (_old_f_inverse, _min_f_inverse)))
        for a, b in itertools.product(range(-1, 8), repeat=2):
            for x, y in pairs:
                for new, olds in maps:
                    outcome = _parts_outcome(new, a, b, x, y)
                    for old in olds:
                        assert outcome == _parts_outcome(old, a, b, x, y), (old.__name__, a, b, x, y)
                    if isinstance(outcome[0], type):
                        errors.add(re.sub(r"-?\d+", "#", re.split(r"[:[(]", outcome[1])[0]).strip())
        # every check but F's rectangle check is reached; on these inputs the
        # slide-order check fires first
        assert errors == {
            "capacities must be nonnegative, got a=#, b=#",
            "lam has # parts but at most # are allowed",
            "mu has # parts but at most # are allowed",
            "nu has # parts but at most # are allowed",
            "rho has # slide counts but at most # are allowed",
            "slide count # exceeds the # available parts",
            "slide count # is inconsistent with Partition",
            "trace does not reverse to a partition",
            "slide counts",
        }


def _parts_outcome(fn, *args):
    """The part tuples fn returns, each checked to be a partition, or its error."""
    try:
        result = fn(*args)
    except (ValueError, InvariantError) as exc:
        return type(exc), str(exc)
    for partition in result:
        parts = partition.parts
        assert type(parts) is tuple, (fn.__name__, args, parts)
        assert all(type(v) is int and v > 0 for v in parts), (fn.__name__, args, parts)
        assert all(x >= y for x, y in zip(parts, parts[1:])), (fn.__name__, args, parts)
    return tuple(partition.parts for partition in result)


# -- F and F^-1 as they were before they read raw tuples ---------------------

def _old_slide_in(arr: list[int], r: int) -> int:
    """Splice r into the nonincreasing arr (zeros allowed), returning the slide count."""
    t = len(arr)
    s = 0
    while s < t and r - s > arr[t - 1 - s]:
        s += 1
    arr.insert(t - s, r - s)
    return s


def _old_strip_zeros(arr: list[int]) -> tuple[int, ...]:
    return tuple(v for v in arr if v)


def _old_f_bijection(a, b, lam, mu):
    if a < 0 or b < 0:
        raise ValueError(f"capacities must be nonnegative, got a={a}, b={b}")
    if lam.t > a:
        raise ValueError(f"lam has {lam.t} parts but at most {a} are allowed")
    if mu.t > b:
        raise ValueError(f"mu has {mu.t} parts but at most {b} are allowed")
    arr = list(lam.parts) + [0] * min(a - lam.t, mu.parts[0] if mu.parts else 0)
    slides = [_old_slide_in(arr, r) for r in mu.parts]
    nu = Partition._trusted(_old_strip_zeros(arr))
    # Slide counts are claimed to form a partition (nonincreasing); check the
    # raw sequence so a counterexample would surface rather than be masked.
    if any(slides[idx] < slides[idx + 1] for idx in range(len(slides) - 1)):
        raise InvariantError(f"slide counts {slides} are not nonincreasing")
    rho = Partition._trusted(tuple(s for s in slides if s))
    if rho.t > b or (rho.parts and rho.parts[0] > a):
        raise InvariantError(f"slide record {slides} escaped the {b} x {a} rectangle")
    return nu, rho


def _old_f_inverse(a, b, nu, rho):
    if a < 0 or b < 0:
        raise ValueError(f"capacities must be nonnegative, got a={a}, b={b}")
    if nu.t > a + b:
        raise ValueError(f"nu has {nu.t} parts but at most {a + b} are allowed")
    if rho.t > b:
        raise ValueError(f"rho has {rho.t} slide counts but at most {b} are allowed")
    if rho.parts and rho.parts[0] > a:
        raise ValueError(f"slide count {rho.parts[0]} exceeds the {a} available parts")
    kept = a + rho.t
    arr = list(nu.parts[:kept]) + [0] * min(kept - nu.t, (rho.parts[0] if rho.parts else 0) + rho.t)
    recovered: list[int] = []
    for s in reversed(rho.parts):
        if not 0 <= s < len(arr):
            raise ValueError(f"slide count {s} is inconsistent with {nu!r}")
        recovered.append(arr.pop(len(arr) - 1 - s) + s)
    mu_parts = recovered[::-1] + list(nu.parts[kept:])
    for idx in range(len(mu_parts) - 1):
        if mu_parts[idx] < mu_parts[idx + 1]:
            mu_parts += [0] * (b - len(mu_parts))
            raise ValueError(f"trace does not reverse to a partition: recovered {mu_parts}")
    return Partition(_old_strip_zeros(arr)), Partition._trusted(tuple(mu_parts))


# -- F and F^-1 as they were before their loops dropped min() ---------------

def _min_f_bijection(a, b, lam, mu):
    if a < 0 or b < 0:
        raise ValueError(f"capacities must be nonnegative, got a={a}, b={b}")
    lam_parts, mu_parts = lam.parts, mu.parts
    t = len(lam_parts)
    if t > a:
        raise ValueError(f"lam has {t} parts but at most {a} are allowed")
    if len(mu_parts) > b:
        raise ValueError(f"mu has {len(mu_parts)} parts but at most {b} are allowed")
    arr = list(lam_parts)
    zeros = min(a - t, mu_parts[0]) if mu_parts else 0
    slides = []
    for r in mu_parts:
        s = min(r, zeros)
        if r > zeros:
            j = len(arr)
            while j and r - s > arr[j - 1]:
                s += 1
                j -= 1
            arr.insert(j, r - s)
        else:
            zeros += 1
        slides.append(s)
    nu = Partition._trusted(tuple(arr))
    nonzero = 0
    previous = slides[0] if slides else 0
    for s in slides:
        if s > previous:
            raise InvariantError(f"slide counts {slides} are not nonincreasing")
        if s:
            nonzero += 1
        previous = s
    if nonzero > b or (nonzero and slides[0] > a):
        raise InvariantError(f"slide record {slides} escaped the {b} x {a} rectangle")
    return nu, Partition._trusted(tuple(slides[:nonzero]))


def _min_f_inverse(a, b, nu, rho):
    if a < 0 or b < 0:
        raise ValueError(f"capacities must be nonnegative, got a={a}, b={b}")
    nu_parts, rho_parts = nu.parts, rho.parts
    t, t_rho = len(nu_parts), len(rho_parts)
    if t > a + b:
        raise ValueError(f"nu has {t} parts but at most {a + b} are allowed")
    if t_rho > b:
        raise ValueError(f"rho has {t_rho} slide counts but at most {b} are allowed")
    if rho_parts and rho_parts[0] > a:
        raise ValueError(f"slide count {rho_parts[0]} exceeds the {a} available parts")
    kept = a + t_rho
    arr = list(nu_parts[:kept])
    zeros = min(kept - len(arr), rho_parts[0] + t_rho) if rho_parts else 0
    mu_parts = []
    for s in reversed(rho_parts):
        if not 0 <= s < len(arr) + zeros:
            raise ValueError(f"slide count {s} is inconsistent with {nu!r}")
        if s < zeros:
            zeros -= 1
            mu_parts.append(s)
        else:
            mu_parts.append(arr.pop(len(arr) + zeros - 1 - s) + s)
    mu_parts.reverse()
    mu_parts += nu_parts[kept:]
    previous = mu_parts[0] if mu_parts else 0
    for value in mu_parts:
        if value > previous:
            shown = str(mu_parts)[:-1] + ", 0" * (b - len(mu_parts)) + "]"
            raise ValueError(f"trace does not reverse to a partition: recovered {shown}")
        previous = value
    return Partition._trusted(tuple(arr)), Partition._trusted(tuple(mu_parts))


class TestBBijection:
    def test_table_rows(self):
        assert b_bijection(P(8, 1), 1) == P(7, 1, 1)
        assert b_bijection(P(6, 2, 1), 1) == P(5, 1, 1, 1, 1)
        assert b_bijection(P(2, 2, 1, 1, 1, 1, 1), 2) == P(7, 2)
        assert b_bijection(P(3, 3, 3), 3) == P(3, 3, 3)

    def test_section_two_example_structure(self):
        lam = P(16, 12, 8, 8, 7, 5, 5, 5, 5, 5, 4, 4, 3, 3, 3, 2)
        mu = b_bijection(lam, 5)
        assert mu.n == 95
        report = mu.find_h_fixed_hook(0)
        assert report is not None
        assert report.position == 10 and report.hook == 10 and report.part == 5
        assert b_inverse(mu) == (lam, 5)

    def test_intermediates_of_section_two_example(self):
        lam = P(16, 12, 8, 8, 7, 5, 5, 5, 5, 5, 4, 4, 3, 3, 3, 2)
        inter = b_steps(lam, 5)._asdict()
        assert inter["k"] == 6
        assert inter["tau"] == P(10, 6, 2, 2, 1)
        assert inter["epsilon_prime"] == P(6, 6, 5, 2)
        assert inter["gamma"] == P(10, 6, 3, 3, 2, 2, 2, 1, 1)
        assert inter["rho"] == P(3, 3, 3, 1)

    def test_precondition_rejected(self):
        with pytest.raises(ValueError, match="precondition"):
            b_bijection(P(3, 2), 2)

    def test_inverse_examples(self):
        assert b_inverse(P(7, 2)) == (P(2, 2, 1, 1, 1, 1, 1), 2)
        assert b_inverse(P(7, 1, 1)) == (P(8, 1), 1)
        assert b_inverse(P(3, 3, 3)) == (P(3, 3, 3), 3)

    def test_inverse_requires_fixed_hook(self):
        with pytest.raises(ValueError, match="no 0-fixed hook"):
            b_inverse(P(2, 2, 1))

    def test_fiberwise_bijection(self):
        # count equality per Theorem 2.1 plus injectivity and surjectivity
        for n in range(18):
            pairs = []
            for parts in partitions_of(n):
                lam = Partition(parts)
                for i in lam.parts_equal_to_multiplicity():
                    pairs.append((lam, i))
            images = {}
            for lam, i in pairs:
                mu = b_bijection(lam, i)
                report = mu.find_h_fixed_hook(0)
                assert report is not None and report.part == i
                assert b_inverse(mu) == (lam, i)
                images[mu] = (lam, i)
            assert len(images) == len(pairs) == count_parts_eq_mult(n)[n]
            hooked = [
                Partition(parts)
                for parts in partitions_of(n)
                if Partition(parts).find_h_fixed_hook(0) is not None
            ]
            assert set(images) == set(hooked)


class TestMexMap:
    def test_worked_example(self):
        assert mex_map(P(11, 6, 5, 5, 4, 4, 4, 2, 1)) == P(12, 7, 6, 6, 5, 5, 3, 2, 1, 1)

    def test_hand_traces(self):
        assert mex_map(P(4, 1)) == P(5)
        assert mex_map(P(2, 1, 1, 1)) == P(3, 2)

    def test_requires_hook(self):
        with pytest.raises(ValueError, match="no -1-fixed hook"):
            mex_map(P(3, 2))

    def test_inverse_examples(self):
        assert mex_map_inverse(P(12, 7, 6, 6, 5, 5, 3, 2, 1, 1), 4) == P(11, 6, 5, 5, 4, 4, 4, 2, 1)
        assert mex_map_inverse(P(5), 1) == P(4, 1)
        assert mex_map_inverse(P(3, 2), 1) == P(2, 1, 1, 1)

    def test_inverse_preconditions(self):
        with pytest.raises(ValueError, match="mex"):
            mex_map_inverse(P(2, 1), 2)  # mex of (2,1) is 3
        with pytest.raises(ValueError, match="below"):
            mex_map_inverse(P(3, 1, 1), 2)  # two parts below 2, only one above

    def test_roundtrip_exhaustive(self):
        for n in range(18):
            for parts in partitions_of(n):
                lam = Partition(parts)
                report = lam.find_h_fixed_hook(-1)
                if report is None:
                    continue
                k, s = report.part, report.position
                assert lam.t == 2 * s - k - 1
                mu = mex_map(lam)
                assert mu.n == n + k * (k - 1) // 2
                assert mu.mex() == k
                assert mex_map_inverse(mu, k) == lam
