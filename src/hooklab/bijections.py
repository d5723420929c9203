"""Invertible combinatorial maps: the rectangle bijection, the fixed-hook
bijection, and the mex bijection.

The rectangle bijection's step is the slide insertion, which works on a
sequence padded with zero parts up to its declared capacity.  A new value R
compared from the bottom slides past an entry while R minus the slides so far
exceeds it, losing one box per slide; equality stops the slide.
Equivalently, in beta-coordinates the inserted part ends up with beta-number
exactly R, which is what makes the rectangle map a weight-preserving
bijection and fixes every tie.  The slide count of an insertion may count
zero entries it passed, and an inserted value may reach zero, in which case
the part vanishes but its slides remain on record.
"""

from __future__ import annotations

from collections import namedtuple

from .partitions import InvariantError, Partition


def f_bijection(a: int, b: int, lam: Partition, mu: Partition) -> tuple[Partition, Partition]:
    """Rectangle bijection on pairs: (P_a, P_b) -> (P_{a+b}, R_{b,a}).

    Pads lam with zero parts to capacity a, then inserts the parts of mu
    largest first, recording slide counts.  Total weight of the pair is
    preserved: |lam| + |mu| = |nu| + |rho|.  An inserted r passes at most
    r entries, so zeros beyond mu's largest part are never reached and are
    not padded.  Insertion keeps the sequence nonincreasing, so its zeros
    are all at the end and are kept as a count: an r passes min(r, zeros)
    of them in one step and, if that is all of r, becomes one more zero.
    """
    if a < 0 or b < 0:
        raise ValueError(f"capacities must be nonnegative, got a={a}, b={b}")
    lam_parts, mu_parts = lam.parts, mu.parts
    t = len(lam_parts)
    if t > a:
        raise ValueError(f"lam has {t} parts but at most {a} are allowed")
    if len(mu_parts) > b:
        raise ValueError(f"mu has {len(mu_parts)} parts but at most {b} are allowed")
    arr = list(lam_parts)  # the nonzero entries; the zeros below them are counted
    slides = []
    if mu_parts:
        zeros = a - t
        if zeros > mu_parts[0]:
            zeros = mu_parts[0]
        for r in mu_parts:
            if r > zeros:
                s = zeros
                j = len(arr)
                while j and r - s > arr[j - 1]:
                    s += 1
                    j -= 1
                arr.insert(j, r - s)
            else:
                s = r
                zeros += 1
            slides.append(s)
    nu = Partition._trusted(tuple(arr))
    # Slide counts are claimed to form a partition (nonincreasing); check the
    # raw sequence so a counterexample would surface rather than be masked.
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


def f_inverse(a: int, b: int, nu: Partition, rho: Partition) -> tuple[Partition, Partition]:
    """Inverse of the rectangle bijection, given the same capacities a and b.

    nu is read as padded with zeros to a + b entries, and the entries of rho,
    zero-padded to b, are undone in reverse: the entry s takes the (s+1)-th
    entry from the bottom, which regains s boxes.  The b - rho.t zero counts
    come first and take the bottom entries in order, so they are the tail of
    mu, nu's entries from a + rho.t on.  Each nonzero count s is at most rho's
    largest entry, so nu is padded with no more zeros than those can reach,
    and they are kept as a count: a count s below it takes a zero and gives
    back s.  What is left is a subsequence of nu's parts, so lam needs no
    check; mu needs one nonincreasing scan.
    """
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
    arr = list(nu_parts[:kept])  # the nonzero entries; the zeros below them are counted
    mu_parts = []
    if rho_parts:
        size = len(arr)
        zeros = kept - size
        if zeros > rho_parts[0] + t_rho:
            zeros = rho_parts[0] + t_rho
        for s in reversed(rho_parts):
            if not 0 <= s < size + zeros:
                raise ValueError(f"slide count {s} is inconsistent with {nu!r}")
            if s < zeros:
                zeros -= 1
                mu_parts.append(s)
            else:
                size -= 1
                mu_parts.append(arr.pop(size + zeros - s) + s)
        mu_parts.reverse()
    mu_parts += nu_parts[kept:]
    previous = mu_parts[0] if mu_parts else 0
    for value in mu_parts:
        if value > previous:  # shown with its zero parts, as b entries
            shown = str(mu_parts)[:-1] + ", 0" * (b - len(mu_parts)) + "]"
            raise ValueError(f"trace does not reverse to a partition: recovered {shown}")
        previous = value
    return Partition._trusted(tuple(arr)), Partition._trusted(tuple(mu_parts))


BSteps = namedtuple("BSteps", "k tau epsilon_prime gamma rho rho_rows mu s")
BSteps.__doc__ = "One application of B: its decomposition, the rectangle step, and the image."


def b_steps(lam: Partition, i: int) -> BSteps:
    """Apply B to (lam, i) and keep every intermediate; see :func:`b_bijection`.

    lam splits into k - 1 rows above the i x i block, whose boxes beyond
    column i + 1 form tau, and the rows below the block, whose conjugate is
    eps'.  F with capacities (k-1, i-1) sends (tau, eps') to (gamma, rho),
    and the leg rows read the conjugate of rho.
    """
    if i < 1:
        raise ValueError(f"part size must be >= 1, got {i}")
    if lam.multiplicity(i) != i:
        raise ValueError(
            f"precondition failed: {i} appears {lam.multiplicity(i)} times in "
            f"{lam!r}, expected {i}"
        )
    k = 1 + sum(1 for value in lam.parts if value > i)
    tau = Partition._trusted(tuple(p - i - 1 for p in lam.parts[: k - 1] if p > i + 1))
    eps_prime = Partition._trusted(lam.parts[k + i - 1 :]).conjugate()
    gamma, rho = f_bijection(k - 1, i - 1, tau, eps_prime)
    rho_rows = rho.conjugate()
    top = [i + g for g in gamma.parts] + [i] * (k + i - 2 - gamma.t)
    bottom = [1 + r for r in rho_rows.parts] + [1] * (k - 1 - rho_rows.t)
    mu = Partition(tuple(top) + (i,) + tuple(bottom))
    return BSteps(k, tau, eps_prime, gamma, rho, rho_rows, mu, k + i - 1)


def b_bijection(lam: Partition, i: int) -> Partition:
    """Map (lam, i) with part i of multiplicity i to a partition with a 0-fixed hook.

    The k-1 boxes in column i+1 of the rows above the i x i block move to
    the first column below it, and the remaining data (tau, eps') passes
    through the rectangle bijection with capacities (k-1, i-1).  The slide
    record rho lands in an (i-1) x (k-1) rectangle, so it is conjugated to
    fill the k-1 leg rows with parts at most i-1.  The image has its fixed
    hook at position k+i-1, where the part is i.
    """
    return b_steps(lam, i).mu


def b_inverse(mu: Partition) -> tuple[Partition, int]:
    """Recover (lam, i) from a partition with a 0-fixed hook."""
    report = mu.find_h_fixed_hook(0)
    if report is None:
        raise ValueError(f"{mu!r} has no 0-fixed hook")
    s, i = report.position, report.part
    k = s - i + 1  # a 0-fixed hook has i + t - 2s = 0, so t = i + 2k - 2, and s <= t gives k >= 1
    gamma = Partition._trusted(tuple(p - i for p in mu.parts[: k + i - 2] if p > i))
    rho_rows = Partition._trusted(tuple(p - 1 for p in mu.parts[s:] if p > 1))
    tau, eps_prime = f_inverse(k - 1, i - 1, gamma, rho_rows.conjugate())
    eps = eps_prime.conjugate()
    lam_top = tuple(i + 1 + v for v in tau.parts) + (i + 1,) * (k - 1 - tau.t)
    lam = Partition(lam_top + (i,) * i + eps.parts)
    return lam, i


def mex_map(lam: Partition) -> Partition:
    """Turn a partition with a -1-fixed hook at part k into a mex-k partition.

    Deletes the part k at the hook position s, takes one box from each
    part below it (dropping parts that reach zero), grants one box to each
    of the s-1 parts above, and appends one part of every size 1..k-1.
    The image weighs |lam| + C(k,2) more and has mex exactly k.
    """
    report = lam.find_h_fixed_hook(-1)
    if report is None:
        raise ValueError(f"{lam!r} has no -1-fixed hook")
    s, k = report.position, report.part
    above = [lam.parts[j] + 1 for j in range(s - 1)]
    below = [lam.parts[j] - 1 for j in range(s, lam.t) if lam.parts[j] > 1]
    tail = list(range(k - 1, 0, -1))
    mu = Partition(tuple(sorted(above + below + tail, reverse=True)))
    if mu.n != lam.n + k * (k - 1) // 2 or mu.mex() != k:
        raise InvariantError(f"mex map sent {lam!r} to {mu!r}, which is not a mex-{k} "
                             f"partition of weight {lam.n + k * (k - 1) // 2}")
    return mu


def mex_map_inverse(mu: Partition, k: int) -> Partition:
    """Recover the -1-fixed-hook partition from a mex-k partition.

    Requires mex(mu) = k and #parts below k at most #parts above k minus 1;
    removes one part of each size 1..k-1, reinstates the part k, moves one
    box from each part above k to the parts below it, and restores the
    ones that had vanished.
    """
    if k < 1:
        raise ValueError(f"mex value must be >= 1, got {k}")
    if mu.mex() != k:
        raise ValueError(f"precondition failed: mex of {mu!r} is {mu.mex()}, expected {k}")
    above = [v for v in mu.parts if v > k]
    below = [v for v in mu.parts if v < k]
    s = len(above) + 1
    if len(below) > s - 2:
        raise ValueError(
            f"precondition failed: {len(below)} parts below {k} but only "
            f"{len(above)} above it in {mu!r}"
        )
    remaining = list(below)
    for size in range(1, k):
        remaining.remove(size)  # guaranteed present since mex(mu) = k
    parts = (
        [v - 1 for v in above]
        + [k]
        + [v + 1 for v in remaining]
        + [1] * (s - 2 - len(below))
    )
    lam = Partition(tuple(sorted(parts, reverse=True)))
    report = lam.find_h_fixed_hook(-1)
    if report is None or report.position != s or report.part != k:
        raise InvariantError(f"inverse mex map sent {mu!r} to {lam!r}, which lacks a "
                             f"-1-fixed hook at position {s} with part {k}")
    return lam
