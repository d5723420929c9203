"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Two auxiliary tests marked xfail(strict=True) pin the
two reference values that cannot be reproduced by any well-defined
instance of the construction they come with; see the test docstrings and
the golden file tests/data/table1_n9.json.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from hooklab import (
    Partition,
    Series,
    b_bijection,
    b_inverse,
    count_fixed_hooks,
    count_h_fixed_by_part,
    count_mex_class_multi,
    count_parts_eq_mult,
    f_bijection,
    f_inverse,
    generate_partitions,
    gf_M_k,
    gf_first_column_k_hooks,
    gf_fixed_hooks_double_sum,
    gf_fixed_hooks_simplified,
    gf_h_fixed_hook_k,
    gf_h_fixed_part_k,
    inv_finite_pochhammer,
    inv_pochhammer_tail,
    mex_map,
    mex_map_inverse,
    pentagonal_series,
    q_binomial,
    truncated_pentagonal,
    verify_theorem,
)
from hooklab.oracle import partitions_of
from hooklab.verify import THEOREM_IDS

DATA = Path(__file__).parent / "data"

P = lambda *xs: Partition(tuple(xs))  # noqa: E731


@contextmanager
def criterion(number: int, label: str, budget: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL ({time.monotonic() - start:.2f}s)")
        raise
    elapsed = time.monotonic() - start
    verdict = "PASS" if elapsed < budget else "FAIL (over budget)"
    print(f"ACCEPTANCE {number} ({label}): {verdict} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeded the {budget:.0f}s budget"


def _table1_rows() -> list[dict]:
    rows = []
    for lam in generate_partitions(9):
        for i in sorted(lam.parts_equal_to_multiplicity(), reverse=True):
            mu = b_bijection(lam, i)
            rows.append({"lam": lam.to_list(), "i": i, "mu": mu.to_list()})
    return rows


def test_criterion_1_table1_reproduction():
    with criterion(1, "Table 1 reproduction", 1.0):
        rows = _table1_rows()
        assert len(rows) == 12
        rendered = json.dumps(rows, indent=2) + "\n"
        golden = (DATA / "table1_n9.json").read_bytes()
        assert rendered.encode() == golden

        # the two pairs the criterion names explicitly
        assert {"lam": [8, 1], "i": 1, "mu": [7, 1, 1]} in rows
        assert {"lam": [2, 2, 1, 1, 1, 1, 1], "i": 2, "mu": [7, 2]} in rows

        # the reference table's image multiset reproduces exactly
        reference_images = [
            (7, 1, 1), (5, 1, 1, 1, 1), (4, 2, 1, 1, 1), (4, 2, 2, 1),
            (3, 3, 1, 1, 1), (3, 2, 2, 2), (3, 1, 1, 1, 1, 1, 1), (3, 3, 3),
            (2, 2, 1, 1, 1, 1, 1), (3, 3, 2, 1), (1, 1, 1, 1, 1, 1, 1, 1, 1), (7, 2),
        ]
        assert sorted(tuple(r["mu"]) for r in rows) == sorted(reference_images)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The reference table pairs (4,2,2,1)->(3,2,2,2) and (3,2,2,1,1)->(3,3,2,1). "
        "No well-defined instance of the insertion construction can produce that "
        "pairing: the weight ledger of the slide record forces the opposite "
        "assignment of these two images (see notes in the decisions ledger). "
        "The image multiset is unaffected."
    ),
)
def test_criterion_1_reference_rows_six_and_ten():
    assert b_bijection(P(4, 2, 2, 1), 2) == P(3, 2, 2, 2)
    assert b_bijection(P(3, 2, 2, 1, 1), 2) == P(3, 3, 2, 1)


def test_criterion_2_worked_examples():
    with criterion(2, "worked examples", 1.0):
        assert f_bijection(4, 3, P(7, 5, 3, 2), P(9, 7, 5)) == (
            P(7, 6, 5, 5, 3, 3, 2),
            P(3, 2, 2),
        )
        assert f_bijection(5, 4, P(10, 6, 2, 2, 1), P(6, 6, 5, 2)) == (
            P(10, 6, 3, 3, 2, 2, 2, 1, 1),
            P(3, 3, 3, 1),
        )
        lam = P(16, 12, 8, 8, 7, 5, 5, 5, 5, 5, 4, 4, 3, 3, 3, 2)
        mu = b_bijection(lam, 5)
        assert mu.n == 95
        report = mu.find_h_fixed_hook(0)
        assert report.position == 10 and report.hook == 10 and report.part == 5
        assert b_inverse(mu) == (lam, 5)
        # invertible realization of the reference example (see the xfail
        # test below for the reference rendering of the leg rows)
        assert mu == P(15, 11, 8, 8, 7, 7, 7, 6, 6, 5, 5, 4, 4, 1, 1)
        assert mex_map(P(11, 6, 5, 5, 4, 4, 4, 2, 1)) == P(12, 7, 6, 6, 5, 5, 3, 2, 1, 1)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The reference image of the weight-95 example writes the rows below the "
        "fixed hook as 1 + the slide record itself; filling the k-1 leg rows "
        "(width at most i-1) requires the record's conjugate, and direct "
        "filling stops being a partition at weight 12, first for (3,3,2,2,1,1) "
        "with i=2 (DECISIONS.md section 3).  The invertible map therefore yields "
        "(...,5,5,4,4,1,1) rather than the reference (...,5,4,4,4,2,1); both "
        "weigh 95 and carry the fixed hook h_{10,1}=10 at part 5."
    ),
)
def test_criterion_2_reference_b95_value():
    lam = P(16, 12, 8, 8, 7, 5, 5, 5, 5, 5, 4, 4, 3, 3, 3, 2)
    assert b_bijection(lam, 5) == P(15, 11, 8, 8, 7, 7, 7, 6, 6, 5, 4, 4, 4, 2, 1)


def test_criterion_3_theorem_21_triple_agreement():
    with criterion(3, "Theorem 2.1 triple agreement", 60.0):
        nmax = 40
        hooks = count_fixed_hooks(0, nmax)
        mults = count_parts_eq_mult(nmax)
        double = gf_fixed_hooks_double_sum(nmax)
        simple = gf_fixed_hooks_simplified(nmax)
        for n in range(1, nmax + 1):
            assert hooks[n] == mults[n] == double.coeff(n) == simple.coeff(n), n
        assert [hooks[n] for n in range(1, 6)] == [1, 0, 1, 2, 3]
        assert hooks[9] == 12


def test_criterion_4_bijection_roundtrips():
    with criterion(4, "bijection roundtrips", 120.0):
        # B and its inverse, exhaustively over n <= 25
        for n in range(26):
            seen = set()
            pairs = 0
            for parts in partitions_of(n):
                lam = Partition(parts)
                for i in lam.parts_equal_to_multiplicity():
                    mu = b_bijection(lam, i)
                    assert b_inverse(mu) == (lam, i)
                    seen.add(mu)
                    pairs += 1
            assert len(seen) == pairs
            for parts in partitions_of(n):
                mu = Partition(parts)
                if mu.find_h_fixed_hook(0) is not None:
                    lam, i = b_inverse(mu)
                    assert b_bijection(lam, i) == mu

        # F and its inverse for a, b <= 6 and total weight <= 25
        by_weight = {
            w: [Partition(parts) for parts in partitions_of(w)] for w in range(26)
        }
        for a in range(7):
            for b in range(7):
                for w1 in range(26):
                    lams = [q for q in by_weight[w1] if q.t <= a]
                    if not lams:
                        continue
                    for w2 in range(26 - w1):
                        mus = [q for q in by_weight[w2] if q.t <= b]
                        for lam in lams:
                            for mu in mus:
                                nu, rho = f_bijection(a, b, lam, mu)
                                assert nu.n + rho.n == w1 + w2
                                assert f_inverse(a, b, nu, rho) == (lam, mu)

        # mex map and its inverse, exhaustively over n <= 25
        for n in range(26):
            for parts in partitions_of(n):
                lam = Partition(parts)
                report = lam.find_h_fixed_hook(-1)
                if report is None:
                    continue
                mu = mex_map(lam)
                assert mex_map_inverse(mu, report.part) == lam


def test_criterion_5_coefficient_vs_oracle_grid():
    with criterion(5, "coefficient-vs-oracle grid", 120.0):
        for theorem in THEOREM_IDS:
            report = verify_theorem(theorem, nmax=30, order=60)
            bad = [cell for cell in report.cells if cell.status != "match"]
            assert report.ok, (theorem, [cell.to_json_dict() for cell in bad])


def test_criterion_6_andrews_merca_connections():
    with criterion(6, "Andrews-Merca connections", 60.0):
        # truncated recurrence vs the mex class, k <= 5, 1 <= n <= 60
        tables = count_mex_class_multi((1, 2, 3, 4, 5), 60)
        for k in range(1, 6):
            sign = 1 if k % 2 else -1
            for n in range(1, 61):
                assert sign * truncated_pentagonal(k, n) == tables[k][n], (k, n)

        # gf_h_fixed_part_k(-1, k) equals q^(-C(k,2)) M_k up to order 60
        for k in range(1, 6):
            c2 = k * (k - 1) // 2
            shifted = gf_M_k(k, 60 + c2).shift(-c2)
            assert gf_h_fixed_part_k(-1, k, 60).coefficients(0, 60) == shifted.coefficients(0, 60)

        # M_k(n) counts -1-fixed hooks at part k among partitions of n - C(k,2)
        for k in range(1, 6):
            c2 = k * (k - 1) // 2
            hooks = count_h_fixed_by_part(-1, k, 40)
            for n in range(41):
                expected = hooks[n - c2] if n - c2 >= 0 else 0
                assert tables[k][n] == expected, (k, n)


def test_criterion_7_structural_identities():
    with criterion(7, "structural identities", 30.0):
        order = 60
        for a in range(9):
            for b in range(9):
                lhs = inv_finite_pochhammer(a, order) * inv_finite_pochhammer(b, order)
                rhs = inv_finite_pochhammer(a + b, order) * q_binomial(a + b, a, order)
                assert lhs == rhs, (a, b)

        assert pentagonal_series(order) * inv_pochhammer_tail(1, order) == Series.one(order)

        for k in range(1, 6):
            total = Series.zero(order)
            h = k - 1
            while k + (k - h - 1) <= order:
                total = total + gf_h_fixed_hook_k(h, k, order)
                h -= 1
            assert total == gf_first_column_k_hooks(k, order), k
