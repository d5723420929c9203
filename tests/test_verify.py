import json
import re
import sys
import weakref
from pathlib import Path

import pytest

import hooklab.verify as verify_mod
from hooklab import CountTable, InvariantError, Series, oracle, series, verify_theorem
from hooklab.cli import main

# every (theorem id, side) pair: the oracle counter or series constructor the
# verifier reads for that side of its identity
SIDES = [
    ("thm2.1", oracle, "count_fixed_hooks"),
    ("thm2.1", oracle, "count_parts_eq_mult"),
    ("thm2.1", series, "gf_fixed_hooks_double_sum"),
    ("thm2.1", series, "gf_fixed_hooks_simplified"),
    ("prop2.2", series, "inv_finite_pochhammer"),
    ("prop2.2", series, "q_binomial"),
    ("prop2.2", oracle, "count_box_partitions"),
    ("thm3.2", oracle, "count_h_fixed_by_part"),
    ("thm3.2", series, "gf_h_fixed_part_k"),
    ("thm3.3", oracle, "count_h_fixed_by_part"),
    ("thm3.3", oracle, "count_ones_exact"),
    ("thm3.3", series, "gf_ones_shifted"),
    ("thm3.4", oracle, "count_h_fixed_by_part"),
    ("thm3.4", oracle, "count_ones_shifted"),
    ("thm3.4", series, "gf_ones_shifted"),
    ("thm3.5", oracle, "count_h_fixed_by_part"),
    ("thm3.5", oracle, "count_generalized_mex"),
    ("thm3.5", series, "gf_h_fixed_part_k"),
    ("cor3.6", oracle, "count_mex_class"),
    ("cor3.6", oracle, "count_h_fixed_by_part"),
    ("cor3.6", series, "gf_M_k"),
    ("thm4.1", oracle, "count_h_fixed_by_hook"),
    ("thm4.1", series, "gf_h_fixed_hook_k"),
    ("thm4.2", oracle, "count_fixed_hooks"),
    ("thm4.2", series, "gf_all_h_fixed"),
    ("thm4.2", series, "gf_h_fixed_part_sum"),
    ("thm4.3", oracle, "count_first_column_k_hooks"),
    ("thm4.3", series, "gf_first_column_k_hooks"),
    ("thm4.3", series, "gf_hook_k_all_h"),
    ("pentagonal-truncation", oracle, "count_mex_class"),
    ("pentagonal-truncation", series, "truncated_pentagonal"),
]

# the SIDES entries whose constructor returns a Series; truncated_pentagonal
# returns one coefficient
SERIES_SIDES = [(theorem, name) for theorem, module, name in SIDES
                if module is series and name != "truncated_pentagonal"]

# the exit code and stdout of `verify` with one side off by one: each SIDES
# entry at n = 3, thm4.2's part terms at n = 3, which reach the report through
# gf_h_fixed_part_sum, and the two sides of thm3.3's stated n = 0 exception
MISMATCHES = json.loads((Path(__file__).parent / "data" / "verify_mismatches.json").read_text())
MODULES = {"oracle": oracle, "series": series}


def _off_by_one_at(at, func):
    """func with 1 added to its value at n = at."""

    def wrapped(*args):
        value = func(*args)
        if isinstance(value, Series):
            return value + Series.make([1], value.order, offset=at)
        if isinstance(value, CountTable):
            return CountTable({n: c + (n == at) for n, c in value.values.items()})
        return value + (args[-1] == at)  # truncated_pentagonal(k, n) is one coefficient

    return wrapped


def _public_functions(module):
    """The names of the public functions that module defines, lru_cache objects included."""
    return [name for name, value in vars(module).items()
            if not name.startswith("_") and callable(value) and not isinstance(value, type)
            and getattr(value, "__module__", None) == module.__name__]


def _recording(calls, module, name):
    """module.name, adding (module, name) to calls whenever a frame of verify calls it."""
    func = getattr(module, name)

    def wrapped(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == verify_mod.__name__:
            calls.add((module, name))
        return func(*args, **kwargs)

    return wrapped


def _case_id(case):
    theorem, name = case["argv"][1], case["side"].split(".")[1]
    return f"{theorem}-{name}" if case["n"] == 3 else f"{theorem}-{name}-n{case['n']}"


class TestReports:
    def test_every_theorem_id_is_wired(self):
        for theorem in verify_mod.THEOREM_IDS:
            report = verify_theorem(theorem, nmax=8, order=16)
            assert report.ok
            assert report.cells

    @pytest.mark.parametrize("theorem", [t for t in verify_mod.THEOREM_IDS
                                         if t != "pentagonal-truncation"])  # stated for n >= 1
    def test_order_zero(self, theorem):
        # thm4.2's part-size sum has no term at order 0
        report = verify_theorem(theorem, nmax=0, order=0)
        assert report.ok
        assert report.cells

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown theorem id"):
            verify_theorem("thm0.0")

    def test_report_json_shape(self):
        report = verify_theorem("thm4.1", nmax=8, order=16, h=0, k=2)
        data = report.to_json_dict()
        assert data["theorem"] == "thm4.1"
        assert data["ok"] is True
        assert data["cells"][0]["params"] == {"h": 0, "k": 2}

    def test_mismatch_reporting(self, monkeypatch):
        # corrupt the oracle to confirm divergences are located and reported
        def broken(h, n_max):
            values = {n: 0 for n in range(n_max + 1)}
            values[4] = 99
            return CountTable(values)

        monkeypatch.setattr(verify_mod.oracle, "count_fixed_hooks", broken)
        report = verify_theorem("thm4.2", nmax=8, order=16, h=0)
        assert not report.ok
        cell = report.cells[0]
        assert cell.status == "mismatch"
        # the first partition with a 0-fixed hook is (1), which the broken oracle misses
        assert cell.first_divergence == (1, 0, 1)
        assert cell.to_json_dict()["first_divergence"] == {"n": 1, "expected": 0, "actual": 1}
        assert "first divergence at n=1: expected 0, got 1" in report.to_text()

    def test_mismatch_exit_code(self, monkeypatch, capsys):
        def broken(h, n_max):
            return CountTable({n: 0 for n in range(n_max + 1)})

        monkeypatch.setattr(verify_mod.oracle, "count_fixed_hooks", broken)
        argv = ["verify", "thm4.2", "--h", "0", "--nmax", "8", "--order", "16"]
        assert main(argv) == 1
        assert "MISMATCH" in capsys.readouterr().out
        assert main([*argv, "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert not data["ok"]
        assert data["cells"][0]["first_divergence"] == {"n": 1, "expected": 0, "actual": 1}

    # thm4.2's part terms are not a side: gf_h_fixed_part_sum adds them from q^0
    @pytest.mark.parametrize("theorem, name", [*SERIES_SIDES, ("thm4.2", "gf_h_fixed_part_k")])
    def test_resummed_term_below_q0_raises(self, monkeypatch, capsys, theorem, name):
        # every series side is read from q^0, which would drop a term below it;
        # prop2.2 multiplies two Pochhammers, so its q^-1 terms meet at q^-2
        term = getattr(series, name)
        monkeypatch.setattr(series, name,
                            lambda *args: term(*args) + Series.make([1], args[-1], offset=-1))
        offset = -2 if name == "inv_finite_pochhammer" else -1
        message = f"starts at q^{offset}, below q^0"
        with pytest.raises(InvariantError, match=re.escape(message)):
            verify_theorem(theorem, nmax=8, order=16)
        assert main(["verify", theorem, "--nmax", "8", "--order", "16"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err

    @pytest.mark.parametrize("theorem, name", [
        ("thm2.1", "gf_fixed_hooks_double_sum"),
        ("thm2.1", "gf_fixed_hooks_simplified"),
        ("thm4.2", "gf_h_fixed_part_sum"),
        ("thm4.3", "gf_hook_k_all_h"),
    ])
    def test_series_identities_are_compared_through_the_order(self, monkeypatch, theorem, name):
        # both sides of a series identity are exact up to the order, so one
        # wrong coefficient above nmax is a mismatch in every cell, found there
        nmax, order = 8, 16
        monkeypatch.setattr(series, name, _off_by_one_at(nmax + 1, getattr(series, name)))
        report = verify_theorem(theorem, nmax=nmax, order=order)
        found = [cell.first_divergence and cell.first_divergence[0] for cell in report.cells]
        assert found == [nmax + 1] * len(report.cells)

    def test_thm42_holds_at_most_two_part_terms(self, monkeypatch):
        # each part-size term is added to the sum and dropped before the next
        # is built, so one term and the one being built are all that live
        part, terms, most = series.gf_h_fixed_part_k, [], 0

        def tracked(*args):
            nonlocal most
            term = part(*args)
            terms.append(weakref.ref(term))
            most = max(most, sum(ref() is not None for ref in terms))
            return term

        monkeypatch.setattr(series, "gf_h_fixed_part_k", tracked)
        assert main(["verify", "thm4.2", "--h", "5", "--order", "40"]) == 0
        assert len(terms) == 40
        assert most <= 2

    def test_every_side_has_a_pinned_mismatch(self):
        pinned = [(case["argv"], case["side"], case["n"]) for case in MISMATCHES]
        for theorem, module, name in SIDES:
            argv = ["verify", theorem, "--nmax", "8", "--order", "16"]
            assert (argv, f"{module.__name__.split('.')[-1]}.{name}", 3) in pinned

    def test_sides_are_complete(self, monkeypatch):
        # every oracle counter and series constructor that a verifier calls itself is one
        # of its SIDES entries, and each entry is called: a side added to a verifier
        # fails here until it is pinned
        calls = set()
        for module in (oracle, series):
            for name in _public_functions(module):
                monkeypatch.setattr(module, name, _recording(calls, module, name))
        for theorem in verify_mod.THEOREM_IDS:
            calls.clear()
            assert verify_theorem(theorem, nmax=8, order=16).ok
            assert calls == {(module, name) for t, module, name in SIDES if t == theorem}, theorem

    @pytest.mark.parametrize("case", MISMATCHES, ids=[_case_id(case) for case in MISMATCHES])
    def test_every_side_is_compared(self, monkeypatch, capsys, case):
        module, name = case["side"].split(".")
        # q_binomial is an lru_cache object; the wrapper calls it, it does not patch it
        monkeypatch.setattr(MODULES[module], name,
                            _off_by_one_at(case["n"], getattr(MODULES[module], name)))
        code = main(case["argv"])
        out = capsys.readouterr().out
        assert code == 1
        assert "MISMATCH" in out
        assert (code, out) == (case["code"], case["stdout"])
