"""The hand-written value classes against the @dataclass and NamedTuple classes they replaced.

The reference classes below carry the names and declarations the package had
while these classes were generated, so that each repr reads the same.  Each
test builds both classes from the same arguments and compares what a caller
can see: construction, ==, hash, repr, immutability, and the namedtuple API.
"""

import copy
import pickle
import re
import subprocess
import sys
import weakref
from dataclasses import FrozenInstanceError, dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import hooklab
from hooklab import bijections, oracle, partitions, series, verify

from conftest import P

SRC = Path(hooklab.__file__).resolve().parent.parent


# -- the replaced classes, as they were declared -----------------------------

class FixedHookReport(NamedTuple):
    """A detected h-fixed hook: hook == part + t - position == position + h."""

    position: int
    hook: int
    part: int


@dataclass(frozen=True, init=False)
class Partition:
    """An integer partition; immutable and hashable."""

    __slots__ = ("parts",)
    parts: tuple[int, ...]

    def __init__(self, parts=()) -> None:
        object.__setattr__(self, "parts", tuple(parts))  # callers here pass valid parts

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"


@dataclass(frozen=True)
class Series:
    offset: int
    order: int
    coeffs: tuple[int, ...]


@dataclass
class CountTable:
    values: dict[int, int]


@dataclass
class CellResult:
    params: dict[str, int]
    status: str
    first_divergence: tuple[int, int, int] | None = None
    note: str = ""


@dataclass
class VerificationReport:
    theorem: str
    nmax: int
    order: int
    cells: list[CellResult] = field(default_factory=list)


@dataclass(frozen=True)
class Statistic:
    params: tuple[str, ...]
    series: str
    counter: str
    series_args: tuple[int, ...] = ()
    domain: str = ""
    admits: Callable[..., bool] = lambda **point: True


class BSteps(NamedTuple):
    k: int
    tau: Partition
    epsilon_prime: Partition
    gamma: Partition
    rho: Partition
    rho_rows: Partition
    mu: Partition
    s: int


# -- the arguments each pair of classes is built from -------------------------

def admits(h, k):
    return h <= k - 1


CELL = verify.CellResult({"h": 0}, "match")
STEPS = (2, P(3), P(1), P(3, 1), P(2), P(1, 1), P(4, 2, 2, 1), 3)

# (package class, reference class, [(args, kwargs), ...]); each list holds
# equal and unequal values, built positionally, by keyword and from defaults
CASES = {
    "FixedHookReport": (partitions.FixedHookReport, FixedHookReport, [
        ((1, 3, 2), {}), ((), {"position": 1, "hook": 3, "part": 2}), ((1, 3, 3), {})]),
    "Partition": (partitions.Partition, Partition, [
        (((3, 1),), {}), ((), {"parts": [3, 1]}), ((), {}), (((2, 2),), {})]),
    "Series": (series.Series, Series, [
        ((0, 5, (1, 2)), {}), ((), {"offset": 0, "order": 5, "coeffs": (1, 2)}),
        ((-1, 5, (1, 2)), {}), ((0, 4, (1, 2)), {}), ((0, 5, ()), {})]),
    "CountTable": (oracle.CountTable, CountTable, [
        (({0: 1, 1: 1},), {}), ((), {"values": {0: 1, 1: 1}}), (({0: 1},), {})]),
    "CellResult": (verify.CellResult, CellResult, [
        (({"h": 0}, "match"), {}), (({"h": 0}, "match", None, ""), {}),
        (({"h": 0}, "mismatch", (3, 1, 2)), {"note": "vs x"}),
        ((), {"params": {}, "status": "match", "note": "n"})]),
    "VerificationReport": (verify.VerificationReport, VerificationReport, [
        (("thm2.1", 30, 60), {}), (("thm2.1", 30, 60, []), {}),
        ((), {"theorem": "thm2.1", "nmax": 30, "order": 60, "cells": [CELL]}),
        (("thm2.1", 12, 60), {})]),
    "Statistic": (verify.Statistic, Statistic, [
        ((("h",), "gf_all_h_fixed", "count_fixed_hooks"), {}),
        ((("h", "k"), "gf_h_fixed_hook_k", "count_h_fixed_by_hook"),
         {"domain": "h <= k-1", "admits": admits}),
        ((), {"params": (), "series": "inv_pochhammer_tail", "counter": "partition_counts",
              "series_args": (1,), "admits": admits}),
        (((), "inv_pochhammer_tail", "partition_counts", (1,), "", admits), {})]),
    "BSteps": (bijections.BSteps, BSteps, [(STEPS, {}), (STEPS[:-1] + (4,), {})]),
}
OTHERS = (None, 0, (), (1, 3, 2), {"values": {0: 1, 1: 1}}, "Partition([3, 1])")


def _pairs(name):
    ours, ref, calls = CASES[name]
    return [(ours(*args, **kwargs), ref(*args, **kwargs)) for args, kwargs in calls]


def _shown(value):
    # repr without the addresses of functions: each class has its own default admits
    return re.sub(r" at 0x[0-9a-f]+", "", repr(value))


def _fields(value):
    return tuple(getattr(value, name) for name in CASES[type(value).__name__][1].__annotations__)


@pytest.mark.parametrize("name", CASES)
class TestDifferential:
    def test_construction_and_repr(self, name):
        for ours, ref in _pairs(name):
            assert type(ours) is CASES[name][0]
            assert _shown(ours) == _shown(ref)
            assert _shown(_fields(ours)) == _shown(_fields(ref))

    def test_equality(self, name):
        pairs = _pairs(name)
        for ours, ref in pairs:
            for other_ours, other_ref in pairs:
                assert (ours == other_ours) == (ref == other_ref), (ours, other_ours)
                assert (ours != other_ours) == (ref != other_ref), (ours, other_ours)
            for other in OTHERS:
                assert (ours == other) == (ref == other), other
                assert (other == ours) == (other == ref), other
            # a value never equals its reference copy, a class of its own,
            # unless both are namedtuples, which compare as tuples
            assert (ours == ref) == isinstance(ref, tuple)

    def test_hash(self, name):
        for ours, ref in _pairs(name):
            if type(ref).__hash__ is None:
                assert type(ours).__hash__ is None
                with pytest.raises(TypeError, match="unhashable"):
                    hash(ours)
            elif _fields(ours) == _fields(ref):
                assert hash(ours) == hash(ref)
            else:  # the default admits is a different function in each class
                assert hash(ours) == hash(CASES[name][0](*_fields(ours)))

    def test_copy_and_pickle(self, name):
        # the same value or the same error: a Statistic's default admits has no
        # import path. A Partition comes back equal, where the frozen dataclass's
        # slot refused to be set on unpickling
        def outcome(clone, value):
            try:
                return _shown(clone(value))
            except Exception as exc:
                return type(exc)

        for ours, ref in _pairs(name):
            for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
                if name == "Partition":
                    copied = clone(ours)
                    assert type(copied) is type(ours) and copied == ours
                else:
                    assert outcome(clone, ours) == outcome(clone, ref)


class TestFrozen:
    @pytest.mark.parametrize("name", ["Partition", "Series"])
    def test_set_and_delete_raise_frozen_instance_error(self, name):
        for ours, ref in _pairs(name):
            for attribute in (*type(ref).__annotations__, "extra"):
                for change in (lambda v: setattr(v, attribute, 1),
                               lambda v: delattr(v, attribute)):
                    with pytest.raises(FrozenInstanceError) as expected:
                        change(ref)
                    with pytest.raises(FrozenInstanceError,
                                       match=f"^{re.escape(str(expected.value))}$"):
                        change(ours)
            assert _fields(ours) == _fields(ref)

    def test_partition_has_no_dict_and_no_weakref(self):
        ours, ref = _pairs("Partition")[0]
        for value in (ours, ref):
            assert not hasattr(value, "__dict__")
            with pytest.raises(TypeError):
                weakref.ref(value)

    def test_series_takes_a_weak_reference(self):
        ours, _ = _pairs("Series")[0]
        assert weakref.ref(ours)() is ours
        assert not hasattr(ours, "__dict__")

    def test_statistic_refuses_a_change(self):
        ours, _ = _pairs("Statistic")[0]
        with pytest.raises(FrozenInstanceError):
            ours.domain = "h >= 0"
        assert ours.domain == ""

    def test_mutable_records_take_a_change(self):
        for name in ("CountTable", "CellResult", "VerificationReport"):
            for ours, ref in _pairs(name):
                first = next(iter(type(ref).__annotations__))
                setattr(ours, first, 7)
                setattr(ref, first, 7)
                assert repr(ours) == repr(ref)

    def test_report_cells_default_to_a_new_list(self):
        one, two = verify.VerificationReport("x", 1, 1), verify.VerificationReport("x", 1, 1)
        one.cells.append(CELL)
        assert two.cells == [] and one.cells == [CELL]


@pytest.mark.parametrize("name", ["FixedHookReport", "BSteps"])
class TestNamedTuples:
    def test_tuple_api(self, name):
        for ours, ref in _pairs(name):
            assert ours._asdict() == ref._asdict()
            assert list(ours._asdict()) == list(ref._asdict())
            assert type(ours)._fields == type(ref)._fields
            assert tuple(ours) == tuple(ref) and ours[-1] == ref[-1]
            last = type(ref)._fields[-1]
            assert ours._replace(**{last: 0}) == ref._replace(**{last: 0})
            assert type(ours._replace(**{last: 0})) is type(ours)


def test_found_hooks_are_reports():
    report = P(2, 2).find_h_fixed_hook(0)
    assert type(report) is partitions.FixedHookReport
    assert report._asdict() == {"position": 2, "hook": 2, "part": 2}


# -- what importing the package loads -----------------------------------------

IMPORT_CHECK = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
before = set(sys.modules)
import hooklab, hooklab.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_no_dataclasses_inspect_or_typing():
    # -I, as perfbench runs its workers; site may have loaded some of these
    # already, so only what the import itself adds counts
    out = subprocess.run([sys.executable, "-I", "-c", IMPORT_CHECK], capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    assert "hooklab.cli" in out
    assert not {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize"} & set(out), out
