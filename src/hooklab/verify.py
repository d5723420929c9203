"""Cross-verification of series coefficients against the enumeration oracle.

Each theorem id wires at least one generating-function constructor to at
least one brute-force counter over a parameter grid: its verifier yields
the cells with every side computed, and one runner compares them.  A
mismatching cell records the first divergent n with both values so a
failure can be bisected immediately.

:data:`STATISTICS` pairs each sequence that ``hooklab seq`` exports with its
series constructor and its oracle counter; Theorems 3.2 and 4.1 are exactly
such a pair checked over a grid, and Theorems 4.2 and 4.3 are such a pair
plus a resummed series compared with the statistic's through the order.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Iterator

from . import oracle, series
from .partitions import Frozen, InvariantError, Record, check_weight

DEFAULT_NMAX = 30
DEFAULT_ORDER = 60
DEFAULT_H_GRID = tuple(range(-3, 4))
DEFAULT_K_GRID = tuple(range(1, 6))
# the largest round series order at which the slowest path of each command ends
# within a minute (DECISIONS.md section 11): verify thm4.2 with h near order / 2,
# seq fixed-hooks with h from 600 to 1000
MAX_VERIFY_ORDER = 2000
MAX_SEQ_NMAX = 10000


class CellResult(Record):
    def __init__(self, params: dict[str, int], status: str,
                 first_divergence: tuple[int, int, int] | None = None, note: str = "") -> None:
        self.params = params
        self.status = status  # "match" or "mismatch"
        self.first_divergence = first_divergence  # (n, expected, actual)
        self.note = note

    def to_json_dict(self) -> dict:
        data: dict = {"params": self.params, "status": self.status}
        if self.first_divergence is not None:
            n, expected, actual = self.first_divergence
            data["first_divergence"] = {"n": n, "expected": expected, "actual": actual}
        if self.note:
            data["note"] = self.note
        return data


class VerificationReport(Record):
    def __init__(self, theorem: str, nmax: int, order: int,
                 cells: list[CellResult] | None = None) -> None:
        self.theorem = theorem
        self.nmax = nmax
        self.order = order
        self.cells = [] if cells is None else cells

    @property
    def ok(self) -> bool:
        return all(cell.status == "match" for cell in self.cells)

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "nmax": self.nmax,
            "order": self.order,
            "ok": self.ok,
            "cells": [cell.to_json_dict() for cell in self.cells],
        }

    def to_text(self) -> str:
        lines = [f"{self.theorem}: nmax={self.nmax} order={self.order}"]
        for cell in self.cells:
            label = " ".join(f"{k}={v}" for k, v in cell.params.items()) or "-"
            line = f"  [{label}] {cell.status}"
            if cell.first_divergence is not None:
                n, expected, actual = cell.first_divergence
                line += f" (first divergence at n={n}: expected {expected}, got {actual})"
            if cell.note:
                line += f"  # {cell.note}"
            lines.append(line)
        lines.append(f"{self.theorem}: {'MATCH' if self.ok else 'MISMATCH'}")
        return "\n".join(lines)


def _axis(name: str, value: int | None) -> tuple[int, ...]:
    """The values of the h or k axis: its default grid, or the one value given."""
    if value is None:
        return DEFAULT_H_GRID if name == "h" else DEFAULT_K_GRID
    if name == "k" and value < 1:
        raise ValueError(f"k must be >= 1, got {value}")
    return (value,)


def _series_values(s: series.Series, nmax: int) -> dict[int, int]:
    """The coefficients of q^0 .. q^nmax: every series side is read here, and a
    counting series has no term below q^0, which this read would drop."""
    if s.offset < 0:
        raise InvariantError(f"a series starts at q^{s.offset}, below q^0")
    return dict(enumerate(s.coefficients(0, nmax)))


class Statistic(Frozen, Record):
    """A counting statistic: its parameters in output order, and the names of
    its series constructor and its oracle counter.

    The two functions are looked up on the :mod:`series` and :mod:`oracle`
    modules at call time, so wrappers or test doubles installed there apply.
    series_args are the leading constructor arguments that are not parameters,
    and domain names, in errors, the condition that admits() tests.
    """

    def __init__(self, params: tuple[str, ...], series: str, counter: str,
                 series_args: tuple[int, ...] = (), domain: str = "",
                 admits: Callable[..., bool] = lambda **point: True) -> None:
        # set in the instance's __dict__, which Frozen.__setattr__ would refuse
        vars(self).update(params=params, series=series, counter=counter,
                          series_args=series_args, domain=domain, admits=admits)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def grid(self, h: int | None = None, k: int | None = None) -> list[dict[str, int]]:
        """Points of the default grid, or of the given h and k, inside the domain."""
        given = {"h": h, "k": k}
        axes = (_axis(name, given[name]) for name in self.params)
        points = (dict(zip(self.params, values)) for values in itertools.product(*axes))
        return [point for point in points if self.admits(**point)]

    def series_values(self, point: dict[str, int], nmax: int, order: int) -> dict[int, int]:
        args = (point[name] for name in self.params)
        return _series_values(getattr(series, self.series)(*self.series_args, *args, order), nmax)

    def oracle_values(self, point: dict[str, int], nmax: int) -> dict[int, int]:
        args = (point[name] for name in self.params)
        return getattr(oracle, self.counter)(*args, nmax).values


STATISTICS = {
    "fixed-hooks": Statistic(("h",), "gf_all_h_fixed", "count_fixed_hooks"),
    "fixed-hooks-by-part": Statistic(("h", "k"), "gf_h_fixed_part_k", "count_h_fixed_by_part"),
    "fixed-hooks-by-hook": Statistic(("h", "k"), "gf_h_fixed_hook_k", "count_h_fixed_by_hook",
                                     domain="h <= k-1", admits=lambda h, k: h <= k - 1),
    "parts-eq-mult": Statistic((), "gf_fixed_hooks_simplified", "count_parts_eq_mult"),
    "M": Statistic(("k",), "gf_M_k", "count_mex_class"),
    "first-column-k-hooks": Statistic(("k",), "gf_first_column_k_hooks",
                                      "count_first_column_k_hooks"),
    "partition-numbers": Statistic((), "inv_pochhammer_tail", "partition_counts",
                                   series_args=(1,)),
}


def check_bounds(series_order: str, limit: int, **bounds: int) -> None:
    """Reject a negative bound, whose range would be empty, and a series order past
    limit, which would run for minutes: both before any list is allocated."""
    for name, value in bounds.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    order = bounds[series_order]
    if order > limit:
        raise ValueError(f"{series_order}={order} exceeds the series-order bound {limit}")


def check_axes(command: str, params: tuple[str, ...], **given: int | None) -> None:
    """Refuse an --h or --k that command does not take, naming the parameters it does."""
    for name, value in given.items():
        if value is not None and name not in params:
            takes = ", ".join(f"--{param}" for param in params) or "none"
            raise ValueError(f"{command} does not take --{name} (its parameters: {takes})")


# A check is (expected, actuals, note): expected is compared with each actual
# over its keys.  A cell is (params, checks, note), note being that of a match.
Check = tuple[dict[int, int], list[dict[int, int]], str]
Cell = tuple[dict[str, int], list[Check], str]


def _run(params: dict[str, int], checks: list[Check], note: str) -> CellResult:
    """The first divergence among the checks, with that check's note, or a match."""
    for expected, actuals, check_note in checks:
        for actual in actuals:
            for n in sorted(expected):
                if expected[n] != actual[n]:
                    return CellResult(params, "mismatch", (n, expected[n], actual[n]), check_note)
    return CellResult(params, "match", None, note)


# -- per-theorem verifiers: each yields its cells in grid order ---------------

def _verify_statistic(name: str, nmax: int, order: int, h, k, resummed: str = "",
                      note: str = "") -> Iterator[Cell]:
    """The statistic's oracle counts against its series; with resummed, the name of a
    constructor on the same parameters, that series against the statistic's, through
    the order."""
    stat = STATISTICS[name]
    points = stat.grid(h, k)
    if not points:
        raise ValueError(f"no point of the requested grid satisfies {stat.domain}")
    for point in points:
        counts = stat.oracle_values(point, nmax)
        coeffs = stat.series_values(point, order, order)
        checks = [(counts, [coeffs], "")]
        if resummed:
            args = (point[param] for param in stat.params)
            other = _series_values(getattr(series, resummed)(*args, order), order)
            checks.append((coeffs, [other], note))
        yield point, checks, note


def _verify_thm21(nmax: int, order: int, h, k) -> Iterator[Cell]:
    hooks = oracle.count_fixed_hooks(0, nmax).values
    double_sum = _series_values(series.gf_fixed_hooks_double_sum(order), order)
    simplified = _series_values(series.gf_fixed_hooks_simplified(order), order)
    others = (
        ("parts-eq-mult", oracle.count_parts_eq_mult(nmax).values),
        ("double-sum", double_sum),
        ("simplified", simplified),
    )
    checks = [(hooks, [other], f"vs {name}") for name, other in others]
    # the two closed forms are both exact up to the order, past the oracle's nmax
    checks.append((double_sum, [simplified], "double-sum vs simplified through the order"))
    yield {}, checks, "oracle = parts-eq-mult = both series forms"


def _verify_prop22(nmax: int, order: int, h, k) -> Iterator[Cell]:
    note = "series identity plus box-partition counts"
    # 1/(q)_n for every n the grid reads: a, b and a + b
    inverses = [series.inv_finite_pochhammer(n, order) for n in range(17)]
    for a, b in itertools.product(range(9), repeat=2):
        binomial = series.q_binomial(a + b, a, order)
        lhs = inverses[a] * inverses[b]
        rhs = inverses[a + b] * binomial
        # oracle side: the q-binomial factor counts partitions in an a x b box
        top = min(nmax, a * b)
        counted = oracle.count_box_partitions(a, b, top).values
        checks = [(_series_values(lhs, order), [_series_values(rhs, order)], ""),
                  (counted, [_series_values(binomial, top)], note)]
        yield {"a": a, "b": b}, checks, note


def _verify_thm33(nmax: int, order: int, h, k) -> Iterator[Cell]:
    hs = tuple(hv for hv in _axis("h", h) if hv >= -1)
    if not hs:
        raise ValueError("thm3.3 is stated for h >= -1 only")
    for hv in hs:
        hooks = oracle.count_h_fixed_by_part(hv, 1, nmax).values
        ones = oracle.count_ones_exact(hv, nmax).values
        coeffs = _series_values(series.gf_ones_shifted(hv, order), nmax)
        if hv == -1:
            # Stated exception: at n=0 the empty partition has zero 1s
            # but no -1-fixed hook; the series already drops that term.
            stated = "expected the documented n=0 exception"
            note = "n=0 exception applied as stated"
            checks = [({0: 0}, [hooks], stated), ({0: 1}, [ones], stated),
                      (hooks, [{**ones, 0: 0}, coeffs], note)]
        else:
            note, checks = "", [(hooks, [ones, coeffs], "")]
        yield {"h": hv}, checks, note


def _verify_thm34(nmax: int, order: int, h, k) -> Iterator[Cell]:
    hs = _axis("h", h)
    # the ones side reads weights up to nmax - h: refuse the grid before any cell runs
    check_weight(nmax - min(min(hs), 0))
    for hv in hs:
        hooks = oracle.count_h_fixed_by_part(hv, 1, nmax).values
        shifted = oracle.count_ones_shifted(hv, nmax).values
        coeffs = _series_values(series.gf_ones_shifted(hv, order), nmax)
        yield {"h": hv}, [(hooks, [shifted, coeffs], "")], ""


def _verify_thm35(nmax: int, order: int, h, k) -> Iterator[Cell]:
    grid = [(hv, kv, kv * (kv - 1) // 2 - (hv + 1))
            for hv in _axis("h", h) for kv in _axis("k", k)]
    # the mex side reads weights up to nmax + shift: refuse the grid before any cell runs
    check_weight(nmax + max(max(shift, 0) for _, _, shift in grid))
    for hv, kv, shift in grid:
        hooks = oracle.count_h_fixed_by_part(hv, kv, nmax).values
        mexes = oracle.count_generalized_mex(hv, kv, nmax + max(shift, 0)).values
        shifted = {n: (mexes[n + shift] if n + shift >= 0 else 0) for n in range(nmax + 1)}
        coeffs = _series_values(series.gf_h_fixed_part_k(hv, kv, order), nmax)
        yield {"h": hv, "k": kv}, [(hooks, [shifted, coeffs], "")], ""


def _verify_cor36(nmax: int, order: int, h, k) -> Iterator[Cell]:
    for kv in _axis("k", k):
        shift = kv * (kv - 1) // 2
        mexes = oracle.count_mex_class(kv, nmax).values
        hooks = oracle.count_h_fixed_by_part(-1, kv, nmax).values
        derived = {n: (hooks[n - shift] if n - shift >= 0 else 0) for n in range(nmax + 1)}
        coeffs = _series_values(series.gf_M_k(kv, order), nmax)
        yield {"k": kv}, [(mexes, [derived, coeffs], "")], ""


def _verify_pentagonal(nmax: int, order: int, h, k) -> Iterator[Cell]:
    if nmax < 1:
        raise ValueError("pentagonal-truncation is stated for n >= 1, so nmax must be >= 1")
    note = "n=0 excluded: the recurrence is stated for n >= 1"
    for kv in _axis("k", k):
        mexes = oracle.count_mex_class(kv, nmax).values
        sign = 1 if kv % 2 else -1
        truncated = {n: sign * series.truncated_pentagonal(kv, n) for n in range(1, nmax + 1)}
        expected = {n: mexes[n] for n in range(1, nmax + 1)}
        yield {"k": kv}, [(expected, [truncated], note)], note


# each id's verifier, and the axes of its grid that --h and --k may fix
_VERIFIERS = {
    "thm2.1": (_verify_thm21, ()),
    "prop2.2": (_verify_prop22, ()),
    "thm3.2": (functools.partial(_verify_statistic, "fixed-hooks-by-part"), ("h", "k")),
    "thm3.3": (_verify_thm33, ("h",)),
    "thm3.4": (_verify_thm34, ("h",)),
    "thm3.5": (_verify_thm35, ("h", "k")),
    "cor3.6": (_verify_cor36, ("k",)),
    "thm4.1": (functools.partial(_verify_statistic, "fixed-hooks-by-hook"), ("h", "k")),
    "thm4.2": (functools.partial(_verify_statistic, "fixed-hooks", resummed="gf_h_fixed_part_sum",
                                 note="includes part-size resummation"), ("h",)),
    "thm4.3": (functools.partial(_verify_statistic, "first-column-k-hooks",
                                 resummed="gf_hook_k_all_h", note="includes h-resummation"),
               ("k",)),
    "pentagonal-truncation": (_verify_pentagonal, ("k",)),
}

THEOREM_IDS = tuple(_VERIFIERS)


def verify_theorem(theorem: str, *, nmax: int = DEFAULT_NMAX, order: int = DEFAULT_ORDER,
                   h: int | None = None, k: int | None = None) -> VerificationReport:
    """Run one theorem's coefficient-vs-oracle grid and report per-cell status."""
    if theorem not in _VERIFIERS:
        raise ValueError(f"unknown theorem id {theorem!r}; choose from {', '.join(THEOREM_IDS)}")
    verifier, axes = _VERIFIERS[theorem]
    check_bounds("order", MAX_VERIFY_ORDER, nmax=nmax, order=order)
    check_axes(f"verify {theorem}", axes, h=h, k=k)
    if nmax > order:
        raise ValueError(f"nmax={nmax} exceeds the series order {order}")
    cells = [_run(*cell) for cell in verifier(nmax, order, h, k)]
    return VerificationReport(theorem, nmax, order, cells)
