"""The three benchmark workloads, each driven through hooklab's public API.

A workload is built from a size (``full`` for measurement, ``smoke`` for
the benchmark's own test) and a seed.  The seed only shuffles the order
of requests over grids that are fixed here, so every seed does the same
work and a caching gain cannot depend on one order.

Each workload exposes ``requests()``, ``call(request)`` (the timed
program call) and ``check(request, result)``, which returns ``None`` when
the output is exactly right and an error message otherwise.  With
``corrupt`` set, one expected value is deliberately wrong, so the smoke
test can show that the gate fires.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from hooklab import bijections, cli
from hooklab.partitions import Partition, generate_partitions

H_GRID = tuple(range(-3, 4))
K_GRID = tuple(range(1, 6))
CAPACITIES = tuple(range(7))  # a, b for the F roundtrips

# Cells per theorem at the default grids, recorded from the seed: 215 in all.
THEOREM_CELLS = {
    "thm2.1": 1,
    "prop2.2": 81,
    "thm3.2": 35,
    "thm3.3": 5,
    "thm3.4": 7,
    "thm3.5": 35,
    "cor3.6": 5,
    "thm4.1": 29,
    "thm4.2": 7,
    "thm4.3": 5,
    "pentagonal-truncation": 5,
}

SIZES = {
    # verify (nmax, order) -- None keeps the CLI defaults, 30 and 60
    # seq_nmax -- --nmax of every series-export request
    # f_weight -- largest |lam| + |mu| of the F roundtrips
    # bn -- largest n of the B and mex roundtrips
    "full": {"verify": None, "seq_nmax": 250, "f_weight": 17, "bn": 25},
    "smoke": {"verify": (10, 20), "seq_nmax": 40, "f_weight": 6, "bn": 10},
}

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class VerifyGrid:
    """`hooklab verify <id> --json` for every theorem id, one request each."""

    name = "verify-grid"

    def __init__(self, size: str, seed: int, corrupt: bool = False) -> None:
        grid = SIZES[size]["verify"]
        self.nmax, self.order = grid or (30, 60)
        self.extra = [] if grid is None else ["--nmax", str(self.nmax), "--order", str(self.order)]
        self.theorems = list(THEOREM_CELLS)
        random.Random(seed).shuffle(self.theorems)
        self.expected_cells = dict(THEOREM_CELLS)
        if corrupt:
            self.expected_cells[self.theorems[0]] += 1
        self.output_bytes = 0

    def requests(self):
        return iter(self.theorems)

    def describe(self, theorem: str) -> str:
        return f"verify {theorem}"

    def call(self, theorem: str) -> tuple[int, str]:
        return run_cli(["verify", theorem, "--json", *self.extra])

    def check(self, theorem: str, result: tuple[int, str]) -> str | None:
        code, text = result
        self.output_bytes += len(text.encode())
        if code != 0:
            return f"exit code {code}"
        report = json.loads(text)
        if (report["theorem"], report["nmax"], report["order"]) != (theorem, self.nmax, self.order):
            return "report names another theorem or grid"
        cells = report["cells"]
        if len(cells) != self.expected_cells[theorem]:
            return f"{len(cells)} cells, expected {self.expected_cells[theorem]}"
        bad = [cell["params"] for cell in cells if cell["status"] != "match"]
        if bad or not report["ok"]:
            return f"mismatching cells {bad}"
        return None


def seq_requests() -> list[tuple[str, dict[str, int]]]:
    """The 83 (statistic, parameters) pairs of the series-export grid."""
    reqs: list[tuple[str, dict[str, int]]] = [("fixed-hooks", {"h": h}) for h in H_GRID]
    reqs += [("fixed-hooks-by-part", {"h": h, "k": k}) for h in H_GRID for k in K_GRID]
    reqs += [("fixed-hooks-by-hook", {"h": h, "k": k})
             for h in H_GRID for k in K_GRID if h <= k - 1]
    reqs += [("parts-eq-mult", {})]
    reqs += [("M", {"k": k}) for k in K_GRID]
    reqs += [("first-column-k-hooks", {"k": k}) for k in K_GRID]
    reqs += [("partition-numbers", {})]
    return reqs


def seq_key(statistic: str, params: dict[str, int]) -> str:
    return " ".join([statistic] + [f"{name}={value}" for name, value in params.items()])


def seq_argv(statistic: str, params: dict[str, int], nmax: int) -> list[str]:
    argv = ["seq", statistic]
    for name, value in params.items():
        argv += [f"--{name}", str(value)]
    return argv + ["--nmax", str(nmax), "--format", "bfile", "--start", "0"]


class SeriesExport:
    """`hooklab seq ... --format bfile` over every statistic's default grid."""

    name = "series-export"

    def __init__(self, size: str, seed: int, corrupt: bool = False) -> None:
        self.nmax = SIZES[size]["seq_nmax"]
        self.digests = dict(json.loads(DIGESTS.read_text())["nmax"][str(self.nmax)])
        self.reqs = seq_requests()
        random.Random(seed).shuffle(self.reqs)
        if corrupt:
            key = seq_key(*self.reqs[0])
            flipped = "0" if self.digests[key][0] != "0" else "1"
            self.digests[key] = flipped + self.digests[key][1:]
        self.output_bytes = 0

    def requests(self):
        return iter(self.reqs)

    def describe(self, req) -> str:
        return f"seq {seq_key(*req)}"

    def call(self, req) -> tuple[int, str]:
        return run_cli(seq_argv(*req, self.nmax))

    def check(self, req, result: tuple[int, str]) -> str | None:
        code, text = result
        data = text.encode()
        self.output_bytes += len(data)
        if code != 0:
            return f"exit code {code}"
        if hashlib.sha256(data).hexdigest() != self.digests[seq_key(*req)]:
            return "b-file digest differs from the recorded one"
        return None


class BijectionRoundtrip:
    """Exhaustive F, B and mex roundtrips on partitions built in set-up.

    One request is one roundtrip.  The seed shuffles the order of request
    groups: an F group is one (a, b, |lam|, |mu|) block, a B or mex group
    is one weight n.
    """

    name = "bijection-roundtrip"

    def __init__(self, size: str, seed: int, corrupt: bool = False) -> None:
        f_weight, bn = SIZES[size]["f_weight"], SIZES[size]["bn"]
        by_weight = {w: list(generate_partitions(w)) for w in range(max(f_weight, bn) + 1)}
        self.fits = {(w, cap): [p for p in by_weight[w] if p.t <= cap]
                     for w in range(f_weight + 1) for cap in CAPACITIES}
        self.b_items = {n: [(lam, i) for lam in by_weight[n]
                            for i in sorted(lam.parts_equal_to_multiplicity())]
                        for n in range(bn + 1)}
        self.mex_items = {}
        for n in range(bn + 1):
            items = []
            for lam in by_weight[n]:
                report = lam.find_h_fixed_hook(-1)
                if report is not None:
                    items.append((lam, report.part))
            self.mex_items[n] = items
        groups = [("F", a, b, w1, w2)
                  for a in CAPACITIES for b in CAPACITIES
                  for w1 in range(f_weight + 1) for w2 in range(f_weight + 1 - w1)
                  if self.fits[w1, a] and self.fits[w2, b]]
        groups += [("B", n) for n in range(bn + 1) if self.b_items[n]]
        groups += [("mex", n) for n in range(bn + 1) if self.mex_items[n]]
        random.Random(seed).shuffle(groups)
        self.groups = groups
        self.corrupt = corrupt
        self.output_bytes = 0

    def requests(self):
        for group in self.groups:
            kind = group[0]
            if kind == "F":
                _, a, b, w1, w2 = group
                mus = self.fits[w2, b]
                for lam in self.fits[w1, a]:
                    for mu in mus:
                        yield ("F", a, b, lam, mu)
            elif kind == "B":
                for lam, i in self.b_items[group[1]]:
                    yield ("B", lam, i)
            else:
                for lam, k in self.mex_items[group[1]]:
                    yield ("mex", lam, k)

    def describe(self, req) -> str:
        return " ".join(str(v) for v in req)

    def call(self, req):
        kind = req[0]
        if kind == "F":
            _, a, b, lam, mu = req
            nu, rho = bijections.f_bijection(a, b, lam, mu)
            return nu, rho, bijections.f_inverse(a, b, nu, rho)
        if kind == "B":
            _, lam, i = req
            return bijections.b_inverse(bijections.b_bijection(lam, i))
        _, lam, k = req
        return bijections.mex_map_inverse(bijections.mex_map(lam), k)

    def _expected(self, value: Partition) -> Partition:
        if self.corrupt:
            self.corrupt = False
            return Partition(value.parts + (1,))
        return value

    def check(self, req, result) -> str | None:
        kind = req[0]
        if kind == "F":
            _, a, b, lam, mu = req
            nu, rho, back = result
            if nu.n + rho.n != lam.n + mu.n:
                return f"F changed the weight: |nu|+|rho| = {nu.n + rho.n}"
            if back != (self._expected(lam), mu):
                return f"F roundtrip returned {back}"
        elif kind == "B":
            _, lam, i = req
            if result != (self._expected(lam), i):
                return f"B roundtrip returned {result}"
        elif result != self._expected(req[1]):
            return f"mex roundtrip returned {result}"
        return None


WORKLOADS = {cls.name: cls for cls in (VerifyGrid, SeriesExport, BijectionRoundtrip)}
