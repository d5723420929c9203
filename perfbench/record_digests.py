"""Record the SHA-256 digests that gate the series-export workload.

Run from the root of the repository::

    python3 perfbench/record_digests.py

For every request of the series-export grid, at the --nmax of each size in
``workloads.SIZES``, this captures the exact b-file output of
``hooklab seq`` and stores its digest in ``perfbench/digests.json``.  Before
anything is written, the n <= 30 prefix of every sequence is checked
against the matching brute-force counter of ``hooklab.oracle``, so the
pinned outputs are known to be right, not just stable.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from hooklab import oracle  # noqa: E402

import workloads  # noqa: E402

PREFIX = 30

COUNTERS = {
    "fixed-hooks": lambda p: oracle.count_fixed_hooks(p["h"], PREFIX),
    "fixed-hooks-by-part": lambda p: oracle.count_h_fixed_by_part(p["h"], p["k"], PREFIX),
    "fixed-hooks-by-hook": lambda p: oracle.count_h_fixed_by_hook(p["h"], p["k"], PREFIX),
    "parts-eq-mult": lambda p: oracle.count_parts_eq_mult(PREFIX),
    "M": lambda p: oracle.count_mex_class(p["k"], PREFIX),
    "first-column-k-hooks": lambda p: oracle.count_first_column_k_hooks(p["k"], PREFIX),
    "partition-numbers": lambda p: oracle.partition_counts(PREFIX),
}


def parse_bfile(text: str) -> dict[int, int]:
    values = {}
    for line in text.splitlines():
        n, count = line.split()
        values[int(n)] = int(count)
    return values


def main() -> int:
    nmaxes = sorted({size["seq_nmax"] for size in workloads.SIZES.values()})
    expected = {}
    for statistic, params in workloads.seq_requests():
        table = COUNTERS[statistic](params).values
        expected[workloads.seq_key(statistic, params)] = table
    digests: dict[str, dict[str, str]] = {}
    for nmax in nmaxes:
        digests[str(nmax)] = {}
        for statistic, params in workloads.seq_requests():
            key = workloads.seq_key(statistic, params)
            code, text = workloads.run_cli(workloads.seq_argv(statistic, params, nmax))
            if code != 0:
                print(f"seq {key} --nmax {nmax}: exit code {code}", file=sys.stderr)
                return 1
            values = parse_bfile(text)
            if sorted(values) != list(range(nmax + 1)):
                print(f"seq {key} --nmax {nmax}: rows are not n = 0..{nmax}", file=sys.stderr)
                return 1
            prefix = {n: values[n] for n in range(PREFIX + 1)}
            if prefix != expected[key]:
                bad = min(n for n in prefix if prefix[n] != expected[key][n])
                print(f"seq {key} --nmax {nmax}: n={bad} gives {prefix[bad]}, "
                      f"the oracle counts {expected[key][bad]}", file=sys.stderr)
                return 1
            digests[str(nmax)][key] = hashlib.sha256(text.encode()).hexdigest()
    record = {
        "command": "hooklab seq <statistic> [--h H] [--k K] --nmax N --format bfile --start 0",
        "oracle_checked_prefix": PREFIX,
        "nmax": digests,
    }
    (HERE / "digests.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(len(d) for d in digests.values())} digests, "
          f"n <= {PREFIX} checked against the oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
