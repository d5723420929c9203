"""Command-line interface: verify identities, export sequences, trace bijections.

Exit codes: 0 on success/full match, 1 on a verification mismatch, 2 on
usage errors (including bijection precondition violations, which are
reported with the failing check named, negative bounds, empty grids and
enumerations past the weight bound) and on a broken internal invariant.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bijections, oracle, verify
from .partitions import InvariantError, Partition


def _parse_partition(text: str, flag: str) -> Partition:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{flag} is not valid JSON: {exc}") from None
    if not isinstance(data, list) or not all(isinstance(v, int) for v in data):
        raise ValueError(f"{flag} must be a JSON array of integers, got {text!r}")
    return Partition(tuple(data))


def _require(args: argparse.Namespace, names: tuple[str, ...], context: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError(f"{context} requires --{name}")


def _cmd_seq(args: argparse.Namespace) -> int:
    verify.check_bounds(args.nmax, args.order)
    stat = verify.STATISTICS[args.statistic]
    _require(args, stat.params, f"seq {args.statistic}")
    point = {name: getattr(args, name) for name in stat.params}
    values = stat.series_values(point, args.nmax, max(args.order, args.nmax))
    table = oracle.CountTable(args.statistic, point, values)
    if args.format == "csv":
        sys.stdout.write(table.to_csv())
    elif args.format == "json":
        sys.stdout.write(json.dumps(table.to_json_dict(), indent=2) + "\n")
    else:
        sys.stdout.write(table.to_bfile(start=args.start))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify.verify_theorem(args.theorem, nmax=args.nmax, order=args.order,
                                   h=args.h, k=args.k)
    if args.json:
        sys.stdout.write(json.dumps(report.to_json_dict(), indent=2) + "\n")
    else:
        sys.stdout.write(report.to_text() + "\n")
    return 0 if report.ok else 1


def _cmd_bijection(args: argparse.Namespace) -> int:
    forward = args.direction == "forward"
    if args.name == "F":
        _require(args, ("a", "b"), "bijection F")
        if forward:
            _require(args, ("lam", "mu"), "bijection F forward")
            record = bijections.f_bijection_record(
                args.a, args.b,
                _parse_partition(args.lam, "--lam"), _parse_partition(args.mu, "--mu"),
            )
        else:
            _require(args, ("nu", "rho"), "bijection F inverse")
            record = bijections.f_inverse_record(
                args.a, args.b,
                _parse_partition(args.nu, "--nu"), _parse_partition(args.rho, "--rho"),
            )
    elif args.name == "B":
        _require(args, ("input",), "bijection B")
        partition = _parse_partition(args.input, "--input")
        if forward:
            _require(args, ("i",), "bijection B forward")
            record = bijections.b_bijection_record(partition, args.i)
        else:
            record = bijections.b_inverse_record(partition)
    else:  # mex
        _require(args, ("input",), "bijection mex")
        partition = _parse_partition(args.input, "--input")
        if forward:
            record = bijections.mex_map_record(partition)
        else:
            _require(args, ("k",), "bijection mex inverse")
            record = bijections.mex_map_inverse_record(partition, args.k)
    payload = record.to_json_dict()
    if not args.trace:
        payload = {"bijection": payload["bijection"], "output": payload["output"]}
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hooklab",
        description="Fixed hooks in first-column hook lengths: verification and export tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check a theorem's identity grid")
    p_verify.add_argument("theorem", choices=verify.THEOREM_IDS)
    p_verify.add_argument("--nmax", type=int, default=verify.DEFAULT_NMAX)
    p_verify.add_argument("--order", type=int, default=verify.DEFAULT_ORDER)
    p_verify.add_argument("--h", type=int, default=None)
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_seq = sub.add_parser("seq", help="export a counting sequence")
    p_seq.add_argument("statistic", choices=tuple(verify.STATISTICS))
    p_seq.add_argument("--h", type=int, default=None)
    p_seq.add_argument("--k", type=int, default=None)
    p_seq.add_argument("--nmax", type=int, default=verify.DEFAULT_NMAX)
    p_seq.add_argument("--order", type=int, default=verify.DEFAULT_ORDER)
    p_seq.add_argument("--format", choices=("csv", "json", "bfile"), default="csv")
    p_seq.add_argument("--start", type=int, default=1, help="first index in b-file output")
    p_seq.set_defaults(func=_cmd_seq)

    p_bij = sub.add_parser("bijection", help="apply a bijection and print its trace")
    p_bij.add_argument("name", choices=("F", "B", "mex"))
    p_bij.add_argument("--direction", choices=("forward", "inverse"), default="forward")
    p_bij.add_argument("--input", help="partition as a JSON array")
    p_bij.add_argument("--lam", help="left partition for F")
    p_bij.add_argument("--mu", help="right partition for F")
    p_bij.add_argument("--nu", help="image partition for F inverse")
    p_bij.add_argument("--rho", help="slide-count partition for F inverse")
    p_bij.add_argument("--a", type=int, default=None)
    p_bij.add_argument("--b", type=int, default=None)
    p_bij.add_argument("--i", type=int, default=None)
    p_bij.add_argument("--k", type=int, default=None)
    p_bij.add_argument("--trace", action="store_true")
    p_bij.set_defaults(func=_cmd_bijection)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, InvariantError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
