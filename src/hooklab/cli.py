"""Command-line interface: verify identities, export sequences, trace bijections.

Exit codes: 0 on success/full match, 1 on a verification mismatch, 2 on
usage errors (including bijection precondition violations, which are
reported with the failing check named, negative bounds, empty grids,
enumerations past the weight bound and B inputs past theirs) and on a
broken internal invariant.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bijections, verify
from .partitions import InvariantError, Partition

# the largest round weight at which `bijection B --direction inverse --input
# '[w-6,2,2,2]'`, whose image has about w parts, ends within 1 s (DECISIONS.md
# section 16); F and the mex maps do work bounded by the number of parts
MAX_B_WEIGHT = 600_000


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
    if args.start is not None and args.format != "bfile":
        raise ValueError(f"seq --format {args.format} does not take --start "
                         f"(only --format bfile does)")
    start = 1 if args.start is None else args.start
    verify.check_bounds("nmax", verify.MAX_SEQ_NMAX, nmax=args.nmax, start=start)
    stat = verify.STATISTICS[args.statistic]
    verify.check_axes(f"seq {args.statistic}", stat.params, h=args.h, k=args.k)
    _require(args, stat.params, f"seq {args.statistic}")
    point = {name: getattr(args, name) for name in stat.params}
    # every constructor is exact up to its order, so order nmax gives the same values
    values = stat.series_values(point, args.nmax, args.nmax)
    if args.format == "csv":
        sys.stdout.write("n,count\n" + "".join(f"{n},{c}\n" for n, c in values.items()))
    elif args.format == "json":
        data = {"statistic": args.statistic, "params": point, "values": values}
        sys.stdout.write(json.dumps(data, indent=2) + "\n")  # the keys n print as strings
    else:
        sys.stdout.write("".join(f"{n} {values[n]}\n" for n in range(start, args.nmax + 1)))
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
    """Apply one map; --trace adds its inputs and intermediates to the output."""
    forward = args.direction == "forward"
    if args.name == "F":
        _require(args, ("a", "b"), "bijection F")
        names = ("lam", "mu", "nu", "rho") if forward else ("nu", "rho", "lam", "mu")
        _require(args, names[:2], f"bijection F {args.direction}")
        pair = [_parse_partition(getattr(args, name), f"--{name}") for name in names[:2]]
        apply = bijections.f_bijection if forward else bijections.f_inverse
        inputs = {**dict(zip(names, pair)), "a": args.a, "b": args.b}
        outputs = dict(zip(names[2:], apply(args.a, args.b, *pair)))
        intermediates = {}
    else:
        _require(args, ("input",), f"bijection {args.name}")
        partition = _parse_partition(args.input, "--input")
        if args.name == "B" and partition.n > MAX_B_WEIGHT:
            raise ValueError(f"the input weighs {partition.n}, above the B weight bound "
                             f"{MAX_B_WEIGHT}")
        if args.name == "B" and forward:
            _require(args, ("i",), "bijection B forward")
            steps = bijections.b_steps(partition, args.i)._asdict()
            inputs = {"lam": partition, "i": args.i}
            outputs = {"mu": steps.pop("mu"), "s": steps.pop("s")}
            intermediates = steps
        elif args.name == "B":
            lam, i = bijections.b_inverse(partition)
            s = partition.find_h_fixed_hook(0).position
            inputs = {"mu": partition}
            intermediates = {"s": s, "k": s - i + 1}
            outputs = {"lam": lam, "i": i}
        elif forward:
            outputs = {"mu": bijections.mex_map(partition)}
            report = partition.find_h_fixed_hook(-1)
            inputs = {"lam": partition}
            intermediates = {"s": report.position, "k": report.part}
        else:
            _require(args, ("k",), "bijection mex inverse")
            lam = bijections.mex_map_inverse(partition, args.k)
            inputs = {"mu": partition, "k": args.k}
            intermediates = {"s": lam.find_h_fixed_hook(-1).position, "k": args.k}
            outputs = {"lam": lam}
    payload = {"bijection": args.name if forward else f"{args.name}-inverse"}
    if args.trace:
        payload.update(input=inputs, intermediates=intermediates)
    payload["output"] = outputs
    sys.stdout.write(json.dumps(payload, indent=2, default=Partition.to_list) + "\n")
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
    p_seq.add_argument("--format", choices=("csv", "json", "bfile"), default="csv")
    p_seq.add_argument("--start", type=int, default=None,
                       help="first index in b-file output (default 1)")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call to main, not at import: parsing leaves no state in
    # the parser, so one serves every call of a process
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, InvariantError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
