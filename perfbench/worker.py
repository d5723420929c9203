"""One measured process: set up a workload, run one pass of it, report JSON.

``run.py`` starts this script in a fresh interpreter for every pass, so
hooklab's module-level caches start cold, as they do for a CLI user.
Modes:

* ``setup``: build the workload and report the set-up time only;
* ``pass``: build it, run every request once (traced with ``--trace 1``)
  and report timings, failures and peak RSS;
* ``probe``: run the per-layer probes of ``probes.py``.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_hooklab() -> None:
    sys.path[:0] = [str(SRC), str(HERE)]
    import hooklab

    if Path(hooklab.__file__).resolve().parent != SRC / "hooklab":
        raise RuntimeError(f"imported hooklab from {hooklab.__file__}, not from {SRC}")


def _run_pass(wl, tracer) -> dict:
    from latency import LogHistogram

    hist = LogHistogram()
    attempted = failed = 0
    errors: list[str] = []
    clock = time.perf_counter_ns
    start = clock()
    for rid, req in enumerate(wl.requests()):
        if tracer is not None:
            tracer.request = rid
        t0 = clock()
        try:
            result = wl.call(req)
            error = None
        except Exception as exc:  # a crashing request is a failed request
            error = f"{type(exc).__name__}: {exc}"
        hist.add(clock() - t0)
        if error is None:
            error = wl.check(req, result)
        attempted += 1
        if error is not None:
            failed += 1
            if len(errors) < 5:
                errors.append(f"{wl.describe(req)}: {error}")
    run_ns = clock() - start
    return {
        "run_s": run_ns / 1e9,
        "latency_ns": hist.buckets,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "pass", "probe"), required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--t0-ns", type=int, required=True,
                        help="time.monotonic_ns() when the parent started this process")
    parser.add_argument("--trace-out", help="file for the spans of a traced pass")
    args = parser.parse_args()

    _import_hooklab()
    if args.mode == "probe":
        import probes

        print(json.dumps({"metrics": probes.run(args.size)}))
        return

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.size, args.seed, args.corrupt)
    setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = _run_pass(wl, tracer)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["metrics"] = tracer.metrics(wl.output_bytes)
        if args.trace_out:
            Path(args.trace_out).write_text(json.dumps(tracer.dump()))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
