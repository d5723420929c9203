"""hooklab benchmark: three workloads through the public API, checked exactly.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``verify-grid``: ``hooklab verify <id> --json`` for the 11 theorem ids;
* ``series-export``: ``hooklab seq ... --format bfile`` for 83 grid points;
* ``bijection-roundtrip``: about 290k F, B and mex roundtrips.

Every pass runs in a fresh interpreter (``worker.py``) with
``HOOKLAB_THREADS`` removed from its environment, one request at a time:
a closed loop with one client.  With ``--trace 0`` passes repeat while
the next one should end within ``--seconds``, at least three of them.
``run_s`` and ``peak_rss_mb`` are medians over passes, ``setup_s`` the
median of at least nine set-ups spread between the passes, and the
latency quantiles are read from the requests of all passes pooled.  With
``--trace 1`` the run makes an untraced pass, a traced pass, another
untraced pass and one probe process, and reports the per-layer metrics;
``trace_overhead_s`` is the traced pass's ``run_s`` minus the mean of the
untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it records the machine and the size of ``src/hooklab``.  Spans of a traced
pass, and every result, are also written under ``.bench_out/``.

``--smoke`` runs each workload once at tiny sizes and checks that the
printed metric names and units match ``BENCHMARK.json`` and that every
correctness gate fires on a deliberately wrong expectation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from latency import LogHistogram

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("verify-grid", "series-export", "bijection-roundtrip")
SETUP_SAMPLES = 9
MIN_PASSES = 3  # so that every median has a middle value to take
DEADLINE_S = 170  # every run, set-up included, ends well within 180 s


class Run:
    """Children of one benchmark run, all bounded by one deadline."""

    def __init__(self, workload: str, seed: int, size: str, corrupt: bool) -> None:
        self.workload, self.seed, self.size, self.corrupt = workload, seed, size, corrupt
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k != "HOOKLAB_THREADS"}
        self.errors: list[str] = []
        self.lost = 0  # children that crashed or timed out

    def child(self, mode: str, seed: int | None = None, trace: int = 0,
              trace_out: Path | None = None) -> dict | None:
        """Run one worker process; None (with the reason kept) if it did not succeed."""
        result = self._child(mode, self.seed if seed is None else seed, trace, trace_out)
        if result is None:
            self.lost += 1
        return result

    def _child(self, mode: str, seed: int, trace: int, trace_out: Path | None) -> dict | None:
        cmd = [sys.executable, "-I", str(HERE / "worker.py"), "--mode", mode,
               "--workload", self.workload, "--seed", str(seed), "--size", self.size,
               "--trace", str(trace)]
        if self.corrupt:
            cmd.append("--corrupt")
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += ["--t0-ns", str(time.monotonic_ns())]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            self.errors.append(f"{mode}: no time left before the run's deadline")
            return None
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
            self.errors.append(f"{mode}: killed after {timeout:.0f} s")
            return None
        if proc.returncode != 0 or not proc.stdout.strip():
            tail = proc.stderr.strip().splitlines()[-3:]
            self.errors.append(f"{mode}: exit code {proc.returncode}: {' | '.join(tail)}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _tally(run: Run, passes: list[dict]) -> tuple[int, int]:
    """(attempted, failed) requests; a child that crashed counts as one failed request."""
    for p in passes:
        run.errors += p["errors"]
    attempted = sum(p["attempted"] for p in passes) + run.lost
    return attempted, sum(p["failed"] for p in passes) + run.lost


def measure(workload: str, seed: int, seconds: float, size: str = "full",
            corrupt: bool = False) -> tuple[dict, Run]:
    """Untraced run: end-to-end metrics as medians over passes and set-ups."""
    run = Run(workload, seed, size, corrupt)
    setups: list[float] = []
    passes: list[dict] = []
    start = time.monotonic()
    longest = 0.0
    # Start a pass only if it should end within --seconds; each pass shuffles
    # its requests with its own seed, so the medians span several orders.
    while len(passes) < MIN_PASSES or time.monotonic() - start + longest <= seconds:
        t0 = time.monotonic()
        result = run.child("pass", seed=seed * 1000 + len(passes))
        if result is None:
            break
        longest = max(longest, time.monotonic() - t0)
        passes.append(result)
        setups.append(result["setup_s"])
        # set-ups between passes sample the machine at different moments
        extra = run.child("setup")
        if extra is None:
            break
        setups.append(extra["setup_s"])
    while passes and len(setups) < SETUP_SAMPLES:
        result = run.child("setup")
        if result is None:
            break
        setups.append(result["setup_s"])
    attempted, failed = _tally(run, passes)
    metrics = {}
    if passes:
        latency = LogHistogram()
        for p in passes:
            latency.merge(p["latency_ns"])
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (statistics.median(p["run_s"] for p in passes), "s"),
            "req_p50_ms": (latency.quantile(0.5) / 1e6, "ms"),
            "req_p90_ms": (latency.quantile(0.9) / 1e6, "ms"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        }
    return _result(attempted, failed, metrics), run


def traced(workload: str, seed: int, size: str = "full",
           corrupt: bool = False) -> tuple[dict, Run]:
    """Traced run: per-layer metrics from one traced pass plus the probes."""
    run = Run(workload, seed, size, corrupt)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    # untraced passes on both sides of the traced one, so that a drift in
    # machine speed cancels out of the overhead
    before = run.child("pass")
    traced_pass = run.child("pass", trace=1, trace_out=spans)
    after = run.child("pass")
    probe = run.child("probe")
    passes = [p for p in (before, traced_pass, after) if p is not None]
    attempted, failed = _tally(run, passes)
    metrics = {}
    if len(passes) == 3 and probe is not None:
        metrics = {name: tuple(v) for name, v in traced_pass["metrics"].items()}
        metrics.update((name, tuple(v)) for name, v in probe["metrics"].items())
        plain_s = (before["run_s"] + after["run_s"]) / 2
        metrics["trace_overhead_s"] = (traced_pass["run_s"] - plain_s, "s")
        metrics["failed_frac"] = (failed / attempted, "ratio")
    return _result(attempted, failed, metrics), run


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def machine_record() -> dict:
    lines = {path.name: len(path.read_text().splitlines())
             for path in sorted((ROOT / "src" / "hooklab").glob("*.py"))}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def smoke() -> int:
    """Each workload once at tiny sizes, clean and with one wrong expectation."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems: list[str] = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads are not {WORKLOADS}")
    for workload in WORKLOADS:
        for label, (result, run), names in (
            ("trace 0", measure(workload, 1, 0, size="smoke"), e2e),
            ("trace 1", traced(workload, 1, size="smoke"), layer),
        ):
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != names:
                diff = sorted(set(got.items()) ^ set(names.items()))
                problems.append(f"{workload} {label}: printed metrics and BENCHMARK.json "
                                f"differ in {diff}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} {label}: failures on correct outputs: "
                                f"{run.errors}")
        result, run = traced(workload, 1, size="smoke", corrupt=True)
        frac = result["metrics"].get("failed_frac", {}).get("value", 0)
        if run.lost or result["correct"] or not result["failed"] or not frac > 0:
            problems.append(f"{workload}: a wrong expectation was not counted in failed_frac")
        print(f"smoke {workload}: checked", flush=True)
    for problem in problems:
        print(f"smoke FAILED: {problem}", file=sys.stderr)
    if not problems:
        print("smoke: ok")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "hooklab" / "__init__.py").is_file():
        print(f"error: no hooklab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.trace:
        result, run = traced(args.workload, args.seed)
    else:
        result, run = measure(args.workload, args.seed, args.seconds)
    for error in run.errors:
        print(f"failure: {error}", file=sys.stderr)
    record = machine_record()
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
