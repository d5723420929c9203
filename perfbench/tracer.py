"""Spans and counters at hooklab's module boundaries, installed from outside.

``Tracer.install()`` replaces public functions of the ``cli``, ``verify``,
``oracle``, ``series`` and ``bijections`` modules with wrappers.  Callers
inside hooklab look these names up on their module at call time, so the
wrappers see cli->verify, verify->oracle, verify->series and cli->series
calls without any change to the package.

A span is opened only where a call crosses into another layer; calls
inside a layer pass straight through.  Calls at the microsecond scale
(``Series.__mul__``, ``q_binomial``, ``oracle.partitions_of`` and the six
bijection maps) are aggregated per function instead of stored one by one.
Install a tracer only in a process of its own: the wrappers are never
removed.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

from latency import LogHistogram

from hooklab import bijections, cli, oracle, series, verify

BIJECTIONS = {
    "f": "f_bijection",
    "f_inverse": "f_inverse",
    "b": "b_bijection",
    "b_inverse": "b_inverse",
    "mex": "mex_map",
    "mex_inverse": "mex_map_inverse",
}

_NAME, _LAYER, _START, _END, _PARENT, _REQUEST = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, layer, start_ns, end_ns, parent, request]
        self.stack: list[int] = []
        self.request: int | None = None
        self.counts: Counter = Counter()
        self.hists = {short: LogHistogram() for short in BIJECTIONS}
        self._in_bijection = False
        self._q_binomial = series.q_binomial

    # -- spans -----------------------------------------------------------------

    def _layer(self) -> str | None:
        return self.spans[self.stack[-1]][_LAYER] if self.stack else None

    def _enter(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, layer, time.perf_counter_ns(), 0, parent, self.request])
        self.stack.append(idx)
        return idx

    def _leave(self, idx: int) -> None:
        self.spans[idx][_END] = time.perf_counter_ns()
        self.stack.pop()

    def _boundary(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._layer() == layer:
                return fn(*args, **kwargs)
            idx = self._enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(idx)

        return wrapper

    # -- aggregated wrappers ----------------------------------------------------

    def _wrap_mul(self, mul):
        boundary = self._boundary("series", mul)
        counts = self.counts

        def wrapper(a, b):
            if isinstance(b, series.Series):
                counts["series.mul_terms"] += len(a.coeffs) * len(b.coeffs)
            t0 = time.perf_counter_ns()
            try:
                return boundary(a, b)
            finally:
                counts["series.mul_ns"] += time.perf_counter_ns() - t0
                counts["series.mul_calls"] += 1

        return wrapper

    def _wrap_q_binomial(self, fn):
        wrapper = self._boundary("series", fn)
        wrapper.cache_info = fn.cache_info  # the hit ratio is read from the real cache
        wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _wrap_partitions_of(self, fn):
        boundary = self._boundary("oracle", fn)
        counts = self.counts

        def counted(parts_iter):
            k = 0
            try:
                for parts in parts_iter:
                    k += 1
                    yield parts
            finally:
                counts["oracle.partitions_visited"] += k

        def wrapper(n):
            counts["oracle.enum_calls"] += 1
            result = boundary(n)
            if isinstance(result, tuple):  # the memoized list; every caller reads it all
                counts["oracle.partitions_visited"] += len(result)
                return result
            return counted(result)

        return wrapper

    def _wrap_bijection(self, short: str, fn):
        hist = self.hists[short]

        @functools.wraps(fn)
        def wrapper(*args):
            if self._in_bijection:  # B calls F: time only the outermost map
                return fn(*args)
            self._in_bijection = True
            t0 = time.perf_counter_ns()
            try:
                return fn(*args)
            finally:
                hist.add(time.perf_counter_ns() - t0)
                self._in_bijection = False

        return wrapper

    def _wrap_verify(self, fn):
        boundary = self._boundary("verify", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            report = boundary(*args, **kwargs)
            self.counts["verify.cells"] += len(report.cells)
            return report

        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        cli.main = self._boundary("cli", cli.main)
        verify.verify_theorem = self._wrap_verify(verify.verify_theorem)
        partitions_of = oracle.partitions_of
        for module, layer in ((oracle, "oracle"), (series, "series")):
            for name, obj in vars(module).copy().items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    setattr(module, name, self._boundary(layer, obj))
        oracle.partitions_of = self._wrap_partitions_of(partitions_of)
        series.q_binomial = self._wrap_q_binomial(self._q_binomial)
        mul = self._wrap_mul(series.Series.__mul__)
        series.Series.__mul__ = mul
        series.Series.__rmul__ = mul
        for short, name in BIJECTIONS.items():
            setattr(bijections, name, self._wrap_bijection(short, getattr(bijections, name)))

    # -- results -------------------------------------------------------------------

    def metrics(self, output_bytes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything traced so far, as name -> (value, unit)."""
        n = len(self.spans)
        child_ns = [0] * n
        for span in self.spans:
            if span[_PARENT] is not None:
                child_ns[span[_PARENT]] += span[_END] - span[_START]
        busy: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        for idx, span in enumerate(self.spans):
            duration = span[_END] - span[_START]
            busy[span[_LAYER]] += duration
            own[span[_LAYER]] += duration - child_ns[idx]
            calls[span[_LAYER]] += 1
        c = self.counts
        info = self._q_binomial.cache_info()
        lookups = info.hits + info.misses
        oracle_busy = busy["oracle"] / 1e9
        out = {
            "oracle.calls": (calls["oracle"], "count"),
            "oracle.busy_s": (oracle_busy, "s"),
            "oracle.enum_calls": (c["oracle.enum_calls"], "count"),
            "oracle.partitions_visited": (c["oracle.partitions_visited"], "count"),
            "oracle.visit_rate": (c["oracle.partitions_visited"] / oracle_busy
                                  if oracle_busy else 0.0, "1/s"),
            "series.calls": (calls["series"], "count"),
            "series.busy_s": (busy["series"] / 1e9, "s"),
            "series.mul_calls": (c["series.mul_calls"], "count"),
            "series.mul_s": (c["series.mul_ns"] / 1e9, "s"),
            "series.mul_terms": (c["series.mul_terms"], "count"),
            "series.qbinom_hit_ratio": (info.hits / lookups if lookups else 0.0, "ratio"),
            "verify.self_s": (own["verify"] / 1e9, "s"),
            "verify.cells": (c["verify.cells"], "count"),
            "cli.self_s": (own["cli"] / 1e9, "s"),
            "cli.output_bytes": (output_bytes, "count"),
        }
        for short, hist in self.hists.items():
            out[f"bijections.{short}_us"] = (hist.quantile(0.5) / 1e3, "us")
            out[f"bijections.{short}_calls"] = (hist.total, "count")
        return out

    def dump(self) -> dict:
        """Spans and counters in a JSON-ready form, times relative to the first span."""
        base = self.spans[0][_START] if self.spans else 0
        return {
            "span_fields": ["name", "layer", "start_ns", "end_ns", "parent", "request"],
            "spans": [[s[_NAME], s[_LAYER], s[_START] - base, s[_END] - base,
                       s[_PARENT], s[_REQUEST]] for s in self.spans],
            "counts": dict(self.counts),
            "bijection_calls": {short: h.total for short, h in self.hists.items()},
        }
