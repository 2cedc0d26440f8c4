"""In-memory spans for the traced run, and the per-layer numbers derived from them.

A span is opened by the benchmark around one of its own calls into a triplex
module (``with tracer.span("quantize.fp_search", K=32): ...``).  Each span
keeps its name, start, end, parent span, job id and attributes, plus the
``numpy.linalg.eigvalsh`` calls made while it was the innermost open span.
Nothing inside the triplex package is patched except ``eigvalsh``, and only
while a traced run is active.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time

import numpy as np


class NullTracer:
    """Tracer used by the untraced runs: every span is a no-op."""

    @contextlib.contextmanager
    def span(self, name, **attrs):
        yield

    @contextlib.contextmanager
    def job(self, job_id, kind, phase):
        yield


class Tracer:
    """Records spans in memory; counts eigvalsh calls against the innermost span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._job = None
        self.unattributed_eigsolves = 0

    @contextlib.contextmanager
    def span(self, name, **attrs):
        rec = {"name": name, "start": self.clock(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "job": self._job, "attrs": attrs, "eig": {}}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = self.clock()

    @contextlib.contextmanager
    def job(self, job_id, kind, phase):
        self._job = job_id
        try:
            with self.span("bench.job", kind=kind, phase=phase):
                yield
        finally:
            self._job = None

    def record_eigsolve(self, order, batch, seconds):
        if not self._stack:
            self.unattributed_eigsolves += 1
            return
        eig = self.spans[self._stack[-1]]["eig"]
        calls, solves, secs = eig.get(order, (0, 0, 0.0))
        eig[order] = (calls + 1, solves + batch, secs + seconds)

    @contextlib.contextmanager
    def counting_eigsolves(self):
        """Route numpy.linalg.eigvalsh through a counter for the duration."""
        original = np.linalg.eigvalsh

        def eigvalsh(a, *args, **kwargs):
            shape = np.shape(a)
            t0 = time.perf_counter()
            out = original(a, *args, **kwargs)
            self.record_eigsolve(int(shape[-1]), math.prod(shape[:-2]),
                                 time.perf_counter() - t0)
            return out

        np.linalg.eigvalsh = eigvalsh
        try:
            yield
        finally:
            np.linalg.eigvalsh = original


def self_times(spans):
    """Per span: duration minus the durations of its direct children.

    Spans nest in one thread, so the children of a span never overlap.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _order_3n(span):
    K = span["attrs"].get("K")
    return None if K is None else 3 * (2 * K + 1)


def _eig_calls(span, order=None, exclude=None):
    return sum(c for o, (c, _, _) in span["eig"].items()
               if (order is None or o == order) and (exclude is None or o != exclude))


def layer_metrics(spans, wall_s, span_names, size_metrics):
    """Per-layer metrics of one traced run.

    span_names: every ``<module>.<function>`` span the benchmark opens.
    size_metrics: the sizes that get a median call time, as
    ``{span name: (K, ...)}``.  Counts come from the probe phase only, whose
    inputs do not depend on the seed or the run length, so they repeat
    exactly between traced runs.
    """
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    selft = self_times(spans)
    layer = [s for s in spans if s["name"] != "bench.job"]
    for name in span_names:
        mine = [s for s in layer if s["name"] == name]
        put(f"{name}.calls", len(mine), "count")
        put(f"{name}.busy_s", sum(s["end"] - s["start"] for s in mine), "s")
    modules = sorted({n.split(".", 1)[0] for n in span_names})
    for mod in modules:
        busy = sum(s["end"] - s["start"] for s in layer if s["name"].startswith(mod + "."))
        put(f"{mod}.busy_s", busy, "s")
        put(f"{mod}.share", busy / wall_s, "fraction")
    put("bench.glue_s", sum(t for s, t in zip(spans, selft) if s["name"] == "bench.job"), "s")

    for name, Ks in size_metrics.items():
        for K in Ks:
            durs = [s["end"] - s["start"] for s in layer
                    if s["name"] == name and s["attrs"].get("K") == K]
            if name == "evolution.loss_probe":
                steps = [s["attrs"]["steps"] for s in layer
                         if s["name"] == name and s["attrs"].get("K") == K]
                put(f"{name}.K{K}.step_s",
                    statistics.median(d / n for d, n in zip(durs, steps)), "s")
            else:
                put(f"{name}.K{K}.call_s", statistics.median(durs), "s")

    job_phase = {s["job"]: s["attrs"]["phase"] for s in spans if s["name"] == "bench.job"}
    probe = [s for s in layer if job_phase.get(s["job"]) == "probe"]

    def probe_spans(name):
        return [s for s in probe if s["name"] == name]

    fr = probe_spans("quantize.friedrichs_part")
    put("quantize.friedrichs_part.builds_per_call",
        sum(_eig_calls(s, _order_3n(s)) for s in fr) / len(fr), "count")
    fp32 = [s for s in probe_spans("quantize.fp_search") if s["attrs"]["K"] == 32]
    put("quantize.fp_search.eigsolves_per_call",
        sum(_eig_calls(s, _order_3n(s)) for s in fp32) / len(fp32), "count")
    eig_s = sum(v[2] for s in fp32 for v in s["eig"].values())
    put("quantize.fp_search.eig_share",
        eig_s / sum(s["end"] - s["start"] for s in fp32), "fraction")
    lbd = probe_spans("symmetrizer.lower_bound_delta")
    put("symmetrizer.lower_bound_delta.eigsolves_per_call",
        sum(_eig_calls(s) for s in lbd) / len(lbd), "count")
    put("quantize.aux_eigsolves",
        sum(_eig_calls(s, exclude=_order_3n(s)) for s in probe
            if s["name"].startswith("quantize.")), "count")
    ev = [s for s in layer if s["name"] == "evolution.evolve"]
    put("evolution.evolve.step_s",
        statistics.median((s["end"] - s["start"]) / s["attrs"]["steps"] for s in ev), "s")
    return out
