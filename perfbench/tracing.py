"""Spans around the benchmark's own calls into fcblab's modules.

Nothing inside fcblab is patched: a span covers one call (or one short
sequence of calls) that the benchmark makes into a module's public
functions.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from statistics import fmean

# Per-layer metrics: name -> (unit, span layer, solve degree d or None for all, reduction).
PER_LAYER = {
    "sdp.solve_ms": ("ms", "sdp.solve", None, "mean_ms"),
    "sdp.iterations": ("count", "sdp.solve", None, "mean_iterations"),
    "sdp.ms_per_iteration": ("ms", "sdp.solve", None, "ms_per_iteration"),
    "sdp.d2.ms_per_iteration": ("ms", "sdp.solve", 2, "ms_per_iteration"),
    "sdp.d3.ms_per_iteration": ("ms", "sdp.solve", 3, "ms_per_iteration"),
    "sdp.d3.iterations": ("count", "sdp.solve", 3, "mean_iterations"),
    "sdp.build_ms": ("ms", "sdp.build", None, "mean_ms"),
    "sdp.extract_ms": ("ms", "sdp.extract", None, "mean_ms"),
    "sdp.extract_refused": ("count", "sdp.extract", None, "refused_per_round"),
    "behavior.verify_ms": ("ms", "behavior.verify", None, "mean_ms"),
    "witnesses.build_ms": ("ms", "witnesses.build", None, "mean_ms"),
    "witnesses.matrix_mb": ("MB", "witnesses.build", None, "max_matrix_mb"),
    "linalg.contraction_ms": ("ms", "linalg.contraction", None, "mean_ms"),
    "poly.ms": ("ms", "poly", None, "mean_ms"),
    "qsim.extract_ms": ("ms", "qsim.extract", None, "mean_ms"),
}


class Tracer:
    """Collects (layer, round, operation, start, end, counts) spans when enabled."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple[str, int, int, float, float, dict]] = []
        self.round = -1
        self.op = -1

    @contextmanager
    def span(self, layer: str):
        info: dict = {}
        if not self.enabled:
            yield info
            return
        start = time.perf_counter()
        try:
            yield info
        finally:
            self.spans.append((layer, self.round, self.op, start, time.perf_counter(), info))


def _reduce(spans: list, how: str, rounds: int) -> float:
    ms = [(end - start) * 1e3 for _, _, _, start, end, _ in spans]
    if how == "mean_ms":
        return fmean(ms)
    if how == "mean_iterations":
        return fmean(info["iterations"] for *_, info in spans)
    if how == "ms_per_iteration":
        return sum(ms) / sum(info["iterations"] for *_, info in spans)
    if how == "refused_per_round":
        return sum(info["refused"] for *_, info in spans) / rounds
    if how == "max_matrix_mb":
        return max(info["matrix_bytes"] for *_, info in spans) / 1e6
    raise ValueError(how)


def per_layer_metrics(batch: Tracer, warm_up: Tracer, rounds: int) -> dict:
    """Every per-layer metric over the timed batch.

    A layer that the workload's rounds never call is reported from its one
    call during the warm-up, so no figure is a constant zero; README.md
    names the workloads on which each figure is meant to be read.
    """
    out = {}
    for name, (unit, layer, d, how) in PER_LAYER.items():

        def matching(tracer: Tracer) -> list:
            return [s for s in tracer.spans if s[0] == layer and (d is None or s[5]["d"] == d)]

        spans, count = matching(batch), rounds
        if not spans:
            spans, count = matching(warm_up), 1
        out[name] = {"value": _reduce(spans, how, count), "unit": unit}
    return out
