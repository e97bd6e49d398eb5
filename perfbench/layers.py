"""Per-layer metrics of a traced run, from the spans ``tracer.py`` writes.

A span's self time is its duration minus its children's (children run on
the span's own thread, nested and one after another).  A layer is the
first component of a span name (``sim.backend_run`` is in ``sim``), and a
layer's share is its self time on the blocking path over the client-seen
latency of the jobs; ``share.uncovered`` is the latency no span covers:
interpreter start-up and exit for batch jobs, HTTP, polling and queueing
for served ones.  Work on helper threads (the chunked prewarm) is off the
blocking path and reported only as ``sim.prewarm_s``.

Every metric is computed on every workload; a layer that does no work on
a workload reads 0 there (``sweeps.*`` outside ``sweep-llc``, ``serve.*``
outside ``serve-mixed``, checkpoints outside ``stream-chunked``).  Times
named ``*_s`` are summed over the traced pass unless said otherwise.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence

import plans

LAYERS = ("cli", "workloads", "sim", "sweeps", "experiments", "results", "serve")
ENGINE_NAMES = ("none", "next_line", "pif", "shift")

class Span(NamedTuple):
    id: int
    name: str
    start: int
    end: int
    parent: int
    job: Optional[str]
    thread: str
    attrs: Optional[dict]

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def load(path: Optional[Path]) -> List[Span]:
    """One process's spans; none when the file is missing (the job failed)."""
    if path is None or not path.is_file():
        return []
    return [Span(*row) for row in json.loads(path.read_text())["spans"]]


def self_ns(spans: Sequence[Span]) -> Dict[int, int]:
    """Span id -> duration minus its children's, for one process's spans."""
    children: Dict[int, int] = defaultdict(int)
    for span in spans:
        if span.parent:
            children[span.parent] += span.ns
    return {span.id: span.ns - children[span.id] for span in spans}


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Totals:
    """Counts and times summed over the spans of every traced process."""

    def __init__(self) -> None:
        self.count: Dict[str, int] = defaultdict(int)
        self.ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.layer_ns: Dict[str, int] = defaultdict(int)
        self.covered_ns = 0
        self.hits: Dict[str, int] = defaultdict(int)
        self.fetches: Dict[str, int] = defaultdict(int)
        self.windows = 0
        self.window_ns = 0
        self.imports: List[float] = []
        self.first_points: List[float] = []
        self.warm_points: List[float] = []

    def add(self, spans: Sequence[Span], on_path) -> None:
        """Add one process's spans; ``on_path(span)`` says if it blocks a job."""
        own = self_ns(spans)
        by_id = {span.id: span for span in spans}
        for span in spans:
            self.count[span.name] += 1
            self.ns[span.name] += span.ns
            self.self_ns[span.name] += own[span.id]
            if span.attrs and span.attrs.get("hit"):
                self.hits[span.name] += 1
            if span.name == "workloads.generate":
                self.fetches["generate"] += span.attrs["fetches"]
            elif span.name == "sim.simulate":
                engine = span.attrs["engine"]
                self.fetches[engine] += span.attrs["fetches"]
                self.ns[f"simulate.{engine}"] += span.ns
            elif span.name == "sim.backend_run":
                parent = by_id.get(span.parent)
                if parent is None or parent.name != "sim.backend_run":
                    self.windows += 1
                    self.window_ns += span.ns
            elif span.name == "cli.import":
                self.imports.append(span.ns / 1e9)
            if on_path(span):
                self.layer_ns[span.layer] += own[span.id]
                if not span.parent:
                    self.covered_ns += span.ns
        runs = sorted((span for span in spans if span.name == "sweeps.run_sweep"),
                      key=lambda span: span.start)
        for run in runs:
            points = sorted((span for span in spans if span.parent == run.id
                             and span.name == "experiments.run_experiment"),
                            key=lambda span: span.start)
            if points:
                self.first_points.append(points[0].ns / 1e9)
                self.warm_points += [point.ns / 1e9 for point in points[1:]]

    def metrics(self, latency_s: float) -> Dict[str, float]:
        seconds = {name: ns / 1e9 for name, ns in self.ns.items()}
        first = median(self.first_points)
        warm = statistics.fmean(self.warm_points) if self.warm_points else 0.0
        simulate_ns = sum(self.ns[f"simulate.{engine}"] for engine in ENGINE_NAMES)
        values = {
            "cli.import_s": median(self.imports),
            "workloads.generate_s": seconds.get("workloads.generate", 0.0),
            "workloads.generate_ns_per_fetch": ratio(self.ns["workloads.generate"],
                                                     self.fetches["generate"]),
            "workloads.trace_cache_hit_ratio": ratio(self.hits["workloads.trace_cache_load"],
                                                     self.count["workloads.trace_cache_load"]),
            "workloads.trace_cache_load_s": seconds.get("workloads.trace_cache_load", 0.0),
            **{f"sim.{engine}.ns_per_fetch": ratio(self.ns[f"simulate.{engine}"],
                                                   self.fetches[engine])
               for engine in ENGINE_NAMES},
            "sim.backend_run_share": ratio(self.window_ns, simulate_ns),
            "sim.windows": float(self.windows),
            "sim.checkpoints": float(self.count["sim.checkpoint"]),
            "sim.checkpoint_s": seconds.get("sim.checkpoint", 0.0),
            "sim.prewarm_s": seconds.get("sim.prewarm", 0.0),
            "sweeps.first_point_s": first,
            "sweeps.warm_point_s": warm,
            "sweeps.warm_over_first": ratio(warm, first),
            "experiments.cells": float(self.count["experiments.run_cell"]),
            "experiments.run_cell_s": seconds.get("experiments.run_cell", 0.0),
            "experiments.dispatch_s": (self.self_ns["experiments.run_experiment"]
                                       + self.self_ns["experiments.execute_cells"]) / 1e9,
            "experiments.report_s": self.self_ns["experiments.report"] / 1e9,
            "results.lookups": float(self.count["results.load"]),
            "results.hit_ratio": ratio(self.hits["results.load"], self.count["results.load"]),
            "results.load_s": seconds.get("results.load", 0.0),
            "results.store_s": seconds.get("results.store", 0.0),
        }
        for layer in LAYERS:
            values[f"share.{layer}"] = ratio(self.layer_ns[layer] / 1e9, latency_s)
        values["share.uncovered"] = ratio(latency_s - self.covered_ns / 1e9, latency_s)
        return values


def _untraced(untraced, traced) -> Dict[str, float]:
    """Metrics taken from the plain pass: hit-job latency and tracing overhead."""
    plain = median(untraced.latencies("cold"))
    with_spans = median(traced.latencies("cold"))
    hits = untraced.latencies("hit")
    return {"results.hit_job_p50_s": median(hits),
            "results.hit_job_p90_s": (statistics.quantiles(hits, n=10, method="inclusive")[-1]
                                      if len(hits) > 1 else 0.0),
            "trace.overhead_s": with_spans - plain,
            "trace.overhead_share": ratio(with_spans - plain, plain)}


def _chunked_rss(untraced, short_rss: Optional[float]) -> Dict[str, float]:
    """Peak-RSS slope from the short chunked job to the long ones; 0 without one."""
    slope = 0.0
    if short_rss is not None:
        long_rss = median([job.maxrss_mb for job in untraced.of("cold") if not job.errors])
        tens = (plans.STREAM_BLOCKS - plans.STREAM_SHORT_BLOCKS) / 10_000
        slope = (long_rss - short_rss) / tens
    return {"sim.chunked_rss_mb_per_10k_blocks": slope}


def _slope(values: Sequence[float]) -> float:
    """Least-squares slope of ``values`` against their index."""
    if len(values) < 2:
        return 0.0
    mean_x = (len(values) - 1) / 2
    mean_y = statistics.fmean(values)
    num = sum((x - mean_x) * (y - mean_y) for x, y in enumerate(values))
    den = sum((x - mean_x) ** 2 for x in range(len(values)))
    return num / den


def _served(untraced, traced, spans: Sequence[Span]) -> Dict[str, float]:
    """The ``serve.*`` metrics: medians over served hit jobs; all 0 for batch passes."""
    submits = {span.attrs["serve_job"]: span for span in spans
               if span.name == "serve.submit" and span.attrs and not span.attrs["deduped"]}
    runs = {span.job: span for span in spans if span.name == "serve.job_run"}
    hits = [job for job in traced.of("hit") if not job.errors]
    return {
        "serve.submit_s": median([job.submit_s for job in hits]),
        "serve.queue_wait_s": median([(runs[job.serve_job].start - submits[job.serve_job].end) / 1e9
                                      for job in hits
                                      if job.serve_job in runs and job.serve_job in submits]),
        "serve.job_run_s": median([runs[job.serve_job].ns / 1e9 for job in hits
                                   if job.serve_job in runs]),
        "serve.result_fetch_s": median([job.result_fetch_s for job in hits]),
        "serve.polls_per_job": statistics.fmean([job.polls for job in hits]) if hits else 0.0,
        "serve.deduped": float(sum(1 for job in traced.of("dup") if not job.errors)),
        "serve.rss_mb_per_cold_job": _slope([job.rss_after_mb for job in untraced.of("cold")
                                             if not job.errors]),
    }


def batch_layers(untraced, traced, short_rss: Optional[float]) -> Dict[str, float]:
    """Per-layer metrics of a batch workload's traced pass."""
    totals = Totals()
    latency = 0.0
    for job in traced.jobs:
        spans = load(job.spans)
        if job.errors or not spans:
            continue
        totals.add(spans, lambda span: span.thread == "MainThread")
        latency += job.wall_s
    values = totals.metrics(latency)
    values.update(_untraced(untraced, traced))
    values.update(_chunked_rss(untraced, short_rss))
    values.update(_served(untraced, traced, []))
    return values


def serve_layers(untraced, traced) -> Dict[str, float]:
    """Per-layer metrics of ``serve-mixed``'s traced pass."""
    spans = load(traced.server_spans)
    measured = {job.serve_job: job for job in traced.jobs
                if job.kind in ("cold", "mixed", "hit") and not job.errors}

    def job_of(span: Span) -> Optional[str]:
        if span.name == "serve.submit" and span.attrs:
            return span.attrs["serve_job"]
        return span.job

    totals = Totals()
    totals.add(spans, lambda span: job_of(span) in measured)
    values = totals.metrics(sum(job.wall_s for job in measured.values()))
    values.update(_untraced(untraced, traced))
    values.update(_chunked_rss(untraced, None))
    values.update(_served(untraced, traced, spans))
    return values
