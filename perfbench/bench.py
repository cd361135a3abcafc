"""One benchmark run: closed-loop ``run_tdmatch`` calls on one workload.

One caller issues the calls; the next starts only after the previous call's
ranked matches have reached the driver. Every call's output is checked
(``checks.check_ranking``, quality recomputed in DuckDB, digest equal to the
first call's); a call that raises or fails a check counts as failed.
"""
from __future__ import annotations

import contextlib
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core import pipeline

from . import checks
from .sparkenv import clear_job_group, job_counts
from .tracer import COUNTERS, IDLE_COUNTER, SPANS, Tracer
from .workloads import K, Inputs, Workload

SPAN_FIELDS = ("s", "jobs", "stages", "tasks")

# end-to-end metrics, in report order: name -> unit
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "queries_per_s": "1/s",
    "spark_jobs": "count",
    "spark_stages": "count",
}
# Run-level figures printed with the end-to-end ones but too unsteady for a
# bound: match quality moves by up to 30% between seeds on corona-ex-msp, and
# the JVM's peak RSS by up to 50% between runs. The traced run reports them.
UNBOUNDED = {"mrr": "ratio", "has_positive_at_20": "ratio", "peak_rss_mb": "MiB"}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name -> unit."""
    units: Dict[str, str] = {}
    for span in SPANS:
        units.update({f"{span}.{f}": ("s" if f == "s" else "count") for f in SPAN_FIELDS})
        for c in COUNTERS[span]:
            units[f"{span}.{c}"] = (
                "1/s" if c.endswith("per_s")
                else "ratio" if c.endswith("ratio")
                else "bytes" if c.endswith("bytes")
                else "count"
            )
    units["trace.coverage"] = "ratio"
    units["trace.overhead_s"] = "s"
    units.update(UNBOUNDED)
    return units


@dataclass
class Call:
    seconds: float
    ok: bool
    jobs: int = 0
    stages: int = 0
    quality: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)  # traced calls only
    traced_wall_s: float = 0.0


class Runner:
    """Issues checked ``run_tdmatch`` calls for one workload and its inputs."""

    def __init__(self, spark, workload: Workload, inputs: Inputs, run_id: str):
        self.spark = spark
        self.sc = spark.sparkContext
        self.workload = workload
        self.inputs = inputs
        self.run_id = run_id
        self.calls: List[Call] = []
        self.digest: Optional[str] = None
        self._n = 0

    def call(self, tracer: Optional[Tracer] = None) -> Call:
        group = f"{self.run_id}-call{self._n}"
        self._n += 1
        inp = self.inputs
        t0 = time.perf_counter()
        res = None
        try:
            with tracer.traced_call(group) if tracer else contextlib.nullcontext():
                self.sc.setJobGroup(group, group)
                res = pipeline.run_tdmatch(
                    self.spark,
                    inp.query,
                    inp.target,
                    config=self.workload.config,
                    kb=inp.kb,
                    synonyms=inp.synonyms,
                )
                ranked = res.matches.toPandas()
                seconds = time.perf_counter() - t0
        except Exception:  # a failed call is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            call = Call(time.perf_counter() - t0, ok=False)
            self.calls.append(call)
            return call
        finally:
            clear_job_group(self.sc)
            if res is not None:
                res.matches.unpersist()
        call = Call(seconds, ok=True)
        counts = job_counts(self.sc, group)
        call.jobs, call.stages = counts.jobs, counts.stages
        try:
            checks.check_ranking(
                ranked, k=K, query_ids=inp.query_ids, target_ids=inp.target_ids
            )
            call.quality = checks.quality(ranked, inp.truth, k=K)
            digest = checks.ranking_digest(ranked)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                raise checks.OutputError(f"ranked list digest {digest} differs from {self.digest}")
        except AssertionError as exc:  # OutputError or an oracle mismatch
            print(f"[perfbench] call {group} failed its output check: {exc}", file=sys.stderr)
            call.ok = False
        if tracer is not None:
            call.traced_wall_s = seconds - tracer.counter_s
            call.layers = tracer.call_metrics()
            n_ranked = ranked["query"].astype(str).nunique()
            call.layers["match.query_miss_ratio"] = 1.0 - n_ranked / len(inp.query_ids)
        self.calls.append(call)
        return call

    @property
    def attempted(self) -> int:
        return len(self.calls)

    @property
    def failed(self) -> int:
        return sum(not c.ok for c in self.calls)


def timed_loop(runner: Runner, seconds: float, tracer: Optional[Tracer] = None):
    """Closed loop for ``seconds``: (untraced calls, traced calls).

    The session's first call is measured on its own; every run has it, and
    with a tracer it is traced. Further calls follow while time is left. With
    a tracer, a traced and an untraced call alternate after the first, at
    least one each, so ``trace.overhead_s`` compares calls made in the same
    state; the untraced one goes second and is, if anything, a little warmer.
    """
    plain: List[Call] = []
    traced: List[Call] = []
    deadline = time.perf_counter() + seconds
    first = runner.call(tracer)
    (traced if tracer else plain).append(first)
    while time.perf_counter() < deadline or (tracer is not None and not plain):
        if tracer is not None:
            traced.append(runner.call(tracer))
        plain.append(runner.call())
    return plain, traced


def end_to_end(first: Call, *, n_queries: int, setup_s: float, peak_rss_mb: float):
    """Run-level figures; the timing ones come from the session's first call."""
    if not first.ok:
        return {}
    return {
        "setup_s": setup_s,
        "pipeline_s": first.seconds,
        "queries_per_s": n_queries / first.seconds,
        "spark_jobs": first.jobs,
        "spark_stages": first.stages,
        "mrr": first.quality["mrr"],
        "has_positive_at_20": first.quality["has_positive_at_20"],
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(workload: Workload, plain: List[Call], traced: List[Call]):
    """(metrics, absent spans) of a traced run.

    Spans and counters come from the first traced call, the session's first
    call, so they split the same kind of call ``pipeline_s`` measures. A span
    the workload does not run reports what an idle stage would; a span it
    should run but that never opened (say, a renamed function) is absent and
    left out, not reported as zero.
    """
    ok_plain = [c for c in plain if c.ok]
    later = [c for c in traced[1:] if c.ok]
    if not traced or not traced[0].ok or not ok_plain or not later:
        return {}, []
    layers = traced[0].layers
    out: Dict[str, float] = {}
    absent: List[str] = []
    for span in SPANS:
        seen = f"{span}.s" in layers
        if span in workload.spans and not seen:
            absent.append(span)
            continue
        for name in [f"{span}.{f}" for f in SPAN_FIELDS] + [f"{span}.{c}" for c in COUNTERS[span]]:
            if not seen:
                out[name] = IDLE_COUNTER.get(name.rsplit(".", 1)[1], 0)
            elif name in layers:
                out[name] = layers[name]
    span_sum = sum(layers.get(f"{s}.s", 0.0) for s in SPANS)
    out["trace.coverage"] = span_sum / traced[0].traced_wall_s
    traced_wall = statistics.median(c.traced_wall_s for c in later)
    out["trace.overhead_s"] = traced_wall - statistics.median(c.seconds for c in ok_plain)
    return out, absent
