"""Outside-in per-stage trace of ``run_tdmatch``.

The program is not edited. The stage functions are wrapped under the names
``repro.core.pipeline`` imported them by, so a span opens for whatever
``run_tdmatch`` calls. Each span instance runs under its own Spark job group,
so its jobs, stages and tasks are read from ``sc.statusTracker()``.

Stages that return a lazy DataFrame (walks, embeddings, matches) are forced
with ``cache()`` + ``count()`` inside their span, so each layer's work lands
on that layer instead of on the next consumer. Counters are computed after a
span closes; the time they take is kept apart and left out of the traced
wall time, so they add nothing to any span or to the coverage base.
"""
from __future__ import annotations

import contextlib
import itertools
import pickle
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .sparkenv import job_counts

# function name as repro.core.pipeline imports it -> span name
SPAN_OF: Dict[str, str] = {
    "build_graph": "graph.build",
    "merge_synonyms": "merge.synonyms",
    "merge_numeric_buckets": "merge.numeric",
    "filter_to_term_corpus": "graph.filter",
    "expand_graph": "expand",
    "msp_compress": "compress.msp",
    "generate_walks": "walks",
    "train_embeddings": "embed",
    "top_k_matches": "match",
}
SPANS: List[str] = list(SPAN_OF.values())
LAZY = {"walks", "embed", "match"}

# counters each span reports; keep in step with Tracer._counters
COUNTERS: Dict[str, List[str]] = {
    "graph.build": ["nodes", "edges"],
    "merge.synonyms": ["removed"],
    "merge.numeric": ["removed"],
    "graph.filter": ["data_kept_ratio"],
    "expand": ["nodes_added", "edges_added"],
    "compress.msp": ["node_keep_ratio", "edge_keep_ratio"],
    "walks": ["tokens", "tokens_per_s", "short_ratio", "adjacency_bytes"],
    "embed": ["vocab", "tokens_per_s"],
    "match": ["query_miss_ratio", "target_bytes"],
}
# what a span that the workload does not run would have reported: no time,
# no work, nothing removed or added, everything kept
IDLE_COUNTER = {"data_kept_ratio": 1.0, "node_keep_ratio": 1.0, "edge_keep_ratio": 1.0}


@dataclass
class Span:
    name: str
    group: str
    start: float
    end: float
    child_s: float = 0.0
    jobs: int = 0
    stages: int = 0
    tasks: int = 0
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Installs span wrappers into a module namespace for the life of a run."""

    def __init__(self, sc, module, run_id: str):
        self.sc = sc
        self.module = module
        self.run_id = run_id
        self._ids = itertools.count()
        self._saved: Dict[str, Callable] = {}
        self._stack: List[Span] = []
        self._graph_sizes: Dict[int, tuple] = {}
        self.call_group: Optional[str] = None
        self.spans: List[Span] = []
        self.counter_s = 0.0
        self._forced: List[DataFrame] = []

    @contextlib.contextmanager
    def traced_call(self, call_group: str):
        """Wrap the module's stage functions for one call, then restore them.

        A name the module no longer imports is skipped; its span never opens.
        """
        self.call_group = call_group
        self.spans = []
        self.counter_s = 0.0
        for fname, span in SPAN_OF.items():
            fn = getattr(self.module, fname, None)
            if fn is not None:
                self._saved[fname] = fn
                setattr(self.module, fname, self._wrap(span, fn))
        try:
            yield
        finally:
            for fname, fn in self._saved.items():
                setattr(self.module, fname, fn)
            self._saved.clear()
            for df in self._forced:
                df.unpersist()
            self._forced.clear()
            self._graph_sizes.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            group = f"{self.run_id}-span{next(self._ids)}-{name}"
            span = Span(name, group, time.perf_counter(), 0.0)
            self._stack.append(span)
            self.sc.setJobGroup(group, group)
            try:
                out = fn(*args, **kwargs)
                if name in LAZY:
                    out = out.cache()
                    out.count()
                    self._forced.append(out)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1].child_s += span.end - span.start
                parent = self._stack[-1].group if self._stack else self.call_group
                self.sc.setJobGroup(parent, parent)
            c0 = time.perf_counter()
            counts = job_counts(self.sc, group)
            span.jobs, span.stages, span.tasks = counts.jobs, counts.stages, counts.tasks
            span.counters = self._counters(name, args, kwargs, out)
            self.spans.append(span)
            spent = time.perf_counter() - c0
            self.counter_s += spent
            if self._stack:  # keep counter time out of an enclosing span too
                self._stack[-1].child_s += spent
            return out

        traced.__wrapped__ = fn
        return traced

    def _sizes(self, graph) -> tuple:
        """(#nodes, #data nodes, #edges) of a graph, memoised per call.

        The memo holds the graph itself so its id is not reused in the call.
        """
        key = id(graph)
        if key not in self._graph_sizes:
            row = graph.nodes.agg(
                F.count(F.lit(1)), F.sum((F.col("type") == "data").cast("long"))
            ).first()
            sizes = (int(row[0]), int(row[1] or 0), graph.num_edges())
            self._graph_sizes[key] = (graph, sizes)
        return self._graph_sizes[key][1]

    def _counters(self, name: str, args, kwargs, out) -> Dict[str, float]:
        if name == "graph.build":
            n, _, e = self._sizes(out)
            return {"nodes": n, "edges": e}
        if name in ("merge.synonyms", "merge.numeric"):
            graph, removed = out
            self._sizes(graph)
            return {"removed": removed}
        graph_in = args[0] if args else kwargs.get("graph")
        if name == "graph.filter":
            return {"data_kept_ratio": self._sizes(out)[1] / self._sizes(graph_in)[1]}
        if name == "expand":
            (n0, _, e0), (n1, _, e1) = self._sizes(graph_in), self._sizes(out)
            return {"nodes_added": n1 - n0, "edges_added": e1 - e0}
        if name == "compress.msp":
            (n0, _, e0), (n1, _, e1) = self._sizes(graph_in), self._sizes(out)
            return {"node_keep_ratio": n1 / n0, "edge_keep_ratio": e1 / e0}
        if name == "walks":
            walk_length = kwargs["walk_length"]
            row = out.agg(
                F.count(F.lit(1)),
                F.sum(F.size("walk")),
                F.sum((F.size("walk") < walk_length).cast("long")),
            ).first()
            n_walks, tokens, short = int(row[0]), int(row[1]), int(row[2] or 0)
            return {
                "tokens": tokens,
                "short_ratio": short / n_walks,
                "adjacency_bytes": len(pickle.dumps(graph_in.adjacency())),
            }
        if name == "embed":
            return {"vocab": out.count()}
        if name == "match":
            target_emb = args[1]
            n_targets = target_emb.count()
            dim = len(target_emb.select("vector").first()[0]) if n_targets else 0
            # top_k_matches holds the normalised target matrix as float64
            return {"target_bytes": n_targets * dim * 8}
        return {}

    def call_metrics(self) -> Dict[str, float]:
        """This call's spans as flat metrics; repeated spans are summed."""
        out: Dict[str, float] = {}
        for s in self.spans:
            for key, val in (
                ("s", s.self_s), ("jobs", s.jobs), ("stages", s.stages), ("tasks", s.tasks)
            ):
                out[f"{s.name}.{key}"] = out.get(f"{s.name}.{key}", 0) + val
            for key, val in s.counters.items():
                out[f"{s.name}.{key}"] = val
        if "walks.tokens" in out:
            out["walks.tokens_per_s"] = out["walks.tokens"] / out["walks.s"]
            if "embed.s" in out:
                out["embed.tokens_per_s"] = out["walks.tokens"] / out["embed.s"]
        return out
