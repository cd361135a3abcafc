"""Graph compression (paper §III-B).

* :func:`msp_compress` — the paper's contribution, Algorithm 3 (Metadata
  Shortest Path): sample ``L = β·|nodes|`` pairs of *document* metadata nodes
  taken from the two corpora, compute **all** shortest paths per pair, and
  keep exactly the nodes/edges on those paths. A final pass guarantees every
  metadata node is connected to the compressed graph by at least one
  shortest path (Alg. 3's post-condition).
* :func:`ssum_like_compress` — the SSuM baseline [41], substituted by a
  summarizer with the same two mechanisms (data-node merging by identical
  neighbourhood signature + random edge sparsification to the target ratio).
  The real SSuM minimizes a reconstruction error we do not need for a
  comparison baseline; DESIGN.md documents the substitution.

BFS shortest-path enumeration is pure Python over an adjacency dict (unit
testable); the per-pair work is distributed with ``mapInPandas`` over the
sampled pairs with the adjacency broadcast, per the DESIGN.md layering note.
"""
from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .graph import Graph, canonical_edges


def bfs_parents(adj: Dict[str, List[str]], src: str) -> Tuple[Dict[str, int], Dict[str, List[str]]]:
    """BFS from ``src``: (distance map, shortest-path parent DAG)."""
    dist = {src: 0}
    parents: Dict[str, List[str]] = {src: []}
    q = deque([src])
    while q:
        u = q.popleft()
        for v in adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                parents[v] = [u]
                q.append(v)
            elif dist[v] == dist[u] + 1:
                parents[v].append(u)
    return dist, parents


def all_shortest_path_edges(
    adj: Dict[str, List[str]], src: str, dst: str
) -> List[Tuple[str, str]]:
    """Edges lying on *any* shortest src-dst path ([] if disconnected).

    Backtracks the BFS parent DAG from ``dst``; the union of parent edges
    reachable from ``dst`` is exactly the union of all shortest paths.
    """
    if src == dst:
        return []
    dist, parents = bfs_parents(adj, src)
    if dst not in dist:
        return []
    edges: Set[Tuple[str, str]] = set()
    stack = [dst]
    seen = {dst}
    while stack:
        v = stack.pop()
        for u in parents.get(v, ()):
            edges.add((min(u, v), max(u, v)))
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return sorted(edges)


def _sample_pairs(
    first: Sequence[str], second: Sequence[str], n: int, seed: int
) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "src": rng.choice(np.asarray(first, dtype=object), size=n, replace=True),
            "dst": rng.choice(np.asarray(second, dtype=object), size=n, replace=True),
        }
    )


def _paths_edges_df(
    spark: SparkSession, pairs: pd.DataFrame, adj: Dict[str, List[str]]
) -> DataFrame:
    """Distributed all-shortest-paths over sampled pairs -> edge DataFrame."""
    if pairs.empty:
        return spark.createDataFrame(pd.DataFrame(columns=["src", "dst"]), "src string, dst string")
    sc = spark.sparkContext
    b_adj = sc.broadcast(adj)

    def gen(batches: Iterable[pd.DataFrame]):
        a = b_adj.value
        for pdf in batches:
            rows: List[Tuple[str, str]] = []
            for s, d in zip(pdf["src"], pdf["dst"]):
                rows.extend(all_shortest_path_edges(a, s, d))
            yield pd.DataFrame(rows, columns=["src", "dst"])

    n_part = max(1, min(spark.sparkContext.defaultParallelism, len(pairs) // 8 + 1))
    src_df = spark.createDataFrame(pairs).repartition(n_part)
    return src_df.mapInPandas(gen, "src string, dst string").distinct()


def msp_compress(
    graph: Graph, *, beta: float, seed: int = 0, ensure_all_metadata: bool = True
) -> Graph:
    """Algorithm 3 (MSP) compression with compression ratio ``beta``.

    ``L = beta * |nodes|`` pair samples; pairs are (doc node of corpus 1,
    doc node of corpus 2). With ``ensure_all_metadata`` every doc metadata
    node left unsampled gets one extra pair so it stays connected.
    """
    spark = graph.nodes.sparkSession
    docs = graph.doc_nodes().select("id", "corpus").toPandas()
    corpora = sorted(docs["corpus"].unique())
    if len(corpora) != 2:
        raise ValueError(f"MSP needs exactly two corpora, got {corpora}")
    # sorted: the sampled pairs must not follow the graph's physical row order
    first = sorted(docs.loc[docs["corpus"] == corpora[0], "id"])
    second = sorted(docs.loc[docs["corpus"] == corpora[1], "id"])

    n_nodes = graph.num_nodes()
    L = max(1, int(beta * n_nodes))
    adj = graph.adjacency()
    pairs = _sample_pairs(first, second, L, seed)

    if ensure_all_metadata:
        rng = np.random.default_rng(seed + 1)
        missing_first = sorted(set(first) - set(pairs["src"]))
        missing_second = sorted(set(second) - set(pairs["dst"]))
        extra = []
        for m in missing_first:
            extra.append((m, second[int(rng.integers(len(second)))]))
        for m in missing_second:
            extra.append((first[int(rng.integers(len(first)))], m))
        if extra:
            pairs = pd.concat(
                [pairs, pd.DataFrame(extra, columns=["src", "dst"])], ignore_index=True
            )

    kept_edges = canonical_edges(_paths_edges_df(spark, pairs, adj)).cache()
    kept_nodes = (
        kept_edges.select(F.col("src").alias("id"))
        .union(kept_edges.select(F.col("dst").alias("id")))
        .distinct()
    )
    # metadata nodes always survive, even if isolated (matching needs them)
    kept_nodes = kept_nodes.union(graph.metadata_nodes().select("id")).distinct()
    nodes = graph.nodes.join(kept_nodes, "id", "left_semi")
    out = Graph(nodes, kept_edges, graph.term_corpus).materialize()
    kept_edges.unpersist()
    return out


def ssum_like_compress(graph: Graph, *, ratio: float, seed: int = 0) -> Graph:
    """SSuM-style baseline: merge data nodes with identical neighbourhoods,
    then sparsify edges uniformly at random down to ``ratio`` of the input.

    ``ratio`` is the target output/input size fraction (the paper's
    SSuM(0.1) keeps ~10%... of the *reduction* knob; we expose the fraction
    of edges kept, which reproduces the reported #N/#E regimes).
    """
    from .merge import apply_node_mapping

    sig = (
        graph.symmetric_edges()
        .groupBy("src")
        .agg(F.sort_array(F.collect_set("dst")).alias("nbrs"))
        # to_json keeps list boundaries whatever the ids contain:
        # ["ab", "c"] and ["a", "bc"] get different signatures
        .withColumn("sig", F.sha2(F.to_json("nbrs"), 256))
        .select(F.col("src").alias("id"), "sig")
    )
    data_sig = graph.nodes.where(F.col("type") == "data").join(sig, "id")
    reps = data_sig.groupBy("sig").agg(F.min("id").alias("new_id"))
    mapping = (
        data_sig.join(reps, "sig")
        .where(F.col("id") != F.col("new_id"))
        .select(F.col("id").alias("old_id"), "new_id")
    )
    merged, _ = apply_node_mapping(graph, mapping)

    keep = merged.edges.sample(fraction=min(1.0, ratio), seed=seed)
    kept_nodes = (
        keep.select(F.col("src").alias("id"))
        .union(keep.select(F.col("dst").alias("id")))
        .union(merged.metadata_nodes().select("id"))
        .distinct()
    )
    return Graph(
        merged.nodes.join(kept_nodes, "id", "left_semi"), keep, merged.term_corpus
    ).materialize()
