"""End-to-end TDmatch pipeline (Figure 3): graph -> (merge) -> filter ->
(expand) -> (compress) -> walks -> Word2Vec -> top-k matching.

``run_tdmatch`` is the entry point of every table job and of the benchmark;
the paper's method variants map to configs:

* **W-RW**      — ``TDMatchConfig(expand=False)``
* **W-RW-EX**   — ``TDMatchConfig(expand=True)`` (+ a KB DataFrame)
* **MSP(β)**    — ``compress=("msp", β)`` on top of either
* **SSuM(r)**   — ``compress=("ssum", r)``

It is built from three stage functions that the Table VII and VIII jobs
call directly: :func:`prepare_graph` (build + merges, the point where the
variants branch), :func:`embed_graph` (walks + Word2Vec) and
:func:`match_documents` (top-k over the document nodes). These helpers call
the per-stage functions by the names this module imports, so a wrapper
installed on those names (perfbench's tracer) sees every stage of
``run_tdmatch``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .compress import msp_compress, ssum_like_compress
from .embed import train_embeddings
from .expand import expand_graph
from .graph import Graph, build_graph, filter_to_term_corpus
from .match import top_k_matches
from .merge import merge_numeric_buckets, merge_synonyms
from .walks import generate_walks


@dataclass
class TDMatchConfig:
    """Knobs of the pipeline; defaults are scaled-down versions of the
    paper's (100 walks × length 30, dim 300) sized for local Spark."""

    num_walks: int = 10
    walk_length: int = 12
    vector_size: int = 64
    window: int = 3  # paper: 3 for text-to-data, 15 for text-only
    expand: bool = False
    compress: Optional[Tuple[str, float]] = None  # ("msp", beta) | ("ssum", r)
    bucket_numeric: bool = False
    k: int = 20
    seed: int = 0


@dataclass
class TDMatchResult:
    matches: DataFrame  # (query, target, score, rank) with raw doc ids


def strip_prefix(col, corpus_name: str):
    """Graph doc id ``name::raw`` -> raw document id column."""
    return F.expr(f"substring({col}, {len(corpus_name) + 3})")


def prepare_graph(
    spark: SparkSession,
    query_corpus,
    target_corpus,
    *,
    synonyms: Optional[DataFrame] = None,
    bucket_numeric: bool = False,
) -> Graph:
    """Unfiltered graph with synonym and numeric-bucket merges applied.

    Merges run before the filter (§II-B): a merge can fuse a second-corpus
    variant onto a first-corpus term, and the filter must see the merged
    node, not the raw token stream. The filter itself is left to the caller
    because it keeps different terms with and without a KB.
    """
    graph = build_graph(spark, query_corpus, target_corpus, filter_second=False)
    if synonyms is not None:
        graph = merge_synonyms(graph, synonyms)[0]
    if bucket_numeric:
        graph = merge_numeric_buckets(graph)[0]
    return graph


def embed_graph(graph: Graph, cfg: TDMatchConfig) -> DataFrame:
    """Cached (node, vector) embeddings of every node, from random walks.

    The walks are dropped once Word2Vec has fitted; the caller unpersists
    the embeddings.
    """
    walks = generate_walks(
        graph, num_walks=cfg.num_walks, walk_length=cfg.walk_length, seed=cfg.seed
    ).cache()
    emb = train_embeddings(
        walks, vector_size=cfg.vector_size, window=cfg.window, seed=cfg.seed
    ).cache()
    walks.unpersist()
    return emb


def match_documents(
    emb: DataFrame, graph: Graph, query_corpus, target_corpus, k: int
) -> DataFrame:
    """Top-k targets per query document as (query, target, score, rank)
    with raw document ids."""
    q_emb = emb.join(
        graph.doc_nodes(query_corpus.name).select(F.col("id").alias("node")), "node"
    )
    t_emb = emb.join(
        graph.doc_nodes(target_corpus.name).select(F.col("id").alias("node")), "node"
    )
    return top_k_matches(q_emb, t_emb, k=k).select(
        strip_prefix("query", query_corpus.name).alias("query"),
        strip_prefix("target", target_corpus.name).alias("target"),
        "score",
        "rank",
    )


def run_tdmatch(
    spark: SparkSession,
    query_corpus,
    target_corpus,
    *,
    config: TDMatchConfig = TDMatchConfig(),
    kb: Optional[DataFrame] = None,
    synonyms: Optional[DataFrame] = None,
) -> TDMatchResult:
    """Run the full pipeline; queries come from ``query_corpus`` and are
    ranked against the documents of ``target_corpus``.

    Graph construction order (which corpus defines the term space, §II-B) is
    independent of query direction and handled inside ``build_graph``.
    """
    cfg = config
    if cfg.expand and kb is None:
        raise ValueError("expand=True requires a KB edge DataFrame")
    if cfg.compress is not None and cfg.compress[0] not in ("msp", "ssum"):
        raise ValueError(f"unknown compression {cfg.compress[0]!r}")

    # Every stage function returns a materialized (localCheckpoint'ed)
    # graph, so plans stay flat and stage blocks are freed by the cleaner
    # once the next stage drops its reference. With a KB present, filtering
    # also keeps second-corpus terms the KB can bridge.
    graph = prepare_graph(
        spark,
        query_corpus,
        target_corpus,
        synonyms=synonyms,
        bucket_numeric=cfg.bucket_numeric,
    )
    graph = filter_to_term_corpus(graph, kb=kb if cfg.expand else None)
    if cfg.expand:
        graph = expand_graph(graph, kb)
    if cfg.compress is not None:
        kind, ratio = cfg.compress
        if kind == "msp":
            graph = msp_compress(graph, beta=ratio, seed=cfg.seed)
        else:
            graph = ssum_like_compress(graph, ratio=ratio, seed=cfg.seed)

    emb = embed_graph(graph, cfg)
    matches = match_documents(emb, graph, query_corpus, target_corpus, cfg.k).cache()
    matches.count()  # materialize so the embedding cache can go
    emb.unpersist()
    return TDMatchResult(matches=matches)
