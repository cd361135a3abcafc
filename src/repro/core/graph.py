"""Graph creation over heterogeneous corpora (paper §II, Algorithm 1).

The graph is held as two DataFrames:

* ``nodes(id, type, corpus)`` — ``type`` ∈ {``data``, ``tuple``, ``column``,
  ``text``, ``concept``}; ``corpus`` is the corpus name for metadata nodes
  and ``""`` for shared data nodes (a term appearing in both corpora is one
  node, §II).
* ``edges(src, dst)`` — undirected, stored once in canonical order
  (``src < dst``), no self loops, distinct.

Corpus kinds mirror the paper's three document types: a relational table
(documents = tuples, plus column metadata nodes), plain text (documents =
paragraphs/sentences), and structured text (documents = taxonomy concepts,
with parent edges between metadata nodes, §II-A).

Term filtering (§II-B): ``build_graph`` creates data nodes from the corpus
with the smaller number of distinct tokens and keeps, for the other corpus,
only terms already in the graph. Callers pass corpora in any order;
``build_graph`` reorders internally (disable with ``auto_order=False``).

Materialization: every graph stage (build, merge, filter, expand, compress)
returns a graph whose ``nodes`` and ``edges`` are each ``localCheckpoint``ed
once, so downstream plans start from stored blocks. ``build_graph``
tokenizes each corpus once and derives the ordering count, all edges and the
data nodes from that cached pass. ``Graph.subgraph`` and
``Graph.without_nodes`` are eager: they checkpoint the kept nodes, cut the
edges against the stored ids and checkpoint the edges.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F

from .preprocess import TERM_SEP, terms_column

DATA = "data"
TUPLE = "tuple"
COLUMN = "column"
TEXT = "text"
CONCEPT = "concept"
METADATA_TYPES = (TUPLE, COLUMN, TEXT, CONCEPT)
# Column nodes exist to create 2-hop paths inside one corpus; they are not
# matched across corpora, so matching and MSP sampling use DOC_TYPES only.
DOC_TYPES = (TUPLE, TEXT, CONCEPT)

DATA_PREFIX = "d::"


def data_node_id(term: str) -> str:
    return DATA_PREFIX + term


def is_data_node_id(node_id: str) -> bool:
    return node_id.startswith(DATA_PREFIX)


def term_of(node_id: str) -> str:
    """Inverse of :func:`data_node_id` (raises on non-data ids)."""
    if not is_data_node_id(node_id):
        raise ValueError(f"not a data node: {node_id}")
    return node_id[len(DATA_PREFIX) :]


@dataclass(frozen=True)
class TableCorpus:
    """A relational table: one document (metadata node) per tuple.

    ``id_col`` must be unique; ``attr_cols`` are the textual attributes whose
    cell values become terms. Every attribute also becomes a column metadata
    node connected to the terms of its active domain (Alg. 1 lines 5-10, 23).
    """

    name: str
    df: DataFrame
    id_col: str
    attr_cols: Sequence[str]
    kind: str = field(default="table", init=False)

    def doc_id(self, raw) -> str:
        return f"{self.name}::{raw}"


@dataclass(frozen=True)
class TextCorpus:
    """Free text: one document per row (sentence or paragraph granularity)."""

    name: str
    df: DataFrame
    id_col: str
    text_col: str
    kind: str = field(default="text", init=False)

    def doc_id(self, raw) -> str:
        return f"{self.name}::{raw}"


@dataclass(frozen=True)
class StructuredTextCorpus:
    """Structured text (taxonomy): documents are concept nodes; ``parent_col``
    (nullable id) adds metadata-metadata edges for the hierarchy (§II-A)."""

    name: str
    df: DataFrame
    id_col: str
    text_col: str
    parent_col: str
    kind: str = field(default="structured", init=False)

    def doc_id(self, raw) -> str:
        return f"{self.name}::{raw}"


Corpus = object  # union of the three dataclasses above


@dataclass
class Graph:
    """Undirected graph as (nodes, edges) DataFrames; see module docstring.

    ``term_corpus`` records which corpus defined the term space (§II-B) when
    the graph came out of :func:`build_graph`.
    """

    nodes: DataFrame
    edges: DataFrame
    term_corpus: Optional[str] = None

    def materialize(self) -> "Graph":
        """Compute the graph eagerly and truncate its logical plan.

        Graph pipelines (build -> merge -> filter -> expand -> compress)
        stack unions, UDF explosions and joins; a plain ``cache()`` keeps
        the full lineage in every downstream logical plan and Catalyst
        analysis time blows up super-linearly (observed: minutes of driver
        CPU hashing plan trees at toy scale). ``localCheckpoint`` executes
        the stage once and replaces the plan with a scan of the stored
        blocks — the standard idiom for iterative graph dataflows on Spark.
        """
        self.nodes = self.nodes.localCheckpoint(eager=True)
        self.edges = self.edges.localCheckpoint(eager=True)
        return self

    def num_nodes(self) -> int:
        return self.nodes.count()

    def num_edges(self) -> int:
        return self.edges.count()

    def metadata_nodes(self, corpus: Optional[str] = None) -> DataFrame:
        out = self.nodes.where(F.col("type").isin(list(METADATA_TYPES)))
        if corpus is not None:
            out = out.where(F.col("corpus") == corpus)
        return out

    def doc_nodes(self, corpus: Optional[str] = None) -> DataFrame:
        """Matchable document nodes (tuples/texts/concepts, no column nodes)."""
        out = self.nodes.where(F.col("type").isin(list(DOC_TYPES)))
        if corpus is not None:
            out = out.where(F.col("corpus") == corpus)
        return out

    def symmetric_edges(self) -> DataFrame:
        """Both directions of every undirected edge (for adjacency/joins)."""
        rev = self.edges.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
        return self.edges.unionByName(rev)

    def degrees(self) -> DataFrame:
        """DataFrame(id, degree) over nodes incident to at least one edge."""
        return (
            self.symmetric_edges()
            .groupBy(F.col("src").alias("id"))
            .agg(F.count("*").alias("degree"))
        )

    def adjacency(self) -> Dict[str, List[str]]:
        """Collected adjacency dict (node -> sorted neighbor list).

        Graphs in this reproduction are small (≤ a few hundred-k edges), so
        adjacency is collected to the driver and broadcast to workers for
        random walks / BFS (see DESIGN.md layering note).
        """
        pdf = (
            self.symmetric_edges()
            .groupBy("src")
            .agg(F.sort_array(F.collect_set("dst")).alias("nbrs"))
            .toPandas()
        )
        return dict(zip(pdf["src"], (list(n) for n in pdf["nbrs"])))

    def subgraph(self, keep_nodes: DataFrame) -> "Graph":
        """Induced subgraph on ``keep_nodes`` (a DataFrame with column ``id``;
        ids that are not nodes of this graph are ignored). Eager: the result
        is materialized."""
        return self._induced(self.nodes.join(keep_nodes.select("id"), "id", "left_semi"))

    def without_nodes(self, drop_nodes: DataFrame) -> "Graph":
        """Induced subgraph without ``drop_nodes``. Eager, like :meth:`subgraph`."""
        return self._induced(self.nodes.join(drop_nodes.select("id"), "id", "left_anti"))

    def _induced(self, nodes: DataFrame) -> "Graph":
        # the kept nodes are computed once; both edge cuts read the stored ids
        nodes = nodes.localCheckpoint(eager=True)
        ids = nodes.select("id")
        edges = (
            self.edges.join(ids.withColumnRenamed("id", "src"), "src", "left_semi")
            .join(ids.withColumnRenamed("id", "dst"), "dst", "left_semi")
            .select("src", "dst")
            .localCheckpoint(eager=True)
        )
        return Graph(nodes, edges, self.term_corpus)


def canonical_edges(df: DataFrame) -> DataFrame:
    """Normalize an edge list: undirected canonical order, no loops, distinct."""
    return (
        df.select(
            F.least("src", "dst").alias("src"), F.greatest("src", "dst").alias("dst")
        )
        .where(F.col("src") != F.col("dst"))
        .distinct()
    )


def _corpus_terms(corpus, *, max_n: int, do_stem: bool) -> DataFrame:
    """DataFrame(doc, attr, term): the corpus tokenized once.

    ``doc`` is the prefixed metadata doc id. For a table, terms are built
    per cell value, so n-grams never span two attributes, and ``attr`` names
    the cell's attribute; ``attr`` is null for text and structured corpora.
    Rows are not deduplicated: every consumer deduplicates downstream.
    """
    if corpus.kind == "table":
        cells = [
            F.struct(F.lit(a).alias("attr"), F.col(a).cast("string").alias("text"))
            for a in corpus.attr_cols
        ]
        df = corpus.df.select(
            F.col(corpus.id_col).alias("_raw_id"), F.explode(F.array(*cells)).alias("_cell")
        )
        attr, text = F.col("_cell.attr"), F.col("_cell.text")
    else:
        df = corpus.df.select(F.col(corpus.id_col).alias("_raw_id"), corpus.text_col)
        attr, text = F.lit(None).cast("string"), F.col(corpus.text_col)
    return df.select(
        F.concat(F.lit(corpus.name + "::"), F.col("_raw_id").cast("string")).alias("doc"),
        attr.alias("attr"),
        F.explode(terms_column(text, max_n=max_n, do_stem=do_stem)).alias("term"),
    )


def _unigram_count(term: Column) -> Column:
    """Distinct unigrams of a term column (nulls ignored): tokens contain no
    ``TERM_SEP``, so the unigrams are exactly the terms without it."""
    return F.countDistinct(F.when(~term.contains(TERM_SEP), term))


def distinct_token_count(corpus, *, do_stem: bool = True) -> int:
    """Distinct unigram tokens of a corpus — the §II-B ordering criterion."""
    terms = _corpus_terms(corpus, max_n=1, do_stem=do_stem)
    return terms.agg(_unigram_count(F.col("term"))).first()[0]


def _meta_nodes(corpus) -> DataFrame:
    t = {"table": TUPLE, "text": TEXT, "structured": CONCEPT}[corpus.kind]
    return corpus.df.select(
        F.concat(F.lit(corpus.name + "::"), F.col(corpus.id_col).cast("string")).alias("id"),
        F.lit(t).alias("type"),
        F.lit(corpus.name).alias("corpus"),
    )


def _hierarchy_edges(corpus: StructuredTextCorpus) -> DataFrame:
    """Parent edges between concept metadata nodes (§II-A).

    The parent id is resolved by joining back on the id column so its
    physical type (often float, from nullable pandas columns) never leaks
    into the node id string.
    """
    pre = corpus.name + "::"
    child = corpus.df.select(
        F.col(corpus.id_col).cast("string").alias("_cid"),
        F.col(corpus.parent_col).alias("_pref"),
    ).where(F.col("_pref").isNotNull())
    parent = corpus.df.select(
        F.col(corpus.id_col).alias("_pid_raw"),
        F.col(corpus.id_col).cast("string").alias("_pid"),
    )
    return child.join(parent, child["_pref"] == parent["_pid_raw"]).select(
        F.concat(F.lit(pre), "_cid").alias("src"),
        F.concat(F.lit(pre), "_pid").alias("dst"),
    )


def build_graph(
    spark: SparkSession,
    first,
    second,
    *,
    max_n: int = 3,
    do_stem: bool = True,
    filter_second: bool = True,
    auto_order: bool = True,
) -> Graph:
    """Algorithm 1: build the joint graph over two corpora.

    When ``auto_order`` is set (default), the corpus with fewer distinct
    tokens plays the role of the *first* set so its terms define the data
    nodes and the other corpus is filtered against them (§II-B). Metadata
    nodes are created for every document of both corpora regardless.

    Each corpus is tokenized once (:func:`_corpus_terms`, cached); the
    ordering count, the doc-term edges, the column-term edges and the data
    nodes are all read from that one pass.
    """
    terms1 = _corpus_terms(first, max_n=max_n, do_stem=do_stem).cache()
    terms2 = _corpus_terms(second, max_n=max_n, do_stem=do_stem).cache()
    if auto_order:
        # one aggregation over both corpora's unigrams
        both = terms1.select(F.lit(1).alias("_side"), "term").unionByName(
            terms2.select(F.lit(2).alias("_side"), "term")
        )
        n1, n2 = both.agg(
            *[_unigram_count(F.when(F.col("_side") == i, F.col("term"))) for i in (1, 2)]
        ).first()
        if n2 < n1:
            first, second, terms1, terms2 = second, first, terms2, terms1

    kept2 = terms2
    if filter_second:
        # §II-B: the second corpus keeps only terms of the first; its column
        # edges are cut by the same join
        kept2 = terms2.join(terms1.select("term"), "term", "left_semi")

    data_id = F.concat(F.lit(DATA_PREFIX), "term")
    node_parts = [_meta_nodes(first), _meta_nodes(second)]
    edge_parts = []
    for corpus, terms in ((first, terms1), (second, kept2)):
        edge_parts.append(terms.select(F.col("doc").alias("src"), data_id.alias("dst")))
        if corpus.kind == "table":
            # a metadata node per attribute, unconditionally (Alg. 1 l. 5-10)
            node_parts.append(
                spark.createDataFrame(
                    [(f"col::{corpus.name}::{a}", COLUMN, corpus.name) for a in corpus.attr_cols],
                    "id string, type string, corpus string",
                )
            )
            edge_parts.append(
                terms.select(
                    F.concat(F.lit(f"col::{corpus.name}::"), "attr").alias("src"),
                    data_id.alias("dst"),
                )
            )
        elif corpus.kind == "structured":
            edge_parts.append(_hierarchy_edges(corpus))
    node_parts.append(
        terms1.select("term")
        .unionByName(kept2.select("term"))
        .select(data_id.alias("id"), F.lit(DATA).alias("type"), F.lit("").alias("corpus"))
    )

    nodes = node_parts[0]
    for p in node_parts[1:]:
        nodes = nodes.unionByName(p)
    edges = edge_parts[0]
    for p in edge_parts[1:]:
        edges = edges.unionByName(p)

    out = Graph(nodes.distinct(), canonical_edges(edges), first.name).materialize()
    terms1.unpersist()
    terms2.unpersist()
    return out


def filter_to_term_corpus(graph: Graph, *, kb: Optional[DataFrame] = None) -> Graph:
    """Graph-level §II-B filtering, merge- and expansion-aware.

    Drops data nodes that have no edge to any metadata node of the
    term-defining corpus (``graph.term_corpus``) — the same semantics as
    ``build_graph(filter_second=True)``, but applied *after* node merging so
    a second-corpus variant fused onto a first-corpus term survives.

    When ``kb`` is given (expansion planned), second-corpus-only terms that
    the KB relates to a surviving term are kept as well: the expansion step
    will connect them (this is how the review-side "Comedy" of the paper's
    Figure 4/5 stays available for the style(Tarantino, Comedy) bridge).
    """
    if graph.term_corpus is None:
        raise ValueError("graph has no recorded term corpus")
    first_meta = graph.metadata_nodes(graph.term_corpus).select(F.col("id").alias("src"))
    keep = (
        graph.symmetric_edges()
        .join(first_meta, "src", "left_semi")
        .select(F.col("dst").alias("id"))
    )
    if kb is not None:
        kept_terms = keep.where(F.col("id").startswith(DATA_PREFIX)).select(
            F.expr(f"substring(id, {len(DATA_PREFIX) + 1})").alias("object")
        )
        kbe = kb.select("subject", "object")
        kbe = kbe.unionByName(
            kbe.select(F.col("object").alias("subject"), F.col("subject").alias("object"))
        )
        bridged = kbe.join(kept_terms, "object", "left_semi").select(
            F.concat(F.lit(DATA_PREFIX), "subject").alias("id")
        )
        keep = keep.unionByName(bridged)
    return graph.subgraph(keep.unionByName(graph.metadata_nodes().select("id")))
