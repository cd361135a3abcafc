"""Graph construction against a pure-Python reference builder.

The reference re-implements Algorithm 1, §II-B term filtering, synonym
merging and graph-level filtering over the corpora's pandas frames with
``preprocess.terms``, and the Spark graph's node and edge *sets* must equal
it on all three corpus kinds: tables (IMDb, CoronaCheck), text (claims,
STS) and structured text (the Audit taxonomy, with its hierarchy edges).
"""
from typing import Dict, List, Set, Tuple

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.graph import build_graph, filter_to_term_corpus
from repro.core.merge import merge_synonyms
from repro.core.preprocess import terms
from repro.datasets import audit, claims, corona, imdb, sts
from repro.kb.synth_kb import prepare_synonyms

Node = Tuple[str, str, str]  # (id, type, corpus)
Edge = Tuple[str, str]
META_TYPE = {"table": "tuple", "text": "text", "structured": "concept"}


def _cells(corpus) -> pd.DataFrame:
    """(id, text columns...) with Spark's string cast, as pandas."""
    cols = corpus.attr_cols if corpus.kind == "table" else [corpus.text_col]
    return corpus.df.select(
        F.col(corpus.id_col).cast("string").alias("_id"),
        *[F.col(c).cast("string").alias(c) for c in cols],
    ).toPandas()


class RefCorpus:
    """One corpus tokenized in Python: metadata nodes and term incidences."""

    def __init__(self, corpus, max_n: int):
        self.name = corpus.name
        self.kind = corpus.kind
        pdf = _cells(corpus)
        cols = [c for c in pdf.columns if c != "_id"]
        self.docs = [f"{corpus.name}::{i}" for i in pdf["_id"]]
        self.doc_terms: Set[Edge] = set()
        self.col_terms: Set[Edge] = set()
        self.tokens: Set[str] = set()
        for row in pdf.to_dict("records"):
            doc = f"{corpus.name}::{row['_id']}"
            for c in cols:
                text = row[c] or ""
                self.tokens.update(terms(text, max_n=1))
                for t in terms(text, max_n=max_n):
                    self.doc_terms.add((doc, t))
                    if corpus.kind == "table":
                        self.col_terms.add((f"col::{corpus.name}::{c}", t))
        self.columns = list(corpus.attr_cols) if corpus.kind == "table" else []
        self.hierarchy: Set[Edge] = set()
        if corpus.kind == "structured":
            tax = corpus.df.select(
                F.col(corpus.id_col).alias("raw"),
                F.col(corpus.id_col).cast("string").alias("sid"),
                F.col(corpus.parent_col).alias("parent"),
            ).toPandas()
            by_raw = dict(zip(tax["raw"], tax["sid"]))
            for sid, parent in zip(tax["sid"], tax["parent"]):
                if pd.notna(parent) and parent in by_raw:
                    self.hierarchy.add((f"{self.name}::{sid}", f"{self.name}::{by_raw[parent]}"))


def _canonical(edges) -> Set[Edge]:
    return {(min(s, d), max(s, d)) for s, d in edges if s != d}


def ref_build(first, second, *, max_n: int = 3, filter_second: bool = True):
    """Algorithm 1 with auto ordering: (nodes, edges, term corpus name)."""
    a, b = RefCorpus(first, max_n), RefCorpus(second, max_n)
    if len(b.tokens) < len(a.tokens):
        a, b = b, a
    first_terms = {t for _, t in a.doc_terms}
    nodes: Set[Node] = set()
    edges: Set[Edge] = set()
    for c in (a, b):
        incidences = c.doc_terms | c.col_terms
        if c is b and filter_second:
            incidences = {(m, t) for m, t in incidences if t in first_terms}
        nodes |= {(d, META_TYPE[c.kind], c.name) for d in c.docs}
        nodes |= {(f"col::{c.name}::{col}", "column", c.name) for col in c.columns}
        nodes |= {("d::" + t, "data", "") for _, t in incidences}
        edges |= {(m, "d::" + t) for m, t in incidences} | c.hierarchy
    return nodes, _canonical(edges), a.name


def ref_merge(nodes: Set[Node], edges: Set[Edge], synonyms: pd.DataFrame):
    """Synonym merge: variants present in the graph move onto their
    canonical term (chains followed), duplicate nodes and edges collapse."""
    m: Dict[str, str] = dict(zip(synonyms["variant"], synonyms["canonical"]))

    def resolve(v: str) -> str:
        c, hops = m[v], 0
        while c in m and hops < 8 and m[c] != c:
            c, hops = m[c], hops + 1
        return c

    ids = {n[0] for n in nodes}
    mapping = {
        "d::" + v: "d::" + resolve(v) for v in m if "d::" + v in ids and resolve(v) != v
    }

    def f(x: str) -> str:
        return mapping.get(x, x)

    return {(f(i), t, c) for i, t, c in nodes}, _canonical((f(s), f(d)) for s, d in edges)


def ref_filter(nodes: Set[Node], edges: Set[Edge], term_corpus: str):
    """Keep metadata nodes and data nodes adjacent to the term corpus."""
    first_meta = {i for i, t, c in nodes if t != "data" and c == term_corpus}
    keep = {v for s, d in edges for u, v in ((s, d), (d, s)) if u in first_meta}
    out = {n for n in nodes if n[1] != "data" or n[0] in keep}
    ids = {n[0] for n in out}
    return out, {(s, d) for s, d in edges if s in ids and d in ids}


def spark_sets(g):
    nodes = {(r["id"], r["type"], r["corpus"]) for r in g.nodes.collect()}
    edges = {(r["src"], r["dst"]) for r in g.edges.collect()}
    return nodes, edges


def _synonyms(spark, raw: pd.DataFrame):
    sdf = prepare_synonyms(spark, raw)
    return sdf, sdf.toPandas()


@pytest.fixture(scope="module")
def scenarios(spark) -> List[tuple]:
    """(label, query corpus, target corpus, raw synonyms) at test scale."""
    im = imdb.generate(spark, scale=0.05, seed=7)
    co = corona.generate(spark, scale=0.25, seed=11)
    pf = claims.generate_politifact(spark, scale=0.08, seed=19)
    st = sts.generate(spark, scale=0.15, seed=23)
    au = audit.generate(spark, scale=0.12, seed=13)
    return [
        ("imdb", im.reviews, im.movies_wt, im.synonyms),
        ("corona", co.gen, co.table, co.synonyms),
        ("claims", pf.claims, pf.facts, pf.synonyms),
        ("sts", st.left, st.right, st.synonyms),
        ("audit", au.docs, au.taxonomy, au.synonyms),
    ]


KINDS = ["imdb", "corona", "claims", "sts", "audit"]


def _scenario(scenarios, label):
    return next(s for s in scenarios if s[0] == label)[1:]


@pytest.mark.parametrize("label", KINDS)
def test_build_filter_second_matches_reference(spark, scenarios, label):
    """Literal Algorithm 1: ``build_graph(filter_second=True)``."""
    query, target, _ = _scenario(scenarios, label)
    g = build_graph(spark, query, target)
    nodes, edges, term_corpus = ref_build(query, target)
    assert g.term_corpus == term_corpus
    got_nodes, got_edges = spark_sets(g)
    assert got_nodes == nodes
    assert got_edges == edges


@pytest.mark.parametrize("label", KINDS)
def test_build_merge_filter_matches_reference(spark, scenarios, label):
    """Pipeline order: unfiltered build -> merge_synonyms -> filter."""
    query, target, raw_syn = _scenario(scenarios, label)
    syn_sdf, syn_pdf = _synonyms(spark, raw_syn)
    g = build_graph(spark, query, target, filter_second=False)
    nodes, edges, term_corpus = ref_build(query, target, filter_second=False)
    assert spark_sets(g) == (nodes, edges)

    merged, removed = merge_synonyms(g, syn_sdf)
    nodes_m, edges_m = ref_merge(nodes, edges, syn_pdf)
    assert spark_sets(merged) == (nodes_m, edges_m)
    assert removed == len(nodes) - len(nodes_m)

    filtered = filter_to_term_corpus(merged)
    assert spark_sets(filtered) == ref_filter(nodes_m, edges_m, term_corpus)


def test_audit_reference_has_hierarchy(scenarios):
    """The structured case really exercises concept-concept edges."""
    query, target, _ = _scenario(scenarios, "audit")
    _, edges, _ = ref_build(query, target)
    assert any(s.startswith("tax::") and d.startswith("tax::") for s, d in edges)
