"""Tests for compression (§III-B): BFS helpers, MSP (Alg. 3), SSuM-like."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.compress import (
    all_shortest_path_edges,
    bfs_parents,
    msp_compress,
    ssum_like_compress,
)
from repro.core.graph import Graph, TableCorpus, TextCorpus, build_graph
from repro.datasets import imdb


# a diamond with a pendant: a-b, a-c, b-d, c-d, d-e
ADJ = {
    "a": ["b", "c"],
    "b": ["a", "d"],
    "c": ["a", "d"],
    "d": ["b", "c", "e"],
    "e": ["d"],
}


class TestBfs:
    def test_distances(self):
        dist, _ = bfs_parents(ADJ, "a")
        assert dist == {"a": 0, "b": 1, "c": 1, "d": 2, "e": 3}

    def test_parents_capture_all_shortest(self):
        _, parents = bfs_parents(ADJ, "a")
        assert sorted(parents["d"]) == ["b", "c"]

    def test_unreachable(self):
        dist, _ = bfs_parents({"a": [], "b": []}, "a")
        assert "b" not in dist


class TestAllShortestPaths:
    def test_diamond_keeps_both_paths(self):
        edges = all_shortest_path_edges(ADJ, "a", "d")
        assert set(edges) == {("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")}

    def test_single_path(self):
        edges = all_shortest_path_edges(ADJ, "a", "e")
        # all shortest a-e paths go through d
        assert ("d", "e") in edges

    def test_disconnected_empty(self):
        assert all_shortest_path_edges({"a": [], "z": []}, "a", "z") == []

    def test_same_node_empty(self):
        assert all_shortest_path_edges(ADJ, "a", "a") == []

    def test_adjacent(self):
        assert all_shortest_path_edges(ADJ, "d", "e") == [("d", "e")]


@pytest.fixture(scope="module")
def small_graph(spark):
    t = spark.createDataFrame(
        pd.DataFrame(
            {
                "tid": [1, 2, 3],
                "a": ["alpha beta", "gamma delta", "alpha delta"],
            }
        )
    )
    s = spark.createDataFrame(
        pd.DataFrame(
            {
                "sid": [1, 2, 3],
                "text": ["alpha beta story", "gamma delta tale", "delta alpha news"],
            }
        )
    )
    return build_graph(
        spark,
        TableCorpus("t", t, "tid", ["a"]),
        TextCorpus("s", s, "sid", "text"),
        max_n=1,
        auto_order=False,
    )


class TestMsp:
    def test_subset_of_input(self, small_graph):
        cg = msp_compress(small_graph, beta=0.5, seed=0)
        in_edges = {(r["src"], r["dst"]) for r in small_graph.edges.collect()}
        for r in cg.edges.collect():
            assert (r["src"], r["dst"]) in in_edges
        in_nodes = {r["id"] for r in small_graph.nodes.collect()}
        assert {r["id"] for r in cg.nodes.collect()} <= in_nodes

    def test_all_metadata_retained(self, small_graph):
        cg = msp_compress(small_graph, beta=0.25, seed=1)
        want = {r["id"] for r in small_graph.metadata_nodes().collect()}
        got = {r["id"] for r in cg.nodes.collect()}
        assert want <= got

    def test_doc_nodes_connected(self, small_graph):
        cg = msp_compress(small_graph, beta=0.5, seed=2)
        deg = {r["id"]: r["degree"] for r in cg.degrees().collect()}
        for r in cg.doc_nodes().collect():
            assert deg.get(r["id"], 0) >= 1

    def test_not_larger(self, small_graph):
        cg = msp_compress(small_graph, beta=0.5, seed=0)
        assert cg.num_edges() <= small_graph.num_edges()

    def test_deterministic(self, small_graph):
        a = msp_compress(small_graph, beta=0.5, seed=3)
        b = msp_compress(small_graph, beta=0.5, seed=3)
        ea = sorted((r["src"], r["dst"]) for r in a.edges.collect())
        eb = sorted((r["src"], r["dst"]) for r in b.edges.collect())
        assert ea == eb

    def test_msp_independent_of_row_order(self, spark):
        """The same graph with its rows repartitioned and reversed keeps the
        same edges: the sampled pairs must not follow physical row order."""
        sc = imdb.generate(spark, scale=0.05, seed=7)
        g = build_graph(spark, sc.reviews, sc.movies_wt)
        shuffled = Graph(
            g.nodes.repartition(3).orderBy(F.col("id").desc()),
            g.edges.repartition(2).orderBy(F.col("src").desc(), F.col("dst").desc()),
            g.term_corpus,
        )

        def kept(graph):
            out = msp_compress(graph, beta=0.5, seed=7)
            return sorted((r["src"], r["dst"]) for r in out.edges.collect())

        assert kept(g) == kept(shuffled)

    def test_needs_two_corpora(self, spark, small_graph):
        only = small_graph.subgraph(
            small_graph.nodes.where(
                (F.col("corpus") == "t") | (F.col("type") == "data")
            ).select("id")
        )
        only.term_corpus = "t"
        with pytest.raises(ValueError):
            msp_compress(only, beta=0.5)

    def test_higher_beta_not_smaller(self, small_graph):
        lo = msp_compress(small_graph, beta=0.1, seed=0)
        hi = msp_compress(small_graph, beta=2.0, seed=0)
        assert hi.num_edges() >= lo.num_edges()


class TestSsum:
    def test_metadata_retained(self, small_graph):
        cg = ssum_like_compress(small_graph, ratio=0.5, seed=0)
        want = {r["id"] for r in small_graph.metadata_nodes().collect()}
        assert want <= {r["id"] for r in cg.nodes.collect()}

    def test_reduces_edges(self, small_graph):
        cg = ssum_like_compress(small_graph, ratio=0.3, seed=0)
        assert cg.num_edges() <= small_graph.num_edges()

    def test_ratio_one_keeps_merged_graph(self, small_graph):
        cg = ssum_like_compress(small_graph, ratio=1.0, seed=0)
        # identical-neighbourhood data nodes may merge; edges never grow
        assert cg.num_nodes() <= small_graph.num_nodes()

    def test_signature_keeps_neighbour_boundaries(self, spark):
        """Data nodes merge only on identical neighbour lists: ["ab", "c"]
        vs ["a", "bc"] concatenate to the same string without a separator,
        and ["a\\x01b", "c"] vs ["a", "b\\x01c"] with a \\x01 separator."""
        pairs = {
            "d::x": ["ab", "c"],
            "d::y": ["a", "bc"],
            "d::p": ["a\x01b", "c"],
            "d::q": ["a", "b\x01c"],
        }
        meta = sorted({m for nbrs in pairs.values() for m in nbrs})
        nodes = spark.createDataFrame(
            [(d, "data", "") for d in pairs] + [(m, "tuple", "t") for m in meta],
            "id string, type string, corpus string",
        )
        edges = spark.createDataFrame(
            [(m, d) for d, nbrs in pairs.items() for m in nbrs], "src string, dst string"
        )
        cg = ssum_like_compress(Graph(nodes, edges, "t"), ratio=1.0, seed=0)
        data = {r["id"] for r in cg.nodes.where(F.col("type") == "data").collect()}
        assert data == set(pairs)
