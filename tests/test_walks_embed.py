"""Tests for random walks (Alg. 4), embeddings and graph filtering."""
import pandas as pd
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.embed import mean_pool, train_embeddings, train_token_embeddings
from repro.core.graph import (
    Graph,
    TableCorpus,
    TextCorpus,
    build_graph,
    data_node_id,
    filter_to_term_corpus,
)
from repro.core.match import top_k_matches
from repro.core.walks import generate_walks, walk_from


@pytest.fixture(scope="module")
def g(spark):
    t = spark.createDataFrame(
        pd.DataFrame({"tid": [1, 2], "a": ["alpha beta", "gamma delta"]})
    )
    s = spark.createDataFrame(
        pd.DataFrame({"sid": [1, 2], "text": ["alpha beta news", "gamma delta news"]})
    )
    return build_graph(
        spark, TableCorpus("t", t, "tid", ["a"]), TextCorpus("s", s, "sid", "text"),
        max_n=1, auto_order=False,
    )


class TestWalkFrom:
    def test_respects_adjacency(self):
        adj = {"a": ["b"], "b": ["a", "c"], "c": ["b"]}
        rng = np.random.default_rng(0)
        w = walk_from(adj, "a", 10, rng)
        for u, v in zip(w, w[1:]):
            assert v in adj[u]

    def test_isolated_node_stops(self):
        w = walk_from({"x": []}, "x", 5, np.random.default_rng(0))
        assert w == ["x"]

    def test_length_bound(self):
        adj = {"a": ["b"], "b": ["a"]}
        w = walk_from(adj, "a", 7, np.random.default_rng(1))
        assert len(w) == 7

    def test_starts_at_start(self):
        adj = {"a": ["b"], "b": ["a"]}
        assert walk_from(adj, "b", 3, np.random.default_rng(2))[0] == "b"


class TestGenerateWalks:
    def test_count(self, g):
        walks = generate_walks(g, num_walks=3, walk_length=5, seed=0)
        assert walks.count() == 3 * g.num_nodes()

    def test_walks_traverse_real_edges(self, g):
        adj = g.adjacency()
        for row in generate_walks(g, num_walks=2, walk_length=6, seed=0).collect():
            w = row["walk"]
            for u, v in zip(w, w[1:]):
                assert v in adj[u]

    def test_deterministic_across_partitionings(self, spark, g):
        """The same graph with its rows repartitioned and reversed yields the
        same walks in the same order, hence the same embeddings and ranking."""
        shuffled = Graph(
            g.nodes.repartition(3).orderBy(F.col("id").desc()),
            g.edges.repartition(2).orderBy(F.col("src").desc(), F.col("dst").desc()),
            g.term_corpus,
        )

        def walks_and_ranking(graph):
            walks = generate_walks(graph, num_walks=4, walk_length=6, seed=1).cache()
            ordered = [tuple(r["walk"]) for r in walks.collect()]
            emb = train_embeddings(walks, vector_size=8, window=2, seed=0)
            ranked = top_k_matches(
                emb.join(graph.doc_nodes("s").select(F.col("id").alias("node")), "node"),
                emb.join(graph.doc_nodes("t").select(F.col("id").alias("node")), "node"),
                k=2,
            ).toPandas()
            walks.unpersist()
            return ordered, ranked.sort_values(["query", "rank"]).reset_index(drop=True)

        walks_a, ranked_a = walks_and_ranking(g)
        walks_b, ranked_b = walks_and_ranking(shuffled)
        assert walks_a == walks_b
        pd.testing.assert_frame_equal(ranked_a, ranked_b)

    def test_seed_changes_walks(self, g):
        a = sorted(tuple(r["walk"]) for r in generate_walks(g, num_walks=2, walk_length=8, seed=1).collect())
        b = sorted(tuple(r["walk"]) for r in generate_walks(g, num_walks=2, walk_length=8, seed=2).collect())
        assert a != b

    def test_every_node_starts_walks(self, g):
        starts = {r["walk"][0] for r in generate_walks(g, num_walks=1, walk_length=3, seed=0).collect()}
        assert starts == {r["id"] for r in g.nodes.collect()}


class TestEmbeddings:
    def test_every_walked_node_has_vector(self, g):
        walks = generate_walks(g, num_walks=3, walk_length=6, seed=0)
        emb = train_embeddings(walks, vector_size=16, window=3, seed=0)
        emb_nodes = {r["node"] for r in emb.collect()}
        walked = {n for r in walks.collect() for n in r["walk"]}
        assert walked <= emb_nodes

    def test_vector_size(self, g):
        walks = generate_walks(g, num_walks=2, walk_length=5, seed=0)
        emb = train_embeddings(walks, vector_size=12, window=3, seed=0)
        assert len(emb.first()["vector"]) == 12

    def test_related_nodes_closer(self, spark, g):
        """t::1 shares terms with s::1 -> cosine(t1,s1) > cosine(t1,s2)."""
        walks = generate_walks(g, num_walks=30, walk_length=10, seed=0)
        emb = train_embeddings(walks, vector_size=32, window=3, seed=0)
        vecs = {r["node"]: np.array(r["vector"]) for r in emb.collect()}

        def cos(a, b):
            va, vb = vecs[a], vecs[b]
            return va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb))

        assert cos("t::1", "s::1") > cos("t::1", "s::2")
        assert cos("t::2", "s::2") > cos("t::2", "s::1")


class TestTokenEmbeddings:
    def test_trains_on_sentences(self, spark):
        sents = spark.createDataFrame(
            pd.DataFrame({"tokens": [["a", "b", "c"], ["a", "b", "d"]] * 10})
        )
        wv = train_token_embeddings(sents, vector_size=8, window=2, seed=0)
        words = {r["word"] for r in wv.collect()}
        assert {"a", "b", "c", "d"} <= words

    def test_mean_pool(self, spark):
        wv = spark.createDataFrame(
            pd.DataFrame({"word": ["x", "y"], "vector": [[1.0, 0.0], [0.0, 1.0]]})
        )
        toks = spark.createDataFrame(
            pd.DataFrame({"doc": ["d1", "d1", "d2"], "token": ["x", "y", "x"]})
        )
        out = {r["doc"]: r["vector"] for r in mean_pool(toks, wv).collect()}
        assert out["d1"] == [0.5, 0.5]
        assert out["d2"] == [1.0, 0.0]

    def test_mean_pool_drops_oov_docs(self, spark):
        wv = spark.createDataFrame(pd.DataFrame({"word": ["x"], "vector": [[1.0]]}))
        toks = spark.createDataFrame(
            pd.DataFrame({"doc": ["d1", "d2"], "token": ["x", "zzz"]})
        )
        docs = {r["doc"] for r in mean_pool(toks, wv).collect()}
        assert docs == {"d1"}


class TestFilterToTermCorpus:
    def test_drops_second_only_terms(self, spark):
        t = spark.createDataFrame(pd.DataFrame({"tid": [1], "a": ["alpha"]}))
        s = spark.createDataFrame(pd.DataFrame({"sid": [1], "text": ["alpha zulu"]}))
        g = build_graph(
            spark, TableCorpus("t", t, "tid", ["a"]), TextCorpus("s", s, "sid", "text"),
            max_n=1, auto_order=False, filter_second=False,
        )
        assert data_node_id("zulu") in {r["id"] for r in g.nodes.collect()}
        fg = filter_to_term_corpus(g)
        ids = {r["id"] for r in fg.nodes.collect()}
        assert data_node_id("zulu") not in ids
        assert data_node_id("alpha") in ids

    def test_kb_bridged_term_survives(self, spark):
        t = spark.createDataFrame(pd.DataFrame({"tid": [1], "a": ["alpha"]}))
        s = spark.createDataFrame(pd.DataFrame({"sid": [1], "text": ["alpha zulu"]}))
        g = build_graph(
            spark, TableCorpus("t", t, "tid", ["a"]), TextCorpus("s", s, "sid", "text"),
            max_n=1, auto_order=False, filter_second=False,
        )
        kb = spark.createDataFrame(
            pd.DataFrame({"subject": ["zulu"], "object": ["alpha"]})
        )
        fg = filter_to_term_corpus(g, kb=kb)
        assert data_node_id("zulu") in {r["id"] for r in fg.nodes.collect()}

    def test_matches_build_time_filtering(self, spark):
        t = spark.createDataFrame(
            pd.DataFrame({"tid": [1, 2], "a": ["alpha beta", "gamma"]})
        )
        s = spark.createDataFrame(
            pd.DataFrame({"sid": [1], "text": ["alpha zulu omega"]})
        )
        tc = TableCorpus("t", t, "tid", ["a"])
        sc = TextCorpus("s", s, "sid", "text")
        built = build_graph(spark, tc, sc, max_n=1, auto_order=False, filter_second=True)
        late = filter_to_term_corpus(
            build_graph(spark, tc, sc, max_n=1, auto_order=False, filter_second=False)
        )
        assert {r["id"] for r in built.nodes.collect()} == {
            r["id"] for r in late.nodes.collect()
        }
        eb = {(r["src"], r["dst"]) for r in built.edges.collect()}
        el = {(r["src"], r["dst"]) for r in late.edges.collect()}
        assert eb == el
