"""End-to-end pipeline tests: invariants + the paper's headline claims at
test scale (W-RW beats the pre-trained substitute on domain tasks, the
toy Example 1 matches correctly, compression keeps metadata matchable)."""
import itertools

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.metrics import ranking_metrics_pdf
from repro.core.pipeline import (
    TDMatchConfig,
    embed_graph,
    match_documents,
    prepare_graph,
    run_tdmatch,
)
from repro.datasets import corona, imdb
from repro.kb.synth_kb import prepare_kb, prepare_synonyms


CFG = dict(num_walks=12, walk_length=10, vector_size=48, window=3, k=10, seed=0)


@pytest.fixture(scope="module")
def imdb_sc(spark):
    return imdb.generate(spark, scale=0.08, seed=7)


@pytest.fixture(scope="module")
def imdb_wrw(spark, imdb_sc):
    syn = prepare_synonyms(spark, imdb_sc.synonyms)
    return run_tdmatch(
        spark, imdb_sc.reviews, imdb_sc.movies_wt,
        config=TDMatchConfig(**CFG), synonyms=syn,
    )


@pytest.fixture(scope="module")
def imdb_msp(spark, imdb_sc):
    return run_tdmatch(
        spark, imdb_sc.reviews, imdb_sc.movies_wt,
        config=TDMatchConfig(expand=True, compress=("msp", 0.5), **CFG),
        kb=prepare_kb(spark, imdb_sc.kb),
        synonyms=prepare_synonyms(spark, imdb_sc.synonyms),
    )


@pytest.fixture(scope="module")
def imdb_table8(spark, imdb_sc):
    """Table VIII's Original / Expanded / MSP(0.5) graphs, label -> graph,
    branched from one prepared graph as the Table VIII job does."""
    from jobs.table8_compression import variant_graphs

    base = prepare_graph(
        spark, imdb_sc.reviews, imdb_sc.movies_wt,
        synonyms=prepare_synonyms(spark, imdb_sc.synonyms),
    )
    return dict(itertools.islice(variant_graphs(base, prepare_kb(spark, imdb_sc.kb)), 3))


def _ordered(matches: pd.DataFrame) -> pd.DataFrame:
    return matches.sort_values(["query", "rank"]).reset_index(drop=True)


class TestPipelineInvariants:
    def test_k_rows_per_query(self, imdb_sc, imdb_wrw):
        pdf = imdb_wrw.matches.toPandas()
        n_targets = len(imdb_sc.movies_pdf)
        expected = min(10, n_targets)
        assert (pdf.groupby("query").size() == expected).all()

    def test_every_review_ranked(self, imdb_sc, imdb_wrw):
        pdf = imdb_wrw.matches.toPandas()
        assert set(pdf["query"].astype(int)) == set(imdb_sc.reviews_pdf["rid"])

    def test_targets_are_movie_ids(self, imdb_sc, imdb_wrw):
        pdf = imdb_wrw.matches.toPandas()
        assert set(pdf["target"].astype(int)) <= set(imdb_sc.movies_pdf["mid"])

    def test_deterministic(self, spark, imdb_sc):
        syn = prepare_synonyms(spark, imdb_sc.synonyms)
        a = run_tdmatch(
            spark, imdb_sc.reviews, imdb_sc.movies_wt,
            config=TDMatchConfig(**CFG), synonyms=syn,
        ).matches.toPandas().sort_values(["query", "rank"]).reset_index(drop=True)
        b = run_tdmatch(
            spark, imdb_sc.reviews, imdb_sc.movies_wt,
            config=TDMatchConfig(**CFG), synonyms=syn,
        ).matches.toPandas().sort_values(["query", "rank"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)

    def test_expand_requires_kb(self, spark, imdb_sc):
        """A bad config fails before any Spark job runs."""
        sc = spark.sparkContext
        for i, bad in enumerate(
            [TDMatchConfig(expand=True, **CFG), TDMatchConfig(compress=("zip", 0.5), **CFG)]
        ):
            group = f"bad-config-{i}"
            sc.setJobGroup(group, group)
            try:
                with pytest.raises(ValueError):
                    run_tdmatch(spark, imdb_sc.reviews, imdb_sc.movies_wt, config=bad)
            finally:
                sc.setLocalProperty("spark.jobGroup.id", None)
            assert sc.statusTracker().getJobIdsForGroup(group) == []

    def test_collect_sizes(self, imdb_table8):
        assert list(imdb_table8) == ["Original", "Expanded", "MSP(0.5)"]
        for graph in imdb_table8.values():
            assert graph.num_nodes() > 0 and graph.num_edges() > 0

    def test_compression_sizes_shrink(self, imdb_table8):
        assert imdb_table8["MSP(0.5)"].num_edges() <= imdb_table8["Expanded"].num_edges()

    def test_table8_branches_match_run_tdmatch(
        self, spark, imdb_sc, imdb_wrw, imdb_msp, imdb_table8
    ):
        """Table VIII's variants, branched from one prepared graph, rank
        exactly as a fresh run_tdmatch with the matching config."""
        q, t = imdb_sc.reviews, imdb_sc.movies_wt
        expanded = run_tdmatch(
            spark, q, t, config=TDMatchConfig(expand=True, **CFG),
            kb=prepare_kb(spark, imdb_sc.kb),
            synonyms=prepare_synonyms(spark, imdb_sc.synonyms),
        )
        fresh = {"Original": imdb_wrw, "Expanded": expanded, "MSP(0.5)": imdb_msp}
        assert list(imdb_table8) == list(fresh)
        cfg = TDMatchConfig(**CFG)
        for label, graph in imdb_table8.items():
            emb = embed_graph(graph, cfg)
            got = match_documents(emb, graph, q, t, cfg.k).toPandas()
            emb.unpersist()
            pd.testing.assert_frame_equal(
                _ordered(got), _ordered(fresh[label].matches.toPandas()), obj=label
            )

    def test_compressed_still_ranks_all_queries(self, imdb_sc, imdb_msp):
        pdf = imdb_msp.matches.toPandas()
        assert set(pdf["query"].astype(int)) == set(imdb_sc.reviews_pdf["rid"])


class TestHeadlineClaims:
    def test_wrw_beats_pretrained_on_domain_task(self, spark, imdb_sc, imdb_wrw):
        """Paper Table I: W-RW >> S-BE on IMDb (domain-specific vocab)."""
        from repro.baselines.pretrained import sbe_match

        truth = imdb_sc.truth.toPandas()
        m_wrw = ranking_metrics_pdf(imdb_wrw.matches.toPandas(), truth, ks=(5,))
        sbe = sbe_match(spark, imdb_sc.reviews, imdb_sc.movies_wt, k=10)
        m_sbe = ranking_metrics_pdf(sbe.toPandas(), truth, ks=(5,))
        assert m_wrw["MRR"] > m_sbe["MRR"] + 0.2

    def test_wrw_quality_floor(self, spark, imdb_sc, imdb_wrw):
        truth = imdb_sc.truth.toPandas()
        m = ranking_metrics_pdf(imdb_wrw.matches.toPandas(), truth, ks=(5,))
        assert m["MRR"] > 0.4  # well above random over ~30 tuples

    def test_corona_bucketing_pipeline_runs(self, spark):
        sc = corona.generate(spark, scale=0.25, seed=11)
        syn = prepare_synonyms(spark, sc.synonyms)
        res = run_tdmatch(
            spark, sc.gen, sc.table,
            config=TDMatchConfig(bucket_numeric=True, **CFG), synonyms=syn,
        )
        m = ranking_metrics_pdf(
            res.matches.toPandas(), sc.truth_gen.toPandas(), ks=(5,)
        )
        assert m["MRR"] > 0.3


class TestExample1:
    def test_paper_example_matches(self, spark):
        """Figure 1: review p1 (Bruce Willis + comedy + Tarantino) must match
        the Pulp Fiction tuple, the other review the Sixth Sense tuple."""
        from repro.core.graph import TableCorpus, TextCorpus

        movies = spark.createDataFrame(
            pd.DataFrame(
                {
                    "mid": [1, 2],
                    "title": ["The Sixth Sense", "Pulp Fiction"],
                    "director": ["Shyamalan", "Tarantino"],
                    "actor": ["B. Willis", "B. Willis"],
                    "rate": ["PG", "R"],
                    "genre": ["Thriller", "Drama"],
                }
            )
        )
        reviews = spark.createDataFrame(
            pd.DataFrame(
                {
                    "rid": [1, 2],
                    "text": [
                        "I think the first part of Bruce Willis story is bland, "
                        "not to mention the comedy in this film by Tarantino",
                        "In a key scene Willis asks Osment what he wants most, "
                        "received a PG rating, the sixth sense is a thriller by Shyamalan",
                    ],
                }
            )
        )
        res = run_tdmatch(
            spark,
            TextCorpus("reviews", reviews, "rid", "text"),
            TableCorpus("movies", movies, "mid", ["title", "director", "actor", "rate", "genre"]),
            config=TDMatchConfig(num_walks=40, walk_length=10, vector_size=32, window=3, k=1, seed=0),
        )
        top = {r["query"]: r["target"] for r in res.matches.collect()}
        assert top == {"1": "2", "2": "1"}
