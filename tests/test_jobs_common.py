"""Tests for the job-layer helpers and tiny end-to-end job smoke runs."""
import pandas as pd
import pytest

from jobs.common import ranking_row


class TestRankingRow:
    def test_row_fields(self, spark):
        ranked = spark.createDataFrame(
            pd.DataFrame(
                {"query": ["q"], "target": ["t"], "score": [1.0], "rank": [1]}
            )
        )
        truth = spark.createDataFrame(pd.DataFrame({"query": ["q"], "target": ["t"]}))
        row = ranking_row("X", ranked, truth, ks=(1, 5))
        assert row["Method"] == "X"
        assert row["MRR"] == 1.0
        assert set(row) == {"Method", "MRR", "MAP@1", "MAP@5", "HasPositive@1", "HasPositive@5"}

    def test_rounding(self, spark):
        ranked = spark.createDataFrame(
            pd.DataFrame(
                {"query": ["q", "q", "q"], "target": ["a", "b", "t"],
                 "score": [3.0, 2.0, 1.0], "rank": [1, 2, 3]}
            )
        )
        truth = spark.createDataFrame(pd.DataFrame({"query": ["q"], "target": ["t"]}))
        row = ranking_row("X", ranked, truth, ks=(5,))
        assert row["MRR"] == pytest.approx(0.333, abs=1e-3)


class TestStructuredPipelineSmoke:
    def test_audit_end_to_end_tiny(self, spark):
        """Text-to-structured-text through the full pipeline at micro scale
        (the Table III path: concept hierarchy edges + path metrics)."""
        from repro.core.metrics import path_metrics, root_to_node_paths
        from repro.core.pipeline import TDMatchConfig, run_tdmatch
        from repro.datasets import audit

        sc = audit.generate(spark, scale=0.12, seed=13)
        res = run_tdmatch(
            spark, sc.docs, sc.taxonomy,
            config=TDMatchConfig(num_walks=8, walk_length=8, vector_size=32, window=5, k=3, seed=0),
        )
        paths = root_to_node_paths(sc.taxonomy_pdf)
        m = path_metrics(res.matches.toPandas(), sc.truth.toPandas(), paths, k=3, mode="node")
        assert 0.0 < m["F"] <= 1.0
        # every predicted target is a real concept id
        ids = set(sc.taxonomy_pdf["concept_id"].astype(str))
        assert set(res.matches.toPandas()["target"]) <= ids


class TestTable7Smoke:
    def test_wrw_row_times(self, spark):
        """Table VII's W-RW row at micro scale: both phases take time."""
        from jobs.table7_times import _time_wrw
        from repro.datasets import imdb
        from repro.kb.synth_kb import prepare_synonyms

        sc = imdb.generate(spark, scale=0.05, seed=7)
        row = _time_wrw(
            spark, sc.reviews, sc.movies_wt, prepare_synonyms(spark, sc.synonyms), window=3
        )
        assert row["Train"] > 0
        assert row["Test"] > 0
