"""DuckDB-oracle equivalence checks for the relational stages of the
pipeline: graph construction joins, filtering semantics, expansion joins,
bucket assignment, and ranking aggregation."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.graph import (
    DATA_PREFIX,
    TableCorpus,
    TextCorpus,
    build_graph,
    filter_to_term_corpus,
)
from repro.core.merge import bucket_label, merge_numeric_buckets
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def corpora(spark):
    t = spark.createDataFrame(
        pd.DataFrame(
            {
                "tid": [1, 2, 3],
                "a": ["alpha beta", "gamma delta", "alpha epsilon"],
                "b": ["red", "blue", "red"],
            }
        )
    )
    s = spark.createDataFrame(
        pd.DataFrame(
            {
                "sid": [1, 2],
                "text": ["alpha red story", "gamma blue omega"],
            }
        )
    )
    return TableCorpus("t", t, "tid", ["a", "b"]), TextCorpus("s", s, "sid", "text")


class TestGraphOracle:
    def test_tuple_term_edges(self, spark, corpora):
        """Tuple-term edges == SQL unnest of per-cell tokens (max_n=1)."""
        table, text = corpora
        g = build_graph(spark, table, text, max_n=1, auto_order=False, filter_second=False)
        got = (
            g.symmetric_edges()
            .where(
                F.col("src").startswith("t::") & F.col("dst").startswith(DATA_PREFIX)
            )
            .select(
                F.expr("substring(src, 4)").alias("tid"),
                F.expr(f"substring(dst, {len(DATA_PREFIX) + 1})").alias("term"),
            )
        )
        tbl = table.df.toPandas()
        sql = """
            WITH cells AS (
              SELECT tid::VARCHAR AS tid, a AS v FROM tbl
              UNION ALL SELECT tid::VARCHAR, b FROM tbl
            )
            SELECT DISTINCT tid, unnest(string_split(v, ' ')) AS term FROM cells
        """
        assert_equivalent(got, sql, tbl=tbl)

    def test_filtering_semantics(self, spark, corpora):
        """§II-B filtering == SQL semi-join of second-corpus terms on first."""
        table, text = corpora
        g = build_graph(spark, table, text, max_n=1, auto_order=False, filter_second=True)
        got = g.nodes.where(F.col("type") == "data").select(
            F.expr(f"substring(id, {len(DATA_PREFIX) + 1})").alias("term")
        )
        tbl, txt = table.df.toPandas(), text.df.toPandas()
        sql = """
            WITH first_terms AS (
              SELECT DISTINCT unnest(string_split(a, ' ')) AS term FROM tbl
              UNION SELECT DISTINCT unnest(string_split(b, ' ')) FROM tbl
            )
            SELECT term FROM first_terms
        """
        assert_equivalent(got, sql, tbl=tbl, txt=txt)

    def test_late_filter_equals_oracle_bridge_set(self, spark, corpora):
        """filter_to_term_corpus keeps exactly first-corpus-adjacent terms."""
        table, text = corpora
        g = build_graph(spark, table, text, max_n=1, auto_order=False, filter_second=False)
        fg = filter_to_term_corpus(g)
        got = fg.nodes.where(F.col("type") == "data").select("id")
        edges = g.edges.toPandas()
        nodes = g.nodes.toPandas()
        sql = """
            WITH sym AS (
              SELECT src, dst FROM edges UNION ALL SELECT dst, src FROM edges
            ), first_meta AS (
              SELECT id FROM nodes WHERE corpus = 't' AND type <> 'data'
            )
            SELECT DISTINCT n.id FROM nodes n
            JOIN sym ON sym.dst = n.id
            JOIN first_meta fm ON fm.id = sym.src
            WHERE n.type = 'data'
        """
        assert_equivalent(got, sql, edges=edges, nodes=nodes)


class TestBucketOracle:
    def test_bucket_assignment_matches_sql(self, spark):
        """Python bucket ids == SQL floor((v - min)/width) binning."""
        vals = [10.0, 11.5, 14.9, 15.0, 22.0, 100.0]
        width, origin = 5.0, 10.0
        got = spark.createDataFrame(
            pd.DataFrame(
                {
                    "v": vals,
                    "bucket": [bucket_label(v, width, origin) for v in vals],
                }
            )
        ).select("v", F.expr("cast(regexp_extract(bucket, 'num\\\\[([-0-9.e+]+),', 1) as double)").alias("lo"))
        sql = """
            SELECT v, 10.0 + 5.0 * floor((v - 10.0) / 5.0) AS lo
            FROM (SELECT unnest([10.0, 11.5, 14.9, 15.0, 22.0, 100.0]) AS v)
        """
        assert_equivalent(got, sql)


class TestRankingOracle:
    def test_haspositive_matches_sql(self, spark):
        ranked = pd.DataFrame(
            {
                "query": ["q1", "q1", "q2", "q2"],
                "target": ["a", "b", "a", "b"],
                "rank": [1, 2, 1, 2],
            }
        )
        truth = pd.DataFrame({"query": ["q1", "q2"], "target": ["b", "a"]})
        from repro.core.metrics import ranking_metrics_pdf

        m = ranking_metrics_pdf(ranked, truth, ks=(1,))
        got = spark.createDataFrame(pd.DataFrame({"hp": [m["HasPositive@1"]]}))
        sql = """
            SELECT COUNT(DISTINCT r.query) * 1.0 /
                   (SELECT COUNT(DISTINCT query) FROM truth) AS hp
            FROM ranked r JOIN truth g
              ON r.query = g.query AND r.target = g.target AND r.rank <= 1
        """
        assert_equivalent(got, sql, ranked=ranked, truth=truth)
