"""Table VII — Train and test execution times (seconds) per task.

One representative scenario per task, as the paper averages per task:
text-to-data = CoronaCheck(Gen), structured text = Audit, text-to-text =
Snopes. *Train* is everything done once per corpus pair (graph + walks +
Word2Vec for W-RW; embedding training for W2VEC/D2VEC; feature + LR fitting
for the supervised methods; nothing for pre-trained S-BE). *Test* is the
average time to produce one query's ranked matches.
"""
from __future__ import annotations

import time
from typing import Dict

import pandas as pd
from pyspark.ml.classification import LogisticRegression
from pyspark.ml.functions import array_to_vector, vector_to_array
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from repro.baselines.common import doc_tokens, text_view
from repro.baselines.d2vec import d2vec_match
from repro.baselines.features import PairFeaturizer
from repro.baselines.matchers import lbe_match
from repro.baselines.pretrained import background_model, doc_embeddings
from repro.baselines.rank import _training_pairs
from repro.core.embed import train_token_embeddings
from repro.core.graph import filter_to_term_corpus
from repro.core.match import top_k_matches
from repro.core.pipeline import TDMatchConfig, embed_graph, match_documents, prepare_graph
from repro.datasets import audit, claims, corona
from repro.kb.synth_kb import prepare_synonyms

import os as _os
import sys as _sys

# allow `spark-submit jobs/<job>.py` where sys.path[0] is jobs/
_sys.path.insert(0, _os.path.dirname(_os.path.dirname(_os.path.abspath(__file__))))

from jobs.common import N_WALKS, VEC_SIZE, WALK_LEN, cli_scale, get_spark, print_table

K = 20


def _count(df: DataFrame) -> int:
    return df.count()


def _time_embedding_method(spark, qc, tc, *, inject_docids: bool) -> Dict[str, float]:
    """W2VEC (mean-pooled) or D2VEC (doc-token) train/test times."""
    qv, tv = text_view(qc), text_view(tc)
    t0 = time.time()
    if inject_docids:
        from repro.baselines.d2vec import _inject

        corpus = _inject(qv, side="q", window=5).unionByName(_inject(tv, side="t", window=5))
    else:
        corpus = doc_tokens(qv).select("tokens").unionByName(doc_tokens(tv).select("tokens"))
    wv = train_token_embeddings(corpus, vector_size=VEC_SIZE, window=5, min_count=1, seed=0).cache()
    _count(wv)
    train = time.time() - t0

    t0 = time.time()
    if inject_docids:
        pre_q, pre_t = "docid::q::", "docid::t::"
        q = wv.where(F.col("word").startswith(pre_q)).select(
            F.expr(f"substring(word, {len(pre_q) + 1})").alias("node"), "vector"
        )
        t = wv.where(F.col("word").startswith(pre_t)).select(
            F.expr(f"substring(word, {len(pre_t) + 1})").alias("node"), "vector"
        )
    else:
        q = doc_embeddings(qv, wv).withColumnRenamed("doc", "node")
        t = doc_embeddings(tv, wv).withColumnRenamed("doc", "node")
    n_q = _count(top_k_matches(q, t, k=K))
    test = (time.time() - t0) / max(1, n_q // K)
    wv.unpersist()
    return {"Train": train, "Test": test}


def _time_sbe(spark, qc, tc) -> Dict[str, float]:
    wv = background_model(spark, seed=0)  # pre-trained: not counted as train
    t0 = time.time()
    q = doc_embeddings(text_view(qc), wv).withColumnRenamed("doc", "node")
    t = doc_embeddings(text_view(tc), wv).withColumnRenamed("doc", "node")
    n = _count(top_k_matches(q, t, k=K))
    return {"Train": float("nan"), "Test": (time.time() - t0) / max(1, n // K)}


def _time_wrw(spark, qc, tc, synonyms, *, window: int) -> Dict[str, float]:
    cfg = TDMatchConfig(
        num_walks=N_WALKS, walk_length=WALK_LEN, vector_size=VEC_SIZE, window=window, k=K
    )
    t0 = time.time()
    g = filter_to_term_corpus(prepare_graph(spark, qc, tc, synonyms=synonyms))
    emb = embed_graph(g, cfg)
    _count(emb)
    train = time.time() - t0

    t0 = time.time()
    n = _count(match_documents(emb, g, qc, tc, K))
    test = (time.time() - t0) / max(1, n // K)
    emb.unpersist()
    return {"Train": train, "Test": test}


def _time_classifier(spark, qc, tc, truth, *, features, bg=None, own=None) -> Dict[str, float]:
    fz = PairFeaturizer(spark, qc, tc, features=features, bg_vectors=bg, own_vectors=own)
    truth_pdf = truth.select(
        F.col("query").cast("string"), F.col("target").cast("string")
    ).toPandas()
    queries = sorted(set(fz.q_tokens) & set(truth_pdf["query"]))
    train_q = queries[: max(1, int(len(queries) * 0.6))]

    t0 = time.time()
    tp = _training_pairs(fz, truth_pdf, train_q, seed=0)
    train_df = fz.featurize(spark.createDataFrame(tp)).withColumn("f", array_to_vector("features"))
    model = LogisticRegression(featuresCol="f", labelCol="label", maxIter=50, regParam=0.01).fit(train_df)
    train = time.time() - t0

    t0 = time.time()
    feat = fz.featurize(fz.all_pairs()).withColumn("f", array_to_vector("features"))
    scored = model.transform(feat).select(
        "query", "target", F.element_at(vector_to_array("probability"), 2).alias("score")
    )
    w = Window.partitionBy("query").orderBy(F.desc("score"), F.asc("target"))
    n = _count(scored.withColumn("rank", F.row_number().over(w)).where(F.col("rank") <= K))
    test = (time.time() - t0) / max(1, n // K)
    return {"Train": train, "Test": test}


def run(spark: SparkSession, *, scale: float = 0.3) -> pd.DataFrame:
    bg = background_model(spark, seed=0)
    rows = []

    # --- text to data: CoronaCheck Gen ---
    co = corona.generate(spark, scale=scale, seed=11)
    syn = prepare_synonyms(spark, co.synonyms)
    task = "Text to data"
    rows.append({"Task": task, "Method": "W2VEC", **_time_embedding_method(spark, co.gen, co.table, inject_docids=False)})
    rows.append({"Task": task, "Method": "D2VEC", **_time_embedding_method(spark, co.gen, co.table, inject_docids=True)})
    rows.append({"Task": task, "Method": "S-BE", **_time_sbe(spark, co.gen, co.table)})
    rows.append({"Task": task, "Method": "W-RW", **_time_wrw(spark, co.gen, co.table, syn, window=3)})
    rows.append({"Task": task, "Method": "RANK*", **_time_classifier(spark, co.gen, co.table, co.truth_gen, features=["tfidf_cos", "jaccard", "overlap", "rare", "bg_cos"], bg=bg)})
    rows.append({"Task": task, "Method": "DITTO*", **_time_classifier(spark, co.gen, co.table, co.truth_gen, features=["tfidf_cos", "jaccard", "rare", "num_match"])})
    rows.append({"Task": task, "Method": "DEEP-M*", **_time_classifier(spark, co.gen, co.table, co.truth_gen, features=["jaccard", "overlap"],)})
    rows.append({"Task": task, "Method": "TAPAS*", **_time_classifier(spark, co.gen, co.table, co.truth_gen, features=["bg_cos", "overlap", "num_match"], bg=bg)})

    # --- structured text: Audit ---
    au = audit.generate(spark, scale=scale, seed=13)
    syn = prepare_synonyms(spark, au.synonyms)
    task = "Structured text"
    rows.append({"Task": task, "Method": "W2VEC", **_time_embedding_method(spark, au.docs, au.taxonomy, inject_docids=False)})
    rows.append({"Task": task, "Method": "D2VEC", **_time_embedding_method(spark, au.docs, au.taxonomy, inject_docids=True)})
    rows.append({"Task": task, "Method": "S-BE", **_time_sbe(spark, au.docs, au.taxonomy)})
    rows.append({"Task": task, "Method": "W-RW", **_time_wrw(spark, au.docs, au.taxonomy, None, window=15)})
    t0 = time.time()
    lbe = lbe_match(spark, au.docs, au.taxonomy, au.truth, k=10, n_folds=5)
    n = lbe.count()
    rows.append({"Task": task, "Method": "L-BE*", "Train": time.time() - t0, "Test": (time.time() - t0) / max(1, n // 10)})
    rows.append({"Task": task, "Method": "RANK*", **_time_classifier(spark, au.docs, au.taxonomy, au.truth, features=["tfidf_cos", "jaccard", "overlap", "rare", "bg_cos"], bg=bg)})

    # --- text to text: Snopes ---
    sn = claims.generate_snopes(spark, scale=scale, seed=17)
    syn = prepare_synonyms(spark, sn.synonyms)
    task = "Text to text"
    rows.append({"Task": task, "Method": "W2VEC", **_time_embedding_method(spark, sn.claims, sn.facts, inject_docids=False)})
    rows.append({"Task": task, "Method": "D2VEC", **_time_embedding_method(spark, sn.claims, sn.facts, inject_docids=True)})
    rows.append({"Task": task, "Method": "S-BE", **_time_sbe(spark, sn.claims, sn.facts)})
    rows.append({"Task": task, "Method": "W-RW", **_time_wrw(spark, sn.claims, sn.facts, syn, window=15)})
    rows.append({"Task": task, "Method": "RANK*", **_time_classifier(spark, sn.claims, sn.facts, sn.truth, features=["tfidf_cos", "jaccard", "overlap", "rare", "bg_cos"], bg=bg)})

    pdf = pd.DataFrame(rows)
    pdf["Train"] = pdf["Train"].round(2)
    pdf["Test"] = pdf["Test"].round(4)
    return pdf


def main() -> None:
    spark = get_spark("table7_times")
    print_table("Table VII: train/test execution times (sec)", run(spark, scale=cli_scale(0.3)))


if __name__ == "__main__":
    main()
