"""Table VIII — Compression performance: graph sizes (#N, #E) and matching
quality (MRR) for Original / Expanded / MSP(0.5) / MSP(0.25) / SSuM(0.1)
on all five scenarios.

As in the paper, the compression variants run on the *expanded* graph and
the MRR is measured on the scenario's matching task. SSuM(0.1) follows the
paper's configuration (compression ratio 0.9, i.e. keep ~10%).
"""
from __future__ import annotations

from typing import Iterator, Tuple

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.compress import msp_compress, ssum_like_compress
from repro.core.expand import expand_graph
from repro.core.graph import Graph, filter_to_term_corpus
from repro.core.metrics import ranking_metrics_pdf
from repro.core.pipeline import TDMatchConfig, embed_graph, match_documents, prepare_graph
from repro.datasets import audit, claims, corona, imdb, sts
from repro.kb.synth_kb import prepare_kb, prepare_synonyms

import os as _os
import sys as _sys

# allow `spark-submit jobs/<job>.py` where sys.path[0] is jobs/
_sys.path.insert(0, _os.path.dirname(_os.path.dirname(_os.path.abspath(__file__))))

from jobs.common import N_WALKS, VEC_SIZE, WALK_LEN, cli_scale, get_spark, print_table

SEED = 0
# compressions of the expanded graph, as run_tdmatch applies them for
# compress=("msp", beta) / ("ssum", r)
COMPRESSIONS = (
    ("MSP(0.5)", lambda g: msp_compress(g, beta=0.5, seed=SEED)),
    ("MSP(0.25)", lambda g: msp_compress(g, beta=0.25, seed=SEED)),
    ("SSuM(0.1)", lambda g: ssum_like_compress(g, ratio=0.1, seed=SEED)),
)


def _scenarios(spark: SparkSession, scale: float):
    im = imdb.generate(spark, scale=scale, seed=7)
    co = corona.generate(spark, scale=scale, seed=11)
    sn = claims.generate_snopes(spark, scale=scale, seed=17)
    po = claims.generate_politifact(spark, scale=scale, seed=19)
    au = audit.generate(spark, scale=scale, seed=13)
    return [
        # (name, query corpus, target corpus, truth, kb, synonyms, window, bucket)
        ("IMDB", im.reviews, im.movies_wt, im.truth, im.kb, im.synonyms, 3, False),
        # Corona runs with numeric bucketing, as in its Table II config
        ("Corona", co.gen, co.table, co.truth_gen, co.kb, co.synonyms, 3, True),
        ("Snopes", sn.claims, sn.facts, sn.truth, sn.kb, sn.synonyms, 15, False),
        ("Politi", po.claims, po.facts, po.truth, po.kb, po.synonyms, 15, False),
        ("Audit", au.docs, au.taxonomy, au.truth, au.kb, au.synonyms, 15, False),
    ]


def variant_graphs(base: Graph, kb: DataFrame) -> Iterator[Tuple[str, Graph]]:
    """(label, graph) per column, each branched from one prepared graph;
    the compressions all run on the one expanded graph. Each graph equals
    the one ``run_tdmatch`` matches on under the column's config."""
    yield "Original", filter_to_term_corpus(base)
    expanded = expand_graph(filter_to_term_corpus(base, kb=kb), kb)
    yield "Expanded", expanded
    for label, compress in COMPRESSIONS:
        yield label, compress(expanded)


def run(spark: SparkSession, *, scale: float = 0.25) -> pd.DataFrame:
    rows = []
    for name, qc, tc, truth, kb_pdf, syn_pdf, window, bucket in _scenarios(spark, scale):
        kb = prepare_kb(spark, kb_pdf)
        syn = prepare_synonyms(spark, syn_pdf)
        truth_pdf = truth.toPandas()
        cfg = TDMatchConfig(
            num_walks=N_WALKS, walk_length=WALK_LEN, vector_size=VEC_SIZE,
            window=window, k=20, seed=SEED,
        )
        base = prepare_graph(spark, qc, tc, synonyms=syn, bucket_numeric=bucket)
        row = {"Dataset": name}
        for label, graph in variant_graphs(base, kb):
            emb = embed_graph(graph, cfg)
            matches = match_documents(emb, graph, qc, tc, cfg.k).toPandas()
            emb.unpersist()
            row[f"{label} #N"] = graph.num_nodes()
            row[f"{label} #E"] = graph.num_edges()
            row[f"{label} MRR"] = round(ranking_metrics_pdf(matches, truth_pdf, ks=(1,))["MRR"], 3)
        rows.append(row)
    return pd.DataFrame(rows)


def main() -> None:
    spark = get_spark("table8_compression")
    print_table("Table VIII: compression performance", run(spark, scale=cli_scale(0.25)))


if __name__ == "__main__":
    main()
