"""Shared plumbing for the table-reproduction jobs.

Each ``jobs/tableN_*.py`` exposes ``run(spark, scale=...) -> pandas.DataFrame``
returning the same rows the paper's table reports, and a ``main()`` so it
can be launched with ``spark-submit jobs/tableN_*.py [scale]``. Benchmarks
wrap the same ``run`` functions. Paper-vs-measured numbers are recorded in
EXPERIMENTS.md.
"""
from __future__ import annotations

import os
import sys
from typing import Dict

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.metrics import ranking_metrics_pdf

# scaled-down defaults of the paper's embedding configuration (100 walks of
# length 30, dim 300) sized for a single local-mode session
N_WALKS = int(os.environ.get("REPRO_WALKS", "25"))
WALK_LEN = int(os.environ.get("REPRO_WALK_LEN", "15"))
VEC_SIZE = int(os.environ.get("REPRO_VEC_SIZE", "64"))


def get_spark(app: str) -> SparkSession:
    """Session for standalone spark-submit runs (tests use the conftest
    fixture instead; getOrCreate reuses an existing session if any)."""
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "8"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )


def ranking_row(method: str, ranked: DataFrame, truth: DataFrame, *, ks=(1, 5, 20)) -> Dict:
    """One table row: MRR + MAP@k + HasPositive@k for a ranked matching."""
    m = ranking_metrics_pdf(ranked.toPandas(), truth.toPandas(), ks=ks)
    row = {"Method": method, "MRR": round(m["MRR"], 3)}
    for k in ks:
        row[f"MAP@{k}"] = round(m[f"MAP@{k}"], 3)
    for k in ks:
        row[f"HasPositive@{k}"] = round(m[f"HasPositive@{k}"], 3)
    return row


def print_table(title: str, pdf: pd.DataFrame) -> pd.DataFrame:
    print(f"\n=== {title} ===")
    print(pdf.to_string(index=False))
    return pdf


def cli_scale(default: float) -> float:
    if len(sys.argv) > 1:
        return float(sys.argv[1])
    return float(os.environ.get("REPRO_SCALE", default))
