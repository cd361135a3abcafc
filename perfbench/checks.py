"""Correctness checks on ranked output, and the statistics the report uses."""
from __future__ import annotations

import hashlib
import statistics
from typing import Dict, FrozenSet, Sequence

import numpy as np
import pandas as pd

from repro.core.metrics import ranking_metrics_pdf
from repro.oracle import assert_equivalent

SCORE_EPS = 1e-9  # cosine of unit vectors may overshoot 1 by rounding


class OutputError(AssertionError):
    """A ranked output that breaks the rules ``check_ranking`` enforces."""


def check_ranking(
    ranked: pd.DataFrame, *, k: int, query_ids: FrozenSet[str], target_ids: FrozenSet[str]
) -> None:
    """Raise :class:`OutputError` unless ``ranked`` is a well-formed top-k list.

    Every query is ranked, each with exactly ``min(k, #targets)`` rows ranked
    1..k without gaps; ids come from the input corpora; scores are finite, in
    [-1, 1] and non-increasing with rank.
    """
    missing_cols = {"query", "target", "score", "rank"} - set(ranked.columns)
    if missing_cols:
        raise OutputError(f"missing columns {sorted(missing_cols)}")
    q = ranked["query"].astype(str)
    t = ranked["target"].astype(str)
    unknown_q = set(q) - query_ids
    if unknown_q:
        raise OutputError(f"{len(unknown_q)} unknown query ids, e.g. {min(unknown_q)!r}")
    unknown_t = set(t) - target_ids
    if unknown_t:
        raise OutputError(f"{len(unknown_t)} unknown target ids, e.g. {min(unknown_t)!r}")
    missing_q = query_ids - set(q)
    if missing_q:
        raise OutputError(f"{len(missing_q)} queries unranked, e.g. {min(missing_q)!r}")

    scores = ranked["score"].to_numpy(dtype=float)
    if not np.isfinite(scores).all():
        raise OutputError("non-finite score")
    if (np.abs(scores) > 1 + SCORE_EPS).any():
        raise OutputError(f"score outside [-1, 1]: {scores[np.abs(scores) > 1 + SCORE_EPS][0]}")

    want = min(k, len(target_ids))
    df = pd.DataFrame({"query": q, "target": t, "score": scores, "rank": ranked["rank"]})
    df = df.sort_values(["query", "rank"], kind="stable")
    for qid, g in df.groupby("query", sort=False):
        ranks = list(g["rank"])
        if ranks != list(range(1, want + 1)):
            raise OutputError(f"query {qid!r}: ranks {ranks[:5]}... are not 1..{want}")
        if g["target"].nunique() != want:
            raise OutputError(f"query {qid!r}: a target is ranked twice")
        if (np.diff(g["score"].to_numpy()) > SCORE_EPS).any():
            raise OutputError(f"query {qid!r}: scores increase with rank")


def ranking_digest(ranked: pd.DataFrame) -> str:
    """Order-independent digest of a ranked list (scores to 9 decimals)."""
    rows = sorted(
        f"{q}\t{r}\t{t}\t{s:.9f}"
        for q, r, t, s in zip(
            ranked["query"].astype(str), ranked["rank"], ranked["target"].astype(str),
            ranked["score"],
        )
    )
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


class _Frame:
    """Duck-typed stand-in for a Spark DataFrame, as ``assert_equivalent``
    only calls ``toPandas()`` on the result it checks."""

    def __init__(self, pdf: pd.DataFrame):
        self._pdf = pdf

    def toPandas(self) -> pd.DataFrame:
        return self._pdf


QUALITY_SQL = """
WITH gold AS (SELECT DISTINCT CAST(query AS VARCHAR) AS q, CAST(target AS VARCHAR) AS t
              FROM truth),
     qs AS (SELECT DISTINCT q FROM gold),
     hit AS (SELECT r.query AS q, MIN(r.rank) AS first_rank
             FROM ranked r JOIN gold g ON r.query = g.q AND r.target = g.t
             GROUP BY r.query)
SELECT AVG(COALESCE(1.0 / hit.first_rank, 0.0)) AS mrr,
       AVG(CASE WHEN hit.first_rank <= {k} THEN 1.0 ELSE 0.0 END) AS has_positive
FROM qs LEFT JOIN hit ON qs.q = hit.q
"""


def quality(ranked: pd.DataFrame, truth: pd.DataFrame, *, k: int = 20) -> Dict[str, float]:
    """MRR and HasPositive@k from ``ranking_metrics_pdf``, cross-checked in
    DuckDB SQL through ``repro.oracle``; a disagreement raises."""
    m = ranking_metrics_pdf(ranked, truth, ks=(k,))
    got = pd.DataFrame({"mrr": [m["MRR"]], "has_positive": [m[f"HasPositive@{k}"]]})
    r = ranked[["query", "target", "rank"]].astype({"query": str, "target": str})
    assert_equivalent(_Frame(got), QUALITY_SQL.format(k=k), ranked=r, truth=truth)
    return {"mrr": m["MRR"], f"has_positive_at_{k}": m[f"HasPositive@{k}"]}


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def error_rate(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no attempted calls")
    return failed / attempted
