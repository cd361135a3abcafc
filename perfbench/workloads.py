"""The benchmark's workloads: inputs made from a seed, plus a fixed config.

The datasets and KB helpers are the load generator; their cost counts toward
set-up. Walk and embedding settings are spelled out as ``TDMatchConfig``
fields, so no ``REPRO_*`` environment variable can change a workload.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Optional

import pandas as pd

from repro.core.pipeline import TDMatchConfig
from repro.datasets import corona, imdb
from repro.kb.synth_kb import prepare_kb, prepare_synonyms

K = 20


@dataclass
class Inputs:
    """What one ``run_tdmatch`` call receives, plus what the checks need."""

    query: object  # corpus whose documents are ranked
    target: object  # corpus ranked against
    kb: Optional[object]
    synonyms: Optional[object]
    truth: pd.DataFrame  # (query, target) as strings
    query_ids: FrozenSet[str]
    target_ids: FrozenSet[str]


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float
    config: TDMatchConfig
    make: Callable[..., Inputs]  # (spark, scale, seed) -> Inputs
    # spans run_tdmatch is expected to open under this config
    spans: FrozenSet[str]


def _ids(corpus) -> FrozenSet[str]:
    pdf = corpus.df.select(corpus.id_col).toPandas()
    return frozenset(pdf[corpus.id_col].astype(str))


def _inputs(query, target, truth, *, kb=None, synonyms=None) -> Inputs:
    return Inputs(
        query=query,
        target=target,
        kb=kb,
        synonyms=synonyms,
        truth=truth.toPandas().astype(str),
        query_ids=_ids(query),
        target_ids=_ids(target),
    )


def imdb_inputs(spark, scale: float, seed: int = 7) -> Inputs:
    """IMDb with-title movies; reviews are the queries (text to data)."""
    sc = imdb.generate(spark, scale=scale, seed=seed)
    return _inputs(
        sc.reviews, sc.movies_wt, sc.truth, synonyms=prepare_synonyms(spark, sc.synonyms)
    )


def corona_inputs(spark, scale: float, seed: int = 11) -> Inputs:
    """CoronaCheck generated sentences ranked against the statistics table."""
    sc = corona.generate(spark, scale=scale, seed=seed)
    return _inputs(
        sc.gen,
        sc.table,
        sc.truth_gen,
        kb=prepare_kb(spark, sc.kb),
        synonyms=prepare_synonyms(spark, sc.synonyms),
    )


def _config(**kw) -> TDMatchConfig:
    base = dict(num_walks=25, walk_length=15, vector_size=64, window=3, k=K, seed=0)
    base.update(kw)
    return TDMatchConfig(**base)


_GRAPH = frozenset({"graph.build", "merge.synonyms", "graph.filter"})
_EMBED = frozenset({"walks", "embed", "match"})

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # the paper's headline text-to-data method at the table jobs' config;
        # graph construction's fixed Spark-action cost dominates
        Workload("imdb-wrw", 1.0, _config(), imdb_inputs, _GRAPH | _EMBED),
        # the paper's walk config (100 walks x 30, dim 300): Word2Vec and the
        # walks do most of the work; not in BENCHMARK.json (see README.md)
        Workload(
            "imdb-paper-walks",
            0.25,
            _config(num_walks=100, walk_length=30, vector_size=300),
            imdb_inputs,
            _GRAPH | _EMBED,
        ),
        # the only workload that runs merge.numeric, expand and compress.msp
        Workload(
            "corona-ex-msp",
            0.5,
            _config(expand=True, bucket_numeric=True, compress=("msp", 0.5)),
            corona_inputs,
            _GRAPH | _EMBED | {"merge.numeric", "expand", "compress.msp"},
        ),
    )
}
