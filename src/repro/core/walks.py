"""Random-walk generation over the graph (paper §IV-A, Algorithm 4).

``num_walks`` walks of length ``walk_length`` start from every node; at each
step the next node is a uniformly random neighbour. Each walk becomes a
"sentence" of node ids for Word2Vec.

Implementation: the start-node set is a DataFrame replicated ``num_walks``
times; walk generation runs in ``mapInPandas`` with the adjacency dict
broadcast (graphs here are small — DESIGN.md layering note). Every walk's
RNG is seeded from (global seed, start node, walk index), and walks are
emitted hash-partitioned and sorted by (start node, walk index), so both the
walks and their order depend only on the graph's node and edge sets (and
the session's default parallelism), never on the input's row order.
"""
from __future__ import annotations

import zlib
from typing import Dict, Iterable, List

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .graph import Graph


def walk_from(
    adj: Dict[str, List[str]], start: str, length: int, rng: np.random.Generator
) -> List[str]:
    """One random walk; stops early only at nodes with no neighbours."""
    walk = [start]
    cur = start
    for _ in range(length - 1):
        nbrs = adj.get(cur)
        if not nbrs:
            break
        cur = nbrs[int(rng.integers(len(nbrs)))]
        walk.append(cur)
    return walk


def _walk_seed(seed: int, node: str, walk_idx: int) -> int:
    return (zlib.crc32(node.encode()) * 1_000_003 + walk_idx * 97 + seed) % (2**63)


def generate_walks(
    graph: Graph, *, num_walks: int, walk_length: int, seed: int = 0
) -> DataFrame:
    """DataFrame(walk: array<string>) of num_walks·|nodes| random walks."""
    spark = graph.nodes.sparkSession
    adj = graph.adjacency()
    b_adj = spark.sparkContext.broadcast(adj)

    starts = graph.nodes.select("id").crossJoin(
        spark.range(num_walks).select(F.col("id").alias("walk_idx"))
    )

    def gen(batches: Iterable[pd.DataFrame]):
        a = b_adj.value
        for pdf in batches:
            walks = []
            for node, widx in zip(pdf["id"], pdf["walk_idx"]):
                rng = np.random.default_rng(_walk_seed(seed, node, int(widx)))
                walks.append(walk_from(a, node, walk_length, rng))
            yield pd.DataFrame({"walk": walks})

    # walk (sentence) order must not follow the graph's physical row order
    n_part = spark.sparkContext.defaultParallelism
    return (
        starts.repartition(n_part, "id")
        .sortWithinPartitions("id", "walk_idx")
        .mapInPandas(gen, "walk array<string>")
    )
