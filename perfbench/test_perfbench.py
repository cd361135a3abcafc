"""Tests of the benchmark's own logic.

    python -m pytest perfbench/ -q -p no:cacheprovider

The smoke tests start ``perfbench/run.py`` as a subprocess at a tiny input
scale, one Spark session each, and take a few minutes in all.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path

import pandas as pd
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks  # noqa: E402
from perfbench.bench import END_TO_END, UNBOUNDED, per_layer_units  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

QUERIES = frozenset({"q1", "q2"})
TARGETS = frozenset({"t1", "t2", "t3"})


def good_ranking() -> pd.DataFrame:
    return pd.DataFrame(
        {
            "query": ["q1", "q1", "q2", "q2"],
            "target": ["t1", "t2", "t3", "t1"],
            "score": [0.9, 0.5, 0.4, -0.2],
            "rank": [1, 2, 1, 2],
        }
    )


def check(df: pd.DataFrame) -> None:
    checks.check_ranking(df, k=2, query_ids=QUERIES, target_ids=TARGETS)


def test_check_accepts_well_formed_ranking():
    check(good_ranking())


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda d: d.assign(rank=[1, 3, 1, 2]), id="rank-gap"),
        pytest.param(lambda d: d.assign(score=[0.5, 0.9, 0.4, -0.2]), id="scores-out-of-order"),
        pytest.param(lambda d: d.assign(target=["t1", "t9", "t3", "t1"]), id="unknown-target"),
        pytest.param(lambda d: d[d["query"] != "q2"], id="missing-query"),
        pytest.param(lambda d: d.assign(query=["q1", "q1", "qx", "qx"]), id="unknown-query"),
        pytest.param(lambda d: d.assign(score=[1.5, 0.5, 0.4, -0.2]), id="score-above-1"),
        pytest.param(lambda d: d.assign(score=[float("nan"), 0.5, 0.4, -0.2]), id="nan-score"),
        pytest.param(lambda d: d.iloc[[0, 2, 3]], id="short-list"),
        pytest.param(lambda d: d.assign(target=["t1", "t1", "t3", "t1"]), id="repeated-target"),
    ],
)
def test_check_rejects_corrupted_ranking(corrupt):
    with pytest.raises(checks.OutputError):
        check(corrupt(good_ranking()))


def test_digest_ignores_row_order_but_not_content():
    d = good_ranking()
    assert checks.ranking_digest(d) == checks.ranking_digest(d.iloc[::-1])
    assert checks.ranking_digest(d) != checks.ranking_digest(d.assign(score=[0.9, 0.5, 0.4, -0.3]))


def test_quality_matches_hand_computed_values():
    truth = pd.DataFrame({"query": ["q1", "q2", "q3"], "target": ["t2", "t3", "t1"]})
    # q1 hits at rank 2, q2 at rank 1, q3 is unranked: MRR (1/2 + 1) / 3
    got = checks.quality(good_ranking(), truth, k=20)
    assert got["mrr"] == pytest.approx(0.5)
    assert got["has_positive_at_20"] == pytest.approx(2 / 3)


def test_statistics_on_fixed_inputs():
    values = list(range(1, 11))
    assert checks.quartiles(values) == (2.75, 5.5, 8.25)
    assert checks.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert checks.error_rate(1, 4) == 0.25
    assert checks.error_rate(0, 7) == 0.0
    with pytest.raises(ValueError):
        checks.error_rate(0, 0)


def test_plain_pytest_run_does_not_collect_the_benchmark():
    ini = tomllib.loads((ROOT / "pyproject.toml").read_text())["tool"]["pytest"]["ini_options"]
    here = Path(__file__).parent
    assert not any((ROOT / p).resolve() == here for p in ini["testpaths"])
    assert not list(here.glob("bench_*.py"))


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "imdb-wrw", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def smoke(workload: str, trace: int) -> tuple[str, dict]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "0.05"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric(workload):
    stdout, result = smoke(workload, trace=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    units = per_layer_units()
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    # every run-level figure is printed in traced runs too
    for name in [*END_TO_END, *UNBOUNDED, "error_rate"]:
        assert any(line.startswith(f"{name} ") for line in stdout.splitlines()), name


def test_smoke_run_reports_end_to_end_metrics():
    _, result = smoke("corona-ex-msp", trace=0)
    assert result["correct"] and result["attempted"] == 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
