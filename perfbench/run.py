#!/usr/bin/env python3
"""TDmatch pipeline benchmark: one run of one workload.

    python3 perfbench/run.py --workload imdb-wrw --seed 7 --seconds 10 --trace 0

Run from the root of a source checkout. The run starts one local-mode
SparkSession, makes the workload's inputs from ``--seed``, then issues
checked ``run_tdmatch`` calls in a closed loop: the session's first call,
then more while ``--seconds`` have not passed. It prints every metric with its unit, and as its last line a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TMP_DIR = ROOT / ".perfbench_tmp"


def process_start() -> float:
    """``time.perf_counter()`` reading at which this process started."""
    now = time.perf_counter()
    try:
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        with open("/proc/self/stat") as fh:
            # field 22 (starttime) counts clock ticks since boot; split after
            # the parenthesised command name, which may hold spaces
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return now
    return now - max(0.0, uptime - started)


T_START = process_start()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--scale", type=float, default=None,
        help="override the workload's input scale (smoke tests only)",
    )
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import sparkenv

    sparkenv.pin_environment(ROOT, TMP_DIR)
    from perfbench.report import run

    spark = sparkenv.start_session(TMP_DIR)
    try:
        result = run(spark, args, t_start=T_START, t_session=time.perf_counter())
    finally:
        sparkenv.stop_session(spark)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
