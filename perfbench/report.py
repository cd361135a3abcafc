"""Set up one run, drive it, and build the printed report."""
from __future__ import annotations

import os
import sys
import time

from repro.core import pipeline

from . import checks
from .bench import END_TO_END, UNBOUNDED, Runner, end_to_end, per_layer, per_layer_units, timed_loop
from .sparkenv import jvm_pid, vm_hwm_mb
from .tracer import Tracer
from .workloads import WORKLOADS


def run(spark, args, *, t_start: float, t_session: float) -> dict:
    """One benchmark run on a started session; returns the result object.

    Set-up runs from ``t_start`` (process start) until the session is up
    (``t_session``) and the inputs are made. Then the calls start; the timing
    metrics come from the session's first call.
    """
    workload = WORKLOADS[args.workload]
    scale = workload.scale if args.scale is None else args.scale
    run_id = f"perfbench-{workload.name}-{args.seed}-{os.getpid()}"
    runner = Runner(spark, workload, workload.make(spark, scale, args.seed), run_id)
    inputs = runner.inputs
    t_ready = time.perf_counter()
    setup_s = t_ready - t_start

    tracer = Tracer(spark.sparkContext, pipeline, run_id) if args.trace else None
    plain, traced = timed_loop(runner, args.seconds, tracer)
    peak_rss_mb = vm_hwm_mb(jvm_pid(spark)) + vm_hwm_mb(os.getpid())

    # a traced first call counts its jobs under the spans' groups, so a traced
    # run prints the figures of its first untraced call instead
    first = plain[0] if args.trace else runner.calls[0]
    e2e = end_to_end(
        first, n_queries=len(inputs.query_ids), setup_s=setup_s, peak_rss_mb=peak_rss_mb
    )
    err = checks.error_rate(runner.failed, runner.attempted)
    print(f"workload {workload.name}  seed {args.seed}  scale {scale}  "
          f"queries {len(inputs.query_ids)}  targets {len(inputs.target_ids)}")
    print(f"setup_s phases: session {t_session - t_start:.2f} s, "
          f"inputs {t_ready - t_session:.2f} s")
    print(f"calls: untraced {len(plain)}, traced {len(traced)}; "
          f"failed {runner.failed} of {runner.attempted}; digest {runner.digest}")
    print("call seconds, in order: "
          + " ".join(f"{c.seconds:.3f}{'' if c.ok else '(failed)'}" for c in runner.calls))
    warm = [c.seconds for c in plain if c.ok and c is not runner.calls[0]]
    if warm:
        q1, q2, q3 = checks.quartiles(warm)
        print(f"untraced calls after the session's first: median {q2:.3f} s "
              f"(q1 {q1:.3f}, q3 {q3:.3f}, n {len(warm)})")
    if args.trace:
        print("traced run: the first call was traced; the figures below are the first "
              "untraced call's")
    for name, unit in {**END_TO_END, **UNBOUNDED}.items():
        if name in e2e:
            print(f"{name:<20} {e2e[name]:>14.4f} {unit}")
    print(f"{'error_rate':<20} {err:>14.4f} ratio")

    if args.trace:
        layers, absent = per_layer(workload, plain, traced)
        if layers and e2e:
            layers.update({n: e2e[n] for n in UNBOUNDED})
        units = per_layer_units()
        for name, val in layers.items():
            print(f"{name:<32} {val:>14.4f} {units[name]}")
        if absent:
            print(f"[perfbench] absent spans (not reported): {', '.join(absent)}",
                  file=sys.stderr)
        metrics = {n: {"value": v, "unit": units[n]} for n, v in layers.items()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END.items() if n in e2e}
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
