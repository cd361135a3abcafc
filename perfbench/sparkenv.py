"""A pinned local-mode SparkSession, Spark job accounting and memory probes.

Everything that could let the host, rather than the program, set a number is
fixed here: the master is ``local[<nproc>]``, the driver heap is explicit,
shuffle partitions, Arrow and broadcast joins match the test fixture, and all
scratch space (``spark.local.dir``, ``java.io.tmpdir``, Python's ``TMPDIR``)
lives under one directory inside the checkout.
"""
from __future__ import annotations

import os
import shlex
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

DRIVER_MEMORY = "4g"
SHUFFLE_PARTITIONS = 8


def pin_environment(root: Path, tmp_dir: Path) -> None:
    """Set what must be in place before the JVM starts.

    ``PYTHONPATH`` lets PySpark workers import ``repro``; the submit args are
    replaced rather than inherited so no outside setting changes the session.
    """
    tmp_dir.mkdir(parents=True, exist_ok=True)
    src = str(root / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join([src, str(root)])
    os.environ["TMPDIR"] = str(tmp_dir)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp_dir)
    for var in ("PYSPARK_GATEWAY_PORT", "PYSPARK_GATEWAY_SECRET", "SPARK_CONF_DIR"):
        os.environ.pop(var, None)
    # no hsperfdata file under /tmp, for the driver and the launcher JVM
    java_opts = f"-Djava.io.tmpdir={tmp_dir} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{os.cpu_count() or 1}]",
            f"--driver-memory {DRIVER_MEMORY}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={shlex.quote(str(tmp_dir))}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "pyspark-shell",
        ]
    )


def start_session(tmp_dir: Path):
    import tempfile

    from pyspark.sql import SparkSession

    tempfile.tempdir = str(tmp_dir)
    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark, then close the gateway JVM and wait until it has exited."""
    sc = spark.sparkContext
    gateway = sc._gateway
    proc: Optional[subprocess.Popen] = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        # the gateway JVM exits when its stdin closes
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


def jvm_pid(spark) -> int:
    return int(spark._jvm.java.lang.ProcessHandle.current().pid())


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


@dataclass(frozen=True)
class JobCounts:
    jobs: int
    stages: int
    tasks: int


def clear_job_group(sc) -> None:
    sc.setLocalProperty("spark.jobGroup.id", None)
    sc.setLocalProperty("spark.job.description", None)


def job_counts(sc, group_id: str) -> JobCounts:
    """Jobs, stages and tasks Spark ran under ``group_id``.

    Stages count every stage id of every job (skipped ones too, so the figure
    depends only on the plan); tasks count the tasks of stages that ran.
    """
    tracker = sc.statusTracker()
    job_ids: List[int] = list(tracker.getJobIdsForGroup(group_id))
    stage_ids = set()
    for jid in job_ids:
        info = tracker.getJobInfo(jid)
        if info is None:
            raise RuntimeError(f"job {jid} of group {group_id} is no longer tracked")
        stage_ids.update(info.stageIds)
    tasks = 0
    for sid in stage_ids:
        info = tracker.getStageInfo(sid)
        if info is not None:
            tasks += info.numCompletedTasks
    return JobCounts(len(job_ids), len(stage_ids), tasks)
