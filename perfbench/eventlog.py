"""Attribute Spark's event log to the benchmark's calls.

The traced run writes an uncompressed event log (``spark.eventLog.compress
=false``: Spark 4.1 compresses with zstd by default, and the benchmark
must not depend on a ``zstandard`` module).  Before each timed call the
benchmark sets a job group; a job's group is its ``spark.jobGroup.id``
property, a stage belongs to the first job that lists it, and a task to
its stage.  ``summarize`` then sums, per group:

- engine work from each task's metrics: jobs, tasks, failed tasks,
  executor run time, CPU time, GC time, shuffle bytes written, bytes
  spilled to disk;
- the Spark/Python boundary from the SQL metrics the Python operators
  (``mapInPandas``, ``applyInPandas``) attach to each task: bytes sent to
  and returned from Python workers, worker initialisation time and run
  time.

``spans`` gives each group's wall interval with its stages as child
spans, and ``call_sites`` the task time per stage name (``first at
cpsjoin.py:216``); both go to the trace file only, because stage names
carry line numbers that change with every edit.
"""
from __future__ import annotations

import json
import os
from collections import defaultdict
from pathlib import Path

__all__ = ["read_events", "summarize", "spans", "call_sites", "ENGINE_METRICS"]

_MB = float(1 << 20)

#: Python-operator SQL metric name -> (our metric name, scale to our unit).
#: Sizes are bytes, times milliseconds.
_PY_METRICS = {
    "data sent to Python workers": ("py_sent_mb", 1 / _MB),
    "data returned from Python workers": ("py_returned_mb", 1 / _MB),
    "time to initialize Python workers": ("py_init_s", 1e-3),
    "time to run Python workers": ("py_run_s", 1e-3),
}

#: Per-group metric names, in report order.
ENGINE_METRICS = (
    "spark_jobs",
    "spark_tasks",
    "failed_tasks",
    "task_s",
    "cpu_s",
    "gc_s",
    "shuffle_write_mb",
    "spill_mb",
    "py_sent_mb",
    "py_returned_mb",
    "py_init_s",
    "py_run_s",
)


def read_events(path: str | os.PathLike) -> list[dict]:
    """Parse a JSON-lines event log (one listener event per line).

    ``path`` is a log file or a rolling log directory
    (``eventlog_v2_<app id>``), whose ``events_<n>_<app id>`` parts are
    read in order of ``n``.
    """
    path = Path(path)
    parts = [path]
    if path.is_dir():
        parts = sorted(path.glob("events_*"), key=lambda p: int(p.name.split("_")[1]))
    events = []
    for part in parts:
        with open(part, encoding="utf-8") as f:
            events.extend(json.loads(line) for line in f if line.strip())
    return events


def _stage_groups(events) -> tuple[dict[int, str], dict[str, list[dict]]]:
    """Stage id -> job group, and job group -> its job-start events."""
    stage_group: dict[int, str] = {}
    jobs: dict[str, list[dict]] = defaultdict(list)
    for ev in events:
        if ev.get("Event") != "SparkListenerJobStart":
            continue
        group = (ev.get("Properties") or {}).get("spark.jobGroup.id")
        if group is None:
            continue
        jobs[group].append(ev)
        for sid in ev.get("Stage IDs", ()):
            stage_group.setdefault(sid, group)
    return stage_group, jobs


def _accumulable_value(acc: dict) -> float:
    v = acc.get("Update", 0)
    return float(v) if v not in (None, "") else 0.0


def summarize(events) -> dict[str, dict[str, float]]:
    """``{job group: {metric: value}}`` for every group in ``events``."""
    stage_group, jobs = _stage_groups(events)
    out: dict[str, dict[str, float]] = {
        g: dict.fromkeys(ENGINE_METRICS, 0.0) for g in jobs
    }
    for g, starts in jobs.items():
        out[g]["spark_jobs"] = float(len(starts))
    for ev in events:
        if ev.get("Event") != "SparkListenerTaskEnd":
            continue
        g = stage_group.get(ev.get("Stage ID"))
        if g is None:
            continue
        m = out[g]
        m["spark_tasks"] += 1
        if (ev.get("Task End Reason") or {}).get("Reason") != "Success":
            m["failed_tasks"] += 1
        tm = ev.get("Task Metrics") or {}
        m["task_s"] += tm.get("Executor Run Time", 0) / 1e3
        m["cpu_s"] += tm.get("Executor CPU Time", 0) / 1e9
        m["gc_s"] += tm.get("JVM GC Time", 0) / 1e3
        sw = tm.get("Shuffle Write Metrics") or {}
        m["shuffle_write_mb"] += sw.get("Shuffle Bytes Written", 0) / _MB
        m["spill_mb"] += tm.get("Disk Bytes Spilled", 0) / _MB
        for acc in (ev.get("Task Info") or {}).get("Accumulables", ()):
            hit = _PY_METRICS.get(acc.get("Name"))
            if hit is not None:
                name, scale = hit
                m[name] += _accumulable_value(acc) * scale
    return out


def spans(events) -> dict[str, dict]:
    """Per job group: its wall interval (ms) and one child span per stage."""
    stage_group, jobs = _stage_groups(events)
    job_group = {
        ev["Job ID"]: g for g, starts in jobs.items() for ev in starts
    }
    out: dict[str, dict] = {
        g: {"id": g, "start_ms": min(e["Submission Time"] for e in starts),
            "end_ms": None, "jobs": len(starts), "stages": []}
        for g, starts in jobs.items()
    }
    task_ms: dict[int, float] = defaultdict(float)
    for ev in events:
        kind = ev.get("Event")
        if kind == "SparkListenerJobEnd":
            g = job_group.get(ev.get("Job ID"))
            if g is not None:
                end = ev.get("Completion Time")
                cur = out[g]["end_ms"]
                out[g]["end_ms"] = end if cur is None else max(cur, end)
        elif kind == "SparkListenerTaskEnd":
            task_ms[ev.get("Stage ID")] += (ev.get("Task Metrics") or {}).get(
                "Executor Run Time", 0
            )
        elif kind == "SparkListenerStageCompleted":
            info = ev["Stage Info"]
            g = stage_group.get(info["Stage ID"])
            if g is not None:
                out[g]["stages"].append({
                    "id": info["Stage ID"],
                    "parent": g,
                    "name": info.get("Stage Name", ""),
                    "tasks": info.get("Number of Tasks", 0),
                    "start_ms": info.get("Submission Time"),
                    "end_ms": info.get("Completion Time"),
                })
    for span in out.values():
        for st in span["stages"]:
            st["task_s"] = task_ms.get(st["id"], 0.0) / 1e3
    return out


def call_sites(events) -> dict[str, dict[str, float]]:
    """Per job group: task seconds per stage name, paths cut to file names."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for g, span in spans(events).items():
        for st in span["stages"]:
            name = st["name"]
            verb, sep, where = name.partition(" at ")
            if sep:
                name = f"{verb} at {os.path.basename(where)}"
            out[g][name] += st["task_s"]
    return {g: dict(v) for g, v in out.items()}
