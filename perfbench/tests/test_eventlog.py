"""Event-log aggregation on a small recorded Spark 4.1 log.

``data/eventlog_small.jsonl`` holds the job, stage and task events (with
the fields the reader uses) of a session that ran:

- job group ``g:python``: ``spark.range(40, numPartitions=2)`` through an
  identity ``mapInPandas``, then ``count()`` (jobs 0 and 1);
- job group ``g:shuffle``: a ``groupBy(...).count().collect()`` (jobs 2, 3);
- a ``count()`` outside any job group (jobs 4 and 5).
"""
import copy
from pathlib import Path

import pytest

from perfbench import eventlog

LOG = Path(__file__).parent / "data" / "eventlog_small.jsonl"


@pytest.fixture(scope="module")
def events():
    return eventlog.read_events(LOG)


def test_jobs_and_tasks_are_attributed_by_job_group(events):
    s = eventlog.summarize(events)
    assert set(s) == {"g:python", "g:shuffle"}  # ungrouped jobs are dropped
    assert s["g:python"]["spark_jobs"] == 2
    assert s["g:python"]["spark_tasks"] == 3
    assert s["g:shuffle"]["spark_jobs"] == 2
    assert s["g:shuffle"]["spark_tasks"] == 3
    assert s["g:python"]["failed_tasks"] == 0


def test_task_metrics_are_summed_in_report_units(events):
    py = eventlog.summarize(events)["g:python"]
    sh = eventlog.summarize(events)["g:shuffle"]
    # Executor run times 2742 + 2749 + 108 ms; GC 17 + 17 + 22 ms.
    assert py["task_s"] == pytest.approx(5.599)
    assert py["gc_s"] == pytest.approx(0.056)
    assert py["cpu_s"] > 0
    # 222 + 224 + 120 ms; 133 + 133 shuffle bytes written.
    assert sh["task_s"] == pytest.approx(0.566)
    assert sh["shuffle_write_mb"] == pytest.approx(266 / 2**20)
    assert sh["spill_mb"] == 0


def test_python_boundary_metrics_come_from_the_python_operator(events):
    py = eventlog.summarize(events)["g:python"]
    assert py["py_sent_mb"] == pytest.approx(704 / 2**20)
    assert py["py_returned_mb"] == pytest.approx(672 / 2**20)
    assert py["py_init_s"] == pytest.approx(1.013)  # 547 + 466 ms
    assert py["py_run_s"] == pytest.approx(4.387)  # 2216 + 2171 ms
    sh = eventlog.summarize(events)["g:shuffle"]
    assert sh["py_run_s"] == 0 and sh["py_sent_mb"] == 0


def test_failed_task_is_counted(events):
    evs = copy.deepcopy(events)
    task = next(e for e in evs if e["Event"] == "SparkListenerTaskEnd")
    task["Task End Reason"] = {"Reason": "ExceptionFailure"}
    assert eventlog.summarize(evs)["g:python"]["failed_tasks"] == 1


def test_spans_hold_stages_as_children(events):
    sp = eventlog.spans(events)
    py = sp["g:python"]
    assert py["jobs"] == 2
    assert [st["id"] for st in py["stages"]] == [0, 2]
    assert all(st["parent"] == "g:python" for st in py["stages"])
    assert py["start_ms"] <= py["stages"][0]["start_ms"]
    assert py["end_ms"] >= py["stages"][-1]["end_ms"]
    assert sum(st["task_s"] for st in py["stages"]) == pytest.approx(5.599)


def test_call_sites_drop_directories(events):
    cs = eventlog.call_sites(events)
    assert cs["g:shuffle"] == {"collect at example_job.py:16": pytest.approx(0.566)}


def test_rolling_log_directory_is_read_in_part_order(tmp_path, events):
    lines = LOG.read_text().splitlines(keepends=True)
    d = tmp_path / "eventlog_v2_local-1"
    d.mkdir()
    (d / "events_10_local-1").write_text("".join(lines[10:]))
    (d / "events_2_local-1").write_text("".join(lines[:10]))
    assert eventlog.read_events(d) == events
