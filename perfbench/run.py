#!/usr/bin/env python3
"""Join benchmark: the four public entry points, timed on one warm SparkSession.

Run from the repository root::

    python3 perfbench/run.py --workload aol-sparse --seed 0 --seconds 20 --trace 0

One process is one closed-loop caller.  It starts a ``local[nproc]``
SparkSession configured as the tests' ``conftest.py`` does (Arrow on,
broadcast joins off) but with 16 shuffle partitions and a fixed driver
heap, generates the workload's input from ``--seed``, computes the exact join
in DuckDB, and warms up all three joins on a small sample of the input.
Then it repeats, while another one fits in ``--seconds`` seconds (at
least once), one iteration of

    preprocess x3 -> cpsjoin -> allpairs -> minhash_lsh_join

Before each timed call it clears Spark's cache and re-caches that call's
inputs (the joins leave DataFrames cached, and a later identical call
would read them), untimed.  After each call it checks the output,
untimed: ``preprocess`` against an in-process embedding, ``allpairs``
against the DuckDB truth through ``oracle.assert_equivalent``, and the
two approximate joins for precision 1 (``cpsjoin`` also for recall
>= 0.9).  Every call of one kind must run the same number of Spark jobs
in every iteration.

The last line of standard output is one JSON object: ``correct``,
``attempted`` (timed calls), ``failed`` (timed calls that raised or failed
a check) and ``metrics``.  A failed check makes the exit code 1.

``--trace 0`` reports the end-to-end metrics (medians over iterations).
``--trace 1`` starts Spark with an uncompressed event log and with
``perfbench.worker_trace`` as the Python daemon module, runs one iteration
with the worker counters off and one with them on, and reports the
per-layer metrics of the second; ``trace_overhead_frac`` is the second
iteration's summed call time over the first's, minus one.  Spans, the
task time per stage call site and every worker counter go to
``.perfbench/trace/<workload>-seed<seed>.json``.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"  # everything a run writes

LAM = 0.5
DRIVER_MEMORY = "3g"
# Not the tests' 64: every Python task spends ~200 ms starting up, so a
# 64-task Python stage costs ~4.5 s on any input and one AOL iteration
# would not fit a run of about a minute.
SHUFFLE_PARTITIONS = 16
PRE_SEED = 0  # preprocess embeddings
JOIN_SEED = 1  # cpsjoin / minhash_lsh_join repetitions
CP_ARGS = dict(t=128, ell=8, limit=250, eps=0.1, delta=0.05, reps=10)
CP_MIN_RECALL = 0.9
WARMUP_SETS = 60

CALLS = ("preprocess", "cpsjoin", "allpairs", "minhash_lsh_join")
#: Timed calls per iteration.  ``preprocess`` takes ~0.5 s, where one
#: sample per run spread by a fifth across runs; the joins take 2-20 s.
REPEATS = {"preprocess": 3}
TIME_METRIC = {
    "preprocess": "preprocess_s",
    "cpsjoin": "cp_join_s",
    "allpairs": "all_join_s",
    "minhash_lsh_join": "mh_join_s",
}
#: Worker-side functions reported per call (``<call>.<function>.calls``).
WORKER_FUNCTIONS = {
    "preprocess": ("embed_many",),
    "cpsjoin": ("cpsjoin_local_rep", "sketch_pass", "jaccard"),
    "allpairs": ("jaccard",),
    "minhash_lsh_join": ("brute_force_pairs_arrays", "sketch_pass", "jaccard"),
}


@dataclasses.dataclass(frozen=True)
class Workload:
    dataset: str
    scale: float
    local_threshold: int  # cpsjoin's per-task bucket budget
    mh_k: int
    mh_reps: int


WORKLOADS = {
    # Rare tokens, ~4 per set: one distributed level fans out into many
    # small buckets, so per-bucket dispatch and exact verification dominate.
    "aol-sparse": Workload("AOL", 0.1, 400, 3, 5),
    # ~185 tokens per set, no distributed level: the sketch filter, the
    # ALLPAIRS pre-candidates and the embedding dominate.
    "netflix-dense": Workload("NETFLIX", 0.25, 4000, 3, 19),
}


# ----------------------------------------------------------------- inputs

def _sets_schema():
    from pyspark.sql import types as T

    return T.StructType([
        T.StructField("sid", T.LongType(), False),
        T.StructField("tokens", T.ArrayType(T.IntegerType(), False), False),
    ])


def generate_input(wl: Workload, seed: int):
    """``(sid, tokens)`` pandas frame of the workload's clone, and its record."""
    from repro import datasets, setsynth

    pdf = setsynth.collection_to_pandas(
        datasets.generate(wl.dataset, seed=seed, scale=wl.scale)
    )
    h = hashlib.sha256()
    for sid, toks in zip(pdf["sid"].tolist(), pdf["tokens"].tolist()):
        h.update(f"{sid}:{','.join(map(str, toks))};".encode())
    sizes = pdf["tokens"].map(len)
    record = {
        "dataset": wl.dataset,
        "scale": wl.scale,
        "seed": seed,
        "sha256": h.hexdigest(),
        "sets": len(pdf),
        "avg_size": round(float(sizes.mean()), 2),
        "local_threshold": wl.local_threshold,
        "mh_k": wl.mh_k,
        "mh_reps": wl.mh_reps,
    }
    return pdf, record


def exact_truth(pdf):
    """DuckDB's exact join of ``pdf`` at ``LAM``: ``(sid_a, sid_b)`` frame."""
    import duckdb
    from repro.exact import exact_join_sql

    con = duckdb.connect()
    try:
        con.register("sets", pdf)
        return con.execute(exact_join_sql(LAM)).fetchdf()
    finally:
        con.close()


def expected_embedding(pdf):
    """In-process ``(mh, sketch)`` of every set, to check ``preprocess``."""
    import numpy as np
    from repro.core.minhash import MinHasher

    hasher = MinHasher(t=CP_ARGS["t"], ell=CP_ARGS["ell"], seed=PRE_SEED)
    mh, sketch = hasher.embed_many([np.asarray(x) for x in pdf["tokens"]])
    return mh, sketch.view(np.int64)


def host_record() -> dict:
    import numpy
    import pandas
    import pyspark

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        # numpy < 2 has no bitwise_count: sketches.popcount takes its
        # byte-lookup-table path.
        "np_bitwise_count": hasattr(numpy, "bitwise_count"),
        "spark_conf": spark_conf(trace=False),
        "driver_memory": DRIVER_MEMORY,
    }


# ------------------------------------------------------------------ spark

def spark_conf(trace: bool) -> dict[str, str]:
    conf = {
        "spark.sql.shuffle.partitions": str(SHUFFLE_PARTITIONS),
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.local.dir": str(WORK / "spark-local"),
    }
    if trace:
        conf.update({
            "spark.eventLog.enabled": "true",
            "spark.eventLog.dir": (WORK / "eventlog").as_uri(),
            "spark.eventLog.compress": "false",
            "spark.python.daemon.module": "perfbench.worker_trace",
        })
    return conf


def start_spark(trace: bool):
    from perfbench.worker_trace import TRACE_DIR_ENV

    cores = len(os.sched_getaffinity(0))
    tmp = WORK / "tmp"
    for d in (tmp, WORK / "spark-local", WORK / "eventlog", WORK / "workers"):
        d.mkdir(parents=True, exist_ok=True)
    # Python workers import repro and perfbench from this checkout.
    paths = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")  # wins over spark.local.dir
    os.environ[TRACE_DIR_ENV] = str(WORK / "workers")
    java_opts = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options {shlex.quote(java_opts)} pyspark-shell"
    )
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for k, v in spark_conf(trace).items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark, end its JVM and wait for every process it started."""
    from pyspark import SparkContext

    spark.stop()
    # The JVM, the Python daemon and its workers.  Once the JVM is gone the
    # others are no longer our descendants, so remember them now.
    started = _descendants(os.getpid())
    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits on EOF from its parent
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    deadline = time.monotonic() + 30
    while (left := [p for p in started if _alive(p)]) and time.monotonic() < deadline:
        time.sleep(0.2)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _stat(pid) -> list[str]:
    """Fields of ``/proc/<pid>/stat`` after the command name: state, ppid, ..."""
    return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()


def _alive(pid: int) -> bool:
    try:
        return _stat(pid)[0] != "Z"
    except OSError:
        return False


def _descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for p in Path("/proc").iterdir():
        if not p.name.isdigit():
            continue
        try:
            ppid = int(_stat(p.name)[1])
        except OSError:
            continue
        children.setdefault(ppid, []).append(int(p.name))
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


def python_worker_peak_mb() -> float:
    """Largest ``VmHWM`` among this process's Python-worker descendants."""
    peak = 0.0
    for pid in _descendants(os.getpid()):
        try:
            cmd = Path(f"/proc/{pid}/cmdline").read_bytes()
            if b"pyspark.daemon" not in cmd and b"worker_trace" not in cmd:
                continue
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    peak = max(peak, int(line.split()[1]) / 1024.0)
        except OSError:
            continue
    return peak


# ------------------------------------------------------------------ calls

class Bench:
    """Timed calls on one SparkSession over one workload's input."""

    def __init__(self, spark, wl: Workload, pdf, truth_pdf, embedding):
        self.spark = spark
        self.sc = spark.sparkContext
        self.wl = wl
        self.pdf = pdf
        self.truth_pdf = truth_pdf
        self.truth = set(zip(truth_pdf["sid_a"].tolist(), truth_pdf["sid_b"].tolist()))
        self.embedding = embedding
        self.sets = spark.createDataFrame(pdf, schema=_sets_schema())
        self.peak_rss_mb = 0.0

    def _fresh_sets(self) -> None:
        self.spark.catalog.clearCache()
        self.sets.cache().count()

    def _inputs(self, call: str) -> dict:
        """Inputs of ``call`` beyond ``sets``: the two MinHash-based joins
        take a cached ``preprocess`` output."""
        from repro.core.preprocess import preprocess

        if call not in ("cpsjoin", "minhash_lsh_join"):
            return {}
        t = CP_ARGS["t"] if call == "cpsjoin" else self.wl.mh_k * self.wl.mh_reps
        pre = preprocess(self.sets, t=t, ell=CP_ARGS["ell"], seed=PRE_SEED).cache()
        pre.count()
        return {"pre": pre}

    def prepare(self, call: str) -> dict:
        """Clear Spark's cache and re-cache ``call``'s inputs, untimed."""
        self._fresh_sets()
        return self._inputs(call)

    def invoke(self, call: str, inputs: dict):
        from repro.baselines.allpairs import allpairs
        from repro.baselines.minhash_lsh import minhash_lsh_join
        from repro.core.cpsjoin import cpsjoin
        from repro.core.preprocess import preprocess

        if call == "preprocess":
            pre = preprocess(
                self.sets, t=CP_ARGS["t"], ell=CP_ARGS["ell"], seed=PRE_SEED
            ).cache()
            pre.count()
            return pre
        if call == "cpsjoin":
            return cpsjoin(
                self.spark, self.sets, LAM, seed=JOIN_SEED,
                local_threshold=self.wl.local_threshold, pre=inputs["pre"],
                **CP_ARGS,
            )
        if call == "allpairs":
            return allpairs(self.spark, self.sets, LAM)
        return minhash_lsh_join(
            self.spark, self.sets, LAM, k=self.wl.mh_k, reps=self.wl.mh_reps,
            ell=CP_ARGS["ell"], delta=CP_ARGS["delta"], seed=JOIN_SEED,
            pre=inputs["pre"],
        )

    def check(self, call: str, result) -> tuple[list[str], dict]:
        """Failures of ``result`` and its counters (recall, pipeline stats)."""
        import numpy as np

        if call == "preprocess":
            got = result.select("sid", "mh", "sketch").toPandas().sort_values("sid")
            mh, sketch = self.embedding
            ok = (
                len(got) == len(self.pdf)
                and np.array_equal(np.stack(got["mh"].to_numpy()), mh)
                and np.array_equal(np.stack(got["sketch"].to_numpy()), sketch)
            )
            return ([] if ok else ["preprocess: embedding differs"]), {}
        counters = {
            "pre_candidates": result.stats.pre_candidates,
            "candidates": result.stats.candidates,
            "results": result.stats.results,
        }
        failures = []
        if call == "allpairs":
            from repro.oracle import assert_equivalent

            try:
                assert_equivalent(
                    result.pairs.select("sid_a", "sid_b"),
                    "SELECT sid_a, sid_b FROM truth",
                    truth=self.truth_pdf,
                )
            except AssertionError as e:
                failures.append(f"allpairs != DuckDB: {str(e)[:200]}")
            return failures, counters
        got = result.pairs.select("sid_a", "sid_b").toPandas()
        pairs = set(zip(got["sid_a"].tolist(), got["sid_b"].tolist()))
        if len(pairs) != len(got) or len(got) != result.n_results:
            failures.append(f"{call}: duplicate pairs or n_results mismatch")
        if pairs - self.truth:
            failures.append(f"{call}: {len(pairs - self.truth)} false positives")
        counters["recall"] = len(pairs & self.truth) / len(self.truth) if self.truth else 1.0
        if call == "cpsjoin":
            counters["levels"] = result.levels
            if counters["recall"] < CP_MIN_RECALL:
                failures.append(f"cpsjoin: recall {counters['recall']:.3f} < {CP_MIN_RECALL}")
        return failures, counters

    def timed_call(self, call: str, group: str, trace_dir: Path | None = None) -> dict:
        from perfbench import worker_trace

        out = {"call": call, "group": group, "failures": [], "counters": {}}
        inputs = self.prepare(call)
        before = worker_trace.snapshot(trace_dir) if trace_dir else None
        self.sc.setJobGroup(group, call)
        try:
            t0 = time.perf_counter()
            result = self.invoke(call, inputs)
            out["seconds"] = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            out["failures"].append(f"{call} raised")
            return out
        finally:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
            self.sc.setLocalProperty("spark.job.description", None)
            out["jobs"] = len(self.sc.statusTracker().getJobIdsForGroup(group))
        if trace_dir:
            out["worker"] = worker_trace.diff(before, worker_trace.snapshot(trace_dir))
        self.peak_rss_mb = max(self.peak_rss_mb, python_worker_peak_mb())
        try:
            out["failures"], out["counters"] = self.check(call, result)
        except Exception:
            traceback.print_exc()
            out["failures"].append(f"{call}: check raised")
        return out

    def iteration(self, tag: str, trace_dir: Path | None = None) -> list[dict]:
        return [
            self.timed_call(c, f"{tag}:{c}:{r}", trace_dir)
            for c in CALLS for r in range(REPEATS.get(c, 1))
        ]

    def warm_up(self) -> None:
        """All three joins on a small sample, untimed and unchecked.

        The sample is below ``aol-sparse``'s ``local_threshold``, so its
        distributed level is not warmed up: the first timed ``cpsjoin``
        there runs 10-20% slower than the next.  Warming the level up too
        costs ~15 s per run, more than a run can spare; for the same
        reason the inputs are cached once, not before every call.
        """
        full = self.sets
        self.sets = self.spark.createDataFrame(
            self.pdf.iloc[:WARMUP_SETS], schema=_sets_schema()
        )
        try:
            self._fresh_sets()
            for call in CALLS:
                t0 = time.perf_counter()
                self.invoke(call, self._inputs(call))
                print(f"[perfbench] warm-up {call}: {time.perf_counter() - t0:.2f} s",
                      file=sys.stderr)
        finally:
            self.sets = full
            self.spark.catalog.clearCache()


# ---------------------------------------------------------------- metrics

def end_to_end(setup_s: float, calls: list[dict], bench: Bench) -> dict:
    m = {"setup_s": (setup_s, "s")}
    for call, name in TIME_METRIC.items():
        # A call that raised has no time; the run then fails anyway.
        xs = [c["seconds"] for c in calls if c["call"] == call and "seconds" in c]
        m[name] = (statistics.median(xs) if xs else 0.0, "s")
    last = {c["call"]: c for c in calls}
    m["cp_recall"] = (last["cpsjoin"]["counters"].get("recall", 0.0), "frac")
    m["mh_recall"] = (last["minhash_lsh_join"]["counters"].get("recall", 0.0), "frac")
    m["worker_peak_rss_mb"] = (bench.peak_rss_mb, "MB")
    ok = sum(1 for c in calls if not c["failures"])
    m["ok_frac"] = (ok / len(calls), "frac")
    return m


def per_layer(traced: list[dict], engine: dict, overhead: float) -> dict:
    m = {}
    for c in traced:
        call = c["call"]
        eng = engine.get(c["group"], {})
        for k, v in eng.items():
            unit = ("count" if k in ("spark_jobs", "spark_tasks", "failed_tasks")
                    else "MB" if k.endswith("_mb") else "s")
            m[f"{call}.{k}"] = (v, unit)
        w = c.get("worker", {})
        for fn in WORKER_FUNCTIONS[call]:
            cnt = w.get(fn, {"calls": 0, "seconds": 0.0})
            m[f"{call}.{fn}.calls"] = (cnt["calls"], "count")
            m[f"{call}.{fn}.task_s"] = (cnt["seconds"], "s")
        ct = c["counters"]
        if call == "cpsjoin":
            m["cpsjoin.levels"] = (ct.get("levels", 0), "count")
        if call != "preprocess":
            for k in ("pre_candidates", "candidates", "results"):
                m[f"{call}.{k}"] = (ct.get(k, 0), "count")
            pre, cand, res = (ct.get(k, 0) for k in
                              ("pre_candidates", "candidates", "results"))
            m[f"{call}.candidate_ratio"] = (cand / pre if pre else 0.0, "ratio")
            m[f"{call}.result_ratio"] = (res / cand if cand else 0.0, "ratio")
    m["trace_overhead_frac"] = (overhead, "frac")
    return m


# ------------------------------------------------------------------- main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=None,
                    help="clone scale instead of the workload's own; "
                         "local_threshold scales with it")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro.core.cpsjoin  # noqa: F401  (fail fast without the program)
    from perfbench import worker_trace

    wl = WORKLOADS[args.workload]
    if args.scale is not None:
        wl = dataclasses.replace(
            wl, scale=args.scale,
            local_threshold=round(wl.local_threshold * args.scale / wl.scale),
        )
    trace = bool(args.trace)
    shutil.rmtree(WORK / "eventlog", ignore_errors=True)
    shutil.rmtree(WORK / "workers", ignore_errors=True)

    t0 = time.perf_counter()
    spark = start_spark(trace)
    session_s = time.perf_counter() - t0
    try:
        # Input, truth and expected embedding: built three times, the
        # median build time counts (session start and warm-up run once).
        data_s = []
        for _ in range(3):
            t1 = time.perf_counter()
            pdf, record = generate_input(wl, args.seed)
            truth_pdf = exact_truth(pdf)
            embedding = expected_embedding(pdf)
            data_s.append(time.perf_counter() - t1)
        bench = Bench(spark, wl, pdf, truth_pdf, embedding)
        t1 = time.perf_counter()
        bench.warm_up()
        warm_s = time.perf_counter() - t1
        setup_s = session_s + statistics.median(data_s) + warm_s
        print(f"[perfbench] {args.workload} seed={args.seed} input={record} "
              f"truth={len(truth_pdf)} pairs; setup {setup_s:.2f} s "
              f"(session {session_s:.2f}, warm-up {warm_s:.2f})", file=sys.stderr)

        trace_dir = WORK / "workers"
        if not trace:
            calls: list[dict] = []
            deadline = time.perf_counter() + args.seconds
            i = 0
            while True:
                t1 = time.perf_counter()
                calls += bench.iteration(f"i{i}")
                i += 1
                if time.perf_counter() + (time.perf_counter() - t1) > deadline:
                    break
            timed = calls
        else:
            plain = bench.iteration("plain")
            (trace_dir / worker_trace.FLAG_NAME).touch()
            traced = bench.iteration("traced", trace_dir)
            timed = plain + traced
    finally:
        stop_spark(spark)

    jobs: dict[str, list] = {}
    for c in timed:
        jobs.setdefault(c["call"], []).append(c.get("jobs"))
    for c in timed:
        if len(set(jobs[c["call"]])) > 1:
            c["failures"].append(f"{c['call']}: Spark job count varied across "
                                 f"iterations: {jobs[c['call']]}")
    failures = [f for c in timed for f in c["failures"]]
    failed = sum(1 for c in timed if c["failures"])
    for f in failures:
        print(f"[perfbench] FAIL {f}", file=sys.stderr)

    if not trace:
        metrics = end_to_end(setup_s, timed, bench)
    else:
        from perfbench import eventlog

        (log,) = [p for p in (WORK / "eventlog").iterdir()
                  if not p.name.startswith((".", "appstatus"))]
        events = eventlog.read_events(log)
        engine = eventlog.summarize(events)
        plain_s = sum(c.get("seconds", 0.0) for c in plain)
        traced_s = sum(c.get("seconds", 0.0) for c in traced)
        overhead = traced_s / plain_s - 1.0 if plain_s else 0.0
        metrics = per_layer(traced, engine, overhead)
        out_dir = WORK / "trace"
        out_dir.mkdir(parents=True, exist_ok=True)
        out = out_dir / f"{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({
            "workload": args.workload,
            "input": record,
            "host": host_record(),
            "setup_s": setup_s,
            "calls": timed,
            "trace_overhead_frac": overhead,
            "engine": engine,
            "spans": eventlog.spans(events),
            "call_sites": eventlog.call_sites(events),
        }, indent=1, default=str))
        print(f"[perfbench] trace written to {out}", file=sys.stderr)

    print(json.dumps({
        "correct": not failures,
        "attempted": len(timed),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
