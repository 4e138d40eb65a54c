"""Per-function call counters inside Spark's Python workers.

The traced run sets ``spark.python.daemon.module=perfbench.worker_trace``,
so Spark starts its Python worker daemon as ``python -m
perfbench.worker_trace pyspark.worker``.  (``spark.python.worker.module``
is no alternative: pyspark 4.1.2's ``pyspark.daemon`` ignores a worker
module whose name does not start with ``pyspark``.)  Before the daemon
starts, this module:

- wraps ``pyspark.worker.send_accumulator_updates`` so that every worker
  writes its cumulative counters to ``<trace dir>/w-<pid>-<token>.json``
  after the task's user code has finished and before the JVM can see the
  task end;
- wraps ``pyspark.worker.read_udfs`` so that, once a task has arrived
  and before its functions are unpickled, a worker whose trace directory
  holds the ``on`` flag file wraps the public functions of the layer
  modules (``WRAPPED_MODULES``) and rebinds every name other ``repro``
  modules imported from them.  Tasks that run while the flag is absent
  run the unwrapped functions.  (The check cannot sit at the start of
  the daemon's ``worker_main``: a reused worker enters that right after
  its previous task and then waits there for the next one.)

A wrapper counts calls and sums wall time (``time.perf_counter``) under
the function's bare name; a nested call (``sketch_pass`` calling
``popcount``) is counted under both names, and the outer time includes
the inner one.

On the Spark driver, ``snapshot`` sums the files of all workers and
``diff`` subtracts the snapshot taken before a call from the one taken
after it.  Calls run one at a time, so the difference is that call's work.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import uuid
from pathlib import Path

__all__ = ["TRACE_DIR_ENV", "FLAG_NAME", "WRAPPED_MODULES", "install", "snapshot", "diff"]

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
FLAG_NAME = "on"
WRAPPED_MODULES = (
    "repro.core.minhash",
    "repro.core.cpsjoin_local",
    "repro.core.sketches",
    "repro.core.verify",
)


class Counters:
    """Calls and summed seconds per wrapped function name."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}

    def wrap(self, name: str, fn):
        calls, seconds = self.calls, self.seconds
        calls.setdefault(name, 0)
        seconds.setdefault(name, 0.0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - t0
                calls[name] += 1

        return counted

    def as_dict(self) -> dict[str, dict[str, float]]:
        return {
            n: {"calls": self.calls[n], "seconds": self.seconds[n]} for n in self.calls
        }


def install(counters: Counters, modules=WRAPPED_MODULES) -> None:
    """Wrap the public functions of ``modules`` and rebind their imports.

    Functions named in a module's ``__all__`` are replaced by counting
    wrappers; so are the public methods of classes named there
    (``MinHasher.embed_many``).  Every already-imported ``repro`` module
    that bound one of the originals under any name gets the wrapper
    instead.
    """
    swapped: dict = {}
    for mod_name in modules:
        mod = importlib.import_module(mod_name)
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr)
            if inspect.isfunction(obj):
                swapped[obj] = counters.wrap(attr, obj)
                setattr(mod, attr, swapped[obj])
            elif inspect.isclass(obj) and obj.__module__ == mod_name:
                for meth, fn in vars(obj).items():
                    if inspect.isfunction(fn) and not meth.startswith("_"):
                        setattr(obj, meth, counters.wrap(meth, fn))
    for name, mod in list(sys.modules.items()):
        if not name.startswith("repro") or mod is None:
            continue
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in swapped:
                setattr(mod, attr, swapped[val])


def snapshot(trace_dir: str | os.PathLike) -> dict[str, dict[str, float]]:
    """Sum the counter files of every worker in ``trace_dir``."""
    total: dict[str, dict[str, float]] = {}
    for path in sorted(Path(trace_dir).glob("w-*.json")):
        for name, c in json.loads(path.read_text()).items():
            t = total.setdefault(name, {"calls": 0, "seconds": 0.0})
            t["calls"] += c["calls"]
            t["seconds"] += c["seconds"]
    return total


def diff(before: dict, after: dict) -> dict[str, dict[str, float]]:
    """Per-function counters accrued between two snapshots.

    A function that did not run in between is reported with zero calls.
    Counters only grow, so a negative difference means a worker's file
    was lost or rewritten; it is an error, not a measurement.
    """
    out = {}
    for name in sorted(set(before) | set(after)):
        a = after.get(name, {"calls": 0, "seconds": 0.0})
        b = before.get(name, {"calls": 0, "seconds": 0.0})
        calls = a["calls"] - b["calls"]
        if calls < 0:
            raise ValueError(f"counter {name!r} went backwards: {b} -> {a}")
        out[name] = {"calls": calls, "seconds": max(0.0, a["seconds"] - b["seconds"])}
    return out


def _write_atomic(path: Path, data: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data))
    os.replace(tmp, path)


def _run_daemon() -> None:
    import pyspark.daemon as daemon
    import pyspark.worker as worker

    trace_dir = Path(os.environ[TRACE_DIR_ENV])
    flag = trace_dir / FLAG_NAME
    counters = Counters()
    state = {"installed": False, "path": None}

    send_updates = worker.send_accumulator_updates
    read_udfs = worker.read_udfs

    def flushing_send_updates(outfile):
        if state["installed"]:
            if state["path"] is None:  # first flush after the fork
                state["path"] = trace_dir / f"w-{os.getpid()}-{uuid.uuid4().hex[:8]}.json"
            _write_atomic(state["path"], counters.as_dict())
        send_updates(outfile)

    def tracing_read_udfs(*args, **kwargs):
        if not state["installed"] and flag.exists():
            install(counters)
            state["installed"] = True
        return read_udfs(*args, **kwargs)

    worker.send_accumulator_updates = flushing_send_updates
    worker.read_udfs = tracing_read_udfs
    daemon.manager()


if __name__ == "__main__":
    _run_daemon()
