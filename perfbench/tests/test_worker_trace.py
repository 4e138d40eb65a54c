"""Worker counters: wrapping, per-worker file summation and before/after diff."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import worker_trace

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parents[2]


def test_snapshot_sums_every_worker_file():
    snap = worker_trace.snapshot(DATA / "workers_before")
    # w-101: jaccard 10 calls, w-102: jaccard 5 calls.
    assert snap["jaccard"]["calls"] == 15
    assert snap["jaccard"]["seconds"] == pytest.approx(0.015)
    assert snap["cpsjoin_local_rep"]["calls"] == 2


def test_diff_is_the_work_between_two_snapshots():
    before = worker_trace.snapshot(DATA / "workers_before")
    after = worker_trace.snapshot(DATA / "workers_after")
    d = worker_trace.diff(before, after)
    # w-101 grew by 30 jaccard calls, w-102 by 0, new worker w-103 has 7.
    assert d["jaccard"]["calls"] == 37
    assert d["jaccard"]["seconds"] == pytest.approx(0.037)
    assert d["cpsjoin_local_rep"]["calls"] == 3
    # A function seen only after the call is reported in full.
    assert d["sketch_pass"] == {"calls": 4, "seconds": pytest.approx(0.004)}


def test_diff_rejects_counters_that_went_backwards():
    before = {"jaccard": {"calls": 5, "seconds": 0.1}}
    after = {"jaccard": {"calls": 3, "seconds": 0.2}}
    with pytest.raises(ValueError, match="went backwards"):
        worker_trace.diff(before, after)


def test_snapshot_of_an_empty_dir_is_empty(tmp_path):
    assert worker_trace.snapshot(tmp_path) == {}
    assert worker_trace.diff({}, {}) == {}


def test_install_counts_calls_through_names_other_modules_imported():
    """``cpsjoin_local`` imported ``jaccard`` and ``sketch_pass``; after
    ``install`` its kernel must call the counting wrappers.  Runs in a
    subprocess because ``install`` rebinds module globals for good."""
    code = """
import json, numpy as np
from repro.core import cpsjoin_local
from repro.core.minhash import MinHasher
from perfbench import worker_trace
c = worker_trace.Counters()
worker_trace.install(c)
toks = [np.array([1, 2, 3]), np.array([1, 2, 4]), np.array([1, 2, 3])]
mh, sk = MinHasher(t=16, ell=1, seed=0).embed_many(toks)
cpsjoin_local.brute_force_pairs_arrays(None, sk, toks, 0.5, delta=1.0)
print(json.dumps({k: v["calls"] for k, v in c.as_dict().items()}))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    calls = json.loads(out.stdout.strip().splitlines()[-1])
    assert calls["embed_many"] == 1
    assert calls["brute_force_pairs_arrays"] == 1
    assert calls["sketch_pass"] == 1  # one batched sketch check per bucket
    assert calls["jaccard"] == 3  # all three pairs pass size + sketch (delta=1)
