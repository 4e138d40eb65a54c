"""The super-group bucket runner shared by CPSJoin, MinHash LSH and BayesLSH.

Running many buckets per Python call must change no pair and no Table IV
counter, and a join must leave none of its intermediates cached.
"""
import pytest

from repro import datasets
from repro.baselines.bayeslsh import bayeslsh_join
from repro.baselines.minhash_lsh import minhash_lsh_join
from repro.core.cpsjoin import cpsjoin
from repro.core.preprocess import preprocess
from repro.setsynth import collection_to_spark

JOINS = {
    # local_threshold=150 forces one distributed level, so both the runner
    # and the BRUTEFORCEPOINT verify stage contribute pairs and counters.
    "cpsjoin": lambda spark, df, pre: cpsjoin(
        spark, df, 0.5, t=64, ell=8, reps=4, seed=2, local_threshold=150, pre=pre
    ),
    "minhash_lsh_join": lambda spark, df, pre: minhash_lsh_join(
        spark, df, 0.5, k=3, reps=5, seed=1, pre=pre
    ),
    "bayeslsh_join": lambda spark, df, pre: bayeslsh_join(
        spark, df, 0.5, reps=3, seed=0, pre=pre
    ),
}

# (n_results, stats.as_tuple()) on DBLP x0.2, seed 0, each join building
# its own preprocessing, as recorded with one Python call per bucket.
PINNED = {
    "cpsjoin": (27, (26181, 319, 159)),
    "minhash_lsh_join": (26, (841, 91, 78)),
    "bayeslsh_join": (27, (8380, 72, 64)),
}


@pytest.fixture(scope="module")
def dblp(spark):
    df = collection_to_spark(spark, datasets.generate("DBLP", seed=0, scale=0.2))
    df = df.cache()
    df.count()
    yield df
    df.unpersist()


@pytest.mark.parametrize("name", list(JOINS))
def test_pairs_and_counters_pinned(spark, dblp, name):
    res = JOINS[name](spark, dblp, None)
    if name == "cpsjoin":
        assert res.levels == 1
    assert (res.n_results, res.stats.as_tuple()) == PINNED[name]
    res.pairs.unpersist()


@pytest.mark.parametrize("name", list(JOINS))
def test_repeated_call_runs_same_jobs(spark, dblp, name):
    """A leaked cache would let the second call skip work (fewer jobs)."""
    sc = spark.sparkContext
    pre = preprocess(dblp, t=64, ell=8, seed=0).cache()
    pre.count()
    jobs = []
    for i in range(2):
        group = f"test_buckets-{name}-{i}"
        sc.setJobGroup(group, group)
        try:
            res = JOINS[name](spark, dblp, pre)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        jobs.append(len(sc.statusTracker().getJobIdsForGroup(group)))
        res.pairs.unpersist()
    pre.unpersist()
    assert jobs[0] == jobs[1] > 0
