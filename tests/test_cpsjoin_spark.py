"""End-to-end tests for the distributed CPSJoin dataflow."""
import pytest
from pyspark.sql import functions as F

from repro import datasets
from repro.core.cpsjoin import cpsjoin
from repro.exact import brute_force_join, precision, recall
from repro.setsynth import collection_to_spark


@pytest.fixture(scope="module")
def dblp(spark):
    sets = datasets.generate("DBLP", seed=0, scale=0.2)
    df = collection_to_spark(spark, sets).cache()
    df.count()
    yield sets, df
    df.unpersist()


class TestCorrectness:
    @pytest.mark.parametrize("name,lam", [
        ("DBLP", 0.5), ("UNIFORM005", 0.5), ("TOKENS10K", 0.5),
        ("NETFLIX", 0.7),
    ])
    def test_recall_and_precision(self, spark, name, lam):
        sets = datasets.generate(name, seed=0, scale=0.2)
        df = collection_to_spark(spark, sets)
        truth = brute_force_join(sets, lam)
        assert truth, "clone must produce similar pairs"
        res = cpsjoin(spark, df, lam, t=64, ell=8, reps=10, seed=1)
        assert precision(res.pairs, truth) == 1.0
        assert recall(res.pairs, truth) >= 0.9

    def test_distributed_levels_preserve_correctness(self, spark, dblp):
        """Forcing tiny buckets exercises several distributed splitting
        levels + the distributed BRUTEFORCE step; recall must hold."""
        sets, df = dblp
        truth = brute_force_join(sets, 0.5)
        res = cpsjoin(
            spark, df, 0.5, t=64, ell=8, reps=10, seed=2, local_threshold=40
        )
        assert res.levels >= 1
        assert not res.capped
        assert precision(res.pairs, truth) == 1.0
        assert recall(res.pairs, truth) >= 0.9

    def test_safety_valve_is_reported(self, spark, dblp):
        """``max_dist_levels=0`` sends the oversized root buckets straight
        to the local kernel; the result says so and stays exact."""
        sets, df = dblp
        truth = brute_force_join(sets, 0.5)
        res = cpsjoin(
            spark, df, 0.5, t=64, ell=8, reps=10, seed=2, local_threshold=40,
            max_dist_levels=0,
        )
        assert res.capped
        assert res.levels == 0
        assert precision(res.pairs, truth) == 1.0

    def test_no_similar_pairs_yields_empty(self, spark):
        sets = datasets.generate("SPOTIFY", seed=0, scale=0.15)
        truth = brute_force_join(sets, 0.95)
        df = collection_to_spark(spark, sets)
        res = cpsjoin(spark, df, 0.95, t=32, ell=4, reps=3, seed=0)
        got = {(r["sid_a"], r["sid_b"]) for r in res.pairs.collect()}
        assert got <= truth


class TestStructure:
    def test_pairs_ordered_distinct(self, spark, dblp):
        _, df = dblp
        res = cpsjoin(spark, df, 0.5, t=64, ell=8, reps=5, seed=3)
        assert res.pairs.filter(F.col("sid_a") >= F.col("sid_b")).count() == 0
        assert res.pairs.count() == res.n_results

    def test_reps_accumulate(self, spark, dblp):
        """Repetition r is seeded identically regardless of total rep
        count, so more reps can only add pairs."""
        sets, df = dblp
        r1 = cpsjoin(spark, df, 0.5, t=64, ell=8, reps=2, seed=7)
        r2 = cpsjoin(spark, df, 0.5, t=64, ell=8, reps=8, seed=7)
        p1 = {(r["sid_a"], r["sid_b"]) for r in r1.pairs.collect()}
        p2 = {(r["sid_a"], r["sid_b"]) for r in r2.pairs.collect()}
        assert p1 <= p2

    def test_stats_monotonicity(self, spark, dblp):
        _, df = dblp
        res = cpsjoin(spark, df, 0.5, t=64, ell=8, reps=5, seed=4)
        st = res.stats
        assert st.pre_candidates >= st.candidates >= st.results
        assert st.results >= res.n_results  # raw counter includes dups

    def test_invalid_lambda_raises(self, spark, dblp):
        _, df = dblp
        with pytest.raises(ValueError):
            cpsjoin(spark, df, 1.5)

    def test_shared_preprocessing(self, spark, dblp):
        from repro.core.preprocess import preprocess

        sets, df = dblp
        pre = preprocess(df, t=64, ell=8, seed=5).cache()
        pre.count()
        a = cpsjoin(spark, df, 0.5, t=64, ell=8, reps=3, seed=5, pre=pre)
        b = cpsjoin(spark, df, 0.5, t=64, ell=8, reps=3, seed=5, pre=pre)
        pa = {(r["sid_a"], r["sid_b"]) for r in a.pairs.collect()}
        pb = {(r["sid_a"], r["sid_b"]) for r in b.pairs.collect()}
        assert pa == pb  # fully deterministic given (pre, seed)
        pre.unpersist()


class TestPreprocessSchema:
    def test_columns_and_lengths(self, spark, dblp):
        from repro.core.preprocess import preprocess

        _, df = dblp
        pre = preprocess(df, t=16, ell=2, seed=0)
        row = pre.first()
        assert set(pre.columns) == {"sid", "tokens", "size", "mh", "sketch"}
        assert len(row["mh"]) == 16
        assert len(row["sketch"]) == 2
        assert row["size"] == len(row["tokens"])
