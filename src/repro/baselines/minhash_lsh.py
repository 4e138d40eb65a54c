"""MinHash LSH similarity join (paper §V-B, Algorithm 3).

Each repetition buckets every set by ``k`` concatenated MinHash values
and brute-forces all pairs within a bucket through the shared
size-check -> 1-bit-sketch -> exact-Jaccard pipeline.  ``k`` is chosen
per dataset/threshold by estimating, from the bucket-size histogram of
a probe repetition, the combined cost of hashing and in-bucket
comparisons (the Cohen et al. idea the paper implements); the number of
repetitions for target recall ``phi`` is ``ln(1/(1-phi)) / lam^k``.

Result pairs carry ``first_rep`` — the smallest repetition index that
discovered the pair — so harnesses can compute the repetitions (and the
prorated join time) actually needed for 90% recall, exactly as the
paper reports MINHASH.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.buckets import run_buckets, sum_stats
from ..core.cpsjoin_local import JoinStats, brute_force_pairs_arrays
from ..core.preprocess import preprocess

__all__ = ["MinHashLSHResult", "minhash_lsh_join", "choose_k", "reps_for_recall"]

@dataclass
class MinHashLSHResult:
    """LSH join output: distinct pairs with discovery repetition + stats."""

    pairs: DataFrame  # (sid_a, sid_b, first_rep)
    stats: JoinStats
    n_results: int
    k: int
    reps: int


def reps_for_recall(lam: float, k: int, phi: float = 0.9, cap: int = 64) -> int:
    """``L = ceil(ln(1/(1-phi)) / lam^k)``, capped for tractability."""
    return max(1, min(cap, math.ceil(math.log(1.0 / (1.0 - phi)) / lam**k)))


def choose_k(
    spark: SparkSession,
    pre: DataFrame,
    lam: float,
    *,
    phi: float = 0.9,
    ks=range(2, 11),
    seed: int = 0,
    cmp_cost: float = 1.0,
    hash_cost: float = 5.0,
) -> int:
    """Pick ``k`` minimizing estimated total cost over all repetitions.

    For each candidate ``k`` the first splitting step is actually run
    (one ``groupBy`` on bucket ids) and the per-repetition comparison
    mass ``sum C(m, 2)`` is read off the bucket histogram, as in §V-B.
    """
    n = pre.count()
    best_k, best_cost = None, float("inf")
    for k in ks:
        buckets = (
            pre.select(
                F.xxhash64(F.lit(seed), F.lit(k), F.slice("mh", 1, k)).alias("bkt")
            )
            .groupBy("bkt")
            .agg(F.count("*").alias("m"))
            .agg(F.sum(F.col("m") * (F.col("m") - 1) / 2).alias("pairs"))
            .first()
        )
        pair_mass = float(buckets["pairs"] or 0.0)
        L = reps_for_recall(lam, k, phi)
        cost = L * (hash_cost * n + cmp_cost * pair_mass)
        if cost < best_cost:
            best_k, best_cost = k, cost
    return int(best_k)


def minhash_lsh_join(
    spark: SparkSession,
    sets_df: DataFrame,
    lam: float,
    *,
    k: int | None = None,
    reps: int | None = None,
    phi: float = 0.9,
    ell: int = 8,
    delta: float = 0.05,
    seed: int = 0,
    pre: DataFrame | None = None,
) -> MinHashLSHResult:
    """MinHash LSH self-join; eager.

    ``pre`` may supply a cached ``preprocess`` output whose ``t`` is at
    least ``k * reps`` MinHash coordinates (each repetition uses its own
    disjoint slice).
    """
    own_pre = False
    if k is None or pre is None:
        if k is None:
            # Probe embedding for k selection; final embedding sized to fit.
            probe = pre
            if probe is None:
                probe = preprocess(sets_df, t=12, ell=ell, seed=seed).cache()
            k = choose_k(spark, probe, lam, phi=phi, seed=seed)
            if probe is not pre:
                probe.unpersist()
        if reps is None:
            reps = reps_for_recall(lam, k, phi)
        need = k * reps
        if pre is None or len(pre.select("mh").first()["mh"]) < need:
            pre = preprocess(sets_df, t=need, ell=ell, seed=seed + 1).cache()
            own_pre = True
    if reps is None:
        reps = reps_for_recall(lam, k, phi)

    reps_df = spark.range(reps).select(F.col("id").cast("int").alias("rep"))
    bucketed = (
        pre.crossJoin(reps_df)
        .withColumn(
            "bkt",
            F.xxhash64(
                "rep", F.lit(seed), F.slice("mh", F.col("rep") * k + 1, k)
            ),
        )
        .select("rep", "bkt", "sid", "tokens", "size", "sketch")
    )

    def kernel(rep, bkt, mh, sketch, tokens):
        return brute_force_pairs_arrays(None, sketch, tokens, lam, delta=delta)

    out = run_buckets(bucketed, "bkt", kernel).cache()
    stats = sum_stats(out)
    pairs = (
        out.filter("kind = 0")
        .groupBy(F.col("a").alias("sid_a"), F.col("b").alias("sid_b"))
        .agg(F.min("rep").alias("first_rep"))
        .cache()
    )
    n_results = pairs.count()
    out.unpersist()
    if own_pre:
        pre.unpersist()
    return MinHashLSHResult(
        pairs=pairs, stats=stats, n_results=n_results, k=int(k), reps=int(reps)
    )
