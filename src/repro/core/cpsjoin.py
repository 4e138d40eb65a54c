"""Distributed CPSJoin — the paper's contribution as a Spark dataflow.

Level-by-level Chosen-Path recursion over a DataFrame of
``(rep, path, sid)`` rows (all repetitions run in one dataflow; the
root path of repetition ``r`` is ``xxhash64(r, seed)``):

1. bucket sizes as a ``count(*)`` window over ``(rep, path)``, written
   to a local checkpoint (one shuffle, no join back);
2. buckets that fit in one task (``<= local_threshold`` records) are
   finished by the exact in-memory recursion of Algorithms 1+2
   (``core.cpsjoin_local``); ``core.buckets.run_buckets`` runs it on
   every bucket of a super-group ``pmod(xxhash64(rep, path), n)`` in
   one Python call, so a bucket costs a kernel call, not a round-trip;
3. larger buckets get the distributed BRUTEFORCE step: a ``count(*)``
   window over ``(rep, path, i, v)`` on the ``posexplode(mh)`` rows and
   one ``groupBy(rep, path, sid)`` sum give every record's average
   embedded similarity to its bucket.  The per-record decision (above
   ``(1 - eps) * lam`` or not) is checkpointed once and read twice:
   removed records become BRUTEFORCEPOINT candidate pairs against their
   whole bucket, and only the rest re-attach ``mh`` for step 4;
4. survivors split: coordinate ``i`` is chosen for a path iff
   ``hash(path, i) < 1/(lam * t)`` (expected ``1/lam`` coordinates per
   node, the §V-A3 heuristic) and the child bucket id is
   ``xxhash64(path, i, mh_i(x))`` — sets sharing the sampled MinHash
   value meet again one level down, which happens with probability
   ``J(x, y)`` per sampled coordinate.

Candidate pairs from both routes run the shared pipeline: size check,
1-bit sketch check (false-negative rate ``delta``), exact Jaccard
verification, global dedup.  Counters follow Table IV semantics
(candidates counted before dedup).  After ``max_dist_levels`` levels any
bucket still above ``local_threshold`` goes to the local kernel anyway;
``CPSJoinResult.capped`` reports that this safety valve fired.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from .buckets import OUT_SCHEMA, out_frame, run_buckets, sum_stats
from .cpsjoin_local import JoinStats, cpsjoin_local_rep
from .preprocess import preprocess
from .sketches import sketch_pass
from .verify import jaccard

__all__ = ["CPSJoinResult", "cpsjoin"]

_HASH_MOD = 1 << 31


def _unit(col):
    """Map a 64-bit hash column to a uniform-ish value in [0, 1)."""
    return F.pmod(col, F.lit(_HASH_MOD)) / F.lit(float(_HASH_MOD))


@dataclass
class CPSJoinResult:
    """Verified distinct pairs + pipeline counters for one join run."""

    pairs: DataFrame  # (sid_a, sid_b), sid_a < sid_b, distinct
    stats: JoinStats
    n_results: int
    levels: int  # distributed levels executed
    # True when ``max_dist_levels`` sent buckets larger than
    # ``local_threshold`` to the local kernel (the safety valve fired).
    capped: bool


def cpsjoin(
    spark: SparkSession,
    sets_df: DataFrame,
    lam: float,
    *,
    t: int = 128,
    ell: int = 8,
    limit: int = 250,
    eps: float = 0.1,
    delta: float = 0.05,
    reps: int = 10,
    seed: int = 0,
    local_threshold: int = 4000,
    max_dist_levels: int = 8,
    pre: DataFrame | None = None,
) -> CPSJoinResult:
    """Run CPSJoin on ``sets_df`` (``sid``, ``tokens``); eager.

    ``pre`` optionally supplies an already-cached ``preprocess`` output
    so the embedding cost is shared across runs (the paper excludes
    preprocessing from join times for the same reason).
    """
    if not 0 < lam < 1:
        raise ValueError(f"lam must be in (0,1), got {lam}")
    own_pre = pre is None
    if own_pre:
        pre = preprocess(sets_df, t=t, ell=ell, seed=seed).cache()

    reps_df = spark.range(reps).select(F.col("id").cast("int").alias("rep"))
    active = (
        pre.select("sid")
        .crossJoin(reps_df)
        .withColumn("path", F.xxhash64("rep", F.lit(seed)))
        .select("rep", "path", "sid")
    )

    pre_mh = pre.select("sid", "mh")
    local_parts: list[DataFrame] = []
    pair_parts: list[DataFrame] = []  # distributed BRUTEFORCEPOINT pairs
    capped = False
    level = 0
    while True:
        tagged = active.withColumn(
            "gsize", F.count("*").over(Window.partitionBy("rep", "path"))
        ).localCheckpoint(eager=True)
        small = tagged.filter(
            (F.col("gsize") <= local_threshold) & (F.col("gsize") >= 2)
        )
        local_parts.append(small.select("rep", "path", "sid"))
        big = tagged.filter(F.col("gsize") > local_threshold)
        if big.isEmpty():
            break
        if level >= max_dist_levels:
            # Safety valve: ship oversized buckets to the local kernel.
            local_parts.append(big.select("rep", "path", "sid"))
            capped = True
            break

        # One BRUTEFORCE decision per record: cnt[i, v] is how many records
        # of the bucket share coordinate i's value v, so the record's summed
        # embedded similarity to the rest of its bucket is sum(cnt - 1).
        flags = (
            big.join(pre_mh, "sid")
            .select("rep", "path", "sid", "gsize",
                    F.posexplode("mh").alias("i", "v"))
            .withColumn(
                "cnt", F.count("*").over(Window.partitionBy("rep", "path", "i", "v"))
            )
            .groupBy("rep", "path", "sid", "gsize")
            .agg(F.sum(F.col("cnt") - 1).alias("simsum"))
            .select(
                "rep", "path", "sid",
                (F.col("simsum") / (t * (F.col("gsize") - 1)) > (1.0 - eps) * lam)
                .alias("removed"),
            )
            .localCheckpoint(eager=True)
        )
        bfp = (
            flags.filter("removed")
            .select("rep", "path", F.col("sid").alias("sid_x"))
            .join(big.select("rep", "path", F.col("sid").alias("sid_y")),
                  ["rep", "path"])
            .filter(F.col("sid_x") != F.col("sid_y"))
            .select(
                F.least("sid_x", "sid_y").alias("a"),
                F.greatest("sid_x", "sid_y").alias("b"),
            )
        )
        pair_parts.append(bfp)
        survivors = flags.filter(~F.col("removed")).join(pre_mh, "sid")

        sel = _unit(F.xxhash64("path", "i", F.lit(seed), F.lit(1))) < 1.0 / (lam * t)
        active = (
            survivors.select("rep", "path", "sid", F.posexplode("mh").alias("i", "v"))
            .filter(sel)
            .select("rep", F.xxhash64("path", "i", "v").alias("path"), "sid")
        )
        level += 1

    # --- local buckets: the in-memory recursion, one kernel call each ---
    local_all = local_parts[0]
    for p in local_parts[1:]:
        local_all = local_all.unionByName(p)

    def kernel(rep, path, mh, sketch, tokens):
        # Deterministic per-bucket seed (int tuple hashes are unsalted).
        g_seed = np.random.SeedSequence(
            [seed & 0x7FFFFFFF, rep, path & 0x7FFFFFFFFFFFFFFF]
        ).generate_state(1)[0]
        return cpsjoin_local_rep(
            mh, sketch, tokens, lam,
            limit=limit, eps=eps, delta=delta, seed=int(g_seed),
        )

    local_out = run_buckets(local_all.join(pre, "sid"), "path", kernel).cache()
    stats = sum_stats(local_out)
    pairs_df = local_out.filter("kind = 0").select("a", "b")
    cached = [local_out]

    # --- distributed BRUTEFORCEPOINT pairs: shared verification path ---
    if pair_parts:
        bfp_all = pair_parts[0]
        for p in pair_parts[1:]:
            bfp_all = bfp_all.unionByName(p)
        # Verify each pair once; carry its duplicate count so the
        # pre-candidate/candidate counters keep Table IV's raw
        # (duplicate-inclusive) semantics.
        bfp_all = bfp_all.groupBy("a", "b").agg(F.count("*").alias("mult"))
        vout = _verify_pairs_df(bfp_all, pre, lam, delta).cache()
        stats.merge(sum_stats(vout))
        pairs_df = pairs_df.unionByName(vout.filter("kind = 0").select("a", "b"))
        cached.append(vout)

    pairs_df = (
        pairs_df.select(F.col("a").alias("sid_a"), F.col("b").alias("sid_b"))
        .distinct()
        .cache()
    )
    n_results = pairs_df.count()
    for df in cached:
        df.unpersist()
    if own_pre:
        pre.unpersist()
    return CPSJoinResult(pairs=pairs_df, stats=stats, n_results=n_results,
                         levels=level, capped=capped)


def _verify_pairs_df(
    pairs: DataFrame, pre: DataFrame, lam: float, delta: float
) -> DataFrame:
    """Size check -> sketch check -> exact Jaccard for ``(a, b, mult)`` rows.

    Each distinct pair is verified once; its ``mult`` (how many times
    the candidate generator produced it) weights the pre-candidate and
    candidate counters so they keep Table IV's duplicate-inclusive
    semantics.  Emits ``OUT_SCHEMA`` rows: ``kind=0`` for verified
    results (``rep = -1``) and one ``kind=1`` counter row per Arrow batch.
    """
    sides = pairs.join(
        pre.select(
            F.col("sid").alias("a"),
            F.col("tokens").alias("tokens_a"),
            F.col("size").alias("size_a"),
            F.col("sketch").alias("sketch_a"),
        ),
        "a",
    ).join(
        pre.select(
            F.col("sid").alias("b"),
            F.col("tokens").alias("tokens_b"),
            F.col("size").alias("size_b"),
            F.col("sketch").alias("sketch_b"),
        ),
        "b",
    )

    def run(batches):
        for pdf in batches:
            if len(pdf) == 0:
                continue
            mult = pdf["mult"].to_numpy()
            n = int(mult.sum())
            sa = pdf["size_a"].to_numpy()
            sb = pdf["size_b"].to_numpy()
            ok = np.minimum(sa, sb) >= lam * np.maximum(sa, sb)
            cand = pdf[ok]
            n_cand = 0
            rows_a, rows_b = [], []
            if len(cand):
                ska = np.stack(cand["sketch_a"].to_numpy()).astype(np.int64).view(
                    np.uint64
                )
                skb = np.stack(cand["sketch_b"].to_numpy()).astype(np.int64).view(
                    np.uint64
                )
                mask = sketch_pass(ska, skb, lam, delta)
                cand = cand[mask]
                n_cand = int(cand["mult"].to_numpy().sum())
                for a, b, ta, tb in zip(
                    cand["a"].tolist(), cand["b"].tolist(),
                    cand["tokens_a"].tolist(), cand["tokens_b"].tolist(),
                ):
                    if jaccard(
                        np.asarray(ta, dtype=np.int64),
                        np.asarray(tb, dtype=np.int64),
                    ) >= lam:
                        rows_a.append(int(a))
                        rows_b.append(int(b))
            # BRUTEFORCEPOINT pairs belong to no single repetition: rep -1.
            yield out_frame(
                rows_a, rows_b, np.full(len(rows_a), -1),
                JoinStats(n, n_cand, len(rows_a)),
            )

    return sides.mapInPandas(run, schema=OUT_SCHEMA)
