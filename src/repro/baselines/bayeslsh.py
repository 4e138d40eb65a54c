"""BayesLSH-lite analogue (Chakrabarti et al., paper §V-D).

The paper runs BayesLSH with LSH candidate generation (which it notes
"corresponds to the MINHASH splitting step, but with k fixed to one")
and BayesLSH-lite verification: candidate pairs are pruned by an
*incremental* sketch comparison and survivors get one exact similarity
computation.  We reproduce that structure:

- candidate generation: MinHash bucketing with ``k = 1``;
- verification: the 1-bit sketch is consumed word by word and a pair is
  pruned as soon as even an all-matching remainder could not lift the
  similarity estimate above the sketch threshold (a frequentist
  early-termination standing in for the Bayesian posterior test — the
  accept/reject decision equals the full-sketch check, reached early;
  see DESIGN.md §4);
- survivors get the exact Jaccard check.

The paper's empirical finding for BayesLSH is simply "always slowest,
often timing out" — driven by the enormous k=1 candidate sets — which
this reproduction preserves by construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.buckets import run_buckets, sum_stats
from ..core.cpsjoin_local import JoinStats
from ..core.preprocess import preprocess
from ..core.sketches import matching_bits, sketch_threshold
from ..core.verify import jaccard
from .minhash_lsh import reps_for_recall

__all__ = ["BayesLSHResult", "bayeslsh_join", "incremental_sketch_pass"]


@dataclass
class BayesLSHResult:
    """BayesLSH-lite join output + counters."""

    pairs: DataFrame  # (sid_a, sid_b)
    stats: JoinStats
    n_results: int
    reps: int


def incremental_sketch_pass(
    ska: np.ndarray, skb: np.ndarray, lam: float, delta: float
) -> tuple[bool, int]:
    """Early-terminating sketch check for one pair.

    Returns ``(passes, words_consumed)``.  Equivalent in outcome to the
    full-sketch check: stop as soon as the remaining (optimistically
    all-matching) words cannot reach the acceptance threshold.
    """
    ell = len(ska)
    nbits = 64 * ell
    if nbits == 0:
        return True, 0
    need = (sketch_threshold(lam, delta, nbits) + 1.0) / 2.0 * nbits  # bits
    matched = 0
    for w in range(ell):
        matched += int(
            matching_bits(ska[w : w + 1], skb[w : w + 1])
        )
        optimistic = matched + 64 * (ell - w - 1)
        if optimistic < need:
            return False, w + 1
    return matched >= need, ell


def bayeslsh_join(
    spark: SparkSession,
    sets_df: DataFrame,
    lam: float,
    *,
    reps: int | None = None,
    phi: float = 0.9,
    ell: int = 8,
    delta: float = 0.05,
    seed: int = 0,
    pre: DataFrame | None = None,
) -> BayesLSHResult:
    """LSH(k=1) candidate generation + BayesLSH-lite verification; eager."""
    if reps is None:
        reps = reps_for_recall(lam, 1, phi)
    own_pre = pre is None
    if own_pre:
        pre = preprocess(sets_df, t=reps, ell=ell, seed=seed).cache()

    reps_df = spark.range(reps).select(F.col("id").cast("int").alias("rep"))
    bucketed = (
        pre.crossJoin(reps_df)
        .withColumn(
            "bkt",
            F.xxhash64("rep", F.lit(seed), F.element_at("mh", F.col("rep") + 1)),
        )
        .select("rep", "bkt", "sid", "tokens", "size", "sketch")
    )

    def kernel(rep, bkt, mh, sketch, tokens):
        sizes = np.array([len(x) for x in tokens])
        ia, ib = np.triu_indices(len(tokens), k=1)
        st = JoinStats(pre_candidates=len(ia))
        ok = np.minimum(sizes[ia], sizes[ib]) >= lam * np.maximum(
            sizes[ia], sizes[ib]
        )
        pairs = []
        for i, j in zip(ia[ok].tolist(), ib[ok].tolist()):
            passes, _ = incremental_sketch_pass(sketch[i], sketch[j], lam, delta)
            if not passes:
                continue
            st.candidates += 1
            if jaccard(tokens[i], tokens[j]) >= lam:
                st.results += 1
                pairs.append((i, j))
        return np.array(pairs, dtype=np.int64).reshape(-1, 2), st

    out = run_buckets(bucketed, "bkt", kernel).cache()
    stats = sum_stats(out)
    pairs = (
        out.filter("kind = 0")
        .select(F.col("a").alias("sid_a"), F.col("b").alias("sid_b"))
        .distinct()
        .cache()
    )
    n_results = pairs.count()
    out.unpersist()
    if own_pre:
        pre.unpersist()
    return BayesLSHResult(pairs=pairs, stats=stats, n_results=n_results,
                          reps=int(reps))
