"""Bucket runner shared by CPSJoin's local stage, MinHash LSH and BayesLSH.

All three joins end the same way: rows are grouped by ``(rep, bucket)``,
a numpy kernel compares the records of every bucket, and the kernels'
Table IV counters are summed on the driver.  Grouping by the bucket
itself costs one Python call per bucket (an Arrow round-trip and several
pandas frames, even for a singleton), which on many small buckets costs
far more than the comparisons.  ``run_buckets`` therefore groups by a
*super-group* ``pmod(xxhash64(rep, bucket), n)``, with ``n`` the
session's ``spark.sql.shuffle.partitions``.  Each call sorts its rows by
``(rep, bucket)``, converts the array columns once and calls the kernel
on each bucket's slice.  A bucket never spans two super-groups, so every
kernel call sees exactly the rows of one bucket, as before.

Output rows (``OUT_SCHEMA``): ``kind = 0`` rows are verified pairs
``a < b`` with the ``rep`` that found them; every Python call adds one
``kind = 1`` row with its summed counters, which ``sum_stats`` adds up.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from .cpsjoin_local import JoinStats

__all__ = ["OUT_SCHEMA", "out_frame", "run_buckets", "sum_stats"]

_COUNTERS = ("pre_candidates", "candidates", "results")

OUT_SCHEMA = T.StructType(
    [
        T.StructField("kind", T.IntegerType(), False),  # 0 = pair, 1 = stats
        T.StructField("a", T.LongType(), False),
        T.StructField("b", T.LongType(), False),
        T.StructField("rep", T.IntegerType(), False),
        *(T.StructField(c, T.LongType(), False) for c in _COUNTERS),
    ]
)


def out_frame(a, b, rep, stats: JoinStats) -> pd.DataFrame:
    """Pairs ``(a, b, rep)`` followed by one ``kind = 1`` row of ``stats``."""
    m = len(a)
    counters = np.zeros((3, m + 1), dtype=np.int64)
    counters[:, m] = stats.as_tuple()
    return pd.DataFrame(
        {
            "kind": np.r_[np.zeros(m, dtype=np.int32), np.int32(1)],
            "a": np.r_[np.asarray(a, dtype=np.int64), np.int64(-1)],
            "b": np.r_[np.asarray(b, dtype=np.int64), np.int64(-1)],
            "rep": np.r_[np.asarray(rep, dtype=np.int32), np.int32(-1)],
            **dict(zip(_COUNTERS, counters)),
        }
    )


def run_buckets(rows: DataFrame, bucket: str, kernel) -> DataFrame:
    """Run ``kernel`` on every ``(rep, bucket)`` group of ``rows``.

    ``rows`` holds ``rep``, ``bucket``, ``sid``, ``tokens``, ``sketch``
    and optionally ``mh``.  ``kernel(rep, bucket_id, mh, sketch, tokens)``
    gets one bucket of at least two records (``mh`` int64 ``(g, t)`` or
    ``None`` without an ``mh`` column, ``sketch`` uint64 ``(g, ell)``,
    ``tokens`` a list of int64 arrays) and returns ``(pairs, stats)``:
    verified local index pairs ``(m, 2)`` and its ``JoinStats``.
    Returns the lazy ``OUT_SCHEMA`` rows.
    """
    n = int(rows.sparkSession.conf.get("spark.sql.shuffle.partitions"))
    has_mh = "mh" in rows.columns
    cols = ["rep", bucket, "sid", "tokens", "sketch"] + (["mh"] if has_mh else [])

    def run(pdf: pd.DataFrame) -> pd.DataFrame:
        rep, bid = pdf["rep"].to_numpy(), pdf[bucket].to_numpy()
        order = np.lexsort((bid, rep))
        rep, bid = rep[order], bid[order]
        sids = pdf["sid"].to_numpy()[order]
        sketch = np.stack(pdf["sketch"].to_numpy()[order]).astype(np.int64).view(
            np.uint64
        )
        mh = np.stack(pdf["mh"].to_numpy()[order]).astype(np.int64) if has_mh else None
        tokens = [np.asarray(x, dtype=np.int64) for x in pdf["tokens"].to_numpy()[order]]
        new = (rep[1:] != rep[:-1]) | (bid[1:] != bid[:-1])
        bounds = np.flatnonzero(np.r_[True, new, True]).tolist()
        stats = JoinStats()
        a_parts, b_parts = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        rep_parts = [np.empty(0, np.int32)]
        for s, e in zip(bounds[:-1], bounds[1:]):
            if e - s < 2:
                continue
            pairs, st = kernel(
                int(rep[s]), int(bid[s]), None if mh is None else mh[s:e],
                sketch[s:e], tokens[s:e],
            )
            stats.merge(st)
            x, y = sids[s:e][pairs[:, 0]], sids[s:e][pairs[:, 1]]
            a_parts.append(np.minimum(x, y))
            b_parts.append(np.maximum(x, y))
            rep_parts.append(np.full(len(pairs), rep[s]))
        return out_frame(
            np.concatenate(a_parts), np.concatenate(b_parts),
            np.concatenate(rep_parts), stats,
        )

    super_key = F.pmod(F.xxhash64("rep", bucket), F.lit(n)).alias("super")
    return (
        rows.select(super_key, *cols).groupBy("super").applyInPandas(run, OUT_SCHEMA)
    )


def sum_stats(out: DataFrame) -> JoinStats:
    """Add up the ``kind = 1`` counter rows of ``OUT_SCHEMA`` output (one job)."""
    row = out.filter("kind = 1").agg(*(F.sum(c).alias(c) for c in _COUNTERS)).first()
    return JoinStats(*(int(row[c] or 0) for c in _COUNTERS))
