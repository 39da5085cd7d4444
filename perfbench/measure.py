"""Pure helpers for the benchmark: percentiles, recall, capacity, spread.

Nothing here imports the system under test, so the helpers are tested on
hand-checked inputs (``test_helpers.py``).
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

import numpy as np


def percentile(values: Sequence[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it.

    The value is the smallest sample with at least ``pct`` percent of the
    samples at or below it.  The count says how many samples lie strictly
    beyond it, so a reader can tell whether the tail is backed by data
    (the benchmark wants at least ten).
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"pct must be in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    value = ordered[rank - 1]
    beyond = len(ordered) - rank
    # Ties with the chosen sample are not "beyond" it.
    while beyond and ordered[len(ordered) - beyond] == value:
        beyond -= 1
    return float(value), beyond


def recall_at_k(found: Sequence[Sequence], truth: Sequence[Sequence],
                k: int) -> float:
    """Mean share of each query's exact top-``k`` present in its answer."""
    if len(found) != len(truth):
        raise ValueError("query count mismatch")
    if not truth:
        raise ValueError("recall of zero queries")
    hits = 0
    total = 0
    for got, want in zip(found, truth):
        want = list(want)[:k]
        hits += len(set(list(got)[:k]) & set(want))
        total += len(want)
    return hits / total


def burst_capacity(issue_ms: float, done_ms: Sequence[float]) -> float:
    """Requests per virtual second a burst was served at.

    Every request of the burst was due at ``issue_ms``; the makespan runs
    until the last one completed.  Served at this rate, a steady arrival
    stream keeps the backlog from growing.
    """
    if not done_ms:
        raise ValueError("empty burst")
    makespan_ms = max(done_ms) - issue_ms
    if makespan_ms <= 0:
        raise ValueError("burst completed in zero virtual time")
    return len(done_ms) / (makespan_ms / 1000.0)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def exact_topk(base: np.ndarray, queries: np.ndarray, k: int,
               born=None, died=None, at=None, block: int = 256
               ) -> np.ndarray:
    """Ids of the exact ``k`` nearest base rows (squared L2) per query.

    Without ``born``/``died``/``at`` every row is visible.  With them,
    query ``i`` sees row ``r`` only when ``born[r] < at[i] < died[r]``:
    the row's insert returned before the query was issued and its delete
    (if any) returned after.  Rows a query cannot see never enter its
    top-k; slots left empty read -1.  Work is blocked over queries and
    rows, so memory stays at ``block x 8 block`` distances: the truth
    must not set the process's peak memory, which is a metric.
    """
    out = np.full((queries.shape[0], k), -1, dtype=np.int64)
    for qs in range(0, queries.shape[0], block):
        q = queries[qs:qs + block].astype(np.float64)
        qn = (q * q).sum(axis=1)[:, None]
        best_d = np.full((q.shape[0], k), np.inf)
        best_i = np.full((q.shape[0], k), -1, dtype=np.int64)
        for rs in range(0, base.shape[0], 8 * block):
            b = base[rs:rs + 8 * block].astype(np.float64)
            d = qn - 2.0 * q @ b.T + (b * b).sum(axis=1)[None, :]
            if at is not None:
                when = np.asarray(at[qs:qs + block])[:, None]
                rows = slice(rs, rs + b.shape[0])
                seen = ((np.asarray(born[rows])[None, :] < when)
                        & (when < np.asarray(died[rows])[None, :]))
                d = np.where(seen, d, np.inf)
            ids = np.broadcast_to(np.arange(rs, rs + b.shape[0]), d.shape)
            all_d = np.concatenate([best_d, d], axis=1)
            all_i = np.concatenate([best_i, ids], axis=1)
            order = np.argsort(all_d, axis=1, kind="stable")[:, :k]
            best_d = np.take_along_axis(all_d, order, axis=1)
            best_i = np.take_along_axis(all_i, order, axis=1)
        out[qs:qs + block] = np.where(np.isfinite(best_d), best_i, -1)
    return out
