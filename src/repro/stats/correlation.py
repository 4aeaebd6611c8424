"""Rank-agreement measures between category orderings.

Used to compare how two analyses rank the research directions — e.g. supply
(Fig. 2) versus demand (Fig. 4) — beyond eyeballing pie charts.  Provides
Spearman's rho and Kendall's tau over aligned score vectors, plus rank-biased
overlap (RBO) for top-weighted ranking comparison, implemented from scratch.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

import numpy as np

from repro.errors import StatsError
from repro.stats.frequency import FrequencyTable

__all__ = ["spearman_rho", "kendall_tau", "rank_biased_overlap", "align_tables"]


def align_tables(
    a: FrequencyTable, b: FrequencyTable
) -> tuple[np.ndarray, np.ndarray, tuple[Hashable, ...]]:
    """Align two frequency tables on their common label order.

    Both tables must contain exactly the same labels; order of *a* wins.
    Returns ``(values_a, values_b, labels)``.
    """
    if set(a.labels) != set(b.labels):
        raise StatsError(
            f"tables cover different categories: {set(a.labels) ^ set(b.labels)}"
        )
    values_b = np.asarray([b[label] for label in a.labels], dtype=np.float64)
    return a.values.astype(np.float64), values_b, a.labels


def spearman_rho(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Spearman rank correlation and p-value for two aligned score vectors."""
    from scipy import stats as sps

    va, vb = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if va.shape != vb.shape or va.ndim != 1 or va.size < 3:
        raise StatsError("need two aligned 1-D vectors of length >= 3")
    result = sps.spearmanr(va, vb)
    return float(result.statistic), float(result.pvalue)


def kendall_tau(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Kendall's tau-b and p-value for two aligned score vectors."""
    from scipy import stats as sps

    va, vb = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if va.shape != vb.shape or va.ndim != 1 or va.size < 3:
        raise StatsError("need two aligned 1-D vectors of length >= 3")
    result = sps.kendalltau(va, vb)
    return float(result.statistic), float(result.pvalue)


def rank_biased_overlap(
    ranking_a: Sequence[Hashable],
    ranking_b: Sequence[Hashable],
    *,
    p: float = 0.9,
) -> float:
    """Rank-biased overlap (Webber et al. 2010) of two full rankings.

    Computes the exact RBO for two same-length, duplicate-free rankings over
    the same items (the extrapolated form for full lists):

    ``RBO = (A_d * p^d summed) * (1-p)/p + A_k * p^k`` with overlap agreement
    ``A_d`` at each depth ``d``.  *p* in (0, 1) controls top-weightedness:
    smaller p weights the top ranks more heavily.

    Returns a value in ``[0, 1]``; 1 means identical rankings.
    """
    if not 0 < p < 1:
        raise StatsError(f"p must be in (0, 1), got {p}")
    la, lb = list(ranking_a), list(ranking_b)
    if len(la) != len(lb):
        raise StatsError("rankings must have equal length")
    if len(set(la)) != len(la) or len(set(lb)) != len(lb):
        raise StatsError("rankings must be duplicate-free")
    if set(la) != set(lb):
        raise StatsError("rankings must cover the same items")
    k = len(la)
    if k == 0:
        raise StatsError("rankings must be non-empty")
    seen_a: set[Hashable] = set()
    seen_b: set[Hashable] = set()
    overlap = 0
    agreement = np.empty(k, dtype=np.float64)
    for depth in range(k):
        item_a, item_b = la[depth], lb[depth]
        if item_a == item_b:
            overlap += 1
        else:
            if item_a in seen_b:
                overlap += 1
            if item_b in seen_a:
                overlap += 1
        seen_a.add(item_a)
        seen_b.add(item_b)
        agreement[depth] = overlap / (depth + 1)
    weights = p ** np.arange(1, k + 1)
    rbo_min = (1 - p) / p * float((agreement * weights).sum())
    # Extrapolate the tail assuming agreement stays at its depth-k value.
    return float(rbo_min + agreement[-1] * p**k)
