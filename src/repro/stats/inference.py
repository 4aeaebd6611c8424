"""Inferential statistics for mapping-study distributions.

The paper reports distributions descriptively; a downstream user of this
library will want to know whether, e.g., the supply distribution (Fig. 2) and
the demand distribution (Fig. 4) differ beyond what a 28-vote sample could
produce by chance.  This module provides:

* Pearson chi-square and G-test (log-likelihood ratio) goodness-of-fit and
  homogeneity tests (scipy-backed, with small-sample guards);
* seeded bootstrap confidence intervals for category shares;
* an exact-by-simulation permutation test for the difference of two
  categorical distributions (total-variation statistic);
* a permutation test for a difference of means between two continuous
  samples — the significance primitive behind the cross-run perf
  watchdog (:func:`repro.obs.compare_runs`).

All randomized routines take an explicit ``rng`` or ``seed`` so results are
reproducible, per the HPC guide's determinism rule.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import StatsError
from repro.stats.frequency import FrequencyTable

__all__ = [
    "TestResult",
    "chi_square_gof",
    "g_test_gof",
    "chi_square_homogeneity",
    "bootstrap_share_ci",
    "total_variation_distance",
    "permutation_tvd_test",
    "permutation_mean_test",
]

CountsLike = FrequencyTable | Sequence[int] | np.ndarray


def _as_counts(counts: CountsLike, name: str = "counts") -> np.ndarray:
    if isinstance(counts, FrequencyTable):
        values = counts.values.astype(np.float64)
    else:
        values = np.asarray(counts, dtype=np.float64)
    if values.ndim != 1 or values.size < 2:
        raise StatsError(f"{name} must be a 1-D vector with >= 2 categories")
    if (values < 0).any():
        raise StatsError(f"{name} must be non-negative")
    if values.sum() <= 0:
        raise StatsError(f"{name} must not be all zero")
    return values


@dataclass(frozen=True, slots=True)
class TestResult:
    """Outcome of a hypothesis test.

    Attributes
    ----------
    statistic:
        Value of the test statistic.
    p_value:
        Two-sided p-value.
    dof:
        Degrees of freedom (``0`` for permutation tests).
    method:
        Short name of the test used.
    """

    statistic: float
    p_value: float
    dof: int
    method: str

    def significant(self, alpha: float = 0.05) -> bool:
        """Whether the null hypothesis is rejected at level *alpha*."""
        if not 0 < alpha < 1:
            raise StatsError(f"alpha must be in (0, 1), got {alpha}")
        return self.p_value < alpha


def _expected_counts(
    obs: np.ndarray, expected_shares: Sequence[float] | None
) -> np.ndarray:
    """Expected counts under *expected_shares* (uniform when ``None``).

    Every expected count must be positive: a zero share leaves both
    goodness-of-fit statistics undefined.
    """
    if expected_shares is None:
        return np.full_like(obs, obs.sum() / obs.size)
    shares = np.asarray(expected_shares, dtype=np.float64)
    if shares.shape != obs.shape:
        raise StatsError("expected_shares length must match observed")
    if not np.isclose(shares.sum(), 1.0):
        raise StatsError("expected_shares must sum to 1")
    exp = shares * obs.sum()
    if (exp <= 0).any():
        raise StatsError("expected counts must be strictly positive")
    return exp


def chi_square_gof(
    observed: CountsLike, expected_shares: Sequence[float] | None = None
) -> TestResult:
    """Pearson chi-square goodness-of-fit against *expected_shares*.

    Default null hypothesis is the uniform distribution — exactly the
    "effort is quite balanced" claim of Q2.
    """
    from scipy import stats as sps

    obs = _as_counts(observed, "observed")
    statistic, p_value = sps.chisquare(obs, _expected_counts(obs, expected_shares))
    return TestResult(float(statistic), float(p_value), obs.size - 1, "chi-square GOF")


def g_test_gof(
    observed: CountsLike, expected_shares: Sequence[float] | None = None
) -> TestResult:
    """G-test (log-likelihood ratio) goodness-of-fit; robust for small counts."""
    from scipy import stats as sps

    obs = _as_counts(observed, "observed")
    statistic, p_value = sps.power_divergence(
        obs, _expected_counts(obs, expected_shares), lambda_="log-likelihood"
    )
    return TestResult(float(statistic), float(p_value), obs.size - 1, "G-test GOF")


def chi_square_homogeneity(a: CountsLike, b: CountsLike) -> TestResult:
    """Chi-square homogeneity test for two count vectors over the same categories."""
    from scipy import stats as sps

    va, vb = _as_counts(a, "a"), _as_counts(b, "b")
    if va.shape != vb.shape:
        raise StatsError("both count vectors need the same categories")
    table = np.vstack([va, vb])
    # Drop categories empty in both samples: they carry no information and
    # break the expected-frequency computation.
    keep = table.sum(axis=0) > 0
    if keep.sum() < 2:
        raise StatsError("need >= 2 jointly non-empty categories")
    statistic, p_value, dof, _ = sps.chi2_contingency(table[:, keep])
    return TestResult(float(statistic), float(p_value), int(dof), "chi-square homogeneity")


def bootstrap_share_ci(
    counts: CountsLike,
    label_index: int,
    *,
    n_resamples: int = 10_000,
    confidence: float = 0.95,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Percentile bootstrap CI for one category's share.

    Resamples the *observations* underlying the count vector (multinomial
    with the empirical shares), fully vectorized: one
    ``Generator.multinomial`` call produces all resamples.

    Returns ``(low, high)``.
    """
    values = _as_counts(counts)
    if not 0 <= label_index < values.size:
        raise StatsError(f"label_index {label_index} out of range")
    if not 0 < confidence < 1:
        raise StatsError("confidence must be in (0, 1)")
    if n_resamples < 100:
        raise StatsError("need at least 100 resamples")
    if rng is not None and seed is not None:
        raise StatsError("provide either seed or rng, not both")
    if rng is None:
        rng = np.random.default_rng(seed)
    n = int(values.sum())
    p = values / n
    resamples = rng.multinomial(n, p, size=n_resamples)  # (R, k)
    shares = resamples[:, label_index] / n
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(shares, [alpha, 1.0 - alpha])
    return float(low), float(high)


def total_variation_distance(a: CountsLike, b: CountsLike) -> float:
    """Total variation distance between two count distributions, in ``[0, 1]``."""
    va, vb = _as_counts(a, "a"), _as_counts(b, "b")
    if va.shape != vb.shape:
        raise StatsError("both count vectors need the same categories")
    return float(0.5 * np.abs(va / va.sum() - vb / vb.sum()).sum())


def permutation_tvd_test(
    a: CountsLike,
    b: CountsLike,
    *,
    n_permutations: int = 10_000,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> TestResult:
    """Permutation test: are two categorical samples drawn from one distribution?

    The statistic is the total variation distance between the two empirical
    distributions.  Under the null, category labels are exchangeable between
    the samples; the permutation reshuffles the pooled observations into two
    groups of the original sizes.  Vectorized via multivariate-hypergeometric
    resampling of the pooled counts (equivalent to label permutation).
    """
    va, vb = _as_counts(a, "a"), _as_counts(b, "b")
    if va.shape != vb.shape:
        raise StatsError("both count vectors need the same categories")
    if n_permutations < 100:
        raise StatsError("need at least 100 permutations")
    if rng is not None and seed is not None:
        raise StatsError("provide either seed or rng, not both")
    if rng is None:
        rng = np.random.default_rng(seed)
    observed = total_variation_distance(va, vb)
    pooled = (va + vb).astype(np.int64)
    na = int(va.sum())
    # Draw `na` observations without replacement from the pooled counts.
    draws = rng.multivariate_hypergeometric(pooled, na, size=n_permutations)
    rest = pooled[None, :] - draws
    pa = draws / na
    pb = rest / rest.sum(axis=1, keepdims=True)
    tvd = 0.5 * np.abs(pa - pb).sum(axis=1)
    # Add-one smoothing keeps the p-value a valid permutation p-value.
    p_value = (1.0 + (tvd >= observed - 1e-12).sum()) / (n_permutations + 1.0)
    return TestResult(observed, float(p_value), 0, "permutation TVD")


def permutation_mean_test(
    a: Sequence[float] | np.ndarray,
    b: Sequence[float] | np.ndarray,
    *,
    n_permutations: int = 10_000,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> TestResult:
    """Permutation test for a difference in means of two continuous samples.

    The workhorse of the cross-run regression watchdog
    (:func:`repro.obs.compare_runs`): per-stage duration samples from two
    windows of runs are exchangeable under the null hypothesis of "no
    perf change", so the reference distribution of ``mean(b) - mean(a)``
    is built by reshuffling the pooled observations into two groups of
    the original sizes (fully vectorized: one permuted matrix).  The
    p-value is two-sided with add-one smoothing.

    Each sample needs >= 2 observations; with fewer there is no
    within-group variance to test against (:class:`StatsError`).
    """
    va = np.asarray(a, dtype=np.float64).ravel()
    vb = np.asarray(b, dtype=np.float64).ravel()
    if va.size < 2 or vb.size < 2:
        raise StatsError("each sample needs >= 2 observations")
    if not (np.isfinite(va).all() and np.isfinite(vb).all()):
        raise StatsError("samples must be finite")
    if n_permutations < 100:
        raise StatsError("need at least 100 permutations")
    if rng is not None and seed is not None:
        raise StatsError("provide either seed or rng, not both")
    if rng is None:
        rng = np.random.default_rng(seed)
    observed = float(vb.mean() - va.mean())
    pooled = np.concatenate([va, vb])
    if np.ptp(pooled) == 0.0:
        # All observations identical: no variability, no evidence of change.
        return TestResult(observed, 1.0, 0, "permutation mean")
    # Permute tiled index rows in place — O(R·n) and integer-sized, versus
    # argsort over an R×n float matrix (O(R·n·log n) plus 8n bytes/row).
    idx = rng.permuted(
        np.tile(np.arange(pooled.size), (n_permutations, 1)), axis=1
    )
    shuffled = pooled[idx]
    mean_a = shuffled[:, : va.size].mean(axis=1)
    mean_b = shuffled[:, va.size :].mean(axis=1)
    deltas = np.abs(mean_b - mean_a)
    p_value = (1.0 + (deltas >= abs(observed) - 1e-15).sum()) / (
        n_permutations + 1.0
    )
    return TestResult(observed, float(p_value), 0, "permutation mean")
