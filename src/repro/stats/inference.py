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

Each randomized test's draws are one kernel (:func:`share_resamples`,
:func:`tvd_exceedances`, :func:`mean_exceedances`) called once by the
one-shot function here and once per round by :mod:`repro.stats.fanout`,
which validates with the same :func:`whole_counts`/:func:`finite_sample`.
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


def whole_counts(counts: CountsLike, name: str = "counts") -> np.ndarray:
    """Counts a resampling routine draws observations from: whole numbers."""
    values = _as_counts(counts, name)
    if not (np.isfinite(values).all() and (values == np.floor(values)).all()):
        raise StatsError(f"{name} must be whole numbers")
    return values


def count_pair(a: CountsLike, b: CountsLike, validate=whole_counts):
    """Two count vectors over the same categories, each checked by *validate*."""
    va, vb = validate(a, "a"), validate(b, "b")
    if va.shape != vb.shape:
        raise StatsError("both count vectors need the same categories")
    return va, vb


def finite_sample(sample: Sequence[float] | np.ndarray, name: str) -> np.ndarray:
    """One continuous sample of a difference-of-means test."""
    values = np.asarray(sample, dtype=np.float64).ravel()
    if values.size < 2:
        raise StatsError(f"{name} needs >= 2 observations")
    if not np.isfinite(values).all():
        raise StatsError(f"{name} must be finite")
    return values


def check_share(n_categories: int, label_index: int, confidence: float) -> None:
    """Validate the label and confidence of a share interval."""
    if not 0 <= label_index < n_categories:
        raise StatsError(f"label_index {label_index} out of range")
    if not 0 < confidence < 1:
        raise StatsError("confidence must be in (0, 1)")


def _generator(draws: int, noun: str, seed: int | None, rng):
    """The generator of a one-shot test drawing *draws* *noun*."""
    if draws < 100:
        raise StatsError(f"need at least 100 {noun}")
    if rng is not None and seed is not None:
        raise StatsError("provide either seed or rng, not both")
    return np.random.default_rng(seed) if rng is None else rng


# -- draw kernels: (generator, draw count, data) -> draws ----------------------


def share_resamples(rng, size: int, counts: np.ndarray, label_index: int):
    """*size* bootstrap resamples of one category's share: one multinomial
    draw of the observations underlying *counts*."""
    n = int(counts.sum())
    return rng.multinomial(n, counts / n, size=size)[:, label_index] / n


def share_interval(shares: np.ndarray, confidence: float) -> tuple[float, float]:
    """Percentile interval ``(low, high)`` of resampled *shares*."""
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(shares, [alpha, 1.0 - alpha])
    return float(low), float(high)


def tvd_exceedances(rng, size: int, a: np.ndarray, b: np.ndarray, observed: float):
    """How many of *size* permutations reach the *observed* TVD.

    A permutation reshuffles the pooled observations into two groups of
    the original sizes: a multivariate-hypergeometric draw of ``sum(a)``
    observations from the pooled counts.
    """
    pooled = (a + b).astype(np.int64)
    na = int(a.sum())
    drawn = rng.multivariate_hypergeometric(pooled, na, size=size)
    rest = pooled[None, :] - drawn
    pa = drawn / na
    pb = rest / rest.sum(axis=1, keepdims=True)
    tvd = 0.5 * np.abs(pa - pb).sum(axis=1)
    return int((tvd >= observed - 1e-12).sum())


def mean_exceedances(rng, size: int, a: np.ndarray, b: np.ndarray, observed: float):
    """How many of *size* permutations reach ``|mean(b) - mean(a)|`` of at
    least ``|observed|``.  With every observation equal all *size* tie it,
    and no draw is made."""
    pooled = np.concatenate([a, b])
    if np.ptp(pooled) == 0.0:
        return size
    # Permute tiled index rows in place — O(R·n) and integer-sized, versus
    # argsort over an R×n float matrix (O(R·n·log n) plus 8n bytes/row).
    idx = rng.permuted(np.tile(np.arange(pooled.size), (size, 1)), axis=1)
    shuffled = pooled[idx]
    mean_a = shuffled[:, : a.size].mean(axis=1)
    mean_b = shuffled[:, a.size :].mean(axis=1)
    deltas = np.abs(mean_b - mean_a)
    return int((deltas >= abs(observed) - 1e-15).sum())


def p_value(exceedances: int, draws: int) -> float:
    """Add-one smoothed permutation p-value: never 0, always valid."""
    return (1.0 + exceedances) / (draws + 1.0)


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

    va, vb = count_pair(a, b, _as_counts)
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

    Resamples the observations underlying the count vector with
    :func:`share_resamples`; *counts* must be whole numbers.

    Returns ``(low, high)``.
    """
    values = whole_counts(counts)
    check_share(values.size, label_index, confidence)
    rng = _generator(n_resamples, "resamples", seed, rng)
    shares = share_resamples(rng, n_resamples, values, label_index)
    return share_interval(shares, confidence)


def total_variation_distance(a: CountsLike, b: CountsLike) -> float:
    """Total variation distance between two count distributions, in ``[0, 1]``."""
    va, vb = count_pair(a, b, _as_counts)
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
    the samples; :func:`tvd_exceedances` reshuffles the pooled
    observations into two groups of the original sizes.  *a* and *b*
    must be whole counts.
    """
    va, vb = count_pair(a, b)
    rng = _generator(n_permutations, "permutations", seed, rng)
    observed = total_variation_distance(va, vb)
    exceed = tvd_exceedances(rng, n_permutations, va, vb, observed)
    return TestResult(observed, p_value(exceed, n_permutations), 0, "permutation TVD")


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
    is built by :func:`mean_exceedances`.  The p-value is two-sided with
    add-one smoothing; when every observation is equal it is exactly 1.

    Each sample needs >= 2 observations; with fewer there is no
    within-group variance to test against (:class:`StatsError`).
    """
    va, vb = finite_sample(a, "a"), finite_sample(b, "b")
    rng = _generator(n_permutations, "permutations", seed, rng)
    observed = float(vb.mean() - va.mean())
    exceed = mean_exceedances(rng, n_permutations, va, vb, observed)
    return TestResult(observed, p_value(exceed, n_permutations), 0, "permutation mean")
