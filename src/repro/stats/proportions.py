"""Proportion statistics: intervals and comparisons for category shares.

The mapping study's headline numbers are proportions of small samples (3 of
25 tools, 11 of 28 votes).  This module provides the estimators a careful
report attaches to such numbers:

* :func:`wilson_interval` — the Wilson score interval, well-behaved at
  small *n* and extreme proportions (unlike the naive Wald interval);
* :func:`jeffreys_interval` — the Bayesian Jeffreys prior interval;
* :func:`two_proportion_test` — pooled z-test for share equality between
  two samples;
* :func:`share_table` — all shares of a frequency table with Wilson CIs.
"""

from __future__ import annotations

import math

from repro.errors import StatsError
from repro.stats.frequency import FrequencyTable
from repro.stats.inference import TestResult

__all__ = [
    "wilson_interval",
    "jeffreys_interval",
    "two_proportion_test",
    "share_table",
]


def _check_counts(successes: int, trials: int) -> None:
    if trials <= 0:
        raise StatsError(f"trials must be > 0, got {trials}")
    if not 0 <= successes <= trials:
        raise StatsError(
            f"successes must be in [0, {trials}], got {successes}"
        )


def wilson_interval(
    successes: int, trials: int, *, confidence: float = 0.95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    >>> low, high = wilson_interval(11, 28)
    >>> low < 11 / 28 < high
    True
    """
    from scipy import stats as sps

    _check_counts(successes, trials)
    if not 0 < confidence < 1:
        raise StatsError("confidence must be in (0, 1)")
    z = float(sps.norm.ppf(1.0 - (1.0 - confidence) / 2.0))
    p = successes / trials
    denominator = 1.0 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denominator
    margin = (
        z
        * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
        / denominator
    )
    # The boundary cases are exactly 0/1 analytically; clamp away the float
    # noise the two different computations introduce.
    low = 0.0 if successes == 0 else max(0.0, centre - margin)
    high = 1.0 if successes == trials else min(1.0, centre + margin)
    return low, high


def jeffreys_interval(
    successes: int, trials: int, *, confidence: float = 0.95
) -> tuple[float, float]:
    """Jeffreys (Beta(1/2, 1/2) prior) equal-tailed credible interval.

    The boundary conventions follow Brown, Cai & DasGupta (2001): the lower
    limit is 0 when ``successes == 0`` and the upper limit 1 when
    ``successes == trials``.
    """
    from scipy import stats as sps

    _check_counts(successes, trials)
    if not 0 < confidence < 1:
        raise StatsError("confidence must be in (0, 1)")
    alpha = 1.0 - confidence
    posterior = sps.beta(successes + 0.5, trials - successes + 0.5)
    low = 0.0 if successes == 0 else float(posterior.ppf(alpha / 2))
    high = 1.0 if successes == trials else float(posterior.ppf(1 - alpha / 2))
    return low, high


def two_proportion_test(
    successes_a: int, trials_a: int, successes_b: int, trials_b: int
) -> TestResult:
    """Pooled two-sided z-test for equality of two proportions.

    Suitable for questions like "is orchestration's supply share (7/25)
    different from its demand share (11/28)?".
    """
    from scipy import stats as sps

    _check_counts(successes_a, trials_a)
    _check_counts(successes_b, trials_b)
    pooled = (successes_a + successes_b) / (trials_a + trials_b)
    if pooled in (0.0, 1.0):
        # Identical degenerate proportions: no evidence of difference.
        return TestResult(0.0, 1.0, 0, "two-proportion z")
    se = math.sqrt(pooled * (1 - pooled) * (1 / trials_a + 1 / trials_b))
    z = (successes_a / trials_a - successes_b / trials_b) / se
    p_value = 2.0 * float(sps.norm.sf(abs(z)))
    return TestResult(float(z), min(p_value, 1.0), 0, "two-proportion z")


def share_table(
    table: FrequencyTable, *, confidence: float = 0.95
) -> dict[object, tuple[float, float, float]]:
    """Every category's share with its Wilson interval.

    Returns label → ``(share, low, high)``.
    """
    total = table.total
    if total == 0:
        raise StatsError("cannot compute shares of an all-zero table")
    out: dict[object, tuple[float, float, float]] = {}
    for label, count in table.items():
        low, high = wilson_interval(count, total, confidence=confidence)
        out[label] = (count / total, low, high)
    return out
