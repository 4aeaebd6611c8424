"""Unit tests for inferential statistics."""

import numpy as np
import pytest

from repro.errors import StatsError
from repro.stats.frequency import FrequencyTable
from repro.stats.inference import (
    bootstrap_share_ci,
    chi_square_gof,
    chi_square_homogeneity,
    g_test_gof,
    permutation_mean_test,
    permutation_tvd_test,
    total_variation_distance,
)


class TestGoodnessOfFit:
    def test_uniform_data_not_rejected(self):
        result = chi_square_gof([100, 101, 99, 100])
        assert result.p_value > 0.9
        assert not result.significant()

    def test_skewed_data_rejected(self):
        result = chi_square_gof([1000, 5, 5, 5])
        assert result.significant(0.001)

    def test_custom_expected_shares(self):
        result = chi_square_gof([80, 20], expected_shares=[0.8, 0.2])
        assert result.p_value > 0.9

    def test_expected_shares_must_sum_to_one(self):
        with pytest.raises(StatsError):
            chi_square_gof([1, 2], expected_shares=[0.5, 0.4])

    def test_expected_shares_shape(self):
        with pytest.raises(StatsError):
            chi_square_gof([1, 2], expected_shares=[1.0])

    def test_g_test_agrees_qualitatively(self):
        chi = chi_square_gof([1000, 5, 5, 5])
        g = g_test_gof([1000, 5, 5, 5])
        assert g.significant(0.001) and chi.significant(0.001)

    def test_dof(self):
        assert chi_square_gof([1, 2, 3]).dof == 2

    def test_alpha_validation(self):
        result = chi_square_gof([10, 10])
        with pytest.raises(StatsError):
            result.significant(0)


class TestHomogeneity:
    def test_identical_distributions(self):
        result = chi_square_homogeneity([10, 20, 30], [20, 40, 60])
        assert result.p_value > 0.99

    def test_very_different_distributions(self):
        result = chi_square_homogeneity([100, 0, 0], [0, 0, 100])
        assert result.significant(0.001)

    def test_accepts_frequency_tables(self):
        a = FrequencyTable({"x": 3, "y": 7})
        b = FrequencyTable({"x": 30, "y": 70})
        assert chi_square_homogeneity(a, b).p_value > 0.9

    def test_jointly_empty_categories_dropped(self):
        result = chi_square_homogeneity([5, 0, 5], [6, 0, 4])
        assert result.dof == 1  # third category carries no information

    def test_shape_mismatch(self):
        with pytest.raises(StatsError):
            chi_square_homogeneity([1, 2], [1, 2, 3])


class TestBootstrap:
    def test_ci_contains_point_estimate(self):
        counts = [3, 7, 3, 6, 6]
        low, high = bootstrap_share_ci(counts, 1, seed=1, n_resamples=2000)
        assert low <= 7 / 25 <= high
        assert 0.0 <= low < high <= 1.0

    def test_deterministic_under_seed(self):
        counts = [4, 11, 1, 6, 6]
        a = bootstrap_share_ci(counts, 2, seed=9, n_resamples=1000)
        b = bootstrap_share_ci(counts, 2, seed=9, n_resamples=1000)
        assert a == b

    def test_narrower_with_more_data(self):
        small = bootstrap_share_ci([3, 7], 1, seed=0, n_resamples=3000)
        big = bootstrap_share_ci([300, 700], 1, seed=0, n_resamples=3000)
        assert (big[1] - big[0]) < (small[1] - small[0])

    def test_validation(self):
        with pytest.raises(StatsError):
            bootstrap_share_ci([1, 2], 5)
        with pytest.raises(StatsError):
            bootstrap_share_ci([1, 2], 0, confidence=1.5)
        with pytest.raises(StatsError):
            bootstrap_share_ci([1, 2], 0, n_resamples=10)

    def test_non_integer_counts_rejected(self):
        # Shares of (2.7, 3.2) summed to 1.18 in the multinomial draw,
        # which put the excess on the last category: a wrong interval.
        with pytest.raises(StatsError, match="whole numbers"):
            bootstrap_share_ci((2.7, 3.2), 0, seed=1)
        assert bootstrap_share_ci((2.0, 3.0), 0, seed=1, n_resamples=200)

    def test_seed_and_rng_mutually_exclusive(self):
        with pytest.raises(StatsError, match="not both"):
            bootstrap_share_ci([3, 7], 1, seed=0,
                               rng=np.random.default_rng(0))

    def test_rng_alone_accepted(self):
        low, high = bootstrap_share_ci(
            [3, 7], 1, rng=np.random.default_rng(1), n_resamples=500
        )
        assert 0.0 <= low < high <= 1.0


class TestTvdAndPermutation:
    def test_tvd_identical_zero(self):
        assert total_variation_distance([1, 2, 3], [2, 4, 6]) == pytest.approx(0.0)

    def test_tvd_disjoint_one(self):
        assert total_variation_distance([5, 0], [0, 5]) == pytest.approx(1.0)

    def test_tvd_supply_demand(self):
        tvd = total_variation_distance([3, 7, 3, 6, 6], [4, 11, 1, 6, 6])
        assert tvd == pytest.approx(0.1357, abs=1e-3)

    def test_permutation_identical_high_p(self):
        result = permutation_tvd_test([30, 30, 30], [30, 30, 30],
                                      seed=0, n_permutations=500)
        assert result.p_value > 0.5

    def test_permutation_disjoint_low_p(self):
        result = permutation_tvd_test([200, 0], [0, 200],
                                      seed=0, n_permutations=2000)
        assert result.p_value < 0.01

    def test_permutation_p_in_unit_interval(self):
        result = permutation_tvd_test([3, 7, 3, 6, 6], [4, 11, 1, 6, 6],
                                      seed=3, n_permutations=500)
        assert 0.0 < result.p_value <= 1.0

    def test_permutation_deterministic(self):
        kwargs = dict(seed=4, n_permutations=500)
        a = permutation_tvd_test([3, 7], [5, 5], **kwargs)
        b = permutation_tvd_test([3, 7], [5, 5], **kwargs)
        assert a.p_value == b.p_value

    def test_rng_and_seed_mutually_exclusive_ok(self):
        rng = np.random.default_rng(0)
        result = permutation_tvd_test([3, 7], [5, 5], rng=rng,
                                      n_permutations=200)
        assert result.method == "permutation TVD"

    def test_non_integer_counts_rejected(self):
        with pytest.raises(StatsError, match="whole numbers"):
            permutation_tvd_test([2.5, 3.0], [1.0, 2.0], seed=0)
        # The distance itself and the count-based tests take any
        # non-negative weights.
        assert total_variation_distance([2.5, 3.0], [1.0, 2.0]) > 0
        assert chi_square_gof([2.7, 3.2]).p_value > 0.5
        assert chi_square_homogeneity([2.5, 3.0], [1.0, 2.0]).p_value > 0.5

    def test_seed_and_rng_mutually_exclusive(self):
        with pytest.raises(StatsError, match="not both"):
            permutation_tvd_test([3, 7], [5, 5], seed=0,
                                 rng=np.random.default_rng(0),
                                 n_permutations=200)


class TestPermutationMean:
    """Difference-in-means permutation test backing the run watchdog."""

    def test_shifted_samples_low_p(self):
        a = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00]
        b = [3.00, 3.01, 2.99, 3.02, 2.98, 3.00]
        result = permutation_mean_test(a, b, seed=0, n_permutations=2000)
        assert result.statistic == pytest.approx(2.0, abs=0.05)
        assert result.p_value < 0.01

    def test_same_distribution_high_p(self):
        rng = np.random.default_rng(7)
        a = rng.normal(1.0, 0.1, size=20)
        b = rng.normal(1.0, 0.1, size=20)
        result = permutation_mean_test(a, b, seed=1, n_permutations=2000)
        assert result.p_value > 0.05

    def test_all_identical_observations_p_one(self):
        result = permutation_mean_test([2.0, 2.0, 2.0], [2.0, 2.0],
                                       seed=0, n_permutations=200)
        assert result.p_value == 1.0
        assert result.statistic == 0.0

    def test_deterministic_under_seed(self):
        kwargs = dict(seed=5, n_permutations=500)
        a = permutation_mean_test([1.0, 1.1, 0.9], [1.4, 1.5, 1.3], **kwargs)
        b = permutation_mean_test([1.0, 1.1, 0.9], [1.4, 1.5, 1.3], **kwargs)
        assert a.p_value == b.p_value

    def test_too_few_observations_raise(self):
        with pytest.raises(StatsError):
            permutation_mean_test([1.0], [1.0, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(StatsError):
            permutation_mean_test([1.0, float("nan")], [1.0, 2.0])

    def test_seed_and_rng_mutually_exclusive(self):
        with pytest.raises(StatsError):
            permutation_mean_test([1.0, 2.0], [1.0, 2.0],
                                  seed=0, rng=np.random.default_rng(0))


class TestOneShotGoldens:
    """Literal outputs of the three randomized one-shot tests.

    ``repro.obs.compare`` and ``repro.core.analysis`` consume these
    p-values, so a change to a draw call, a tolerance or the add-one
    smoothing must move one of these numbers.  The ``rng=`` cases also
    pin how much of the generator each call consumes: the next integer
    drawn from it after the call.
    """

    @pytest.mark.parametrize(
        ("args", "kwargs", "expected"),
        [
            (([3, 7, 3, 6, 6], 1), dict(seed=1, n_resamples=2000),
             (0.12, 0.48)),
            (((120, 45, 30, 15), 3),
             dict(seed=11, n_resamples=500, confidence=0.9),
             (0.04285714285714286, 0.10476190476190476)),
            ((FrequencyTable({"a": 4, "b": 11, "c": 1}), 0), dict(seed=9),
             (0.0625, 0.5)),
        ],
    )
    def test_bootstrap_share_ci(self, args, kwargs, expected):
        assert bootstrap_share_ci(*args, **kwargs) == expected

    @pytest.mark.parametrize(
        ("a", "b", "kwargs", "expected"),
        [
            ([3, 7, 3, 6, 6], [4, 11, 1, 6, 6],
             dict(seed=3, n_permutations=500),
             (0.1357142857142857, 0.872255489021956)),
            ((300, 50, 20), (100, 150, 90), dict(seed=5, n_permutations=1000),
             (0.5166931637519874, 0.000999000999000999)),
            ([30, 30, 30], [30, 30, 30], dict(seed=0), (0.0, 1.0)),
        ],
    )
    def test_permutation_tvd_test(self, a, b, kwargs, expected):
        result = permutation_tvd_test(a, b, **kwargs)
        assert (result.statistic, result.p_value) == expected
        assert (result.dof, result.method) == (0, "permutation TVD")

    @pytest.mark.parametrize(
        ("a", "b", "kwargs", "expected"),
        [
            ([1.0, 1.1, 0.9], [1.4, 1.5, 1.3],
             dict(seed=5, n_permutations=500),
             (0.40000000000000013, 0.10379241516966067)),
            ([1.0, 1.02, 0.98, 1.01], [1.01, 0.99, 1.03],
             dict(seed=2, n_permutations=300),
             (0.007500000000000062, 0.6810631229235881)),
            # All observations equal: no variability, p is exactly 1.
            ([2.0, 2.0, 2.0], [2.0, 2.0], dict(seed=0, n_permutations=200),
             (0.0, 1.0)),
            ([2.5, 2.5], [2.5, 2.5, 2.5], dict(seed=0), (0.0, 1.0)),
        ],
    )
    def test_permutation_mean_test(self, a, b, kwargs, expected):
        result = permutation_mean_test(a, b, **kwargs)
        assert (result.statistic, result.p_value) == expected
        assert (result.dof, result.method) == (0, "permutation mean")

    @pytest.mark.parametrize(
        ("call", "expected", "next_draw"),
        [
            (lambda rng: bootstrap_share_ci(
                [3, 7, 3, 6, 6], 1, rng=rng, n_resamples=2000),
             (0.12, 0.44), 182086052980453274),
            (lambda rng: permutation_tvd_test(
                [3, 7, 3, 6, 6], [4, 11, 1, 6, 6], rng=rng,
                n_permutations=500).p_value,
             0.8762475049900199, 3825383900596782033),
            (lambda rng: permutation_mean_test(
                [1.0, 1.1, 0.9], [1.4, 1.5, 1.3], rng=rng,
                n_permutations=500).p_value,
             0.11177644710578842, 2731818309964415647),
            # The zero-variance mean test draws nothing: the generator's
            # next integer is its first.
            (lambda rng: permutation_mean_test(
                [2.0, 2.0, 2.0], [2.0, 2.0], rng=rng,
                n_permutations=200).p_value,
             1.0, 3602269063097244188),
        ],
        ids=["bootstrap", "tvd", "mean", "mean-all-equal"],
    )
    def test_generator_consumption(self, call, expected, next_draw):
        rng = np.random.default_rng(21)
        assert call(rng) == expected
        assert int(rng.integers(2**62)) == next_draw
