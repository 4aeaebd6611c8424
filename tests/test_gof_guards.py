"""Goodness-of-fit input guards shared by the chi-square and G-tests.

A zero expected share makes both statistics undefined: the G-test would
return ``nan`` (zero observed in that category) or ``inf`` with p = 0
(non-zero observed) behind a RuntimeWarning.  Both tests refuse the
input with the same error instead.
"""

import warnings

import pytest

from repro.errors import StatsError
from repro.stats.inference import chi_square_gof, g_test_gof


@pytest.mark.parametrize("observed", [[1, 2, 0], [1, 2, 3]])
@pytest.mark.parametrize("test", [chi_square_gof, g_test_gof])
def test_zero_expected_share_rejected(test, observed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StatsError, match="strictly positive"):
            test(observed, expected_shares=[0.5, 0.5, 0.0])
