"""Utility-function laws: Equation 3's inverse relations and concavity."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.utility import AlphaFairUtility, LogUtility

POSITIVE = st.floats(min_value=1e-6, max_value=1e6)


class TestLogUtility:
    def test_rate_is_inverse_of_marginal_utility(self):
        u = LogUtility()
        x = np.array([0.5, 1.0, 2.0, 10.0])
        assert np.allclose(u.rate(u.inverse_rate(x)), x)

    def test_weighted_rate_scales_linearly(self):
        u = LogUtility()
        rho = np.array([1.0, 2.0])
        assert np.allclose(u.rate(rho, 3.0), 3.0 * u.rate(rho, 1.0))

    def test_rate_derivative_is_negative(self):
        u = LogUtility()
        assert np.all(u.rate_derivative(np.array([0.1, 1.0, 10.0])) < 0)

    @given(rho=POSITIVE, w=st.floats(min_value=0.1, max_value=10))
    def test_derivative_matches_finite_difference(self, rho, w):
        u = LogUtility()
        eps = rho * 1e-6
        numeric = (u.rate(rho + eps, w) - u.rate(rho - eps, w)) / (2 * eps)
        analytic = u.rate_derivative(rho, w)
        assert numeric == pytest.approx(analytic, rel=1e-3)

    def test_value_is_weighted_log(self):
        u = LogUtility()
        assert u.value(np.e, 2.0) == pytest.approx(2.0)

    def test_price_sum_clamp_bounds_rates(self):
        u = LogUtility()
        assert np.isfinite(u.rate(np.array([0.0])))[0]


class TestLogUtilityOperands:
    """``rate`` / ``rate_derivative`` finish one buffer in place; what
    they accept and return must not depend on that."""

    CASES = [
        (0.5, 2.0), (0.5, 2), (0, 1.0), (np.float64(0.25), 3.0),
        (np.array(0.5), np.array(2.0)),
        (np.array([0.5, 0.0, 4.0]), 2.0),
        (0.5, np.array([1.0, 2.0, 3.0])),
        (np.array([0.5, 0.0, 4.0]), np.array([1.0, 2.0, 3.0])),
        ([0.5, 4.0], 1.0),
        (np.array([[0.5], [2.0]]), np.array([1.0, 3.0])),
        (np.array([0.5, 2.0], dtype=np.float32), 1.0),
    ]

    @pytest.mark.parametrize("price_sum, weight", CASES)
    def test_scalars_zero_d_and_broadcast_operands(self, price_sum, weight):
        u = LogUtility()
        rho = np.maximum(np.asarray(price_sum, dtype=np.float64), 1e-9)
        for got, want in ((u.rate(price_sum, weight), weight / rho),
                          (u.rate_derivative(price_sum, weight),
                           -weight / (rho * rho))):
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert got.shape == np.shape(want)
            np.testing.assert_array_equal(got, want)

    def test_operands_are_not_written(self):
        u = LogUtility()
        rho = np.array([0.0, 0.5, 4.0])
        weights = np.array([1.0, 2.0, 3.0])
        keep = rho.copy(), weights.copy()
        first = u.rate(rho, weights)
        second = u.rate_derivative(rho, weights)
        np.testing.assert_array_equal(rho, keep[0])
        np.testing.assert_array_equal(weights, keep[1])
        assert not np.shares_memory(first, rho)
        assert not np.shares_memory(second, first)


class TestAlphaFairUtility:
    def test_rejects_alpha_one(self):
        with pytest.raises(ValueError):
            AlphaFairUtility(1.0)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            AlphaFairUtility(0.0)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    def test_rate_inverts_marginal_utility(self, alpha):
        u = AlphaFairUtility(alpha)
        x = np.array([0.25, 1.0, 4.0])
        assert np.allclose(u.rate(u.inverse_rate(x)), x)

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_rate_decreases_with_price(self, alpha):
        u = AlphaFairUtility(alpha)
        rho = np.array([0.5, 1.0, 2.0, 4.0])
        rates = u.rate(rho)
        assert np.all(np.diff(rates) < 0)

    @given(rho=POSITIVE)
    def test_alpha2_derivative_finite_difference(self, rho):
        u = AlphaFairUtility(2.0)
        eps = rho * 1e-6
        numeric = (u.rate(rho + eps) - u.rate(rho - eps)) / (2 * eps)
        assert numeric == pytest.approx(u.rate_derivative(rho), rel=1e-3)

    def test_near_max_min_allocates_more_evenly_than_log(self):
        # Higher alpha compresses the rate ratio between cheap and
        # expensive paths.
        cheap, expensive = 0.5, 2.0
        log_ratio = (LogUtility().rate(cheap) / LogUtility().rate(expensive))
        a3 = AlphaFairUtility(3.0)
        a3_ratio = a3.rate(cheap) / a3.rate(expensive)
        assert a3_ratio < log_ratio
