import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from survmix.dist import (
    log_gaussian_diag,
    log_sum_exp,
    log_weibull_censored,
    softmax,
    softplus,
    softplus_grad,
    weibull_censored_grads,
    weibull_median,
)
from survmix.errors import DomainError


class TestSoftplus:
    def test_at_zero(self):
        assert softplus(0.0) == pytest.approx(np.log(2.0), rel=1e-15)

    def test_large_positive_is_identity(self):
        assert softplus(100.0) == pytest.approx(100.0, rel=1e-15)

    def test_large_negative_underflows_gracefully(self):
        # exp(-100), frozen from direct high-precision evaluation
        assert softplus(-100.0) == pytest.approx(3.720075976020836e-44, rel=1e-12)

    def test_grad_is_sigmoid(self):
        xs = np.array([-50.0, -1.0, 0.0, 1.0, 50.0])
        np.testing.assert_allclose(softplus_grad(xs), 1.0 / (1.0 + np.exp(-xs)), rtol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-700, 700))
    def test_monotone_positive_finite(self, x):
        v = softplus(x)
        assert np.isfinite(v) and v >= 0.0
        assert softplus(x + 1.0) > v


class TestLogGaussianDiag:
    def test_standard_normal_at_origin(self):
        got = log_gaussian_diag(np.zeros((1, 2)), np.zeros(2), np.ones(2))
        assert got[0] == pytest.approx(-np.log(2 * np.pi), rel=1e-14)

    def test_frozen_two_dim_value(self):
        # z=(0,0), mean=(1,-1), var=(2,0.5): frozen from direct evaluation
        got = log_gaussian_diag(np.zeros((1, 2)), np.array([1.0, -1.0]),
                                np.array([2.0, 0.5]))
        assert got[0] == pytest.approx(-3.0878770664093453, rel=1e-13)

    def test_matches_scipy(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((20, 4))
        mean = rng.standard_normal(4)
        var = rng.uniform(0.1, 3.0, 4)
        expected = stats.multivariate_normal(mean, np.diag(var)).logpdf(z)
        np.testing.assert_allclose(log_gaussian_diag(z, mean, var), expected, rtol=1e-10)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(DomainError):
            log_gaussian_diag(np.zeros((1, 2)), np.zeros(2), np.array([1.0, 0.0]))


class TestWeibull:
    def test_event_logpdf_frozen(self):
        # scale=2, shape=1, t=1, event: frozen from direct evaluation
        got = log_weibull_censored(np.array([1.0]), np.array([1.0]),
                                   np.array([2.0]), 1.0)
        assert got[0] == pytest.approx(-1.1931471805599454, rel=1e-14)

    def test_censored_is_log_survival(self):
        t, lam, k = 1.5, 2.0, 3.0
        got = log_weibull_censored(np.array([t]), np.array([0.0]),
                                   np.array([lam]), k)
        assert got[0] == pytest.approx(-((t / lam) ** k), rel=1e-14)

    def test_matches_scipy_logpdf(self):
        rng = np.random.default_rng(4)
        t = rng.uniform(0.1, 5.0, 30)
        lam = rng.uniform(0.5, 3.0, 30)
        k = 1.7
        got = log_weibull_censored(t, np.ones(30), lam, k)
        expected = stats.weibull_min.logpdf(t, k, scale=lam)
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_matches_scipy_logsf(self):
        rng = np.random.default_rng(5)
        t = rng.uniform(0.1, 5.0, 30)
        lam = rng.uniform(0.5, 3.0, 30)
        k = 0.8
        got = log_weibull_censored(t, np.zeros(30), lam, k)
        expected = stats.weibull_min.logsf(t, k, scale=lam)
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_density_integrates_to_one(self):
        for lam, k in [(1.0, 1.0), (2.0, 0.7), (0.5, 3.0)]:
            pdf = lambda t: np.exp(
                log_weibull_censored(np.array([t]), np.array([1.0]),
                                     np.array([lam]), k)[0]
            )
            total, _ = integrate.quad(pdf, 0.0, np.inf)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_grads_match_finite_differences(self):
        rng = np.random.default_rng(6)
        t = rng.uniform(0.1, 5.0, 30)
        event = rng.integers(0, 2, 30).astype(float)
        lam = rng.uniform(0.5, 3.0, 30)
        k, h = 1.4, 1e-6
        ll, d_scale, d_shape = weibull_censored_grads(t, event, lam, k)
        np.testing.assert_array_equal(ll, log_weibull_censored(t, event, lam, k))
        fd_scale = (log_weibull_censored(t, event, lam + h, k)
                    - log_weibull_censored(t, event, lam - h, k)) / (2 * h)
        fd_shape = (log_weibull_censored(t, event, lam, k + h)
                    - log_weibull_censored(t, event, lam, k - h)) / (2 * h)
        np.testing.assert_allclose(d_scale, fd_scale, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(d_shape, fd_shape, rtol=1e-6, atol=1e-8)

    def test_median_frozen(self):
        # scale=1, shape=2: frozen from direct evaluation
        assert weibull_median(1.0, 2.0) == pytest.approx(0.8325546111576977, rel=1e-14)

    def test_median_matches_scipy(self):
        assert weibull_median(2.5, 1.3) == pytest.approx(
            stats.weibull_min.median(1.3, scale=2.5), rel=1e-12
        )

    @pytest.mark.parametrize("scale, shape", [(0.0, 1.0), (1.0, 0.0)], ids=["scale", "shape"])
    def test_median_rejects_nonpositive_parameters(self, scale, shape):
        with pytest.raises(DomainError, match="^Weibull scale and shape must be positive$"):
            weibull_median(scale, shape)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(DomainError):
            log_weibull_censored(np.array([0.0]), np.array([1.0]),
                                 np.array([1.0]), 1.0)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(DomainError):
            log_weibull_censored(np.array([1.0]), np.array([1.0]),
                                 np.array([0.0]), 1.0)


class TestLogSumExp:
    def test_frozen_value(self):
        # lse(0,-1,-2): frozen from direct evaluation
        got = log_sum_exp(np.array([[0.0, -1.0, -2.0]]), axis=1)
        assert got[0] == pytest.approx(0.4076059644443804, rel=1e-14)

    def test_shift_invariance_with_huge_values(self):
        a = np.array([[1000.0, 999.0], [-1000.0, -1001.0]])
        got = log_sum_exp(a, axis=1)
        base = np.log(1 + np.exp(-1.0))
        np.testing.assert_allclose(got, [1000.0 + base, -1000.0 + base], rtol=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(DomainError, match="^log_sum_exp of an empty array$"):
            log_sum_exp(np.zeros((0, 3)), axis=1)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
           st.floats(-100, 100))
    def test_translation_property(self, xs, c):
        a = np.array([xs])
        lhs = log_sum_exp(a + c, axis=1)[0]
        rhs = log_sum_exp(a, axis=1)[0] + c
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        p = softmax(rng.uniform(-500, 500, (50, 6)), axis=1)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p >= 0)

    def test_uniform_on_equal_logits(self):
        np.testing.assert_allclose(softmax(np.zeros((1, 4)), axis=1), 0.25, atol=1e-15)
