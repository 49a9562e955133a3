import numpy as np
import pytest
from scipy import stats

from survmix.baselines import (
    gmm_em_fit,
    kmeans_assign,
    kmeans_fit,
    weibull_aft_fit,
    weibull_aft_predict,
)
from survmix.errors import ConfigError, ShapeError
from survmix.metrics import clustering_accuracy, concordance_index


def three_blobs(rng, n_per=60, sep=6.0, d=2):
    centers = sep * np.array([[1.0] + [0.0] * (d - 1),
                              [0.0, 1.0] + [0.0] * (d - 2),
                              [0.0] * d])
    X = np.vstack([c + rng.standard_normal((n_per, d)) for c in centers])
    labels = np.repeat(np.arange(3), n_per)
    return X, labels


class TestKMeans:
    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(0)
        X, labels = three_blobs(rng)
        model = kmeans_fit(X, 3, seed=0)
        assert clustering_accuracy(labels, kmeans_assign(model, X)) == 1.0

    def test_inertia_is_min_over_restarts(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((100, 3))
        best = kmeans_fit(X, 4, restarts=8, seed=5)
        singles = [kmeans_fit(X, 4, restarts=1, seed=s) for s in range(20)]
        assert all(best.inertia <= m.inertia + 1e-9 for m in singles[:1])
        # inertia recomputation from the returned centers agrees
        d2 = ((X[:, None, :] - best.centers[None]) ** 2).sum(axis=2)
        assert best.inertia == pytest.approx(d2.min(axis=1).sum(), rel=1e-12)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 2))
        a = kmeans_fit(X, 3, seed=9)
        b = kmeans_fit(X, 3, seed=9)
        np.testing.assert_array_equal(a.centers, b.centers)

    def test_too_few_rows(self):
        with pytest.raises(ConfigError):
            kmeans_fit(np.zeros((2, 2)), 3)

    def test_coincident_points_fall_back_to_a_uniform_draw(self):
        # once every point coincides with a chosen centre the D^2 weights
        # are all zero, so k-means++ draws the next centre uniformly
        model = kmeans_fit(np.full((5, 2), 3.0), 3, restarts=1, seed=0)
        np.testing.assert_array_equal(model.centers, np.full((3, 2), 3.0))
        assert model.inertia == 0.0

    def test_assign_checks_width(self):
        model = kmeans_fit(np.random.default_rng(0).standard_normal((10, 2)), 2)
        with pytest.raises(ShapeError):
            kmeans_assign(model, np.zeros((4, 3)))


class TestGmmEm:
    def test_trace_non_decreasing_twenty_runs(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X, _ = three_blobs(rng, n_per=40, sep=rng.uniform(1.0, 6.0))
            _, trace = gmm_em_fit(X, 3, seed=seed)
            diffs = np.diff(trace)
            assert np.all(diffs >= -1e-9), f"seed {seed}: min step {diffs.min()}"

    def test_recovers_parameters_of_separated_mixture(self):
        rng = np.random.default_rng(3)
        X, labels = three_blobs(rng, n_per=200, sep=8.0)
        model, _ = gmm_em_fit(X, 3, seed=0)
        np.testing.assert_allclose(sorted(model.weights), [1 / 3] * 3, atol=0.02)
        # each true center matched by some learned mean
        true_centers = np.array([X[labels == c].mean(axis=0) for c in range(3)])
        for c in true_centers:
            assert np.min(np.linalg.norm(model.means - c, axis=1)) < 0.3

    def test_weights_normalized_variances_floored(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((60, 2))
        model, _ = gmm_em_fit(X, 4, seed=1)
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(model.variances >= 1e-6 - 1e-15)

    def test_too_few_rows(self):
        with pytest.raises(ConfigError, match="^need at least 3 rows, got 2$"):
            gmm_em_fit(np.zeros((2, 2)), 3)

    def test_collapsed_component_warns_and_is_floored(self):
        # five coincident points far from the rest: their component's EM
        # variance is exactly 0, below VAR_FLOOR
        rng = np.random.default_rng(6)
        X = np.vstack([np.full((5, 2), 10.0), rng.standard_normal((50, 2))])
        with pytest.warns(UserWarning, match="^mixture component collapsed; flooring variances$"):
            model, _ = gmm_em_fit(X, 2, seed=0)
        assert model.variances.min() == 1e-6

    def test_single_component_matches_moments(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((200, 3)) * np.array([1.0, 2.0, 0.5]) + 1.0
        model, _ = gmm_em_fit(X, 1, seed=0)
        np.testing.assert_allclose(model.means[0], X.mean(axis=0), atol=1e-8)
        np.testing.assert_allclose(model.variances[0], X.var(axis=0), atol=1e-8)


def aft_data(rng, n=800, d=3, shape=1.5, censor=0.3):
    X = rng.standard_normal((n, d))
    w_true = np.array([3.0, 1.0, -1.0, 0.5])[: d + 1]
    lam = np.log1p(np.exp(np.concatenate([np.ones((n, 1)), X], axis=1) @ w_true))
    u = lam * rng.weibull(shape, n)
    event = (rng.random(n) >= censor).astype(int)
    t = np.where(event == 1, u, u * rng.random(n))
    t = np.maximum(t, 1e-8)
    return X, t, event, w_true


class TestWeibullAft:
    def test_objective_improves_over_init(self):
        rng = np.random.default_rng(6)
        X, t, event, _ = aft_data(rng)
        from survmix.baselines import _aft_objective_grads

        X1 = np.concatenate([np.ones((len(t), 1)), X], axis=1)

        def objective(m):
            return _aft_objective_grads(m.coefficients, np.log(m.shape), X1, t,
                                        event, m.ridge)[0]

        model = weibull_aft_fit(X, t, event, max_steps=2000)
        init = weibull_aft_fit(X, t, event, max_steps=0)
        assert objective(model) > objective(init)

    def test_recovers_generating_shape(self):
        rng = np.random.default_rng(7)
        X, t, event, _ = aft_data(rng, n=2000, shape=2.0)
        model = weibull_aft_fit(X, t, event, ridge=1e-4)
        assert model.shape == pytest.approx(2.0, abs=0.3)

    def test_fixed_shape_is_respected(self):
        rng = np.random.default_rng(8)
        X, t, event, _ = aft_data(rng, n=300)
        model = weibull_aft_fit(X, t, event, fixed_shape=1.0, max_steps=500)
        assert model.shape == 1.0

    def test_concordance_beats_random(self):
        rng = np.random.default_rng(9)
        X, t, event, _ = aft_data(rng)
        model = weibull_aft_fit(X, t, event, max_steps=2000)
        risk, _ = weibull_aft_predict(model, X)
        assert concordance_index(t, event, risk) > 0.7

    def test_gradients_match_finite_differences(self):
        from survmix.baselines import _aft_objective_grads

        rng = np.random.default_rng(10)
        X, t, event, _ = aft_data(rng, n=40, d=2)
        X1 = np.concatenate([np.ones((40, 1)), X], axis=1)
        w = rng.standard_normal(3) * 0.5
        log_k = 0.3
        _, gw, g_log_k = _aft_objective_grads(w, log_k, X1, t, event, ridge=1e-3)
        eps = 1e-6
        for i in range(3):
            wp, wm = w.copy(), w.copy()
            wp[i] += eps
            wm[i] -= eps
            op = _aft_objective_grads(wp, log_k, X1, t, event, 1e-3)[0]
            om = _aft_objective_grads(wm, log_k, X1, t, event, 1e-3)[0]
            assert gw[i] == pytest.approx((op - om) / (2 * eps), rel=1e-4, abs=1e-8)
        op = _aft_objective_grads(w, log_k + eps, X1, t, event, 1e-3)[0]
        om = _aft_objective_grads(w, log_k - eps, X1, t, event, 1e-3)[0]
        assert g_log_k == pytest.approx((op - om) / (2 * eps), rel=1e-4, abs=1e-8)

    def test_ridge_shrinks_coefficients(self):
        rng = np.random.default_rng(11)
        X, t, event, _ = aft_data(rng, n=300)
        loose = weibull_aft_fit(X, t, event, ridge=1e-6, max_steps=1500)
        tight = weibull_aft_fit(X, t, event, ridge=10.0, max_steps=1500)
        assert np.linalg.norm(tight.coefficients[1:]) < np.linalg.norm(
            loose.coefficients[1:]
        )

    def test_predict_checks_width(self):
        rng = np.random.default_rng(12)
        X, t, event, _ = aft_data(rng, n=50)
        model = weibull_aft_fit(X, t, event, max_steps=10)
        with pytest.raises(ShapeError):
            weibull_aft_predict(model, np.zeros((2, 5)))

    def test_risk_is_negated_median(self):
        rng = np.random.default_rng(13)
        X, t, event, _ = aft_data(rng, n=50)
        model = weibull_aft_fit(X, t, event, max_steps=200)
        risk, median = weibull_aft_predict(model, X)
        np.testing.assert_allclose(risk, -median)
        assert np.all(median > 0)
