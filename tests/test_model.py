import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import finite_diff_grad, fit_brute, log_gaussian_diag_expr, softmax_rows
from survmix import datagen, dist, model
from survmix.cli import load_checkpoint, save_checkpoint
from survmix.datagen import (
    TIME_OFFSET,
    PreprocessStats,
    SurvivalDataset,
    SyntheticConfig,
    gen_synthetic,
    preprocess,
)
from survmix.errors import ConfigError, DomainError, ShapeError, TrainingError
from survmix.model import (
    LOGVAR_MAX,
    LOGVAR_MIN,
    ElboTerms,
    ModelParams,
    TrainConfig,
    cluster_posterior,
    cluster_posterior_prior_only,
    elbo_grads,
    encode,
    fit,
    init_params,
    predict,
    reparameterize,
    weibull_scales,
)
from survmix.nnet import ADAM_BLOCK


def tiny_config(**kwargs):
    base = dict(latent_dim=3, num_clusters=2, batch_size=8, epochs=2,
                enc_hidden=(6,), dec_hidden=(6,), seed=0)
    base.update(kwargs)
    return TrainConfig(**base)


def fresh_grads(params, with_t=True):
    """A zeroed name -> array dict for elbo_grads to fill; without t only
    the encoder and decoder have gradients."""
    return {k: np.zeros_like(a) for k, a in params.tensors.items()
            if with_t or k.startswith(("enc.", "dec."))}


def tiny_batch(rng, n=6, d=5):
    X = rng.standard_normal((n, d))
    t = rng.uniform(0.1, 1.0, n)
    event = rng.integers(0, 2, n).astype(float)
    return X, t, event


class TestInit:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        params = init_params(5, tiny_config(), rng)
        assert params.means.shape == (2, 3)
        assert params.log_vars.shape == (2, 3)
        assert params.betas.shape == (2, 4)
        assert params.mixture_logits.shape == (2,)
        assert params.encoder.weights[-1].shape[1] == 6  # 2 * latent_dim
        assert params.decoder.weights[0].shape[0] == 3

    @pytest.mark.parametrize("kwargs", [
        {}, {"enc_hidden": (), "dec_hidden": ()}, {"num_clusters": 1},
        {"latent_dim": 1, "enc_hidden": (4, 7, 2), "dec_hidden": ()},
    ], ids=["one_hidden_layer", "no_hidden_layers", "one_cluster", "uneven_depths"])
    def test_draw_sequence(self, kwargs):
        # Glorot-uniform weights layer by layer, encoder then decoder, then
        # mix.means and surv.betas; the bench digests and the criteria
        # seeds depend on this order
        config, d = tiny_config(**kwargs), 5
        j, k = config.latent_dim, config.num_clusters
        rng = np.random.default_rng(23)
        expected = {}
        for prefix, widths in (("enc", [d, *config.enc_hidden, 2 * j]),
                               ("dec", [j, *config.dec_hidden, d])):
            for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
                limit = np.sqrt(6.0 / (fan_in + fan_out))
                expected[f"{prefix}.W{i}"] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
                expected[f"{prefix}.b{i}"] = np.zeros(fan_out)
        means = rng.standard_normal((k, j))
        expected["surv.betas"] = 0.01 * rng.standard_normal((k, j + 1))
        expected.update({"mix.logits": np.zeros(k), "mix.means": means,
                         "mix.log_vars": np.zeros((k, j))})
        params = init_params(d, config, np.random.default_rng(23))
        assert list(params.tensors) == list(expected)
        flat = np.concatenate([a.ravel() for a in expected.values()])
        assert params.vector.tobytes() == flat.tobytes()

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(recon_loss="huber")
        with pytest.raises(ConfigError):
            tiny_config(weibull_shape=0.0)
        with pytest.raises(ConfigError):
            tiny_config(latent_dim=0)


class TestEncodeReparam:
    def test_logvar_clamped(self):
        rng = np.random.default_rng(1)
        params = init_params(4, tiny_config(), rng)
        # blow up the last-layer bias so raw log-variances leave the window
        params.encoder.biases[-1][3:] = 1e4
        _, log_var = encode(params, rng.standard_normal((5, 4)))
        assert np.all(log_var <= LOGVAR_MAX) and np.all(log_var >= LOGVAR_MIN)

    def test_reparameterize_inverts_to_eps(self):
        rng = np.random.default_rng(2)
        mu = rng.standard_normal((4, 3))
        log_var = rng.uniform(-1, 1, (4, 3))
        z, eps = reparameterize(mu, log_var, np.random.default_rng(0))
        assert z.shape == (4, 3)
        np.testing.assert_allclose(
            (z - mu) / np.exp(0.5 * log_var), eps, rtol=1e-12
        )

    @pytest.mark.parametrize("j, enc_hidden", [
        (16, (24, 20)),
        (8, (20, 12, 40)),  # the last hidden width exceeds 2J
    ])
    def test_predict_latent_is_encode_mean(self, j, enc_hidden):
        # predict runs the encoder with its last layer cut to the J mean
        # columns. OpenBLAS's GEMM and GEMV kernels (Sandybridge, Haswell, Zen,
        # SkylakeX, Cooperlake and SapphireRapids cores) sum them in the same
        # order as the full 2J-column product when J is a multiple of 8; for
        # other J the two may differ in the last bits.
        rng = np.random.default_rng(9)
        params = init_params(7, tiny_config(latent_dim=j, num_clusters=3,
                                            enc_hidden=enc_hidden), rng)
        for n in (1, 5, 300):
            X = rng.standard_normal((n, 7))
            t, event = rng.uniform(0.5, 3.0, n), rng.integers(0, 2, n).astype(float)
            mu = encode(params, X)[0]
            assert predict(params, X).latent.tobytes() == mu.tobytes()
            assert predict(params, X, t, event).latent.tobytes() == mu.tobytes()

    def test_predict_latent_is_encode_mean_to_rounding_at_any_width(self):
        rng = np.random.default_rng(10)
        params = init_params(7, tiny_config(latent_dim=3, enc_hidden=(9, 5)), rng)
        X = rng.standard_normal((50, 7))
        np.testing.assert_allclose(predict(params, X).latent, encode(params, X)[0],
                                   rtol=0, atol=1e-14)

    def test_zero_variance_limit(self):
        mu = np.ones((2, 3))
        z, _ = reparameterize(mu, np.full((2, 3), -700.0), np.random.default_rng(0))
        np.testing.assert_allclose(z, mu, atol=1e-100)


class TestClusterPosterior:
    def make_params(self):
        rng = np.random.default_rng(3)
        params = init_params(4, tiny_config(), rng)
        params.means[:] = np.array([[-1.0, 0, 0], [1.0, 0, 0]])
        params.log_vars[:] = 0.0
        params.mixture_logits[:] = 0.0
        return params

    def test_prior_only_two_component_value(self):
        # z=(0.5,0,0), means +-1 on the first axis, unit variances,
        # uniform weights: sigmoid of the log-density gap.
        params = self.make_params()
        post = cluster_posterior_prior_only(params, np.array([[0.5, 0.0, 0.0]]))
        gap = -0.5 * (0.5**2 - 1.5**2)  # log N(z;+1) - log N(z;-1)
        expected = 1.0 / (1.0 + np.exp(-gap))
        assert post[0, 0] == pytest.approx(1.0 - expected, rel=1e-12)
        assert post[0, 1] == pytest.approx(expected, rel=1e-12)
        assert post[0, 1] == pytest.approx(0.7310585786300049, rel=1e-12)

    def test_rows_sum_to_one_many_inputs(self):
        rng = np.random.default_rng(4)
        params = init_params(4, tiny_config(num_clusters=3), rng)
        Z = rng.standard_normal((10_000, 3)) * 3.0
        t = rng.uniform(0.05, 2.0, 10_000)
        e = rng.integers(0, 2, 10_000).astype(float)
        post = cluster_posterior(params, Z, t, e)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-9)
        post0 = cluster_posterior_prior_only(params, Z)
        np.testing.assert_allclose(post0.sum(axis=1), 1.0, atol=1e-9)

    def test_survival_evidence_moves_posterior(self):
        params = self.make_params()
        params.betas[:] = 0.0
        params.betas[0, 0] = 10.0  # component 0 predicts long lives
        params.betas[1, 0] = 0.1
        z = np.array([[0.0, 0.0, 0.0]])
        long_lived = cluster_posterior(params, z, np.array([9.0]), np.array([1.0]))
        short_lived = cluster_posterior(params, z, np.array([0.05]), np.array([1.0]))
        assert long_lived[0, 0] > short_lived[0, 0]

    def test_normalized_log_posterior_is_softmax_on_finite_rows(self):
        logits = np.random.default_rng(11).uniform(-500, 500, (60, 4))
        logits[3, 1:] = -np.inf  # one finite entry is enough
        logits.setflags(write=False)  # a write into the logits raises
        got = model._normalize_log_posterior(logits)
        assert got.tobytes() == dist.softmax(logits, axis=-1).tobytes()
        assert got.tobytes() == softmax_rows(logits).tobytes()

    def test_row_with_no_finite_log_score_is_named(self):
        logits = np.zeros((5, 3))
        logits[2] = -np.inf
        logits[4] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and raises no RuntimeWarning first
            with pytest.raises(TrainingError, match="no component log-score is finite "
                                                    "in row 2$"):
                model._normalize_log_posterior(logits)

    def test_extreme_latents_stay_normalized(self):
        params = self.make_params()
        post = cluster_posterior_prior_only(params, np.array([[500.0, 0.0, 0.0]]))
        assert np.isfinite(post).all()
        assert post.sum() == pytest.approx(1.0, abs=1e-12)


class TestLatentScores:
    """_latent_scores expands log p(z | c) over the precisions p = exp(-log v),
    -1/2 [sum z^2 p - 2 sum z m p + sum (m^2 p + log 2 pi + log v)], where the
    oracle sums the residuals, -1/2 sum ((z - m)^2 / v + log 2 pi v). Each side
    is a few sums of J terms: with u = 2^-53, each term carries at most about 4
    roundings and a sum of J terms at most J - 1 more, each of a size bounded
    by the sum of the terms' magnitudes. So each side is within about
    (J + 5) u S of the exact value, S = sum_j ((|z_j| + |m_j|)^2 p_j +
    |log 2 pi + log v_j|), and the two within 2 (J + 5) u S: the expansion's
    error grows like |z|^2 p 2^-52, where the oracle's residual stays small."""

    @staticmethod
    def scores(Z, means, log_vars):
        k, j = means.shape
        params = init_params(4, tiny_config(latent_dim=j, num_clusters=k),
                             np.random.default_rng(0))
        params.means[:], params.log_vars[:] = means, log_vars
        return model._latent_scores(params, Z).log_pz

    def assert_near_oracle(self, Z, means, log_vars, got=None):
        got = self.scores(Z, means, log_vars) if got is None else got
        expected = log_gaussian_diag_expr(Z[:, None, :], means[None], np.exp(log_vars)[None])
        size = (np.abs(Z)[:, None, :] + np.abs(means)) ** 2 * np.exp(-log_vars)
        size += np.abs(np.log(2.0 * np.pi) + log_vars)
        tol = 2 * (Z.shape[1] + 5) * 2.0**-53 * size.sum(axis=-1)
        assert np.all(np.abs(got - expected) <= tol), np.max(np.abs(got - expected) / tol)

    def test_random_inputs(self):
        rng = np.random.default_rng(31)
        Z = 3.0 * rng.standard_normal((300, 16))
        self.assert_near_oracle(Z, rng.standard_normal((5, 16)),
                                rng.uniform(-3.0, 3.0, (5, 16)))

    def test_extreme_latent(self):
        rng = np.random.default_rng(32)
        Z = np.zeros((4, 3))
        Z[:, 0] = [500.0, -500.0, 0.0, 1e-3]
        self.assert_near_oracle(Z, rng.standard_normal((2, 3)), np.zeros((2, 3)))

    @pytest.mark.parametrize("log_var", [LOGVAR_MIN, LOGVAR_MAX])
    def test_log_vars_at_the_encoder_clamp_limits(self, log_var):
        # the encoder's log-variances are clamped to these; the mixture's are
        # not (the far-cluster tests below go past them)
        rng = np.random.default_rng(33)
        log_vars = np.full((3, 8), log_var)
        log_vars[1, ::2] = -log_var  # both limits in one cluster
        self.assert_near_oracle(30.0 * rng.standard_normal((50, 8)),
                                rng.standard_normal((3, 8)), log_vars)

    def assert_residual_exact(self, Z, means, log_vars, got):
        # the residual form's own bound: each coordinate's term carries a few
        # roundings of its size, and the sum of J terms J - 1 more
        expected = log_gaussian_diag_expr(Z[:, None, :], means[None], np.exp(log_vars)[None])
        size = (Z[:, None, :] - means) ** 2 * np.exp(-log_vars)
        size += np.abs(np.log(2.0 * np.pi) + log_vars)
        tol = 2 * (Z.shape[1] + 5) * 2.0**-53 * size.sum(axis=-1)
        assert np.all(np.abs(got - expected) <= tol), np.max(np.abs(got - expected) / tol)

    def test_sharp_cluster_at_its_mean_is_scored_from_the_residuals(self):
        # log_var -40 puts the mean about 1e9 standard deviations from the
        # origin: expanded, its terms of about 1e17 would cancel to a score
        # off by about 1e2 where z = mean; from the residuals it is exact
        rng = np.random.default_rng(36)
        means = rng.uniform(0.5, 2.0, (3, 4))
        log_vars = np.zeros((3, 4))
        log_vars[0] = -40.0
        Z = np.vstack([means[0], means[0] + 1e-9, rng.standard_normal((8, 4))])
        got = self.scores(Z, means, log_vars)
        self.assert_residual_exact(Z, means[:1], log_vars[:1], got[:, :1])
        self.assert_near_oracle(Z, means[1:], log_vars[1:], got[:, 1:])
        # at z = mean the residual vanishes: only the normalizer of J = 4 is left
        assert got[0, 0] == pytest.approx(-2.0 * (np.log(2.0 * np.pi) - 40.0), rel=1e-15)

    def test_expansion_bound_holds_up_to_the_far_threshold(self):
        # the nearest cluster to MAX_MEAN_DIST2 that is still expanded, and the
        # nearest beyond it, which is scored from the residuals
        j = 4
        rng = np.random.default_rng(37)
        means = np.tile(rng.uniform(0.5, 2.0, j), (2, 1))
        # each coordinate a quarter of sum_j mean^2 / var, just below and above it
        log_vars = np.log(j * means**2 / model.MAX_MEAN_DIST2) + [[1e-6], [-1e-6]]
        Z = np.vstack([means[0], means[0] + 1e-5, means[0] + rng.standard_normal((6, j))])
        got = self.scores(Z, means, log_vars)
        self.assert_near_oracle(Z, means[:1], log_vars[:1], got[:, :1])
        self.assert_residual_exact(Z, means[1:], log_vars[1:], got[:, 1:])

    @pytest.mark.parametrize("mean, log_var", [(1e200, 0.0), (1e308, 0.0), (1e200, -300.0)])
    def test_huge_mean_scores_its_cluster_minus_inf(self, mean, log_var):
        # test_cli's huge_mean checkpoints: the residual's square, or that times
        # the precision, overflows, so the cluster reads -inf, as in the oracle,
        # and no other column is touched (cmd_predict silences the warnings)
        rng = np.random.default_rng(34)
        Z, means = rng.standard_normal((20, 3)), rng.standard_normal((2, 3))
        Z[0] = 0.0
        log_vars = np.zeros((2, 3))
        means[0, 0], log_vars[0, 0] = mean, log_var
        with np.errstate(over="ignore"):
            got = self.scores(Z, means, log_vars)
        assert np.all(got[:, 0] == -np.inf)
        self.assert_near_oracle(Z, means[1:], log_vars[1:], got[:, 1:])

    def test_huge_log_var_scores_its_cluster_finite(self):
        # test_cli's huge_log_var checkpoint: exp(800) overflows, so the oracle
        # reads -inf, but the precision is 0 and the coordinate adds -(log 2 pi + 800) / 2
        rng = np.random.default_rng(35)
        Z, means = rng.standard_normal((20, 3)), rng.standard_normal((2, 3))
        log_vars = np.zeros((2, 3))
        log_vars[0, 0] = 800.0
        got = self.scores(Z, means, log_vars)
        rest = log_gaussian_diag_expr(Z[:, 1:], means[0, 1:], np.exp(log_vars[0, 1:]))
        np.testing.assert_allclose(got[:, 0], rest - 0.5 * (np.log(2.0 * np.pi) + 800.0),
                                   rtol=1e-13)

    def test_variance_that_underflows_is_refused(self):
        # a precision that overflows (variance 0 or subnormal) cannot score; no warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for log_var in (-800.0, -np.inf):
                with pytest.raises(DomainError, match="^variances must be strictly positive$"):
                    self.scores(np.zeros((1, 2)), np.zeros((1, 2)), np.array([[0.0, log_var]]))


class TestElbo:
    def test_terms_finite_and_total_consistent(self):
        rng = np.random.default_rng(5)
        params = init_params(5, tiny_config(), rng)
        X, t, event = tiny_batch(rng)
        terms, _ = elbo_grads(params, X, t, event, rng.standard_normal((6, 3)),
                              tiny_config(), fresh_grads(params))
        terms.check_finite()
        total = (terms.reconstruction + terms.survival + terms.clustering
                 + terms.prior + terms.entropy)
        assert terms.total == pytest.approx(total, rel=1e-14)

    def test_total_sums_left_to_right(self):
        # a compensated sum gives 2.5
        terms = ElboTerms(1e16, 1.0, -1e16, 1.0, 0.5)
        assert terms.total == (((1e16 + 1.0) + -1e16) + 1.0) + 0.5 == 1.5

    def test_check_finite_names_the_term(self):
        names = ("reconstruction", "survival", "clustering", "prior", "entropy")
        for name, value in zip(names, (np.inf, np.nan, -np.inf, np.nan, np.inf)):
            terms = ElboTerms(0.0, 0.0, 0.0, 0.0, 0.0)
            setattr(terms, name, value)
            with pytest.raises(TrainingError, match=f"^non-finite ELBO term: {name}$"):
                terms.check_finite()

    def test_value_deterministic_for_frozen_noise(self):
        rng = np.random.default_rng(6)
        config = tiny_config()
        params = init_params(5, config, rng)
        X, t, event = tiny_batch(rng)
        eps = rng.standard_normal((6, 3))
        a = elbo_grads(params, X, t, event, eps, config, fresh_grads(params))[0]
        b = elbo_grads(params, X, t, event, eps, config, fresh_grads(params))[0]
        assert a.total == b.total

    def test_survival_weight_zero_drops_survival_term(self):
        rng = np.random.default_rng(7)
        config = tiny_config(survival_weight=0.0)
        params = init_params(5, config, rng)
        X, t, event = tiny_batch(rng)
        eps = rng.standard_normal((6, 3))
        terms = elbo_grads(params, X, t, event, eps, config, fresh_grads(params))[0]
        assert terms.survival == 0.0

    def test_kl_consistency_at_single_component(self):
        # With one standard-normal component and the survival term off,
        # clustering + prior + entropy should equal the analytic
        # -KL(q || N(0,I)) once the Monte Carlo part converges:
        # two independent closed forms for the non-MC pieces, and a
        # large-sample check for the MC piece.
        rng = np.random.default_rng(8)
        config = tiny_config(num_clusters=1, survival_weight=0.0)
        params = init_params(5, config, rng)
        params.means[:] = 0.0
        X, t, event = tiny_batch(rng)
        mu, log_var = encode(params, X)
        var = np.exp(log_var)
        B, j = mu.shape

        # closed form 1: entropy term as implemented equals
        # 0.5 * sum(log 2 pi e + log var) / B  (single component => no
        # categorical entropy)
        eps = rng.standard_normal((B, j))
        terms = elbo_grads(params, X, t, event, eps, config, fresh_grads(params))[0]
        ent_closed = 0.5 * np.sum(np.log(2 * np.pi) + 1.0 + log_var) / B
        assert terms.entropy == pytest.approx(ent_closed, rel=1e-12, abs=1e-12)
        assert terms.prior == pytest.approx(0.0, abs=1e-12)

        # closed form 2: independently coded KL against the expected value
        # of the clustering term: E_q[log N(z;0,I)] = entropy_term - KL
        kl = 0.5 * np.sum(mu**2 + var - 1.0 - log_var) / B
        expected_clustering = -kl - ent_closed + 0.0  # rearranged identity
        # Monte Carlo convergence of the sampled clustering term
        # 4000 draws per row: the batch tiled 4000 times, one draw per copy
        big_eps = np.random.default_rng(0).standard_normal((4000, B, j))
        mc = elbo_grads(params, np.tile(X, (4000, 1)), np.tile(t, 4000), np.tile(event, 4000),
                        big_eps.reshape(4000 * B, j), config, fresh_grads(params))[0]
        z = mu[None] + np.exp(0.5 * log_var)[None] * big_eps
        per_sample = -0.5 * (z**2 + np.log(2 * np.pi)).sum(axis=2).mean(axis=1)
        se = per_sample.std(ddof=1) / np.sqrt(len(per_sample))
        assert mc.clustering == pytest.approx(expected_clustering, abs=3.5 * se)

    def test_empty_batch_rejected(self):
        # training data enters through fit, which refuses zero rows
        empty = SurvivalDataset(np.zeros((0, 5)), np.zeros(0), np.zeros(0))
        with pytest.raises(ShapeError):
            fit(empty, tiny_config())

    def test_bce_needs_features_in_unit_interval(self):
        # x * a - softplus(a) grows without bound in a once x > 1
        X = np.full((4, 3), 0.5)
        X[2, 1] = 1.3
        data = SurvivalDataset(X, np.ones(4), np.ones(4, dtype=int))
        with pytest.raises(DomainError, match=r"row 2: feature_1 is 1\.3"):
            fit(data, tiny_config(recon_loss="bce"))


class TestGradients:
    @pytest.mark.parametrize("recon_loss, with_t", [
        pytest.param("mse", True, id="mse"),
        pytest.param("bce", True, id="bce"),
        # pretraining: no times, reconstruction-only objective
        pytest.param("mse", False, id="mse-pretraining"),
        pytest.param("bce", False, id="bce-pretraining"),
    ])
    def test_matches_finite_differences(self, recon_loss, with_t):
        rng = np.random.default_rng(10)
        config = tiny_config(recon_loss=recon_loss)
        params = init_params(5, config, rng)
        X, t, event = tiny_batch(rng)
        if recon_loss == "bce":
            # soft targets in (0, 1); an exactly-zero row would park a
            # relu preactivation on its kink and break finite differences
            X = 1.0 / (1.0 + np.exp(-X))
        mu, log_var = encode(params, X)
        _, eps = reparameterize(mu, log_var, rng)
        Z = mu + np.exp(0.5 * log_var) * eps
        resp = cluster_posterior(params, Z, t, event)
        if not with_t:
            t = event = resp = None
        _, grads = elbo_grads(params, X, t, event, eps, config,
                              fresh_grads(params, with_t), resp=resp)

        def objective(flat_params):
            return elbo_grads(params, X, t, event, eps, config,
                              fresh_grads(params, with_t), resp=resp)[0].total

        fd = finite_diff_grad(objective, params.tensors, eps=1e-5)
        for name in fd:
            # without t only the encoder and decoder enter the objective
            g = grads.get(name, np.zeros_like(fd[name]))
            scale = max(np.max(np.abs(fd[name])), 1e-4)
            err = np.max(np.abs(g - fd[name])) / scale
            assert err < 1e-4, f"{name}: relative error {err}"

    def test_fifty_seeded_instances_fast(self):
        import time

        start = time.time()
        worst = 0.0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            config = tiny_config(num_clusters=int(rng.integers(1, 4)))
            params = init_params(4, config, rng)
            X, t, event = tiny_batch(rng, n=4, d=4)
            mu, log_var = encode(params, X)
            _, eps = reparameterize(mu, log_var, rng)
            Z = mu + np.exp(0.5 * log_var) * eps
            resp = cluster_posterior(params, Z, t, event)
            _, grads = elbo_grads(params, X, t, event, eps, config, fresh_grads(params),
                                  resp=resp)
            fd = finite_diff_grad(
                lambda _: elbo_grads(params, X, t, event, eps, config, fresh_grads(params),
                                     resp=resp)[0].total,
                params.tensors,
                eps=1e-5,
            )
            for name, g in grads.items():
                scale = max(np.max(np.abs(fd[name])), 1e-4)
                worst = max(worst, np.max(np.abs(g - fd[name])) / scale)
        assert worst < 1e-4
        assert time.time() - start < 30.0


def test_train_step_allocates_no_parameter_sized_array():
    # parameters (5.6 MB) dwarf the 4-row batch, so one step's memory is
    # Adam's two moments and scratch, the gradient buffer, and what the
    # step itself allocates; a fresh gradient dict or a negated copy of
    # the gradients would be a whole parameter vector more
    rng = np.random.default_rng(0)
    config = tiny_config(latent_dim=2, batch_size=4, epochs=1,
                         enc_hidden=(500, 500), dec_hidden=(500, 500))
    X, t, event = tiny_batch(rng, n=4, d=200)
    params = init_params(200, config, rng)
    nbytes = params.vector.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        model._train(params, params.tensors, X, t, event, 1, config, rng)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    held = 3 * nbytes + 2 * ADAM_BLOCK * 8  # m, v, gradient buffer, scratch
    assert peak - held < nbytes / 2, (peak, held, nbytes)


class TestFitPredict:
    def small_data(self, seed=0):
        data = gen_synthetic(
            SyntheticConfig(num_samples=200, num_features=10, num_clusters=2,
                            latent_dim=4, seed=seed)
        )
        out, _ = preprocess(data)
        return out

    def test_fit_runs_and_improves_objective(self):
        data = self.small_data()
        config = tiny_config(latent_dim=4, epochs=15, batch_size=64)
        params, trace = fit(data, config)
        assert len(trace) == 15
        assert trace[-1] > trace[0]

    def test_fit_deterministic(self):
        data = self.small_data()
        config = tiny_config(latent_dim=4, epochs=3, batch_size=64)
        a, trace_a = fit(data, config)
        b, trace_b = fit(data, config)
        assert trace_a == trace_b
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.encoder.weights[0], b.encoder.weights[0])

    def test_callback_sees_every_epoch(self):
        data = self.small_data()
        seen = []
        fit(data, tiny_config(latent_dim=4, epochs=4, batch_size=64),
            callback=lambda e, v: seen.append((e, v)))
        assert [e for e, _ in seen] == [0, 1, 2, 3]

    def test_predicted_time_ignores_observed_time(self):
        # the time-conditional posterior may relabel, but the predicted
        # median must be identical with and without (t, event)
        data = self.small_data()
        params, _ = fit(data, tiny_config(latent_dim=4, epochs=3, batch_size=64))
        with_t = predict(params, data.features, data.times, data.events)
        without_t = predict(params, data.features)
        np.testing.assert_array_equal(with_t.median_time, without_t.median_time)

    @pytest.mark.parametrize("shape", [0.5, 1.0, 3.0])
    def test_predicted_median_is_conditioned_on_the_offset(self, shape):
        # one component's median given t > TIME_OFFSET = a halves S(t) / S(a)
        data, a = self.small_data(), TIME_OFFSET
        params, _ = fit(data, tiny_config(latent_dim=4, epochs=2, batch_size=64,
                                          num_clusters=1, weibull_shape=shape))
        pred = predict(params, data.features)
        scale = model._latent_scores(params, pred.latent).scale[:, 0]
        np.testing.assert_allclose((pred.median_time / scale) ** shape - (a / scale) ** shape,
                                   np.log(2.0), rtol=1e-12)
        assert np.all(pred.median_time > a)

    def test_unit_shape_median_is_offset_plus_weibull_median(self):
        # for shape 1 it is lam ln 2 + a, so inverse_time_transform gives
        # the posterior-weighted lam ln 2 max_time and ranks rows as before
        data = self.small_data()
        params, _ = fit(data, tiny_config(latent_dim=4, epochs=2, batch_size=64))
        pred = predict(params, data.features)
        scale = model._latent_scores(params, pred.latent).scale
        np.testing.assert_allclose(pred.median_time - TIME_OFFSET,
                                   (pred.posterior * scale).sum(axis=1) * np.log(2.0), rtol=1e-12)

    def test_posterior_shape_and_labels(self):
        data = self.small_data()
        params, _ = fit(data, tiny_config(latent_dim=4, epochs=2, batch_size=64))
        pred = predict(params, data.features, data.times, data.events)
        assert pred.posterior.shape == (200, 2)
        np.testing.assert_allclose(pred.posterior.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_array_equal(pred.labels, pred.posterior.argmax(axis=1))
        assert pred.latent.shape == (200, 4)
        assert np.all(pred.median_time > 0)

    @pytest.mark.parametrize("t_len, event_len", [(300, None), (None, 300), (5, 300), (300, 5)],
                             ids=["t_without_event", "event_without_t", "short_t", "short_event"])
    def test_outcomes_must_both_be_given_with_one_per_row(self, t_len, event_len):
        rng = np.random.default_rng(0)
        params = init_params(5, tiny_config(num_clusters=3), rng)
        t, event = (None if n is None else rng.uniform(0.1, 1.0, n) for n in (t_len, event_len))
        with pytest.raises(ShapeError, match=r"^t and event must both be None or both "
                                             r"have shape \(300,\), got "):
            predict(params, rng.standard_normal((300, 5)), t, event)

    def test_pretraining_path_runs(self):
        data = self.small_data()
        config = tiny_config(latent_dim=4, epochs=2, batch_size=64,
                             pretrain_epochs=2)
        params, _ = fit(data, config)
        # mixture weights were set from the fitted mixture, so they are
        # generally no longer uniform
        assert params.mixture_logits.shape == (2,)

    def test_pretraining_more_clusters_than_rows_fails_before_any_epoch(self, monkeypatch):
        # without pretraining K > N trains; with it the mixture fit would
        # fail only after every pretraining epoch
        class EpochRan(Exception):
            pass

        def train(*args, **kwargs):
            raise EpochRan

        data = self.small_data().subset(np.arange(40))
        monkeypatch.setattr(model, "_train", train)
        with pytest.raises(EpochRan):
            fit(data, tiny_config(num_clusters=50))
        with pytest.raises(ConfigError, match="^num_clusters 50 with pretrain_epochs 300 "
                                              "needs at least 50 rows, got 40$"):
            fit(data, tiny_config(num_clusters=50, pretrain_epochs=300))

    def test_training_error_names_epoch_and_batch(self):
        data = self.small_data()
        # finite, so the config is valid, but the first step overflows
        config = tiny_config(latent_dim=4, epochs=1, batch_size=64,
                             learning_rate=1e300)
        with pytest.raises(TrainingError, match="epoch 0"):
            fit(data, config)

    @pytest.mark.parametrize("pretrain_epochs", [1, 0])
    def test_bitwise_equal_to_reference_loop(self, pretrain_epochs):
        data = self.small_data()
        config = tiny_config(latent_dim=4, epochs=3, batch_size=64,
                             pretrain_epochs=pretrain_epochs)
        params, trace = fit(data, config)
        ref_params, ref_trace = fit_brute(data, config)
        assert trace == ref_trace
        ref = ref_params.tensors
        for name, a in params.tensors.items():
            assert a.tobytes() == ref[name].tobytes(), name

    @pytest.mark.parametrize("name, pretrain_epochs", [
        ("mix.means", 0), ("enc.W0", 0), ("surv.betas", 0), ("dec.b1", 1),
    ])
    def test_nan_gradient_names_parameter(self, monkeypatch, name, pretrain_epochs):
        def poisoned(*args, **kwargs):
            terms, grads = elbo_grads(*args, **kwargs)
            if name in grads:
                grads[name].flat[-1] = np.nan
            return terms, grads

        monkeypatch.setattr(model, "elbo_grads", poisoned)
        config = tiny_config(latent_dim=4, epochs=1, batch_size=64,
                             pretrain_epochs=pretrain_epochs)
        # pretraining steps run through the same loop, so they name their batch too
        phase = "pretraining " if pretrain_epochs else ""
        message = f"^{phase}epoch 0, batch 0: non-finite gradient for parameter '{name}'$"
        with pytest.raises(TrainingError, match=message):
            fit(self.small_data(), config)

    def test_nan_elbo_term_names_it(self, monkeypatch):
        def poisoned(*args, **kwargs):
            terms, grads = elbo_grads(*args, **kwargs)
            terms.survival = np.nan
            return terms, grads

        monkeypatch.setattr(model, "elbo_grads", poisoned)
        config = tiny_config(latent_dim=4, epochs=1, batch_size=64)
        with pytest.raises(TrainingError,
                           match="^epoch 0, batch 0: non-finite ELBO term: survival$"):
            fit(self.small_data(), config)

    def test_parameters_are_views_of_one_vector(self):
        params = init_params(5, tiny_config(), np.random.default_rng(0))
        arrays = params.tensors
        assert sum(a.size for a in arrays.values()) == params.vector.size
        offset = 0
        for name, a in arrays.items():
            assert np.shares_memory(a, params.vector[offset : offset + a.size]), name
            offset += a.size

    def test_any_tensors_become_views_of_one_float64_vector(self, tmp_path):
        shapes = model._shapes(5, 3, 2, (6,), (4,))
        rng = np.random.default_rng(0)
        tensors = {name: rng.integers(-9, 9, shape) if i % 2 else
                   rng.standard_normal(shape).astype(np.float32)
                   for i, (name, shape) in enumerate(shapes.items())}
        # handed over in reverse, float32 and int64 alike
        params = ModelParams(dict(reversed(tensors.items())), 1.0)
        expected = np.concatenate([np.ravel(tensors[name]).astype(float) for name in shapes])
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(params, PreprocessStats(1.0, np.zeros(5), np.ones(5)), {}, path)
        for p in (params, load_checkpoint(path)[0]):
            assert p.vector.dtype == np.float64
            assert p.vector.tobytes() == expected.tobytes()
            assert list(p.tensors) == list(shapes)
            for name, a in p.tensors.items():
                assert a.shape == shapes[name] and np.shares_memory(a, p.vector), name

    def test_weibull_scales_floor(self):
        rng = np.random.default_rng(11)
        params = init_params(4, tiny_config(), rng)
        params.betas[:] = 0.0
        params.betas[:, 0] = -1e4
        lam = weibull_scales(params, rng.standard_normal((3, 3)))
        assert np.all(lam >= 1e-8)


class TestMemoryGate:
    # Each case's encoder outputs over every row outweigh the rest of its
    # estimate; the memory available is patched to lie between the two.
    HAVE = 4 << 20

    def test_predict_counts_the_encoder_outputs(self, monkeypatch):
        # latent square and scores 8 N (J + 12 K) = 0.2 MB; encoder outputs 8 N (1000 + 2J) = 8 MB
        params = init_params(5, tiny_config(latent_dim=2, enc_hidden=(1000,)),
                             np.random.default_rng(0))
        monkeypatch.setattr(datagen, "_available_memory", lambda: self.HAVE)
        with pytest.raises(ConfigError, match="^num_clusters 2, latent_dim 2 and rows 1000 "
                                              "need about 0.0 GiB to predict"):
            predict(params, np.zeros((1000, 5)))

    @pytest.mark.parametrize("pretrain_epochs", [1, 0])
    def test_fit_counts_the_pretraining_encode(self, monkeypatch, pretrain_epochs):
        # parameters and one batch 8 (4 * 5057 + 2 * 64 * 513) = 0.7 MB;
        # pretrain_init's encoding of every row 8 * 2000 * (500 + 2J) = 8 MB
        rng = np.random.default_rng(0)
        data, _ = preprocess(SurvivalDataset(rng.standard_normal((2000, 5)),
                                             rng.uniform(0.1, 1.0, 2000),
                                             rng.integers(0, 2, 2000)))
        config = tiny_config(latent_dim=2, enc_hidden=(500,), dec_hidden=(4,), epochs=1,
                             batch_size=64, pretrain_epochs=pretrain_epochs)
        monkeypatch.setattr(datagen, "_available_memory", lambda: self.HAVE)
        if pretrain_epochs:
            with pytest.raises(ConfigError, match=r"^latent_dim 2, num_clusters 2, enc_hidden "
                                                  r"\(500,\) and dec_hidden \(4,\) need about "):
                fit(data, config)
        else:
            fit(data, config)


def test_predict_builds_no_cluster_by_latent_array():
    # at 20000 rows, K=10 and J=64 one (N, K, J) float64 array is 102 MB; the
    # (N, J) latent means and their square are 10 MB each, the (N, K) scores 1.6 MB
    rng = np.random.default_rng(0)
    config = tiny_config(latent_dim=64, num_clusters=10, enc_hidden=(16,))
    params = init_params(5, config, rng)
    X, t, event = tiny_batch(rng, n=20000, d=5)
    tracemalloc.start()
    try:
        pred = predict(params, X, t, event)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pred.posterior.shape == (20000, 10)
    assert peak < 40e6, peak


class TestFirstBadCell:
    # naming the first cell of a 20000 x 500 table (76 MB) copies no table
    @staticmethod
    def raised(error, call):
        tracemalloc.start()
        try:
            with pytest.raises(error) as info:
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return str(info.value), peak

    def test_check_features_names_the_first_cell_outside_the_unit_interval(self):
        X = np.full((4, 5), 0.5)
        X[2, 0], X[1, 3], X[3, 4] = -1.0, np.nan, 2.0  # nan lies outside [0, 1]
        with pytest.raises(DomainError, match=r"^row 1: feature_3 is nan, but"):
            model.check_features(X, tiny_config(recon_loss="bce"))
        model.check_features(X, tiny_config())  # mse takes any finite features

    def test_check_features_copies_no_table(self):
        X = np.full((20000, 500), 5.0)
        message, peak = self.raised(
            DomainError, lambda: model.check_features(X, tiny_config(recon_loss="bce")))
        assert message == "row 0: feature_0 is 5.0, but recon_loss bce needs features in [0, 1]"
        assert peak < X.nbytes / 2

    def test_dataset_copies_no_table(self):
        X = np.full((20000, 500), np.nan)
        message, peak = self.raised(
            ConfigError, lambda: SurvivalDataset(X, np.ones(len(X)), np.zeros(len(X))))
        assert message == "row 0: feature_0 must be finite, got nan"
        assert peak < X.nbytes / 2
