"""End-to-end acceptance suite.

One test per acceptance criterion, in order; each prints a single
``criterion N: PASS|FAIL`` verdict line with the measured numbers and then
asserts at the stated tolerance. The benchmark trainings (criteria 1-3)
share one module-scoped fixture so the suite trains each model once.

Criterion 4 re-runs the full-scale benchmark (N=60000, D=1000, wide
networks, 1000 epochs). That is many hours of single-threaded compute, so
it only runs when the environment variable RUN_FULL_SCALE=1 is set.
"""

import os
import time
from pathlib import Path
from statistics import median

import numpy as np
import pytest
from scipy import integrate, stats

from oracles import (
    acc_brute,
    ari_brute,
    assignment_brute,
    ci_brute,
    finite_diff_grad,
    nmi_brute,
    rae_c_brute,
    rae_nc_brute,
)
from survmix.baselines import (
    _kmeans_pp_init,
    _lloyd,
    gmm_em_fit,
    kmeans_assign,
    kmeans_fit,
    weibull_aft_fit,
    weibull_aft_predict,
)
from survmix.cli import main
from survmix.datagen import (
    SurvMnistConfig,
    SyntheticConfig,
    gen_survmnist,
    gen_synthetic,
    make_surrogate_digit_features,
    preprocess,
    train_test_split,
)
from survmix.dist import log_weibull_censored
from survmix.metrics import (
    ari,
    clustering_accuracy,
    concordance_index,
    hungarian,
    nmi,
    rae_c,
    rae_nc,
)
from survmix.model import (
    TrainConfig,
    cluster_posterior,
    cluster_posterior_prior_only,
    elbo_grads,
    encode,
    fit,
    init_params,
    predict,
    reparameterize,
)


def verdict(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# ---------------------------------------------------------------------------
# Desk-scale benchmark shared by criteria 1-3
# ---------------------------------------------------------------------------

DESK_SEEDS = (0, 1, 2)
DESK_TIME_BUDGET = 15 * 60.0


def desk_train_config(seed, survival_weight=1.0):
    return TrainConfig(
        latent_dim=16, num_clusters=3, weibull_shape=1.0,
        epochs=200, batch_size=256, learning_rate=1e-3, recon_loss="mse",
        enc_hidden=(128, 128), dec_hidden=(128, 128),
        survival_weight=survival_weight, seed=seed,
    )


@pytest.fixture(scope="module")
def desk_results():
    out = {"acc": [], "acc_ablated": [], "acc_kmeans": [], "ci": [],
           "ci_aft": [], "ci_ablated": [], "runtime": []}
    for seed in DESK_SEEDS:
        data = gen_synthetic(SyntheticConfig(
            num_samples=5000, num_features=100, num_clusters=3,
            latent_dim=16, weibull_shape=1.0, censoring_fraction=0.3,
            seed=seed,
        ))
        train, test = train_test_split(data, test_fraction=0.3, seed=seed)
        train, stats_ = preprocess(train)
        test, _ = preprocess(test, stats_)

        km = kmeans_fit(train.features, 3, seed=seed)
        out["acc_kmeans"].append(
            clustering_accuracy(test.labels, kmeans_assign(km, test.features))
        )
        aft = weibull_aft_fit(train.features, train.times, train.events)
        aft_risk, _ = weibull_aft_predict(aft, test.features)
        out["ci_aft"].append(
            concordance_index(test.times, test.events, aft_risk)
        )

        start = time.time()
        params, _ = fit(train, desk_train_config(seed))
        out["runtime"].append(time.time() - start)
        pred = predict(params, test.features, test.times, test.events)
        out["acc"].append(clustering_accuracy(test.labels, pred.labels))
        out["ci"].append(
            concordance_index(test.times, test.events, -pred.median_time)
        )

        ablated, _ = fit(train, desk_train_config(seed, survival_weight=0.0))
        pred0 = predict(ablated, test.features, test.times, test.events)
        out["acc_ablated"].append(
            clustering_accuracy(test.labels, pred0.labels)
        )
        out["ci_ablated"].append(
            concordance_index(test.times, test.events, -pred0.median_time)
        )
    return out


def per_seed(values):
    return "/".join(f"{v:.3f}" for v in values)


@pytest.mark.slow
def test_criterion_01_desk_scale_accuracy(desk_results):
    acc = median(desk_results["acc"])
    km = median(desk_results["acc_kmeans"])
    slowest = max(desk_results["runtime"])
    ok = acc >= 0.60 and acc > km and slowest <= DESK_TIME_BUDGET
    detail = (f"median test ACC {acc:.3f} vs floor 0.60, k-means {km:.3f}, "
              f"slowest fit {slowest:.0f}s of {DESK_TIME_BUDGET:.0f}s; "
              f"per seed {DESK_SEEDS}: full {per_seed(desk_results['acc'])}, "
              f"ablated {per_seed(desk_results['acc_ablated'])}, "
              f"k-means {per_seed(desk_results['acc_kmeans'])}")
    assert verdict(1, ok, detail), detail


@pytest.mark.slow
def test_criterion_02_ablation_ordering(desk_results):
    full = median(desk_results["acc"])
    ablated = median(desk_results["acc_ablated"])
    km = median(desk_results["acc_kmeans"])
    ok = full >= ablated >= km - 0.05
    detail = (f"median ACC full {full:.3f} >= ablated {ablated:.3f} "
              f">= k-means-0.05 {km - 0.05:.3f}")
    assert verdict(2, ok, detail), detail


@pytest.mark.slow
def test_criterion_03_concordance_floor(desk_results):
    # "Competitive at predicting survival times": the held-out survival
    # ranking may trail the ridge Weibull AFT fitted on the same split by
    # at most the suite's 0.05 "no worse than a baseline" margin.
    ci = median(desk_results["ci"])
    aft = median(desk_results["ci_aft"])
    ok = ci >= aft - 0.05
    detail = (f"median test CI {ci:.3f} >= Weibull AFT-0.05 {aft - 0.05:.3f}; "
              f"per seed {DESK_SEEDS}: model {per_seed(desk_results['ci'])}, "
              f"AFT {per_seed(desk_results['ci_aft'])}, "
              f"ablated {per_seed(desk_results['ci_ablated'])}")
    assert verdict(3, ok, detail), detail


@pytest.mark.slow
@pytest.mark.skipif(os.environ.get("RUN_FULL_SCALE") != "1",
                    reason="hours of single-threaded compute; set RUN_FULL_SCALE=1")
def test_criterion_04_full_scale_accuracy():
    data = gen_synthetic(SyntheticConfig(
        num_samples=60000, num_features=1000, num_clusters=3,
        latent_dim=16, weibull_shape=1.0, censoring_fraction=0.3, seed=0,
    ))
    train, test = train_test_split(data, test_fraction=0.3, seed=0)
    train, stats_ = preprocess(train)
    test, _ = preprocess(test, stats_)
    config = TrainConfig(
        latent_dim=16, num_clusters=3, weibull_shape=1.0,
        epochs=1000, batch_size=256, learning_rate=1e-3, recon_loss="mse",
        enc_hidden=(500, 500, 2000), dec_hidden=(2000, 500, 500), seed=0,
    )
    params, _ = fit(train, config)
    pred = predict(params, test.features, test.times, test.events)
    acc = clustering_accuracy(test.labels, pred.labels)
    ok = abs(acc - 0.90) <= 0.05
    detail = f"full-scale test ACC {acc:.3f} vs 0.90 +/- 0.05"
    assert verdict(4, ok, detail), detail


# ---------------------------------------------------------------------------
# Criterion 5: analytic gradients match central finite differences
# ---------------------------------------------------------------------------

def test_criterion_05_gradient_finite_differences():
    start = time.time()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        config = TrainConfig(
            latent_dim=3, num_clusters=int(rng.integers(1, 4)),
            batch_size=8, epochs=1, enc_hidden=(6,), dec_hidden=(6,), seed=0,
        )
        params = init_params(4, config, rng)
        X = rng.standard_normal((4, 4))
        t = rng.uniform(0.1, 1.0, 4)
        event = rng.integers(0, 2, 4).astype(float)
        mu, log_var = encode(params, X)
        _, eps = reparameterize(mu, log_var, rng)
        Z = mu + np.exp(0.5 * log_var) * eps
        resp = cluster_posterior(params, Z, t, event)
        _, grads = elbo_grads(params, X, t, event, eps, config,
                              {k: np.zeros_like(a) for k, a in params.tensors.items()},
                              resp=resp)
        fd = finite_diff_grad(
            lambda _: elbo_grads(params, X, t, event, eps, config,
                                 {k: np.zeros_like(a) for k, a in params.tensors.items()},
                                 resp=resp)[0].total,
            params.tensors, eps=1e-5,
        )
        for name, g in grads.items():
            scale = max(np.max(np.abs(fd[name])), 1e-4)
            worst = max(worst, np.max(np.abs(g - fd[name])) / scale)
    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed < 30.0
    detail = (f"worst relative gradient error {worst:.2e} over 50 instances, "
              f"{elapsed:.1f}s of 30s")
    assert verdict(5, ok, detail), detail


# ---------------------------------------------------------------------------
# Criterion 6: probability kernels
# ---------------------------------------------------------------------------

def test_criterion_06_probability_kernels():
    rng = np.random.default_rng(6)
    worst_pdf = worst_surv = 0.0
    for _ in range(20):
        lam = float(rng.uniform(0.2, 5.0))
        k = float(rng.uniform(0.5, 4.0))

        def pdf(t):
            return float(np.exp(log_weibull_censored(
                np.array([t]), np.array([1.0]),
                np.array([lam]), k))[0])

        total, _ = integrate.quad(pdf, 0.0, np.inf)
        worst_pdf = max(worst_pdf, abs(total - 1.0))

        t0 = float(rng.uniform(0.05, 3.0 * lam))
        surv = float(np.exp(log_weibull_censored(
            np.array([t0]), np.array([0.0]), np.array([lam]), k))[0])
        mass, _ = integrate.quad(pdf, 0.0, t0)
        worst_surv = max(worst_surv, abs(surv - (1.0 - mass)))

    config = TrainConfig(latent_dim=4, num_clusters=4, batch_size=8,
                         epochs=1, enc_hidden=(6,), dec_hidden=(6,), seed=0)
    params = init_params(5, config, rng)
    Z = 10.0 * rng.standard_normal((10_000, 4))
    t = rng.lognormal(0.0, 2.0, 10_000)
    event = rng.integers(0, 2, 10_000).astype(float)
    rows_joint = cluster_posterior(params, Z, t, event).sum(axis=1)
    rows_prior = cluster_posterior_prior_only(params, Z).sum(axis=1)
    worst_row = max(np.max(np.abs(rows_joint - 1.0)),
                    np.max(np.abs(rows_prior - 1.0)))

    ok = worst_pdf < 1e-6 and worst_surv < 1e-6 and worst_row < 1e-9
    detail = (f"density integrates to 1 within {worst_pdf:.1e}, "
              f"survival consistency {worst_surv:.1e}, "
              f"posterior row sums within {worst_row:.1e}")
    assert verdict(6, ok, detail), detail


# ---------------------------------------------------------------------------
# Criterion 7: metrics equal independent brute-force enumeration
# ---------------------------------------------------------------------------

def test_criterion_07_metric_oracles():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(2, 5))
        t = rng.uniform(0.1, 5.0, n)
        t_hat = rng.uniform(0.1, 5.0, n)
        event = rng.integers(0, 2, n)
        if event.sum() == 0:
            event[0] = 1
        risk = rng.standard_normal(n)
        true_labels = rng.integers(0, k, n)
        pred_labels = rng.integers(0, k, n)

        pairs = [
            (concordance_index(t, event, risk), ci_brute(t, event, risk)),
            (rae_nc(t, t_hat, event), rae_nc_brute(t, t_hat, event)),
            (rae_c(t, t_hat, event), rae_c_brute(t, t_hat, event)),
            (clustering_accuracy(true_labels, pred_labels),
             acc_brute(true_labels, pred_labels)),
            (nmi(true_labels, pred_labels),
             nmi_brute(true_labels, pred_labels)),
            (ari(true_labels, pred_labels),
             ari_brute(true_labels, pred_labels)),
        ]
        for got, want in pairs:
            if got is None and want is None:
                continue
            worst = max(worst, abs(got - want))
    ok = worst <= 1e-12
    detail = f"largest |metric - brute force| {worst:.2e} over 100 instances"
    assert verdict(7, ok, detail), detail


# ---------------------------------------------------------------------------
# Criterion 8: assignment solver equals exhaustive enumeration
# ---------------------------------------------------------------------------

def test_criterion_08_assignment_exhaustive():
    rng = np.random.default_rng(8)
    worst = 0.0
    for i in range(200):
        k = 2 + i % 4  # cycles through K = 2..5
        cost = rng.uniform(-5.0, 5.0, (k, k))
        _, total = hungarian(cost)
        _, best = assignment_brute(cost)
        worst = max(worst, abs(total - best))
    ok = worst == 0.0
    detail = f"largest cost gap to exhaustive minimum {worst:.2e} over 200 matrices"
    assert verdict(8, ok, detail), detail


# ---------------------------------------------------------------------------
# Criterion 9: EM monotonicity and k-means restart optimality
# ---------------------------------------------------------------------------

def test_criterion_09_em_and_kmeans():
    worst_drop = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        centers = rng.uniform(-4.0, 4.0, (k, 3))
        X = np.concatenate([
            centers[c] + rng.standard_normal((40, 3)) for c in range(k)
        ])
        _, trace = gmm_em_fit(X, k, seed=seed)
        if len(trace) > 1:
            worst_drop = max(worst_drop, float(np.max(-np.diff(trace))))

    rng = np.random.default_rng(99)
    X = rng.standard_normal((300, 4))
    restarts = 10
    model = kmeans_fit(X, 3, restarts=restarts, seed=5)
    # replay the restart stream and collect every restart's inertia
    replay = np.random.default_rng(5)
    inertias = []
    for _ in range(restarts):
        centers, inertia = _lloyd(X, _kmeans_pp_init(X, 3, replay))
        inertias.append(inertia)
    kmeans_ok = all(model.inertia <= v for v in inertias)

    ok = worst_drop <= 1e-9 and kmeans_ok
    detail = (f"largest EM log-likelihood drop {worst_drop:.2e}, "
              f"k-means inertia {model.inertia:.3f} <= min restart "
              f"{min(inertias):.3f}")
    assert verdict(9, ok, detail), detail


# ---------------------------------------------------------------------------
# Criterion 10: digits-survival generator properties + surrogate training
# ---------------------------------------------------------------------------

def test_criterion_10_survmnist_properties():
    p_cens = 0.3
    censored_ok = True
    for seed in range(10):
        feats, digits = make_surrogate_digit_features(2000, seed=seed)
        data = gen_survmnist(
            SurvMnistConfig(num_clusters=5, censoring_fraction=p_cens,
                            seed=seed),
            feats, digits,
        )
        censored_ok &= (1.0 - data.events.mean()) >= p_cens

    # per-cluster event times against the generating exponential
    feats, digits = make_surrogate_digit_features(120_000, seed=0)
    data = gen_survmnist(SurvMnistConfig(num_clusters=5, seed=0), feats, digits)
    u = data.diagnostics["event_times"]
    rates = data.diagnostics["rates"]
    worst_p = 1.0
    for c in range(5):
        sample = u[data.labels == c][:10_000]
        assert len(sample) == 10_000
        p = stats.kstest(sample, "expon", args=(0.0, 1.0 / rates[c])).pvalue
        worst_p = min(worst_p, p)

    # surrogate-feature training reaches the concordance floor
    feats, digits = make_surrogate_digit_features(2000, seed=0)
    data = gen_survmnist(SurvMnistConfig(num_clusters=5, seed=0), feats, digits)
    train, test = train_test_split(data, test_fraction=0.3, seed=0)
    train, stats_ = preprocess(train)
    test, _ = preprocess(test, stats_)
    config = TrainConfig(latent_dim=4, num_clusters=5, weibull_shape=1.0,
                         epochs=150, learning_rate=1e-3, recon_loss="bce",
                         enc_hidden=(32,), dec_hidden=(32,), seed=0)
    params, _ = fit(train, config)
    pred = predict(params, test.features, test.times, test.events)
    ci = concordance_index(test.times, test.events, -pred.median_time)

    ok = censored_ok and worst_p > 0.01 and ci >= 0.70
    detail = (f"censored fraction >= {p_cens} on 10 seeds: {censored_ok}, "
              f"worst per-cluster KS p-value {worst_p:.3f} > 0.01, "
              f"surrogate test CI {ci:.3f} vs floor 0.70")
    assert verdict(10, ok, detail), detail


# ---------------------------------------------------------------------------
# Criterion 11: pipeline byte-determinism
# ---------------------------------------------------------------------------

PIPELINE_CONFIG = """
latent_dim = 3
num_clusters = 2
epochs = 3
batch_size = 64
enc_hidden = 16
dec_hidden = 16
num_samples = 150
num_features = 8
test_fraction = 0.3
seed = 11
"""


def test_criterion_11_pipeline_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(PIPELINE_CONFIG)

    def run(tag):
        d = tmp_path / tag
        d.mkdir()
        data = d / "data"
        ckpt = d / "model.ckpt"
        pred = d / "pred.csv"
        report = d / "report.txt"
        assert main(["simulate", "--kind", "synthetic", "--config", str(cfg),
                     "--out", str(data)]) == 0
        assert main(["train", "--data", str(data / "train.csv"),
                     "--config", str(cfg), "--out", str(ckpt)]) == 0
        assert main(["predict", "--checkpoint", str(ckpt),
                     "--data", str(data / "test.csv"), "--out", str(pred)]) == 0
        assert main(["evaluate", "--predictions", str(pred),
                     "--data", str(data / "test.csv"),
                     "--out", str(report)]) == 0
        return [Path(p).read_bytes()
                for p in (data / "train.csv", ckpt, pred, report)]

    first = run("a")
    second = run("b")
    ok = all(x == y for x, y in zip(first, second))
    detail = "simulate->train->predict->evaluate byte-identical across two runs"
    assert verdict(11, ok, detail), detail
