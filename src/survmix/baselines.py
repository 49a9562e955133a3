"""Reference methods: k-means, diagonal-Gaussian-mixture EM, and a
ridge-regularised linear Weibull AFT model.

The EM fitter doubles as the mixture initializer for pretraining.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dist import log_gaussian_diag, log_sum_exp, softmax, softplus, softplus_grad, weibull_censored_grads, weibull_median
from .errors import ConfigError, ShapeError
from .nnet import AdamState, adam_step

VAR_FLOOR = 1e-6


@dataclass
class KMeansModel:
    centers: np.ndarray  # (K, d)
    inertia: float


@dataclass
class DiagGmmModel:
    weights: np.ndarray  # (K,)
    means: np.ndarray  # (K, d)
    variances: np.ndarray  # (K, d)


@dataclass
class WeibullAftModel:
    coefficients: np.ndarray  # (d+1,), index 0 is the intercept
    shape: float
    ridge: float


def _kmeans_pp_init(X, k, rng):
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[i] = X[rng.integers(n)]
        else:
            centers[i] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((X - centers[i]) ** 2, axis=1))
    return centers


def _lloyd(X, centers):
    labels = None
    for _ in range(300):
        d2 = ((X[:, None, :] - centers[None]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(centers.shape[0]):
            mask = labels == c
            if np.any(mask):
                centers[c] = X[mask].mean(axis=0)
    d2 = ((X[:, None, :] - centers[None]) ** 2).sum(axis=2)
    inertia = float(d2.min(axis=1).sum())
    return centers, inertia


def kmeans_fit(X, k, restarts=10, seed=0):
    """Lloyd's algorithm with k-means++ seeding; best of `restarts` runs."""
    X = np.asarray(X, dtype=float)
    if X.shape[0] < k:
        raise ConfigError(f"need at least {k} rows, got {X.shape[0]}")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        centers = _kmeans_pp_init(X, k, rng)
        centers, inertia = _lloyd(X, centers)
        if best is None or inertia < best.inertia:
            best = KMeansModel(centers.copy(), inertia)
    return best


def kmeans_assign(model, X):
    """Nearest-center labels; ties break toward the lower index."""
    X = np.asarray(X, dtype=float)
    if X.shape[1] != model.centers.shape[1]:
        raise ShapeError(
            f"feature width {X.shape[1]} != center width {model.centers.shape[1]}"
        )
    d2 = ((X[:, None, :] - model.centers[None]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


def gmm_em_fit(X, k, seed=0):
    """Diagonal-covariance Gaussian mixture via EM, k-means initialized.

    Returns (model, log-likelihood trace); the trace is non-decreasing.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    if n < k:
        raise ConfigError(f"need at least {k} rows, got {n}")
    km = kmeans_fit(X, k, restarts=3, seed=seed)
    labels = kmeans_assign(km, X)
    weights = np.maximum(np.bincount(labels, minlength=k) / n, 1e-12)
    means = km.centers.copy()
    variances = np.empty((k, d))
    for c in range(k):
        mask = labels == c
        variances[c] = X[mask].var(axis=0) if np.any(mask) else X.var(axis=0)
    variances = np.maximum(variances, VAR_FLOOR)

    trace = []
    prev_ll = -np.inf
    for _ in range(100):
        log_comp = log_gaussian_diag(X[:, None, :], means[None], variances[None])
        log_joint = log_comp + np.log(weights)[None]
        ll = float(log_sum_exp(log_joint, axis=1).mean())
        trace.append(ll)
        resp = softmax(log_joint, axis=1)
        nk = resp.sum(axis=0)
        weights = np.maximum(nk / n, 1e-12)
        means = (resp.T @ X) / np.maximum(nk, 1e-12)[:, None]
        for c in range(k):
            diff2 = (X - means[c]) ** 2
            variances[c] = (resp[:, c] @ diff2) / max(nk[c], 1e-12)
        if np.any(variances < VAR_FLOOR):
            warnings.warn("mixture component collapsed; flooring variances")
            variances = np.maximum(variances, VAR_FLOOR)
        if ll - prev_ll < 1e-6 * max(1.0, abs(ll)) and ll >= prev_ll:
            prev_ll = ll
            break
        prev_ll = ll
    return DiagGmmModel(weights / weights.sum(), means, variances), trace


def _aft_objective_grads(w, log_k, X1, t, event, ridge):
    """Mean censored-Weibull log-likelihood minus a ridge penalty on the
    non-intercept coefficients, with analytic gradients."""
    k = float(np.exp(log_k))
    pre = X1 @ w
    lam = np.maximum(softplus(pre), 1e-12)
    ll, dlam, dk = weibull_censored_grads(t, event, lam, k)
    gw = X1.T @ (dlam * softplus_grad(pre)) / len(t)
    g_log_k = float(dk.mean() * k)
    obj = float(ll.mean()) - ridge * float(w[1:] @ w[1:])
    gw[1:] -= 2.0 * ridge * w[1:]
    return obj, gw, g_log_k


def weibull_aft_fit(X, t, event, ridge=1e-3, fixed_shape=None, max_steps=5000):
    """Fit scale = softplus([1;x]·w), shape = exp(log_k) by Adam ascent
    on the censored log-likelihood with a ridge penalty on w[1:]."""
    X = np.asarray(X, dtype=float)
    t = np.asarray(t, dtype=float)
    event = np.asarray(event, dtype=float)
    X1 = np.concatenate([np.ones((X.shape[0], 1)), X], axis=1)
    theta, grad = np.zeros((2, X1.shape[1] + 1))  # [w; log_k], ascended as one vector
    if fixed_shape is not None:
        theta[-1] = np.log(fixed_shape)
    state = AdamState()
    for _ in range(max_steps):
        _, gw, g_log_k = _aft_objective_grads(theta[:-1], theta[-1], X1, t, event, ridge)
        g_log_k = g_log_k if fixed_shape is None else 0.0
        if np.sqrt(float(gw @ gw) + g_log_k * g_log_k) < 1e-6:
            break
        grad[:-1], grad[-1] = gw, g_log_k
        adam_step({"theta": theta}, {"theta": grad}, state, lr=0.05)
    return WeibullAftModel(theta[:-1].copy(), float(np.exp(theta[-1])), ridge)


def weibull_aft_predict(model, X):
    """(risk score, median time) per row; risk is the negated median."""
    X = np.asarray(X, dtype=float)
    if X.shape[1] != len(model.coefficients) - 1:
        raise ShapeError(
            f"feature width {X.shape[1]} != model width {len(model.coefficients) - 1}"
        )
    X1 = np.concatenate([np.ones((X.shape[0], 1)), X], axis=1)
    lam = np.maximum(softplus(X1 @ model.coefficients), 1e-12)
    median = weibull_median(lam, model.shape)
    return -median, median
