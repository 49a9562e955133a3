"""Closed-form probability kernels.

Diagonal Gaussians, the right-censored Weibull log-likelihood and its
gradient, and numerically stable log-domain reductions. Everything here
is pure and vectorized over leading axes.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def softplus(x):
    """log(1 + exp(x)), stable for large |x|."""
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus_grad(x):
    """Derivative of softplus, i.e. the logistic sigmoid."""
    x = np.asarray(x, dtype=float)
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))


def log_gaussian_diag(z, mean, var):
    """Log density of a diagonal Gaussian, summed over the last axis."""
    z = np.asarray(z, dtype=float)
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    if np.any(var <= 0.0):
        raise DomainError("variances must be strictly positive")
    r = np.subtract(z, mean, out=np.empty(np.broadcast_shapes(z.shape, mean.shape, var.shape)))
    np.divide(np.square(r, out=r), var, out=r)
    r += np.log(2.0 * np.pi * var)
    return -0.5 * np.sum(r, axis=-1)


def log_weibull_censored(t, event, scale, shape):
    """Right-censored Weibull log-likelihood.

    event=1 rows contribute the log density, event=0 rows the log
    survival function. scale/shape broadcast against t.
    """
    return weibull_censored_grads(t, event, scale, shape)[0]


def weibull_censored_grads(t, event, scale, shape):
    """log_weibull_censored together with its derivatives.

    Returns (log-likelihood, d/d scale, d/d shape), broadcast alike. With
    r = (t/scale)^shape the derivatives are (shape/scale)(r - event) and
    event (1/shape + log(t/scale)) - r log(t/scale).
    """
    t = np.asarray(t, dtype=float)
    event = np.asarray(event, dtype=float)
    scale = np.asarray(scale, dtype=float)
    if np.any(t <= 0.0):
        raise DomainError("times must be strictly positive")
    if np.any(scale <= 0.0) or shape <= 0.0:
        raise DomainError("Weibull scale and shape must be positive")
    log_scale = np.log(scale)
    log_ratio = np.log(t) - log_scale
    ratio_k = np.exp(shape * log_ratio)  # minus the log survival function
    log_density_part = np.log(shape) - log_scale + (shape - 1.0) * log_ratio
    ll = event * log_density_part - ratio_k
    d_scale = (shape / scale) * (ratio_k - event)
    d_shape = event * (1.0 / shape + log_ratio) - ratio_k * log_ratio
    return ll, d_scale, d_shape


def weibull_median(scale, shape):
    """Median of a Weibull distribution: scale * (ln 2)^(1/shape)."""
    scale = np.asarray(scale, dtype=float)
    if np.any(scale <= 0.0) or shape <= 0.0:
        raise DomainError("Weibull scale and shape must be positive")
    return scale * np.log(2.0) ** (1.0 / shape)


def log_sum_exp(v, axis=-1):
    """log Σ exp(v) along an axis, computed with a max shift."""
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise DomainError("log_sum_exp of an empty array")
    vmax = np.max(v, axis=axis, keepdims=True)
    out = vmax + np.log(np.sum(np.exp(v - vmax), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def softmax(v, axis=-1):
    """Stable softmax along an axis."""
    v = np.asarray(v, dtype=float)
    vmax = np.max(v, axis=axis, keepdims=True)
    e = np.exp(v - vmax)
    return e / e.sum(axis=axis, keepdims=True)
