"""Minimal dense-network machinery.

Networks are stacks of fully connected layers with relu or identity
activations. The forward pass keeps every intermediate activation so
the analytic backward pass can run without recomputation.
A central-difference gradient oracle is provided for testing.

All arrays are float64, batches are stored as rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, TrainingError

ACTIVATIONS = ("relu", "identity")


def _apply_activation(kind, a):
    if kind == "relu":
        return np.maximum(a, 0.0)
    if kind == "identity":
        return a
    raise ValueError(f"unknown activation {kind!r}")


def _activation_grad(kind, pre):
    # Derivative of the activation evaluated at the pre-activation.
    if kind == "relu":
        return (pre > 0.0).astype(float)
    if kind == "identity":
        return np.ones_like(pre)
    raise ValueError(f"unknown activation {kind!r}")


@dataclass
class DenseNet:
    """An ordered stack of (weight, bias, activation) layers.

    weights[i] has shape (fan_in, fan_out); layer widths must chain.
    """

    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)
    activations: list = field(default_factory=list)

    @property
    def input_dim(self):
        return self.weights[0].shape[0]

    @property
    def output_dim(self):
        return self.weights[-1].shape[1]


def init_dense_net(layer_sizes, activations, rng):
    """Glorot-uniform weights, zero biases.

    layer_sizes is the full width chain [in, h1, ..., out]; activations
    has one tag per layer.
    """
    if len(activations) != len(layer_sizes) - 1:
        raise ShapeError("need one activation per layer")
    net = DenseNet()
    for fan_in, fan_out, act in zip(layer_sizes, layer_sizes[1:], activations):
        if act not in ACTIVATIONS:
            raise ValueError(f"unknown activation {act!r}")
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        net.weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        net.biases.append(np.zeros(fan_out))
        net.activations.append(act)
    return net


def net_forward(net, X):
    """Forward pass; returns (output, stack) where the stack holds the
    input and every layer's pre- and post-activation values."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeError(f"expected 2-d batch, got shape {X.shape}")
    if X.shape[1] != net.input_dim:
        raise ShapeError(
            f"input width {X.shape[1]} != network input width {net.input_dim}"
        )
    post = X
    pres, posts = [], [X]
    for W, b, act in zip(net.weights, net.biases, net.activations):
        pre = post @ W + b
        post = _apply_activation(act, pre)
        pres.append(pre)
        posts.append(post)
    return post, (pres, posts)


def net_backward(net, stack, upstream):
    """Backward pass through a stored forward stack.

    Returns (weight_grads, bias_grads, input_grad) with shapes mirroring
    the parameters. upstream is dLoss/dOutput for the batch.
    """
    pres, posts = stack
    upstream = np.asarray(upstream, dtype=float)
    if len(pres) != len(net.weights):
        raise ShapeError("stack does not match network depth")
    if upstream.shape != pres[-1].shape:
        raise ShapeError(
            f"upstream shape {upstream.shape} != output shape {pres[-1].shape}"
        )
    weight_grads = [None] * len(net.weights)
    bias_grads = [None] * len(net.weights)
    delta = upstream
    for i in reversed(range(len(net.weights))):
        delta = delta * _activation_grad(net.activations[i], pres[i])
        weight_grads[i] = posts[i].T @ delta
        bias_grads[i] = delta.sum(axis=0)
        delta = delta @ net.weights[i].T
    return weight_grads, bias_grads, delta


@dataclass
class AdamState:
    """First/second moment accumulators keyed like the parameter dict."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update (minimization), in place on the parameter dict."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, state


def finite_diff_grad(loss, params, eps=1e-5):
    """Central-difference gradients of a scalar loss over a parameter dict.

    Perturbs one coordinate at a time; the loss callable receives the
    (mutated) dict and must not cache values between calls.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p)
        flat_p = p.ravel()
        flat_g = g.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + eps
            hi = loss(params)
            flat_p[i] = orig - eps
            lo = loss(params)
            flat_p[i] = orig
            flat_g[i] = (hi - lo) / (2.0 * eps)
        grads[name] = g
    return grads
