"""Minimal dense-network machinery.

Networks are stacks of fully connected layers: relu on every hidden
layer and a linear (identity) output, the one kind of MLP the model
uses. The forward pass keeps each layer's output after its relu (bias
add and relu run in place on the GEMM result); the analytic backward
pass reads the relu mask back from it, writes the parameter gradients
into the caller's arrays and can skip the input gradient.

A network only holds arrays: it owns no storage and draws no weights
(``model`` does, and builds its networks from views of its one
parameter vector). ``adam_step`` ascends, as its callers maximise. It
updates each entry in blocks of ``ADAM_BLOCK`` elements through two
scratch buffers kept in ``AdamState``, so a whole parameter vector is
updated in cache-sized pieces without temporaries, with the same
floating-point operations in the same order as the textbook per-array
update.

All arrays are float64, batches are stored as rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, TrainingError

ADAM_BLOCK = 32768  # elements per Adam block, so its six 256 KiB slices are reused from cache


@dataclass
class DenseNet:
    """An ordered stack of (weight, bias) layers, relu on all but the last.

    weights[i] has shape (fan_in, fan_out); layer widths must chain.
    """

    weights: list
    biases: list

    @property
    def input_dim(self):
        return self.weights[0].shape[0]


def net_forward(net, X):
    """Forward pass; returns (output, posts) where posts holds the input
    and every layer's output (after its relu), depth + 1 arrays."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeError(f"expected 2-d batch, got shape {X.shape}")
    if X.shape[1] != net.input_dim:
        raise ShapeError(
            f"input width {X.shape[1]} != network input width {net.input_dim}"
        )
    posts = [X]
    last = len(net.weights) - 1
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        post = posts[-1] @ W
        post += b
        if i < last:
            np.maximum(post, 0.0, out=post)
        posts.append(post)
    return posts[-1], posts


def net_backward(net, posts, upstream, grads, input_grad=True):
    """Backward pass through a stored forward stack.

    upstream is dLoss/dOutput for the batch; it is read, never written.
    The parameter gradients are written into grads, a DenseNet of arrays
    shaped like net's. Returns the gradient with respect to the input, or
    None with input_grad=False, which skips the first layer's delta @ W.T.
    """
    upstream = np.asarray(upstream, dtype=float)
    if len(posts) != len(net.weights) + 1:
        raise ShapeError("stack does not match network depth")
    if upstream.shape != posts[-1].shape:
        raise ShapeError(
            f"upstream shape {upstream.shape} != output shape {posts[-1].shape}"
        )
    delta = upstream
    last = len(net.weights) - 1
    for i in reversed(range(last + 1)):
        if i < last:
            # relu's derivative: max(p, 0) > 0 exactly where p > 0; delta
            # is a fresh GEMM result here, never upstream
            delta *= posts[i + 1] > 0.0
        np.matmul(posts[i].T, delta, out=grads.weights[i])
        np.sum(delta, axis=0, out=grads.biases[i])
        if i > 0 or input_grad:
            delta = delta @ net.weights[i].T
    return delta if input_grad else None


@dataclass
class AdamState:
    """First/second moment accumulators keyed like the parameter dict, and
    the two scratch buffers of the blocked update."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0
    scratch: np.ndarray | None = None  # (2, block) work space


def adam_step(params, grads, state, lr):
    """One Adam update (ascent), in place on the parameter dict.

    Per element this is m = beta1*m + (1-beta1)*g, v = beta2*v +
    (1-beta2)*g*g, p += lr*m_hat / (sqrt(v_hat) + eps), evaluated in that
    order over blocks of at most ADAM_BLOCK elements. A non-finite
    gradient raises TrainingError naming its entry, before that entry is
    changed.
    """
    state.step += 1
    t = state.step
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    c1, c2 = 1.0 - beta1, 1.0 - beta2
    bc1, bc2 = 1.0 - beta1**t, 1.0 - beta2**t
    block = min(ADAM_BLOCK, max([1, *(np.size(p) for p in params.values())]))
    if state.scratch is None or state.scratch.shape[1] < block:
        state.scratch = np.empty((2, block))
    for name, p in params.items():
        g = np.ravel(grads[name])
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros(np.shape(p))
            state.v[name] = np.zeros(np.shape(p))
        m = state.m[name].reshape(-1)
        v = state.v[name].reshape(-1)
        # a non-contiguous parameter is updated through a contiguous copy
        flat_p = p.reshape(-1) if p.flags.c_contiguous else p.flatten()
        for start in range(0, flat_p.size, block):
            ps, gs, ms, vs = (x[start : start + block] for x in (flat_p, g, m, v))
            a, b = state.scratch[:, : ps.size]
            ms *= beta1
            np.multiply(gs, c1, out=a)
            ms += a
            vs *= beta2
            np.multiply(gs, c2, out=a)
            a *= gs
            vs += a
            np.divide(vs, bc2, out=a)
            np.sqrt(a, out=a)
            a += eps
            np.divide(ms, bc1, out=b)
            b *= lr
            b /= a
            ps += b
        if not p.flags.c_contiguous:
            p[...] = flat_p.reshape(p.shape)
    return params, state
