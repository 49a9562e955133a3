"""Deep survival-clustering model.

A VAE whose latent space carries a Gaussian-mixture prior, with one
linear Weibull survival head per mixture component. Training maximizes a
Monte Carlo estimate of the evidence lower bound from one draw of z per
row and step; component responsibilities are recomputed from the
current parameters every step and treated as fixed weights inside that
step's gradient.

The objective decomposes into five named terms, the fields of
``ElboTerms``: reconstruction, survival, clustering, prior, and
variational entropy. ``elbo_grads`` is the one routine that computes it:
encoder, reparameterization, decoder and, when survival times are given,
the survival and mixture terms, followed by a single backward pass. One
loop, ``_train``, runs it per batch and takes the Adam step: ``fit``
runs that loop on every trainable parameter and ``pretrain_init`` on the
encoder and decoder without times (reconstruction only), each under a
TrainConfig checked when it was built. ``_latent_scores`` computes
log p(z|c) + log pi, the Weibull scales and, given t, log p(t|z,c); the
training pass, ``cluster_posterior*`` and ``predict`` all use it.

One table, ``_shapes``, maps the sizes (D features, J latents, K
clusters, hidden widths) to every tensor's name and shape: ``init_params``
draws from it, ``fit`` sizes its memory estimate from it, and a
checkpoint's tensors are checked against it. ``fit`` and ``predict``
each refuse, through ``datagen.check_memory``, a size whose arrays
cannot fit in memory.

Every parameter lives in one store, ``ModelParams``: a name -> array
dict whose construction checks that the arrays form one model and copies
them into one contiguous float64 vector, ``ModelParams.vector``, in
encoder, decoder, survival heads, mixture order. The networks and the
mixture and survival arrays are views of it (``pretrain_init`` writes
the mixture through them), so the trainable parameters are the vector
(the encoder and decoder one prefix of it, which pretraining updates).
Each step ``elbo_grads`` writes the gradients in place into one buffer
laid out the same way by ``_views``, and the ascent ``adam_step``
updates the whole prefix from it in cache-sized blocks.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field
from functools import reduce
from operator import add

import numpy as np

from .baselines import gmm_em_fit
from .datagen import TIME_OFFSET, check_memory
from .dist import (
    log_gaussian_diag,
    log_sum_exp,
    softmax,
    softplus,
    softplus_grad,
    weibull_censored_grads,
)
from .errors import ConfigError, DomainError, ShapeError, TrainingError
from .nnet import AdamState, DenseNet, adam_step, net_backward, net_forward

LOGVAR_MIN, LOGVAR_MAX = -10.0, 10.0
SCALE_FLOOR = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Everything needed to reproduce one training run; checked when built."""

    latent_dim: int = 16
    num_clusters: int = 3
    weibull_shape: float = 1.0
    batch_size: int = 256
    learning_rate: float = 1e-3
    epochs: int = 1000
    pretrain_epochs: int = 0
    recon_loss: str = "mse"  # "mse" | "bce"
    survival_weight: float = 1.0  # 0 disables the survival term (unsupervised ablation)
    seed: int = 42
    enc_hidden: tuple = (128, 128)
    dec_hidden: tuple = (128, 128)

    def __post_init__(self):
        if self.latent_dim < 1 or self.num_clusters < 1:
            raise ConfigError("latent_dim and num_clusters must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if min(self.epochs, self.pretrain_epochs) < 0:
            raise ConfigError("epochs and pretrain_epochs must be >= 0")
        if min((*self.enc_hidden, *self.dec_hidden), default=1) < 1:
            raise ConfigError("enc_hidden and dec_hidden widths must be >= 1")
        if self.recon_loss not in ("mse", "bce"):
            raise ConfigError(f"unknown recon_loss {self.recon_loss!r}")
        if not 0.0 < self.weibull_shape < np.inf:  # nan fails it too
            raise ConfigError(f"weibull_shape must be positive and finite, got {self.weibull_shape}")
        if not 0.0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0.0 <= self.survival_weight < np.inf:
            raise ConfigError(f"survival_weight must be >= 0 and finite, got {self.survival_weight}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ModelParams:
    """All trainable quantities, held once.

    tensors maps enc.W0, enc.b0, ..., dec.*, surv.betas, mix.logits,
    mix.means and mix.log_vars to their arrays; other entries (a
    checkpoint's stats, say) are dropped. The encoder maps D features to
    2J outputs (latent mean, latent log-variance), the decoder maps J
    latents back to D outputs, and mixture components and survival heads
    are indexed consistently. Construction raises ShapeError unless the
    tensors fit together (KeyError if one is missing), copies them into
    ``vector`` in encoder, decoder, survival, mixture order and keeps only
    views of it; the networks and arrays below are views of tensors, so
    writing through them writes ``vector``.
    """

    tensors: dict
    shape: float
    vector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        layout = _layout(self.tensors)
        self.vector = np.concatenate([np.ravel(a) for a in layout.values()], dtype=float)
        self.tensors = _views(self.vector, layout)

    encoder = property(lambda self: _dense_net(self.tensors, "enc"))
    decoder = property(lambda self: _dense_net(self.tensors, "dec"))
    betas = property(lambda self: self.tensors["surv.betas"])  # (K, J+1); column 0 is the bias
    mixture_logits = property(lambda self: self.tensors["mix.logits"])  # (K,)
    means = property(lambda self: self.tensors["mix.means"])  # (K, J)
    log_vars = property(lambda self: self.tensors["mix.log_vars"])  # (K, J)

    @property
    def latent_dim(self):
        return self.means.shape[1]

    @property
    def num_clusters(self):
        return self.means.shape[0]


def _dense_net(tensors, prefix):
    """A dict's prefix.* entries, laid out W0, b0, W1, b1, ..., as a DenseNet."""
    arrays = tuple(a for name, a in tensors.items() if name.startswith(f"{prefix}."))
    return DenseNet(arrays[0::2], arrays[1::2])


def _shapes(d, j, k, enc_hidden, dec_hidden):
    """Every tensor's shape by name, in vector order: the one map from D features, J
    latents, K clusters and the hidden widths to the model (encoder D..2J, decoder J..D)."""
    shapes = {}
    for prefix, widths in (("enc", (d, *enc_hidden, 2 * j)), ("dec", (j, *dec_hidden, d))):
        for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
            shapes[f"{prefix}.W{i}"], shapes[f"{prefix}.b{i}"] = (fan_in, fan_out), (fan_out,)
    return shapes | {"surv.betas": (k, j + 1), "mix.logits": (k,), "mix.means": (k, j),
                     "mix.log_vars": (k, j)}


def _layout(tensors):
    """The model's tensors in vector order. ShapeError names the first one
    that does not fit (D features from enc.W0, K clusters and J latents
    from mix.means, each hidden width from its layer's bias; a missing
    axis reads as -1), KeyError the first one missing."""

    def dims(name, rank):
        return (np.shape(tensors[name]) + (-1,) * rank)[:rank]

    (d,), (k, j) = dims("enc.W0", 1), dims("mix.means", 2)
    depth = {p: sum(name.startswith(f"{p}.W") for name in tensors) for p in ("enc", "dec")}
    hidden = {p: [dims(f"{p}.b{i}", 1)[0] for i in range(n - 1)] for p, n in depth.items()}
    expected = _shapes(d, j, k, hidden["enc"], hidden["dec"])
    for name, shape in expected.items():
        if np.shape(tensors[name]) != shape:
            raise ShapeError(f"tensor {name!r} has shape {np.shape(tensors[name])}, "
                             f"expected {shape} to fit the other tensors")
    return {name: tensors[name] for name in expected}


def _views(vector, like):
    """name -> view of the 1-d vector, laid out like the arrays of like:
    consecutive slices in dict order, each reshaped to its array's shape."""
    out, start = {}, 0
    for name, a in like.items():
        out[name] = vector[start : start + np.size(a)].reshape(np.shape(a))
        start += np.size(a)
    return out


def init_params(input_dim, config, rng):
    """Draws Glorot-uniform weights layer by layer (encoder, then decoder), then mix.means
    ~ N(0, 1), then surv.betas ~ N(0, 0.01^2); every other tensor starts at zero."""
    shapes = _shapes(input_dim, config.latent_dim, config.num_clusters,
                     config.enc_hidden, config.dec_hidden)
    tensors = {}
    for name, shape in shapes.items():
        limit = np.sqrt(6.0 / sum(shape))
        tensors[name] = rng.uniform(-limit, limit, shape) if ".W" in name else np.zeros(shape)
    tensors["mix.means"] = rng.standard_normal(shapes["mix.means"])
    tensors["surv.betas"] = 0.01 * rng.standard_normal(shapes["surv.betas"])
    return ModelParams(tensors, config.weibull_shape)


def encode(params, X):
    """Latent mean and clamped log-variance for a batch."""
    return _encoder_pass(params, np.atleast_2d(np.asarray(X, dtype=float)))[:2]


def _encoder_pass(params, X):
    """The encoder on X: latent mean, clamped log-variance and the forward stack."""
    out, posts = net_forward(params.encoder, X)
    j = params.latent_dim
    return out[:, :j], np.clip(out[:, j:], LOGVAR_MIN, LOGVAR_MAX), posts


def reparameterize(mu, log_var, rng):
    """Draw z = mu + sigma * eps; returns (z, eps) with shape (N, J)."""
    mu = np.asarray(mu, dtype=float)
    log_var = np.asarray(log_var, dtype=float)
    eps = rng.standard_normal(mu.shape)
    z = mu + np.exp(0.5 * log_var) * eps
    return z, eps


def weibull_scales(params, Z):
    """Per-component Weibull scales softplus([1;z]·beta_c) for a batch of z."""
    return _latent_scores(params, np.atleast_2d(np.asarray(Z, dtype=float))).scale


@dataclass
class _LatentScores:
    """Per-row, per-component pieces of log p(c, z[, t]) for a batch of z."""

    var: np.ndarray  # (K, J) component variances
    log_pz: np.ndarray  # (N, K) log p(z | c)
    log_pi: np.ndarray  # (K,) log mixture weights
    scale_pre: np.ndarray  # (N, K) Weibull scales before the softplus
    scale: np.ndarray  # (N, K) Weibull scales
    log_prior: np.ndarray  # (N, K) log p(z | c) + log pi
    log_joint: np.ndarray  # (N, K) log_prior + survival_weight * log_pt
    log_pt: np.ndarray | None  # (N, K) log p(t | z, c); None without t
    dscale: np.ndarray | None  # (N, K) d log_pt / d scale; None without t


def _latent_scores(params, Z, t=None, event=None, survival_weight=1.0):
    """Unnormalized log p(c, z[, t]) and its parts for Z of shape (N, J)."""
    var = np.exp(params.log_vars)
    log_pz = log_gaussian_diag(Z[:, None, :], params.means[None], var[None])
    log_pi = params.mixture_logits - log_sum_exp(params.mixture_logits)
    pre = Z @ params.betas[:, 1:].T + params.betas[:, 0]
    scale = np.maximum(softplus(pre), SCALE_FLOOR)
    log_prior = log_pz + log_pi[None, :]
    log_joint, log_pt, dscale = log_prior, None, None
    if t is not None:
        log_pt, dscale, _ = weibull_censored_grads(
            np.asarray(t, dtype=float)[:, None],
            np.asarray(event, dtype=float)[:, None],
            scale,
            params.shape,
        )
        if survival_weight != 0.0:
            log_joint = log_prior + survival_weight * log_pt
    return _LatentScores(var, log_pz, log_pi, pre, scale, log_prior, log_joint, log_pt, dscale)


def _normalize_log_posterior(logits):
    bad = np.flatnonzero(~np.isfinite(np.max(logits, axis=-1)))
    if len(bad):
        raise TrainingError(f"degenerate cluster posterior: no component log-score "
                            f"is finite in row {bad[0]}")
    return softmax(logits, axis=-1)


def cluster_posterior(params, Z, t, event):
    """p(c | z, t) row per input, computed in the log domain."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    return _normalize_log_posterior(_latent_scores(params, Z, t, event).log_joint)


def cluster_posterior_prior_only(params, Z):
    """p(c | z) when the survival time is unavailable."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    return _normalize_log_posterior(_latent_scores(params, Z).log_prior)


@dataclass
class ElboTerms:
    reconstruction: float
    survival: float
    clustering: float
    prior: float
    entropy: float

    @property
    def total(self):
        return reduce(add, astuple(self))  # left to right; sum() compensates from Python 3.12

    def check_finite(self):
        for name, value in asdict(self).items():
            if not np.isfinite(value):
                raise TrainingError(f"non-finite ELBO term: {name}")


def _recon_log_lik(dec_out, X, recon_loss):
    """Per-row reconstruction log-likelihood and its gradient w.r.t. the
    decoder output. For bce the decoder output is a logit."""
    if recon_loss == "mse":
        # Unit-variance Gaussian decoder.
        grad = X - dec_out
        ll = -0.5 * np.sum(grad**2 + np.log(2.0 * np.pi), axis=1)
    else:
        # Bernoulli decoder on logits: x*a - softplus(a).
        ll = np.sum(X * dec_out - softplus(dec_out), axis=1)
        grad = X - softplus_grad(dec_out)
    return ll, grad


def elbo_grads(params, X, t, event, eps, config, grads, resp=None):
    """The objective's one forward and backward pass: (ElboTerms, grads).

    eps (B, J) is the reparameterization noise, one draw per row. grads,
    a name -> array dict laid out like params.tensors, receives the
    gradients (to ascend) and is returned. With t and event the objective
    is the ELBO over every entry; the responsibilities are treated as
    constants, recomputed from the current parameters unless resp (B, K)
    freezes them. With t=None it is the autoencoder objective of
    pretraining: reconstruction only, over the encoder and decoder entries.
    """
    B = X.shape[0]
    mu, log_var, enc_posts = _encoder_pass(params, X)
    sigma = np.exp(0.5 * log_var)
    Z = mu + sigma * eps
    dec_out, dec_posts = net_forward(params.decoder, Z)
    recon_ll, recon_grad = _recon_log_lik(dec_out, X, config.recon_loss)
    terms = ElboTerms(float(recon_ll.sum() / B), 0.0, 0.0, 0.0, 0.0)

    # Decoder, via the reconstruction term.
    dZ = net_backward(params.decoder, dec_posts, recon_grad / B, _dense_net(grads, "dec"))

    if t is not None:
        w_surv = config.survival_weight
        s = _latent_scores(params, Z, t, event, w_surv)
        if resp is None:
            resp = _normalize_log_posterior(s.log_joint)
        terms.survival = float(w_surv * (resp * s.log_pt).sum() / B)
        terms.clustering = float((resp * s.log_pz).sum() / B)
        terms.prior = float((resp * s.log_pi[None, :]).sum() / B)
        gauss_ent = 0.5 * np.sum(np.log(2.0 * np.pi) + 1.0 + log_var) / B
        with np.errstate(divide="ignore", invalid="ignore"):
            cat_ent = -np.where(resp > 0.0, resp * np.log(resp), 0.0).sum() / B
        terms.entropy = float(gauss_ent + cat_ent)

        # Survival heads, through the floored softplus scales.
        active = (s.scale > SCALE_FLOOR).astype(float)
        dpre = w_surv * resp * s.dscale * softplus_grad(s.scale_pre) * active / B
        grads["surv.betas"][:, 0] = dpre.sum(axis=0)
        grads["surv.betas"][:, 1:] = dpre.T @ Z
        dZ = dZ + dpre @ params.betas[:, 1:]

        # Mixture parameters, via clustering and prior terms.
        diff = Z[:, None, :] - params.means[None]  # (B, K, J)
        w_diff = resp[:, :, None] / s.var[None] * diff
        grads["mix.means"][...] = w_diff.sum(axis=0) / B
        grads["mix.log_vars"][...] = (
            resp[:, :, None] * (-0.5 + diff**2 / (2.0 * s.var[None]))
        ).sum(axis=0) / B
        pi = np.exp(s.log_pi)
        grads["mix.logits"][...] = (resp - pi[None, :]).sum(axis=0) / B
        dZ = dZ - w_diff.sum(axis=1) / B

    # Reparameterization: z = mu + sigma * eps.
    dlogvar = dZ * eps * 0.5 * sigma
    if t is not None:
        # Entropy term contributes 1/(2B) per log-variance coordinate.
        dlogvar = dlogvar + 0.5 / B
    clamp_mask = (log_var > LOGVAR_MIN) & (log_var < LOGVAR_MAX)  # the raw values' mask
    upstream_enc = np.concatenate([dZ, dlogvar * clamp_mask], axis=1)
    net_backward(params.encoder, enc_posts, upstream_enc, _dense_net(grads, "enc"),
                 input_grad=False)
    return terms, grads


def _train(params, names, X, t, event, epochs, config, rng, callback=None):
    """Adam ascent on the parameters names, the leading entries of
    params.tensors (so one prefix of params.vector); t=None ascends the
    pretraining objective. Returns the per-epoch mean batch objective.

    Each step elbo_grads writes the gradients into one buffer laid out like
    the prefix; adam_step sees the prefix and the buffer as one entry each.
    Overflow warnings are silenced: a non-finite ELBO term, posterior or
    gradient raises TrainingError naming the phase, epoch and batch.
    """
    vector = params.vector[: sum(np.size(a) for a in names.values())]
    grad = np.zeros_like(vector)
    grad_views = _views(grad, names)
    state = AdamState()
    trace = []
    for epoch in range(epochs):
        order = rng.permutation(len(X))
        values = []
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for bstart in range(0, len(X), config.batch_size):
                idx = order[bstart : bstart + config.batch_size]
                eps = rng.standard_normal((len(idx), params.latent_dim))
                batch = (X[idx], None, None) if t is None else (X[idx], t[idx], event[idx])
                stepping = False
                try:
                    terms, _ = elbo_grads(params, *batch, eps, config, grad_views)
                    terms.check_finite()
                    stepping = True
                    adam_step({"vector": vector}, {"vector": grad}, state, config.learning_rate)
                except (TrainingError, DomainError) as exc:
                    # before adam_step the buffer may hold part of this step: name none
                    bad = [k for k, g in grad_views.items() if not np.isfinite(g).all()]
                    reason = f"non-finite gradient for parameter {bad[0]!r}" if stepping else exc
                    phase = "pretraining " if t is None else ""
                    raise TrainingError(
                        f"{phase}epoch {epoch}, batch {bstart // config.batch_size}: {reason}"
                    ) from exc
                values.append(terms.total)
        trace.append(float(np.mean(values)))
        if callback is not None:
            callback(epoch, trace[-1])
    return trace


def pretrain_init(params, X, config, rng):
    """Initialize the mixture parameters.

    With pretrain_epochs > 0: train encoder/decoder on the reconstruction
    objective, then fit a diagonal Gaussian mixture on the encoded means
    and copy its statistics into the prior. With 0 epochs the mixture is
    left at its random initialization (uniform weights).
    """
    if config.pretrain_epochs <= 0:
        return params
    X = np.asarray(X, dtype=float)
    nets = {k: v for k, v in params.tensors.items() if k.startswith(("enc.", "dec."))}
    _train(params, nets, X, None, None, config.pretrain_epochs, config, rng)
    mu, _ = encode(params, X)
    gmm, _ = gmm_em_fit(mu, params.num_clusters, seed=int(rng.integers(2**31)))
    params.mixture_logits[:] = np.log(np.maximum(gmm.weights, 1e-12))
    params.means[:] = gmm.means
    params.log_vars[:] = np.log(gmm.variances)  # floored at baselines.VAR_FLOOR
    return params


def check_features(X, config):
    """With recon_loss "bce" every feature must lie in [0, 1], else the
    Bernoulli log-likelihood has no upper bound: a DomainError names the
    first row and column outside it."""
    if config.recon_loss == "bce":
        inside = X >= 0.0  # nan compares false: outside
        inside &= X <= 1.0
        if not inside.all():
            i, j = np.unravel_index(np.argmin(inside), X.shape)  # the first False, row-major
            raise DomainError(f"row {i}: feature_{j} is {X[i, j]}, but recon_loss bce "
                              f"needs features in [0, 1]")


def fit(data, config, callback=None):
    """Train on a preprocessed dataset; returns (params, per-epoch trace).

    data must expose .features, .times, .events. The trace holds the mean
    batch objective per epoch; callback(epoch, value) is called after each.
    A ConfigError names the sizes when the parameters (with their gradient
    and two Adam moments), one batch's layer outputs and deltas and, with
    pretraining, the encoder's layer outputs over every row would exceed
    the memory available; then the features must pass check_features.
    """
    rng = np.random.default_rng(config.seed)
    X = np.asarray(data.features, dtype=float)
    if X.shape[0] == 0:
        raise ShapeError("no training rows")
    shapes = _shapes(X.shape[1], config.latent_dim, config.num_clusters, config.enc_hidden,
                     config.dec_hidden)
    outputs = sum(s[1] for n, s in shapes.items() if ".W" in n)  # one row's, every layer
    cells = 4 * sum(map(math.prod, shapes.values())) + 2 * min(len(X), config.batch_size) * outputs
    if config.pretrain_epochs > 0:  # pretrain_init encodes every row at once
        cells += len(X) * sum(s[1] for n, s in shapes.items() if n.startswith("enc.W"))
    check_memory(8 * cells, "train", latent_dim=config.latent_dim,
                 num_clusters=config.num_clusters, enc_hidden=config.enc_hidden,
                 dec_hidden=config.dec_hidden)
    check_features(X, config)
    t = np.asarray(data.times, dtype=float)
    event = np.asarray(data.events, dtype=float)
    params = init_params(X.shape[1], config, rng)
    params = pretrain_init(params, X, config, rng)
    trace = _train(params, params.tensors, X, t, event, config.epochs, config, rng, callback)
    return params, trace


@dataclass
class Prediction:
    labels: np.ndarray  # (N,)
    posterior: np.ndarray  # (N, K)
    latent: np.ndarray  # (N, J)
    median_time: np.ndarray  # (N,)


def predict(params, X, t=None, event=None):
    """Cluster labels, posterior, latent means and predicted median times,
    each the posterior-weighted mean of the components' medians given
    t > TIME_OFFSET, so that inverse_time_transform maps it above 0.

    Uses z = mu_theta (no sampling). When (t, event) are given, both of
    shape (N,), the label posterior conditions on them; the predicted time
    always uses the time-free posterior so held-out prediction never peeks
    at t. A ShapeError names any other (t, event), and a ConfigError the
    sizes whose arrays would exceed the memory available.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, k, j = len(X), params.num_clusters, params.latent_dim
    shapes = [None if a is None else np.shape(a) for a in (t, event)]
    if shapes not in ([None, None], [(n,), (n,)]):
        raise ShapeError(f"t and event must both be None or both have shape ({n},), "
                         f"got {shapes[0]} and {shapes[1]}")
    # encode's layer outputs, _latent_scores's (N, K, J) residuals, the (N, K) scores
    need = 8 * n * (sum(b.size for b in params.encoder.biases) + k * (3 * j + 12))
    check_memory(need, "predict", num_clusters=k, latent_dim=j, rows=n)
    mu, _ = encode(params, X)
    scores = _latent_scores(params, mu, t, event)
    post = _normalize_log_posterior(scores.log_joint)
    prior_post = post if t is None else _normalize_log_posterior(scores.log_prior)
    # TIME_OFFSET = a is the least preprocessed time; the median given
    # t > a solves t^k = ln 2 lam^k + a^k, scaled by max(lam, a) against overflow
    lam, k = scores.scale, params.shape
    top = np.maximum(lam, TIME_OFFSET)
    medians = top * (np.log(2.0) * (lam / top) ** k + (TIME_OFFSET / top) ** k) ** (1.0 / k)
    t_hat = (prior_post * medians).sum(axis=1)
    labels = np.argmax(post, axis=1)  # argmax breaks ties toward lower index
    return Prediction(labels, post, mu, t_hat)
