"""Benchmark generators, dataset I/O, and preprocessing.

Two generators are provided, each sized and seeded by its config alone:
a tabular benchmark whose latents follow a Gaussian mixture with
cluster-specific linear Weibull survival heads, and a digits benchmark
that attaches exponential survival times to MNIST digit classes, with
surrogate features in [0, 1] standing in for the images. Each refuses a
size that cannot fit in memory through check_memory, the model's gate too.
preprocess alone decides the feature map, from the train split's values.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .dist import softplus
from .errors import ConfigError, FormatError, ShapeError
from .table import read_table, write_table


@cache
def _available_memory():
    """Physical memory in bytes, or the cgroup's limit (v2, else v1) when readable and lower.
    Read once per process, so a small predict spends no share of its time in system calls."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    for path in ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes"):
        try:
            with open(path) as f:
                return min(physical, int(f.read()))
        except (OSError, ValueError):  # absent, or "max": no limit
            pass
    return physical


def check_memory(need, purpose, **sizes):
    """ConfigError naming the sizes when need bytes to purpose exceed the memory available."""
    if need > (have := _available_memory()):
        named = [f"{key} {value}" for key, value in sizes.items()]
        raise ConfigError(f"{', '.join(named[:-1])} and {named[-1]} need about "
                          f"{need / 2**30:.1f} GiB to {purpose}, more than the "
                          f"{have / 2**30:.1f} GiB available")


@dataclass
class SurvivalDataset:
    """Rows of (features x, time t, event flag, optional integer cluster)."""

    features: np.ndarray  # (N, D)
    times: np.ndarray  # (N,)
    events: np.ndarray  # (N,) in {0, 1}
    labels: np.ndarray | None = None  # (N,) cluster indices
    processed: bool = False
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=float)
        self.times = np.ascontiguousarray(self.times, dtype=float)
        events = np.asarray(self.events)
        labels = None if self.labels is None else np.asarray(self.labels)
        if self.features.ndim != 2:
            raise ShapeError(f"features must be 2-d, got shape {self.features.shape}")
        for name, a in (("times", self.times), ("events", events), ("labels", labels)):
            if a is not None and a.shape != self.features.shape[:1]:
                raise ShapeError(f"{name} must have shape {self.features.shape[:1]} to match "
                                 f"the features, got {a.shape}")
        # Each check names its first offending row, counting from 0.
        if not (np.isfinite(self.features).all() and np.isfinite(self.times).all()):
            i = np.argmin(np.isfinite(self.features).all(axis=1) & np.isfinite(self.times))
            row = np.append(self.features[i], self.times[i])  # features before time
            j = np.argmin(np.isfinite(row))
            column = "time" if j == self.features.shape[1] else f"feature_{j}"
            raise ConfigError(f"row {i}: {column} must be finite, got {row[j]}")
        for i in np.flatnonzero(self.times <= 0)[:1]:
            raise ConfigError(f"row {i}: time must be positive, got {self.times[i]}")
        for i in np.flatnonzero((events != 0) & (events != 1))[:1]:
            raise ConfigError(f"row {i}: event must be 0 or 1, got {events[i]}")
        self.events = events.astype(int)
        if labels is not None:
            with np.errstate(invalid="ignore"):  # nan, inf and overflow cast to a mismatch
                self.labels = labels.astype(int)
            for i in np.flatnonzero(self.labels != labels)[:1]:
                raise ConfigError(f"row {i}: cluster must be an integer, got {labels[i]}")

    def __len__(self):
        return self.features.shape[0]

    def subset(self, idx):
        # of the generators' diagnostics only the per-row ones are kept
        return SurvivalDataset(
            self.features[idx], self.times[idx], self.events[idx],
            None if self.labels is None else self.labels[idx], self.processed,
            {k: v[idx] for k, v in self.diagnostics.items()
             if k in ("latents", "event_times", "scales", "digits")},
        )


@dataclass(frozen=True)
class SyntheticConfig:
    """Size, shape and seed of gen_synthetic's data; checked when built."""

    num_clusters: int = 3
    num_samples: int = 60000
    latent_dim: int = 16
    num_features: int = 1000
    weibull_shape: float = 1.0
    censoring_fraction: float = 0.3
    hidden_units: int = 32
    cov_mode: str = "full"  # "full" | "diag": latent covariance reading
    seed: int = 0

    def __post_init__(self):
        if min(self.num_clusters, self.num_samples, self.latent_dim,
               self.num_features, self.hidden_units) < 1:
            raise ConfigError("all size parameters must be positive")
        if not 0.0 <= self.censoring_fraction < 1.0:
            raise ConfigError("censoring_fraction must be in [0, 1)")
        if self.cov_mode not in ("full", "diag"):
            raise ConfigError(f"unknown cov_mode {self.cov_mode!r}")
        if not 0.0 < self.weibull_shape < np.inf:  # nan fails it too
            raise ConfigError(f"weibull_shape must be positive and finite, got {self.weibull_shape}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SurvMnistConfig:
    """Size, censoring and seed of gen_survmnist's data; checked when built."""

    num_clusters: int = 5
    num_samples: int = 60000
    censoring_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.num_samples < 1:
            raise ConfigError(f"num_samples must be >= 1, got {self.num_samples}")
        if not 1 <= self.num_clusters <= 10:
            raise ConfigError("num_clusters must be between 1 and 10 (ten digits)")
        if not 0.0 <= self.censoring_fraction < 1.0:
            raise ConfigError("censoring_fraction must be in [0, 1)")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def gen_spd(d, seed):
    """Random symmetric positive-definite matrix: A.T A / d + 0.1 I."""
    if d < 1:
        raise ConfigError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d))
    return A.T @ A / d + 0.1 * np.eye(d)


def gen_low_rank(m, n, seed):
    """m x n matrix of effective rank ceil(min(m, n) / 5).

    Random orthogonal factors with a bell-shaped singular-value profile
    plus a slowly decaying tail, so the matrix has low *effective* rank but
    keeps a full-rank spectrum and loses no information.
    """
    if m < 1 or n < 1:
        raise ConfigError("dimensions must be >= 1")
    r = int(np.ceil(min(m, n) / 5))
    rng = np.random.default_rng(seed)
    p = min(m, n)
    U, _ = np.linalg.qr(rng.standard_normal((m, p)))
    V, _ = np.linalg.qr(rng.standard_normal((n, p)))
    idx = np.arange(p, dtype=float)
    tail_strength = 0.5
    s = (1.0 - tail_strength) * np.exp(-((idx / r) ** 2)) + tail_strength * np.exp(
        -0.1 * idx / r
    )
    return (U * s) @ V.T


def gen_synthetic(config):
    """Tabular benchmark: Gaussian-mixture latents pushed through a random
    3-layer relu map, with cluster-specific linear Weibull survival. A
    ConfigError names the sizes when K J x J covariance factors, N x J
    latents and noise, N x hidden activations and N x D features with a
    split's copy would exceed the memory available."""
    rng = np.random.default_rng(config.seed)
    K, N, J, D = (config.num_clusters, config.num_samples,
                  config.latent_dim, config.num_features)
    h = config.hidden_units
    check_memory(8 * (K * J**2 + 2 * N * (J + h + D)), "simulate", num_clusters=K,
                 num_samples=N, latent_dim=J, num_features=D, hidden_units=h)

    c = rng.integers(0, K, size=N)
    mu = rng.uniform(-0.5, 0.5, size=(K, J))
    chols = []
    for ci in range(K):
        S = gen_spd(J, int(rng.integers(2**31)))
        if config.cov_mode == "diag":
            S = np.diag(np.diag(S))
        chols.append(np.linalg.cholesky(S))
    z = np.empty((N, J))
    std_normal = rng.standard_normal((N, J))
    for ci in range(K):
        mask = c == ci
        z[mask] = mu[ci] + std_normal[mask] @ chols[ci].T

    W0 = gen_low_rank(h, J, int(rng.integers(2**31)))
    W1 = gen_low_rank(h, h, int(rng.integers(2**31)))
    W2 = gen_low_rank(D, h, int(rng.integers(2**31)))
    b0 = rng.standard_normal(h)
    b1 = rng.standard_normal(h)
    b2 = rng.standard_normal(D)
    hidden = np.maximum(z @ W0.T + b0, 0.0)
    hidden = np.maximum(hidden @ W1.T + b1, 0.0)
    x = hidden @ W2.T
    x += b2

    betas = rng.uniform(-10.0, 10.0, size=(K, J + 1))
    lam = softplus((z * betas[c, 1:]).sum(axis=1) + betas[c, 0])
    lam = np.maximum(lam, 1e-8)
    with np.errstate(over="ignore"):  # a small shape draws past the float range
        u = lam * rng.weibull(config.weibull_shape, size=N)
    if not np.isfinite(u).all():
        raise ConfigError(f"weibull_shape = {config.weibull_shape} draws infinite survival times")
    u = np.maximum(u, 1e-300)
    events = (rng.random(N) >= config.censoring_fraction).astype(int)
    t = u.copy()
    censored = events == 0
    t[censored] = u[censored] * rng.uniform(size=censored.sum())
    t = np.maximum(t, np.finfo(float).tiny)

    return SurvivalDataset(
        x, t, events, labels=c,
        diagnostics={"latents": z, "event_times": u, "betas": betas,
                     "scales": lam, "mixture_means": mu,
                     "mixture_chols": np.stack(chols)},
    )


MEAN_SURVIVAL = 365.0  # days: the digits benchmark's time unit


def gen_survmnist(config):
    """Digits benchmark: exponential survival times with digit-cluster
    specific rates; a single censoring time truncates the upper tail.

    The features stand in for MNIST images: one-hot digit labels plus
    N(0, 0.1^2) noise, clipped to the [0, 1] range of pixel intensities.
    Digits and features come from one generator seeded with config.seed,
    the survival part from a second one with the same seed. A ConfigError
    names the sizes when the N x 10 features and a split's copy would
    exceed the memory available.
    """
    rng = np.random.default_rng(config.seed)
    n, K = config.num_samples, config.num_clusters
    check_memory(8 * 2 * n * 10, "simulate", num_clusters=K, num_samples=n)
    digit_labels = rng.integers(0, 10, size=n)
    features = np.eye(10)[digit_labels] + 0.1 * rng.standard_normal((n, 10))
    np.clip(features, 0.0, 1.0, out=features)

    rng = np.random.default_rng(config.seed)
    digits = rng.permutation(10)
    assignment = np.empty(10, dtype=int)
    assignment[digits[:K]] = np.arange(K)  # every cluster gets >= 1 digit
    assignment[digits[K:]] = rng.integers(0, K, size=10 - K)
    clusters = assignment[digit_labels]

    risk = rng.uniform(0.5, 15.0, size=K)
    a = rng.uniform(size=n)
    a = np.where(a <= 0.0, np.finfo(float).tiny, a)
    # -log(a) lies in (0, 708.4] and risk in [0.5, 15], so every time lies in
    # (0, 708.4 * MEAN_SURVIVAL / e^0.5], about 1.6e5: finite and positive
    rate = np.exp(risk) / MEAN_SURVIVAL
    u = -np.log(a) / rate[clusters]
    q_cens = np.quantile(u, 1.0 - config.censoring_fraction)
    t_cens = rng.uniform(u.min(), q_cens)
    events = (u <= t_cens).astype(int)
    t = np.where(events == 1, u, t_cens)

    return SurvivalDataset(
        features, t, events, labels=clusters,
        diagnostics={"event_times": u, "digits": digit_labels, "risk_scores": risk,
                     "rates": rate, "digit_assignment": assignment, "censor_time": t_cens},
    )


def save_csv(dataset, path):
    """Columns feature_0..feature_{D-1}, time, event[, cluster]; values
    rendered with 17 significant digits so the round trip is exact."""
    write_table(path, *csv_table(dataset))


def csv_table(dataset):
    """The header and columns save_csv writes of dataset."""
    labels = [] if dataset.labels is None else [dataset.labels]
    header = [f"feature_{i}" for i in range(dataset.features.shape[1])] + ["time", "event"]
    return (header + ["cluster"] * len(labels),
            [dataset.features, dataset.times, dataset.events, *labels])


def load_csv(path):
    """Inverse of save_csv; errors name the first bad row."""
    return _load_dataset(path, with_features=True)


def load_outcomes(path):
    """The time, event and cluster columns of a save_csv file, as a
    dataset with zero feature columns. The header, every row's width and
    the outcome cells are checked as load_csv checks them; feature cells
    are not parsed."""
    return _load_dataset(path, with_features=False)


def _load_dataset(path, with_features):
    def check_header(header):
        n_feat = sum(1 for h in header if h.startswith("feature_"))
        expected = [f"feature_{i}" for i in range(n_feat)] + ["time", "event"]
        if header[-1] == "cluster":
            expected.append("cluster")
        if header != expected:
            raise FormatError(f"{path}: expected columns {expected}, got {header}")
        return (expected if with_features else expected[n_feat:]), expected[n_feat + 2:]

    values, ints = read_table(path, check_header)
    d = values.shape[1] - 2 - len(ints)
    try:
        return SurvivalDataset(values[:, :d], values[:, d], values[:, d + 1],
                               ints.get("cluster"))
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from None


@dataclass
class PreprocessStats:
    """The train split's map of any split: t -> TIME_OFFSET + t / max_time
    and x -> (x - feature_mean) / feature_std (mean 0, std 1 if x is in [0, 1])."""

    max_time: float
    feature_mean: np.ndarray
    feature_std: np.ndarray


TIME_OFFSET = 1e-3
STD_FLOOR = 1e-8


def preprocess(dataset, stats=None):
    """Map times affinely onto (0.001, 1.001] (train max -> 1.001) and
    features by (x - mean) / std. Statistics computed here leave features
    that all lie in [0, 1], a Bernoulli decoder's intensities, as they are
    (mean 0, std 1), and standardize any others.

    Returns (processed dataset, stats). A dataset already processed is a
    ConfigError, with stats or without (its values are no longer raw), and
    one whose width is not the stats' a ShapeError.
    """
    if dataset.processed:
        raise ConfigError("dataset already preprocessed: pass the raw data")
    if stats is None:
        if len(dataset) == 0:
            raise ShapeError("cannot compute preprocessing statistics from zero rows")
        x = dataset.features
        if x.min(initial=0.0) >= 0.0 and x.max(initial=1.0) <= 1.0:  # zero columns too
            mean, std = np.zeros(x.shape[1]), np.ones(x.shape[1])
        else:
            mean, std = x.mean(axis=0), np.maximum(x.std(axis=0), STD_FLOOR)
        stats = PreprocessStats(float(dataset.times.max()), mean, std)
    elif dataset.features.shape[1] != len(stats.feature_mean):
        raise ShapeError(f"data has {dataset.features.shape[1]} features, the preprocessing "
                         f"statistics expect {len(stats.feature_mean)}")
    times = TIME_OFFSET + dataset.times / stats.max_time
    features = dataset.features - stats.feature_mean
    features /= stats.feature_std
    out = replace(dataset, features=features, times=times, processed=True)
    return out, stats


def inverse_time_transform(times, stats):
    """Undo the preprocessing time map (predicted times back to raw units)."""
    return (np.asarray(times, dtype=float) - TIME_OFFSET) * stats.max_time


def split_size(n, test_fraction):
    """Test rows when n rows are split: ConfigError unless 0 < test_fraction < 1, no part empty."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError("test_fraction must be in (0, 1)")
    n_test = int(round(n * test_fraction))
    if n_test < 1 or n_test >= n:
        raise ConfigError(f"degenerate split sizes for n={n}")
    return n_test


def train_test_split(dataset, test_fraction, seed):
    """Seeded shuffle split, sized by split_size."""
    n_test = split_size(len(dataset), test_fraction)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset))
    test_idx = np.sort(order[:n_test])
    train_idx = np.sort(order[n_test:])
    return dataset.subset(train_idx), dataset.subset(test_idx)
