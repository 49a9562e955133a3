"""Benchmark generators, dataset I/O, and preprocessing.

Two generators are provided: a tabular benchmark whose latents follow a
Gaussian mixture with cluster-specific linear Weibull survival heads,
and a digits benchmark that attaches exponential survival times to MNIST
digit classes, with surrogate features standing in for the images.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .dist import softplus
from .errors import ConfigError, FormatError, ShapeError


@dataclass
class SurvivalDataset:
    """Rows of (features x, time t, event flag, optional true cluster)."""

    features: np.ndarray  # (N, D)
    times: np.ndarray  # (N,)
    events: np.ndarray  # (N,) in {0, 1}
    labels: np.ndarray | None = None  # (N,) cluster indices
    feature_kind: str = "real"  # "real" | "binary"
    processed: bool = False
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=float)
        self.times = np.ascontiguousarray(self.times, dtype=float)
        events = np.asarray(self.events)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=int)
        n = self.features.shape[0]
        if len(self.times) != n or len(events) != n:
            raise ShapeError("features, times, and events must have equal length")
        # Each check names its first offending row, counting from 0.
        if not (np.isfinite(self.features).all() and np.isfinite(self.times).all()):
            table = np.column_stack([self.features, self.times])
            i, j = np.argwhere(~np.isfinite(table))[0]
            column = "time" if j == self.features.shape[1] else f"feature_{j}"
            raise ConfigError(f"row {i}: {column} must be finite, got {table[i, j]}")
        for i in np.flatnonzero(self.times <= 0)[:1]:
            raise ConfigError(f"row {i}: time must be positive, got {self.times[i]}")
        for i in np.flatnonzero((events != 0) & (events != 1))[:1]:
            raise ConfigError(f"row {i}: event must be 0 or 1, got {events[i]}")
        self.events = events.astype(int)

    def __len__(self):
        return self.features.shape[0]

    def subset(self, idx):
        return SurvivalDataset(
            self.features[idx],
            self.times[idx],
            self.events[idx],
            None if self.labels is None else self.labels[idx],
            self.feature_kind,
            self.processed,
            {k: np.asarray(v)[idx] for k, v in self.diagnostics.items()
             if np.ndim(v) >= 1 and np.shape(v)[0] == len(self)},
        )


@dataclass
class SyntheticConfig:
    num_clusters: int = 3
    num_samples: int = 60000
    latent_dim: int = 16
    num_features: int = 1000
    weibull_shape: float = 1.0
    censoring_fraction: float = 0.3
    hidden_units: int = 32
    cov_mode: str = "full"  # "full" | "diag": latent covariance reading
    seed: int = 0

    def validate(self):
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


@dataclass
class SurvMnistConfig:
    num_clusters: int = 5
    censoring_fraction: float = 0.3
    mean_survival: float = 365.0
    seed: int = 0

    def validate(self):
        if not 1 <= self.num_clusters <= 10:
            raise ConfigError("num_clusters must be between 1 and 10 (ten digits)")
        if not 0.0 <= self.censoring_fraction < 1.0:
            raise ConfigError("censoring_fraction must be in [0, 1)")
        if not 0.0 < self.mean_survival < np.inf:
            raise ConfigError(f"mean_survival must be positive and finite, got {self.mean_survival}")
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
    3-layer relu map, with cluster-specific linear Weibull survival."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    K, N, J, D = (config.num_clusters, config.num_samples,
                  config.latent_dim, config.num_features)
    h = config.hidden_units

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
    u = lam * rng.weibull(config.weibull_shape, size=N)
    u = np.maximum(u, 1e-300)
    events = (rng.random(N) >= config.censoring_fraction).astype(int)
    t = u.copy()
    censored = events == 0
    t[censored] = u[censored] * rng.uniform(size=censored.sum())
    t = np.maximum(t, np.finfo(float).tiny)

    return SurvivalDataset(
        x, t, events, labels=c, feature_kind="real",
        diagnostics={"latents": z, "event_times": u, "betas": betas,
                     "scales": lam, "mixture_means": mu,
                     "mixture_chols": np.stack(chols)},
    )


def make_surrogate_digit_features(n, seed):
    """Stand-in for MNIST images: one-hot digit labels plus N(0, 0.1^2) noise."""
    if n < 1:
        raise ConfigError(f"num_samples must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    digits = rng.integers(0, 10, size=n)
    features = np.eye(10)[digits] + 0.1 * rng.standard_normal((n, 10))
    return features, digits


def gen_survmnist(config, features, digit_labels):
    """Digits benchmark: exponential survival times with digit-cluster
    specific rates; a single censoring time truncates the upper tail."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    K = config.num_clusters
    digit_labels = np.asarray(digit_labels, dtype=int)
    n = len(digit_labels)

    digits = rng.permutation(10)
    assignment = np.empty(10, dtype=int)
    assignment[digits[:K]] = np.arange(K)  # every cluster gets >= 1 digit
    assignment[digits[K:]] = rng.integers(0, K, size=10 - K)
    clusters = assignment[digit_labels]

    risk = rng.uniform(0.5, 15.0, size=K)
    rate = np.exp(risk) / config.mean_survival
    a = rng.uniform(size=n)
    a = np.where(a <= 0.0, np.finfo(float).tiny, a)
    u = -np.log(a) / rate[clusters]
    q_cens = np.quantile(u, 1.0 - config.censoring_fraction)
    t_cens = rng.uniform(u.min(), q_cens)
    events = (u <= t_cens).astype(int)
    t = np.where(events == 1, u, t_cens)

    return SurvivalDataset(
        np.asarray(features, dtype=float), t, events, labels=clusters,
        feature_kind="binary",
        diagnostics={"event_times": u, "risk_scores": risk, "rates": rate,
                     "digit_assignment": assignment, "censor_time": t_cens},
    )


# Cells per block of rows read or written: bounds the Python strings held.
_BLOCK_CELLS = 1 << 16


def _write_table(path, header, columns):
    """Write comma-separated text: the header line, then one line per row.

    columns are (N,) or (N, width) arrays in header order. Integer columns
    are written as %d, all others as %.17g, which round-trips every
    float64 exactly. Lines end in LF.
    """
    columns = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    line = ",".join("%d" if c.dtype.kind in "biu" else "%.17g"
                    for c in columns for _ in range(c.shape[1])) + "\n"
    step = max(1, _BLOCK_CELLS // len(header))
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), step):
            block = np.hstack([c[start:start + step].astype(object) for c in columns])
            f.writelines([line % tuple(row) for row in block.tolist()])


def _read_table(path, check_header):
    """Parse a table written by _write_table; CRLF line ends are accepted.

    check_header(header) raises FormatError on a header it cannot use and
    returns the names of the integer columns. Returns the header, every
    cell as an (N, width) float array, and {integer name: (N,) ints}.
    Errors name the first bad data row, counting from 0.
    """
    with open(path, errors="replace") as f:  # undecodable bytes then fail as cells
        header = f.readline().rstrip("\n").split(",")
        if header == [""]:
            raise FormatError(f"{path}: empty file, header row required")
        integers = [header.index(name) for name in check_header(header)]
        width, step, first = len(header), max(1, _BLOCK_CELLS // len(header)), 0
        floats, ints = [np.empty((0, width))], [np.empty((0, len(integers)), dtype=int)]
        while rows := [line.rstrip("\n").split(",") for line in islice(f, step)]:
            try:
                floats.append(np.array(rows, dtype=float).reshape(len(rows), width))
                ints.append(np.array([[row[j] for j in integers] for row in rows], dtype=int))
            except (ValueError, OverflowError):
                for i, row in enumerate(rows, first):
                    if len(row) != width:
                        raise FormatError(f"{path}: row {i}: expected {width} cells, "
                                          f"got {len(row)}") from None
                    try:
                        np.array(row, dtype=float), np.array([row[j] for j in integers], dtype=int)
                    except (ValueError, OverflowError) as exc:
                        raise FormatError(f"{path}: row {i}: non-numeric cell ({exc})") from None
            first += len(rows)
    ints = np.concatenate(ints)
    return header, np.concatenate(floats), {header[j]: ints[:, k] for k, j in enumerate(integers)}


def save_csv(dataset, path):
    """Columns feature_0..feature_{D-1}, time, event[, cluster]; values
    rendered with 17 significant digits so the round trip is exact."""
    labels = [] if dataset.labels is None else [dataset.labels]
    header = [f"feature_{i}" for i in range(dataset.features.shape[1])] + ["time", "event"]
    _write_table(path, header + ["cluster"] * len(labels),
                 [dataset.features, dataset.times, dataset.events, *labels])


def load_csv(path, feature_kind="real"):
    """Inverse of save_csv; errors name the first bad row."""

    def check_header(header):
        n_feat = sum(1 for h in header if h.startswith("feature_"))
        expected = [f"feature_{i}" for i in range(n_feat)] + ["time", "event"]
        if header[-1] == "cluster":
            expected.append("cluster")
        if header != expected:
            raise FormatError(f"{path}: expected columns {expected}, got {header}")
        return expected[n_feat + 2:]

    header, values, ints = _read_table(path, check_header)
    d = len(header) - 2 - len(ints)
    try:
        return SurvivalDataset(values[:, :d], values[:, d], values[:, d + 1],
                               ints.get("cluster"), feature_kind)
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from None


@dataclass
class PreprocessStats:
    """Train-split statistics used to standardize any split."""

    max_time: float
    feature_mean: np.ndarray
    feature_std: np.ndarray
    feature_kind: str = "real"


TIME_OFFSET = 1e-3
STD_FLOOR = 1e-8


def preprocess(dataset, stats=None):
    """Map times affinely onto (0.001, 1.001] (train max -> 1.001) and
    standardize real-valued features with train statistics.

    Returns (processed dataset, stats). Passing a dataset already
    processed with the same stats is a no-op; without stats it is a
    ConfigError, as its statistics are no longer the raw data's.
    """
    if dataset.processed:
        if stats is None:
            raise ConfigError("dataset already preprocessed: pass the stats it was processed with")
        return dataset, stats
    if stats is None:
        if len(dataset) == 0:
            raise ShapeError("cannot compute preprocessing statistics from zero rows")
        stats = PreprocessStats(
            max_time=float(dataset.times.max()),
            feature_mean=dataset.features.mean(axis=0),
            feature_std=np.maximum(dataset.features.std(axis=0), STD_FLOOR),
            feature_kind=dataset.feature_kind,
        )
    times = TIME_OFFSET + dataset.times / stats.max_time
    if dataset.feature_kind == "real":
        features = dataset.features - stats.feature_mean
        features /= stats.feature_std
    else:
        features = dataset.features.copy()
    out = replace(dataset, features=features, times=times, processed=True)
    return out, stats


def inverse_time_transform(times, stats):
    """Undo the preprocessing time map (predicted times back to raw units)."""
    return (np.asarray(times, dtype=float) - TIME_OFFSET) * stats.max_time


def train_test_split(dataset, test_fraction, seed):
    """Seeded shuffle split."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError("test_fraction must be in (0, 1)")
    n = len(dataset)
    n_test = int(round(n * test_fraction))
    if n_test < 1 or n_test >= n:
        raise ConfigError(f"degenerate split sizes for n={n}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    test_idx = np.sort(order[:n_test])
    train_idx = np.sort(order[n_test:])
    return dataset.subset(train_idx), dataset.subset(test_idx)
