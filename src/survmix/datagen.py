"""Benchmark generators, dataset I/O, and preprocessing.

Two generators are provided, each sized and seeded by its config alone:
a tabular benchmark whose latents follow a Gaussian mixture with
cluster-specific linear Weibull survival heads, and a digits benchmark
that attaches exponential survival times to MNIST digit classes, with
surrogate features in [0, 1] standing in for the images. Each refuses a
size that cannot fit in memory through check_memory, the model's gate too.
preprocess alone decides the feature map, from the train split's values.

Datasets are saved as CSV tables. One writer writes every table: it
converts blocks of cells in arrays, rounding exactly, to the bytes that
Python's %.17g and %d give one cell at a time, and leaves Python's % only
the cells outside the fixed-notation range of %.17g (nan, inf, and
magnitudes below 1e-4 or from 1e17). Every file the CLI writes replaces
its target through _replacing, only once complete. One loop reads every
table, checking every row's width and converting only its caller's cells,
with NumPy's C reader (np.loadtxt), so every read accepts one number
syntax: load_csv hands it the raw lines, load_outcomes splits each row
only as far as time, event and cluster reach and hands it those cells.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import islice
from operator import itemgetter

import numpy as np

from .dist import softplus
from .errors import ConfigError, FormatError, ShapeError


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


# Cells per block of rows read: bounds the Python strings a read holds. A
# write formats blocks of an eighth as many cells (8192), since each cell
# takes about 250 bytes of arrays while its text is made.
_BLOCK_CELLS = 1 << 16


@contextlib.contextmanager
def _replacing(path):
    """A binary file, the temporary <path>.<pid>.tmp beside path, renamed
    over path once the block completes and removed if it raises, so a failed
    write leaves path as it was. Any OSError, the rename's too, is raised as
    '<path>: cannot write: <reason>', naming path, not the temporary."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise OSError(f"{path}: cannot write: {exc.strerror or exc}") from None
        raise


def _write_table(path, header, columns):
    """Write comma-separated text: the header line, then one line per row.

    columns are (N,) or (N, width) arrays in header order. Integer columns
    are written as %d, all others as %.17g, which round-trips every
    float64 exactly; _format_rows makes exactly those bytes. Lines end in
    LF. The table replaces path only once complete (see _replacing).
    """
    columns = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    integer = np.concatenate([np.full(c.shape[1], c.dtype.kind in "biu") for c in columns])
    step = max(1, (_BLOCK_CELLS >> 3) // len(integer))
    with _replacing(path) as f:
        f.write((",".join(header) + "\n").encode())
        for start in range(0, len(columns[0]), step):
            f.write(_format_rows([c[start:start + step] for c in columns], integer))


# The cell formatter. A cell x in the fixed-notation range of %.17g
# (0, or 1e-4 <= |x| < 1e17 where log10 puts it there) is written from its
# 17 correctly rounded digits D = round-half-even(|x| * 10^(16 - E)),
# E = floor(log10 |x|): 10^(16 - E) is an exact double there, and Dekker's
# product gives the product exactly as hi + lo, two doubles, with no FMA
# or extended type, so the bytes do not depend on the platform.
# A line of at most 24 bytes is then put together in three little-endian
# words from 4-digit lookups and tables of masks and shifts indexed by
# (sign, E, significant digits, last cell of the row).
_POW10 = np.array([float(10**k) for k in range(22)])  # exact doubles
_VELTKAMP = float(2**27 + 1)  # splits a double into two halves of 26 bits
_WORD = np.dtype("<u8")


def _four_digit_tables():
    """For 0 <= n < 10^4: the 4 ASCII digits of %04d as a little-endian
    word, and their trailing zeros."""
    n = np.arange(10000, dtype=np.uint16)
    digits = np.zeros((len(n), 8), np.uint8)
    for i in range(4):
        digits[:, i] = 48 + n // 10**(3 - i) % 10
    return digits.view(_WORD).ravel(), sum((n % 10**i == 0).view(np.int8) for i in (1, 2, 3, 4))


_DIGITS4, _ZEROS4 = _four_digit_tables()


def _halves(a):
    """(high, low): a = high + low, each of at most 26 significant bits."""
    c = a * _VELTKAMP
    high = c - (c - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _halves(_POW10)


def _times_pow10(a, k):
    """(hi, lo): hi + lo = a * 10**k exactly, hi the rounded product (Dekker 1971)."""
    hi = a * _POW10[k]
    ah, al = _halves(a)
    ph, pl = _POW10_HIGH[k], _POW10_LOW[k]
    lo = ah * ph
    lo -= hi
    lo += ah * pl
    lo += al * ph
    lo += al * pl
    return hi, lo


def _line_tables():
    """Per key ((sign * 21 + E + 4) * 17 + significant digits - 1) * 2 +
    last cell of the row: the cell's text words with zeros where its digits
    go, the masks of the digits before and after the point, the shifts in
    bits that move them into place, and the length in bytes, separator
    included."""
    text, before, after = bytearray(), bytearray(), bytearray()
    shift_before, shift_after, lengths = [], [], []
    for sign in (b"", b"-"):
        for e in range(-4, 17):
            for s in range(1, 18):
                if e < 0:  # 0.000ddd
                    lead, n_before, n_after = sign + b"0." + b"0" * (-e - 1), 0, s
                elif s > e + 1:  # ddd.ddd
                    lead, n_before, n_after = sign + b"\0" * (e + 1) + b".", e + 1, s - e - 1
                else:  # ddd
                    lead, n_before, n_after = sign + b"\0" * (e + 1), e + 1, 0
                for sep in b",\n":
                    line = lead + b"\0" * n_after + bytes([sep])
                    text += line.ljust(24, b"\0")
                    before += (b"\xff" * n_before).ljust(24, b"\0")
                    after += (b"\0" * n_before + b"\xff" * n_after).ljust(24, b"\0")
                    shift_before.append(8 * len(sign))
                    shift_after.append(8 * (len(lead) - n_before))
                    lengths.append(len(line))
    words = [np.frombuffer(t, _WORD).reshape(-1, 3).T.copy() for t in (text, before, after)]
    return *words, np.array(shift_before, _WORD), np.array(shift_after, _WORD), np.array(lengths)


_TEXT, _BEFORE, _AFTER, _SHIFT_BEFORE, _SHIFT_AFTER, _LENGTH = _line_tables()


def _shift_up(words, bits, n):
    """n little-endian words per column: the columns of words moved up by bits (< 64)."""
    out = np.zeros((n, words.shape[1]), _WORD)
    np.left_shift(words, bits, out=out[:len(words)])
    out[1:len(words) + 1] |= words[:n - 1] >> (64 - bits)
    return out


def _decimal(x):
    """(E, D, ok) of float64 cells x: ok where x is 0 or 1e-4 <= |x| < 1e17,
    and there ±D * 10^(E - 16), 10^16 <= D < 10^17 (D = 0 for 0), is x
    rounded half to even to 17 significant digits. E is floor(log10 |x|),
    corrected where the exact product falls outside [10^16, 10^17)."""
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    ok = (e >= -4) & (e <= 16)
    zero = a == 0
    e[~ok], a[~ok] = 0, 1.0
    e = e.astype(np.intp)
    hi, lo = _times_pow10(a, 16 - e)
    near = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))  # hi ± ulp(hi)/2 may be outside
    if near.size:
        h, l = hi[near], lo[near]
        step = ((h > 1e17) | (h == 1e17) & (l >= 0)).astype(np.intp)
        step -= (h < 1e16) | (h == 1e16) & (l < 0)
        fix = near[step != 0]
        e[fix] += step[step != 0]
        beyond = (e[fix] < -4) | (e[fix] > 16)
        ok[fix[beyond]], e[fix[beyond]] = False, 0
        fix = fix[~beyond]
        hi[fix], lo[fix] = _times_pow10(a[fix], 16 - e[fix])
    # hi is an even integer here, so rounding lo half to even rounds hi + lo
    # so. No product rounds up to 10^17: the double below 10^(E + 1) gives
    # at most 10^17 - 8.
    D = hi.astype(np.int64)
    D += np.rint(lo).astype(np.int64)
    D[zero] = 0
    ok |= zero
    return e, D, ok


def _digits(D):
    """The 17 digits of each D < 10^17 as ASCII bytes in three
    little-endian words, and the count of them left when trailing zeros go
    (1 for D = 0)."""
    high = D // 10**8
    low = D - high * 10**8
    first = high // 10**8
    high -= first * 10**8
    g0, g2 = high // 10**4, low // 10**4
    groups = g0, high - g0 * 10**4, g2, low - g2 * 10**4
    zeros = _ZEROS4[g0]
    for g in groups[1:]:
        zeros = _ZEROS4[g] + (g == 0) * zeros
    g0, g1, g2, g3 = (_DIGITS4[g] for g in groups)
    words = np.empty((3, len(D)), _WORD)
    np.add(first, 48, out=words[0], casting="unsafe")
    words[0] |= g0 << 8 | g1 << 40
    words[1] = g1 >> 24 | g2 << 8 | g3 << 40
    words[2] = g3 >> 24
    return words, 17 - zeros


def _end_to_end(words, length):
    """The cells' bytes, the first length of each column of words, end to
    end: each cell's words moved to its byte offset and added into the
    block's words, where no two cells overlap."""
    end = np.cumsum(length)
    start = end - length
    placed = _shift_up(words, (start & 7).astype(_WORD) << 3, len(words) + 1)
    start >>= 3
    out = np.zeros(end[-1] // 8 + len(placed), _WORD)
    for k, row in enumerate(placed):
        np.add.at(out, start + k, row)
    return out.view(np.uint8)[:end[-1]]


def _format_rows(columns, integer):
    """The text of a block of rows, as a uint8 array: columns are (rows,
    width_i) arrays, integer flags each of their columns as %d, the others
    are %.17g. Integers below 2^53 in magnitude are exact as float64 and
    written as it; other cells outside _decimal's range go through Python's
    own %."""
    values = np.hstack(columns, dtype=float)
    rows, width = values.shape
    x = values.ravel()
    e, D, ok = _decimal(x)
    is_int = np.tile(integer, rows)
    ok[is_int] &= np.abs(x[is_int]) < 2.0**53
    digits, significant = _digits(D)
    key = ((np.signbit(x) * 21 + e + 4) * 17 + significant - 1) * 2
    key[width - 1::width] += 1
    del values, x, e, D, significant  # the block's peak memory is in what follows

    line = _shift_up(digits & np.take(_BEFORE, key, axis=1), _SHIFT_BEFORE[key], 3)
    digits &= np.take(_AFTER, key, axis=1)
    line |= _shift_up(digits, _SHIFT_AFTER[key], 3)
    line |= np.take(_TEXT, key, axis=1)
    length = _LENGTH[key]
    special = np.flatnonzero(~ok)
    if not special.size:
        return _end_to_end(line, length)

    cells = [(c, j) for c in columns for j in range(c.shape[1])]
    texts = []
    for i, j in zip(*np.divmod(special, width)):
        column, k = cells[j]
        texts.append(("%d" if integer[j] else "%.17g") % column[i, k]
                     + ("\n" if j == width - 1 else ","))
    line[:, special] = 0
    length[special] = list(map(len, texts))
    out = _end_to_end(line, length)
    for end, text in zip(np.cumsum(length)[special].tolist(), texts):
        out[end - len(text):end] = np.frombuffer(text.encode(), np.uint8)
    return out


def _read_table(path, check_header):
    """Parse the columns a caller uses of a table written by _write_table;
    CRLF line ends are accepted.

    check_header(header) raises FormatError on a header it cannot use and
    returns (names, integer names): the columns the caller uses, and the
    integer ones among them. A header naming a column twice is rejected.
    Rows are read in blocks of about _BLOCK_CELLS cells, and NumPy's C
    reader (np.loadtxt, through _parse) converts each block: when the
    names are the whole header in order, its raw lines, whose widths the
    reader and _parse check; otherwise the named cells of each row,
    rejoined. Such a row is split only as far as the named cells reach,
    from its nearer end; the far piece is one cell or the rest of the row,
    whose commas complete the row's cell count, which is checked. Integer
    cells come from the same one cut (a full read cuts only as far as the
    integer names reach) and are converted to int as well. Returns the
    named columns as an (N, len(names)) float array and {integer name:
    (N,) ints}. Errors name the first bad data row, counting from 0.
    """
    with open(path, errors="replace") as f:  # undecodable bytes then fail as cells
        header = f.readline().rstrip("\n").split(",")
        if header == [""]:
            raise FormatError(f"{path}: empty file, header row required")
        names, integer_names = check_header(header)
        position = {name: j for j, name in enumerate(header)}
        for j, name in enumerate(header):
            if position[name] != j:
                raise FormatError(f"{path}: repeated column {name!r}")
        width, columns = len(header), [position[name] for name in names]
        integers = [position[name] for name in integer_names]
        full = columns == list(range(width))
        reach = integers if full else columns
        lo, hi = min(reach, default=0), max(reach, default=0)
        if hi + 1 <= width - lo:  # cells 0..hi, then the rest
            cut, maxsplit, far, shift = str.split, hi + 1, -1, 0
        else:  # the rest, then cells lo..width-1
            cut, maxsplit, far, shift = str.rsplit, width - lo, 0, 1 - lo
        join_used = None if full else _joiner([j + shift for j in columns])
        join_ints = _joiner([j + shift for j in integers]) if integers else None
        step, first = max(1, _BLOCK_CELLS // width), 0
        floats, ints = [np.empty((0, len(columns)))], [np.empty((0, len(integers)), dtype=int)]
        while lines := list(islice(f, step)):
            try:
                rows = [cut(line.rstrip("\n"), ",", maxsplit) for line in lines] if reach else []
                if full:  # the C reader refuses rows of unequal widths, _parse rows all of another
                    floats.append(_parse(lines, float, width))
                elif any(len(cells) + cells[far].count(",") != width for cells in rows):
                    raise ValueError("a row of another width, found below")
                else:
                    floats.append(_parse(list(map(join_used, rows)), float, len(columns)))
                if integers:
                    ints.append(_parse(list(map(join_ints, rows)), int, len(integers)))
            except (ValueError, OverflowError):
                _raise_bad_row(path, [line.rstrip("\n").split(",") for line in lines], first,
                               width, columns, integers)
            first += len(lines)
    return np.concatenate(floats), dict(zip(integer_names, np.concatenate(ints).T))


def _joiner(at):
    """cells -> the cells at the indices at, joined by commas."""
    pick = itemgetter(*at)
    return pick if len(at) == 1 else lambda cells: ",".join(pick(cells))


def _parse(lines, kind, width):
    """(len(lines), width) array of kind: lines of width comma-separated
    numbers, parsed by NumPy's C reader; ValueError on any other line. The
    reader skips blank lines, and warns when it finds no other, so a blank
    line is refused before it runs, and the rows it returns are counted."""
    if "" in lines or "\n" in lines:
        raise ValueError("a blank row, found below")
    values = np.loadtxt(lines, dtype=kind, delimiter=",", comments=None, ndmin=2)
    if values.shape != (len(lines), width):
        raise ValueError("a row the reader skipped, found below")
    return values


def _raise_bad_row(path, rows, first, width, columns, integers):
    """FormatError for the first of rows (split cells, the first being
    row number first) that is not width cells long or holds a cell at
    columns that NumPy's C reader does not read as a float, or at
    integers as an int. The message names the first such cell, floats in
    row order before ints, as a read of every cell would, in the words of
    Python's float or int when that rejects the cell too."""
    for i, row in enumerate(rows, first):
        if len(row) != width:
            raise FormatError(f"{path}: row {i}: expected {width} cells, got {len(row)}")
        used = [(float, [row[j] for j in sorted(columns)]), (int, [row[j] for j in integers])]
        if all(_reads(cells, kind) for kind, cells in used if cells):
            continue
        kind, cell = next((kind, cell) for kind, cells in used for cell in cells
                          if not _reads([cell], kind))
        try:
            np.array([cell], dtype=kind)
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: row {i}: non-numeric cell ({exc})") from None
        raise FormatError(f"{path}: row {i}: non-numeric cell ({cell!r} is not "
                          f"{kind.__name__} text that np.loadtxt reads)")


def _reads(cells, kind):
    """Whether NumPy's C reader parses each of the cells as kind."""
    try:
        _parse([",".join(cells)], kind, len(cells))
    except (ValueError, OverflowError):
        return False
    return True


def save_csv(dataset, path):
    """Columns feature_0..feature_{D-1}, time, event[, cluster]; values
    rendered with 17 significant digits so the round trip is exact."""
    labels = [] if dataset.labels is None else [dataset.labels]
    header = [f"feature_{i}" for i in range(dataset.features.shape[1])] + ["time", "event"]
    _write_table(path, header + ["cluster"] * len(labels),
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

    values, ints = _read_table(path, check_header)
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
