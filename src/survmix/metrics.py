"""Evaluation metrics for survival predictions and clusterings.

Concordance index, relative absolute errors on events and censored rows,
a quantile-quantile calibration slope, Hungarian-matched clustering
accuracy, NMI, ARI, and the Kaplan-Meier product-limit estimator.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DomainError, ShapeError


@dataclass
class MetricsReport:
    """One prediction set's scores; fields are None when the inputs lack
    the labels or events a metric needs."""

    ci: float | None = None
    rae_nc: float | None = None
    rae_c: float | None = None
    cal: float | None = None
    acc: float | None = None
    nmi: float | None = None
    ari: float | None = None

    def to_text(self):
        lines = []
        for name in ("ci", "rae_nc", "rae_c", "cal", "acc", "nmi", "ari"):
            value = getattr(self, name)
            lines.append(f"{name} = {'NA' if value is None else format(value, '.17g')}")
        return "\n".join(lines) + "\n"


def concordance_index(t, event, risk):
    """Fraction of admissible pairs ranked concordantly by risk.

    A pair (i, j) is admissible when t_j < t_i and the earlier time is an
    event; risk ties count as discordant (strict inequality).
    Returns None when no admissible pair exists.

    Rows are swept in decreasing time, one tied-time group at a time, with
    the risks of the rows already passed (all strictly later) in a sorted
    list: each event row is admissible with every one of them and
    concordant with those of smaller risk. O(N log N) comparisons and O(N)
    memory; the counts are exact integers.
    """
    t = np.asarray(t, dtype=float)
    event = np.asarray(event, dtype=float)
    risk = np.asarray(risk, dtype=float)
    if not len(t) == len(event) == len(risk):
        raise ShapeError("t, event, and risk must have equal length")
    if not (np.isfinite(t).all() and np.isfinite(risk).all()):
        raise DomainError("concordance needs finite times and risks")
    order = np.argsort(-t, kind="stable")
    times, events, risks = t[order].tolist(), (event[order] == 1).tolist(), risk[order].tolist()
    later = []  # sorted risks of the rows with a strictly later time
    concordant = admissible = 0
    start = 0
    while start < len(times):
        stop = start + 1
        while stop < len(times) and times[stop] == times[start]:
            stop += 1
        for i in range(start, stop):
            if events[i]:
                admissible += len(later)
                concordant += bisect_left(later, risks[i])
        for i in range(start, stop):
            insort(later, risks[i])
        start = stop
    if admissible == 0:
        return None
    return concordant / admissible


def rae_nc(t, t_hat, event):
    """Mean |t_hat - t| / t_hat over event rows; None without events."""
    t, t_hat, event = (np.asarray(a, dtype=float) for a in (t, t_hat, event))
    n_events = event.sum()
    if n_events == 0:
        return None
    return float((np.abs((t_hat - t) / t_hat) * event).sum() / n_events)


def rae_c(t, t_hat, event):
    """Like rae_nc on censored rows, but only under-predictions beyond
    the censoring time are penalized; None without censored rows."""
    t, t_hat, event = (np.asarray(a, dtype=float) for a in (t, t_hat, event))
    n_cens = (1.0 - event).sum()
    if n_cens == 0:
        return None
    penalized = np.abs((t_hat - t) / t_hat) * (1.0 - event) * (t_hat <= t)
    return float(penalized.sum() / n_cens)


def calibration_slope(t, t_hat, event):
    """Through-origin least-squares slope of sorted observed event times
    against sorted predicted times on event rows; ideal value 1."""
    t, t_hat, event = (np.asarray(a, dtype=float) for a in (t, t_hat, event))
    mask = event == 1
    if mask.sum() < 2:
        return None
    obs = np.sort(t[mask])
    pred = np.sort(t_hat[mask])
    denom = pred @ pred
    if denom == 0:
        return None
    return float(obs @ pred / denom)


def hungarian(cost):
    """Minimum-cost assignment on a square matrix.

    Returns (permutation, total cost) where permutation[i] is the column
    assigned to row i.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ShapeError(f"cost matrix must be square, got {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ShapeError("cost matrix must be finite")
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(cost.shape[0], dtype=int)
    perm[rows] = cols
    return perm, float(cost[rows, cols].sum())


def _contingency(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    if len(a) != len(b):
        raise ShapeError("label arrays must have equal length")
    if len(a) == 0:
        raise ShapeError("empty label arrays")
    ua, ai = np.unique(a, return_inverse=True)
    ub, bi = np.unique(b, return_inverse=True)
    table = np.zeros((len(ua), len(ub)), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    return table


def clustering_accuracy(true_labels, pred_labels):
    """Matched fraction under the optimal label permutation."""
    table = _contingency(true_labels, pred_labels)
    size = max(table.shape)
    padded = np.zeros((size, size), dtype=float)
    padded[: table.shape[0], : table.shape[1]] = table
    _, neg_matches = hungarian(-padded)
    return float(-neg_matches / table.sum())


def nmi(true_labels, pred_labels):
    """Mutual information normalized by the geometric mean of entropies
    (natural logs); 0 when either labeling is constant."""
    table = _contingency(true_labels, pred_labels).astype(float)
    n = table.sum()
    pa = table.sum(axis=1) / n
    pb = table.sum(axis=0) / n
    ha = -np.sum(pa * np.log(pa, where=pa > 0, out=np.zeros_like(pa)))
    hb = -np.sum(pb * np.log(pb, where=pb > 0, out=np.zeros_like(pb)))
    if ha == 0.0 or hb == 0.0:
        return 0.0
    pj = table / n
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = pj / np.outer(pa, pb)
        terms = np.where(pj > 0, pj * np.log(ratio, where=pj > 0, out=np.zeros_like(pj)), 0.0)
    mi = terms.sum()
    return float(np.clip(mi / np.sqrt(ha * hb), 0.0, 1.0))


def ari(true_labels, pred_labels):
    """Pair-counting Rand index adjusted for chance."""
    table = _contingency(true_labels, pred_labels)
    if table.sum() < 2:
        raise ShapeError("need at least 2 points")
    n = table.sum()

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb2(n)
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0 if sum_ij == expected else 0.0
    return float((sum_ij - expected) / (max_index - expected))


def kaplan_meier(t, event):
    """Product-limit survival estimate.

    Returns (event_times, survival) stepping down at each distinct event
    time; censored rows only shrink the risk set.
    """
    t = np.asarray(t, dtype=float)
    event = np.asarray(event, dtype=int)
    if len(t) == 0:
        raise ShapeError("empty input")
    times, group, size = np.unique(t, return_inverse=True, return_counts=True)
    deaths = np.bincount(group, weights=event, minlength=len(times))
    at_risk = len(t) - np.cumsum(size) + size
    steps = deaths > 0
    return times[steps], np.cumprod(1.0 - deaths[steps] / at_risk[steps])


def evaluate_predictions(t, event, t_hat=None, risk=None,
                         true_labels=None, pred_labels=None):
    """Assemble a MetricsReport from whatever inputs are available."""
    report = MetricsReport()
    if risk is not None:
        report.ci = concordance_index(t, event, risk)
    if t_hat is not None:
        report.rae_nc = rae_nc(t, t_hat, event)
        report.rae_c = rae_c(t, t_hat, event)
        report.cal = calibration_slope(t, t_hat, event)
    if true_labels is not None and pred_labels is not None:
        report.acc = clustering_accuracy(true_labels, pred_labels)
        report.nmi = nmi(true_labels, pred_labels)
        report.ari = ari(true_labels, pred_labels)
    return report
