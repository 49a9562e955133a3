"""Evaluation metrics for survival predictions and clusterings.

Concordance index, relative absolute errors on events and censored rows,
a quantile-quantile calibration slope, Hungarian-matched clustering
accuracy, NMI, ARI, and the Kaplan-Meier product-limit estimator.

Every score that counts pairs or cells does so with array sorts and
exact integer counts in O(N) memory: the concordance index by sorted
doubling blocks, the clustering accuracy, NMI and ARI from the nonzero
cells of one contingency table, which a report builds once for all three.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

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
        return "".join(f"{name} = {'NA' if value is None else format(value, '.17g')}\n"
                       for name, value in asdict(self).items())


# Rows per base block of the concordance count: pairs inside a block are
# counted by one broadcast compare of O(N * _CI_BLOCK) booleans.
_CI_BLOCK = 32
_CI_BEFORE = np.tri(_CI_BLOCK, k=-1, dtype=bool)  # [p, q]: q precedes p


def concordance_index(t, event, risk):
    """Fraction of admissible pairs ranked concordantly by risk.

    A pair (i, j) is admissible when t_j < t_i and the earlier time is an
    event; risk ties count as discordant (strict inequality).
    Returns None when no admissible pair exists.

    Times and risks are ranked, and the rows ordered by time descending,
    then by risk descending. In that order an event row is concordant with
    exactly the earlier rows of smaller risk rank: rows of its own time
    come earlier only when their risk is not smaller. Admissible pairs come
    from cumulative counts of the time ranks. The "smaller rank earlier"
    pairs are counted bottom-up over doubling blocks: inside each base
    block by one broadcast compare, then at each level by one sort of the
    left-hand blocks and one binary search for the event rows of the
    right-hand blocks. O(N log^2 N) time and O(N) memory; the counts are
    exact integers.
    """
    t = np.asarray(t, dtype=float)
    event = np.asarray(event, dtype=float)
    risk = np.asarray(risk, dtype=float)
    if not len(t) == len(event) == len(risk):
        raise ShapeError("t, event, and risk must have equal length")
    if not (np.isfinite(t).all() and np.isfinite(risk).all()):
        raise DomainError("concordance needs finite times and risks")
    n = len(t)
    t_rank = np.unique(t, return_inverse=True)[1]
    risks, r_rank = np.unique(risk, return_inverse=True)
    is_event = event == 1
    later = n - np.cumsum(np.bincount(t_rank))  # rows of a later time
    admissible = int(later[t_rank[is_event]].sum())
    if admissible == 0:
        return None
    stride = len(risks)
    order = np.argsort(t_rank * stride + r_rank)[::-1]
    # Pad to a power-of-two number of base blocks with never-smaller ranks
    # and no events, so every level splits into whole blocks.
    blocks = -(-n // _CI_BLOCK)
    size = _CI_BLOCK << (blocks - 1).bit_length()
    key = np.full(size, stride)
    key[:n] = r_rank[order]
    at = np.flatnonzero(is_event[order])  # event rows' places in the order
    at_key = key[at]
    base = key[:blocks * _CI_BLOCK].reshape(blocks, _CI_BLOCK)
    probe = np.full(blocks * _CI_BLOCK, -1)  # rank -1: no row counts for it
    probe[at] = at_key
    smaller = base[:, None, :] < probe.reshape(blocks, _CI_BLOCK)[:, :, None]
    smaller &= _CI_BEFORE
    concordant = int(np.count_nonzero(smaller))
    width = _CI_BLOCK
    while width < n:
        pairs = -(-n // width) // 2  # left blocks with a right-hand partner
        left = np.sort(key[:pairs * 2 * width].reshape(pairs, 2, width)[:, 0], axis=1)
        left += np.arange(0, pairs * stride, stride)[:, None]
        # Widths are powers of two: bit "width" of a place marks a
        # right-hand block, and the bits above it number the pair.
        right = (at & width) != 0
        pair = at[right] >> width.bit_length()
        below = np.searchsorted(left.ravel(), pair * stride + at_key[right])
        concordant += int(below.sum() - width * pair.sum())
        width *= 2
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


def _assign_rows(cost_row, n, m):
    """Minimum-cost matching of each of n rows to its own of m >= n
    columns, cost_row(i) giving row i's m costs (a dense cost array passes
    cost.__getitem__); returns cols with cols[i] the column of row i.

    The Hungarian method in its shortest augmenting path form, with row
    and column potentials (Jonker-Volgenant): rows join one at a time, each
    by a Dijkstra search over the reduced costs to the nearest free column,
    and the matching is flipped along that path. n searches of at most n
    steps, one cost row each: O(n^2 m) time, O(m) memory beyond the cells.
    """
    u = np.zeros(n)
    v = np.zeros(m)
    row_of = np.full(m, -1)
    col_of = np.full(n, -1)
    for start in range(n):
        dist = np.full(m, np.inf)
        prev = np.empty(m, dtype=int)
        reached = np.zeros(m, dtype=bool)  # matched columns passed so far
        row, low = start, 0.0
        while True:
            reduced = cost_row(row) - (u[row] - low) - v
            closer = (reduced < dist) & ~reached
            dist[closer] = reduced[closer]
            prev[closer] = row
            col = int(np.argmin(np.where(reached, np.inf, dist)))
            low = float(dist[col])
            if row_of[col] < 0:
                break
            reached[col] = True
            row = row_of[col]
        u[start] += low
        gain = low - dist[reached]
        u[row_of[reached]] += gain
        v[reached] -= gain
        while True:
            row = prev[col]
            row_of[col] = row
            col_of[row], col = col, col_of[row]
            if row == start:
                break
    return col_of


def _cells(a, b):
    """The nonzero cells of the contingency table, in row-major order, as
    (rows, cols, counts), and its row and column totals. One np.unique over
    the label pairs: O(N) memory for any numbers of distinct labels."""
    a = np.asarray(a)
    b = np.asarray(b)
    if len(a) != len(b):
        raise ShapeError("label arrays must have equal length")
    if len(a) == 0:
        raise ShapeError("empty label arrays")
    ua, ai = np.unique(a, return_inverse=True)
    ub, bi = np.unique(b, return_inverse=True)
    ai, bi, nv = ai.ravel(), bi.ravel(), len(ub)
    codes, counts = np.unique(ai * nv + bi, return_counts=True)
    return (codes // nv, codes % nv, counts,
            np.bincount(ai, minlength=len(ua)), np.bincount(bi, minlength=nv))


def clustering_accuracy(true_labels, pred_labels):
    """Matched fraction under the optimal one-to-one label matching, found over
    the nonzero cells, the fewer labels as rows: O(N) memory for any label counts."""
    return _accuracy(*_cells(true_labels, pred_labels))


def _accuracy(rows, cols, counts, row_totals, col_totals):
    if len(row_totals) > len(col_totals):
        rows, cols, row_totals, col_totals = cols, rows, col_totals, row_totals
    order = np.argsort(rows, kind="stable")
    rows, cols, counts = rows[order], cols[order], counts[order]
    n, m = len(row_totals), len(col_totals)
    at = np.searchsorted(rows, np.arange(n + 1))  # row i's cells: at[i]:at[i + 1]
    match = _assign_rows(
        lambda i: np.bincount(cols[at[i]:at[i + 1]], -counts[at[i]:at[i + 1]], minlength=m), n, m)
    return float(counts[match[rows] == cols].sum() / counts.sum())


def nmi(true_labels, pred_labels):
    """Mutual information normalized by the geometric mean of entropies
    (natural logs); 0 when either labeling is constant."""
    return _nmi(*_cells(true_labels, pred_labels))


def _nmi(rows, cols, counts, row_totals, col_totals):
    n = counts.sum()
    pa = row_totals / n
    pb = col_totals / n
    ha = -np.sum(pa * np.log(pa))
    hb = -np.sum(pb * np.log(pb))
    if ha == 0.0 or hb == 0.0:
        return 0.0
    pj = counts / n
    mi = np.sum(pj * np.log(pj / (pa[rows] * pb[cols])))
    return float(np.clip(mi / np.sqrt(ha * hb), 0.0, 1.0))


def ari(true_labels, pred_labels):
    """Pair-counting Rand index adjusted for chance."""
    return _ari(*_cells(true_labels, pred_labels))


def _ari(rows, cols, counts, row_totals, col_totals):
    n = counts.sum()
    if n < 2:
        raise ShapeError("need at least 2 points")

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(counts).sum()
    sum_a = comb2(row_totals).sum()
    sum_b = comb2(col_totals).sum()
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
    """A MetricsReport from the inputs given; ACC, NMI and ARI share one contingency table."""
    report = MetricsReport()
    if risk is not None:
        report.ci = concordance_index(t, event, risk)
    if t_hat is not None:
        report.rae_nc = rae_nc(t, t_hat, event)
        report.rae_c = rae_c(t, t_hat, event)
        report.cal = calibration_slope(t, t_hat, event)
    if true_labels is not None and pred_labels is not None:
        cells = _cells(true_labels, pred_labels)
        report.acc, report.nmi, report.ari = _accuracy(*cells), _nmi(*cells), _ari(*cells)
    return report
