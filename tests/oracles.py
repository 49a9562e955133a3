"""Brute-force reference implementations used to check the fast code.

Everything here is written for clarity over speed: explicit loops,
exhaustive enumeration, no shared code with the package under test.
"""

import csv
import itertools
import math

import numpy as np


def ci_brute(t, event, risk):
    """Enumerate every ordered pair; ties in risk are non-concordant."""
    n = len(t)
    concordant = admissible = 0
    for i in range(n):
        for j in range(n):
            if t[j] < t[i] and event[j] == 1:
                admissible += 1
                if risk[j] > risk[i]:
                    concordant += 1
    return None if admissible == 0 else concordant / admissible


def ci_chunked(t, event, risk, chunk=500):
    """ci_brute's pair count as NumPy compares of one chunk of rows j (the
    earlier time of a pair) against every row i, for inputs too long for
    the loop."""
    t, event, risk = (np.asarray(a, dtype=float) for a in (t, event, risk))
    concordant = admissible = 0
    for start in range(0, len(t), chunk):
        tj = t[start:start + chunk, None]
        rj = risk[start:start + chunk, None]
        pairs = (tj < t) & (event[start:start + chunk, None] == 1)
        admissible += int(np.count_nonzero(pairs))
        concordant += int(np.count_nonzero(pairs & (rj > risk)))
    return None if admissible == 0 else concordant / admissible


def rae_nc_brute(t, t_hat, event):
    terms = [abs((t_hat[i] - t[i]) / t_hat[i]) for i in range(len(t)) if event[i] == 1]
    return None if not terms else sum(terms) / len(terms)


def rae_c_brute(t, t_hat, event):
    count = sum(1 for e in event if e == 0)
    if count == 0:
        return None
    total = sum(
        abs((t_hat[i] - t[i]) / t_hat[i])
        for i in range(len(t))
        if event[i] == 0 and t_hat[i] <= t[i]
    )
    return total / count


def acc_brute(true_labels, pred_labels):
    """Try every mapping of predicted labels onto true labels."""
    true_vals = sorted(set(true_labels))
    pred_vals = sorted(set(pred_labels))
    size = max(len(true_vals), len(pred_vals))
    best = 0
    for perm in itertools.permutations(range(size)):
        matches = 0
        for tl, pl in zip(true_labels, pred_labels):
            pi = pred_vals.index(pl)
            mapped = perm[pi]
            if mapped < len(true_vals) and true_vals[mapped] == tl:
                matches += 1
        best = max(best, matches)
    return best / len(true_labels)


def nmi_brute(true_labels, pred_labels):
    n = len(true_labels)
    ua, ub = sorted(set(true_labels)), sorted(set(pred_labels))
    joint = {}
    for tl, pl in zip(true_labels, pred_labels):
        joint[(tl, pl)] = joint.get((tl, pl), 0) + 1
    pa = {v: sum(1 for x in true_labels if x == v) / n for v in ua}
    pb = {v: sum(1 for x in pred_labels if x == v) / n for v in ub}
    ha = -sum(p * math.log(p) for p in pa.values() if p > 0)
    hb = -sum(p * math.log(p) for p in pb.values() if p > 0)
    if ha == 0 or hb == 0:
        return 0.0
    mi = sum(
        (c / n) * math.log((c / n) / (pa[a] * pb[b]))
        for (a, b), c in joint.items()
    )
    return min(max(mi / math.sqrt(ha * hb), 0.0), 1.0)


def ari_brute(true_labels, pred_labels):
    """Pair-by-pair agreement, adjusted for chance."""
    n = len(true_labels)
    same_a = same_b = same_both = 0
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            pairs += 1
            a = true_labels[i] == true_labels[j]
            b = pred_labels[i] == pred_labels[j]
            same_a += a
            same_b += b
            same_both += a and b
    expected = same_a * same_b / pairs
    max_index = 0.5 * (same_a + same_b)
    if max_index == expected:
        return 1.0 if same_both == expected else 0.0
    return (same_both - expected) / (max_index - expected)


def assignment_brute(cost):
    """Exhaustive minimum over all permutations."""
    n = len(cost)
    best_perm, best_cost = None, np.inf
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i][perm[i]] for i in range(n))
        if total < best_cost:
            best_perm, best_cost = perm, total
    return np.asarray(best_perm), best_cost


def km_brute(t, event):
    """Product-limit estimate walking the sorted times one tie group at a
    time, multiplying the survival by 1 - deaths / at risk in order."""
    order = np.argsort(np.asarray(t, dtype=float), kind="stable")
    t_sorted = np.asarray(t, dtype=float)[order]
    e_sorted = np.asarray(event, dtype=int)[order]
    times, surv = [], []
    s = 1.0
    n_at_risk = len(t)
    i = 0
    while i < len(t):
        current = t_sorted[i]
        deaths = 0
        removed = 0
        while i < len(t) and t_sorted[i] == current:
            deaths += e_sorted[i]
            removed += 1
            i += 1
        if deaths > 0:
            s *= 1.0 - deaths / n_at_risk
            times.append(current)
            surv.append(s)
        n_at_risk -= removed
    return np.asarray(times), np.asarray(surv)


def save_csv_brute(dataset, path):
    """A dataset CSV as the per-cell csv.writer loop writes it: every cell
    formatted on its own, CRLF line ends."""
    d = dataset.features.shape[1]
    header = [f"feature_{i}" for i in range(d)] + ["time", "event"]
    if dataset.labels is not None:
        header.append("cluster")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for i in range(len(dataset)):
            row = [format(v, ".17g") for v in dataset.features[i]]
            row.append(format(dataset.times[i], ".17g"))
            row.append(str(int(dataset.events[i])))
            if dataset.labels is not None:
                row.append(str(int(dataset.labels[i])))
            writer.writerow(row)


def write_table_brute(path, header, columns):
    """A table as the per-row writer before table.write_rows wrote it: every
    row one Python % over a line of %d (integer columns) and %.17g (all
    others) cells, the header line first, lines ending in LF."""
    columns = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    line = ",".join("%d" if c.dtype.kind in "biu" else "%.17g"
                    for c in columns for _ in range(c.shape[1])) + "\n"
    rows = np.hstack([c.astype(object) for c in columns]) if len(columns[0]) else []
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        f.writelines([line % tuple(row) for row in rows])


def read_table_brute(path, names, integer_names):
    """table.read_table's reference: the named columns of a comma-separated
    table, every row split in full: (an (N, len(names)) float array,
    {integer name: int64 array}), or the message of the first bad row. A
    row is bad if its width is not the header's, or else at its first
    named cell, in row order, that float rejects, or else at its first
    integer cell, in integer_names order, that int rejects or int64
    cannot hold."""
    with open(path, errors="replace") as f:
        lines = [line.rstrip("\n") for line in f]
    header = lines[0].split(",")
    used = sorted(header.index(name) for name in names)
    floats, ints = [], []
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != len(header):
            return f"{path}: row {i}: expected {len(header)} cells, got {len(cells)}"
        try:
            values = {j: float(cells[j]) for j in used}
            row_ints = [int(cells[header.index(name)]) for name in integer_names]
            if any(not -2**63 <= v < 2**63 for v in row_ints):
                raise OverflowError("Python int too large to convert to C long")
        except (ValueError, OverflowError) as exc:
            return f"{path}: row {i}: non-numeric cell ({exc})"
        floats.append([values[header.index(name)] for name in names])
        ints.append(row_ints)
    return (np.array(floats, dtype=float).reshape(len(floats), len(names)),
            {name: np.array([row[k] for row in ints], dtype=np.int64)
             for k, name in enumerate(integer_names)})


def adam_brute(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update (minimization) per dict entry, each on the whole
    array with fresh temporaries. state is {"m": {}, "v": {}, "step": 0}."""
    state["step"] += 1
    t = state["step"]
    for name, p in params.items():
        g = grads[name]
        if name not in state["m"]:
            state["m"][name] = np.zeros_like(p)
            state["v"][name] = np.zeros_like(p)
        m = state["m"][name]
        v = state["v"][name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def fit_brute(data, config):
    """The training loop written out over the parameter dict: pretraining
    of encoder and decoder, mixture set from a GMM on the encoded means,
    then ELBO ascent, each step an adam_brute update of every entry.
    Returns (params, per-epoch mean objective) like model.fit."""
    from survmix.baselines import gmm_em_fit
    from survmix.model import elbo_grads, encode, init_params

    rng = np.random.default_rng(config.seed)
    X = np.asarray(data.features, dtype=float)
    t = np.asarray(data.times, dtype=float)
    event = np.asarray(data.events, dtype=float)
    n, bs, lr = X.shape[0], config.batch_size, config.learning_rate
    params = init_params(X.shape[1], config, rng)

    def batches():
        order = rng.permutation(n)
        for start in range(0, n, bs):
            idx = order[start : start + bs]
            yield idx, rng.standard_normal((len(idx), params.latent_dim))

    if config.pretrain_epochs > 0:
        net = {k: v for k, v in params.tensors.items() if k.startswith(("enc.", "dec."))}
        state = {"m": {}, "v": {}, "step": 0}
        for _ in range(config.pretrain_epochs):
            for idx, eps in batches():
                _, grads = elbo_grads(params, X[idx], None, None, eps, config,
                                      {k: np.zeros_like(v) for k, v in net.items()})
                adam_brute(net, {k: -g for k, g in grads.items()}, state, lr)
        mu, _ = encode(params, X)
        gmm, _ = gmm_em_fit(mu, params.num_clusters, seed=int(rng.integers(2**31)))
        params.mixture_logits[:] = np.log(np.maximum(gmm.weights, 1e-12))
        params.means[:] = gmm.means
        params.log_vars[:] = np.log(np.maximum(gmm.variances, 1e-6))

    flat = params.tensors
    state = {"m": {}, "v": {}, "step": 0}
    trace = []
    for _ in range(config.epochs):
        values = []
        for idx, eps in batches():
            terms, grads = elbo_grads(params, X[idx], t[idx], event[idx], eps, config,
                                      {k: np.zeros_like(v) for k, v in flat.items()})
            adam_brute(flat, {k: -grads[k] for k in flat}, state, lr)
            values.append(terms.total)
        trace.append(float(np.mean(values)))
    return params, trace


def softplus_where(x):
    """log(1 + exp(x)) as two branches: x + log1p(exp(-|x|)) above 0,
    log1p(exp(min(x, 0))) elsewhere."""
    x = np.asarray(x, dtype=float)
    return np.where(x > 0.0, x + np.log1p(np.exp(-np.abs(x))), np.log1p(np.exp(np.minimum(x, 0.0))))


def log_gaussian_diag_expr(z, mean, var):
    """Diagonal Gaussian log density summed over the last axis, one
    expression with a fresh temporary per operation."""
    z, mean, var = (np.asarray(a, dtype=float) for a in (z, mean, var))
    return -0.5 * np.sum(
        np.log(2.0 * np.pi * var) + (z - mean) ** 2 / var, axis=-1
    )


def softmax_rows(v):
    """Softmax over the last axis, shifted by the row max, a fresh
    temporary per operation."""
    v = np.asarray(v, dtype=float)
    vmax = np.max(v, axis=-1, keepdims=True)
    e = np.exp(v - vmax)
    return e / e.sum(axis=-1, keepdims=True)


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
