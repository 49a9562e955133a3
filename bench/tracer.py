"""Spans and work counts around survmix's public functions, from outside.

The program has no instrumentation of its own, so the traced pass wraps
the public functions listed in ``TARGETS`` at run time. A function is
often bound under several names (``survmix.model.net_forward`` is the
same object as ``survmix.nnet.net_forward``), so every module namespace
in the package that binds the original object is patched, and calls made
through any of those names are seen. Nothing under ``src/`` is edited.

Each call records a span (name, start, end, parent) in memory. A span's
self time is its duration minus the durations of the spans it directly
caused. Work counts are derived from argument and result shapes after
the call returns; the time spent computing them is excluded from the
parent's self time and reported as tracer cost.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

# --- work counters ---------------------------------------------------------
# Each receives (counts, span name, bound arguments, result). Byte counts are
# computed from array sizes at 8 bytes per float64 element; they ignore
# temporaries and cache behaviour, so they are labelled "computed".


def _net_forward(counts, name, a, result):
    n = np.shape(a["X"])[0]
    counts["nnet.gemm_flops"] += sum(2 * n * w.size for w in a["net"].weights)


def _net_backward(counts, name, a, result):
    # Per layer: the weight gradient posts.T @ delta and the propagated
    # delta @ W.T, each 2 * n * fan_in * fan_out.
    n = np.shape(a["upstream"])[0]
    counts["nnet.gemm_flops"] += sum(4 * n * w.size for w in a["net"].weights)


def _adam_step(counts, name, a, result):
    # Reads p, g, m, v and writes p, m, v for every parameter element.
    size = sum(np.size(p) for p in a["params"].values())
    counts["nnet.adam_bytes_computed"] += 8 * 7 * size


def _dist(*arg_names):
    """Broadcast element count and bytes of the named array arguments."""
    def count(counts, name, a, result):
        arrays = [np.asarray(a[n]) for n in arg_names]
        elements = int(np.prod(np.broadcast_shapes(*(x.shape for x in arrays))))
        counts[f"{name}.elements"] += elements
        counts["dist.bytes_computed"] += 8 * (sum(x.size for x in arrays) + np.size(result))
    return count


def _csv_cells(dataset):
    return len(dataset) * (dataset.features.shape[1] + 2 + (dataset.labels is not None))


def _save_csv(counts, name, a, result):
    counts[f"{name}.cells"] += _csv_cells(a["dataset"])
    counts[f"{name}.bytes"] += os.path.getsize(a["path"])


def _load_csv(counts, name, a, result):
    counts[f"{name}.cells"] += _csv_cells(result)


def _concordance(counts, name, a, result):
    # pairs_examined is the n * n candidate grid the dense implementation
    # materialises; pairs_admissible counts pairs (i, j) with t_j < t_i and
    # an event at j, found by sorting rather than by forming the grid.
    t = np.asarray(a["t"], dtype=float)
    event = np.asarray(a["event"], dtype=float)
    later = len(t) - np.searchsorted(np.sort(t), t, side="right")
    counts[f"{name}.pairs_examined"] += len(t) * len(t)
    counts[f"{name}.pairs_admissible"] += int((later * event).sum())


def _file_bytes(counts, name, a, result):
    counts[f"{name}.bytes"] += os.path.getsize(a["path"])


TARGETS = {
    "nnet": {"net_forward": _net_forward, "net_backward": _net_backward,
             "adam_step": _adam_step},
    "dist": {"log_gaussian_diag": _dist("z", "mean", "var"),
             "log_weibull_censored": _dist("t", "event", "scale"),
             "softplus": _dist("x"), "softmax": _dist("v")},
    "model": {name: None for name in (
        "fit", "encode", "reparameterize", "elbo_grads", "pretrain_init",
        "predict", "cluster_posterior", "cluster_posterior_prior_only",
        "weibull_scales")},
    "baselines": {"gmm_em_fit": None, "kmeans_fit": None},
    "datagen": {"gen_synthetic": None, "train_test_split": None,
                "preprocess": None, "save_csv": _save_csv, "load_csv": _load_csv},
    "metrics": {"evaluate_predictions": None, "concordance_index": _concordance,
                "clustering_accuracy": None, "kaplan_meier": None},
    "cli": {"save_checkpoint": _file_bytes, "load_checkpoint": _file_bytes,
            **{name: None for name in ("cmd_simulate", "cmd_train", "cmd_predict",
                                       "cmd_evaluate", "cmd_km_export")}},
}

COUNT_NAMES = (
    ["nnet.gemm_flops", "nnet.adam_bytes_computed", "dist.bytes_computed"]
    + [f"dist.{fn}.elements" for fn in TARGETS["dist"]]
    + ["datagen.save_csv.cells", "datagen.save_csv.bytes", "datagen.load_csv.cells",
       "metrics.concordance_index.pairs_examined",
       "metrics.concordance_index.pairs_admissible",
       "cli.save_checkpoint.bytes", "cli.load_checkpoint.bytes"]
)


def package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "survmix" or name.startswith("survmix."))]


def patch_everywhere(original, replacement):
    """Rebind every survmix namespace entry that holds ``original``.

    Returns the (module, attribute, old value) triples needed to undo it.
    """
    undo = []
    for module in package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, value))
    return undo


def unpatch(undo):
    for module, attr, value in reversed(undo):
        setattr(module, attr, value)


class Tracer:
    """In-memory span recorder; use as a context manager around a pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, self seconds]
        self.counts = defaultdict(float)
        self.cost_s = 0.0
        self._open = []  # indices of spans in progress
        self._child_s = []  # per open span: time covered by its children
        self._undo = []

    def __enter__(self):
        for short, fns in TARGETS.items():
            module = importlib.import_module(f"survmix.{short}")
            for fn_name, counter in fns.items():
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{short}.{fn_name}", original, counter)
                self._undo += patch_everywhere(original, wrapper)
        return self

    def __exit__(self, *exc):
        unpatch(self._undo)
        self._undo = []
        return False

    def _wrap(self, name, fn, counter):
        signature = inspect.signature(fn) if counter else None
        spans, open_, child_s = self.spans, self._open, self._child_s

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = open_[-1] if open_ else -1
            spans.append(None)
            open_.append(index)
            child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                covered = child_s.pop()
                spans[index] = [name, start, end, parent, end - start - covered]
                if child_s:
                    child_s[-1] += end - start
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts, name, bound.arguments, result)
                cost = time.perf_counter() - end
                self.cost_s += cost
                if child_s:
                    child_s[-1] += cost
            return result

        return wrapper

    def per_function(self):
        """{name: (calls, total seconds, self seconds)} over every target."""
        out = {f"{short}.{fn}": [0, 0.0, 0.0] for short, fns in TARGETS.items() for fn in fns}
        for name, start, end, _, self_s in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += self_s
        return out

    def nesting_errors(self):
        """Spans that end outside their parent, or whose self time is
        negative or exceeds their duration."""
        bad = []
        for i, (name, start, end, parent, self_s) in enumerate(self.spans):
            duration = end - start
            if not -1e-9 <= self_s <= duration + 1e-9:
                bad.append(f"{name}#{i}: self {self_s} outside [0, {duration}]")
            if parent >= 0:
                _, p_start, p_end, _, _ = self.spans[parent]
                if start < p_start or end > p_end:
                    bad.append(f"{name}#{i}: not inside parent #{parent}")
        return bad


def gemm_peak_gflops(m, k, n, seconds=0.5, seed=0):
    """Best single-call float64 (m x k) @ (k x n) rate over a short loop."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    a @ b
    best = float("inf")
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - start)
        if start > deadline:
            break
    return 2.0 * m * k * n / best / 1e9
