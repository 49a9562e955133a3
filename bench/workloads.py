"""The survmix benchmark workloads and the measurement harness.

Every workload makes its inputs from the seed, runs its main pass, then
repeats a cheaper part of it until the requested seconds have passed, and
reports the median of each timed quantity. Every timed sample is
normalised by a host-speed reference taken just before and after it (see
meter.py). Correctness checks run on every pass and feed
``checks_passed_share``. See README.md beside this file.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import time

import numpy as np

import survmix
from survmix import cli, datagen, metrics, model
from meter import Meter, Unmetered
from tracer import (
    COUNT_NAMES,
    TARGETS,
    Tracer,
    gemm_peak_gflops,
    patch_everywhere,
    unpatch,
)

REPORT_FIELDS = ("ci", "rae_nc", "rae_c", "cal", "acc", "nmi", "ari")
SETUP_REPEATS = 9
SPLIT = 0.3
CSV_BLOCK_CELLS = 50_000

# name -> (unit, better); the order is the print order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "fit_s": ("s", "lower"),
    "epoch_ms_p50": ("ms", "lower"),
    "predict_rows_per_s": ("rows/s", "higher"),
    "pipeline_s": ("s", "lower"),
    "evaluate_s": ("s", "lower"),
    "csv_write_cells_per_s": ("cells/s", "higher"),
    "csv_read_cells_per_s": ("cells/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "test_ci": ("ratio", "higher"),
    "checks_passed_share": ("ratio", "higher"),
}


def per_layer_units():
    """name -> (unit, better) for every metric of the traced pass."""
    out = {}
    for short, fns in TARGETS.items():
        for fn in fns:
            out[f"{short}.{fn}.calls"] = ("count", "lower")
            out[f"{short}.{fn}.self_s"] = ("s", "lower")
    for name in COUNT_NAMES:
        unit = "B" if name.endswith(("bytes", "bytes_computed")) else "count"
        better = "higher" if name.endswith("pairs_admissible") else "lower"
        out[name] = ("flop" if name == "nnet.gemm_flops" else unit, better)
    out["nnet.gemm_gflops"] = ("GFLOP/s", "higher")
    out["nnet.gemm_peak_gflops"] = ("GFLOP/s", "higher")
    out["nnet.gemm_peak_share"] = ("ratio", "higher")
    out["metrics.concordance_index.useful_share"] = ("ratio", "higher")
    out["trace_overhead_s"] = ("s", "lower")
    return out


class Run:
    """What one benchmark process measures and checks."""

    def __init__(self, seed, seconds, work_dir):
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.meter = Meter()
        self.samples = {}
        self.checks = {}  # name -> [attempted, failed]
        self.digests = {}
        self.quality = {}
        self.probe = None

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(float(value))

    def timed(self, kind, name, fn, *args, **kwargs):
        """Calls fn and samples its wall time, normalised by the host-speed
        reference of the given kind measured before and after the call."""
        before = self.meter.slowdown(kind)
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        seconds = wall / (0.5 * (before + self.meter.slowdown(kind)))
        self.sample(name, seconds)
        return out, seconds

    def check(self, name, ok):
        row = self.checks.setdefault(name, [0, 0])
        row[0] += 1
        row[1] += not ok

    def path(self, name):
        return os.path.join(self.work_dir, name)

    @property
    def attempted(self):
        return sum(a for a, _ in self.checks.values())

    @property
    def failed(self):
        return sum(f for _, f in self.checks.values())


class Probe:
    """Timing hooks on ``fit`` and ``pretrain_init``, active in every run.

    ``fit`` gets an epoch callback through its public ``callback``
    parameter. Epoch 0 starts when ``pretrain_init`` returns; the time
    before it (initialisation and pretraining) counts toward ``fit_s``.
    A host-speed reference runs at each of these marks, so it is not part
    of any epoch.
    """

    def __init__(self, run):
        self.run = run
        self.result = None

    def __enter__(self):
        run = self.run
        fit, pretrain_init = model.fit, model.pretrain_init
        mark = {}

        def lap():
            """Normalised seconds since the last mark; sets a new mark."""
            end = time.perf_counter()
            slowdown = run.meter.slowdown("array")
            seconds = (end - mark["time"]) / (0.5 * (mark["slowdown"] + slowdown))
            mark.update(time=time.perf_counter(), slowdown=slowdown)
            mark["total"] += seconds
            return seconds

        def probed_fit(data, config, callback=None):
            def on_epoch(epoch, value):
                run.sample("epoch_s", lap())
                if callback is not None:
                    callback(epoch, value)

            mark.update(slowdown=run.meter.slowdown("array"), total=0.0,
                        time=time.perf_counter())
            self.result = fit(data, config, callback=on_epoch)
            run.sample("fit_s", mark["total"])
            return self.result

        def probed_pretrain_init(*args, **kwargs):
            out = pretrain_init(*args, **kwargs)
            lap()
            return out

        self._undo = []
        for original, hook in ((fit, probed_fit), (pretrain_init, probed_pretrain_init)):
            self._undo += patch_everywhere(original, hook)
        return self

    def __exit__(self, *exc):
        unpatch(self._undo)
        return False


def csv_round_trip(run, dataset, path):
    """Writes and reads the generated split in blocks of about CSV_BLOCK_CELLS
    cells, so each timed call is short; every block must come back exactly."""
    cols = dataset.features.shape[1] + 2 + (dataset.labels is not None)
    rows = max(1, CSV_BLOCK_CELLS // cols)
    for start in range(0, len(dataset), rows):
        block = dataset.subset(np.arange(start, min(start + rows, len(dataset))))
        cells = len(block) * cols
        _, seconds = run.timed("python", "csv_write_s", datagen.save_csv, block, path)
        run.sample("csv_write_cells_per_s", cells / seconds)
        loaded, seconds = run.timed("python", "csv_read_s", datagen.load_csv, path)
        run.sample("csv_read_cells_per_s", cells / seconds)
        run.check("csv_round_trip_exact", all(
            same_bits(getattr(loaded, f), getattr(block, f))
            for f in ("features", "times", "events", "labels")))


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def file_sha256(path):
    with open(path, "rb") as f:
        return sha256(f.read())


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_prediction(a, b):
    return all(same_bits(getattr(a, f), getattr(b, f))
               for f in ("labels", "posterior", "latent", "median_time"))


def check_prediction(run, pred, k):
    run.check("posterior_rows_sum_to_1",
              bool(np.all(np.abs(pred.posterior.sum(axis=1) - 1.0) <= 1e-12)))
    run.check("labels_in_range", bool(np.all((pred.labels >= 0) & (pred.labels < k))))
    run.check("median_times_positive_finite",
              bool(np.all(np.isfinite(pred.median_time) & (pred.median_time > 0))))


def check_repeatable(run, name, inp, key, value):
    """The first value is kept; every later one must equal it."""
    run.check(name, inp.setdefault(key, value) == value)


def record_report(run, inp, text):
    """Checks the evaluation report has all 7 fields, and samples its CI."""
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        try:
            fields[key] = float(value)
        except ValueError:
            fields[key] = math.nan
    run.check("report_has_7_fields",
              set(fields) == set(REPORT_FIELDS)
              and all(math.isfinite(v) for v in fields.values()))
    check_repeatable(run, "report_repeatable", inp, "report", text)
    run.sample("test_ci", fields.get("ci", math.nan))
    run.quality = fields


def check_trace(run, trace):
    values = np.asarray(trace, dtype=np.float64)
    run.check("fit_trace_finite", len(values) > 0 and bool(np.all(np.isfinite(values))))
    run.digests["fit_trace_sha256"] = sha256(values.tobytes())


def checkpoint_config(config, gen):
    values = dict(cli.CONFIG_DEFAULTS)
    values.update(
        latent_dim=str(config.latent_dim), num_clusters=str(config.num_clusters),
        epochs=str(config.epochs), pretrain_epochs=str(config.pretrain_epochs),
        batch_size=str(config.batch_size), learning_rate=repr(config.learning_rate),
        seed=str(config.seed),
        enc_hidden=",".join(map(str, config.enc_hidden)),
        dec_hidden=",".join(map(str, config.dec_hidden)),
        num_samples=str(gen.num_samples), num_features=str(gen.num_features),
        test_fraction=repr(SPLIT),
    )
    return values


def largest_layer(config, input_dim):
    """(batch, fan_in, fan_out) of the layer with the most weights."""
    j = config.latent_dim
    chains = ([input_dim, *config.enc_hidden, 2 * j], [j, *config.dec_hidden, input_dim])
    k, n = max(((a, b) for c in chains for a, b in zip(c, c[1:])), key=lambda s: s[0] * s[1])
    return config.batch_size, k, n


class FitWorkload:
    """In-process generate -> fit -> predict -> evaluate on one architecture.

    The main pass fits once; the repeated stage is predict, evaluate, a CSV
    round trip of the raw test split and a checkpoint round trip.
    """

    # predict and evaluate are short, so each stage times them several times.
    repeats = 5

    def __init__(self, name, sizes):
        self.name = name
        self.sizes = sizes

    def setup(self, run, size):
        s = self.sizes[size]
        gen = survmix.SyntheticConfig(
            num_samples=s["n"], num_features=s["d"], num_clusters=3,
            latent_dim=16, seed=run.seed)
        data = datagen.gen_synthetic(gen)
        train_raw, test_raw = datagen.train_test_split(data, SPLIT, run.seed)
        train, stats = datagen.preprocess(train_raw)
        test, _ = datagen.preprocess(test_raw, stats)
        config = model.TrainConfig(
            latent_dim=16, num_clusters=3, batch_size=s["batch"], learning_rate=1e-3,
            epochs=s["epochs"], pretrain_epochs=s["pretrain"],
            enc_hidden=s["enc"], dec_hidden=s["dec"], seed=run.seed)
        return dict(gen=gen, train=train, test=test, test_raw=test_raw,
                    stats=stats, config=config)

    def main_pass(self, run, inp):
        params, trace = model.fit(inp["train"], inp["config"])
        check_trace(run, trace)
        inp["params"] = params
        self.stage(run, inp)

    def stage(self, run, inp):
        test, params, config = inp["test"], inp["params"], inp["config"]
        for _ in range(self.repeats):
            pred, seconds = run.timed("array", "predict_s", model.predict, params,
                                      test.features, test.times, test.events)
            run.sample("predict_rows_per_s", len(test) / seconds)
            check_prediction(run, pred, config.num_clusters)
            run.check("predict_repeatable",
                      same_prediction(inp.setdefault("pred", pred), pred))

        for _ in range(self.repeats):
            report, _ = run.timed(
                "array", "evaluate_s", metrics.evaluate_predictions, test.times,
                test.events, t_hat=pred.median_time, risk=-pred.median_time,
                true_labels=test.labels, pred_labels=pred.labels)
            record_report(run, inp, report.to_text())

        csv_round_trip(run, inp["test_raw"], run.path("test.csv"))

        ckpt = run.path("model.ckpt")
        cli.save_checkpoint(params, inp["stats"], checkpoint_config(config, inp["gen"]), ckpt)
        loaded, _, _ = cli.load_checkpoint(ckpt)
        run.check("checkpoint_round_trip_bitwise",
                  same_prediction(model.predict(loaded, test.features, test.times,
                                                test.events), pred))
        run.digests["checkpoint_sha256"] = file_sha256(ckpt)

    def pipeline_s(self, run):
        return sum(statistics.median(run.samples[name])
                   for name in ("fit_s", "predict_s", "evaluate_s"))

    def gemm_shape(self, inp):
        return largest_layer(inp["config"], inp["gen"].num_features)


class CliPipeline:
    """simulate -> train -> predict -> evaluate -> km-export through cli.main,
    repeated as a whole until the run's time is up."""

    name = "cli_pipeline"
    commands = ("simulate", "train", "predict", "evaluate", "km-export")
    # Times predict and evaluate run in each pipeline.
    repeats = 3
    sizes = {
        "full": dict(n=10000, d=100, epochs=2, hidden="128,128"),
        "smoke": dict(n=400, d=20, epochs=2, hidden="16,16"),
    }

    def setup(self, run, size):
        s = self.sizes[size]
        values = dict(cli.CONFIG_DEFAULTS)
        values.update(num_samples=str(s["n"]), num_features=str(s["d"]),
                      epochs=str(s["epochs"]), enc_hidden=s["hidden"],
                      dec_hidden=s["hidden"], test_fraction=repr(SPLIT))
        config_path = run.path("run.cfg")
        with open(config_path, "w") as f:
            f.writelines(f"{k} = {v}\n" for k, v in values.items())
        # The generated arrays the simulated test.csv must reproduce.
        gen = survmix.SyntheticConfig(
            num_clusters=int(values["num_clusters"]), num_samples=s["n"],
            latent_dim=int(values["latent_dim"]), num_features=s["d"],
            weibull_shape=float(values["weibull_shape"]),
            censoring_fraction=float(values["censoring_fraction"]),
            hidden_units=int(values["hidden_units"]), cov_mode=values["cov_mode"],
            seed=run.seed)
        _, test_raw = datagen.train_test_split(datagen.gen_synthetic(gen), SPLIT, run.seed)
        return dict(config_path=config_path, test_raw=test_raw,
                    config=cli.train_config_from(values))

    def main_pass(self, run, inp):
        seed = str(run.seed)
        data, ckpt = run.path("data"), run.path("model.ckpt")
        train_csv, test_csv = os.path.join(data, "train.csv"), os.path.join(data, "test.csv")
        pred_csv, report, km_csv = run.path("pred.csv"), run.path("report.txt"), run.path("km.csv")
        argv = {
            "simulate": ["--kind", "synthetic", "--config", inp["config_path"],
                         "--out", data, "--seed", seed],
            "train": ["--data", train_csv, "--config", inp["config_path"],
                      "--out", ckpt, "--seed", seed],
            "predict": ["--checkpoint", ckpt, "--data", test_csv, "--out", pred_csv],
            "evaluate": ["--predictions", pred_csv, "--data", test_csv, "--out", report],
            "km-export": ["--predictions", pred_csv, "--data", test_csv, "--out", km_csv],
        }
        for name in self.commands:
            for _ in range(self.repeats if name in ("predict", "evaluate") else 1):
                rc, seconds = run.timed("python", f"{name}_s", cli.main, [name, *argv[name]])
                run.check(f"cli_{name}_exit_0", rc == 0)
                if name == "predict":
                    run.sample("predict_rows_per_s", len(inp["test_raw"]) / seconds)
                    check_repeatable(run, "cli_outputs_repeatable", inp, pred_csv,
                                     file_sha256(pred_csv))
                if name == "evaluate":
                    with open(report) as f:
                        record_report(run, inp, f.read())

        for path in (train_csv, test_csv, ckpt, km_csv):
            check_repeatable(run, "cli_outputs_repeatable", inp, path, file_sha256(path))
        run.digests["checkpoint_sha256"] = inp[ckpt]
        if not inp.get("checked"):
            self.check_outputs(run, inp, ckpt, test_csv, pred_csv, km_csv)
            inp["checked"] = True

    def stage(self, run, inp):
        self.main_pass(run, inp)
        csv_round_trip(run, inp["test_raw"], run.path("test_copy.csv"))

    def check_outputs(self, run, inp, ckpt, test_csv, pred_csv, km_csv):
        """The simulated CSV against the generated arrays, and pred.csv and
        the checkpoint against in-process predict on the parameters fit
        returned inside the train command."""
        params, trace = run.probe.result
        check_trace(run, trace)
        test = datagen.load_csv(test_csv)
        run.check("simulate_csv_matches_generated", all(
            same_bits(getattr(test, f), getattr(inp["test_raw"], f))
            for f in ("features", "times", "events", "labels")))
        loaded, stats, _ = cli.load_checkpoint(ckpt)
        features = (test.features - stats.feature_mean) / stats.feature_std
        pred = model.predict(params, features)
        check_prediction(run, pred, inp["config"].num_clusters)
        run.check("checkpoint_round_trip_bitwise",
                  same_prediction(model.predict(loaded, features), pred))
        table = np.atleast_1d(np.genfromtxt(pred_csv, delimiter=",", names=True))
        t_hat = datagen.inverse_time_transform(pred.median_time, stats)
        run.check("predict_csv_matches_in_process",
                  same_bits(table["cluster"].astype(int), pred.labels)
                  and same_bits(table["pred_time"], t_hat))
        km = np.atleast_1d(np.genfromtxt(km_csv, delimiter=",", names=True))
        ok = True
        for c in np.unique(km["cluster"]):
            s = km["survival"][km["cluster"] == c]
            ok &= bool(np.all((s >= 0) & (s <= 1)) and np.all(np.diff(s) <= 0))
        run.check("km_export_monotone", ok)

    def pipeline_s(self, run):
        return sum(statistics.median(run.samples[f"{name}_s"]) for name in self.commands)

    def gemm_shape(self, inp):
        return largest_layer(inp["config"], inp["test_raw"].features.shape[1])


WORKLOADS = {
    w.name: w for w in (
        FitWorkload("desk_fit", {
            "full": dict(n=5000, d=100, batch=256, epochs=200, pretrain=0,
                         enc=(128, 128), dec=(128, 128)),
            "smoke": dict(n=400, d=20, batch=64, epochs=3, pretrain=0,
                          enc=(16, 16), dec=(16, 16)),
        }),
        FitWorkload("wide_fit", {
            "full": dict(n=3000, d=1000, batch=256, epochs=8, pretrain=1,
                         enc=(500, 500, 2000), dec=(2000, 500, 500)),
            "smoke": dict(n=300, d=50, batch=64, epochs=2, pretrain=1,
                          enc=(32, 32, 64), dec=(64, 32, 32)),
        }),
        CliPipeline(),
    )
}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, run, size):
    """Untraced run: the end-to-end metrics, the sample count behind each,
    and figures recorded but not gated."""
    with Probe(run) as run.probe:
        for _ in range(SETUP_REPEATS):
            inp, _ = run.timed("array", "setup_s", workload.setup, run, size)
        start = time.perf_counter()
        workload.main_pass(run, inp)
        workload.stage(run, inp)
        while time.perf_counter() - start < run.seconds:
            workload.stage(run, inp)
    s = run.samples
    epoch_ms = 1000.0 * np.asarray(s["epoch_s"])
    run.check("epoch_times_positive", bool(np.all(epoch_ms > 0)))
    values = {name: statistics.median(s[name]) for name in END_TO_END if name in s}
    values.update({
        "epoch_ms_p50": float(np.percentile(epoch_ms, 50)),
        "pipeline_s": workload.pipeline_s(run),
        "peak_rss_mb": peak_rss_mb(),
        "checks_passed_share": (run.attempted - run.failed) / run.attempted,
    })
    counts = {name: len(v) for name, v in s.items()}
    info = {"epoch_ms_p90": float(np.percentile(epoch_ms, 90)), "report": run.quality}
    return {name: values[name] for name in END_TO_END}, counts, info


def measure_traced(workload, run, size):
    """Traced run: per-layer metrics, plus the traced-minus-untraced time
    of one set-up and main pass."""
    run.meter = Unmetered()
    with Probe(run) as run.probe:
        start = time.perf_counter()
        inp = workload.setup(run, size)
        workload.main_pass(run, inp)
        plain_s = time.perf_counter() - start
        plain_digests = dict(run.digests)

        start = time.perf_counter()
        with Tracer() as tracer:
            inp = workload.setup(run, size)
            workload.main_pass(run, inp)
        traced_s = time.perf_counter() - start
    run.check("tracing_leaves_results_unchanged", run.digests == plain_digests)
    errors = tracer.nesting_errors()
    run.check("spans_nest", not errors)

    values = {}
    rows = tracer.per_function()
    for name, (calls, _, self_s) in rows.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    values.update({name: tracer.counts.get(name, 0) for name in COUNT_NAMES})
    gemm_s = rows["nnet.net_forward"][1] + rows["nnet.net_backward"][1]
    gflops = values["nnet.gemm_flops"] / gemm_s / 1e9 if gemm_s else 0.0
    shape = workload.gemm_shape(inp)
    peak = gemm_peak_gflops(*shape)
    values["nnet.gemm_gflops"] = gflops
    values["nnet.gemm_peak_gflops"] = peak
    values["nnet.gemm_peak_share"] = gflops / peak
    examined = values["metrics.concordance_index.pairs_examined"]
    values["metrics.concordance_index.useful_share"] = (
        values["metrics.concordance_index.pairs_admissible"] / examined if examined else 0.0)
    values["trace_overhead_s"] = traced_s - plain_s
    counts = {"spans": len(tracer.spans)}
    info = {"tracer_cost_s": tracer.cost_s, "gemm_shape": list(shape),
            "span_errors": errors[:5]}
    return {name: values[name] for name in per_layer_units()}, counts, info
