"""Command-line interface and checkpoint persistence.

Subcommands: simulate | train | predict | evaluate | km-export. Run
configuration is flat ``key = value`` text with a strict key whitelist;
checkpoints are a small binary container of named float64 tensors.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import struct
import sys
from dataclasses import fields

import numpy as np

from . import datagen, metrics, model
from .datagen import (
    PreprocessStats,
    SurvivalDataset,
    SurvMnistConfig,
    SyntheticConfig,
    gen_survmnist,
    gen_synthetic,
    inverse_time_transform,
    load_csv,
    make_surrogate_digit_features,
    preprocess,
    save_csv,
    train_test_split,
    _read_table,
    _write_table,
)
from .errors import ConfigError, DomainError, FormatError, ShapeError, SurvmixError, TrainingError
from .model import ModelParams, TrainConfig
from .nnet import layer_activations

CHECKPOINT_MAGIC = b"VDSC"
CHECKPOINT_VERSION = 1

# Whitelisted run-config keys with defaults mirroring the reference
# tabular-benchmark recipe.
CONFIG_DEFAULTS = {
    # training
    "latent_dim": "16",
    "num_clusters": "3",
    "weibull_shape": "1.0",
    "batch_size": "256",
    "learning_rate": "1e-3",
    "epochs": "1000",
    "pretrain_epochs": "0",
    "recon_loss": "mse",
    "survival_weight": "1.0",
    "seed": "42",
    "enc_hidden": "128,128",
    "dec_hidden": "128,128",
    # data generation
    "num_samples": "60000",
    "num_features": "1000",
    "hidden_units": "32",
    "censoring_fraction": "0.3",
    "cov_mode": "full",
    "mean_survival": "365.0",
    "test_fraction": "0.3",
}

# Longest string a checkpoint holds (its length is stored as a u16), so
# also the longest run-config value, which train echoes into the file.
MAX_STR_BYTES = 0xFFFF


def parse_config(path):
    """Read ``key = value`` lines ('#' comments allowed); unknown keys are
    rejected with their line number, missing keys fall back to defaults."""
    values = dict(CONFIG_DEFAULTS)
    seen = set()
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown configuration key {key!r}")
        if len(value.encode("utf-8")) > MAX_STR_BYTES:
            raise ConfigError(f"{path}:{lineno}: value of {key!r} is longer than "
                              f"{MAX_STR_BYTES} bytes")
        values[key] = value
        seen.add(key)
    for key in CONFIG_DEFAULTS:
        if key not in seen:
            print(f"notice: {key} not set, using default {CONFIG_DEFAULTS[key]}",
                  file=sys.stderr)
    return values


def _value(values, key, kind):
    """One run-config value: kind is tuple (of ints) or a type that parses
    the text. A bad value is a ConfigError."""
    text = values[key]
    try:
        if kind is tuple:
            return tuple(int(v) for v in text.split(",") if v.strip())
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"bad configuration value: {exc}") from None


def _from_config(cls, values):
    """A validated cls whose fields are the run-config values of the same
    name, each parsed like the field's default."""
    config = cls(**{f.name: _value(values, f.name, type(f.default))
                    for f in fields(cls) if f.name in values})
    config.validate()
    return config


def train_config_from(values):
    return _from_config(TrainConfig, values)


# --- checkpoint container ------------------------------------------------


def _read_exact(f, n, path, what):
    # n may come from a corrupt header: never ask for more than the file holds
    data = f.read(min(n, os.fstat(f.fileno()).st_size - f.tell()))
    if len(data) != n:
        raise FormatError(
            f"{path}: truncated {what} at byte {f.tell() - len(data)}: "
            f"expected {n} bytes, got {len(data)}"
        )
    return data


def _write_str(f, s):
    data = s.encode("utf-8")
    if len(data) > MAX_STR_BYTES:
        raise FormatError(f"cannot store a string of {len(data)} bytes in a checkpoint")
    f.write(struct.pack("<H", len(data)))
    f.write(data)


def _read_str(f, path):
    (n,) = struct.unpack("<H", _read_exact(f, 2, path, "string length"))
    data = _read_exact(f, n, path, "string")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: string at byte {f.tell() - n} is not UTF-8: {exc}") from None


def _read_u32(f, path, what):
    return struct.unpack("<I", _read_exact(f, 4, path, what))[0]


def save_checkpoint(params, stats, config_values, path):
    """Binary container: magic, version, config echo, named tensors."""
    tensors = dict(params.tensors)
    tensors["surv.shape"] = np.asarray(params.shape)
    tensors["stats.max_time"] = np.asarray(stats.max_time)
    tensors["stats.feature_mean"] = stats.feature_mean
    tensors["stats.feature_std"] = stats.feature_std

    meta = dict(config_values)
    for prefix, net in (("enc", params.encoder), ("dec", params.decoder)):
        meta[f"arch.{prefix}_acts"] = ",".join(layer_activations(len(net.weights)))
    meta["stats.feature_kind"] = stats.feature_kind

    # written beside the target, then renamed: a failed save leaves it as it was
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", CHECKPOINT_VERSION))
            f.write(struct.pack("<I", len(meta)))
            for key in sorted(meta):
                _write_str(f, key)
                _write_str(f, str(meta[key]))
            f.write(struct.pack("<I", len(tensors)))
            for name in sorted(tensors):
                arr = np.ascontiguousarray(np.asarray(tensors[name], dtype=float))
                _write_str(f, name)
                f.write(struct.pack("<B", arr.ndim))
                for dim in arr.shape:
                    f.write(struct.pack("<I", dim))
                f.write(arr.astype("<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Returns (ModelParams, PreprocessStats, config echo dict).

    Any malformed or incomplete file raises FormatError."""
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, path, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r} at byte 0")
        version = _read_u32(f, path, "version")
        if version != CHECKPOINT_VERSION:
            raise FormatError(
                f"{path}: unsupported checkpoint version {version}, "
                f"expected {CHECKPOINT_VERSION}"
            )
        meta = {}
        for _ in range(_read_u32(f, path, "meta count")):
            key = _read_str(f, path)
            meta[key] = _read_str(f, path)
        tensors = {}
        for _ in range(_read_u32(f, path, "tensor count")):
            name = _read_str(f, path)
            (rank,) = struct.unpack("<B", _read_exact(f, 1, path, "tensor rank"))
            if rank > 2:  # no stored tensor has more axes
                raise FormatError(f"{path}: tensor {name!r} has rank {rank} at byte "
                                  f"{f.tell() - 1}, expected at most 2")
            shape = [_read_u32(f, path, f"tensor {name!r} shape") for _ in range(rank)]
            count = math.prod(shape)
            payload = _read_exact(f, 8 * count, path, f"tensor {name!r}")
            arr = np.frombuffer(payload, dtype="<f8").copy()
            tensors[name] = arr.reshape(shape) if shape else arr[0]

    try:
        _check_entries(path, tensors, meta)
        params = ModelParams(tensors, float(np.ravel(tensors["surv.shape"])[0]))
        stats = PreprocessStats(
            max_time=float(np.ravel(tensors["stats.max_time"])[0]),
            feature_mean=tensors["stats.feature_mean"],
            feature_std=tensors["stats.feature_std"],
            feature_kind=meta.get("stats.feature_kind", "real"),
        )
    except KeyError as exc:
        raise FormatError(f"{path}: missing checkpoint entry {exc}") from None
    except ShapeError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return params, stats, meta


def _check_entries(path, tensors, meta):
    """FormatError unless each net's activations are nnet's rule for its
    depth, the feature kind is real or binary, the stats fit the encoder's
    D inputs, the two scalars hold one value, all values are finite and
    the Weibull shape, time scale and feature scales are positive.
    ModelParams checks the model's shapes."""
    kind = meta.get("stats.feature_kind", "real")
    if kind not in ("real", "binary"):
        raise FormatError(f"{path}: entry 'stats.feature_kind' is {kind!r}, "
                          f"expected 'real' or 'binary'")
    d = (np.shape(tensors["enc.W0"]) + (-1,))[0]
    expected = {"stats.feature_mean": (d,), "stats.feature_std": (d,)}
    for prefix in ("enc", "dec"):
        acts = meta[f"arch.{prefix}_acts"]
        rule = ",".join(layer_activations(sum(n.startswith(f"{prefix}.W") for n in tensors)))
        if acts != rule:
            raise FormatError(f"{path}: entry 'arch.{prefix}_acts' is {acts!r}, expected {rule!r}")
    # the two scalars are stored with rank 0 or 1
    expected.update({name: np.shape(tensors[name]) if np.size(tensors[name]) == 1 else ()
                     for name in ("surv.shape", "stats.max_time")})
    for name, shape in expected.items():
        if np.shape(tensors[name]) != shape:
            raise FormatError(f"{path}: tensor {name!r} has shape {np.shape(tensors[name])}, "
                              f"expected {shape} to fit the other tensors")
    for name, values in tensors.items():
        if not np.isfinite(values).all():
            raise FormatError(f"{path}: tensor {name!r} holds a non-finite value")
    for name in ("surv.shape", "stats.max_time", "stats.feature_std"):
        if not (tensors[name] > 0.0).all():
            raise FormatError(f"{path}: tensor {name!r} must be positive, "
                              f"got minimum {np.min(tensors[name])}")


# --- subcommands ---------------------------------------------------------


def cmd_simulate(kind, config_path, out_dir, seed_override=None):
    values = parse_config(config_path)
    if seed_override is not None:
        values["seed"] = str(seed_override)
    os.makedirs(out_dir, exist_ok=True)
    if kind == "synthetic":
        gen_config = _from_config(SyntheticConfig, values)
        dataset = gen_synthetic(gen_config)
    elif kind == "survmnist":
        gen_config = _from_config(SurvMnistConfig, values)
        features, digits = make_surrogate_digit_features(_value(values, "num_samples", int),
                                                         gen_config.seed)
        dataset = gen_survmnist(gen_config, features, digits)
    else:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    train, test = train_test_split(dataset, _value(values, "test_fraction", float),
                                   gen_config.seed)
    save_csv(train, os.path.join(out_dir, "train.csv"))
    save_csv(test, os.path.join(out_dir, "test.csv"))
    with open(os.path.join(out_dir, "manifest"), "w") as f:
        f.write(f"kind = {kind}\nseed = {gen_config.seed}\n")
        for key in sorted(values):
            f.write(f"{key} = {values[key]}\n")


def cmd_train(data_path, config_path, out_path, seed_override=None):
    values = parse_config(config_path)
    if seed_override is not None:
        values["seed"] = str(seed_override)
    config = train_config_from(values)
    feature_kind = "binary" if config.recon_loss == "bce" else "real"
    dataset = load_csv(data_path, feature_kind=feature_kind)
    dataset, stats = preprocess(dataset)
    params, trace = model.fit(dataset, config)
    save_checkpoint(params, stats, values, out_path)
    _write_table(out_path + ".trace.csv", ["epoch", "elbo"],
                 [np.arange(len(trace)), np.asarray(trace, dtype=float)])


def cmd_predict(checkpoint_path, data_path, out_path):
    params, stats, meta = load_checkpoint(checkpoint_path)
    dataset = load_csv(data_path, feature_kind=stats.feature_kind)
    if dataset.features.shape[1] != params.input_dim:
        raise ShapeError(
            f"data has {dataset.features.shape[1]} features, "
            f"checkpoint expects {params.input_dim}"
        )
    # Times and events are deliberately not passed: held-out prediction
    # must not peek at the outcome columns. Overflow warnings are silenced;
    # a non-finite posterior or time is rejected, naming its row.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            pred = model.predict(params, preprocess(dataset, stats)[0].features)
        except TrainingError as exc:
            raise DomainError(f"{checkpoint_path}: {exc}") from None
        t_hat = inverse_time_transform(pred.median_time, stats)
    bad = np.flatnonzero(~(np.isfinite(pred.posterior).all(axis=1) & np.isfinite(t_hat)))
    if len(bad):
        raise DomainError(f"{checkpoint_path}: row {bad[0]}: non-finite cluster posterior "
                          f"or pred_time {t_hat[bad[0]]}")
    header = (
        ["row_id", "cluster"]
        + [f"p_{c}" for c in range(pred.posterior.shape[1])]
        + ["pred_time"]
        + [f"latent_{d}" for d in range(pred.latent.shape[1])]
    )
    _write_table(out_path, header,
                 [np.arange(len(dataset)), pred.labels, pred.posterior, t_hat, pred.latent])


def _load_predictions(predictions_path, data_path):
    """(dataset, predicted clusters, predicted times) for a predict output
    whose row ids are exactly 0..N-1 of the dataset."""

    def check_header(header):
        for required in ("row_id", "cluster", "pred_time"):
            if required not in header:
                raise FormatError(f"{predictions_path}: missing column {required!r}")
        return ["row_id", "cluster"]

    header, values, ints = _read_table(predictions_path, check_header)
    dataset = load_csv(data_path)
    if not np.array_equal(ints["row_id"], np.arange(len(dataset))):
        raise FormatError(
            f"{predictions_path}: row ids do not align with {data_path} "
            f"({len(values)} predictions vs {len(dataset)} rows)"
        )
    pred_time = values[:, header.index("pred_time")]
    bad = np.flatnonzero(~(np.isfinite(pred_time) & (pred_time > 0)))
    if len(bad):
        raise FormatError(f"{predictions_path}: row {bad[0]}: pred_time must be finite "
                          f"and positive, got {pred_time[bad[0]]}")
    return dataset, ints["cluster"], pred_time


def cmd_evaluate(predictions_path, data_path, out_path):
    dataset, clusters, t_hat = _load_predictions(predictions_path, data_path)
    report = metrics.evaluate_predictions(
        dataset.times,
        dataset.events,
        t_hat=t_hat,
        risk=-t_hat,
        true_labels=dataset.labels,
        pred_labels=clusters if dataset.labels is not None else None,
    )
    with open(out_path, "w") as f:
        f.write(report.to_text())


def cmd_km_export(predictions_path, data_path, out_path):
    dataset, clusters, _ = _load_predictions(predictions_path, data_path)
    curves = [(np.empty(0, dtype=int), np.empty(0), np.empty(0))]
    for c in np.unique(clusters):
        mask = clusters == c
        times, surv = metrics.kaplan_meier(dataset.times[mask], dataset.events[mask])
        curves.append((np.full(len(times), c), times, surv))
    _write_table(out_path, ["cluster", "time", "survival"], map(np.concatenate, zip(*curves)))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="survmix",
        description="Survival clustering: simulate, train, predict, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a benchmark dataset")
    p.add_argument("--kind", choices=["synthetic", "survmnist"], required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("train", help="train a model on a CSV dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("predict", help="predict clusters and survival times")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="score predictions against a dataset")
    p.add_argument("--predictions", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("km-export", help="per-cluster Kaplan-Meier curves")
    p.add_argument("--predictions", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            cmd_simulate(args.kind, args.config, args.out, args.seed)
        elif args.command == "train":
            cmd_train(args.data, args.config, args.out, args.seed)
        elif args.command == "predict":
            cmd_predict(args.checkpoint, args.data, args.out)
        elif args.command == "evaluate":
            cmd_evaluate(args.predictions, args.data, args.out)
        elif args.command == "km-export":
            cmd_km_export(args.predictions, args.data, args.out)
    except (SurvmixError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
