"""Command-line interface and checkpoint persistence.

Subcommands: simulate | train | predict | evaluate | km-export. Each
subparser sets ``run``, which looks its cmd_* up in this module when the
command runs, so main calls whatever cmd_* the module then holds. Run
configuration is flat ``key = value`` text whose keys, each set at most
once, are the fields of the run-config dataclasses plus test_fraction,
with those dataclasses' defaults; building the dataclass checks the
values. Checkpoints are a binary container of named float64 tensors,
format version 2; a file of any other version is rejected. The writer
writes each tensor from its own memory, copying none; the reader makes
one read bounded by the file's size (so a pipe or /dev/zero reads as
empty) and parses that buffer with one cursor. simulate's manifest is a
run config that simulates the same tables again. Every file a command
writes replaces its target only once complete (datagen._replacing), and
every failure ends in one 'error:' line, an OSError's as '<file>: <reason>'.
"""

from __future__ import annotations

import argparse
import math
import os
import struct
import sys
from dataclasses import fields

import numpy as np

from . import metrics, model
from .datagen import (
    PreprocessStats,
    SurvMnistConfig,
    SyntheticConfig,
    gen_survmnist,
    gen_synthetic,
    inverse_time_transform,
    load_csv,
    load_outcomes,
    preprocess,
    save_csv,
    split_size,
    train_test_split,
    _read_table,
    _replacing,
    _write_table,
)
from .errors import ConfigError, DomainError, FormatError, ShapeError, SurvmixError, TrainingError
from .model import ModelParams, TrainConfig

CHECKPOINT_MAGIC = b"VDSC"
CHECKPOINT_VERSION = 2

# The run-config keys and their defaults: the fields of the generator and
# training configs, a later class winning on a shared key (seed 42 and
# num_clusters 3 come from TrainConfig), plus the split's test fraction.
CONFIG_DEFAULTS = {
    f.name: ",".join(map(str, f.default)) if isinstance(f.default, tuple) else str(f.default)
    for cls in (SurvMnistConfig, SyntheticConfig, TrainConfig) for f in fields(cls)
}
CONFIG_DEFAULTS["test_fraction"] = "0.3"

# The dataset kinds simulate generates: (config class, generator). Each
# generator refuses a size whose arrays cannot fit in memory.
GENERATORS = {"synthetic": (SyntheticConfig, gen_synthetic),
              "survmnist": (SurvMnistConfig, gen_survmnist)}

# Longest string a checkpoint holds (its length is stored as a u16), so
# also the longest run-config value, which train echoes into the file.
MAX_STR_BYTES = 0xFFFF


def parse_config(path, seed=None):
    """Read ``key = value`` lines ('#' comments allowed); unknown and
    repeated keys are rejected with their line numbers, missing keys fall
    back to defaults, each with a notice on stderr. A seed given here
    replaces the file's seed, and a missing seed is then not noticed."""
    values = dict(CONFIG_DEFAULTS)
    seen = {}
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
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: configuration key {key!r} already set "
                              f"on line {seen[key]}")
        if len(value.encode("utf-8")) > MAX_STR_BYTES:
            raise ConfigError(f"{path}:{lineno}: value of {key!r} is longer than "
                              f"{MAX_STR_BYTES} bytes")
        values[key] = value
        seen[key] = lineno
    if seed is not None:
        values["seed"] = str(seed)
    for key in CONFIG_DEFAULTS:
        if key not in seen and not (key == "seed" and seed is not None):
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
        raise ConfigError(f"bad configuration value for {key!r}: {exc}") from None


def _from_config(cls, values):
    """The cls whose fields are the run-config values of the same name,
    each parsed like the field's default; building it checks the values."""
    return cls(**{f.name: _value(values, f.name, type(f.default))
                  for f in fields(cls) if f.name in values})


def train_config_from(values):
    return _from_config(TrainConfig, values)


# --- checkpoint container ------------------------------------------------


def save_checkpoint(params, stats, config_values, path):
    """Binary container: magic, version, config echo, named tensors. Each
    tensor is written from its own memory, as little-endian float64; the
    scalars are stored with shape (1,)."""
    tensors = {**params.tensors, "surv.shape": params.shape, "stats.max_time": stats.max_time,
               "stats.feature_mean": stats.feature_mean, "stats.feature_std": stats.feature_std}

    def string(s):
        data = s.encode("utf-8")
        if len(data) > MAX_STR_BYTES:
            raise FormatError(f"cannot store a string of {len(data)} bytes in a checkpoint")
        return struct.pack("<H", len(data)) + data

    with _replacing(path) as f:  # a failed save leaves path as it was
        f.write(CHECKPOINT_MAGIC + struct.pack("<2I", CHECKPOINT_VERSION, len(config_values)))
        for key in sorted(config_values):
            f.write(string(key) + string(str(config_values[key])))
        f.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype="<f8")  # a scalar: shape (1,)
            f.write(string(name) + struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
            f.write(arr)


def load_checkpoint(path):
    """Returns (ModelParams, PreprocessStats, config echo dict); the
    tensors alone define both. The file is read once, at most its size
    (so a pipe or /dev/zero reads as empty), and parsed exactly as
    written: any malformed or incomplete file, a repeated meta key or
    tensor name, or a byte after the last tensor raises FormatError."""
    with open(path, "rb") as f:
        data = memoryview(f.read(os.fstat(f.fileno()).st_size))
    at = 0

    def take(n, what):
        # n may come from a corrupt header: compared with what is left, never allocated
        nonlocal at
        if len(data) - at < n:
            raise FormatError(f"{path}: truncated {what} at byte {at}: "
                              f"expected {n} bytes, got {len(data) - at}")
        at += n
        return data[at - n : at]

    def string():
        (n,) = struct.unpack("<H", take(2, "string length"))
        try:
            return str(take(n, "string"), "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: string at byte {at - n} is not UTF-8: {exc}") from None

    magic = bytes(take(4, "magic"))
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at byte 0")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}, "
                          f"expected {CHECKPOINT_VERSION}")
    meta = {}
    for _ in range(struct.unpack("<I", take(4, "meta count"))[0]):
        start, key = at, string()
        if key in meta:
            raise FormatError(f"{path}: meta key {key!r} repeated at byte {start}")
        meta[key] = string()
    tensors = {}
    for _ in range(struct.unpack("<I", take(4, "tensor count"))[0]):
        start, name = at, string()
        if name in tensors:
            raise FormatError(f"{path}: tensor {name!r} repeated at byte {start}")
        rank = take(1, "tensor rank")[0]
        if rank > 2:  # no stored tensor has more axes
            raise FormatError(f"{path}: tensor {name!r} has rank {rank} at byte "
                              f"{at - 1}, expected at most 2")
        shape = [struct.unpack("<I", take(4, f"tensor {name!r} shape"))[0] for _ in range(rank)]
        payload = take(8 * math.prod(shape), f"tensor {name!r}")
        tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(shape)
    if at != len(data):
        raise FormatError(f"{path}: {len(data) - at} bytes after the last tensor at byte {at}")

    try:
        _check_entries(path, tensors)
        params = ModelParams(tensors, float(tensors["surv.shape"][0]))  # copies the tensors
        # copies, so that no view keeps the file's buffer alive
        stats = PreprocessStats(float(tensors["stats.max_time"][0]),
                                tensors["stats.feature_mean"].copy(),
                                tensors["stats.feature_std"].copy())
    except KeyError as exc:
        raise FormatError(f"{path}: missing checkpoint entry {exc}") from None
    except ShapeError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return params, stats, meta


def _check_entries(path, tensors):
    """FormatError unless the stats fit the encoder's D inputs, the two
    scalars have shape (1,), as written, all values are finite and the
    Weibull shape, time scale and feature scales are positive.
    ModelParams checks the model's shapes."""
    d = (np.shape(tensors["enc.W0"]) + (-1,))[0]
    expected = {"stats.feature_mean": (d,), "stats.feature_std": (d,),
                "surv.shape": (1,), "stats.max_time": (1,)}
    for name, shape in expected.items():
        if np.shape(tensors[name]) != shape:
            raise FormatError(f"{path}: tensor {name!r} has shape {np.shape(tensors[name])}, "
                              f"expected {shape}")
    for name, values in tensors.items():
        if not np.isfinite(values).all():
            raise FormatError(f"{path}: tensor {name!r} holds a non-finite value")
    for name in ("surv.shape", "stats.max_time", "stats.feature_std"):
        if not (tensors[name] > 0.0).all():
            raise FormatError(f"{path}: tensor {name!r} must be positive, "
                              f"got minimum {np.min(tensors[name])}")


# --- subcommands ---------------------------------------------------------


def cmd_simulate(kind, values, out_dir):
    config_class, generate = GENERATORS[kind]
    gen_config = _from_config(config_class, values)
    test_fraction = _value(values, "test_fraction", float)
    split_size(gen_config.num_samples, test_fraction)  # fails before the draw
    train, test = train_test_split(generate(gen_config), test_fraction, gen_config.seed)
    os.makedirs(out_dir, exist_ok=True)  # after the generator: a refused size makes nothing
    save_csv(train, os.path.join(out_dir, "train.csv"))
    save_csv(test, os.path.join(out_dir, "test.csv"))
    # a run config (kind is a comment) that simulates the same tables again
    text = f"# kind = {kind}\n" + "".join(f"{key} = {values[key]}\n" for key in sorted(values))
    with _replacing(os.path.join(out_dir, "manifest")) as f:
        f.write(text.encode())


def cmd_train(data_path, values, out_path):
    config = train_config_from(values)
    tmp = f"{out_path}.{os.getpid()}.tmp"  # _replacing's, tried before the fit
    try:
        open(tmp, "wb").close()
        os.remove(tmp)
    except OSError as exc:
        raise OSError(f"{out_path}: cannot write: {exc.strerror}") from None
    if os.path.isdir(out_path):
        raise OSError(f"{out_path}: cannot write: Is a directory")
    dataset = load_csv(data_path)
    model.check_features(dataset.features, config)  # raw: preprocess may map them into range
    dataset, stats = preprocess(dataset)
    params, trace = model.fit(dataset, config)
    save_checkpoint(params, stats, values, out_path)
    _write_table(out_path + ".trace.csv", ["epoch", "elbo"],
                 [np.arange(len(trace)), np.asarray(trace, dtype=float)])


def cmd_predict(checkpoint_path, data_path, out_path):
    params, stats, _ = load_checkpoint(checkpoint_path)
    dataset = load_csv(data_path)
    # Times and events are deliberately not passed: held-out prediction
    # must not peek at the outcome columns. Overflow warnings are silenced;
    # a non-finite posterior or a time that is not finite and positive (a
    # median that rounds to TIME_OFFSET) is rejected, naming its row.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            pred = model.predict(params, preprocess(dataset, stats)[0].features)
        except (TrainingError, DomainError) as exc:
            raise DomainError(f"{checkpoint_path}: {exc}") from None
        t_hat = inverse_time_transform(pred.median_time, stats)
        ok = np.isfinite(pred.posterior).all(axis=1) & np.isfinite(t_hat) & (t_hat > 0)
    bad = np.flatnonzero(~ok)
    if len(bad):
        raise DomainError(f"{checkpoint_path}: row {bad[0]}: non-finite cluster posterior "
                          f"or pred_time {t_hat[bad[0]]}")
    header = (["row_id", "cluster"] + [f"p_{c}" for c in range(pred.posterior.shape[1])]
              + ["pred_time"] + [f"latent_{d}" for d in range(pred.latent.shape[1])])
    _write_table(out_path, header,
                 [np.arange(len(dataset)), pred.labels, pred.posterior, t_hat, pred.latent])


def _load_predictions(predictions_path, data_path):
    """(dataset, predicted clusters, predicted times) for a predict output
    whose row ids are exactly 0..N-1 of the dataset. Only the columns
    evaluate and km-export use are parsed: row_id, cluster and pred_time
    of the predictions, and time, event and cluster of the data file,
    which load_outcomes returns with zero feature columns."""

    def check_header(header):
        for required in ("row_id", "cluster", "pred_time"):
            if required not in header:
                raise FormatError(f"{predictions_path}: missing column {required!r}")
        return ["row_id", "cluster", "pred_time"], ["row_id", "cluster"]

    values, ints = _read_table(predictions_path, check_header)
    dataset = load_outcomes(data_path)
    if not np.array_equal(ints["row_id"], np.arange(len(dataset))):
        raise FormatError(
            f"{predictions_path}: row ids do not align with {data_path} "
            f"({len(values)} predictions vs {len(dataset)} rows)"
        )
    pred_time = values[:, 2]
    bad = np.flatnonzero(~(np.isfinite(pred_time) & (pred_time > 0)))
    if len(bad):
        raise FormatError(f"{predictions_path}: row {bad[0]}: pred_time must be finite "
                          f"and positive, got {pred_time[bad[0]]}")
    return dataset, ints["cluster"], pred_time


def cmd_evaluate(predictions_path, data_path, out_path):
    dataset, clusters, t_hat = _load_predictions(predictions_path, data_path)
    if len(dataset) == 0:
        raise FormatError(f"{data_path}: no rows to evaluate")
    report = metrics.evaluate_predictions(dataset.times, dataset.events, t_hat=t_hat, risk=-t_hat,
                                          true_labels=dataset.labels, pred_labels=clusters)
    with _replacing(out_path) as f:
        f.write(report.to_text().encode())


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
    p.add_argument("--kind", choices=list(GENERATORS), required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(run=lambda a: cmd_simulate(a.kind, parse_config(a.config, a.seed), a.out))

    p = sub.add_parser("train", help="train a model on a CSV dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(run=lambda a: cmd_train(a.data, parse_config(a.config, a.seed), a.out))

    p = sub.add_parser("predict", help="predict clusters and survival times")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=lambda a: cmd_predict(a.checkpoint, a.data, a.out))

    p = sub.add_parser("evaluate", help="score predictions against a dataset")
    p.add_argument("--predictions", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=lambda a: cmd_evaluate(a.predictions, a.data, a.out))

    p = sub.add_parser("km-export", help="per-cluster Kaplan-Meier curves")
    p.add_argument("--predictions", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=lambda a: cmd_km_export(a.predictions, a.data, a.out))
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.run(args)
    except (SurvmixError, OSError) as exc:
        if getattr(exc, "filename", None) is not None:  # not "[Errno 2] ...: 'nope.csv'"
            exc = f"{exc.filename}: {exc.strerror}"
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
