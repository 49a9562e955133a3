import contextlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survmix import cli
from survmix.cli import (
    CHECKPOINT_MAGIC,
    CONFIG_DEFAULTS,
    _from_config,
    load_checkpoint,
    main,
    parse_config,
    save_checkpoint,
    train_config_from,
)
from survmix.datagen import (
    PreprocessStats,
    SurvivalDataset,
    SurvMnistConfig,
    SyntheticConfig,
    inverse_time_transform,
    load_csv,
    save_csv,
)
from survmix.errors import ConfigError, FormatError, ShapeError
from survmix import datagen, metrics, model
from survmix.model import ModelParams, TrainConfig, init_params


FAST_TRAIN = """
latent_dim = 3
num_clusters = 2
epochs = 3
batch_size = 64
enc_hidden = 16
dec_hidden = 16
num_samples = 150
num_features = 8
test_fraction = 0.3
seed = 5
"""


def write_config(tmp_path, text=FAST_TRAIN, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConfigParsing:
    def test_values_and_comments(self, tmp_path):
        p = write_config(tmp_path, "epochs = 7  # short run\n\n# comment only\nseed=3\n")
        values = parse_config(p)
        assert values["epochs"] == "7"
        assert values["seed"] == "3"
        assert values["latent_dim"] == "16"  # default

    def test_unknown_key_reports_line(self, tmp_path):
        # removed keys are unknown keys like any other
        for line in ("bogus_key = 1", "mc_samples = 1", "mean_survival = 365",
                     "stratify_by_time = false"):
            p = write_config(tmp_path, f"epochs = 2\n{line}\n")
            with pytest.raises(ConfigError, match=":2: unknown configuration key"):
                parse_config(p)

    def test_missing_equals_sign(self, tmp_path):
        p = write_config(tmp_path, "epochs 2\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(p)

    def test_defaults_noticed_on_stderr(self, tmp_path, capsys):
        parse_config(write_config(tmp_path, "epochs = 1\n"))
        err = capsys.readouterr().err
        assert "latent_dim" in err and "default" in err

    def test_repeated_key_names_both_lines(self, tmp_path):
        p = write_config(tmp_path, "epochs = 2\nseed = 1\nepochs = 3\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"{p}:3: configuration key 'epochs' already set on line 1")):
            parse_config(p)

    @pytest.mark.parametrize("cls", [SurvMnistConfig, SyntheticConfig, TrainConfig])
    def test_defaults_are_the_dataclass_defaults(self, cls):
        # a shared key takes the last class's default: TrainConfig's seed
        # and num_clusters
        settled = {k: v for k, v in dict(seed=42, num_clusters=3).items() if hasattr(cls, k)}
        assert _from_config(cls, CONFIG_DEFAULTS) == replace(cls(), **settled)
        assert float(CONFIG_DEFAULTS["learning_rate"]) == 1e-3

    @pytest.mark.parametrize("cls, key, bad", [
        (TrainConfig, "learning_rate", -1.0),
        (SyntheticConfig, "censoring_fraction", 1.0),
        (SurvMnistConfig, "num_clusters", 11),
    ])
    def test_configs_are_checked_when_built_and_frozen(self, cls, key, bad):
        with pytest.raises(ConfigError, match=key):
            cls(**{key: bad})
        with pytest.raises(ConfigError, match=key):
            replace(cls(), **{key: bad})
        config = cls()
        with pytest.raises(FrozenInstanceError):
            setattr(config, key, bad)

    def test_train_config_round_trip(self, tmp_path):
        values = parse_config(write_config(tmp_path))
        config = train_config_from(values)
        assert config.latent_dim == 3
        assert config.enc_hidden == (16,)
        assert config.seed == 5
        values["seed"] = "9"  # as --seed 9 does
        assert train_config_from(values).seed == 9

    def test_bad_value_type(self, tmp_path):
        values = parse_config(write_config(tmp_path, "epochs = three\n"))
        with pytest.raises(ConfigError, match="bad configuration value for 'epochs'"):
            train_config_from(values)

    def test_non_utf8_file_names_path(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_bytes(b"epochs = 3\nseed = \xff\n")
        with pytest.raises(ConfigError, match=f"{p}: not UTF-8"):
            parse_config(str(p))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_random_config_text_parses_or_is_config_error(self, tmp_path_factory, data):
        # random lines, many of them "key = value" with a known key: every
        # reader either returns or raises ConfigError, never anything else
        value = st.one_of(
            st.text(max_size=12),
            st.sampled_from(["0", "-1", "1e309", "-inf", "nan", "1,2", ",", "3.5", "1_0",
                             "full", "bce", "9" * 5000, "x" * (2**16)]),
            st.integers().map(str), st.floats().map(repr),
        )
        line = st.one_of(st.text(max_size=30), st.tuples(
            st.sampled_from(sorted(CONFIG_DEFAULTS)), st.sampled_from([" = ", "=", " =\t"]),
            value).map("".join))
        path = tmp_path_factory.getbasetemp() / "random.cfg"
        path.write_text("\n".join(data.draw(st.lists(line, max_size=8))), encoding="utf-8")
        try:
            values = parse_config(str(path))
        except ConfigError:
            return
        for build in (train_config_from, lambda v: _from_config(SyntheticConfig, v),
                      lambda v: _from_config(SurvMnistConfig, v)):
            with contextlib.suppress(ConfigError):
                build(values)


class TestDispatch:
    """main calls each subcommand's cmd_* by its name in survmix.cli, so a
    cmd_* rebound there (as the benchmark's tracer does) sees every call."""

    @pytest.mark.parametrize("command, flags, expected", [
        ("simulate", "--kind survmnist --config CFG --out o --seed 7", ("survmnist", "VALUES", "o")),
        ("train", "--data d.csv --config CFG --out m --seed 7", ("d.csv", "VALUES", "m")),
        ("predict", "--checkpoint m --data d.csv --out p", ("m", "d.csv", "p")),
        ("evaluate", "--predictions p --data d.csv --out r", ("p", "d.csv", "r")),
        ("km-export", "--predictions p --data d.csv --out k", ("p", "d.csv", "k")),
    ])
    def test_each_command_calls_its_cmd(self, tmp_path, monkeypatch, capsys, command, flags,
                                        expected):
        cfg = write_config(tmp_path)
        values = parse_config(cfg, 7)
        calls = []
        monkeypatch.setattr(cli, f"cmd_{command.replace('-', '_')}",
                            lambda *args: calls.append(args))
        argv = [command] + [cfg if flag == "CFG" else flag for flag in flags.split()]
        assert main(argv) == 0
        assert calls == [tuple(values if arg == "VALUES" else arg for arg in expected)]

    def test_memory_error_is_one_error_line(self, monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 8.0 GiB")

        monkeypatch.setattr(cli, "cmd_predict", exhausted)
        assert main(["predict", "--checkpoint", "m", "--data", "d.csv", "--out", "p"]) == 1
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 8.0 GiB\n"


class TestCheckpoint:
    def roundtrip(self, tmp_path, num_clusters=2, meta=()):
        rng = np.random.default_rng(0)
        config = TrainConfig(latent_dim=3, num_clusters=num_clusters, enc_hidden=(6,),
                             dec_hidden=(6,))
        params = init_params(5, config, rng)
        stats = PreprocessStats(
            max_time=12.5,
            feature_mean=rng.standard_normal(5),
            feature_std=rng.uniform(0.5, 2.0, 5),
        )
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(params, stats, {"epochs": "3", **dict(meta)}, path)
        return params, stats, load_checkpoint(path)

    def test_round_trip_exact(self, tmp_path):
        params, stats, (loaded, lstats, meta) = self.roundtrip(tmp_path)
        np.testing.assert_array_equal(loaded.means, params.means)
        np.testing.assert_array_equal(loaded.betas, params.betas)
        np.testing.assert_array_equal(loaded.mixture_logits, params.mixture_logits)
        for w_a, w_b in zip(loaded.encoder.weights, params.encoder.weights):
            np.testing.assert_array_equal(w_a, w_b)
        assert len(loaded.encoder.weights) == len(params.encoder.weights)
        assert loaded.shape == params.shape
        assert lstats.max_time == stats.max_time
        np.testing.assert_array_equal(lstats.feature_mean, stats.feature_mean)
        assert meta["epochs"] == "3"

    def test_round_trip_one_component(self, tmp_path):
        params, _, (loaded, _, _) = self.roundtrip(tmp_path, num_clusters=1)
        assert loaded.num_clusters == 1
        X = np.random.default_rng(1).standard_normal((7, 5))
        t, event = np.linspace(0.1, 1.0, 7), np.tile([0.0, 1.0], 4)[:7]
        for args in ((X,), (X, t, event)):
            a, b = model.predict(params, *args), model.predict(loaded, *args)
            for field in ("labels", "posterior", "latent", "median_time"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field

    def test_resave_is_byte_identical(self, pipeline, tmp_path):
        # the reader accepts exactly what the writer produces
        copy = tmp_path / "copy.ckpt"
        save_checkpoint(*load_checkpoint(pipeline["ckpt"]), str(copy))
        assert copy.read_bytes() == Path(pipeline["ckpt"]).read_bytes()

    @staticmethod
    def predict_fails_with_one_line(tmp_path, capsys, path):
        capsys.readouterr()
        code = main(["predict", "--checkpoint", str(path),
                     "--data", str(tmp_path / "unused.csv"),
                     "--out", str(tmp_path / "p.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1

    def test_version_1_file_is_rejected(self, tmp_path, capsys):
        self.roundtrip(tmp_path)
        path = tmp_path / "model.ckpt"
        data = path.read_bytes()
        path.write_bytes(data[:4] + struct.pack("<I", 1) + data[8:])
        with pytest.raises(FormatError, match="unsupported checkpoint version 1, expected 2"):
            load_checkpoint(str(path))
        self.predict_fails_with_one_line(tmp_path, capsys, path)

    def test_failed_save_keeps_old_checkpoint(self, tmp_path):
        # a save that fails part-way (a meta value too long to store)
        # leaves the file it would replace untouched, and no other file
        params, stats, _ = self.roundtrip(tmp_path)
        path = tmp_path / "model.ckpt"
        good = path.read_bytes()
        with pytest.raises(FormatError, match="cannot store a string of 70000 bytes"):
            save_checkpoint(params, stats, {"epochs": "3", "note": "x" * 70_000}, str(path))
        assert path.read_bytes() == good
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(str(p))

    def test_bad_version(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 99) + bytes(16))
        with pytest.raises(FormatError, match="version 99"):
            load_checkpoint(str(p))

    def test_truncated_tensor_reports_offset(self, tmp_path):
        params, stats, _ = self.roundtrip(tmp_path)
        path = str(tmp_path / "model.ckpt")
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[:-20])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)
        # every prefix of a valid checkpoint is a FormatError, never a
        # struct.error or KeyError
        for end in range(len(data)):
            Path(path).write_bytes(data[:end])
            with pytest.raises(FormatError):
                load_checkpoint(path)

    # Byte edits that keep the container well formed.
    CORRUPTIONS = {
        "missing_tensor": (b"mix.means", b"mix.meanX", "mix.means"),
        "non_utf8_string": (b"mix.log_vars", b"mix.log_var\xff", "UTF-8"),
        # the writer stores the two scalars with shape (1,) only
        "rank_zero_scalar": (b"surv.shape\x01" + struct.pack("<I", 1),
                             b"surv.shape\x00", r"'surv.shape' has shape \(\), expected \(1,\)"),
        # rank 65 with a zero dim: an empty payload numpy cannot reshape
        "rank_above_two": (b"mix.logits\x01" + struct.pack("<I", 2),
                           b"mix.logits\x41" + struct.pack("<I", 0),
                           "tensor 'mix.logits' has rank 65 at byte"),
        # the last tensor's rank, dim and 8-byte payload become dims
        # 65536 x 65536 and 4 payload bytes: a 32 GiB tensor that must not be read
        "absurd_dims": (b"surv.shape\x01" + struct.pack("<Id", 1, 1.0),
                        b"surv.shape\x02" + struct.pack("<3I", 65536, 65536, 1),
                        "truncated tensor 'surv.shape'"),
    }
    # Containers holding more than the writer wrote, as (edit of the file's
    # bytes, message). Magic and version take bytes 0-8, the meta count
    # 8-12, the one meta entry, epochs = 3, 12-23 and the tensor count 23-27.
    EXTRA_ENTRIES = {
        "trailing_bytes": (lambda data: data + bytes(7),
                           "7 bytes after the last tensor at byte "),
        "repeated_tensor": (lambda data: data[:23] + struct.pack("<I", data[23] + 1) + data[27:]
                            + struct.pack("<H10sBI2d", 10, b"mix.logits", 1, 2, 5.0, -5.0),
                            "tensor 'mix.logits' repeated at byte "),
        "repeated_meta_key": (lambda data: data[:8] + struct.pack("<I", 2) + data[12:23]
                              + struct.pack("<H6sH1s", 6, b"epochs", 1, b"7") + data[23:],
                              "meta key 'epochs' repeated at byte 23$"),
    }
    # Well-formed containers whose tensors do not fit together (the model
    # has D=5, J=3, K=2 and one hidden layer of 6 in each net).
    SHAPE_EDITS = {
        "short_feature_mean": r"'stats.feature_mean' has shape \(4,\), expected \(5,\)",
        "narrow_betas": r"'surv.betas' has shape \(2, 3\), expected \(2, 4\)",
        "short_encoder_W1": r"'enc.W1' has shape \(5, 6\), expected \(6, 6\)",
        "narrow_decoder_W0": r"'dec.W0' has shape \(3, 5\), expected \(3, 6\)",
    }

    # Well-formed containers with values no fitted model has: each edit
    # is (object, attribute, index or None, value, message).
    VALUE_EDITS = {
        "nan_shape": ("params", "shape", None, np.nan, "'surv.shape' holds a non-finite"),
        "nan_in_betas": ("params", "betas", (1, 2), np.nan, "'surv.betas' holds a non-finite"),
        "inf_log_vars": ("params", "log_vars", (0, 1), np.inf, "'mix.log_vars' holds a non-finite"),
        "zero_shape": ("params", "shape", None, 0.0, "'surv.shape' must be positive"),
        "negative_max_time": ("stats", "max_time", None, -5.0, "'stats.max_time' must be positive"),
        "zero_feature_std": ("stats", "feature_std", 3, 0.0, "'stats.feature_std' must be positive"),
        "negative_feature_std": ("stats", "feature_std", 0, -1.0,
                                 "'stats.feature_std' must be positive"),
    }

    @classmethod
    def edit_values(cls, params, stats, kind):
        owner, attr, index, value, message = cls.VALUE_EDITS[kind]
        target = params if owner == "params" else stats
        if index is None:
            setattr(target, attr, value)
        else:
            getattr(target, attr)[index] = value
        return message

    @staticmethod
    def edit_shape(tensors, stats, kind):
        if kind == "short_feature_mean":
            stats.feature_mean = stats.feature_mean[:-1]
        elif kind == "narrow_betas":
            tensors["surv.betas"] = tensors["surv.betas"][:, :-1]
        elif kind == "short_encoder_W1":
            tensors["enc.W1"] = tensors["enc.W1"][:-1]
        else:
            tensors["dec.W0"] = tensors["dec.W0"][:, :-1]

    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS) + sorted(EXTRA_ENTRIES)
                             + sorted(SHAPE_EDITS) + sorted(VALUE_EDITS))
    def test_corrupt_entry_is_format_error(self, tmp_path, capsys, kind):
        params, stats, _ = self.roundtrip(tmp_path)
        path = tmp_path / "model.ckpt"
        if kind in self.CORRUPTIONS:
            old, new, message = self.CORRUPTIONS[kind]
            data = path.read_bytes()
            assert old in data
            path.write_bytes(data.replace(old, new, 1))
        elif kind in self.EXTRA_ENTRIES:
            edit, message = self.EXTRA_ENTRIES[kind]
            data = path.read_bytes()
            assert data[8:23] == struct.pack("<IH6sH1s", 1, 6, b"epochs", 1, b"3")
            path.write_bytes(edit(data))
        elif kind in self.SHAPE_EDITS:
            self.edit_shape(params.tensors, stats, kind)
            save_checkpoint(params, stats, {"epochs": "3"}, str(path))
            message = self.SHAPE_EDITS[kind]
        else:
            message = self.edit_values(params, stats, kind)
            save_checkpoint(params, stats, {"epochs": "3"}, str(path))
        with pytest.raises(FormatError, match=message):
            load_checkpoint(str(path))
        self.predict_fails_with_one_line(tmp_path, capsys, path)

    @pytest.mark.parametrize("kind", sorted(set(SHAPE_EDITS) - {"short_feature_mean"}))
    def test_inconsistent_tensors_are_shape_error(self, tmp_path, kind):
        params, stats, _ = self.roundtrip(tmp_path)
        tensors = dict(params.tensors)
        self.edit_shape(tensors, stats, kind)
        with pytest.raises(ShapeError, match=self.SHAPE_EDITS[kind]):
            ModelParams(tensors, params.shape)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One simulate -> train -> predict -> evaluate -> km-export run."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = root / "run.cfg"
    cfg.write_text(FAST_TRAIN)
    paths = {
        "root": root,
        "cfg": str(cfg),
        "data": str(root / "data"),
        "ckpt": str(root / "model.ckpt"),
        "pred": str(root / "pred.csv"),
        "report": str(root / "report.txt"),
        "km": str(root / "km.csv"),
    }
    assert main(["simulate", "--kind", "synthetic", "--config", paths["cfg"],
                 "--out", paths["data"]]) == 0
    assert main(["train", "--data", os.path.join(paths["data"], "train.csv"),
                 "--config", paths["cfg"], "--out", paths["ckpt"]]) == 0
    assert main(["predict", "--checkpoint", paths["ckpt"],
                 "--data", os.path.join(paths["data"], "test.csv"),
                 "--out", paths["pred"]]) == 0
    assert main(["evaluate", "--predictions", paths["pred"],
                 "--data", os.path.join(paths["data"], "test.csv"),
                 "--out", paths["report"]]) == 0
    assert main(["km-export", "--predictions", paths["pred"],
                 "--data", os.path.join(paths["data"], "test.csv"),
                 "--out", paths["km"]]) == 0
    return paths


class TestPipeline:
    def test_simulate_outputs(self, pipeline):
        train = load_csv(os.path.join(pipeline["data"], "train.csv"))
        test = load_csv(os.path.join(pipeline["data"], "test.csv"))
        assert len(train) + len(test) == 150
        assert train.labels is not None
        manifest = Path(os.path.join(pipeline["data"], "manifest")).read_text()
        assert "kind = synthetic" in manifest
        assert "seed = 5" in manifest

    def test_train_outputs(self, pipeline):
        assert os.path.exists(pipeline["ckpt"])
        trace = Path(pipeline["ckpt"] + ".trace.csv").read_text().splitlines()
        assert trace[0] == "epoch,elbo"
        assert len(trace) == 4  # header + 3 epochs

    def test_prediction_columns(self, pipeline):
        lines = Path(pipeline["pred"]).read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["row_id", "cluster"]
        assert "p_0" in header and "p_1" in header
        assert "pred_time" in header and "latent_0" in header
        test = load_csv(os.path.join(pipeline["data"], "test.csv"))
        assert len(lines) - 1 == len(test)
        # predicted times come back in raw units (test times are raw too)
        t_hat = np.array([float(l.split(",")[header.index("pred_time")])
                          for l in lines[1:]])
        assert np.all(t_hat > 0)

    def test_evaluate_report(self, pipeline):
        report = Path(pipeline["report"]).read_text()
        for key in ("ci =", "rae_nc =", "acc =", "nmi =", "ari ="):
            assert key in report

    def test_outputs_match_full_read_in_process(self, pipeline):
        # evaluate and km-export parse only the columns they use; their
        # bytes are those of a full read of both files
        test = load_csv(os.path.join(pipeline["data"], "test.csv"))
        table = np.loadtxt(pipeline["pred"], delimiter=",", skiprows=1, ndmin=2)
        header = Path(pipeline["pred"]).read_text().split("\n", 1)[0].split(",")
        clusters = table[:, header.index("cluster")].astype(int)
        t_hat = table[:, header.index("pred_time")]
        report = metrics.evaluate_predictions(test.times, test.events, t_hat=t_hat,
                                              risk=-t_hat, true_labels=test.labels,
                                              pred_labels=clusters)
        assert Path(pipeline["report"]).read_bytes() == report.to_text().encode()
        km = ["cluster,time,survival\n"]
        for c in np.unique(clusters):
            mask = clusters == c
            km += ["%d,%.17g,%.17g\n" % (c, t, s)
                   for t, s in zip(*metrics.kaplan_meier(test.times[mask], test.events[mask]))]
        assert Path(pipeline["km"]).read_bytes() == "".join(km).encode()

    def test_unparsable_feature_cells_are_not_read(self, pipeline, tmp_path):
        # evaluate and km-export never use the features, so cells a full
        # read rejects change neither their exit status nor their output
        lines = Path(pipeline["data"], "test.csv").read_text().splitlines()
        d = sum(name.startswith("feature_") for name in lines[0].split(","))
        for i in range(1, len(lines)):
            cells = lines[i].split(",")
            cells[:d] = [("x", "nan")[(i + j) % 2] for j in range(d)]
            lines[i] = ",".join(cells)
        data = tmp_path / "test.csv"
        data.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            load_csv(data)
        for command, name in (("evaluate", "report"), ("km-export", "km")):
            out = tmp_path / name
            assert main([command, "--predictions", pipeline["pred"], "--data", str(data),
                         "--out", str(out)]) == 0
            assert out.read_bytes() == Path(pipeline[name]).read_bytes()

    def test_km_export_long_format(self, pipeline):
        lines = Path(pipeline["km"]).read_text().splitlines()
        assert lines[0] == "cluster,time,survival"
        values = [line.split(",") for line in lines[1:]]
        assert values, "expected at least one KM step"
        survs = [float(v[2]) for v in values]
        assert all(0.0 <= s <= 1.0 for s in survs)


class TestCliErrors:
    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope.csv"),
                     "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "out.ckpt")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 1\n")
        code = main(["simulate", "--kind", "synthetic", "--config", str(cfg),
                     "--out", str(tmp_path / "d")])
        assert code == 1
        assert "not_a_key" in capsys.readouterr().err

    def test_predict_feature_width_mismatch(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "narrow.csv"
        bad.write_text("feature_0,time,event\n1.0,2.0,1\n")
        code = main(["predict", "--checkpoint", pipeline["ckpt"],
                     "--data", str(bad), "--out", str(tmp_path / "p.csv")])
        assert code == 1
        assert "features" in capsys.readouterr().err

    def test_evaluate_row_mismatch(self, pipeline, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("row_id,cluster,pred_time\n0,0,1.0\n")
        code = main(["evaluate", "--predictions", str(pred),
                     "--data", os.path.join(pipeline["data"], "test.csv"),
                     "--out", str(tmp_path / "r.txt")])
        assert code == 1
        assert "align" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, text, key", [
        ("synthetic", "num_samples = abc\n", "num_samples"),
        ("survmnist", "num_samples = 2.5\n", "num_samples"),
        ("survmnist", "num_samples = 200\ntest_fraction = x\n", "test_fraction"),
    ], ids=["synthetic_int", "survmnist_int", "float"])
    def test_bad_simulate_value_exits_one(self, tmp_path, capsys, kind, text, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code = main(["simulate", "--kind", kind, "--config", str(cfg),
                     "--out", str(tmp_path / "d")])
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if not line.startswith("notice:")]
        assert code == 1
        assert len(errors) == 1
        assert errors[0].startswith(f"error: bad configuration value for {key!r}: ")

    @pytest.mark.parametrize("command, line, word", [
        ("synthetic", "weibull_shape = -1", "weibull_shape"),
        ("synthetic", "weibull_shape = nan", "weibull_shape"),
        ("survmnist", "num_samples = 0", "num_samples"),
        ("survmnist", "num_samples = -5", "num_samples"),
        # the drawn times overflow
        ("synthetic", "weibull_shape = 1e-300", "weibull_shape = 1e-300"),
        ("train", "learning_rate = -1", "learning_rate"),
        ("train", "learning_rate = nan", "learning_rate"),
        ("train", "epochs = -2", "epochs"),
        ("train", "pretrain_epochs = -1", "pretrain_epochs"),
        ("train", "survival_weight = nan", "survival_weight"),
        ("train", "survival_weight = -0.5", "survival_weight"),
        ("train", "weibull_shape = nan", "weibull_shape"),
        ("train", "enc_hidden = -3", "enc_hidden"),
        ("train", "enc_hidden = 0", "enc_hidden"),
        ("train", "dec_hidden = 16,0", "dec_hidden"),
        ("synthetic", "seed = -1", "seed"),
        ("survmnist", "seed = -1", "seed"),
        ("train", "seed = -1", "seed"),
        # the synthetic features are not intensities in [0, 1]
        ("train", "recon_loss = bce", "row 0: feature_"),
        ("synthetic", "--seed -3", "seed"),
        ("train", "--seed -3", "seed"),
        # longer than a checkpoint string holds: rejected before training
        pytest.param("train", "learning_rate = 0.001" + "0" * 70_000, "learning_rate",
                     id="train-overlong-learning_rate"),
        # sizes beyond any memory: refused from the config before generating
        *(pytest.param(kind, f"num_samples = {10**17}", f"num_samples {10**17}",
                       id=f"{kind}-num_samples = {10**17}-out of memory")
          for kind in ("synthetic", "survmnist")),
    ])
    def test_bad_config_value_exits_one(self, pipeline, tmp_path, capsys, command, line, word):
        # train gets real data, so a value validation lets through trains and exits 0;
        # a line starting with -- is given as command-line flags instead, any
        # other line replaces FAST_TRAIN's line for its key (a key may be set
        # once). The one error line names word, and train leaves no checkpoint.
        flags = line.split() if line.startswith("--") else []
        key = line.split("=")[0].strip()
        base = "".join(f"{kept}\n" for kept in FAST_TRAIN.splitlines()
                       if kept.split("=")[0].strip() != key)
        cfg = write_config(tmp_path, base + ("" if flags else line + "\n"))
        if command == "train":
            argv = ["train", "--data", os.path.join(pipeline["data"], "train.csv"),
                    "--out", str(tmp_path / "m.ckpt")]
        else:
            argv = ["simulate", "--kind", command, "--out", str(tmp_path / "d")]
        capsys.readouterr()
        code = main(argv + ["--config", cfg] + flags)
        errors = [msg for msg in capsys.readouterr().err.splitlines()
                  if not msg.startswith("notice:")]
        assert code == 1
        assert len(errors) == 1 and errors[0].startswith("error:") and word in errors[0], errors
        assert not (tmp_path / "m.ckpt").exists()

    # Checkpoints that load but whose values overflow in prediction, each
    # (tensor, index, value, message): with no message, predict exits 0
    # with finite output and nothing on stderr; with one, it exits 1 with
    # that one line naming the checkpoint and the row.
    PREDICT_EDITS = {
        "huge_log_var": ("mix.log_vars", (0, 0), 800.0, None),
        "huge_mean": ("mix.means", (0, 0), 1e200, None),
        # finite, so the file loads, but every variance underflows to 0
        "tiny_log_vars": ("mix.log_vars", ..., -800.0, "variances must be strictly positive"),
        "huge_encoder_weight": ("enc.W0", (0, 0), 1e300,
                                "degenerate cluster posterior: no component log-score "
                                "is finite in row 0"),
        "huge_survival_bias": ("surv.betas", (0, 0), 1e308,
                               "row 0: non-finite cluster posterior or pred_time inf"),
    }

    @pytest.mark.parametrize("kind", sorted(PREDICT_EDITS))
    def test_overflowing_checkpoint_predicts_without_warnings(self, pipeline, tmp_path,
                                                              capsys, kind):
        name, index, value, message = self.PREDICT_EDITS[kind]
        params, stats, meta = load_checkpoint(pipeline["ckpt"])
        params.tensors[name][index] = value
        ckpt, out = str(tmp_path / "m.ckpt"), tmp_path / "p.csv"
        save_checkpoint(params, stats, meta, ckpt)
        capsys.readouterr()
        code = main(["predict", "--checkpoint", ckpt,
                     "--data", os.path.join(pipeline["data"], "test.csv"), "--out", str(out)])
        err = capsys.readouterr().err
        if message is None:
            assert code == 0 and err == ""
            assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)).all()
        else:
            assert code == 1
            assert err == f"error: {ckpt}: {message}\n"

    @pytest.mark.parametrize("line, message", [
        ("test_fraction = 1.5", "test_fraction must be in (0, 1)"),
        ("num_samples = 1", "degenerate split sizes for n=1")])
    def test_bad_split_is_refused_before_generating(self, tmp_path, capsys, monkeypatch,
                                                    line, message):
        # the split's checks need only num_samples: a generator that ran first
        # would spend the whole draw on a run that must fail
        monkeypatch.setitem(cli.GENERATORS, "synthetic",
                            (SyntheticConfig, lambda config: pytest.fail("generator ran")))
        cfg = write_config(tmp_path, f"{line}\n")
        code = main(["simulate", "--kind", "synthetic", "--config", cfg,
                     "--out", str(tmp_path / "d")])
        errors = [msg for msg in capsys.readouterr().err.splitlines()
                  if not msg.startswith("notice:")]
        assert code == 1
        assert errors == [f"error: {message}"]
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("out, reason", [
        ("missing/m.ckpt", "No such file or directory"), ("ckpt_dir", "Is a directory")])
    def test_unwritable_out_is_refused_before_the_fit(self, pipeline, tmp_path, capsys,
                                                      monkeypatch, out, reason):
        # found after the fit, it would cost the whole run and name a temporary
        # file; the error names the path given, and nothing is left behind
        monkeypatch.setattr(model, "fit", lambda *a: pytest.fail("fit ran"))
        (tmp_path / "ckpt_dir").mkdir()
        out = str(tmp_path / out)
        capsys.readouterr()
        code = main(["train", "--data", os.path.join(pipeline["data"], "train.csv"),
                     "--config", pipeline["cfg"], "--out", out])
        errors = [msg for msg in capsys.readouterr().err.splitlines()
                  if not msg.startswith("notice:")]
        assert code == 1
        assert errors == [f"error: {out}: cannot write: {reason}"]
        assert os.listdir(tmp_path) == ["ckpt_dir"] and os.listdir(tmp_path / "ckpt_dir") == []

    def test_median_rounding_to_the_offset_exits_one(self, pipeline, tmp_path, capsys):
        # every Weibull scale at its floor, far below TIME_OFFSET: with shape
        # 5 each component's median given t > TIME_OFFSET rounds to it, and
        # pred_time to 0, which predict rejects as it rejects a non-finite one
        params, stats, meta = load_checkpoint(pipeline["ckpt"])
        params.tensors["surv.betas"][:, 0] = -1e3
        ckpt, out = str(tmp_path / "m.ckpt"), tmp_path / "p.csv"
        save_checkpoint(ModelParams(params.tensors, 5.0), stats, meta, ckpt)
        capsys.readouterr()
        code = main(["predict", "--checkpoint", ckpt,
                     "--data", os.path.join(pipeline["data"], "test.csv"), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (f"error: {ckpt}: row 0: non-finite cluster "
                                           f"posterior or pred_time 0.0\n")
        assert not out.exists()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_flipped_checkpoint_bytes_exit_cleanly(self, pipeline, data):
        # 1-3 bytes of a trained checkpoint changed: predict either works
        # silently or prints one error line, and never raises
        blob = bytearray(Path(pipeline["ckpt"]).read_bytes())
        for _ in range(data.draw(st.integers(1, 3))):
            blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
        ckpt = pipeline["root"] / "flipped.ckpt"
        ckpt.write_bytes(blob)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["predict", "--checkpoint", str(ckpt),
                         "--data", os.path.join(pipeline["data"], "test.csv"),
                         "--out", str(pipeline["root"] / "flipped.csv")])
        lines = err.getvalue().splitlines()
        assert (code == 0 and lines == []) or (
            code == 1 and len(lines) == 1 and lines[0].startswith("error:")), (code, lines)

    def test_diverging_train_prints_one_error_line(self, pipeline, tmp_path):
        # a valid config whose first step overflows the parameters; run as
        # a process so stderr is exactly what a user sees
        cfg = write_config(tmp_path, FAST_TRAIN + "learning_rate = 1e300\n")
        done = subprocess.run(
            [sys.executable, "-m", "survmix.cli", "train", "--config", cfg,
             "--data", os.path.join(pipeline["data"], "train.csv"),
             "--out", str(tmp_path / "m.ckpt")],
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
            capture_output=True, text=True, timeout=120)
        errors = [line for line in done.stderr.splitlines() if not line.startswith("notice:")]
        assert done.returncode == 1
        assert "RuntimeWarning" not in done.stderr
        assert len(errors) == 1 and errors[0].startswith("error: epoch 0, batch "), errors

    def test_train_larger_than_memory_names_the_sizes(self, pipeline, tmp_path):
        # train, simulate and predict each refuse from the sizes before
        # allocating; the child's address space is capped at 2 GiB, so a
        # missing check ends in MemoryError, not in a kill by the kernel
        cfg = write_config(tmp_path, FAST_TRAIN.replace("latent_dim = 3", f"latent_dim = {10**12}"))
        # a 2 MB checkpoint whose (N, K, J) residuals outgrow twice the physical memory
        k = j = 300
        rows = 2 * os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // (8 * k * j) + 1
        params = init_params(2, TrainConfig(latent_dim=j, num_clusters=k, enc_hidden=(),
                                            dec_hidden=()), np.random.default_rng(0))
        save_checkpoint(params, PreprocessStats(1.0, np.zeros(2), np.ones(2)), {},
                        str(tmp_path / "big.ckpt"))
        save_csv(SurvivalDataset(np.zeros((rows, 2)), np.ones(rows), np.ones(rows, int)),
                 str(tmp_path / "rows.csv"))
        runs = {
            "train": (["--config", cfg, "--data", os.path.join(pipeline["data"], "train.csv")],
                      f"error: latent_dim {10**12}, num_clusters 2, "),
            "simulate": (["--kind", "synthetic", "--config", cfg],
                         f"error: num_clusters 2, num_samples 150, latent_dim {10**12}, "),
            "predict": (["--checkpoint", str(tmp_path / "big.ckpt"),
                         "--data", str(tmp_path / "rows.csv")],
                        f"error: num_clusters {k}, latent_dim {j} and rows {rows} need about "),
        }
        capped = ("import resource, sys; "
                  "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
                  "from survmix.cli import main; sys.exit(main(sys.argv[1:]))")
        for command, (args, message) in runs.items():
            out = tmp_path / f"{command}.out"
            done = subprocess.run(
                [sys.executable, "-c", capped, command, *args, "--out", str(out)],
                env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
                     "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
                capture_output=True, text=True, timeout=120)
            errors = [line for line in done.stderr.splitlines() if not line.startswith("notice:")]
            assert done.returncode == 1, command
            assert len(errors) == 1, errors
            assert errors[0].startswith(message), errors
            assert not out.exists()

    MALFORMED_PREDICTIONS = {
        "non_integer_cluster": ("row_id,cluster,pred_time\n0,x,1.0\n",
                                "row 0: non-numeric cell"),
        "short_row": ("row_id,cluster,pred_time\n0,0,1.0\n1,0\n",
                      "row 1: expected 3 cells, got 2"),
        "non_numeric_pred_time": ("row_id,cluster,pred_time\n0,0,1.0\n1,1,soon\n",
                                  "row 1: non-numeric cell"),
        "missing_column": ("row_id,pred_time\n0,1.0\n", "missing column 'cluster'"),
        "repeated_column": ("row_id,cluster,pred_time,cluster\n0,0,1.0,1\n",
                            "repeated column 'cluster'"),
        "long_row": ("row_id,cluster,pred_time\n0,0,1.0\n1,0,1.0,7,8\n",
                     "row 1: expected 3 cells, got 5"),
    }

    @pytest.mark.parametrize("kind", sorted(MALFORMED_PREDICTIONS))
    @pytest.mark.parametrize("command", ["evaluate", "km-export"])
    def test_malformed_predictions_exit_one(self, pipeline, tmp_path, capsys, command, kind):
        text, message = self.MALFORMED_PREDICTIONS[kind]
        pred = tmp_path / "pred.csv"
        pred.write_text(text)
        code = main([command, "--predictions", str(pred),
                     "--data", os.path.join(pipeline["data"], "test.csv"),
                     "--out", str(tmp_path / "out.txt")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err


    # Faults in a 25,000-row data file, each on row 20000, which a later
    # read block than the first holds: (cells, header) -> edited row or header.
    DATA_FAULTS = {
        "extra_cell": lambda cells, header: (cells + ["7"], header),
        "missing_cell": lambda cells, header: (cells[1:], header),
        "event_5": lambda cells, header: (cells[:-2] + ["5", cells[-1]], header),
        "zero_time": lambda cells, header: (cells[:-3] + ["0"] + cells[-2:], header),
        "non_integer_cluster": lambda cells, header: (cells[:-1] + ["1.5"], header),
        "wrong_header": lambda cells, header: (cells, header.replace("time", "when")),
    }

    @pytest.fixture(scope="class")
    def long_data(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("long")
        rng = np.random.default_rng(0)
        n, d = 25_000, 3
        assert datagen._BLOCK_CELLS // (d + 3) <= 20_000
        data = SurvivalDataset(rng.standard_normal((n, d)), rng.uniform(0.5, 2.0, n),
                               rng.integers(0, 2, n), rng.integers(0, 3, n))
        save_csv(data, root / "data.csv")
        (root / "pred.csv").write_text(
            "row_id,cluster,pred_time\n" + "".join(f"{i},{i % 3},1.5\n" for i in range(n)))
        return root, (root / "data.csv").read_text().splitlines()

    @pytest.mark.parametrize("kind", sorted(DATA_FAULTS))
    @pytest.mark.parametrize("command", ["evaluate", "km-export"])
    def test_malformed_data_exits_one_as_load_csv(self, long_data, tmp_path, capsys,
                                                  command, kind):
        root, lines = long_data
        row, header = self.DATA_FAULTS[kind](lines[1 + 20_000].split(","), lines[0])
        data = tmp_path / "data.csv"
        data.write_text("\n".join([header, *lines[1:20_001], ",".join(row),
                                   *lines[20_002:]]) + "\n")
        with pytest.raises(FormatError) as expected:
            load_csv(data)
        assert kind == "wrong_header" or ": row 20000: " in str(expected.value)
        code = main([command, "--predictions", str(root / "pred.csv"), "--data", str(data),
                     "--out", str(tmp_path / "out.txt")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {expected.value}\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-2.5"])
    @pytest.mark.parametrize("command", ["evaluate", "km-export"])
    def test_bad_pred_time_exits_one(self, pipeline, tmp_path, capsys, command, value):
        lines = Path(pipeline["pred"]).read_text().splitlines()
        column = lines[0].split(",").index("pred_time")
        cells = lines[4].split(",")
        cells[column] = value
        lines[4] = ",".join(cells)
        pred = tmp_path / "pred.csv"
        pred.write_text("\n".join(lines) + "\n")
        code = main([command, "--predictions", str(pred),
                     "--data", os.path.join(pipeline["data"], "test.csv"),
                     "--out", str(tmp_path / "out.txt")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "row 3: pred_time must be finite and positive" in err


class TestPredictedTimes:
    """predict writes a positive pred_time or exits 1 naming the row."""

    def run(self, tmp_path, simulate_cfg, train_cfg):
        data, ckpt = tmp_path / "d", str(tmp_path / "m.ckpt")
        assert main(["simulate", "--kind", "synthetic", "--out", str(data),
                     "--config", write_config(tmp_path, simulate_cfg, "sim.cfg")]) == 0
        assert main(["train", "--data", str(data / "train.csv"), "--out", ckpt,
                     "--config", write_config(tmp_path, train_cfg, "train.cfg")]) == 0
        return main(["predict", "--checkpoint", ckpt, "--data", str(data / "test.csv"),
                     "--out", str(tmp_path / "pred.csv")])

    def test_medians_below_the_offset_stay_positive(self, tmp_path, capsys):
        # this fit's time-free medians of two test rows lie below
        # TIME_OFFSET, where the unconditioned median gave pred_time -0.057
        cfg = "num_samples = 3000\nnum_features = 50\nseed = 0\nepochs = 30\n"
        assert self.run(tmp_path, cfg, cfg) == 0
        table = np.loadtxt(tmp_path / "pred.csv", delimiter=",", skiprows=1)
        header = (tmp_path / "pred.csv").read_text().split("\n", 1)[0].split(",")
        assert table[:, header.index("pred_time")].min() > 0
        assert main(["evaluate", "--predictions", str(tmp_path / "pred.csv"),
                     "--data", str(tmp_path / "d" / "test.csv"),
                     "--out", str(tmp_path / "report.txt")]) == 0

    def test_underflowing_shape_exits_one(self, tmp_path, capsys):
        # weibull_shape = 1e-300 underflowed the unconditioned median to 0,
        # and predict wrote pred_time -0.394; the conditioned one overflows
        code = self.run(tmp_path, "num_samples = 3000\nnum_features = 100\nseed = 3\n",
                        "epochs = 1\nweibull_shape = 1e-300\n")
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if not line.startswith("notice:")]
        assert code == 1
        assert errors == [f"error: {tmp_path / 'm.ckpt'}: row 0: non-finite cluster "
                          f"posterior or pred_time inf"]
        assert not (tmp_path / "pred.csv").exists()


class TestDeterminism:
    def test_pipeline_byte_identical_across_runs(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_TRAIN)

        def run(tag):
            d = tmp_path / tag
            d.mkdir()
            data = str(d / "data")
            ckpt = str(d / "model.ckpt")
            pred = str(d / "pred.csv")
            report = str(d / "report.txt")
            assert main(["simulate", "--kind", "synthetic", "--config",
                         str(cfg), "--out", data]) == 0
            assert main(["train", "--data", os.path.join(data, "train.csv"),
                         "--config", str(cfg), "--out", ckpt]) == 0
            assert main(["predict", "--checkpoint", ckpt,
                         "--data", os.path.join(data, "test.csv"),
                         "--out", pred]) == 0
            assert main(["evaluate", "--predictions", pred,
                         "--data", os.path.join(data, "test.csv"),
                         "--out", report]) == 0
            return {
                "train.csv": Path(os.path.join(data, "train.csv")).read_bytes(),
                "model.ckpt": Path(ckpt).read_bytes(),
                "pred.csv": Path(pred).read_bytes(),
                "report.txt": Path(report).read_bytes(),
            }

        a = run("a")
        b = run("b")
        for name in a:
            assert a[name] == b[name], f"{name} differs between identical runs"

    def test_seed_override_changes_results(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_TRAIN)
        for tag, seed in (("s1", "11"), ("s2", "12")):
            (tmp_path / tag).mkdir()
            assert main(["simulate", "--kind", "synthetic", "--config", str(cfg),
                         "--out", str(tmp_path / tag / "d"), "--seed", seed]) == 0
        a = Path(tmp_path / "s1" / "d" / "train.csv").read_text()
        b = Path(tmp_path / "s2" / "d" / "train.csv").read_text()
        assert a != b

    def test_seed_override_is_the_manifest_seed(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_TRAIN)  # seed = 5
        assert main(["simulate", "--kind", "synthetic", "--config", str(cfg),
                     "--out", str(tmp_path / "d"), "--seed", "9"]) == 0
        manifest = Path(tmp_path / "d" / "manifest").read_text().splitlines()
        seeds = [line for line in manifest if line.startswith("seed =")]
        assert seeds == ["seed = 9"], seeds

    def test_seed_override_of_a_missing_seed_is_not_noticed(self, tmp_path, capsys):
        text = "".join(f"{line}\n" for line in FAST_TRAIN.splitlines()
                       if not line.startswith("seed"))
        assert main(["simulate", "--kind", "synthetic", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "d"), "--seed", "9"]) == 0
        notices = capsys.readouterr().err.splitlines()
        assert notices and not [line for line in notices if "seed" in line], notices
        manifest = Path(tmp_path / "d" / "manifest").read_text().splitlines()
        assert "seed = 9" in manifest


class TestSurvMnistSimulate:
    def test_simulate_survmnist(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("num_samples = 200\nnum_clusters = 3\nseed = 1\n"
                       "test_fraction = 0.25\nrecon_loss = bce\n")
        out = str(tmp_path / "d")
        assert main(["simulate", "--kind", "survmnist", "--config", str(cfg),
                     "--out", out]) == 0
        train = load_csv(os.path.join(out, "train.csv"))
        assert train.features.shape[1] == 10
        assert set(np.unique(train.labels)) <= {0, 1, 2}

    def test_train_maps_features_as_preprocess_does(self, tmp_path):
        # the digits' features lie in [0, 1]: train must store the map that
        # preprocess works out from the generator's own train split, bit for bit,
        # whatever the recon_loss
        cfg = write_config(tmp_path, "num_samples = 200\nnum_clusters = 3\nseed = 1\n"
                           "test_fraction = 0.25\nrecon_loss = mse\nepochs = 1\n"
                           "latent_dim = 2\nbatch_size = 64\nenc_hidden = 8\ndec_hidden = 8\n")
        data, ckpt = tmp_path / "d", str(tmp_path / "m.ckpt")
        assert main(["simulate", "--kind", "survmnist", "--config", cfg, "--out", str(data)]) == 0
        assert main(["train", "--data", str(data / "train.csv"), "--config", cfg,
                     "--out", ckpt]) == 0
        _, stats, _ = load_checkpoint(ckpt)
        train, _ = datagen.train_test_split(
            datagen.gen_survmnist(SurvMnistConfig(num_samples=200, num_clusters=3, seed=1)),
            0.25, seed=1)
        _, expected = datagen.preprocess(train)
        assert stats.feature_mean.tobytes() == expected.feature_mean.tobytes()
        assert stats.feature_std.tobytes() == expected.feature_std.tobytes()

    def test_bce_pipeline_predicts_on_raw_features(self, tmp_path):
        # binary features are not standardised: predict must equal the
        # model on the raw test features, bit for bit
        cfg = write_config(tmp_path, "num_samples = 200\nnum_clusters = 3\nseed = 1\n"
                           "test_fraction = 0.25\nrecon_loss = bce\nepochs = 2\n"
                           "latent_dim = 3\nbatch_size = 64\nenc_hidden = 16\ndec_hidden = 16\n")
        data, ckpt = tmp_path / "d", str(tmp_path / "m.ckpt")
        test, pred = str(data / "test.csv"), str(tmp_path / "pred.csv")
        for argv in (["simulate", "--kind", "survmnist", "--config", cfg, "--out", str(data)],
                     ["train", "--data", str(data / "train.csv"), "--config", cfg, "--out", ckpt],
                     ["predict", "--checkpoint", ckpt, "--data", test, "--out", pred],
                     ["evaluate", "--predictions", pred, "--data", test,
                      "--out", str(tmp_path / "report.txt")]):
            assert main(argv) == 0, argv[0]
        params, stats, _ = load_checkpoint(ckpt)
        expected = model.predict(params, load_csv(test).features)
        table = np.loadtxt(pred, delimiter=",", skiprows=1, ndmin=2)
        header = Path(pred).read_text().split("\n", 1)[0].split(",")
        assert table[:, 1].astype(int).tobytes() == expected.labels.tobytes()
        t_hat = inverse_time_transform(expected.median_time, stats)
        assert table[:, header.index("pred_time")].tobytes() == t_hat.tobytes()

    def test_bce_checks_the_raw_features(self, tmp_path, capsys):
        # constant features outside [0, 1] standardize to zeros, which lie in
        # [0, 1]: train must refuse the raw values before it maps them
        save_csv(SurvivalDataset(np.full((20, 2), 5.0), np.arange(1.0, 21.0),
                                 np.ones(20, dtype=int)), str(tmp_path / "fives.csv"))
        cfg = write_config(tmp_path, FAST_TRAIN + "recon_loss = bce\n")
        capsys.readouterr()
        code = main(["train", "--data", str(tmp_path / "fives.csv"), "--config", cfg,
                     "--out", str(tmp_path / "m.ckpt")])
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if not line.startswith("notice:")]
        assert code == 1
        assert errors == ["error: row 0: feature_0 is 5.0, but recon_loss bce needs "
                          "features in [0, 1]"]
        assert not (tmp_path / "m.ckpt").exists()


NO_SCIPY_PIPELINE = r"""
import importlib, json, pkgutil, sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"no module named {name!r}")
        return None


sys.meta_path.insert(0, NoScipy())
import survmix
modules = sorted(m.name for m in pkgutil.iter_modules(survmix.__path__))
for name in modules:
    importlib.import_module("survmix." + name)
from survmix.cli import main

test = ["--data", "data/test.csv"]
for argv in (
    ["simulate", "--kind", "synthetic", "--config", "run.cfg", "--out", "data"],
    ["train", "--data", "data/train.csv", "--config", "run.cfg", "--out", "model.ckpt"],
    ["predict", "--checkpoint", "model.ckpt", *test, "--out", "pred.csv"],
    ["evaluate", "--predictions", "pred.csv", *test, "--out", "report.txt"],
    ["km-export", "--predictions", "pred.csv", *test, "--out", "km.csv"],
):
    code = main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
print(json.dumps({"modules": modules,
                  "scipy": [k for k in sys.modules if k.split(".")[0] == "scipy"]}))
"""


class TestFootprint:
    def test_runs_without_scipy(self, tmp_path):
        write_config(tmp_path)
        done = subprocess.run(
            [sys.executable, "-c", NO_SCIPY_PIPELINE], cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        loaded = json.loads(done.stdout.splitlines()[-1])
        assert loaded["modules"] == ["baselines", "cli", "datagen", "dist", "errors",
                                     "metrics", "model", "nnet"]
        assert loaded["scipy"] == []
        assert "acc = NA" not in (tmp_path / "report.txt").read_text()

    def test_evaluate_many_distinct_true_labels(self, tmp_path):
        # one true cluster per row, three predicted: the label matching must
        # stay O(U K) in memory, not O(U^2)
        n = 3000
        rng = np.random.default_rng(0)
        save_csv(SurvivalDataset(rng.standard_normal((n, 2)), rng.uniform(0.5, 5.0, n),
                                 rng.integers(0, 2, n), np.arange(n)), tmp_path / "data.csv")
        pred = tmp_path / "pred.csv"
        pred.write_text("row_id,cluster,pred_time\n"
                        + "".join(f"{i},{i % 3},{1.0 + i % 7}\n" for i in range(n)))
        tracemalloc.start()
        try:
            code = main(["evaluate", "--predictions", str(pred),
                         "--data", str(tmp_path / "data.csv"),
                         "--out", str(tmp_path / "report.txt")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert "acc = 0.001\n" in (tmp_path / "report.txt").read_text()
        assert peak < 20e6, f"peak {peak / 1e6:.1f} MB"
