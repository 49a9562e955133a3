import contextlib
import io
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from survmix.datagen import PreprocessStats, SurvMnistConfig, SyntheticConfig, load_csv
from survmix.errors import ConfigError, FormatError, ShapeError
from survmix import model
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
        for line in ("bogus_key = 1", "mc_samples = 1", "stratify_by_time = false"):
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
        with pytest.raises(ConfigError, match="bad configuration value"):
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

    def test_file_with_old_size_entries_loads(self, tmp_path):
        # Files written before the arch.enc_sizes/arch.dec_sizes entries
        # were dropped carry them; they are read as ordinary meta.
        params, stats, (new, _, _) = self.roundtrip(tmp_path)
        path = str(tmp_path / "old.ckpt")
        save_checkpoint(params, stats, {"epochs": "3", "arch.enc_sizes": "5,6,6",
                                        "arch.dec_sizes": "3,6,5"}, path)
        old, old_stats, meta = load_checkpoint(path)
        assert meta["arch.enc_sizes"] == "5,6,6"
        X = np.random.default_rng(1).standard_normal((7, 5))
        a, b = model.predict(new, X), model.predict(old, X)
        for field in ("labels", "posterior", "latent", "median_time"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field
        assert old_stats.feature_std.tobytes() == stats.feature_std.tobytes()

    def test_round_trip_plain_prior(self, tmp_path):
        # Files written with the plain N(0, I) prior, since removed, carry
        # arch.gmm_prior = false and one component; the entry is ignored.
        params, _, (loaded, _, meta) = self.roundtrip(
            tmp_path, num_clusters=1, meta={"gmm_prior": "false", "arch.gmm_prior": "false"})
        assert meta["arch.gmm_prior"] == "false" and loaded.num_clusters == 1
        X = np.random.default_rng(1).standard_normal((7, 5))
        t, event = np.linspace(0.1, 1.0, 7), np.tile([0.0, 1.0], 4)[:7]
        for args in ((X,), (X, t, event)):
            a, b = model.predict(params, *args), model.predict(loaded, *args)
            for field in ("labels", "posterior", "latent", "median_time"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field

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

    # Same-length byte edits that keep the container well formed.
    CORRUPTIONS = {
        "missing_meta_key": (b"arch.enc_acts", b"arch.enc_actX", "arch.enc_acts"),
        "missing_tensor": (b"mix.means", b"mix.meanX", "mix.means"),
        "unknown_activation": (b"relu,identity", b"relu,identitX", "identitX"),
        # survmix builds relu hidden layers and a linear output only
        "wrong_activation_order": (b"relu,identity", b"identity,relu", "identity,relu"),
        "non_utf8_string": (b"arch.enc_acts", b"arch.enc_act\xff", "UTF-8"),
        # preprocess would treat any kind but real as binary and skip standardising
        "unknown_feature_kind": (b"\x04\x00real", b"\x04\x00rexl",
                                 "entry 'stats.feature_kind' is 'rexl'"),
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

    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS) + sorted(SHAPE_EDITS)
                             + sorted(VALUE_EDITS))
    def test_corrupt_entry_is_format_error(self, tmp_path, capsys, kind):
        params, stats, _ = self.roundtrip(tmp_path)
        path = tmp_path / "model.ckpt"
        if kind in self.CORRUPTIONS:
            old, new, message = self.CORRUPTIONS[kind]
            data = path.read_bytes()
            assert old in data
            path.write_bytes(data.replace(old, new, 1))
        elif kind in self.SHAPE_EDITS:
            self.edit_shape(params.tensors, stats, kind)
            save_checkpoint(params, stats, {"epochs": "3"}, str(path))
            message = self.SHAPE_EDITS[kind]
        else:
            message = self.edit_values(params, stats, kind)
            save_checkpoint(params, stats, {"epochs": "3"}, str(path))
        with pytest.raises(FormatError, match=message):
            load_checkpoint(str(path))
        capsys.readouterr()
        code = main(["predict", "--checkpoint", str(path),
                     "--data", str(tmp_path / "unused.csv"),
                     "--out", str(tmp_path / "p.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1

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

    @pytest.mark.parametrize("kind, text", [
        ("synthetic", "num_samples = abc\n"),
        ("survmnist", "num_samples = 2.5\n"),
        ("survmnist", "num_samples = 200\ntest_fraction = x\n"),
    ], ids=["synthetic_int", "survmnist_int", "float"])
    def test_bad_simulate_value_exits_one(self, tmp_path, capsys, kind, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code = main(["simulate", "--kind", kind, "--config", str(cfg),
                     "--out", str(tmp_path / "d")])
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if not line.startswith("notice:")]
        assert code == 1
        assert len(errors) == 1 and errors[0].startswith("error: bad configuration value")

    @pytest.mark.parametrize("command, line, word", [
        ("synthetic", "weibull_shape = -1", "weibull_shape"),
        ("synthetic", "weibull_shape = nan", "weibull_shape"),
        ("survmnist", "mean_survival = 0", "mean_survival"),
        ("survmnist", "mean_survival = inf", "mean_survival"),
        ("survmnist", "num_samples = 0", "num_samples"),
        ("survmnist", "num_samples = -5", "num_samples"),
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
        ("synthetic", "--seed -3", "seed"),
        ("train", "--seed -3", "seed"),
        # longer than a checkpoint string holds: rejected before training
        pytest.param("train", "learning_rate = 0.001" + "0" * 70_000, "learning_rate",
                     id="train-overlong-learning_rate"),
        # sizes no 64-bit address space holds, so the allocation fails at once
        ("synthetic", "num_samples = 100000000000000000", "out of memory"),
        ("survmnist", "num_samples = 100000000000000000", "out of memory"),
    ])
    def test_bad_config_value_exits_one(self, pipeline, tmp_path, capsys, command, line, word):
        # train gets real data, so a value validation lets through trains and exits 0;
        # a line starting with -- is given as command-line flags instead. The
        # one error line names word, and train leaves no checkpoint.
        flags = line.split() if line.startswith("--") else []
        cfg = write_config(tmp_path, FAST_TRAIN + ("" if flags else line + "\n"))
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

    MALFORMED_PREDICTIONS = {
        "non_integer_cluster": ("row_id,cluster,pred_time\n0,x,1.0\n",
                                "row 0: non-numeric cell"),
        "short_row": ("row_id,cluster,pred_time\n0,0,1.0\n1,0\n",
                      "row 1: expected 3 cells, got 2"),
        "non_numeric_pred_time": ("row_id,cluster,pred_time\n0,0,1.0\n1,1,soon\n",
                                  "row 1: non-numeric cell"),
        "missing_column": ("row_id,pred_time\n0,1.0\n", "missing column 'cluster'"),
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
        assert seeds and all(line == "seed = 9" for line in seeds), seeds


class TestSurvMnistSimulate:
    def test_simulate_survmnist(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("num_samples = 200\nnum_clusters = 3\nseed = 1\n"
                       "test_fraction = 0.25\nrecon_loss = bce\n")
        out = str(tmp_path / "d")
        assert main(["simulate", "--kind", "survmnist", "--config", str(cfg),
                     "--out", out]) == 0
        train = load_csv(os.path.join(out, "train.csv"), feature_kind="binary")
        assert train.features.shape[1] == 10
        assert set(np.unique(train.labels)) <= {0, 1, 2}
