import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import read_table_brute, save_csv_brute

from survmix import datagen
from survmix.datagen import (
    PreprocessStats,
    SurvivalDataset,
    SurvMnistConfig,
    SyntheticConfig,
    gen_low_rank,
    gen_spd,
    gen_survmnist,
    gen_synthetic,
    inverse_time_transform,
    load_csv,
    preprocess,
    save_csv,
    train_test_split,
)
from survmix.errors import ConfigError, FormatError, ShapeError


def small_synth(seed=0, n=400):
    return gen_synthetic(
        SyntheticConfig(num_samples=n, num_features=20, num_clusters=3,
                        latent_dim=8, seed=seed)
    )


class TestDatasetContainer:
    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            SurvivalDataset(np.zeros((3, 2)), np.ones(2), np.zeros(2, dtype=int))

    def test_one_dimensional_features_rejected(self):
        # unchecked, fit on these rows would end in a bare IndexError
        with pytest.raises(ShapeError, match=r"features must be 2-d, got shape \(5,\)"):
            SurvivalDataset(np.ones(5), np.ones(5), np.ones(5, dtype=int))

    def test_label_length_mismatch_rejected(self):
        # unchecked, save_csv on these rows would end in a NumPy ValueError
        with pytest.raises(ShapeError, match=r"labels must have shape \(5,\) .*got \(3,\)"):
            SurvivalDataset(np.ones((5, 2)), np.ones(5), np.ones(5, dtype=int),
                            labels=np.zeros(3, dtype=int))

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ConfigError):
            SurvivalDataset(np.zeros((2, 2)), np.array([1.0, 0.0]), np.zeros(2, dtype=int))

    def test_bad_event_flag_rejected(self):
        with pytest.raises(ConfigError):
            SurvivalDataset(np.zeros((2, 2)), np.ones(2), np.array([0, 2]))

    @pytest.mark.parametrize("labels, row", [
        ([0.5, 1.7, 2.0], 0), ([0.0, 1.0, 2.5], 2), ([0, np.nan, 1], 1),
        ([np.inf, 0, 1], 0), ([0, 1, -np.inf], 2), ([0, 1e300, 1], 1),
    ])
    def test_non_integer_label_names_row(self, labels, row):
        # a cast would turn them into other clusters, and nan or inf into a warning
        with pytest.raises(ConfigError, match=f"^row {row}: cluster must be an integer, "
                                              f"got {re.escape(str(labels[row]))}$"):
            SurvivalDataset(np.zeros((3, 2)), np.ones(3), np.ones(3, dtype=int), labels)

    def test_integer_valued_float_labels_become_ints(self):
        data = SurvivalDataset(np.zeros((3, 2)), np.ones(3), np.ones(3, dtype=int),
                               [2.0, 0.0, -0.0])
        assert data.labels.dtype == int and data.labels.tolist() == [2, 0, 0]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row, column", [(1, "feature_0"), (0, "feature_1"), (2, "time")])
    def test_non_finite_value_names_row_and_column(self, row, column, value):
        features, times = np.ones((3, 2)), np.ones(3)
        if column == "time":
            times[row] = value
        else:
            features[row, int(column[-1])] = value
        with pytest.raises(ConfigError, match=f"row {row}: {column} must be finite"):
            SurvivalDataset(features, times, np.ones(3, dtype=int))

    def test_subset_slices_matching_diagnostics(self):
        data = small_synth()
        sub = data.subset(np.arange(10))
        assert len(sub) == 10
        assert sub.diagnostics["latents"].shape[0] == 10
        # parameter-shaped diagnostics (per-cluster) are dropped, not sliced
        assert "betas" not in sub.diagnostics
        # also when the row count equals their first axis: K rows, or 10 for
        # the digit assignment
        data = gen_synthetic(SyntheticConfig(num_samples=3, num_clusters=3, latent_dim=2,
                                             num_features=4, seed=0))
        digit_data = gen_survmnist(SurvMnistConfig(num_samples=10, num_clusters=3, seed=0))
        for data, fraction, per_row in ((data, 0.34, {"latents", "event_times", "scales"}),
                                        (digit_data, 0.3, {"digits", "event_times"})):
            for part in train_test_split(data, fraction, seed=0):
                assert set(part.diagnostics) == per_row
                for v in part.diagnostics.values():
                    assert len(v) == len(part)


class TestGenSpd:
    def test_positive_definite_and_symmetric(self):
        for seed in range(5):
            S = gen_spd(6, seed)
            np.testing.assert_allclose(S, S.T, atol=1e-12)
            assert np.linalg.eigvalsh(S).min() >= 0.1 - 1e-9

    def test_deterministic(self):
        np.testing.assert_array_equal(gen_spd(4, 3), gen_spd(4, 3))

    def test_dimension_below_one_rejected(self):
        with pytest.raises(ConfigError, match="^dimension must be >= 1$"):
            gen_spd(0, 0)


class TestGenLowRank:
    def test_tail_mode_effective_rank(self):
        W = gen_low_rank(40, 40, seed=2)
        s = np.linalg.svd(W, compute_uv=False)
        r = 8  # ceil(40/5)
        # leading directions dominate; spectrum never hits zero
        assert s[0] == pytest.approx(1.0, abs=0.05)
        assert s[2 * r] < 0.5 * s[0]
        assert s[-1] > 0.0

    @pytest.mark.parametrize("m, n", [(0, 4), (4, 0)])
    def test_dimension_below_one_rejected(self, m, n):
        with pytest.raises(ConfigError, match="^dimensions must be >= 1$"):
            gen_low_rank(m, n, seed=0)


class TestSynthetic:
    def test_shapes_and_determinism(self):
        a = small_synth(seed=5)
        b = small_synth(seed=5)
        assert a.features.shape == (400, 20)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.times, b.times)
        assert set(np.unique(a.labels)) <= {0, 1, 2}

    def test_censored_rows_precede_event_time(self):
        data = small_synth(seed=1)
        u = data.diagnostics["event_times"]
        censored = data.events == 0
        assert np.all(data.times[censored] <= u[censored])
        np.testing.assert_allclose(data.times[~censored], u[~censored])

    def test_censoring_fraction_near_nominal(self):
        data = gen_synthetic(
            SyntheticConfig(num_samples=4000, num_features=5, latent_dim=4,
                            censoring_fraction=0.3, seed=2)
        )
        assert 1.0 - data.events.mean() == pytest.approx(0.3, abs=0.03)

    def test_latents_match_survival_scales(self):
        data = small_synth(seed=3)
        z = data.diagnostics["latents"]
        betas = data.diagnostics["betas"]
        lam = data.diagnostics["scales"]
        pre = (z * betas[data.labels, 1:]).sum(axis=1) + betas[data.labels, 0]
        np.testing.assert_allclose(
            lam, np.maximum(np.logaddexp(0.0, pre), 1e-8), rtol=1e-10
        )

    def test_diag_cov_mode(self):
        data = gen_synthetic(
            SyntheticConfig(num_samples=100, num_features=5, latent_dim=4,
                            cov_mode="diag", seed=0)
        )
        chols = data.diagnostics["mixture_chols"]
        for L in chols:
            np.testing.assert_allclose(L, np.diag(np.diag(L)), atol=1e-12)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            gen_synthetic(SyntheticConfig(num_samples=0))
        with pytest.raises(ConfigError):
            gen_synthetic(SyntheticConfig(censoring_fraction=1.0))

    @pytest.mark.parametrize("shape, features", [(1e-300, 100), (0.0026, 20)])
    def test_infinite_times_name_weibull_shape(self, shape, features):
        # draws past the float range, or finite draws whose scaling overflows
        config = SyntheticConfig(num_samples=3000, num_features=features,
                                 weibull_shape=shape, seed=3)
        with pytest.raises(ConfigError, match=f"^weibull_shape = {shape} draws infinite"):
            gen_synthetic(config)

    def test_refuses_a_size_beyond_memory(self):
        # from the config, before any array: in-process callers get the CLI's refusal
        with pytest.raises(ConfigError, match=re.escape(
                f"num_clusters 3, num_samples {10**17}, latent_dim 16, num_features 1000 "
                f"and hidden_units 32 need about ") + r"\d+\.\d GiB to simulate, more than"):
            gen_synthetic(SyntheticConfig(num_samples=10**17))


class TestSurvMnist:
    def make(self, seed=0, n=2000, k=5, censor=0.3):
        cfg = SurvMnistConfig(num_samples=n, num_clusters=k, censoring_fraction=censor,
                              seed=seed)
        data = gen_survmnist(cfg)
        return data, data.diagnostics["digits"]

    def test_every_cluster_nonempty_in_assignment(self):
        for seed in range(10):
            data, _ = self.make(seed=seed)
            assignment = data.diagnostics["digit_assignment"]
            assert set(assignment) == set(range(5))

    def test_features_are_pixel_intensities(self):
        # clipped noise: in [0, 1], and every row still peaks at its digit
        data, digits = self.make(seed=3)
        assert data.features.min() >= 0.0 and data.features.max() <= 1.0
        np.testing.assert_array_equal(data.features.argmax(axis=1), digits)

    def test_clusters_follow_digit_assignment(self):
        data, digits = self.make(seed=1)
        assignment = data.diagnostics["digit_assignment"]
        np.testing.assert_array_equal(data.labels, assignment[digits])

    def test_censored_fraction_at_least_nominal(self):
        for seed in range(10):
            data, _ = self.make(seed=seed)
            assert 1.0 - data.events.mean() >= 0.3 - 1e-12

    def test_single_censoring_time(self):
        data, _ = self.make(seed=2)
        censored = data.events == 0
        assert censored.any()
        assert np.unique(data.times[censored]).size == 1

    def test_uncensored_times_exponential_per_cluster(self):
        # KS on the retained pre-censoring event times
        data = gen_survmnist(SurvMnistConfig(num_samples=30000, num_clusters=3, seed=11))
        u = data.diagnostics["event_times"]
        rates = data.diagnostics["rates"]
        for c in range(3):
            sample = u[data.labels == c][:10000]
            p = stats.kstest(sample, "expon", args=(0.0, 1.0 / rates[c])).pvalue
            assert p > 0.01

    def test_too_many_clusters(self):
        with pytest.raises(ConfigError):
            SurvMnistConfig(num_clusters=11)

    def test_refuses_a_size_beyond_memory(self):
        with pytest.raises(ConfigError, match=re.escape(
                f"num_clusters 5 and num_samples {10**17} need about ") + r"\d+\.\d GiB to simulate"):
            gen_survmnist(SurvMnistConfig(num_samples=10**17))


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        data = small_synth(seed=4, n=50)
        p = tmp_path / "d.csv"
        save_csv(data, p)
        back = load_csv(p)
        np.testing.assert_array_equal(back.features, data.features)
        np.testing.assert_array_equal(back.times, data.times)
        np.testing.assert_array_equal(back.events, data.events)
        np.testing.assert_array_equal(back.labels, data.labels)

    def test_round_trip_without_labels(self, tmp_path):
        data = small_synth(seed=4, n=20)
        data.labels = None
        p = tmp_path / "d.csv"
        save_csv(data, p)
        assert load_csv(p).labels is None

    def test_bad_event_value_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("feature_0,time,event\n1.0,2.0,1\n1.0,2.0,5\n")
        with pytest.raises(FormatError, match="row 1"):
            load_csv(p)

    def test_non_numeric_cell_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("feature_0,time,event\nfoo,2.0,1\n")
        with pytest.raises(FormatError, match="row 0"):
            load_csv(p)

    @pytest.mark.parametrize("body, message", [
        ("1.0,nan,1\n", "row 0: time must be finite, got nan"),
        ("1.0,2.0,1\nnan,inf,1\n", "row 1: feature_0 must be finite, got nan"),
        ("1.0,2.0,1\n1.0,-inf,0\n", "row 1: time must be finite, got -inf"),
    ], ids=["nan_time", "nan_feature_inf_time", "minus_inf_time"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, body, message):
        p = tmp_path / "bad.csv"
        p.write_text("feature_0,time,event\n" + body)
        with pytest.raises(FormatError, match=message):
            load_csv(p)

    def test_reads_crlf_file_of_per_cell_writer(self, tmp_path):
        data = small_synth(seed=4, n=50)
        # values whose 17-digit text is easy to get wrong
        data.features[0, :6] = [5e-324, -0.0, 1.7976931348623157e308,
                                2.2250738585072014e-308, 0.1, -1e-310]
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        save_csv_brute(data, old)
        save_csv(data, new)
        assert old.read_bytes().count(b"\r\n") == 51
        assert new.read_bytes() == old.read_bytes().replace(b"\r\n", b"\n")
        back = load_csv(old)
        for name in ("features", "times", "events", "labels"):
            a, b = getattr(back, name), getattr(data, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_row_numbers_continue_across_blocks(self, tmp_path):
        # 25,000 rows of 4 cells span two blocks of the reader and writer
        rng = np.random.default_rng(0)
        n = 25_000
        data = SurvivalDataset(rng.standard_normal((n, 1)), rng.uniform(0.5, 2.0, n),
                               rng.integers(0, 2, n), rng.integers(0, 3, n))
        p = tmp_path / "big.csv"
        save_csv(data, p)
        back = load_csv(p)
        for name in ("features", "times", "events", "labels"):
            np.testing.assert_array_equal(getattr(back, name), getattr(data, name))
        lines = p.read_text().splitlines()
        lines[1 + 20_000] += ",7"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="row 20000: expected 4 cells, got 5"):
            load_csv(p)

    def test_non_utf8_cell_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"feature_0,time,event\n1.0,2.0,1\n1.0,2\xff,1\n")
        with pytest.raises(FormatError, match="row 1: non-numeric cell"):
            load_csv(p)

    def test_missing_columns(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("feature_0,when,event\n1.0,2.0,1\n")
        with pytest.raises(FormatError, match="time"):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(FormatError, match="empty"):
            load_csv(p)


# Cell text a table may hold: numbers as written, numbers out of range,
# and short strings of number-like characters.
CELLS = st.one_of(
    st.floats().map(lambda x: "%.17g" % x),
    st.integers(-10**20, 10**20).map(str),
    st.text(alphabet="0123456789.-+eEinfaNx \t", max_size=4),
)


def parses_as_float(cell):
    try:
        np.array([cell], dtype=float)
    except (ValueError, OverflowError):
        return False
    return True


class TestReadTable:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_used_columns_read_as_full_read(self, tmp_path_factory, data):
        # A read of some columns, or of all, returns the brute-force read's
        # values or its message. A read of some columns returns the full
        # read's values for them, fails only where the full read fails, and
        # with the full read's message when its first bad row is of the
        # wrong width or holds its bad cells in used columns alone.
        width = data.draw(st.integers(1, 5), label="width")
        row = st.lists(CELLS, min_size=width, max_size=width)
        rows = data.draw(st.lists(st.one_of(row, row, st.lists(CELLS, max_size=width + 2)),
                                  max_size=8), label="rows")
        columns = data.draw(st.lists(st.integers(0, width - 1), min_size=1, unique=True),
                            label="columns")
        integers = data.draw(st.lists(st.sampled_from(columns), unique=True), label="integers")
        block = data.draw(st.integers(1, 3 * width), label="cells per read block")
        path = tmp_path_factory.getbasetemp() / "table.csv"
        header = [f"c{j}" for j in range(width)]
        path.write_text("".join(",".join(cells) + "\n" for cells in [header, *rows]))

        def read(names):
            def check_header(header):
                return [header[j] for j in names], [header[j] for j in integers]
            try:
                got = datagen._read_table(path, check_header)
            except FormatError as exc:
                got = exc
            expected = read_table_brute(path, [header[j] for j in names],
                                        [header[j] for j in integers])
            if isinstance(expected, str):
                assert str(got) == expected
            else:
                assert not isinstance(got, FormatError), got
                assert got[0].dtype == expected[0].dtype
                assert got[0].tobytes() == expected[0].tobytes()
                assert got[1].keys() == expected[1].keys()
                for name, values in got[1].items():
                    assert values.dtype == expected[1][name].dtype
                    assert values.tobytes() == expected[1][name].tobytes()
            return expected

        with mock.patch.object(datagen, "_BLOCK_CELLS", block):
            full, used = read(range(width)), read(columns)
        if not isinstance(full, str):
            assert not isinstance(used, str), used
            floats, ints = used
            assert floats.shape == (len(rows), len(columns))
            assert floats.tobytes() == full[0][:, columns].tobytes()
            assert ints.keys() == full[1].keys()
            for name, values in ints.items():
                assert values.dtype == full[1][name].dtype
                assert values.tobytes() == full[1][name].tobytes()
            return
        i, fault = re.search(r": row (\d+): (expected|non-numeric)", full).groups()
        cells = rows[int(i)]
        if fault == "expected" or all(parses_as_float(cells[j])
                                      for j in range(width) if j not in columns):
            assert used == full

    def test_repeated_header_name_is_rejected(self, tmp_path):
        # whichever of the two columns a reader took, the other is lost
        path = tmp_path / "table.csv"
        path.write_text("a,b,a\n1,2,3\n")
        with pytest.raises(FormatError, match=r"table.csv: repeated column 'a'$"):
            datagen._read_table(path, lambda header: (["b"], []))


class TestPreprocess:
    def test_time_range_and_train_max(self):
        data = small_synth(seed=6)
        out, stats_ = preprocess(data)
        assert out.times.max() == pytest.approx(1.001, rel=1e-12)
        assert np.all(out.times > 0.001 - 1e-15)
        assert stats_.max_time == data.times.max()

    def test_real_features_standardized(self):
        data = small_synth(seed=6)
        out, _ = preprocess(data)
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-10)

    def test_binary_features_untouched(self):
        # the identity stats leave every bit as it was, a -0.0 too
        data = gen_survmnist(SurvMnistConfig(num_samples=200, num_clusters=3, seed=0))
        data.features[3, 4] = -0.0
        out, stats_ = preprocess(data)
        assert out.features.tobytes() == data.features.tobytes()
        np.testing.assert_array_equal(stats_.feature_mean, np.zeros(10))
        np.testing.assert_array_equal(stats_.feature_std, np.ones(10))

    def test_stats_of_another_width_rejected(self):
        # named as a ShapeError, not left to NumPy's broadcasting error
        data = small_synth(seed=7)
        _, stats_ = preprocess(data)
        narrow = SurvivalDataset(data.features[:, :2], data.times, data.events)
        with pytest.raises(ShapeError, match=re.escape(
                f"data has 2 features, the preprocessing statistics expect "
                f"{data.features.shape[1]}")):
            preprocess(narrow, stats_)

    def test_reapplication_without_stats_rejected(self):
        # there are no statistics to hand on to the test split, and stats
        # handed in would map the values a second time
        once, stats_ = preprocess(small_synth(seed=7))
        for stats_given in (None, stats_):
            with pytest.raises(ConfigError, match="already preprocessed"):
                preprocess(once, stats_given)

    def test_test_split_uses_train_stats(self):
        data = small_synth(seed=8)
        train, test = train_test_split(data, 0.25, seed=0)
        _, stats_ = preprocess(train)
        test_p, _ = preprocess(test, stats_)
        # a test time above the train max exceeds 1.001
        assert stats_.max_time == train.times.max()
        if test.times.max() > train.times.max():
            assert test_p.times.max() > 1.001

    def test_zero_rows_rejected(self, tmp_path):
        # a header-only CSV loads as an empty dataset; its statistics
        # would be NaN and its max time undefined
        path = tmp_path / "empty.csv"
        path.write_text("feature_0,feature_1,time,event\n")
        with pytest.raises(ShapeError):
            preprocess(load_csv(str(path)))

    def test_inverse_round_trip(self):
        data = small_synth(seed=9)
        out, stats_ = preprocess(data)
        # absolute floor: the affine map loses ~eps * max_time near t=0
        np.testing.assert_allclose(
            inverse_time_transform(out.times, stats_), data.times,
            rtol=1e-10, atol=1e-12 * stats_.max_time,
        )

    def test_constant_feature_does_not_divide_by_zero(self):
        # outside [0, 1], so the features are standardized and the std floored
        data = SurvivalDataset(np.full((10, 2), 5.0), np.arange(1.0, 11.0),
                               np.ones(10, dtype=int))
        out, _ = preprocess(data)
        assert np.all(np.isfinite(out.features))


class TestSplit:
    def test_partition_and_determinism(self):
        data = small_synth(seed=10)
        a_train, a_test = train_test_split(data, 0.3, seed=1)
        b_train, b_test = train_test_split(data, 0.3, seed=1)
        assert len(a_train) + len(a_test) == len(data)
        np.testing.assert_array_equal(a_train.times, b_train.times)
        np.testing.assert_array_equal(a_test.times, b_test.times)

    def test_degenerate_fraction_rejected(self):
        data = small_synth(seed=12, n=10)
        with pytest.raises(ConfigError):
            train_test_split(data, 0.0, seed=0)
        with pytest.raises(ConfigError):
            train_test_split(data, 1.0, seed=0)
