import errno
import os
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import read_table_brute, save_csv_brute, write_table_brute

from survmix import table
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
    load_outcomes,
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

    # text Python's float and int accept but NumPy's C reader does not:
    # digit grouping, non-ASCII digits (Arabic-Indic, fullwidth)
    PYTHON_ONLY = ["1_000", "\u0661", "\uff11"]

    @pytest.mark.parametrize("cell", PYTHON_ONLY)
    def test_python_only_number_text_is_a_non_numeric_cell(self, tmp_path, cell):
        # every read shares one number syntax, the C reader's
        p = tmp_path / "bad.csv"
        p.write_text(f"feature_0,time,event,cluster\n1.0,2.0,1,0\n{cell},2.0,1,0\n",
                     encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(
                f"row 1: non-numeric cell ({cell!r} is not float text that np.loadtxt reads)")):
            load_csv(p)
        p.write_text(f"feature_0,time,event,cluster\n1.0,2.0,1,0\n1.0,2.0,1,{cell}\n",
                     encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(
                f"row 1: non-numeric cell ({cell!r} is not float text that np.loadtxt reads)")):
            load_outcomes(p)

    @pytest.mark.parametrize("cell", PYTHON_ONLY)
    def test_python_only_number_text_in_an_unused_column_is_not_read(self, tmp_path, cell):
        p = tmp_path / "d.csv"
        p.write_text(f"feature_0,time,event,cluster\n{cell},2.0,1,0\n", encoding="utf-8")
        back = load_outcomes(p)
        assert back.features.shape == (1, 0)
        assert (back.times.tolist(), back.events.tolist(),
                back.labels.tolist()) == ([2.0], [1], [0])

    def test_whitespace_around_a_number_is_ignored(self, tmp_path):
        # as str.isspace counts it, non-ASCII spaces included
        p = tmp_path / "d.csv"
        p.write_text("feature_0,time,event,cluster\n\u00a01.5\u3000, 2.0\t,1 ,\u2003 2\n",
                     encoding="utf-8")
        back = load_csv(p)
        assert (back.features.tolist(), back.times.tolist(), back.events.tolist(),
                back.labels.tolist()) == ([[1.5]], [2.0], [1], [2])

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
                got = table.read_table(path, check_header)
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

        with mock.patch.object(table, "_BLOCK_CELLS", block):
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

    @pytest.mark.parametrize("body, block, integer, row", [
        ("1\n2\n\n\n", 2, False, 2),  # a block of blank lines alone
        ("1\n2\n\n\n", 2, True, 2),
        ("1\n\n3\n", 3, False, 1),  # a blank line among numbers
        ("1\n\n3\n", 3, True, 1),
    ])
    def test_blank_rows_are_named_without_a_warning(self, tmp_path, body, block, integer, row):
        # np.loadtxt skips blank lines and warns when it finds nothing else
        path = tmp_path / "table.csv"
        path.write_text("a\n" + body)
        check_header = lambda header: (["a"], ["a"] if integer else [])
        with warnings.catch_warnings(), mock.patch.object(table, "_BLOCK_CELLS", block):
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match=re.escape(
                    f"table.csv: row {row}: non-numeric cell "
                    "(could not convert string to float: '')")):
                table.read_table(path, check_header)

    def test_repeated_header_name_is_rejected(self, tmp_path):
        # whichever of the two columns a reader took, the other is lost
        path = tmp_path / "table.csv"
        path.write_text("a,b,a\n1,2,3\n")
        with pytest.raises(FormatError, match=r"table.csv: repeated column 'a'$"):
            table.read_table(path, lambda header: (["b"], []))


def per_cell_text(header, columns):
    """A table's bytes with every cell formatted on its own by Python's %:
    %d for integer columns, %.17g for the others."""
    columns = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    formats = ["%d" if c.dtype.kind in "biu" else "%.17g" for c in columns]
    lines = [",".join(header)]
    for i in range(len(columns[0])):
        lines.append(",".join(f % v for f, c in zip(formats, columns) for v in c[i].tolist()))
    return "".join(line + "\n" for line in lines).encode()


def written(path, header, columns):
    table.write_table(path, header, columns)
    return path.read_bytes()


def ulp_neighbours(x, n):
    """x and the n doubles either side of it."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return np.array(below[::-1] + above[1:])


def pow10_neighbours():
    """Every power of ten from 1e-330 to 1e308 (the smallest underflow to 0
    or to subnormals) and the doubles one ulp either side."""
    powers = np.array([float(f"1e{k}") for k in range(-330, 309)])
    return np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)])


class TestWriteTable:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_write_table_matches_per_cell_formatting(self, tmp_path_factory, data):
        # nan, ±inf, ±0.0 and subnormals come from st.floats(); int64 ends, 0,
        # -1 and the ends of the integers a float64 holds exactly are drawn
        # often; small blocks put several in one table
        n = data.draw(st.integers(0, 12), label="rows")
        floats = st.lists(st.floats(), min_size=n, max_size=n)
        edges = [-2**63, 2**63 - 1, 0, -1, 2**53 - 1, 2**53, 2**53 + 1, -2**53 - 1, 10**17 - 1]
        ints = st.lists(st.sampled_from(edges) | st.integers(-10**17, 10**17)
                        | st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)
        columns = [np.array(data.draw(floats), dtype=float),
                   np.array(data.draw(ints), dtype=np.int64),
                   np.array([data.draw(floats), data.draw(floats)], dtype=float).reshape(n, 2)]
        header = ["x", "i", "y", "z"]
        block = data.draw(st.integers(8, 64), label="block")
        path = tmp_path_factory.getbasetemp() / "cells.csv"
        with mock.patch.object(table, "_BLOCK_CELLS", block):
            assert written(path, header, columns) == per_cell_text(header, columns)

    def test_write_table_powers_of_ten_and_their_neighbours(self, tmp_path):
        x = pow10_neighbours()
        fixed = (np.abs(x) >= 1e-4) & (np.abs(x) < 1e17)
        with np.errstate(divide="ignore"):
            guess = np.floor(np.log10(np.abs(x[fixed])))
        exponent = np.array([int(("%.16e" % v).split("e")[1]) for v in x[fixed]])
        assert (guess != exponent).any()  # log10 is one off for some, and corrected
        assert written(tmp_path / "t.csv", ["x", "y"], [x, -x]) == per_cell_text(["x", "y"],
                                                                                   [x, -x])

    def test_write_table_rounds_ties_half_to_even(self, tmp_path):
        # both are exact doubles halfway between two 17-digit decimals
        x = np.array([1000000000000000.25, 1000000000000000.75])
        assert written(tmp_path / "t.csv", ["x"], [x]) == (
            b"x\n1000000000000000.2\n1000000000000000.8\n")

    def test_write_table_bool_single_and_empty_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        assert written(path, ["b", "x"], [np.array([True, False]), np.array([0.5, -0.0])]) == (
            b"b,x\n1,0.5\n0,-0\n")
        assert written(path, ["x"], [np.array([1.5, 2.0, 1e-5])]) == (
            b"x\n1.5\n2\n1.0000000000000001e-05\n")
        assert written(path, ["x", "i", "j"], [np.empty(0), np.empty((0, 2), int)]) == b"x,i,j\n"

    @pytest.mark.parametrize("table", ["pred", "km", "trace"])
    def test_write_table_matches_per_row_writer(self, tmp_path, table):
        # tables shaped as predict's pred.csv, km-export's km.csv and the
        # training trace, long enough to take several blocks
        rng = np.random.default_rng(3)
        n = 4000
        if table == "pred":
            posterior = rng.dirichlet(np.ones(4), n)
            header = (["row_id", "cluster"] + [f"p_{c}" for c in range(4)] + ["pred_time"]
                      + [f"latent_{d}" for d in range(8)])
            columns = [np.arange(n), posterior.argmax(axis=1), posterior,
                       rng.weibull(1.5, n) * 300, rng.standard_normal((n, 8))]
        elif table == "km":
            header = ["cluster", "time", "survival"]
            columns = [np.repeat(np.arange(4), n // 4), np.sort(rng.uniform(0, 900, n)),
                       np.concatenate([np.cumprod(1 - 1 / np.arange(n // 4 + 1, 1, -1))] * 4)]
        else:
            header = ["epoch", "elbo"]
            columns = [np.arange(n), -np.abs(rng.standard_normal(n)) * 10.0**rng.integers(0, 9, n)]
        old = tmp_path / "old.csv"
        write_table_brute(old, header, columns)
        assert written(tmp_path / "new.csv", header, columns) == old.read_bytes()

    @pytest.mark.parametrize("fault", [OSError(errno.ENOSPC, "No space left on device"),
                                       KeyboardInterrupt()], ids=["disk_full", "interrupt"])
    def test_write_table_failure_keeps_the_old_file(self, tmp_path, monkeypatch, fault):
        # the first block is formatted and written, the second fails
        path = tmp_path / "pred.csv"
        path.write_text("old\n")
        format_rows = table._format_rows
        blocks = []

        def failing(*args):
            if blocks:
                raise fault
            blocks.append(format_rows(*args))
            return blocks[-1]

        monkeypatch.setattr(table, "_format_rows", failing)
        monkeypatch.setattr(table, "_BLOCK_CELLS", 8 * 3 * 10)
        message = re.escape(f"{path}: cannot write: No space left on device")
        with pytest.raises(type(fault), match=message if isinstance(fault, OSError) else None):
            table.write_table(path, ["a", "b", "c"], [np.ones((100, 3))])
        assert len(blocks) == 1
        assert path.read_text() == "old\n" and os.listdir(tmp_path) == ["pred.csv"]

    def test_save_csv_memory_is_bounded(self, tmp_path):
        # the formatting arrays of one block, not of the table
        rng = np.random.default_rng(0)
        n = 20_000
        data = SurvivalDataset(rng.standard_normal((n, 100)), rng.uniform(0.5, 2.0, n),
                               rng.integers(0, 2, n), rng.integers(0, 3, n))
        tracemalloc.start()
        try:
            save_csv(data, tmp_path / "d.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5e6, f"peak {peak / 1e6:.2f} MB"

    def test_write_table_exponent_form_range(self, tmp_path):
        # for every E that %.17g writes as e-05 to e-28: 10^E and two ulps
        # either side, 17-digit decimals d.ddd...e(E) and the doubles nearest
        # the points halfway between two of them, both signs; and the double
        # 1e-14, just below 10^-14, whose product at E = -15 rounds up to 10^17
        rng = np.random.default_rng(35)
        cells = [1e-14]
        for e in range(-28, -4):
            cells += list(ulp_neighbours(float(f"1e{e}"), 2))
            for d in rng.integers(10**16, 10**17, 40).tolist():
                cells += [float(f"{d}e{e - 16}"), float(f"{d}5e{e - 17}")]
        x = np.array(cells)
        x = np.concatenate([x, -x])
        # all but those below 10^-28 are written from arrays
        assert table._decimal(x.copy())[2][np.abs(x) > 1e-28].all()
        assert written(tmp_path / "t.csv", ["x"], [x]) == per_cell_text(["x"], [x])

    def test_decimal_covers_1e_minus_28_to_1e17(self):
        # every finite x with 10^-28 <= |x| < 10^17 (or 0) is written from
        # arrays, and none below 10^-28; the double 1e-28 lies below 10^-28
        rng = np.random.default_rng(36)
        bits = rng.integers(0, 2**64, 20000, dtype=np.uint64)
        exponents = rng.integers(1023 - 100, 1023 + 60, 10000, dtype=np.uint64)
        bits[::2] = bits[::2] & ~np.uint64(0x7FF << 52) | exponents << np.uint64(52)
        edges = [0.0, 5e-324, 1e-28, 1e-5, 1e17, *ulp_neighbours(1e-28, 2),
                 *ulp_neighbours(1e17, 2)]
        x = np.concatenate([bits.view(np.float64), pow10_neighbours(), edges])
        x = x[np.isfinite(x)]
        x = np.concatenate([x, -x])

        def inside(v):
            n, d = abs(v).as_integer_ratio()
            return v == 0 or n * 10**28 >= d and abs(v) < 1e17

        assert table._decimal(x.copy())[2].tolist() == list(map(inside, x.tolist()))

    def test_two_step_product_is_renormalised_and_within_2_to_the_minus_48(self):
        # hi is the double nearest hi + lo, so _decimal's checks against 10^16
        # and 10^17 see the side of the product, and hi + lo is the product to
        # within 2^-48
        rng = np.random.default_rng(37)
        x = 10.0**rng.uniform(-28, -6, 2000)
        k = 16 - table._decimal(x.copy())[0]
        hi, lo = table._scaled(x, k, np.flatnonzero(k > 22))
        assert (k > 22).all() and (np.abs(lo) <= np.spacing(hi) / 2).all()
        for v, p, h, l in zip(x.tolist(), k.tolist(), hi.tolist(), lo.tolist()):
            n, d = v.as_integer_ratio()
            h_n, h_d = h.as_integer_ratio()
            l_n, l_d = l.as_integer_ratio()
            # |(hi + lo) - v * 10^p| * 2^48 <= 1, in integers
            error = abs((h_n * l_d + l_n * h_d) * d - n * 10**p * h_d * l_d)
            assert error * 2**48 <= h_d * l_d * d

    def test_write_table_near_ties_of_two_step_products(self, tmp_path):
        # doubles x = m * 2^q at E = -7 to -10 whose x * 10^(16 - E) lies
        # within 2^-41 of a half-integer, the exact ties among them: the
        # two-step product, made to within 2^-48, leaves them to Python's %
        cells = []
        for k in range(23, 27):
            for q in range(-90, -65):
                r = -(q + k)  # the product is m * 5^k / 2^r
                inverse = pow(5**k, -1, 2**r)
                reach = 2**min(7, max(r - 41, 0))
                for delta in range(1 - reach, reach):  # m * 5^k = 2^(r - 1) + delta mod 2^r
                    for m in range((2**(r - 1) + delta) * inverse % 2**r, 2**53, 2**r):
                        x = np.ldexp(float(m), q)
                        n, d = x.as_integer_ratio()
                        if m >= 2**52 and d <= n * 10**(k - 16) < 10 * d:
                            cells.append(x)
        x = np.array(cells)
        assert len(x) > 100 and 3 * 2.0**-24 in cells  # an exact tie, at E = -7
        ok = table._decimal(x.copy())[2]
        assert not ok.any()
        assert written(tmp_path / "t.csv", ["x"], [x]) == per_cell_text(["x"], [x])

    @pytest.mark.slow
    def test_write_table_random_bit_patterns(self, tmp_path):
        # 1.2 * 10^6 random doubles: a third of any exponent, a third with
        # exponents about the fixed-notation range 1e-4 <= |x| < 1e17, and a
        # third about the exponent-form range 1e-28 <= |x| < 1e-4
        rng = np.random.default_rng(20)
        n = 12 * 10**5
        bits = rng.integers(0, 2**64, n, dtype=np.uint64)
        fixed = rng.integers(1023 - 16, 1023 + 59, n // 3, dtype=np.uint64)
        small = rng.integers(1023 - 97, 1023 - 9, n // 3, dtype=np.uint64)
        for start, exponents in ((1, fixed), (2, small)):
            part = bits[start::3]
            bits[start::3] = part & ~np.uint64(0x7FF << 52) | exponents << np.uint64(52)
        x = bits.view(np.float64).reshape(-1, 8)
        header = [f"x{j}" for j in range(8)]
        assert written(tmp_path / "t.csv", header, [x]) == per_cell_text(header, [x])


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
