import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    acc_brute,
    ari_brute,
    assignment_brute,
    ci_brute,
    ci_chunked,
    km_brute,
    nmi_brute,
    rae_c_brute,
    rae_nc_brute,
)
from survmix.errors import DomainError, ShapeError
from survmix import metrics
from survmix.metrics import (
    MetricsReport,
    _assign_rows,
    ari,
    calibration_slope,
    clustering_accuracy,
    concordance_index,
    evaluate_predictions,
    kaplan_meier,
    nmi,
    rae_c,
    rae_nc,
)


def random_instance(rng, n):
    t = rng.uniform(0.5, 10.0, n).round(1)  # rounding forces time ties
    event = rng.integers(0, 2, n)
    t_hat = rng.uniform(0.5, 10.0, n).round(1)
    return t, event, t_hat


def tied_rows(max_len):
    """(time, event, risk) lists of every length up to max_len, with times
    and risks drawn from ranges that are often much narrower than the list."""
    shape = st.tuples(st.integers(0, max_len), st.integers(0, 20), st.integers(0, max_len))
    return shape.flatmap(lambda s: st.lists(
        st.tuples(st.integers(0, s[1]), st.booleans(), st.integers(-s[2], s[2])),
        min_size=s[0], max_size=s[0]))


class TestConcordance:
    def test_worked_example(self):
        # t=(1,2,3), events=(1,0,1), risk=(2,3,1): 1 concordant of 2 admissible
        assert concordance_index([1, 2, 3], [1, 0, 1], [2, 3, 1]) == pytest.approx(0.5)

    def test_perfect_ranking(self):
        t = np.array([1.0, 2.0, 3.0, 4.0])
        assert concordance_index(t, np.ones(4), -t) == 1.0

    def test_ties_count_discordant(self):
        assert concordance_index([1, 2], [1, 1], [5, 5]) == 0.0

    def test_none_without_admissible_pairs(self):
        assert concordance_index([1, 2], [0, 0], [1, 2]) is None
        assert concordance_index([2, 2], [1, 1], [1, 2]) is None

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            concordance_index([1, 2], [1], [1, 2])

    @pytest.mark.parametrize("t, risk", [
        ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, np.inf], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, 3.0], [1.0, np.nan, 3.0]),
        ([1.0, 2.0, 3.0], [-np.inf, 2.0, 3.0]),
    ], ids=["nan_time", "inf_time", "nan_risk", "minus_inf_risk"])
    def test_non_finite_input_rejected(self, t, risk):
        with pytest.raises(DomainError):
            concordance_index(t, [1, 1, 1], risk)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.booleans(), st.integers(-2, 2)),
                    max_size=40))
    def test_equals_brute_force_on_heavy_ties(self, rows):
        t = [float(r[0]) for r in rows]
        event = [int(r[1]) for r in rows]
        risk = [float(r[2]) for r in rows]
        assert concordance_index(t, event, risk) == ci_brute(t, event, risk)

    @settings(max_examples=100, deadline=None)
    @given(tied_rows(300))
    def test_equals_brute_force_across_block_levels(self, rows):
        # lengths up to 300 run several doubling levels above the base
        # blocks, most of them with a partial last block
        t = [float(r[0]) for r in rows]
        event = [int(r[1]) for r in rows]
        risk = [float(r[2]) for r in rows]
        assert concordance_index(t, event, risk) == ci_brute(t, event, risk)

    @pytest.mark.parametrize("t, event, risk, expected", [
        ([], [], [], None),
        ([1.0], [1], [2.0], None),
        ([3.0, 3.0, 3.0, 3.0], [1, 1, 0, 1], [1.0, 4.0, 2.0, 3.0], None),
        ([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1], [2.0, 2.0, 2.0, 2.0], 0.0),
        ([1.0, 2.0], [1, 1], [-0.0, 0.0], 0.0),
        ([1.0, 2.0], [1, 1], [0.0, -0.0], 0.0),
    ], ids=["empty", "single_row", "all_times_tied", "all_risks_tied",
            "minus_zero_then_zero", "zero_then_minus_zero"])
    def test_edge_cases(self, t, event, risk, expected):
        result = concordance_index(t, event, risk)
        assert result == expected and type(result) is type(expected)

    def test_long_input_equals_chunked_pair_count(self):
        rng = np.random.default_rng(12)
        n = 4000
        t = rng.integers(0, 300, n).astype(float)  # about 13 rows per time
        event = rng.integers(0, 2, n)
        risk = rng.normal(size=n).round(2)
        assert concordance_index(t, event, risk) == ci_chunked(t, event, risk)

    def test_large_input_memory(self):
        rng = np.random.default_rng(9)
        n = 60000
        t = rng.uniform(0.5, 10.0, n).round(2)
        event = rng.integers(0, 2, n)
        risk = rng.normal(size=n)
        tracemalloc.start()
        try:
            ci = concordance_index(t, event, risk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.4 < ci < 0.6
        assert peak < 24e6, f"peak {peak / 1e6:.1f} MB"

    def test_evaluate_large_test_set_memory(self):
        rng = np.random.default_rng(8)
        n = 18000
        t = rng.uniform(0.5, 10.0, n).round(2)
        event = rng.integers(0, 2, n)
        t_hat = rng.uniform(0.5, 10.0, n).round(2)
        labels = rng.integers(0, 3, n)
        tracemalloc.start()
        try:
            report = evaluate_predictions(t, event, t_hat=t_hat, risk=-t_hat,
                                          true_labels=labels, pred_labels=labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ci is not None and report.acc == 1.0
        assert peak < 50e6, f"peak {peak / 1e6:.1f} MB"


class TestRae:
    def test_event_rows_only(self):
        # rows: (t=2, t_hat=1, event) -> 1.0 ; censored row ignored
        assert rae_nc([2, 5], [1, 1], [1, 0]) == pytest.approx(1.0)

    def test_censored_overshoot_unpenalized(self):
        # t_hat > t on a censored row is consistent with censoring
        assert rae_c([2.0], [5.0], [0]) == 0.0

    def test_censored_undershoot_penalized(self):
        assert rae_c([4.0], [2.0], [0]) == pytest.approx(1.0)

    def test_none_when_empty_stratum(self):
        assert rae_nc([1.0], [1.0], [0]) is None
        assert rae_c([1.0], [1.0], [1]) is None


class TestCalibration:
    def test_perfect_predictions_slope_one(self):
        t = np.array([1.0, 3.0, 2.0])
        assert calibration_slope(t, t, np.ones(3)) == pytest.approx(1.0)

    def test_halved_predictions_slope_two(self):
        t = np.array([2.0, 4.0, 6.0])
        assert calibration_slope(t, t / 2, np.ones(3)) == pytest.approx(2.0)

    def test_uses_sorted_marginals_not_pairing(self):
        # predictions are a permutation of the truth: QQ slope stays 1
        t = np.array([1.0, 2.0, 3.0])
        assert calibration_slope(t, t[::-1], np.ones(3)) == pytest.approx(1.0)

    def test_none_with_under_two_events(self):
        assert calibration_slope([1.0, 2.0], [1.0, 2.0], [1, 0]) is None

    def test_none_with_all_zero_predictions(self):
        assert calibration_slope([1.0, 2.0], [0.0, 0.0], [1, 1]) is None


class TestHungarian:
    def test_identity_matrix(self):
        perm = _assign_rows(np.eye(3).__getitem__, 3, 3)
        cost = np.eye(3)[np.arange(3), perm].sum()
        assert cost == 0.0
        assert sorted(perm.tolist()) == [0, 1, 2]

    def test_known_example(self):
        cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        perm = _assign_rows(cost.__getitem__, *cost.shape)
        total = cost[np.arange(3), perm].sum()
        np.testing.assert_array_equal(perm, [1, 0, 2])
        assert total == 5.0

    def test_matches_exhaustive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            cost = rng.uniform(-5, 5, (n, n))
            fast = cost[np.arange(n), _assign_rows(cost.__getitem__, *cost.shape)].sum()
            _, brute = assignment_brute(cost)
            assert fast == pytest.approx(brute, abs=1e-12)


class TestClusteringScores:
    def test_acc_label_permutation_invariant(self):
        true = [0, 0, 1, 1, 2, 2]
        pred = [2, 2, 0, 0, 1, 1]
        assert clustering_accuracy(true, pred) == 1.0

    def test_acc_unequal_label_counts(self):
        # 3 predicted clusters vs 2 true: one predicted cluster stays unmatched
        assert clustering_accuracy([0, 0, 1, 1], [0, 1, 2, 2]) == pytest.approx(0.75)

    def test_nmi_perfect_and_constant(self):
        assert nmi([0, 1, 0, 1], [1, 0, 1, 0]) == pytest.approx(1.0)
        assert nmi([0, 1, 0, 1], [0, 0, 0, 0]) == 0.0

    def test_ari_perfect_and_random(self):
        assert ari([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
        # one point per cluster vs one big cluster has expected = max index
        assert ari([0, 1, 2, 3], [0, 0, 0, 0]) == 0.0

    def test_against_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            true = rng.integers(0, 4, n).tolist()
            pred = rng.integers(0, 4, n).tolist()
            assert clustering_accuracy(true, pred) == pytest.approx(
                acc_brute(true, pred), abs=1e-12
            )
            assert nmi(true, pred) == pytest.approx(nmi_brute(true, pred), abs=1e-12)
            assert ari(true, pred) == pytest.approx(ari_brute(true, pred), abs=1e-12)

    def test_empty_labels_rejected(self):
        with pytest.raises(ShapeError):
            clustering_accuracy([], [])

    @pytest.mark.parametrize("score", [nmi, ari, clustering_accuracy])
    def test_unequal_label_lengths_rejected(self, score):
        with pytest.raises(ShapeError, match="^label arrays must have equal length$"):
            score([0, 1, 1], [0, 1])

    def test_ari_needs_two_points(self):
        with pytest.raises(ShapeError, match="^need at least 2 points$"):
            ari([0], [0])

    def test_many_distinct_labels_use_linear_memory(self):
        # 3000 true labels, 3 predicted: memory must stay O(U K), not O(U^2)
        true = np.arange(3000)
        tracemalloc.start()
        try:
            acc = clustering_accuracy(true, true % 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert acc == 0.001
        assert peak < 5e6, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("score", [nmi, ari, clustering_accuracy])
    def test_many_labels_on_both_sides_use_linear_memory(self, score):
        # 3000 labels against 3000: only the 3000 nonzero cells are read,
        # not a 3000 x 3000 table
        true = np.arange(3000)
        tracemalloc.start()
        try:
            value = score(true, true[::-1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 1.0
        assert peak < 5e6, f"peak {peak / 1e6:.1f} MB"


def square_int_costs(n):
    return st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                    min_size=n, max_size=n)


class TestMatchingOnTies:
    """Integer costs and contingency tables are full of tied optima."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 6).flatmap(square_int_costs))
    def test_hungarian_equals_brute_force_on_integer_costs(self, rows):
        cost = np.array(rows, dtype=float)
        perm = _assign_rows(cost.__getitem__, *cost.shape)
        total = cost[np.arange(len(cost)), perm].sum()
        assert sorted(perm.tolist()) == list(range(len(cost)))
        assert total == cost[np.arange(len(cost)), perm].sum()
        assert total == assignment_brute(cost)[1]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2)), min_size=1, max_size=14))
    def test_accuracy_equals_brute_force_on_unequal_label_counts(self, rows):
        true = [r[0] for r in rows]
        pred = [r[1] for r in rows]
        assume(len(set(true)) != len(set(pred)))
        assert clustering_accuracy(true, pred) == acc_brute(true, pred)
        assert clustering_accuracy(pred, true) == acc_brute(pred, true)


class TestSurvivalMetricsAgainstBruteForce:
    def test_hundred_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            t, event, t_hat = random_instance(rng, n)
            risk = -t_hat
            fast = concordance_index(t, event, risk)
            brute = ci_brute(t, event, risk)
            if brute is None:
                assert fast is None
            else:
                assert fast == pytest.approx(brute, abs=1e-12)
            for fast_fn, brute_fn in ((rae_nc, rae_nc_brute), (rae_c, rae_c_brute)):
                f = fast_fn(t, t_hat, event)
                b = brute_fn(t, t_hat, event)
                if b is None:
                    assert f is None
                else:
                    assert f == pytest.approx(b, abs=1e-12)


class TestKaplanMeier:
    def test_no_censoring_is_empirical_survival(self):
        times, surv = kaplan_meier([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1])
        np.testing.assert_array_equal(times, [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(surv, [0.75, 0.5, 0.25, 0.0])

    def test_textbook_censored_example(self):
        # events at 1 and 3; censored at 2 shrinks the risk set only
        times, surv = kaplan_meier([1.0, 2.0, 3.0], [1, 0, 1])
        np.testing.assert_array_equal(times, [1.0, 3.0])
        np.testing.assert_allclose(surv, [2.0 / 3.0, 0.0])

    def test_tied_event_times_single_step(self):
        times, surv = kaplan_meier([2.0, 2.0, 5.0], [1, 1, 1])
        np.testing.assert_array_equal(times, [2.0, 5.0])
        np.testing.assert_allclose(surv, [1.0 / 3.0, 0.0])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.1, 10.0), st.integers(0, 1)),
                    min_size=1, max_size=20))
    def test_monotone_within_unit_interval(self, rows):
        t = [r[0] for r in rows]
        e = [r[1] for r in rows]
        _, surv = kaplan_meier(t, e)
        assert np.all(surv >= -1e-12) and np.all(surv <= 1.0 + 1e-12)
        assert np.all(np.diff(surv) <= 1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            kaplan_meier([], [])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 1)),
                    min_size=1, max_size=40),
           st.sampled_from([1.0, 0.1, 1e-300, 3.7e9]))
    def test_bitwise_equal_to_tie_group_loop(self, rows, unit):
        # few distinct times, so most inputs carry tied and censored rows
        t = [r[0] * unit for r in rows]
        e = [r[1] for r in rows]
        times, surv = kaplan_meier(t, e)
        ref_times, ref_surv = km_brute(t, e)
        assert times.dtype == ref_times.dtype and surv.dtype == ref_surv.dtype
        assert times.tobytes() == ref_times.tobytes()
        assert surv.tobytes() == ref_surv.tobytes()


def _seeded_labels(n, k, seed):
    return np.random.default_rng(seed).integers(0, k, n)


# (true labels, predicted labels) that evaluate_predictions scores from one
# contingency table; "many_true" has more true labels than predicted ones,
# so the accuracy scorer swaps rows and columns
SHARED_TABLE_LABELS = {
    "seeded_3_by_3": lambda: (_seeded_labels(1500, 3, 0), _seeded_labels(1500, 3, 1)),
    "many_true": lambda: (np.arange(3000), np.arange(3000) % 3),
    "constant_prediction": lambda: (_seeded_labels(1500, 3, 2), np.zeros(1500, dtype=int)),
    "strings": lambda: (np.array(["a", "b", "c", "b"] * 50),
                        np.array(["x", "x", "y", "z", "y"] * 40)),
}


class TestReport:
    @pytest.mark.parametrize("case", sorted(SHARED_TABLE_LABELS))
    def test_label_scores_equal_the_public_functions(self, case, monkeypatch):
        true, pred = SHARED_TABLE_LABELS[case]()
        tables, build = [], metrics._cells

        def counted_cells(a, b):
            tables.append(build(a, b))
            return tables[-1]

        monkeypatch.setattr(metrics, "_cells", counted_cells)
        report = evaluate_predictions(t=[1.0], event=[1], true_labels=true, pred_labels=pred)
        assert len(tables) == 1
        monkeypatch.undo()
        expected = (clustering_accuracy(true, pred), nmi(true, pred), ari(true, pred))
        got = (report.acc, report.nmi, report.ari)
        assert np.array(got).tobytes() == np.array(expected).tobytes()
        if case == "constant_prediction":
            assert report.nmi == 0.0

    @pytest.mark.parametrize("true, pred, message", [
        ([0], [1], "^need at least 2 points$"),
        ([0, 1, 1], [0, 1], "^label arrays must have equal length$"),
    ], ids=["one_row", "unequal_lengths"])
    def test_label_errors_pass_through(self, true, pred, message):
        with pytest.raises(ShapeError, match=message):
            evaluate_predictions(t=[1.0], event=[1], true_labels=true, pred_labels=pred)

    def test_assembler_fills_available_fields(self):
        report = evaluate_predictions(
            t=[1.0, 2.0, 3.0], event=[1, 1, 0], t_hat=[1.0, 2.0, 3.0],
            risk=[-1.0, -2.0, -3.0], true_labels=[0, 1, 1], pred_labels=[0, 1, 1],
        )
        assert report.ci == 1.0 and report.acc == 1.0
        assert report.rae_nc == pytest.approx(0.0)

    def test_missing_inputs_stay_none(self):
        report = evaluate_predictions(t=[1.0, 2.0], event=[1, 1])
        assert report.ci is None and report.acc is None

    def test_to_text_format(self):
        text = MetricsReport(ci=0.5).to_text()
        assert "ci = 0.5" in text
        assert "acc = NA" in text
