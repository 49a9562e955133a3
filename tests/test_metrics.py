import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    acc_brute,
    ari_brute,
    assignment_brute,
    ci_brute,
    km_brute,
    nmi_brute,
    rae_c_brute,
    rae_nc_brute,
)
from survmix.errors import DomainError, ShapeError
from survmix.metrics import (
    MetricsReport,
    ari,
    calibration_slope,
    clustering_accuracy,
    concordance_index,
    evaluate_predictions,
    hungarian,
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


class TestHungarian:
    def test_identity_matrix(self):
        perm, cost = hungarian(np.eye(3))
        assert cost == 0.0
        assert sorted(perm.tolist()) == [0, 1, 2]

    def test_known_example(self):
        cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        perm, total = hungarian(cost)
        np.testing.assert_array_equal(perm, [1, 0, 2])
        assert total == 5.0

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            hungarian(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ShapeError):
            hungarian(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_matches_exhaustive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            cost = rng.uniform(-5, 5, (n, n))
            _, fast = hungarian(cost)
            _, brute = assignment_brute(cost)
            assert fast == pytest.approx(brute, abs=1e-12)


class TestClusteringScores:
    def test_acc_label_permutation_invariant(self):
        true = [0, 0, 1, 1, 2, 2]
        pred = [2, 2, 0, 0, 1, 1]
        assert clustering_accuracy(true, pred) == 1.0

    def test_acc_unequal_label_counts(self):
        # 3 predicted clusters vs 2 true: padding handles the mismatch
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


class TestReport:
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
