import warnings

import numpy as np
import pytest

from oracles import per_class_mae_loop, qwk_brute_force
from ordview.core import confusion_matrix
from ordview.metrics import (
    accuracy,
    amae,
    evaluate,
    imbalance_ratio,
    penalty_matrix,
    per_class_mae,
    per_class_sensitivity,
    qwk,
)


class TestPenaltyMatrix:
    def test_structure(self):
        omega = penalty_matrix(4, 2)
        assert omega.shape == (4, 4)
        assert np.allclose(np.diag(omega), 0.0)
        assert np.allclose(omega, omega.T)
        assert omega.max() == 1.0
        assert omega[0, 1] == (1 / 3) ** 2
        assert not omega.flags.writeable

    def test_linear_exponent(self):
        omega = penalty_matrix(3, 1)
        assert np.allclose(omega, [[0, 0.5, 1], [0.5, 0, 0.5], [1, 0.5, 0]])


class TestQwk:
    def test_perfect_diagonal(self):
        cm = np.diag([5, 3, 9, 2])
        assert qwk(cm, 2) == pytest.approx(1.0, abs=1e-12)

    def test_reference_half(self):
        assert qwk(np.array([[1, 1], [0, 2]]), 2) == pytest.approx(0.5, abs=1e-12)

    def test_brute_force_random(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            j = int(rng.integers(2, 9))
            n = int(rng.integers(1, 3))
            cm = rng.integers(0, 20, size=(j, j))
            if cm.sum() == 0 or np.count_nonzero(cm.sum(axis=1)) < 2:
                continue
            expected = qwk_brute_force(cm, n)
            assert qwk(cm, n) == pytest.approx(expected, abs=1e-12)

    def test_scale_invariance(self):
        cm = np.array([[4, 1, 0], [2, 6, 1], [0, 3, 5]])
        assert qwk(cm, 2) == pytest.approx(qwk(3 * cm, 2), abs=1e-12)

    def test_degenerate_margins_rejected(self):
        with pytest.raises(ValueError):
            qwk(np.array([[5, 0], [0, 0]]), 2)

    def test_j_normalization_variant(self):
        cm = np.array([[4, 1, 0], [2, 6, 1], [0, 3, 5]])
        expected = qwk_brute_force(cm, 2, e_normalization="j")
        got = qwk(cm, 2, expected_normalization="j")
        assert got == pytest.approx(expected, abs=1e-12)

    def test_near_zero_for_independent_margins(self):
        rng = np.random.default_rng(5)
        y_true = rng.integers(0, 4, size=100_000)
        y_pred = rng.integers(0, 4, size=100_000)
        cm = confusion_matrix(y_true, y_pred, 4)
        assert abs(qwk(cm, 2)) < 0.05


class TestAmae:
    def test_perfect(self):
        y = np.array([0, 1, 2, 3])
        assert amae(y, y) == 0.0

    def test_reference_case(self):
        y_true = np.array([0, 1, 2, 3])
        y_pred = np.array([1, 1, 2, 2])
        assert amae(y_true, y_pred) == pytest.approx(0.5, abs=1e-12)

    def test_class_replication_invariance(self):
        y_true = np.array([0, 0, 1, 2])
        y_pred = np.array([1, 0, 1, 0])
        doubled_true = np.array([0, 0, 0, 0, 1, 2])
        doubled_pred = np.array([1, 0, 1, 0, 1, 0])
        assert amae(y_true, y_pred) == pytest.approx(
            amae(doubled_true, doubled_pred), abs=1e-12
        )

    def test_missing_class_skipped_with_warning(self):
        y_true = np.array([0, 0, 2, 2])
        y_pred = np.array([0, 1, 2, 1])
        with pytest.warns(UserWarning):
            value = amae(y_true, y_pred, n_classes=4)
        assert value == pytest.approx((0.5 + 0.5) / 2, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            amae(np.array([], dtype=np.int64), np.array([], dtype=np.int64))

    def test_infers_classes_from_both_vectors(self):
        # a prediction above max(y_true) is a valid class, not out of range
        with pytest.warns(UserWarning):
            explicit = amae([0, 1, 1], [0, 2, 1], n_classes=3)
        assert amae([0, 1, 1], [0, 2, 1]) == explicit == pytest.approx(0.25, abs=1e-12)


class TestPerClass:
    def test_sensitivity_reference(self):
        cm = np.array([[1, 1], [0, 2]])
        assert per_class_sensitivity(cm).tolist() == [0.5, 1.0]

    def test_sensitivity_zero_support_is_nan(self):
        cm = np.array([[0, 0], [1, 3]])
        sens = per_class_sensitivity(cm)
        assert np.isnan(sens[0])
        assert sens[1] == 0.75

    def test_mae_reference(self):
        mae = per_class_mae(np.array([0, 0]), np.array([2, 1]), 3)
        assert mae[0] == pytest.approx(1.5, abs=1e-12)
        assert np.isnan(mae[1]) and np.isnan(mae[2])

    def test_mae_matches_loop_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            j = int(rng.integers(2, 7))
            # labels drawn from a random subset of the classes, so some
            # classes are often absent from y_true
            classes = rng.choice(j, size=int(rng.integers(1, j + 1)), replace=False)
            n = int(rng.integers(1, 40))
            y_true = rng.choice(classes, size=n)
            y_pred = rng.integers(0, j, size=n)
            expected = per_class_mae_loop(y_true, y_pred, j)
            got = per_class_mae(y_true, y_pred, j)
            assert np.array_equal(got, expected, equal_nan=True)
            present = ~np.isnan(expected)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                value = amae(y_true, y_pred, j)
            assert len(caught) == int(not present.all())
            assert value == expected[present].mean()


class TestImbalanceRatio:
    def test_balanced(self):
        assert imbalance_ratio(np.array([25, 25, 25, 25])) == pytest.approx(1.0)

    def test_two_class_reference(self):
        assert imbalance_ratio(np.array([10, 30])) == pytest.approx(
            (3 + 1 / 3) / 2, abs=1e-12
        )

    def test_paper_counts(self):
        assert imbalance_ratio(np.array([40, 102, 106, 47])) == pytest.approx(
            1.277, abs=1e-3
        )

    def test_permutation_invariance(self):
        a = imbalance_ratio(np.array([40, 102, 106, 47]))
        b = imbalance_ratio(np.array([106, 40, 47, 102]))
        assert a == pytest.approx(b, abs=1e-15)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            imbalance_ratio(np.array([5, 0, 3]))


class TestEvaluate:
    def test_report_wiring(self):
        y_true = np.array([0, 1, 2, 3, 0, 1, 2, 3])
        y_pred = np.array([0, 1, 2, 3, 1, 1, 2, 2])
        rep = evaluate(y_true, y_pred, 4)
        cm = confusion_matrix(y_true, y_pred, 4)
        assert rep.qwk == pytest.approx(qwk(cm, 2))
        assert rep.accuracy == pytest.approx(accuracy(cm))
        assert rep.amae == pytest.approx(amae(y_true, y_pred, 4))
        assert rep.sens.shape == (4,)
        assert rep.mae_per_class.shape == (4,)

    def test_exponent_flag(self):
        y_true = np.array([0, 1, 2, 0, 1, 2])
        y_pred = np.array([0, 2, 1, 1, 1, 2])
        r1 = evaluate(y_true, y_pred, 3, qwk_exponent=1)
        r2 = evaluate(y_true, y_pred, 3, qwk_exponent=2)
        assert r1.qwk != r2.qwk
