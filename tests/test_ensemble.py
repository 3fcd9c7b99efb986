import numpy as np
import pytest

from ordview.ensemble import WeightVector, aggregate, optimize_weights
from ordview.metrics import amae


def random_probs(rng, n, j):
    p = rng.dirichlet(np.ones(j), size=n)
    return p


class TestWeightVector:
    def test_valid(self):
        WeightVector(w=np.array([0.25, 0.75]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            WeightVector(w=np.array([-0.1, 1.1]))

    def test_sum_checked(self):
        with pytest.raises(ValueError):
            WeightVector(w=np.array([0.5, 0.6]))


class TestAggregate:
    def test_hand_case(self):
        stack = np.array([[[0.9, 0.1]], [[0.0, 1.0]]])
        out = aggregate(np.array([0.5, 0.5]), stack)
        assert np.allclose(out, [[0.45, 0.55]])

    def test_one_hot_weights_pick_views(self):
        # weight [1.0] on one view is the identity; (C, V) one-hot candidate
        # rows give back each view's matrix, one per candidate
        rng = np.random.default_rng(4)
        stack = np.stack([random_probs(rng, 6, 3) for _ in range(3)])
        assert np.array_equal(aggregate(np.array([1.0]), stack[:1]), stack[0])
        assert np.array_equal(aggregate(np.eye(3), stack), stack)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            aggregate(np.array([1.0]), np.ones((2, 4, 3)) / 3)


class TestOptimizeWeights:
    def test_validation_dominance_50_instances(self):
        rng = np.random.default_rng(0)
        violations = 0
        for trial in range(50):
            v = int(rng.integers(2, 5))
            j = int(rng.integers(3, 6))
            n = int(rng.integers(20, 60))
            y = rng.integers(0, j, size=n)
            y[: j] = np.arange(j)  # every class present
            per_view = [random_probs(rng, n, j) for _ in range(v)]
            w = optimize_weights(per_view, y, n_candidates=200, seed=trial)
            agg_preds = np.argmax(aggregate(w.w, np.stack(per_view)), axis=1)
            best_single = min(
                amae(y, np.argmax(p, axis=1), j) for p in per_view
            )
            if amae(y, agg_preds, j) > best_single + 1e-12:
                violations += 1
        assert violations == 0

    def test_single_view_returns_identity(self):
        rng = np.random.default_rng(1)
        p = random_probs(rng, 30, 4)
        y = rng.integers(0, 4, size=30)
        w = optimize_weights([p], y, n_candidates=10, seed=0)
        assert np.allclose(w.w, [1.0])

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        per_view = [random_probs(rng, 40, 3) for _ in range(3)]
        y = rng.integers(0, 3, size=40)
        w1 = optimize_weights(per_view, y, seed=9)
        w2 = optimize_weights(per_view, y, seed=9)
        assert np.array_equal(w1.w, w2.w)

    def test_oracle_view_gets_full_weight(self):
        # one view is perfect; one-hot candidates guarantee it is found
        rng = np.random.default_rng(3)
        y = rng.integers(0, 3, size=50)
        perfect = np.eye(3)[y]
        noise = random_probs(rng, 50, 3)
        w = optimize_weights([noise, perfect], y, n_candidates=50, seed=0)
        preds = np.argmax(aggregate(w.w, np.stack([noise, perfect])), axis=1)
        assert amae(y, preds, 3) == 0.0

    def test_empty_validation_rejected(self):
        with pytest.raises(ValueError):
            optimize_weights([np.zeros((0, 3))], np.zeros(0, dtype=np.int64))

    def test_non_integer_labels_rejected(self):
        probs = np.full((2, 4, 3), 1.0 / 3.0)
        with pytest.raises(ValueError, match="labels must be integers"):
            optimize_weights(probs, [0.5, 1.7, 2.2, 0.0])
