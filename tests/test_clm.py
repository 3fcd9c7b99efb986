"""The cumulative-link head at one latent score: thresholds, class
probabilities and gradients through one-row calls of the batch kernels."""

import math

import numpy as np
import pytest

from ordview import _kernels as _k
from ordview.model import D_MIN_GRID, ModelConfig
from ordview.softlabel import SoftLabelConfig


def clm_row(f, b1, deltas, d_min=0.0):
    """Thresholds, cumulative and class probabilities at latent score f."""
    b = _k.materialize_thresholds_raw(b1, np.asarray(deltas, dtype=np.float64), d_min)
    cum, probs = _k.clm_forward_batch(np.array([f]), b)
    return b, cum[0], probs[0]


def clm_row_grads(f, b1, deltas, d_min, upstream):
    """Gradients of upstream . probs in (f, b1, deltas) from the kernels."""
    b = _k.materialize_thresholds_raw(b1, deltas, d_min)
    c = _k.link_inverse(b - np.array([[f]]))
    grad_f, grad_b = _k.clm_backward_batch(c, upstream.reshape(1, -1))
    d_b1, d_deltas = _k.threshold_param_grads(deltas, grad_b)
    return float(grad_f[0]), d_b1, d_deltas


def finite_diff_probs(f, b1, deltas, d_min, step=1e-6):
    """Central differences of every class probability in (f, b1, deltas)."""

    def probs_at(f_, b1_, deltas_):
        return clm_row(f_, b1_, deltas_, d_min)[2]

    d_f = (probs_at(f + step, b1, deltas) - probs_at(f - step, b1, deltas)) / (2 * step)
    d_b1 = (probs_at(f, b1 + step, deltas) - probs_at(f, b1 - step, deltas)) / (2 * step)
    d_deltas = np.empty((deltas.size, deltas.size + 2))
    for m in range(deltas.size):
        hi = deltas.copy()
        lo = deltas.copy()
        hi[m] += step
        lo[m] -= step
        d_deltas[m] = (probs_at(f, b1, hi) - probs_at(f, b1, lo)) / (2 * step)
    return d_f, d_b1, d_deltas


class TestThresholds:
    def test_reference_values(self):
        b = _k.materialize_thresholds_raw(0.0, np.full(2, math.sqrt(1.5)), 0.0)
        assert np.allclose(b, [0.0, 1.5, 3.0], atol=1e-5)

    def test_strictly_increasing_without_dmin(self):
        b = _k.materialize_thresholds_raw(2.0, np.zeros(3), 0.0)
        assert np.all(np.diff(b) > 0)

    def test_dmin_enforces_gap(self):
        b = _k.materialize_thresholds_raw(-1.0, np.zeros(3), 0.5)
        assert np.all(np.diff(b) >= 0.5)

    @pytest.mark.parametrize("d_min", D_MIN_GRID)
    @pytest.mark.parametrize("j", range(2, 11))
    def test_start_gaps(self, j, d_min):
        """A fit's thresholds start at -2, each gap max(4 / (J - 2), d_min),
        or 4 / (J - 2) + 1e-6 at d_min = 0, where the floor reads 1e-6: so
        J = 7 at d_min = 1 spans [-2, 3] and J = 10 spans [-2, 6]."""
        start = _k.initial_thresholds("clm", j, d_min)
        assert start.shape == (j - 1,)
        b = _k.materialize_thresholds_raw(start[0], start[1:], d_min)
        assert b[0] == -2.0
        if j > 2:
            step = 4.0 / (j - 2)
            gap = max(step, d_min) if d_min > 0 else step + 1e-6
            assert np.allclose(np.diff(b), gap, rtol=0.0, atol=1e-12)
        assert np.all(np.diff(b) > 0)

    def test_softmax_start_is_one_zero(self):
        assert _k.initial_thresholds("softmax", 5, 0.5).tolist() == [0.0]


class TestForward:
    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            j = int(rng.integers(2, 9))
            head = (
                float(rng.normal()),
                rng.normal(size=j - 2),
                float(rng.choice([0.0, 0.5, 1.0])),
            )
            _, cum, probs = clm_row(float(rng.normal(scale=3)), *head)
            assert abs(probs.sum() - 1.0) < 1e-9
            assert np.all(probs >= 0)
            assert np.all(np.diff(cum) >= 0)

    def test_translation_invariance(self):
        # shifting f and b1 together leaves the distribution unchanged
        deltas = np.array([0.7, -0.2])
        a = clm_row(0.3, 0.1, deltas)[2]
        b = clm_row(1.3, 1.1, deltas)[2]
        assert np.allclose(a, b, atol=1e-12)

    def test_removed_options_rejected(self):
        # the head has only the logit link, and the soft labels have no
        # uniform kind
        with pytest.raises(TypeError, match="link"):
            ModelConfig(n_classes=4, head="clm", link="probit")
        with pytest.raises(ValueError, match="unknown soft label kind 'uniform'"):
            SoftLabelConfig(kind="uniform")


class TestBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(90):
            j = int(rng.integers(3, 7))
            b1 = float(rng.normal())
            deltas = rng.normal(size=j - 2) + 0.3
            d_min = float(rng.choice([0.0, 0.5]))
            f = float(rng.normal())
            g = rng.normal(size=j)
            g_f, g_b1, g_deltas = clm_row_grads(f, b1, deltas, d_min, g)
            d_f, d_b1, d_deltas = finite_diff_probs(f, b1, deltas, d_min)
            assert abs(g_f - g @ d_f) < 1e-5
            assert abs(g_b1 - g @ d_b1) < 1e-5
            for m in range(deltas.size):
                assert abs(g_deltas[m] - g @ d_deltas[m]) < 1e-5


class TestInvariants:
    def test_random_draw_suite(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            j = int(rng.integers(2, 10))
            d_min = float(rng.choice([0.0, 0.5, 1.0]))
            head = (
                float(rng.normal(scale=2)),
                rng.normal(size=j - 2, scale=2),
                d_min,
            )
            b, cum, probs = clm_row(float(rng.normal(scale=4)), *head)
            gaps = np.diff(b)
            assert np.all(gaps > 0)
            if d_min > 0:
                assert np.all(gaps >= d_min)
            assert np.all(probs >= 0)
            assert abs(probs.sum() - 1.0) < 1e-9
            assert np.all(np.diff(cum) >= -1e-15)
