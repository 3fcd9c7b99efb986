"""Hand-computed loss values and central-difference gradient checks through
one-row ``loss_rows`` + ``loss_batch`` calls, and the SORD targets the sord
and slace losses train against."""

import math

import numpy as np

from ordview._kernels import (
    loss_batch,
    loss_rows,
    softmax_backward_batch,
    softmax_batch,
)
from ordview.softlabel import SORD_TRANSFORMS, SordConfig, target_matrix


def one_row(loss, p, target=None, k=0, alpha=1.0):
    """(value, gradient) of a loss at one probability vector p."""
    p = np.asarray(p, dtype=np.float64)
    target = np.zeros(p.size) if target is None else np.asarray(target, dtype=np.float64)
    rows = loss_rows(target.reshape(1, -1), np.array([k]), loss, alpha)
    value, grad = loss_batch(p.reshape(1, -1), rows, loss)
    return float(value), grad[0]


def slace_row(p, k, beta):
    targets = target_matrix(len(p), SordConfig(beta=beta, transform="max"))[k]
    return one_row("slace", p, targets, k)


class TestCce:
    def test_one_hot_value(self):
        value, grad = one_row("cce", [0.2, 0.6, 0.2], [0.0, 1.0, 0.0])
        assert abs(value - (-math.log(0.6))) < 1e-12
        assert np.allclose(grad, [0.0, -1.0 / 0.6, 0.0])

    def test_soft_target_value(self):
        p = np.array([0.5, 0.3, 0.2])
        t = np.array([0.6, 0.3, 0.1])
        expected = -np.sum(t * np.log(p))
        assert abs(one_row("cce", p, t)[0] - expected) < 1e-12

    def test_clamped_at_zero(self):
        value, grad = one_row("cce", [0.0, 1.0], [1.0, 0.0])
        assert math.isfinite(value)
        assert np.all(np.isfinite(grad))


class TestCdwce:
    def test_direct_sum(self):
        p = np.array([0.2, 0.6, 0.2])
        alpha = 0.75
        k = 1
        expected = -sum(
            abs(j - k) ** alpha * math.log(1.0 - p[j]) for j in range(3) if j != k
        )
        assert abs(one_row("cdwce", p, k=k, alpha=alpha)[0] - expected) < 1e-12

    def test_perfect_prediction_is_zero(self):
        value, _ = one_row("cdwce", [0.0, 1.0, 0.0], k=1)
        assert abs(value) < 1e-9


class TestSordTargets:
    def test_max_transform_reference(self):
        t = target_matrix(3, SordConfig(beta=1.0, transform="max"))[1]
        e = np.exp(-np.array([1.0, 0.0, 1.0]))
        assert np.allclose(t, e / e.sum())
        assert abs(t[1] - 0.57611688) < 1e-7

    def test_all_transforms_unimodal(self):
        for transform in SORD_TRANSFORMS:
            for j in (3, 4, 5, 10):
                for k in range(j):
                    for beta in (0.3, 1.0, 4.0, 25.0):
                        cfg = SordConfig(beta=beta, transform=transform)
                        t = target_matrix(j, cfg)[k]
                        assert abs(t.sum() - 1.0) < 1e-9
                        assert np.argmax(t) == k
                        peak = int(np.argmax(t))
                        assert np.all(np.diff(t[: peak + 1]) >= -1e-12)
                        assert np.all(np.diff(t[peak:]) <= 1e-12)

    def test_transforms_differ(self):
        rows = {
            tr: tuple(target_matrix(5, SordConfig(beta=2.0, transform=tr))[1])
            for tr in SORD_TRANSFORMS
        }
        # division-family scores differ from distance-family scores
        assert rows["max"] != rows["log"]
        assert rows["max"] != rows["division"]
        assert rows["log"] != rows["norm_log"]

    def test_beta_sharpens(self):
        soft = target_matrix(5, SordConfig(beta=0.3, transform="max"))[2]
        sharp = target_matrix(5, SordConfig(beta=25.0, transform="max"))[2]
        assert sharp[2] > soft[2]


class TestSlace:
    def test_prefix_sum_oracle(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        k = 2
        beta = 1.5
        t = target_matrix(4, SordConfig(beta=beta, transform="max"))[k]
        expected = 0.0
        tc = 0.0
        pc = 0.0
        for j in range(3):
            tc += t[j]
            pc += p[j]
            expected -= tc * math.log(pc) + (1.0 - tc) * math.log(1.0 - pc)
        assert abs(slace_row(p, k, beta)[0] - expected) < 1e-12

    def test_clamped_at_edges(self):
        value, grad = slace_row([1.0, 0.0, 0.0], 2, 1.0)
        assert math.isfinite(value)
        assert np.all(np.isfinite(grad))


def random_simplex(rng, n):
    p = rng.dirichlet(np.ones(n))
    # keep coordinates away from the clamp so finite differences are clean
    p = 0.98 * p + 0.02 / n
    return p / p.sum()


def grad_error(value_grad, point, step=1e-5):
    """Max relative error between the analytic gradient of value_grad (a
    function returning (value, gradient)) and central differences at point;
    the denominator is max(|analytic|, |numeric|, 1e-6) per coordinate."""
    analytic = value_grad(point)[1]
    numeric = np.empty_like(point)
    for i in range(point.size):
        hi = point.copy()
        lo = point.copy()
        hi[i] += step
        lo[i] -= step
        numeric[i] = (value_grad(hi)[0] - value_grad(lo)[0]) / (2.0 * step)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def cce_of_logits(z, t):
    """cce of softmax(z) against t, its gradient chained through the softmax."""
    probs = softmax_batch(z.reshape(1, -1))
    value, grad = one_row("cce", probs[0], t)
    return value, softmax_backward_batch(probs, grad.reshape(1, -1))[0]


class TestGradCheck:
    def test_cce_prob_and_logit(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            t = random_simplex(rng, n)
            p = random_simplex(rng, n)
            assert grad_error(lambda v: one_row("cce", v, t), p) < 1e-4
            z = rng.normal(size=n)
            assert grad_error(lambda v: cce_of_logits(v, t), z) < 1e-4

    def test_cdwce(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(0, n))
            alpha = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
            p = random_simplex(rng, n)
            err = grad_error(lambda v: one_row("cdwce", v, k=k, alpha=alpha), p)
            assert err < 1e-4

    def test_sord(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(0, n))
            tr = str(rng.choice(SORD_TRANSFORMS))
            p = random_simplex(rng, n)
            t = target_matrix(n, SordConfig(beta=2.0, transform=tr))[k]
            assert grad_error(lambda v: one_row("cce", v, t, k), p) < 1e-4

    def test_slace(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            k = int(rng.integers(0, n))
            p = random_simplex(rng, n)
            assert grad_error(lambda v: slace_row(v, k, 1.0), p) < 1e-4
