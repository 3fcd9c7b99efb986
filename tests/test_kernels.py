"""The vectorised kernels against the scalar reference loops in oracles.py.

The two differ only in summation order and in np.exp/np.log against math.*,
so agreement is checked to a tolerance (1e-12 per kernel, 1e-10 after a
short training run), scaled by the magnitude of the reference value.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ordview import _kernels as _k
from ordview.clm import LINKS
from ordview.ensemble import optimize_weights
from ordview.model import METHODS, method_config, predict_proba_batch, train

KERNEL_TOL = 1e-12
TRAIN_TOL = 1e-10

seeds = st.integers(0, 2**32 - 1)
batch_sizes = st.integers(1, 20)
class_counts = st.integers(2, 6)
kernel_settings = settings(max_examples=25, deadline=None)


def assert_close(actual, expected, tol):
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    scale = max(1.0, float(np.max(np.abs(expected), initial=0.0)))
    assert float(np.max(np.abs(actual - expected), initial=0.0)) <= tol * scale


def prob_rows(rng, n, j):
    """Dirichlet rows, a few pushed onto the simplex corners so that the
    1e-12 log clamps are exercised too."""
    p = rng.dirichlet(np.full(j, 0.5), size=n)
    corner = rng.random(n) < 0.2
    p[corner] = np.eye(j)[rng.integers(0, j, size=corner.sum())]
    return p


def clm_thresholds(rng, j):
    b1 = float(rng.normal())
    deltas = rng.normal(size=j - 2)
    d_min = float(rng.choice([0.0, 0.5]))
    return b1, deltas, d_min


@pytest.mark.parametrize("link", LINKS)
@kernel_settings
@given(seed=seeds, n=batch_sizes)
def test_link_inverse_and_derivative(link, seed, n):
    x = np.random.default_rng(seed).uniform(-40.0, 40.0, size=n)
    assert_close(
        _k.link_inverse(x, link),
        [oracles.link_inverse(v, link) for v in x],
        KERNEL_TOL,
    )
    assert_close(
        _k.link_inverse_deriv(x, link),
        [oracles.link_inverse_deriv(v, link) for v in x],
        KERNEL_TOL,
    )


@kernel_settings
@given(seed=seeds, n=batch_sizes, j=class_counts)
def test_softmax_forward_and_backward(seed, n, j):
    rng = np.random.default_rng(seed)
    scores = rng.normal(scale=5.0, size=(n, j))
    upstream = rng.normal(size=(n, j))
    probs = _k.softmax_batch(scores)
    assert_close(probs, oracles.softmax_batch(scores), KERNEL_TOL)
    assert_close(
        _k.softmax_backward_batch(probs, upstream),
        oracles.softmax_backward_batch(probs, upstream),
        KERNEL_TOL,
    )


@pytest.mark.parametrize("link", LINKS)
@kernel_settings
@given(seed=seeds, n=batch_sizes, j=class_counts)
def test_clm_forward_and_backward(link, seed, n, j):
    rng = np.random.default_rng(seed)
    b1, deltas, d_min = clm_thresholds(rng, j)
    b = _k.materialize_thresholds_raw(b1, deltas, d_min)
    assert_close(b, oracles.materialize_thresholds_raw(b1, deltas, d_min), KERNEL_TOL)
    latent = rng.normal(scale=3.0, size=n)
    for got, ref in zip(
        _k.clm_forward_batch(latent, b, link),
        oracles.clm_forward_batch(latent, b, link),
    ):
        assert_close(got, ref, KERNEL_TOL)
    upstream = rng.normal(size=(n, j))
    grad_f, grad_b = _k.clm_backward_batch(latent, b, link, upstream)
    ref_f, ref_b = oracles.clm_backward_batch(latent, b, link, upstream)
    assert_close(grad_f, ref_f, KERNEL_TOL)
    assert_close(grad_b, ref_b, KERNEL_TOL)
    gb1, gd = _k.threshold_param_grads(deltas, grad_b)
    ref_b1, ref_d = oracles.threshold_param_grads(deltas, ref_b)
    assert_close(gb1, ref_b1, KERNEL_TOL)
    assert_close(gd, ref_d, KERNEL_TOL)


@pytest.mark.parametrize("loss", ("cce", "cdwce", "slace"))
@kernel_settings
@given(seed=seeds, n=batch_sizes, j=class_counts)
def test_loss_value_and_gradient(loss, seed, n, j):
    rng = np.random.default_rng(seed)
    probs = prob_rows(rng, n, j)
    targets = prob_rows(rng, n, j)
    labels = rng.integers(0, j, size=n)
    alpha = float(rng.uniform(0.25, 2.0))
    total, grad = _k.loss_batch(probs, targets, labels, loss, alpha)
    ref_total, ref_grad = oracles.loss_batch(probs, targets, labels, loss, alpha)
    assert_close(total, ref_total, KERNEL_TOL)
    assert_close(grad, ref_grad, KERNEL_TOL)


@pytest.mark.parametrize("head", ("softmax", "clm"))
@pytest.mark.parametrize("backbone", ("linear", "one_hidden"))
@kernel_settings
@given(seed=seeds, n=batch_sizes, j=class_counts, link=st.sampled_from(LINKS))
def test_forward_batch(head, backbone, seed, n, j, link):
    rng = np.random.default_rng(seed)
    d, h = 5, 6
    k_out = 1 if head == "clm" else j
    width = h if backbone == "one_hidden" else d
    w1, c1 = rng.normal(size=(d, h)), rng.normal(size=h)
    w2, c2 = rng.normal(size=(width, k_out)), rng.normal(size=k_out)
    b1, deltas, d_min = clm_thresholds(rng, j)
    args = (backbone, head, link, d_min, w1, c1, w2, c2, np.array([b1]), deltas)
    x = rng.normal(size=(n, d))
    assert_close(
        _k.forward_batch(x, *args), oracles.forward_batch(x, *args), KERNEL_TOL
    )


def _ordinal_data():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(60, 5))
    latent = x[:, 0] * 1.5 + x[:, 1] * 0.5 + rng.normal(size=60) * 0.3
    y = np.digitize(latent, [-1.0, 0.0, 1.0]).astype(np.int64)
    return x, y


@pytest.mark.parametrize("backbone", ("linear", "one_hidden"))
@pytest.mark.parametrize("method", METHODS)
def test_train_matches_oracle_sgd(method, backbone, monkeypatch):
    """A 40-epoch fit through model.train: the oracle SGD replays the same
    run_sgd call (same initial parameters, targets and shuffles)."""
    x, y = _ordinal_data()
    replays = []
    run_sgd = _k.run_sgd

    def replay(*args):
        ref_args = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
        replays.append((ref_args, oracles.run_sgd(*ref_args)))
        return run_sgd(*args)

    monkeypatch.setattr(_k, "run_sgd", replay)
    cfg = method_config(method, 4, None, seed=7, epochs=40, backbone=backbone,
                        hidden_width=6)
    model = train(cfg, x, y)

    [(ref_args, ref_losses)] = replays
    head_args = ref_args[6:10]
    w1, c1, w2, c2, b1, deltas = ref_args[10:16]
    assert_close(model.epoch_losses, ref_losses, TRAIN_TOL)
    for got, ref in zip((model.w1, model.c1, model.w2, model.c2), (w1, c1, w2, c2)):
        assert_close(got, ref, TRAIN_TOL)
    if cfg.head == "clm":
        assert_close(model.clm.b1, b1[0], TRAIN_TOL)
        assert_close(model.clm.deltas, deltas, TRAIN_TOL)
    assert_close(
        predict_proba_batch(model, x),
        oracles.forward_batch(x, *head_args, w1, c1, w2, c2, b1, deltas),
        TRAIN_TOL,
    )


def dyadic_rows(j):
    """Every probability row with entries in {0, 1/4, 1/2, 1}. A weight times
    such an entry is exact, and on these rows one dot product per candidate
    and one tensordot over all candidates give bitwise equal sums, so exact
    ties between classes break the same way in both. (On a 1/3 grid they do
    not: the two round differently.)"""
    grid = np.array(np.meshgrid(*[(0.0, 0.25, 0.5, 1.0)] * j)).reshape(j, -1).T
    return grid[grid.sum(axis=1) == 1.0]


@pytest.mark.parametrize("instance", range(30))
def test_optimize_weights_matches_candidate_loop(instance):
    """Even instances draw rows from dyadic_rows, so many candidates tie on
    validation AMAE and the first-lowest rule decides."""
    rng = np.random.default_rng(instance)
    n_views, n, j = (int(v) for v in rng.integers((1, 1, 2), (4, 40, 6)))
    if instance % 2 == 0:
        rows = dyadic_rows(j)
        probs = rows[rng.integers(0, len(rows), size=(n_views, n))]
    else:
        probs = rng.dirichlet(np.ones(j), size=(n_views, n))
    y = rng.integers(0, j, size=n)
    n_candidates = int(rng.integers(1, 1001))
    w = optimize_weights(list(probs), y, n_candidates=n_candidates, seed=instance)
    ref = oracles.optimize_weights_loop(list(probs), y, n_candidates, seed=instance)
    np.testing.assert_array_equal(w.w, ref)
