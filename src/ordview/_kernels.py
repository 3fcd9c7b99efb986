"""Numeric kernels: batched heads, losses, and the minibatch SGD loop.

Every kernel works on a whole batch with numpy array operations. The string
options of the public API (backbone ``"linear"``/``"one_hidden"``, head
``"softmax"``/``"clm"``, link one of ``LINKS``, loss family
``"cce"``/``"cdwce"``/``"slace"``) are dispatched in Python. Python loops run
only over epochs and minibatches. These kernels are the only implementation
of the link, threshold and loss math; there is no per-sample API, so a single
sample is a one-row batch.

At minibatch size (32 x 10) a step costs numpy call overhead, not
arithmetic, so ``run_sgd`` does each piece of work as rarely as it can:

* per fit: the loss's per-row constants (``loss_rows``);
* per epoch: the shuffled copies of ``x`` and of those constants, so that
  a step takes basic slices (views) of them instead of gathering rows;
* per step: the forward pass, the loss and the backward pass. The CLM
  head computes b - f and the link response once and reuses both in its
  backward pass. Sums, prefix sums and clamps call the ufuncs
  (``np.add.reduce``, ``np.add.accumulate``, ``np.minimum``/``np.maximum``)
  directly rather than through the slower ``np.sum``/``np.cumsum``/
  ``np.clip`` wrappers, with the same arithmetic in the same order.

Numerical conventions shared with the public modules:

* probabilities are clamped to [1e-12, 1 - 1e-12] inside log terms;
* the complementary log-log inner exponent is clamped to [-30, 30];
* exponentials only ever see non-positive (or NaN) arguments, so a fit that
  diverges surfaces as NaN epoch losses or non-finite parameters; ``run_sgd``
  silences the overflow and invalid-value warnings on the way there, and
  ``model.train`` turns either into its one signal, ``TrainingDiverged``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

LINKS = ("logit", "probit", "cloglog")

P_CLAMP = 1e-12
CLOGLOG_CLAMP = 30.0

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def link_inverse(x, link):
    """Inverse link g^{-1}(x), the cumulative-probability response."""
    if link == "logit":
        e = np.exp(-np.abs(x))
        one_e = 1.0 + e
        return np.where(x >= 0.0, 1.0 / one_e, e / one_e)
    if link == "probit":
        return 0.5 * (1.0 + erf(x / _SQRT2))
    inner = np.minimum(np.maximum(x, -CLOGLOG_CLAMP), CLOGLOG_CLAMP)
    return 1.0 - np.exp(-np.exp(inner))


def link_inverse_deriv(x, c, link):
    """d/dx of link_inverse, given c = link_inverse(x, link): the logit
    derivative is c (1 - c). Zero in the cloglog clamp region, where the
    forward value is constant."""
    if link == "logit":
        return c * (1.0 - c)
    if link == "probit":
        return np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    inner = np.minimum(np.maximum(x, -CLOGLOG_CLAMP), CLOGLOG_CLAMP)
    clamped = np.abs(x) > CLOGLOG_CLAMP
    return np.where(clamped, 0.0, np.exp(inner - np.exp(inner)))


def materialize_thresholds_raw(b1, deltas, d_min):
    """Strictly increasing thresholds from the unconstrained parameters.

    b[0] = b1, b[j] = b[j-1] + d_min + deltas[j-1]**2 (+ 1e-6 iff d_min == 0).
    deltas has J-2 entries; the result has J-1.
    """
    eps = 1e-6 if d_min == 0.0 else 0.0
    steps = d_min + deltas * deltas + eps
    b = np.empty(deltas.shape[0] + 1)
    b[0] = b1
    np.add(b1, np.add.accumulate(steps), out=b[1:])
    return b


def softmax_batch(scores):
    """Row-wise softmax with max subtraction; exp never sees positive args."""
    e = scores - np.maximum.reduce(scores, axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e


def softmax_backward_batch(probs, grad_probs):
    """Chain dL/dp through the softmax: dL/ds_j = p_j (g_j - sum_m p_m g_m)."""
    dot = np.add.reduce(probs * grad_probs, axis=1, keepdims=True)
    return probs * (grad_probs - dot)


def clm_probs(c):
    """(cum, probs) from the link responses c[i, j] = g^{-1}(b_j - f_i).

    cum is c forced non-decreasing against round-off; probs[i] holds its
    first differences and the tail class, renormalized (a round-off guard;
    the sum is already 1 up to machine precision).
    """
    cum = np.maximum.accumulate(c, axis=1)
    probs = np.empty((cum.shape[0], cum.shape[1] + 1))
    probs[:, 0] = cum[:, 0]
    np.subtract(cum[:, 1:], cum[:, :-1], out=probs[:, 1:-1])
    np.maximum(1.0 - cum[:, -1], 0.0, out=probs[:, -1])
    tot = np.add.reduce(probs, axis=1, keepdims=True)
    np.divide(probs, tot, out=probs, where=tot > 0.0)
    return cum, probs


def clm_forward_batch(latent, thresholds, link):
    """Cumulative-link head for a batch of latent scores: the (cum, probs)
    of ``clm_probs`` at c[i, j] = g^{-1}(b_j - f_i)."""
    return clm_probs(link_inverse(thresholds - latent[:, None], link))


def clm_backward_batch(gap, c, link, grad_probs):
    """Backprop dL/dp through the cumulative-link head.

    gap[i, j] = b_j - f_i and c = link_inverse(gap, link), as in the forward
    pass. With dL/dcum_j = g_j - g_{j+1} (g = grad_probs row), returns
    per-sample latent gradients and threshold gradients summed over the
    batch.
    """
    dc = grad_probs[:, :-1] - grad_probs[:, 1:]
    term = link_inverse_deriv(gap, c, link) * dc
    return -np.add.reduce(term, axis=1), np.add.reduce(term, axis=0)


def threshold_param_grads(deltas, grad_thresholds):
    """Chain threshold gradients to (b1, deltas).

    b_j depends on delta_m for m < j via delta_m**2, so
    d/d(delta_m) = 2 delta_m * sum_{j > m} grad_thresholds[j].
    """
    later = np.add.accumulate(grad_thresholds[:0:-1])[::-1]
    return float(np.add.reduce(grad_thresholds)), 2.0 * deltas * later


def loss_rows(targets, labels, loss, loss_alpha):
    """The per-row constants ``loss_batch`` takes, built once per fit.

    * ``"cce"``: the mask ``targets != 0`` and ``-targets``;
    * ``"cdwce"``: the mask ``j != y`` and the weights ``|j - y|**alpha``;
    * ``"slace"``: the prefix sums ``tc`` of ``targets`` over the first J-1
      classes and ``1 - tc``.

    Each is an array with one row per sample, so a minibatch takes the rows
    of its samples.
    """
    if loss == "cce":
        return targets != 0.0, -targets
    if loss == "cdwce":
        dist = np.abs(np.arange(targets.shape[1])[None, :] - labels[:, None])
        return dist != 0, dist.astype(np.float64) ** loss_alpha
    tc = np.add.accumulate(targets[:, :-1], axis=1)
    return tc, 1.0 - tc


def loss_batch(probs, rows, loss):
    """Summed loss over the batch plus per-sample dL/dp, given the batch's
    ``loss_rows``.

    * ``"cce"``: -sum_j t_j log p_j with target rows t.
    * ``"cdwce"``: -sum_{j != y} |j - y|**alpha log(1 - p_j).
    * ``"slace"``: binary cross-entropy between the cumulative sums of the
      target rows and of p over the first J-1 prefixes.

    Log arguments are clamped to [1e-12, 1 - 1e-12] in both the value and
    the gradient. Entries a loss skips (t_j == 0, j == y) contribute exactly
    zero to both, whatever the probability there.
    """
    if loss == "cce":
        used, neg_t = rows
        p = np.minimum(np.maximum(probs, P_CLAMP), 1.0 - P_CLAMP)
        total = np.add.reduce(np.where(used, neg_t * np.log(p), 0.0), axis=None)
        return total, np.where(used, neg_t / p, 0.0)
    if loss == "cdwce":
        used, w = rows
        q = np.minimum(np.maximum(1.0 - probs, P_CLAMP), 1.0 - P_CLAMP)
        total = -np.add.reduce(np.where(used, w * np.log(q), 0.0), axis=None)
        return total, np.where(used, w / q, 0.0)
    tc, one_tc = rows
    q = np.add.accumulate(probs[:, :-1], axis=1)
    q = np.minimum(np.maximum(q, P_CLAMP), 1.0 - P_CLAMP)
    one_q = 1.0 - q
    total = -np.add.reduce(tc * np.log(q) + one_tc * np.log(one_q), axis=None)
    g = -(tc / q - one_tc / one_q)
    # dL/dp_m collects the prefix terms j >= m
    grad = np.zeros(probs.shape)
    np.add.accumulate(g[:, ::-1], axis=1, out=grad[:, -2::-1])
    return total, grad


def _scores(x, backbone, w1, c1, w2, c2):
    """Output-layer scores plus the hidden pre-activation (None if linear)."""
    if backbone == "one_hidden":
        pre = x @ w1 + c1
        z = np.maximum(pre, 0.0)
    else:
        pre = None
        z = x
    return z @ w2 + c2, z, pre


def forward_batch(
    x,
    backbone,
    head,
    link,
    d_min,
    w1,
    c1,
    w2,
    c2,
    clm_b1,
    clm_deltas,
):
    """Full forward pass to class probabilities for a batch."""
    s, _, _ = _scores(x, backbone, w1, c1, w2, c2)
    if head == "softmax":
        return softmax_batch(s)
    b = materialize_thresholds_raw(clm_b1[0], clm_deltas, d_min)
    return clm_forward_batch(s[:, 0], b, link)[1]


def run_sgd(
    x,
    labels,
    targets,
    shuffles,
    loss,
    loss_alpha,
    backbone,
    head,
    link,
    d_min,
    w1,
    c1,
    w2,
    c2,
    clm_b1,
    clm_deltas,
    lr,
    batch_size,
):
    """Plain minibatch SGD, mutating the parameter arrays in place.

    shuffles is an (epochs, n) int64 matrix of precomputed epoch orderings,
    so the exact visit sequence is fixed by the caller. Gradients use the
    batch mean; the final short batch is kept. Returns the per-epoch mean
    sample loss, NaN from the epoch a fit diverges on.
    """
    n = x.shape[0]
    losses = np.empty(shuffles.shape[0])
    rows = loss_rows(targets, labels, loss, loss_alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        for e, order in enumerate(shuffles):
            xe = x[order]
            rows_e = [r[order] for r in rows]
            running = 0.0
            for start in range(0, n, batch_size):
                stop = start + batch_size
                xb = xe[start:stop]
                nb = xb.shape[0]
                s, z, pre = _scores(xb, backbone, w1, c1, w2, c2)
                rows_b = [r[start:stop] for r in rows_e]

                if head == "softmax":
                    probs = softmax_batch(s)
                    batch_loss, grad_p = loss_batch(probs, rows_b, loss)
                    grad_s = softmax_backward_batch(probs, grad_p)
                else:
                    b = materialize_thresholds_raw(clm_b1[0], clm_deltas, d_min)
                    gap = b - s
                    c = link_inverse(gap, link)
                    _, probs = clm_probs(c)
                    batch_loss, grad_p = loss_batch(probs, rows_b, loss)
                    grad_f, grad_b = clm_backward_batch(gap, c, link, grad_p)
                    gb1, gd = threshold_param_grads(clm_deltas, grad_b)
                    grad_s = grad_f[:, None]
                running += batch_loss

                # All gradients are taken at the current parameters; updates
                # are applied only after every gradient below is materialized.
                grad_w2 = z.T @ grad_s
                if backbone == "one_hidden":
                    grad_act = np.where(pre <= 0.0, 0.0, grad_s @ w2.T)
                    w1 -= lr * (xb.T @ grad_act) / nb
                    c1 -= lr * np.add.reduce(grad_act, axis=0) / nb
                w2 -= lr * grad_w2 / nb
                c2 -= lr * np.add.reduce(grad_s, axis=0) / nb
                if head == "clm":
                    clm_b1[0] -= lr * gb1 / nb
                    clm_deltas -= lr * gd / nb
            losses[e] = running / n
    return losses
