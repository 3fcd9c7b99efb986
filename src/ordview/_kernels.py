"""Numeric kernels: batched heads, losses, and the minibatch SGD loop.

Every kernel works on a whole batch with numpy array operations. The string
options of the public API (backbone ``"linear"``/``"one_hidden"``, head
``"softmax"``/``"clm"``, link ``"logit"``/``"probit"``/``"cloglog"``, loss
family ``"cce"``/``"cdwce"``/``"slace"``) are dispatched in Python. Python
loops run only over epochs and minibatches.

Numerical conventions shared with the public modules:

* probabilities are clamped to [1e-12, 1 - 1e-12] inside log terms;
* the complementary log-log inner exponent is clamped to [-30, 30];
* exponentials only ever see non-positive (or NaN) arguments, so a fit that
  diverges surfaces as NaN epoch losses; ``run_sgd`` silences the overflow
  and invalid-value warnings on the way there, leaving the NaN loss as the
  one signal.
"""

from __future__ import annotations

import math

import numpy as np

P_CLAMP = 1e-12
CLOGLOG_CLAMP = 30.0

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def link_inverse(x, link):
    """Inverse link g^{-1}(x), the cumulative-probability response."""
    if link == "logit":
        e = np.exp(-np.abs(x))
        return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    if link == "probit":
        # imported here: loading scipy.special at package import raises the
        # import-time peak RSS, and only the probit link needs it
        from scipy.special import erf

        return 0.5 * (1.0 + erf(x / _SQRT2))
    inner = np.clip(x, -CLOGLOG_CLAMP, CLOGLOG_CLAMP)
    return 1.0 - np.exp(-np.exp(inner))


def link_inverse_deriv(x, link):
    """d/dx of link_inverse. Zero in the cloglog clamp region, where the
    forward value is constant."""
    if link == "logit":
        s = link_inverse(x, "logit")
        return s * (1.0 - s)
    if link == "probit":
        return np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    inner = np.clip(x, -CLOGLOG_CLAMP, CLOGLOG_CLAMP)
    clamped = (x > CLOGLOG_CLAMP) | (x < -CLOGLOG_CLAMP)
    return np.where(clamped, 0.0, np.exp(inner - np.exp(inner)))


def materialize_thresholds_raw(b1, deltas, d_min):
    """Strictly increasing thresholds from the unconstrained parameters.

    b[0] = b1, b[j] = b[j-1] + d_min + deltas[j-1]**2 (+ 1e-6 iff d_min == 0).
    deltas has J-2 entries; the result has J-1.
    """
    eps = 1e-6 if d_min == 0.0 else 0.0
    steps = d_min + deltas * deltas + eps
    return np.concatenate(([b1], b1 + np.cumsum(steps)))


def softmax_batch(scores):
    """Row-wise softmax with max subtraction; exp never sees positive args."""
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def softmax_backward_batch(probs, grad_probs):
    """Chain dL/dp through the softmax: dL/ds_j = p_j (g_j - sum_m p_m g_m)."""
    dot = np.sum(probs * grad_probs, axis=1, keepdims=True)
    return probs * (grad_probs - dot)


def clm_forward_batch(latent, thresholds, link):
    """Cumulative-link head for a batch of latent scores.

    Returns (cum, probs): cum[i, j] = g^{-1}(b_j - f_i) forced non-decreasing
    against round-off, probs[i] the first differences padded with the tail
    class and renormalized (a round-off guard; the sum is already 1 up to
    machine precision).
    """
    c = link_inverse(thresholds[None, :] - latent[:, None], link)
    cum = np.maximum.accumulate(c, axis=1)
    tail = np.maximum(1.0 - cum[:, -1:], 0.0)
    probs = np.concatenate((cum[:, :1], np.diff(cum, axis=1), tail), axis=1)
    tot = probs.sum(axis=1, keepdims=True)
    np.divide(probs, tot, out=probs, where=tot > 0.0)
    return cum, probs


def clm_backward_batch(latent, thresholds, link, grad_probs):
    """Backprop dL/dp through the cumulative-link head.

    With dL/dcum_j = g_j - g_{j+1} (g = grad_probs row), returns per-sample
    latent gradients and threshold gradients summed over the batch.
    """
    dc = grad_probs[:, :-1] - grad_probs[:, 1:]
    gp = link_inverse_deriv(thresholds[None, :] - latent[:, None], link)
    term = gp * dc
    return -term.sum(axis=1), term.sum(axis=0)


def threshold_param_grads(deltas, grad_thresholds):
    """Chain threshold gradients to (b1, deltas).

    b_j depends on delta_m for m < j via delta_m**2, so
    d/d(delta_m) = 2 delta_m * sum_{j > m} grad_thresholds[j].
    """
    later = np.cumsum(grad_thresholds[:0:-1])[::-1]
    return float(grad_thresholds.sum()), 2.0 * deltas * later


def loss_batch(probs, targets, labels, loss, loss_alpha):
    """Summed loss over the batch plus per-sample dL/dp.

    * ``"cce"``: -sum_j t_j log p_j with target rows ``targets``.
    * ``"cdwce"``: -sum_{j != y} |j - y|**alpha log(1 - p_j); uses ``labels``.
    * ``"slace"``: binary cross-entropy between the cumulative sums of
      ``targets`` and of p over the first J-1 prefixes.

    Log arguments are clamped to [1e-12, 1 - 1e-12] in both the value and
    the gradient. Entries a loss skips (t_j == 0, j == y) contribute exactly
    zero to both, whatever the probability there.
    """
    if loss == "cce":
        p = np.clip(probs, P_CLAMP, 1.0 - P_CLAMP)
        used = targets != 0.0
        total = -np.sum(np.where(used, targets * np.log(p), 0.0))
        return total, np.where(used, -targets / p, 0.0)
    if loss == "cdwce":
        dist = np.abs(np.arange(probs.shape[1])[None, :] - labels[:, None])
        w = dist.astype(np.float64) ** loss_alpha
        q = np.clip(1.0 - probs, P_CLAMP, 1.0 - P_CLAMP)
        used = dist != 0
        total = -np.sum(np.where(used, w * np.log(q), 0.0))
        return total, np.where(used, w / q, 0.0)
    tc = np.cumsum(targets[:, :-1], axis=1)
    q = np.clip(np.cumsum(probs[:, :-1], axis=1), P_CLAMP, 1.0 - P_CLAMP)
    total = -np.sum(tc * np.log(q) + (1.0 - tc) * np.log(1.0 - q))
    g = -(tc / q - (1.0 - tc) / (1.0 - q))
    # dL/dp_m collects the prefix terms j >= m
    grad = np.zeros_like(probs)
    grad[:, :-1] = np.cumsum(g[:, ::-1], axis=1)[:, ::-1]
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
    with np.errstate(over="ignore", invalid="ignore"):
        for e, order in enumerate(shuffles):
            running = 0.0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                nb = idx.size
                xb = x[idx]
                s, z, pre = _scores(xb, backbone, w1, c1, w2, c2)

                if head == "softmax":
                    probs = softmax_batch(s)
                    batch_loss, grad_p = loss_batch(
                        probs, targets[idx], labels[idx], loss, loss_alpha
                    )
                    grad_s = softmax_backward_batch(probs, grad_p)
                else:
                    f = s[:, 0]
                    b = materialize_thresholds_raw(clm_b1[0], clm_deltas, d_min)
                    _, probs = clm_forward_batch(f, b, link)
                    batch_loss, grad_p = loss_batch(
                        probs, targets[idx], labels[idx], loss, loss_alpha
                    )
                    grad_f, grad_b = clm_backward_batch(f, b, link, grad_p)
                    gb1, gd = threshold_param_grads(clm_deltas, grad_b)
                    grad_s = grad_f[:, None]
                running += batch_loss

                # All gradients are taken at the current parameters; updates
                # are applied only after every gradient below is materialized.
                grad_w2 = z.T @ grad_s
                if backbone == "one_hidden":
                    grad_act = np.where(pre <= 0.0, 0.0, grad_s @ w2.T)
                    w1 -= lr * (xb.T @ grad_act) / nb
                    c1 -= lr * grad_act.sum(axis=0) / nb
                w2 -= lr * grad_w2 / nb
                c2 -= lr * grad_s.sum(axis=0) / nb
                if head == "clm":
                    clm_b1[0] -= lr * gb1 / nb
                    clm_deltas -= lr * gd / nb
            losses[e] = running / n
    return losses
