"""Independent reference implementations used by the test suite.

Everything here is deliberately written as plain double-sum / dense-grid /
Monte-Carlo code with no dependence on the package internals, so agreement
is evidence of correctness rather than self-confirmation.
"""

import math

import numpy as np


def qwk_brute_force(cm, n_exponent, e_normalization="n"):
    cm = np.asarray(cm, dtype=np.float64)
    j = cm.shape[0]
    total = cm.sum()
    row = cm.sum(axis=1)
    col = cm.sum(axis=0)
    num = 0.0
    den = 0.0
    for a in range(j):
        for b in range(j):
            w = abs(a - b) ** n_exponent / (j - 1) ** n_exponent
            e = row[a] * col[b] / (total if e_normalization == "n" else j)
            num += w * cm[a, b]
            den += w * e
    return 1.0 - num / den


def beta_log_density(x, a, b):
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    return log_norm + (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x)


def beta_cell_masses(k, n_classes, concentration, n_grid=200_001):
    """Dense-trapezoid integration of the class-k beta encoder."""
    mode = (2 * k + 1) / (2 * n_classes)
    a = mode * (concentration - 2.0) + 1.0
    b = (1.0 - mode) * (concentration - 2.0) + 1.0
    masses = np.empty(n_classes)
    for j in range(n_classes):
        x = np.linspace(j / n_classes, (j + 1) / n_classes, n_grid)
        x = np.clip(x, 1e-300, 1.0 - 1e-16)
        masses[j] = np.trapezoid(np.exp(beta_log_density(x, a, b)), x)
    return masses / masses.sum()


def triangle_cell_masses(k, n_classes, alpha, n_grid=200_001):
    """Dense-trapezoid integration of the class-k triangular encoder."""
    if k == 0:
        width = (1.0 / n_classes) / (1.0 - math.sqrt(alpha))
        lo, mode, hi = 0.0, 0.0, width
    elif k == n_classes - 1:
        width = (1.0 / n_classes) / (1.0 - math.sqrt(alpha))
        lo, mode, hi = 1.0 - width, 1.0, 1.0
    else:
        half = (1.0 / (2.0 * n_classes)) / (1.0 - math.sqrt(2.0 * alpha))
        center = (2 * k + 1) / (2 * n_classes)
        lo, mode, hi = center - half, center, center + half
    masses = np.empty(n_classes)
    for j in range(n_classes):
        x = np.linspace(j / n_classes, (j + 1) / n_classes, n_grid)
        dens = np.zeros_like(x)
        up = (x >= lo) & (x <= mode)
        down = (x > mode) & (x <= hi)
        if mode > lo:
            dens[up] = 2.0 * (x[up] - lo) / ((hi - lo) * (mode - lo))
        if hi > mode:
            dens[down] = 2.0 * (hi - x[down]) / ((hi - lo) * (hi - mode))
        masses[j] = np.trapezoid(dens, x)
    return masses / masses.sum()


def mc_studentized_range_quantile(k, df, q, n_draws=10_000_000, seed=0,
                                  block=250_000):
    """Monte-Carlo quantile of range(k standard normals) / sqrt(chi2_df / df)."""
    rng = np.random.default_rng(seed)
    samples = np.empty(n_draws)
    done = 0
    while done < n_draws:
        b = min(block, n_draws - done)
        z = rng.normal(size=(b, k))
        r = z.max(axis=1) - z.min(axis=1)
        s = np.sqrt(rng.chisquare(df, size=b) / df)
        samples[done : done + b] = r / s
        done += b
    return float(np.quantile(samples, q))


def bisect_quantile_bracket(cdf, p, tol=1e-6):
    """[lo, hi] with cdf(lo) <= p <= cdf(hi) and hi - lo <= tol: double hi
    from [0, 1] until cdf(hi) > p, then bisect, one scalar cdf call a step.

    The plain search whose result ``stats._quantile_bracket`` reproduces bit
    for bit from fewer cdf calls.
    """
    lo, hi = 0.0, 1.0
    for _ in range(80):
        if cdf(hi) > p:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise RuntimeError("studentized range quantile failed to bracket")
    for _ in range(200):
        if hi - lo <= tol:
            return lo, hi
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    raise RuntimeError("studentized range quantile failed to converge")


# ------------------------------------------------------------- scalar kernels
#
# Sample-by-sample loops over the same equations as ordview._kernels: the CLM
# head of Vargas, Gutierrez & Hervas-Martinez (Neurocomputing 2020), the
# clamped cce / cdwce / slace losses and plain minibatch SGD. Every sum runs
# in index order with math.* scalars, so the vectorised kernels may differ
# from these only in the last bits.

P_CLAMP = 1e-12


def _clamp(p):
    if p < P_CLAMP:
        return P_CLAMP
    if p > 1.0 - P_CLAMP:
        return 1.0 - P_CLAMP
    return p


def link_inverse(x):
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def link_inverse_deriv(x):
    s = link_inverse(x)
    return s * (1.0 - s)


def materialize_thresholds_raw(b1, deltas, d_min):
    n = deltas.shape[0] + 1
    b = np.empty(n)
    b[0] = b1
    eps = 1e-6 if d_min == 0.0 else 0.0
    for j in range(1, n):
        b[j] = b[j - 1] + d_min + deltas[j - 1] * deltas[j - 1] + eps
    return b


def softmax_batch(scores):
    n, k = scores.shape
    out = np.empty((n, k))
    for i in range(n):
        m = max(scores[i, j] for j in range(k))
        tot = 0.0
        for j in range(k):
            out[i, j] = math.exp(scores[i, j] - m)
            tot += out[i, j]
        for j in range(k):
            out[i, j] /= tot
    return out


def softmax_backward_batch(probs, grad_probs):
    n, k = probs.shape
    out = np.empty((n, k))
    for i in range(n):
        dot = 0.0
        for j in range(k):
            dot += probs[i, j] * grad_probs[i, j]
        for j in range(k):
            out[i, j] = probs[i, j] * (grad_probs[i, j] - dot)
    return out


def clm_forward_batch(latent, thresholds):
    n = latent.shape[0]
    m = thresholds.shape[0]
    cum = np.empty((n, m))
    probs = np.empty((n, m + 1))
    for i in range(n):
        prev = 0.0
        for j in range(m):
            c = max(link_inverse(thresholds[j] - latent[i]), prev)
            cum[i, j] = c
            probs[i, j] = c - prev
            prev = c
        probs[i, m] = max(1.0 - prev, 0.0)
        tot = 0.0
        for j in range(m + 1):
            tot += probs[i, j]
        if tot > 0.0:
            for j in range(m + 1):
                probs[i, j] /= tot
    return cum, probs


def clm_backward_batch(latent, thresholds, grad_probs):
    n = latent.shape[0]
    m = thresholds.shape[0]
    grad_latent = np.zeros(n)
    grad_thresholds = np.zeros(m)
    for i in range(n):
        for j in range(m):
            dc = grad_probs[i, j] - grad_probs[i, j + 1]
            gp = link_inverse_deriv(thresholds[j] - latent[i])
            grad_latent[i] -= gp * dc
            grad_thresholds[j] += gp * dc
    return grad_latent, grad_thresholds


def threshold_param_grads(deltas, grad_thresholds):
    n_b = grad_thresholds.shape[0]
    gb1 = 0.0
    for j in range(n_b):
        gb1 += grad_thresholds[j]
    gd = np.zeros(deltas.shape[0])
    for m in range(deltas.shape[0]):
        s = 0.0
        for j in range(m + 1, n_b):
            s += grad_thresholds[j]
        gd[m] = 2.0 * deltas[m] * s
    return gb1, gd


def loss_batch(probs, targets, labels, loss, loss_alpha):
    n, j_classes = probs.shape
    grad = np.zeros((n, j_classes))
    total = 0.0
    for i in range(n):
        if loss == "cce":
            for j in range(j_classes):
                t = targets[i, j]
                if t != 0.0:
                    p = _clamp(probs[i, j])
                    total -= t * math.log(p)
                    grad[i, j] = -t / p
        elif loss == "cdwce":
            k = labels[i]
            for j in range(j_classes):
                if j != k:
                    w = (1.0 * abs(j - k)) ** loss_alpha
                    q = _clamp(1.0 - probs[i, j])
                    total -= w * math.log(q)
                    grad[i, j] = w / q
        else:
            tc = 0.0
            pc = 0.0
            for j in range(j_classes - 1):
                tc += targets[i, j]
                pc += probs[i, j]
                q = _clamp(pc)
                total -= tc * math.log(q) + (1.0 - tc) * math.log(1.0 - q)
                g = -(tc / q - (1.0 - tc) / (1.0 - q))
                for m in range(j + 1):
                    grad[i, m] += g
    return total, grad


def masked_loss_batch(probs, targets, labels, loss, loss_alpha):
    """cce or cdwce over a batch in numpy, with the entries the loss skips
    (t_j == 0 for cce, j == y for cdwce) written to exactly +0 in the terms
    and the gradient: the masked form whose floats the unmasked kernel must
    give for every finite probability."""
    if loss == "cce":
        skip, w = targets == 0.0, -targets
        p = probs
    else:
        dist = np.abs(np.arange(probs.shape[1])[None, :] - labels[:, None])
        skip, w = dist == 0, dist.astype(np.float64) ** loss_alpha
        p = 1.0 - probs
    p = np.minimum(np.maximum(p, P_CLAMP), 1.0 - P_CLAMP)
    terms = w * np.log(p)
    grad = w / p
    terms[skip] = 0.0
    grad[skip] = 0.0
    total = np.add.reduce(terms, axis=None)
    return (total if loss == "cce" else -total), grad


def _affine(z, w, c, relu):
    out = np.dot(z, w)
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            out[i, j] += c[j]
            if relu and out[i, j] < 0.0:
                out[i, j] = 0.0
    return out


def forward_batch(x, backbone, head, d_min, w1, c1, w2, c2, clm_b1, clm_deltas):
    z = _affine(x, w1, c1, True) if backbone == "one_hidden" else x
    s = _affine(z, w2, c2, False)
    if head == "softmax":
        return softmax_batch(s)
    b = materialize_thresholds_raw(clm_b1[0], clm_deltas, d_min)
    return clm_forward_batch(s[:, 0].copy(), b)[1]


def run_sgd(x, labels, targets, shuffles, loss, loss_alpha, backbone, head,
            d_min, w1, c1, w2, c2, clm_b1, clm_deltas, lr, batch_size):
    """Minibatch SGD mutating the parameter arrays; per-epoch mean loss."""
    n = x.shape[0]
    losses = np.empty(shuffles.shape[0])
    for e in range(shuffles.shape[0]):
        running = 0.0
        for start in range(0, n, batch_size):
            idx = shuffles[e, start:start + batch_size]
            nb = idx.size
            xb = x[idx]
            if backbone == "one_hidden":
                pre = _affine(xb, w1, c1, False)
                z = np.maximum(pre, 0.0)
            else:
                z = xb
            s = _affine(z, w2, c2, False)
            if head == "softmax":
                probs = softmax_batch(s)
                batch_loss, grad_p = loss_batch(probs, targets[idx],
                                                labels[idx], loss, loss_alpha)
                grad_s = softmax_backward_batch(probs, grad_p)
            else:
                f = s[:, 0].copy()
                b = materialize_thresholds_raw(clm_b1[0], clm_deltas, d_min)
                _, probs = clm_forward_batch(f, b)
                batch_loss, grad_p = loss_batch(probs, targets[idx],
                                                labels[idx], loss, loss_alpha)
                grad_f, grad_b = clm_backward_batch(f, b, grad_p)
                gb1, gd = threshold_param_grads(clm_deltas, grad_b)
                grad_s = grad_f.reshape(-1, 1)
            running += batch_loss

            grad_w2 = np.dot(np.ascontiguousarray(z.T), grad_s)
            if backbone == "one_hidden":
                grad_act = np.dot(grad_s, np.ascontiguousarray(w2.T))
                for i in range(nb):
                    for j in range(grad_act.shape[1]):
                        if pre[i, j] <= 0.0:
                            grad_act[i, j] = 0.0
                grad_w1 = np.dot(np.ascontiguousarray(xb.T), grad_act)
                for i in range(w1.shape[0]):
                    for j in range(w1.shape[1]):
                        w1[i, j] -= lr * grad_w1[i, j] / nb
                for j in range(c1.shape[0]):
                    col = 0.0
                    for i in range(nb):
                        col += grad_act[i, j]
                    c1[j] -= lr * col / nb
            for i in range(w2.shape[0]):
                for j in range(w2.shape[1]):
                    w2[i, j] -= lr * grad_w2[i, j] / nb
            for j in range(c2.shape[0]):
                col = 0.0
                for i in range(nb):
                    col += grad_s[i, j]
                c2[j] -= lr * col / nb
            if head == "clm":
                clm_b1[0] -= lr * gb1 / nb
                for m in range(clm_deltas.shape[0]):
                    clm_deltas[m] -= lr * gd[m] / nb
        losses[e] = running / n
    return losses


# ---------------------------------------------------------- ensemble weights


def optimize_weights_loop(per_view_val_probs, y_val, n_candidates=1000, seed=0):
    """Score the one-hot, uniform and random simplex candidates one at a time;
    the first candidate with the lowest validation AMAE wins."""
    stack = np.stack([np.asarray(p, dtype=np.float64) for p in per_view_val_probs])
    n_views, _, n_classes = stack.shape
    y_val = np.asarray(y_val, dtype=np.int64)
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.0, 1.0, size=(n_candidates, n_views))
    raw[raw.sum(axis=1) == 0.0] = 1.0
    candidates = np.vstack([
        np.eye(n_views),
        np.full((1, n_views), 1.0 / n_views),
        raw / raw.sum(axis=1, keepdims=True),
    ])
    best_w, best_score = None, math.inf
    for w in candidates:
        preds = np.argmax(np.tensordot(w, stack, axes=(0, 0)), axis=1)
        per_class = [
            np.abs(preds[y_val == q] - q).mean()
            for q in range(n_classes)
            if np.any(y_val == q)
        ]
        score = sum(per_class) / len(per_class)
        if score < best_score:
            best_w, best_score = w, score
    return best_w


def per_class_mae_loop(y_true, y_pred, n_classes):
    """Mean |y - y_hat| over the samples of each true class, one class at a
    time; NaN for a class absent from y_true."""
    y_true = np.asarray(y_true, dtype=np.int64)
    err = np.abs(y_true - np.asarray(y_pred, dtype=np.int64)).astype(np.float64)
    out = np.full(n_classes, np.nan)
    for q in range(n_classes):
        mask = y_true == q
        if mask.any():
            out[q] = err[mask].mean()
    return out
