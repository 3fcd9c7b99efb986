"""Numeric kernels: batched heads, losses, and the minibatch SGD loop.

Every kernel works on a whole batch with numpy array operations. The string
options of the public API (backbone ``"linear"``/``"one_hidden"``, head
``"softmax"``/``"clm"``, loss family ``"cce"``/``"cdwce"``/``"slace"``) are
dispatched in Python; the cumulative-link head uses the logit link. Python
loops run only over epochs and minibatches. These kernels are the only
implementation of the link, threshold and loss math; there is no per-sample
API, so a single sample is a one-row batch.

At minibatch size (32 x 10) a step costs numpy call overhead, not
arithmetic, so ``run_sgd`` does each piece of work as rarely as it can, and
every step reuses one per-fit workspace:

* per fit: the loss's per-row constants (``loss_rows``) and the workspace.
  w1, c1, w2, c2 and the threshold block [b1, *deltas] become views into one
  packed float64 buffer, and their gradients views into a second buffer of
  the same layout; a ``ClmPad`` per batch size holds the CLM class math.
  The caller's arrays get the trained values back at the end;
* per block of epochs: the shuffled copy (``np.take``) of those constants
  for every epoch of the block, and, after the block's steps, its epoch
  losses (``batch_losses``): one log and one multiply over the clamped log
  arguments that the steps wrote into a block buffer, one reduce per batch
  shape, and each epoch's batch totals added in visit order, which are the
  floats a loss taken in each step would give. The rows and the clamped
  arguments of a block together hold at most 2^15 floats (256 KB);
* per epoch: the shuffled copy of ``x``, so that a step takes basic slices
  (views) of it and of the block's constants instead of gathering rows;
* per step: the forward pass, the loss gradient (``loss_grad``, which
  writes the clamped log arguments) and the backward pass, each
  gradient written into its view, then one fused update of every
  parameter: ``grad *= lr; grad /= nb; theta -= grad``, the same
  (lr * g) / nb per element as one update per array. The CLM head computes
  the link response once and reuses it in its backward pass, whose
  derivative c (1 - c) needs nothing else.
  It works out the J - 1 thresholds and the deltas' gradient chain in
  Python floats, with the same additions in the same order; the b1
  gradient stays one ``np.add.reduce``, since from 8 terms on its pairwise
  sum adds in another order than a Python loop. No loss masks the entries
  it skips: their weight of 0 already gives a zero term, and a gradient of
  zero up to its sign, at any finite probability. Constants reach the
  ufuncs as 0-d arrays
  (``_operand``). Sums, prefix sums and clamps call the ufuncs
  (``np.add.reduce``, ``np.add.accumulate``, ``np.minimum``/``np.maximum``)
  directly rather than through the slower ``np.sum``/``np.cumsum``/
  ``np.clip`` wrappers, with the same arithmetic in the same order.

Every block of the packed buffers starts on a 64-byte boundary. BLAS
kernels may pick their code path, and with it the order of a dot product's
additions, by the alignment of their operands; numpy allocates every array
at least 16-byte aligned, so aligned blocks hand BLAS operands no worse
aligned than one array per parameter did, and the fits stay bitwise what
they were.

Numerical conventions shared with the public modules:

* probabilities are clamped to [1e-12, 1 - 1e-12] inside log terms;
* exponentials only ever see non-positive (or NaN) arguments, so a fit that
  diverges surfaces as NaN epoch losses or non-finite parameters; ``run_sgd``
  silences the overflow and invalid-value warnings on the way there, and
  ``model.train`` turns either into its one signal, ``TrainingDiverged``
  (which ``model.predict_proba_batch`` raises too, for a fit whose finite
  weights overflow the forward pass).
"""

from __future__ import annotations

import numpy as np

P_CLAMP = 1e-12


def _operand(value):
    """A read-only 0-d float64 array. A ufunc converts a Python float operand
    anew on every call, which at minibatch size costs about a third of a
    small op, so the per-step kernels take their constants in this form."""
    a = np.array(value, dtype=np.float64)
    a.flags.writeable = False
    return a


_ZERO = _operand(0.0)
_ONE = _operand(1.0)
_P_LO = _operand(P_CLAMP)
_P_HI = _operand(1.0 - P_CLAMP)

# floats that the loss-block buffers of one fit hold together (256 KB), the
# budget of ensemble.optimize_weights' candidate blocks
_LOSS_BUDGET = 1 << 15


def link_inverse(x):
    """Inverse logit link g^{-1}(x), the cumulative-probability response:
    1 / (1 + e) at x >= 0 and e / (1 + e) below, with e = exp(-|x|)."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    one_e = _ONE + e
    np.copyto(e, _ONE, where=x >= _ZERO)
    e /= one_e
    return e


def initial_thresholds(head, n_classes, d_min):
    """The threshold block [b1, *deltas] a fit starts from: J - 1 entries.

    The thresholds start at b_0 = -2, each gap floor + max(4 / (J - 2) -
    d_min, 0) with the floor of ``materialize_thresholds_raw``: so the gap
    is max(4 / (J - 2), d_min) at d_min > 0 (J = 7 at d_min = 1 spans
    [-2, 3], J = 10 spans [-2, 6]) and 4 / (J - 2) + 1e-6 at d_min = 0. A
    softmax head reads no thresholds and keeps a single 0.0.
    """
    if head == "softmax":
        return np.zeros(1)
    thresholds = np.full(n_classes - 1, -2.0)
    if n_classes > 2:
        thresholds[1:] = np.sqrt(max(4.0 / (n_classes - 2) - d_min, 0.0))
    return thresholds


def materialize_thresholds_raw(b1, deltas, d_min):
    """Strictly increasing thresholds from the unconstrained parameters.

    b[0] = b1, b[j] = b1 + sum_{m < j} (d_min + deltas[m]**2), with d_min
    read as 1e-6 when it is 0. deltas has J-2 entries; the result has J-1.
    The J - 1 floats are summed in Python, one step after the other.
    """
    floor = d_min if d_min != 0.0 else 1e-6
    b, acc = [b1], 0.0
    for d in deltas:
        acc += floor + d * d
        b.append(b1 + acc)
    return np.array(b)


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


class ClmPad:
    """The buffers ``clm_probs`` works in for nb rows of J classes.

    ``padded`` holds the rows [0, cum[i], 1] back to back plus one trailing
    0, and ``diff`` its first differences, so that row i of ``rows`` is
    [probs[i], 0 - 1]. ``run_sgd`` keeps one per batch size.
    """

    def __init__(self, nb, n_classes):
        self.padded = np.zeros(nb * (n_classes + 1) + 1)
        wide = self.padded[:-1].reshape(nb, n_classes + 1)
        wide[:, -1] = 1.0
        self.cum = wide[:, 1:-1]
        self.hi = self.padded[1:]
        self.lo = self.padded[:-1]
        self.diff = np.empty(nb * (n_classes + 1))
        self.rows = self.diff.reshape(nb, n_classes + 1)
        self.probs = self.rows[:, :-1]


def clm_probs(c, pad=None):
    """(cum, probs) from the link responses c[i, j] = g^{-1}(b_j - f_i).

    cum is c forced non-decreasing against round-off; probs[i] holds its
    first differences and the tail class, divided by their sum (a round-off
    guard; for finite c the sum is already 1 up to a few ulps).

    Both are views into ``pad`` (a ``ClmPad`` for c's rows, or None for a
    new one). One flat subtract over its padded rows gives every first
    difference, the tail 1 - cum[i, -1] among them, and one clamp at 0
    both floors the tail and zeroes the 0 - 1 between two rows.
    """
    if pad is None:
        pad = ClmPad(c.shape[0], c.shape[1] + 1)
    cum = np.maximum.accumulate(c, axis=1, out=pad.cum)
    np.subtract(pad.hi, pad.lo, out=pad.diff)
    np.maximum(pad.diff, _ZERO, out=pad.diff)
    pad.rows /= np.add.reduce(pad.probs, axis=1, keepdims=True)
    return cum, pad.probs


def clm_forward_batch(latent, thresholds):
    """Cumulative-link head for a batch of latent scores: the (cum, probs)
    of ``clm_probs`` at c[i, j] = g^{-1}(b_j - f_i)."""
    return clm_probs(link_inverse(thresholds - latent[:, None]))


def clm_backward_batch(c, grad_probs):
    """Backprop dL/dp through the cumulative-link head.

    c[i, j] = link_inverse(b_j - f_i), as in the forward pass. With
    dL/dcum_j = g_j - g_{j+1} (g = grad_probs row), returns per-sample
    latent gradients and threshold gradients summed over the batch; the
    link's derivative at b_j - f_i is c (1 - c).
    """
    term = _ONE - c
    term *= c
    term *= grad_probs[:, :-1] - grad_probs[:, 1:]
    return -np.add.reduce(term, axis=1), np.add.reduce(term, axis=0)


def threshold_param_grads(deltas, grad_thresholds):
    """Chain threshold gradients to (b1, deltas).

    b_j depends on delta_m for m < j via delta_m**2, so
    d/d(delta_m) = 2 delta_m * sum_{j > m} grad_thresholds[j], summed from
    the top threshold down. Returns the b1 gradient and a list of the
    delta gradients, worked out in Python floats.
    """
    later = grad_thresholds[:0:-1].tolist()
    for m in range(1, len(later)):
        later[m] = later[m - 1] + later[m]
    later.reverse()
    gd = [2.0 * d * g for d, g in zip(deltas, later)]
    return float(np.add.reduce(grad_thresholds)), gd


def loss_rows(targets, labels, loss, loss_alpha):
    """The per-row constants of a loss, built once per fit, as one array
    whose axis -2 runs over the samples:

    * ``"cce"``: the (n, J) weights ``-targets``;
    * ``"cdwce"``: the (n, J) weights ``|j - y|**alpha``, 0 at ``j == y``;
    * ``"slace"``: the (2, n, J-1) stack of the prefix sums ``tc`` of
      ``targets`` over the first J-1 classes and of ``1 - tc``.

    A minibatch takes the rows of its samples along that axis.
    """
    if loss == "cce":
        return -targets
    if loss == "cdwce":
        dist = np.abs(np.arange(targets.shape[1])[None, :] - labels[:, None])
        return dist.astype(np.float64) ** loss_alpha
    tc = np.add.accumulate(targets[:, :-1], axis=1)
    return np.stack((tc, 1.0 - tc))


def loss_grad(probs, rows, loss, clamped):
    """Per-sample dL/dp of a batch, given its ``loss_rows``; writes the
    clamped log arguments into ``clamped`` (shaped like ``rows``), from
    which ``batch_losses`` takes the loss later.

    * ``"cce"``: -sum_j t_j log p_j with target rows t; the log argument
      is p.
    * ``"cdwce"``: -sum_{j != y} |j - y|**alpha log(1 - p_j); it is 1 - p.
    * ``"slace"``: binary cross-entropy between the cumulative sums of the
      target rows and of p over the first J-1 prefixes; they are the
      prefix sums q of p and 1 - q.

    Log arguments are clamped to [1e-12, 1 - 1e-12] in both the value and
    the gradient. Entries a loss skips (t_j == 0, j == y) have weight 0 and
    contribute zero to both, for any finite probability.
    """
    if loss == "slace":
        # indexed, not unpacked: unpacking iterates, at ~3x the cost
        q, one_q = clamped[0], clamped[1]
        np.add.accumulate(probs[:, :-1], axis=1, out=q)
        np.maximum(q, _P_LO, out=q)
        np.minimum(q, _P_HI, out=q)
        np.subtract(_ONE, q, out=one_q)
        g = rows[1] / one_q
        g -= rows[0] / q
        # dL/dp_m collects the prefix terms j >= m
        grad = np.zeros(probs.shape)
        np.add.accumulate(g[:, ::-1], axis=1, out=grad[:, -2::-1])
        return grad
    if loss == "cce":
        np.maximum(probs, _P_LO, out=clamped)
    else:
        np.subtract(_ONE, probs, out=clamped)
        np.maximum(clamped, _P_LO, out=clamped)
    np.minimum(clamped, _P_HI, out=clamped)
    return rows / clamped


def batch_losses(clamped, rows, loss, n, batch_size):
    """The summed loss of every minibatch of E epochs, as an (E, batches)
    array, from the E * n ``clamped`` log arguments that ``loss_grad``
    wrote and their ``rows``, both in visit order; ``clamped`` is
    overwritten.

    One log and one multiply serve every batch, and each batch's terms are
    summed by one reduce per batch shape (the full batches, then the short
    final one), each over the batch's contiguous floats, as a reduce of
    the batch alone would.
    """
    terms = np.log(clamped, out=clamped)
    terms *= rows
    if loss == "slace":
        terms = np.add(terms[0], terms[1], out=terms[0])
    width = terms.shape[-1]
    terms = terms.reshape(-1, n * width)
    split = n // batch_size * batch_size * width
    totals = []
    if split:
        full = terms[:, :split].reshape(terms.shape[0], -1, batch_size * width)
        totals.append(np.add.reduce(full, axis=2))
    if split < n * width:
        totals.append(np.add.reduce(terms[:, split:], axis=1, keepdims=True))
    totals = np.concatenate(totals, axis=1)
    # cce's weights -t already carry the sign
    return totals if loss == "cce" else np.negative(totals, out=totals)


def loss_batch(probs, rows, loss):
    """Summed loss over the batch plus per-sample dL/dp, given the batch's
    ``loss_rows``: ``loss_grad`` and then ``batch_losses`` of one batch."""
    clamped = np.empty(rows.shape)
    grad = loss_grad(probs, rows, loss, clamped)
    n = probs.shape[0]
    return batch_losses(clamped, rows, loss, n, n)[0, 0], grad


def _aligned_zeros(size):
    """``size`` float64 zeros starting on a 64-byte boundary."""
    raw = np.zeros(size + 7)
    first = -raw.ctypes.data % 64 // 8
    return raw[first:first + size]


def _pack(arrays):
    """One zeroed buffer and a view of it shaped like each of ``arrays``,
    every view starting on a 64-byte boundary."""
    starts, size = [], 0
    for a in arrays:
        starts.append(size)
        size += -(-a.size // 8) * 8
    buf = _aligned_zeros(size)
    return buf, [buf[i:i + a.size].reshape(a.shape) for i, a in zip(starts, arrays)]


def _scores(x, backbone, w1, c1, w2, c2):
    """Output-layer scores plus the hidden pre-activation (None if linear)."""
    if backbone == "one_hidden":
        pre = x @ w1 + c1
        z = np.maximum(pre, _ZERO)
    else:
        pre = None
        z = x
    return z @ w2 + c2, z, pre


def forward_batch(
    x,
    backbone,
    head,
    d_min,
    w1,
    c1,
    w2,
    c2,
    thresholds,
):
    """Full forward pass to class probabilities for a batch."""
    s, _, _ = _scores(x, backbone, w1, c1, w2, c2)
    if head == "softmax":
        return softmax_batch(s)
    b = materialize_thresholds_raw(thresholds[0], thresholds[1:], d_min)
    return np.ascontiguousarray(clm_forward_batch(s[:, 0], b)[1])


def run_sgd(
    x,
    labels,
    targets,
    shuffles,
    loss,
    loss_alpha,
    backbone,
    head,
    d_min,
    w1,
    c1,
    w2,
    c2,
    thresholds,
    lr,
    batch_size,
):
    """Plain minibatch SGD; the parameter arrays hold the trained values on
    return. ``thresholds`` is the block [b1, *deltas] (J - 1 entries) of a
    cumulative-link head, and a softmax head's one unread entry.

    shuffles is an (epochs, n) integer matrix of precomputed epoch orderings,
    so the exact visit sequence is fixed by the caller. Gradients use the
    batch mean; the final short batch is kept. Returns the per-epoch mean
    sample loss, NaN from the epoch a fit diverges on.
    """
    n = x.shape[0]
    epochs = shuffles.shape[0]
    losses = np.empty(epochs)
    rows = loss_rows(targets, labels, loss, loss_alpha)
    # a block of epochs keeps its shuffled loss rows and the clamped log
    # arguments its steps write, both shaped like rows_block
    per_block = min(epochs, max(1, _LOSS_BUDGET // (2 * rows.size)))
    clamped_buf = np.empty((*rows.shape[:-2], per_block * n, rows.shape[-1]))
    # theta packs the parameters and grad their gradients in one layout, so
    # that one fused update steps them all
    blocks = (w1, c1, w2, c2, thresholds)
    theta, views = _pack(blocks)
    for view, a in zip(views, blocks):
        view[...] = a
    t_w1, t_c1, t_w2, t_c2, t_thr = views
    grad, (g_w1, g_c1, g_w2, g_c2, g_thr) = _pack(blocks)
    hidden = backbone == "one_hidden"
    sizes = {min(n, batch_size), n % batch_size} - {0}
    # 0-d operands: a ufunc converts a Python number on every call
    lr = np.array(lr, dtype=np.float64)
    divisors = {nb: np.array(float(nb)) for nb in sizes}
    if head == "clm":
        pads = {nb: ClmPad(nb, t_thr.size + 1) for nb in sizes}
    with np.errstate(over="ignore", invalid="ignore"):
        for e0 in range(0, epochs, per_block):
            orders = shuffles[e0:e0 + per_block]
            rows_block = np.take(rows, orders.reshape(-1), axis=-2)
            clamped = clamped_buf[..., :rows_block.shape[-2], :]
            r0 = 0  # the block row of the batch's first sample
            for order in orders:
                xe = np.take(x, order, axis=0)
                for start in range(0, n, batch_size):
                    xb = xe[start:start + batch_size]
                    nb = xb.shape[0]
                    rows_b = rows_block[..., r0:r0 + nb, :]
                    clamped_b = clamped[..., r0:r0 + nb, :]
                    r0 += nb
                    s, z, pre = _scores(xb, backbone, t_w1, t_c1, t_w2, t_c2)

                    if head == "softmax":
                        probs = softmax_batch(s)
                        grad_p = loss_grad(probs, rows_b, loss, clamped_b)
                        grad_s = softmax_backward_batch(probs, grad_p)
                    else:
                        thr = t_thr.tolist()
                        b = materialize_thresholds_raw(thr[0], thr[1:], d_min)
                        c = link_inverse(b - s)
                        _, probs = clm_probs(c, pads[nb])
                        grad_p = loss_grad(probs, rows_b, loss, clamped_b)
                        grad_f, grad_b = clm_backward_batch(c, grad_p)
                        gb1, gd = threshold_param_grads(thr[1:], grad_b)
                        g_thr[:] = [gb1, *gd]
                        grad_s = grad_f[:, None]

                    # All gradients are taken at the current parameters; the
                    # update is applied only after every gradient is written.
                    np.matmul(z.T, grad_s, out=g_w2)
                    np.add.reduce(grad_s, axis=0, out=g_c2)
                    if hidden:
                        grad_act = grad_s @ t_w2.T
                        np.copyto(grad_act, _ZERO, where=pre <= _ZERO)
                        np.matmul(xb.T, grad_act, out=g_w1)
                        np.add.reduce(grad_act, axis=0, out=g_c1)
                    grad *= lr
                    grad /= divisors[nb]
                    theta -= grad
            # each epoch adds its batch losses in visit order
            totals = batch_losses(clamped, rows_block, loss, n, batch_size)
            running = np.zeros(len(orders))
            for batch_loss in totals.T:
                running += batch_loss
            losses[e0:e0 + per_block] = running / n
    for a, view in zip(blocks, views):
        a[...] = view
    return losses
