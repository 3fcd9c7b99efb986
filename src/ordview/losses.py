"""Losses with analytic gradients with respect to class probabilities.

All four losses share the clamped-log convention: every probability that
enters a log (or its gradient) is clipped to [1e-12, 1 - 1e-12]. Values and
gradients are computed by the same kernels the training loop uses, so what
the library reports is exactly what SGD optimizes.

* ``cce``: cross-entropy against an arbitrary target distribution (hard
  one-hot or any soft target).
* ``cdwce``: distance-weighted binary terms -|j-k|**alpha * log(1 - p_j)
  over the wrong classes.
* ``sord_targets``: soft unimodal targets from a softmax over transformed
  rank distances; used through ``cce``.
* ``slace``: binary cross-entropy between the cumulative sums of the
  prediction and of the ``sord_targets`` (transform "max") distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .core import check_probability_vector

__all__ = [
    "LossValueGrad",
    "SordConfig",
    "cce",
    "cdwce",
    "sord_targets",
    "slace",
    "grad_check",
    "SORD_TRANSFORMS",
]

SORD_TRANSFORMS = (
    "max",
    "norm_max",
    "norm_log",
    "log",
    "norm_division",
    "division",
)


@dataclass(frozen=True)
class LossValueGrad:
    """A loss value and its gradient with respect to the probability vector."""

    value: float
    grad: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("loss value is not finite")
        grad = np.asarray(self.grad, dtype=np.float64)
        if not np.all(np.isfinite(grad)):
            raise ValueError("loss gradient is not finite")
        grad.flags.writeable = False
        object.__setattr__(self, "grad", grad)


@dataclass(frozen=True)
class SordConfig:
    beta: float = 1.0
    transform: str = "max"

    def __post_init__(self):
        if not self.beta > 0.0:
            raise ValueError("beta must be positive")
        if self.transform not in SORD_TRANSFORMS:
            raise ValueError(f"unknown transform {self.transform!r}")


def _check_point(p, n_min: int = 2) -> np.ndarray:
    arr = np.ascontiguousarray(p, dtype=np.float64)
    if arr.ndim != 1 or arr.size < n_min:
        raise ValueError("expected a 1-D probability vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("probabilities must be finite")
    return arr


def cce(p, target) -> LossValueGrad:
    """-sum_j target_j log(clamp(p_j)); gradient -target_j / clamp(p_j)."""
    p = _check_point(p)
    target = _check_point(target)
    if p.shape != target.shape:
        raise ValueError("prediction and target lengths differ")
    value, grad = _k.loss_batch(
        p.reshape(1, -1),
        target.reshape(1, -1),
        np.zeros(1, dtype=np.int64),
        "cce",
        1.0,
    )
    return LossValueGrad(value=float(value), grad=grad[0])


def cdwce(p, k: int, alpha: float) -> LossValueGrad:
    """-sum_{j != k} |j - k|**alpha log(clamp(1 - p_j))."""
    p = _check_point(p)
    if not 0 <= k < p.size:
        raise ValueError(f"class {k} outside [0, {p.size - 1}]")
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    value, grad = _k.loss_batch(
        p.reshape(1, -1),
        np.zeros((1, p.size)),
        np.array([k], dtype=np.int64),
        "cdwce",
        float(alpha),
    )
    return LossValueGrad(value=float(value), grad=grad[0])


def sord_targets(k: int, n_classes: int, cfg: SordConfig) -> np.ndarray:
    """Unimodal soft targets: softmax over transformed rank distances.

    The distance vector phi_j = |j - k| is rescored by cfg.transform:

    * max:            phi / max(phi), softmax of -beta * score
    * norm_max:       as max, renormalized after the softmax
    * log:            log(1 + phi), softmax of -beta * score
    * norm_log:       log(1 + phi) / log(1 + max(phi)), softmax of -beta * score
    * division:       1 / (1 + phi) as similarity, softmax of +beta * score
    * norm_division:  similarity divided by its sum, softmax of +beta * score
    """
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    if not 0 <= k < n_classes:
        raise ValueError(f"class {k} outside [0, {n_classes - 1}]")
    phi = np.abs(np.arange(n_classes) - k).astype(np.float64)
    t = cfg.transform
    if t == "max" or t == "norm_max":
        score = -cfg.beta * phi / phi.max()
    elif t == "log":
        score = -cfg.beta * np.log1p(phi)
    elif t == "norm_log":
        score = -cfg.beta * np.log1p(phi) / np.log1p(phi.max())
    elif t == "division":
        score = cfg.beta / (1.0 + phi)
    else:
        sim = 1.0 / (1.0 + phi)
        score = cfg.beta * sim / sim.sum()
    e = np.exp(score - score.max())
    out = e / e.sum()
    if t == "norm_max":
        out = out / out.sum()
    return out


def slace(p, k: int, beta: float) -> LossValueGrad:
    """Cumulative binary cross-entropy against sord targets (transform max).

    With T = sord_targets(k, J, beta, "max") and prefix sums Tc, Pc over the
    first J-1 classes: value = -sum_j [Tc_j log Pc_j + (1-Tc_j) log(1-Pc_j)].
    """
    p = _check_point(p)
    if not 0 <= k < p.size:
        raise ValueError(f"class {k} outside [0, {p.size - 1}]")
    targets = sord_targets(k, p.size, SordConfig(beta=beta, transform="max"))
    value, grad = _k.loss_batch(
        p.reshape(1, -1),
        targets.reshape(1, -1),
        np.array([k], dtype=np.int64),
        "slace",
        1.0,
    )
    return LossValueGrad(value=float(value), grad=grad[0])


def _loss_closure(loss: str, k: int, config: dict | None):
    config = dict(config or {})
    if loss == "cce":
        target = config.get("target")
        if target is None:
            raise ValueError("cce grad check needs a 'target' in config")
        target = check_probability_vector(target)
        return lambda p: cce(p, target)
    if loss == "cdwce":
        alpha = float(config.get("alpha", 1.0))
        return lambda p: cdwce(p, k, alpha)
    if loss == "sord":
        cfg = SordConfig(
            beta=float(config.get("beta", 1.0)),
            transform=config.get("transform", "max"),
        )
        return lambda p, _cfg=cfg: cce(p, sord_targets(k, p.size, _cfg))
    if loss == "slace":
        beta = float(config.get("beta", 1.0))
        return lambda p: slace(p, k, beta)
    raise ValueError(f"unknown loss {loss!r}")


def grad_check(
    loss: str,
    point,
    k: int = 0,
    config: dict | None = None,
    space: str = "prob",
    step: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``space="prob"`` perturbs the probability vector coordinates directly;
    ``space="logit"`` treats ``point`` as logits and differentiates the
    composition loss(softmax(logits)), chaining the analytic gradient through
    the softmax Jacobian. Relative error uses denominator
    max(|analytic|, |numeric|, 1e-6) per coordinate.
    """
    point = np.asarray(point, dtype=np.float64)
    fn = _loss_closure(loss, k, config)
    if space == "prob":
        value_at = lambda v: fn(v).value
        analytic = fn(point).grad
    elif space == "logit":

        def value_at(v):
            probs = _k.softmax_batch(v.reshape(1, -1))[0]
            return fn(probs).value

        probs = _k.softmax_batch(point.reshape(1, -1))
        grad_p = fn(probs[0]).grad
        analytic = _k.softmax_backward_batch(probs, grad_p.reshape(1, -1))[0]
    else:
        raise ValueError("space must be 'prob' or 'logit'")

    numeric = np.empty_like(point)
    for i in range(point.size):
        hi = point.copy()
        lo = point.copy()
        hi[i] += step
        lo[i] -= step
        numeric[i] = (value_at(hi) - value_at(lo)) / (2.0 * step)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))
