"""Cumulative link output layer.

A scalar latent score f is compared against J-1 strictly increasing
thresholds; the link's inverse maps each difference b_j - f to a cumulative
probability, and class probabilities are the successive differences. The
thresholds are reparametrized as b1 plus squared increments (plus a minimum
distance d_min), so any unconstrained parameter vector materializes to a
valid ordered sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as _k

__all__ = [
    "ClmParams",
    "ClmOutput",
    "ClmGrads",
    "LINKS",
    "materialize_thresholds",
    "clm_forward",
    "clm_backward",
]

LINKS = ("logit", "probit", "cloglog")


@dataclass(frozen=True)
class ClmParams:
    """Unconstrained threshold parameters plus the link choice.

    deltas holds J-2 increments, so n_classes is len(deltas) + 2.
    """

    b1: float
    deltas: np.ndarray
    link: str = "logit"
    d_min: float = 0.0

    def __post_init__(self):
        if self.link not in LINKS:
            raise ValueError(f"unknown link {self.link!r}")
        if not self.d_min >= 0.0:
            raise ValueError("d_min must be >= 0")
        if not math.isfinite(self.b1):
            raise ValueError("b1 must be finite")
        deltas = np.ascontiguousarray(self.deltas, dtype=np.float64)
        if deltas.ndim != 1:
            raise ValueError("deltas must be 1-D")
        if not np.all(np.isfinite(deltas)):
            raise ValueError("deltas must be finite")
        deltas.flags.writeable = False
        object.__setattr__(self, "deltas", deltas)

    @property
    def n_classes(self) -> int:
        return self.deltas.size + 2


@dataclass(frozen=True)
class ClmOutput:
    cumulative: np.ndarray
    probs: np.ndarray


@dataclass(frozen=True)
class ClmGrads:
    """Gradients of (upstream_grad . probs) with respect to f, b1, deltas."""

    df: float
    db1: float
    ddeltas: np.ndarray


def materialize_thresholds(params: ClmParams) -> np.ndarray:
    """b[0] = b1, b[j] = b[j-1] + d_min + deltas[j-1]**2 (+1e-6 iff d_min=0)."""
    return _k.materialize_thresholds_raw(
        float(params.b1), params.deltas, float(params.d_min)
    )


def clm_forward(f: float, params: ClmParams) -> ClmOutput:
    """Cumulative probabilities and class probabilities at latent score f."""
    if not math.isfinite(f):
        raise ValueError("latent score must be finite")
    b = materialize_thresholds(params)
    cum, probs = _k.clm_forward_batch(np.array([f], dtype=np.float64), b, params.link)
    return ClmOutput(cumulative=cum[0], probs=probs[0])


def clm_backward(f: float, params: ClmParams, upstream_grad) -> ClmGrads:
    """Chain dL/dprobs back to the latent score and threshold parameters."""
    if not math.isfinite(f):
        raise ValueError("latent score must be finite")
    g = np.ascontiguousarray(upstream_grad, dtype=np.float64)
    if g.shape != (params.n_classes,):
        raise ValueError(
            f"upstream_grad must have length {params.n_classes}, got {g.shape}"
        )
    b = materialize_thresholds(params)
    grad_f, grad_b = _k.clm_backward_batch(
        np.array([f], dtype=np.float64), b, params.link, g.reshape(1, -1)
    )
    gb1, gd = _k.threshold_param_grads(params.deltas, grad_b)
    return ClmGrads(df=float(grad_f[0]), db1=float(gb1), ddeltas=gd)
