"""Soft ordinal target distributions.

Two smoothing schemes over 0-based ranks plus three unimodal encoders:

* ``uniform_smooth``: convex mix of the one-hot target with the uniform
  distribution.
* ``ordinal_smooth``: convex mix of the one-hot target with a caller-supplied
  unimodal base distribution.
* ``triangular_target`` / ``beta_target``: continuous densities on [0, 1]
  centred on the true class's interval; the mass of each of the J equal
  segments [j/J, (j+1)/J] is a difference of the closed-form CDF (elementary
  for the triangle, the regularized incomplete beta function for the beta).
* ``exponential_target``: normalized exp(-tau * |j - k| ** p) decay.
* ``sord_targets``: softmax over transformed rank distances (one of
  ``SORD_TRANSFORMS``), the targets of the SORD loss and, with transform
  "max", of SLACE.

All encoders return nonnegative vectors summing to 1 with their mode at the
true class (unimodal in |j - k|) for the supported hyperparameter ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import betainc

from .core import argmax_label, check_probability_vector

__all__ = [
    "SoftLabelConfig",
    "SoftTarget",
    "uniform_smooth",
    "triangular_target",
    "beta_target",
    "exponential_target",
    "ordinal_smooth",
    "target_matrix",
    "SORD_TRANSFORMS",
    "SordConfig",
    "sord_targets",
]

KINDS = ("uniform", "triangular", "beta", "exponential")
SORD_TRANSFORMS = (
    "max",
    "norm_max",
    "norm_log",
    "log",
    "norm_division",
    "division",
)


@dataclass(frozen=True)
class SoftLabelConfig:
    """Hyperparameters for one soft-label scheme.

    Only the fields relevant to ``kind`` are read: ``lam`` everywhere,
    ``alpha_adjacent`` for triangular, ``concentration`` for beta, ``tau``
    and ``p_exponent`` for exponential.
    """

    kind: str
    lam: float = 1.0
    alpha_adjacent: float = 0.05
    concentration: float = 10.0
    tau: float = 1.0
    p_exponent: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown soft label kind {self.kind!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")
        if self.kind == "triangular" and not 0.0 < self.alpha_adjacent < 0.5:
            raise ValueError("alpha_adjacent must lie in (0, 0.5)")
        if self.kind == "beta" and not self.concentration > 2.0:
            raise ValueError("concentration must exceed 2")
        if self.kind == "exponential":
            if not self.tau > 0.0:
                raise ValueError("tau must be positive")
            if not self.p_exponent >= 1.0:
                raise ValueError("p_exponent must be >= 1")


@dataclass(frozen=True)
class SoftTarget:
    """A target distribution paired with the hard class it encodes."""

    dist: np.ndarray
    true_class: int

    def __post_init__(self):
        dist = check_probability_vector(self.dist)
        dist.flags.writeable = False
        object.__setattr__(self, "dist", dist)
        if not 0 <= self.true_class < dist.size:
            raise ValueError("true_class outside the distribution's support")


def _check_k(k: int, n_classes: int) -> None:
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    if not 0 <= k < n_classes:
        raise ValueError(f"class {k} outside [0, {n_classes - 1}]")


def uniform_smooth(k: int, n_classes: int, lam: float) -> SoftTarget:
    """(1 - lam) * one-hot(k) + lam * uniform."""
    _check_k(k, n_classes)
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    dist = np.full(n_classes, lam / n_classes)
    dist[k] += 1.0 - lam
    return SoftTarget(dist=dist, true_class=k)


def ordinal_smooth(k: int, n_classes: int, lam: float, base) -> SoftTarget:
    """(1 - lam) * one-hot(k) + lam * base, with base unimodal at k."""
    _check_k(k, n_classes)
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    base = check_probability_vector(base)
    if base.size != n_classes:
        raise ValueError("base length does not match n_classes")
    if argmax_label(base) != k:
        raise ValueError("base distribution's argmax must equal the true class")
    dist = lam * base
    dist[k] += 1.0 - lam
    return SoftTarget(dist=dist, true_class=k)


def triangular_target(k: int, n_classes: int, alpha_adjacent: float) -> np.ndarray:
    """Triangular density centred on class k's segment, mass per segment.

    Interior classes use a symmetric triangle whose half-width puts exactly
    ``alpha_adjacent`` mass on each neighbouring segment; the first and last
    classes use a one-sided right triangle peaking at the domain edge, sized
    to put ``alpha_adjacent`` on their single neighbour. The masses are the
    differences of the triangle's CDF at the segment edges, renormalized over
    [0, 1] (an interior triangle may spill past the domain).
    """
    _check_k(k, n_classes)
    if not 0.0 < alpha_adjacent < 0.5:
        raise ValueError("alpha_adjacent must lie in (0, 0.5)")
    j = n_classes
    if k == 0:
        width = (1.0 / j) / (1.0 - math.sqrt(alpha_adjacent))
        lo, mode, hi = 0.0, 0.0, width
    elif k == j - 1:
        width = (1.0 / j) / (1.0 - math.sqrt(alpha_adjacent))
        lo, mode, hi = 1.0 - width, 1.0, 1.0
    else:
        half = (0.5 / j) / (1.0 - math.sqrt(2.0 * alpha_adjacent))
        centre = (2 * k + 1) / (2.0 * j)
        lo, mode, hi = centre - half, centre, centre + half

    span = hi - lo
    u = np.clip(np.arange(j + 1) / j, lo, hi)
    cdf = np.zeros(j + 1)
    # the masks are empty on the flat side of a one-sided (lo = mode or
    # mode = hi) triangle, so neither branch divides by zero
    rising = (u > lo) & (u <= mode)
    cdf[rising] = (u[rising] - lo) ** 2 / (span * (mode - lo))
    falling = u > mode
    cdf[falling] = 1.0 - (hi - u[falling]) ** 2 / (span * (hi - mode))
    masses = np.diff(cdf)
    return masses / masses.sum()


def beta_target(k: int, n_classes: int, concentration: float) -> np.ndarray:
    """Beta density with mode at (2k+1)/(2J), mass per segment.

    Shape parameters a = m(c-2)+1, b = (1-m)(c-2)+1 place the mode at m and
    let the single concentration c control the spread; c must exceed 2 so the
    mode exists. The masses are differences of the regularized incomplete
    beta function at the segment edges.
    """
    _check_k(k, n_classes)
    if not concentration > 2.0:
        raise ValueError("concentration must exceed 2")
    mode = (2 * k + 1) / (2.0 * n_classes)
    a = mode * (concentration - 2.0) + 1.0
    b = (1.0 - mode) * (concentration - 2.0) + 1.0
    masses = np.diff(betainc(a, b, np.arange(n_classes + 1) / n_classes))
    return masses / masses.sum()


def exponential_target(
    k: int, n_classes: int, tau: float, p_exponent: float = 1.0
) -> np.ndarray:
    """Normalized exp(-tau * |j - k| ** p_exponent) over the classes."""
    _check_k(k, n_classes)
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    if not p_exponent >= 1.0:
        raise ValueError("p_exponent must be >= 1")
    dist = np.abs(np.arange(n_classes) - k).astype(np.float64)
    dist = np.exp(-tau * dist**p_exponent)
    return dist / dist.sum()


@dataclass(frozen=True)
class SordConfig:
    beta: float = 1.0
    transform: str = "max"

    def __post_init__(self):
        if not self.beta > 0.0:
            raise ValueError("beta must be positive")
        if self.transform not in SORD_TRANSFORMS:
            raise ValueError(f"unknown transform {self.transform!r}")


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
    _check_k(k, n_classes)
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


def _base_distribution(k: int, n_classes: int, config: SoftLabelConfig) -> np.ndarray:
    if config.kind == "uniform":
        return np.full(n_classes, 1.0 / n_classes)
    if config.kind == "triangular":
        return triangular_target(k, n_classes, config.alpha_adjacent)
    if config.kind == "beta":
        return beta_target(k, n_classes, config.concentration)
    return exponential_target(k, n_classes, config.tau, config.p_exponent)


@lru_cache(maxsize=512)
def _target_matrix_cached(n_classes: int, config: SoftLabelConfig) -> np.ndarray:
    rows = np.empty((n_classes, n_classes))
    for k in range(n_classes):
        if config.kind == "uniform":
            rows[k] = uniform_smooth(k, n_classes, config.lam).dist
        else:
            base = _base_distribution(k, n_classes, config)
            rows[k] = ordinal_smooth(k, n_classes, config.lam, base).dist
    rows.flags.writeable = False
    return rows


def target_matrix(n_classes: int, config: SoftLabelConfig) -> np.ndarray:
    """Row k = the smoothed target for true class k. Cached and read-only."""
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    return _target_matrix_cached(n_classes, config)
