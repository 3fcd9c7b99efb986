"""Soft ordinal target tables.

``target_matrix(J, config)`` is the (J, J) table whose row k is the target
distribution of true class k. Every family is built for all J rows at once
from the rank distances |j - k|.

A ``SoftLabelConfig`` mixes the one-hot target with a base distribution,
(1 - lam) * one-hot(k) + lam * base, whose base is one of:

* ``triangular`` / ``beta``: a continuous density on [0, 1] centred on the
  true class's interval; the mass of each of the J equal segments
  [j/J, (j+1)/J] is a difference of the closed-form CDF (elementary for the
  triangle, the incomplete beta ``stats._betainc`` for the beta).
* ``exponential``: normalized exp(-tau * |j - k| ** p_exponent).

A ``SordConfig`` gives the SORD targets: a softmax over rank distances
rescored by one of ``SORD_TRANSFORMS``; with transform "max" they are also
the targets of SLACE.

Every row is nonnegative, sums to 1 and has its mode at the true class
(unimodal in |j - k|) for the supported hyperparameter ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .core import check_fields
from .stats import _betainc

__all__ = [
    "SoftLabelConfig",
    "SordConfig",
    "SORD_TRANSFORMS",
    "target_matrix",
]

# the fields each kind reads besides lam
KIND_FIELDS = {"triangular": ("alpha_adjacent",), "beta": ("concentration",),
               "exponential": ("tau", "p_exponent")}
KINDS = tuple(KIND_FIELDS)
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
    and ``p_exponent`` for exponential. A field the kind does not read must
    keep its default.
    """

    kind: str
    lam: float = 1.0
    alpha_adjacent: float = 0.05
    concentration: float = 10.0
    tau: float = 1.0
    p_exponent: float = 1.0

    def __post_init__(self):
        check_fields(self)
        if self.kind not in KINDS:
            raise ValueError(f"unknown soft label kind {self.kind!r}")
        for f in fields(self)[2:]:  # the fields after kind and lam
            read = f.name in KIND_FIELDS[self.kind]
            if not read and getattr(self, f.name) != f.default:
                raise ValueError(f"kind {self.kind!r} does not read {f.name}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")
        if self.kind == "triangular" and not 0.0 < self.alpha_adjacent < 0.5:
            raise ValueError("alpha_adjacent must lie in (0, 0.5)")
        if self.kind == "beta" and not 2.0 < self.concentration < math.inf:
            raise ValueError("concentration must exceed 2 and be finite")
        if self.kind == "exponential":
            if not 0.0 < self.tau < math.inf:
                raise ValueError("tau must be positive and finite")
            if not self.p_exponent >= 1.0:
                raise ValueError("p_exponent must be >= 1")


@dataclass(frozen=True)
class SordConfig:
    """SORD targets: softmax over rank distances phi = |j - k| rescored by
    ``transform``, at inverse temperature ``beta``.

    * max:            phi / max(phi), softmax of -beta * score
    * norm_max:       as max, renormalized after the softmax
    * log:            log(1 + phi), softmax of -beta * score
    * norm_log:       log(1 + phi) / log(1 + max(phi)), softmax of -beta * score
    * division:       1 / (1 + phi) as similarity, softmax of +beta * score
    * norm_division:  similarity divided by its sum, softmax of +beta * score
    """

    beta: float = 1.0
    transform: str = "max"

    def __post_init__(self):
        check_fields(self)
        if not 0.0 < self.beta < math.inf:
            raise ValueError("beta must be positive and finite")
        if self.transform not in SORD_TRANSFORMS:
            raise ValueError(f"unknown transform {self.transform!r}")


# Each row reduction below is one pairwise sum (or max) along axis 1, which
# gives the bits of the same reduction over that row alone.
def _row_sum(a: np.ndarray) -> np.ndarray:
    return np.add.reduce(a, axis=1, keepdims=True)


def _row_max(a: np.ndarray) -> np.ndarray:
    return np.maximum.reduce(a, axis=1, keepdims=True)


def _distances(j: int) -> np.ndarray:
    """phi[k, c] = |c - k| as float64."""
    ranks = np.arange(j)
    return np.abs(ranks[None, :] - ranks[:, None]).astype(np.float64)


def _triangular(j: int, alpha_adjacent: float) -> np.ndarray:
    """Triangular density centred on class k's segment, mass per segment.

    Interior classes use a symmetric triangle whose half-width puts exactly
    ``alpha_adjacent`` mass on each neighbouring segment; the first and last
    classes use a one-sided right triangle peaking at the domain edge, sized
    to put ``alpha_adjacent`` on their single neighbour. The masses are the
    differences of the triangle's CDF at the segment edges, renormalized over
    [0, 1] (an interior triangle may spill past the domain).
    """
    k = np.arange(j)[:, None]
    width = (1.0 / j) / (1.0 - math.sqrt(alpha_adjacent))
    half = (0.5 / j) / (1.0 - math.sqrt(2.0 * alpha_adjacent))
    centre = (2 * k + 1) / (2.0 * j)
    first, last = k == 0, k == j - 1
    lo = np.where(first, 0.0, np.where(last, 1.0 - width, centre - half))
    mode = np.where(first, 0.0, np.where(last, 1.0, centre))
    hi = np.where(first, width, np.where(last, 1.0, centre + half))
    span = hi - lo
    u = np.clip(np.arange(j + 1) / j, lo, hi)
    # the flat side of a one-sided triangle (lo = mode or mode = hi) divides
    # by zero, and np.where never picks it
    with np.errstate(divide="ignore", invalid="ignore"):
        rise = (u - lo) ** 2 / (span * (mode - lo))
        fall = 1.0 - (hi - u) ** 2 / (span * (hi - mode))
    cdf = np.where(u > mode, fall, np.where(u > lo, rise, 0.0))
    masses = np.diff(cdf, axis=1)
    return masses / _row_sum(masses)


def _beta(j: int, concentration: float) -> np.ndarray:
    """Beta density with mode at (2k+1)/(2J), mass per segment.

    Shape parameters a = m(c-2)+1, b = (1-m)(c-2)+1 place the mode at m and
    let the single concentration c control the spread; c must exceed 2 so the
    mode exists. The CDF is ``stats._betainc``, the incomplete beta of ``f_sf``.
    """
    mode = (2 * np.arange(j) + 1) / (2.0 * j)
    a = (mode * (concentration - 2.0) + 1.0).tolist()
    b = ((1.0 - mode) * (concentration - 2.0) + 1.0).tolist()
    edges = [(q / j, (j - q) / j) for q in range(j + 1)]
    cdf = [[_betainc(ak, bk, x, y) for x, y in edges] for ak, bk in zip(a, b)]
    masses = np.diff(cdf, axis=1)
    return masses / _row_sum(masses)


def _soft_label(j: int, config: SoftLabelConfig) -> np.ndarray:
    lam = config.lam
    if config.kind == "triangular":
        base = _triangular(j, config.alpha_adjacent)
    elif config.kind == "beta":
        base = _beta(j, config.concentration)
    else:  # exponential
        base = np.exp(-config.tau * _distances(j) ** config.p_exponent)
        base = base / _row_sum(base)
    return lam * base + (1.0 - lam) * np.eye(j)


def _sord(j: int, config: SordConfig) -> np.ndarray:
    phi = _distances(j)
    beta, t = config.beta, config.transform
    if t == "max" or t == "norm_max":
        score = -beta * phi / _row_max(phi)
    elif t == "log":
        score = -beta * np.log1p(phi)
    elif t == "norm_log":
        score = -beta * np.log1p(phi) / np.log1p(_row_max(phi))
    elif t == "division":
        score = beta / (1.0 + phi)
    else:  # norm_division
        sim = 1.0 / (1.0 + phi)
        score = beta * sim / _row_sum(sim)
    e = np.exp(score - _row_max(score))
    out = e / _row_sum(e)
    return out / _row_sum(out) if t == "norm_max" else out


@lru_cache(maxsize=512)
def target_matrix(n_classes: int, config: SoftLabelConfig | SordConfig) -> np.ndarray:
    """Row k = the soft target for true class k, from a SoftLabelConfig or a
    SordConfig. Cached and read-only."""
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    if isinstance(config, SordConfig):
        rows = _sord(n_classes, config)
    else:
        rows = _soft_label(n_classes, config)
    rows.flags.writeable = False
    return rows
