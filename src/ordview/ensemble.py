"""Decision-level aggregation of per-view classifiers.

For one sample, the V per-view probability vectors stack into a V x J matrix
P; the ensemble prediction is argmax of the weighted row sum w @ P. Weights
live on the simplex and are fitted by random search on validation data,
scored by AMAE. The V one-hot vectors and the uniform vector are always
evaluated alongside the random candidates, so the selected ensemble can
never score worse on validation than the best single view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _validate_labels, check_probability_vector
from .model import predict_proba

__all__ = [
    "ViewProbMatrix",
    "WeightVector",
    "aggregate",
    "optimize_weights",
    "ensemble_predict",
]


@dataclass(frozen=True)
class ViewProbMatrix:
    """Per-view probability rows for a single sample."""

    probs: np.ndarray
    view_names: tuple[str, ...]

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 2 or probs.shape[0] != len(self.view_names):
            raise ValueError("probs must be V x J with one row per view name")
        for row in probs:
            check_probability_vector(row)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class WeightVector:
    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-D vector")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)


def _as_weight_array(w) -> np.ndarray:
    if isinstance(w, WeightVector):
        return w.w
    return WeightVector(w=np.asarray(w, dtype=np.float64)).w


def aggregate(p, w) -> np.ndarray:
    """Weighted row sum: out_j = sum_i w_i P_ij; a valid probability vector."""
    probs = p.probs if isinstance(p, ViewProbMatrix) else np.asarray(p, dtype=np.float64)
    weights = _as_weight_array(w)
    if probs.ndim != 2 or probs.shape[0] != weights.size:
        raise ValueError("weight length must match the number of view rows")
    return weights @ probs


def optimize_weights(
    per_view_val_probs,
    y_val,
    n_candidates: int = 1000,
    seed: int = 0,
) -> WeightVector:
    """Random-search simplex weights minimizing validation AMAE.

    Candidates are evaluated in a fixed order: the V one-hot vectors, the
    uniform vector, then ``n_candidates`` vectors of iid uniform(0,1)
    components normalized to sum 1. The first candidate achieving the lowest
    AMAE wins, which both makes the search deterministic per seed and
    guarantees the result is never worse on validation than any single view.
    """
    if n_candidates < 1:
        raise ValueError("n_candidates must be >= 1")
    stack = np.stack(
        [np.asarray(p, dtype=np.float64) for p in per_view_val_probs], axis=0
    )
    if stack.ndim != 3:
        raise ValueError("per_view_val_probs must stack to V x n x J")
    n_views, n_val, n_classes = stack.shape
    y_val = np.asarray(y_val, dtype=np.int64)
    if n_val == 0:
        raise ValueError("empty validation set")
    if y_val.shape != (n_val,):
        raise ValueError("y_val length must match validation probabilities")
    y_val = _validate_labels(y_val, n_classes)

    rng = np.random.default_rng(seed)
    candidates = np.vstack(
        [
            np.eye(n_views),
            np.full((1, n_views), 1.0 / n_views),
            _sample_simplex(rng, n_candidates, n_views),
        ]
    )
    # Every candidate at once: (C, n) predictions, then per-class error sums
    # through the (n, J) one-hot label matrix. Memory is C x n x J floats.
    preds = np.argmax(np.tensordot(candidates, stack, axes=(1, 0)), axis=2)
    one_hot = np.eye(n_classes)[y_val]
    counts = one_hot.sum(axis=0)
    present = counts > 0
    per_class = (np.abs(preds - y_val) @ one_hot)[:, present] / counts[present]
    # AMAE over the classes present in y_val; argmin keeps the first of ties
    return WeightVector(w=candidates[np.argmin(per_class.mean(axis=1))])


def _sample_simplex(rng: np.random.Generator, n: int, v: int) -> np.ndarray:
    """iid uniform(0,1) components normalized to sum 1; zero-sum draws (a
    measure-zero corner) fall back to uniform weights."""
    raw = rng.uniform(0.0, 1.0, size=(n, v))
    sums = raw.sum(axis=1, keepdims=True)
    degenerate = sums[:, 0] == 0.0
    if degenerate.any():
        raw[degenerate] = 1.0
        sums = raw.sum(axis=1, keepdims=True)
    return raw / sums


def ensemble_predict(models, sample_views, w) -> int:
    """Per-view predict_proba, aggregate, argmax.

    ``models`` maps view name -> TrainedModel and ``sample_views`` maps view
    name -> feature vector; every model view must be present in the sample.
    """
    if not models:
        raise ValueError("need at least one model")
    weights = _as_weight_array(w)
    if weights.size != len(models):
        raise ValueError("weight length must match the number of views")
    names = list(models)
    missing = [name for name in names if name not in sample_views]
    if missing:
        raise KeyError(f"sample is missing views: {missing}")
    rows = np.vstack(
        [predict_proba(models[name], sample_views[name]) for name in names]
    )
    return int(np.argmax(aggregate(rows, weights)))
