"""Decision-level fusion of per-view classifiers.

The V per-view probability matrices of n samples stack into a V x n x J
array; ``aggregate`` sums them with simplex weights w into the n x J fused
probabilities w @ P, whose row argmax is the ensemble prediction. The
weights are fitted by random search on validation data, scored by AMAE.
The V one-hot vectors and the uniform vector are always evaluated
alongside the random candidates, so the selected ensemble can never score
worse on validation than the best single view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _validate_labels
from .metrics import _amae

__all__ = [
    "WeightVector",
    "aggregate",
    "optimize_weights",
]

# aggregate floats scored at once by optimize_weights (256 KB of float64)
_SCORE_BUDGET = 1 << 15


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


def aggregate(w, stack) -> np.ndarray:
    """Weighted sum over the view axis of a V x n x J probability stack.

    (V,) weights give the n x J fused probabilities; (C, V) candidate
    weight rows give C x n x J, one fused matrix per candidate.
    """
    if np.shape(w)[-1] != np.shape(stack)[0]:
        raise ValueError("weight length must match the number of views")
    return np.tensordot(w, stack, axes=(-1, 0))


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
    if n_val == 0:
        raise ValueError("empty validation set")
    y_val = _validate_labels(y_val, n_classes)
    if y_val.shape != (n_val,):
        raise ValueError("y_val length must match validation probabilities")

    rng = np.random.default_rng(seed)
    candidates = np.vstack(
        [
            np.eye(n_views),
            np.full((1, n_views), 1.0 / n_views),
            _sample_simplex(rng, n_candidates, n_views),
        ]
    )
    # Candidates in blocks of _SCORE_BUDGET aggregate floats (at least one
    # candidate each); argmin keeps the first of ties within a block, the
    # strict < the first across blocks
    block = max(1, _SCORE_BUDGET // (n_val * n_classes))
    best, best_score = 0, np.inf
    for start in range(0, len(candidates), block):
        chunk = candidates[start : start + block]
        preds = np.argmax(aggregate(chunk, stack), axis=2)
        scores = _amae(y_val, preds, n_classes)
        i = int(np.argmin(scores))
        if scores[i] < best_score:
            best, best_score = start + i, scores[i]
    return WeightVector(w=candidates[best])


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
