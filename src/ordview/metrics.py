"""Ordinal and nominal evaluation metrics.

Quadratic (or general-exponent) weighted kappa, per-class-averaged MAE,
accuracy, per-class sensitivity and MAE, and the dataset imbalance ratio.
Confusion matrices follow core.confusion_matrix: rows true, columns
predicted.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import _validate_labels, confusion_matrix

__all__ = [
    "MetricReport",
    "penalty_matrix",
    "qwk",
    "amae",
    "accuracy",
    "per_class_sensitivity",
    "per_class_mae",
    "imbalance_ratio",
    "evaluate",
]


def penalty_matrix(n_classes: int, n_exponent: int = 2) -> np.ndarray:
    """Read-only omega[i, j] = |i - j|**n / (J-1)**n: zero diagonal, entries
    in [0, 1]."""
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    if n_exponent < 1:
        raise ValueError("n_exponent must be >= 1")
    idx = np.arange(n_classes)
    omega = np.abs(idx[:, None] - idx[None, :]).astype(np.float64) ** n_exponent
    omega /= float(n_classes - 1) ** n_exponent
    omega.flags.writeable = False
    return omega


def _check_cm(cm) -> np.ndarray:
    arr = np.asarray(cm, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
        raise ValueError("confusion matrix must be square with J >= 2")
    if np.any(arr < 0):
        raise ValueError("confusion matrix entries must be nonnegative")
    if arr.sum() < 1:
        raise ValueError("confusion matrix is empty")
    return arr


def qwk(cm, n_exponent: int = 2, expected_normalization: str = "n") -> float:
    """Weighted kappa: 1 - sum(omega * O) / sum(omega * E).

    E is the outer product of the margins divided by the sample total
    (``expected_normalization="n"``, the conventional form) or divided by the
    class count J (``"j"``, exposed for auditing against sources that print
    that variant).
    """
    arr = _check_cm(cm)
    if expected_normalization not in ("n", "j"):
        raise ValueError("expected_normalization must be 'n' or 'j'")
    j = arr.shape[0]
    omega = penalty_matrix(j, n_exponent)
    row = arr.sum(axis=1)
    col = arr.sum(axis=0)
    denom_scale = arr.sum() if expected_normalization == "n" else float(j)
    expected = np.outer(row, col) / denom_scale
    denom = float((omega * expected).sum())
    if denom == 0.0:
        raise ValueError(
            "degenerate agreement: all mass on one class in both margins"
        )
    return 1.0 - float((omega * arr).sum()) / denom


def accuracy(cm) -> float:
    arr = _check_cm(cm)
    return float(np.trace(arr) / arr.sum())


def per_class_sensitivity(cm) -> np.ndarray:
    """Diagonal over row totals; classes with zero support come back NaN."""
    arr = _check_cm(cm)
    row = arr.sum(axis=1)
    out = np.full(arr.shape[0], np.nan)
    present = row > 0
    out[present] = np.diag(arr)[present] / row[present]
    return out


def _class_mae(y_true, preds, n_classes: int) -> np.ndarray:
    """Mean |preds - y_true| per true class, over the last axis of ``preds``
    (any leading axes); NaN for a class absent from y_true."""
    one_hot = np.eye(n_classes)[y_true]
    counts = one_hot.sum(axis=0)
    err = np.abs(preds - y_true) @ one_hot
    return np.divide(err, counts, out=np.full(err.shape, np.nan), where=counts > 0)


def _amae(y_true, preds, n_classes: int) -> np.ndarray:
    """_class_mae averaged over the classes present in y_true."""
    present = np.bincount(y_true, minlength=n_classes) > 0
    return _class_mae(y_true, preds, n_classes)[..., present].mean(axis=-1)


def per_class_mae(y_true, y_pred, n_classes: int) -> np.ndarray:
    """Mean |y - y_hat| over samples of each true class; NaN if unsupported."""
    yt = _validate_labels(y_true, n_classes)
    yp = _validate_labels(y_pred, n_classes)
    if yt.shape != yp.shape or yt.size == 0:
        raise ValueError("inputs must be nonempty and equal length")
    return _class_mae(yt, yp, n_classes)


def amae(y_true, y_pred, n_classes: int | None = None) -> float:
    """Per-class MAE averaged over the classes present in y_true.

    When ``n_classes`` is omitted, J is one more than the largest label in
    either vector. When ``n_classes`` is given and some class has no true
    samples, that class is skipped from the average with a warning (rather
    than contributing a zero or a division error).
    """
    yt = np.asarray(y_true)
    if yt.size == 0:
        raise ValueError("empty input")
    if n_classes is None:
        j = int(np.max(y_pred, initial=yt.max())) + 1
    else:
        j = int(n_classes)
    per = per_class_mae(y_true, y_pred, j)
    present = ~np.isnan(per)
    if n_classes is not None and not present.all():
        missing = np.flatnonzero(~present).tolist()
        warnings.warn(
            f"classes {missing} absent from y_true; skipped from AMAE",
            stacklevel=2,
        )
    return float(per[present].mean())


def imbalance_ratio(counts) -> float:
    """(1/Q) sum_q [ sum_{i != q} N_i / ((Q-1) N_q) ]; 1 at perfect balance."""
    arr = np.asarray(counts, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need at least two class counts")
    if np.any(arr < 1):
        raise ValueError("all class counts must be >= 1")
    total = arr.sum()
    q = arr.size
    return float(np.mean((total - arr) / ((q - 1) * arr)))


@dataclass(frozen=True)
class MetricReport:
    qwk: float
    amae: float
    accuracy: float
    sens: np.ndarray
    mae_per_class: np.ndarray


def evaluate(
    y_true,
    y_pred,
    n_classes: int,
    qwk_exponent: int = 2,
    e_normalization: str = "n",
) -> MetricReport:
    """All per-run metrics from one pair of label vectors."""
    cm = confusion_matrix(y_true, y_pred, n_classes)
    return MetricReport(
        qwk=qwk(cm, qwk_exponent, e_normalization),
        amae=amae(y_true, y_pred, n_classes),
        accuracy=accuracy(cm),
        sens=per_class_sensitivity(cm),
        mae_per_class=per_class_mae(y_true, y_pred, n_classes),
    )
