"""Labels, confusion matrices, stratified data handling, and config fields.

Conventions used across the package:

* labels are 0-based ordinal ranks ``0..n_classes-1`` stored as int64;
* probability vectors are 1-D float64 arrays summing to 1;
* every random operation takes an explicit integer seed and builds its own
  ``numpy.random.Generator``; nothing touches global RNG state. A seed for
  one role under a parent seed (a fold, a split, a fit) is derived by
  ``_subseed(parent, role, ...)``.
"""

from __future__ import annotations

import functools
import math
import numbers
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "MultiViewDataset",
    "confusion_matrix",
    "class_counts",
    "apportion_counts",
    "split_counts",
    "stratified_split",
    "stratified_resample",
]


def _subseed(*parts: int) -> int:
    """Stable derived seed: the first word of SeedSequence(parts)."""
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


# ----------------------------------------------------------- config fields
# The field annotations of a config dataclass are its one table of option
# types, for API values (check_fields) and config-file text (parse_option).

_NUMBERS = {int: numbers.Integral, float: numbers.Real}
_BOOL_TEXT = {"true": True, "on": True, "yes": True,
              "false": False, "off": False, "no": False}


# field name -> evaluated annotation of a config dataclass, once per class:
# typing.get_type_hints costs ~50 ModelConfig constructions
field_types = functools.cache(typing.get_type_hints)


def _type_name(hint) -> str:
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return f"tuple[{_type_name(args[0])}, ...]"
    if args:
        return " | ".join(map(_type_name, args))
    return "None" if hint is type(None) else hint.__name__


def _typed(hint, value):
    """value as a field annotated hint stores it; TypeError if it does not fit."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if isinstance(value, (tuple, list)):
            return tuple(_typed(args[0], v) for v in value)
    elif args:  # a union: the first member that takes the value
        for arg in args:
            try:
                return _typed(arg, value)
            except TypeError:
                pass
    elif hint is Path:
        if isinstance(value, (str, Path)):
            return Path(value)
    elif hint in _NUMBERS:  # bool is an Integral, but no number here
        if isinstance(value, _NUMBERS[hint]) and not isinstance(value, bool):
            return hint(value)
    elif isinstance(value, hint):
        return value
    raise TypeError


def check_fields(obj) -> None:
    """Hold each field of a frozen config dataclass to its annotation; call it
    first in ``__post_init__``. A float field takes an integer, an int field
    takes no float or bool, and both store the builtin type. A Path field
    takes a str, and a tuple field a list."""
    for name, hint in field_types(type(obj)).items():
        value = getattr(obj, name)
        if type(value) is hint:  # the common case, without the typing calls
            continue
        try:
            typed = _typed(hint, value)
        except TypeError:
            expected = _type_name(hint)
            raise ValueError(f"{name}: expected {expected}, got {value!r}") from None
        if typed is not value:
            object.__setattr__(obj, name, typed)


def parse_option(hint, text: str):
    """A config value read from text by its field's annotation: ``none`` for
    an optional field, true/false/on/off/yes/no for a bool, and
    comma-separated items for a tuple."""
    args = typing.get_args(hint)
    try:
        if typing.get_origin(hint) is tuple:
            parts = (part.strip() for part in text.split(","))
            return tuple(parse_option(args[0], part) for part in parts if part)
        if args:  # X | None
            none = text.lower() in ("none", "null")
            return None if none else parse_option(args[0], text)
        if hint is bool:
            return _BOOL_TEXT[text.lower()]
        if hint in (int, float, str, Path):
            return hint(text)
    except (KeyError, ValueError):
        pass
    raise ValueError(f"expected {_type_name(hint)}, got {text}")


def _validate_labels(labels, n_classes: int | None) -> np.ndarray:
    """The labels as a 1-D int64 array; a ValueError for a non-integer value
    or, unless n_classes is None, one outside [0, n_classes - 1]."""
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValueError("labels must be 1-D")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        arr = np.asarray(labels, dtype=np.float64)
        if not np.all(arr == np.floor(arr)):
            raise ValueError("labels must be integers")
    arr = arr.astype(np.int64)
    if n_classes is not None and arr.size and (arr.min() < 0 or arr.max() >= n_classes):
        raise ValueError(
            f"labels must lie in [0, {n_classes - 1}], "
            f"got range [{arr.min()}, {arr.max()}]"
        )
    return arr


def class_counts(labels, n_classes: int) -> np.ndarray:
    """Per-class sample counts as an int64 vector of length n_classes."""
    arr = _validate_labels(labels, n_classes)
    return np.bincount(arr, minlength=n_classes).astype(np.int64)


def confusion_matrix(y_true, y_pred, n_classes: int) -> np.ndarray:
    """Counts matrix with rows = true class, columns = predicted class."""
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    yt = _validate_labels(y_true, n_classes)
    yp = _validate_labels(y_pred, n_classes)
    if yt.shape != yp.shape:
        raise ValueError("y_true and y_pred must have the same length")
    flat = np.bincount(yt * n_classes + yp, minlength=n_classes * n_classes)
    return flat.reshape(n_classes, n_classes).astype(np.int64)


def check_view_names(names) -> None:
    """Raise a ValueError for a view name that is not a plain file name
    (empty, ``.``, ``..``, or holding ``/`` or ``\\``), since a view is
    written to ``<name>.csv``, or that holds ``+``, which joins the views of
    a configuration's name."""
    for name in names:
        if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
            raise ValueError(f"view name {name!r} is not a plain file name")
        if "+" in name:
            raise ValueError(
                f"view name {name!r} contains '+', which joins the views of a configuration"
            )


@dataclass(frozen=True)
class MultiViewDataset:
    """Aligned feature blocks (one per view) plus one shared label vector.

    Arrays are coerced to float64/int64 and frozen read-only, so datasets can
    be shared across experiment arms without defensive copies.
    """

    views: dict[str, np.ndarray]
    labels: np.ndarray
    n_classes: int
    _counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if not self.views:
            raise ValueError("at least one view is required")
        check_view_names(self.views)
        labels = _validate_labels(self.labels, self.n_classes)
        labels.flags.writeable = False
        views: dict[str, np.ndarray] = {}
        for name, block in self.views.items():
            arr = np.ascontiguousarray(block, dtype=np.float64)
            if arr.ndim != 2:
                raise ValueError(f"view {name!r} must be a 2-D array")
            if arr.shape[0] != labels.shape[0]:
                raise ValueError(
                    f"view {name!r} has {arr.shape[0]} rows, "
                    f"labels have {labels.shape[0]}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"view {name!r} has non-finite entries")
            arr.flags.writeable = False
            views[name] = arr
        object.__setattr__(self, "views", views)
        object.__setattr__(self, "labels", labels)
        counts = np.bincount(labels, minlength=self.n_classes).astype(np.int64)
        counts.flags.writeable = False
        object.__setattr__(self, "_counts", counts)

    @property
    def n_samples(self) -> int:
        return int(self.labels.shape[0])

    @property
    def view_names(self) -> tuple[str, ...]:
        return tuple(self.views)

    def counts(self) -> np.ndarray:
        return self._counts

    def subset(self, indices) -> "MultiViewDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return MultiViewDataset(
            views={name: block[idx] for name, block in self.views.items()},
            labels=self.labels[idx],
            n_classes=self.n_classes,
        )


def apportion_counts(quotas, total: int) -> np.ndarray:
    """Integer counts summing to ``total`` from fractional quotas.

    Largest-remainder rule: floor everything, then hand the leftover units to
    the largest remainders. Remainders are compared rounded to 12 decimals so
    float noise cannot reorder genuine ties; tied remainders favor the class
    with the smaller quota, then the lower index.
    """
    q = np.asarray(quotas, dtype=np.float64)
    if q.ndim != 1 or q.size == 0 or np.any(q < 0):
        raise ValueError("quotas must be a non-negative 1-D vector")
    base = np.floor(q).astype(np.int64)
    leftover = int(total - base.sum())
    if leftover < 0 or leftover > q.size:
        raise ValueError("total is inconsistent with the quotas")
    rem = np.round(q - base, 12)
    order = sorted(range(q.size), key=lambda i: (-rem[i], q[i], i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def split_counts(counts, fraction: float) -> np.ndarray:
    """Per-class held-out counts of a stratified split of classes with
    ``counts`` samples: round-half-up of the total times ``fraction``,
    apportioned by the largest-remainder rule. A ValueError names the first
    class with fewer than 2 samples, else the first left with none."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be strictly between 0 and 1, got {fraction!r}")
    counts = np.asarray(counts, dtype=np.int64)
    q = int(np.argmax(counts < 2))
    if counts[q] < 2:
        raise ValueError(f"class {q} has {counts[q]} samples, fewer than the 2 a split needs")
    total = int(math.floor(counts.sum() * fraction + 0.5))
    held = apportion_counts(counts * fraction, total)
    q = int(np.argmax(held >= counts))
    if held[q] >= counts[q]:
        raise ValueError(f"holding out {fraction:g} leaves class {q} no training samples")
    return held


def stratified_split(
    data: MultiViewDataset, test_fraction: float, seed: int
) -> tuple[MultiViewDataset, MultiViewDataset]:
    """One deterministic (train, test) split preserving class proportions.

    The overall test size is round-half-up of n_samples * test_fraction and
    is apportioned to classes by the largest-remainder rule, so per-class
    test counts match the class proportions as closely as integers allow.
    Which samples land where is decided by a seeded shuffle within each class.
    """
    t_counts = split_counts(data.counts(), test_fraction)
    rng = np.random.default_rng(seed)
    test_idx = []
    train_idx = []
    for q in range(data.n_classes):
        members = np.flatnonzero(data.labels == q)
        perm = rng.permutation(members.size)
        shuffled = members[perm]
        test_idx.append(shuffled[: t_counts[q]])
        train_idx.append(shuffled[t_counts[q] :])
    train = np.sort(np.concatenate(train_idx))
    test = np.sort(np.concatenate(test_idx))
    return data.subset(train), data.subset(test)


def stratified_resample(data: MultiViewDataset, seed: int) -> MultiViewDataset:
    """Bootstrap resample drawn within each class.

    Every class keeps its exact count (rows are drawn with replacement from
    that class only), so the label vector of the result equals the input's.
    """
    rng = np.random.default_rng(seed)
    idx = np.arange(data.n_samples, dtype=np.int64)
    for q in range(data.n_classes):
        members = np.flatnonzero(data.labels == q)
        if members.size:
            draws = rng.integers(0, members.size, size=members.size)
            idx[members] = members[draws]
    return data.subset(idx)
