"""Desk-scale trainable classifier and AMAE-guided hyperparameter search.

A model is a feature backbone (linear or one hidden ReLU layer) under either
a softmax head (J logits) or a cumulative-link head (scalar latent + ordered
thresholds), trained by plain minibatch SGD with a fixed learning rate.

The 14 method identifiers pair the 7 loss/target families {nominal,
triangular, beta, exponential, cdwce, sord, slace} with the two heads; the
cumulative-link variants carry a ``clm``/``clm_`` prefix. ``search_space``
returns each method's published-range grid (``FAMILY_GRIDS``), ``tune`` the
params that the exhaustive-or-15-samples search scored by stratified k-fold
AMAE picks, and ``method_config`` the ModelConfig of a method and its params.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .core import _subseed, _validate_labels, check_fields
from .metrics import amae
from .softlabel import (
    KINDS as SOFT_KINDS,
    SORD_TRANSFORMS,
    SoftLabelConfig,
    SordConfig,
    target_matrix,
)

__all__ = [
    "ModelConfig",
    "TrainedModel",
    "SearchSpace",
    "TrainingDiverged",
    "METHODS",
    "method_config",
    "search_space",
    "train",
    "predict_proba_batch",
    "stratified_folds",
    "tune",
]

BACKBONES = ("linear", "one_hidden")
HEADS = ("softmax", "clm")
LOSSES = ("cce", "cce_soft", "cdwce", "sord", "slace")

LEARNING_RATE_GRID = (1e-4, 1e-3, 1e-2)
MIX_GRID = (0.8, 1.0)
ADJACENT_GRID = (0.01, 0.05, 0.10)
EXPONENT_GRID = (1.0, 1.5, 2.0)
CDWCE_ALPHA_GRID = (0.25, 0.5, 0.75, 1.0)
SMOOTHING_GRID = (0.3, 0.5, 0.8, 1.0, 2.0, 3.0, 4.0, 7.0, 10.0, 15.0, 20.0, 25.0)
D_MIN_GRID = (0.0, 0.5, 1.0)

# The 7 loss/target families and the keys tuned for each, in decode order
# (the last key varies fastest). Every family pairs with the softmax head
# (bare name) and the cumulative-link head ("clm_" prefix, "clm" for nominal).
FAMILY_GRIDS: dict[str, dict[str, tuple]] = {
    "nominal": {},
    "triangular": {"lam": MIX_GRID, "alpha_adjacent": ADJACENT_GRID},
    "beta": {"lam": MIX_GRID},
    "exponential": {"lam": MIX_GRID, "p_exponent": EXPONENT_GRID},
    "cdwce": {"alpha": CDWCE_ALPHA_GRID},
    "sord": {"beta": SMOOTHING_GRID, "transform": SORD_TRANSFORMS},
    "slace": {"beta": SMOOTHING_GRID},
}
METHODS = (
    *FAMILY_GRIDS,
    *("clm" if f == "nominal" else f"clm_{f}" for f in FAMILY_GRIDS),
)

_SOFT_FIELDS = ("lam", "alpha_adjacent", "concentration", "tau", "p_exponent")
MAX_TUNE_EVALS = 15


class TrainingDiverged(RuntimeError):
    """Raised when the training loss or a parameter becomes non-finite;
    carries the epoch index (the last one when only its final update
    overflowed).

    ``predict_proba_batch`` raises it with epoch None when the trained
    parameters overflow the forward pass into NaN probabilities: a softmax
    fit can saturate to exact one-hot rows, whose clamped gradient is
    exactly zero, and stop with finite weights near the float limit.
    """

    def __init__(self, epoch: int | None, detail: str | None = None):
        if detail is None:
            detail = f"a loss or parameter became NaN or infinite at epoch {epoch}"
        super().__init__(f"training diverged: {detail}")
        self.epoch = epoch


@dataclass(frozen=True)
class ModelConfig:
    n_classes: int
    loss: str = "cce"
    head: str = "softmax"
    backbone: str = "linear"
    hidden_width: int = 16
    d_min: float = 0.0
    soft: SoftLabelConfig | None = None
    cdwce_alpha: float = 1.0
    sord: SordConfig | None = None
    slace_beta: float = 1.0
    learning_rate: float = 1e-2
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.head not in HEADS:
            raise ValueError(f"unknown head {self.head!r}")
        if self.backbone not in BACKBONES:
            raise ValueError(f"unknown backbone {self.backbone!r}")
        if self.loss == "cce_soft" and self.soft is None:
            raise ValueError("loss 'cce_soft' needs a SoftLabelConfig")
        if self.loss == "sord" and self.sord is None:
            raise ValueError("loss 'sord' needs a SordConfig")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.hidden_width < 1:
            raise ValueError("hidden_width must be >= 1")
        if not self.d_min >= 0.0:
            raise ValueError("d_min must be >= 0")


@dataclass(frozen=True)
class TrainedModel:
    """Immutable parameters after training; safe for concurrent prediction.

    clm_b1 (shape (1,)) and clm_deltas (J - 2 entries) are the threshold
    parameters of the cumulative-link head; a softmax model holds zeros of
    shape (1,) and (0,).
    """

    config: ModelConfig
    w1: np.ndarray
    c1: np.ndarray
    w2: np.ndarray
    c2: np.ndarray
    clm_b1: np.ndarray
    clm_deltas: np.ndarray
    epoch_losses: np.ndarray

    def __post_init__(self):
        for name in ("w1", "c1", "w2", "c2", "clm_b1", "clm_deltas", "epoch_losses"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_features(self) -> int:
        return int(
            self.w1.shape[0] if self.config.backbone == "one_hidden" else self.w2.shape[0]
        )


def _kernel_loss(config: ModelConfig) -> tuple[str, float]:
    """The kernel loss family and its exponent; cce_soft and sord train as
    cross-entropy against their target rows."""
    if config.loss == "cdwce":
        return "cdwce", config.cdwce_alpha
    if config.loss == "slace":
        return "slace", 1.0
    return "cce", 1.0


def _target_rows(config: ModelConfig) -> np.ndarray:
    j = config.n_classes
    if config.loss == "cce_soft":
        return target_matrix(j, config.soft)
    if config.loss == "sord":
        return target_matrix(j, config.sord)
    if config.loss == "slace":
        return target_matrix(j, SordConfig(beta=config.slace_beta, transform="max"))
    return np.eye(j)


def _init_clm_arrays(config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Thresholds start as an even grid spanning [-2, 2] around the latent 0."""
    j = config.n_classes
    b1 = np.array([-2.0])
    if j == 2:
        return b1, np.zeros(0)
    step = 4.0 / (j - 2)
    deltas = np.full(j - 2, math.sqrt(max(step - config.d_min, 0.0)))
    return b1, deltas


def _check_finite(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise ValueError("x holds NaN or infinite features")


def train(config: ModelConfig, x, y) -> TrainedModel:
    """Minibatch SGD; bitwise deterministic for a given (config, data)."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("x must be a nonempty 2-D feature matrix")
    _check_finite(x)
    y = _validate_labels(y, config.n_classes)
    if y.shape != (x.shape[0],):
        raise ValueError("y length must match x rows")

    n, d = x.shape
    j = config.n_classes
    k_out = 1 if config.head == "clm" else j
    rng = np.random.default_rng(config.seed)
    if config.backbone == "one_hidden":
        h = config.hidden_width
        w1 = rng.normal(size=(d, h)) / math.sqrt(d)
        c1 = np.zeros(h)
        w2 = rng.normal(size=(h, k_out)) / math.sqrt(h)
    else:
        w1 = np.zeros((1, 1))
        c1 = np.zeros(1)
        w2 = rng.normal(size=(d, k_out)) / math.sqrt(d)
    c2 = np.zeros(k_out)
    if config.head == "clm":
        clm_b1, clm_deltas = _init_clm_arrays(config)
    else:
        clm_b1, clm_deltas = np.zeros(1), np.zeros(0)

    # row e permuted in place draws what rng.permutation(n) would at epoch e
    shuffles = rng.permuted(np.tile(np.arange(n), (config.epochs, 1)), axis=1)

    targets = np.ascontiguousarray(_target_rows(config)[y])
    loss, loss_alpha = _kernel_loss(config)
    losses = _k.run_sgd(
        x,
        y,
        targets,
        shuffles,
        loss,
        loss_alpha,
        config.backbone,
        config.head,
        config.d_min,
        w1,
        c1,
        w2,
        c2,
        clm_b1,
        clm_deltas,
        config.learning_rate,
        config.batch_size,
    )
    bad = np.flatnonzero(~np.isfinite(losses))
    if bad.size:
        raise TrainingDiverged(int(bad[0]))
    params = (w1, c1, w2, c2, clm_b1, clm_deltas)
    # the epoch loss is taken before each update, so only the parameters
    # show an overflow in the last one
    if not all(np.isfinite(p).all() for p in params):
        raise TrainingDiverged(config.epochs - 1)
    return TrainedModel(config, *params, epoch_losses=losses)


def predict_proba_batch(model: TrainedModel, x) -> np.ndarray:
    """(n, d) features -> (n, J) class probabilities.

    Raises ``TrainingDiverged`` when a row's probabilities are not finite.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be 2-D")
    if x.shape[1] != model.n_features:
        raise ValueError(
            f"expected {model.n_features} features, got {x.shape[1]}"
        )
    _check_finite(x)
    cfg = model.config
    # a saturated fit overflows here instead of in training; the NaN rows
    # it makes are its one signal, not the RuntimeWarnings on the way
    with np.errstate(over="ignore", invalid="ignore"):
        probs = _k.forward_batch(
            x,
            cfg.backbone,
            cfg.head,
            cfg.d_min,
            model.w1,
            model.c1,
            model.w2,
            model.c2,
            model.clm_b1,
            model.clm_deltas,
        )
    if not np.isfinite(probs).all():
        bad = int(np.count_nonzero(~np.isfinite(probs).all(axis=1)))
        raise TrainingDiverged(
            None,
            f"the trained parameters overflow the forward pass: NaN "
            f"probabilities in {bad} of {probs.shape[0]} rows",
        )
    return probs


# ------------------------------------------------------------ method registry


def _head_family(method: str) -> tuple[str, str]:
    """(head, loss family) of a method identifier."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method.startswith("clm"):
        return "clm", method[4:] or "nominal"
    return "softmax", method


def method_config(
    method: str, n_classes: int, params: dict | None = None, **base
) -> ModelConfig:
    """Build the ModelConfig for a method identifier.

    ``params`` carries hyperparameters under the search-space key names
    (the keys of ``search_space(method).grid``; a soft-label family also
    reads tau and concentration), as ``tune`` returns them, or is None for
    the defaults; any other key raises a ValueError. ``base`` passes through
    fixed ModelConfig fields such as backbone, epochs, batch_size, or seed.
    """
    head, family = _head_family(method)
    params = params or {}
    known = set(search_space(method).grid)
    if family in SOFT_KINDS:
        known.update(_SOFT_FIELDS)
    for key in params:
        if key not in known:
            raise ValueError(f"method {method!r} has no parameter {key!r}")
    kwargs = {**base, "n_classes": n_classes, "head": head}
    for key in ("learning_rate", "d_min"):
        if key in params:
            kwargs[key] = params[key]
    smoothing = params.get("beta", 1.0)  # sord and slace
    if family == "nominal":
        kwargs["loss"] = "cce"
    elif family == "cdwce":
        kwargs.update(loss="cdwce", cdwce_alpha=params.get("alpha", 1.0))
    elif family == "sord":
        sord = SordConfig(beta=smoothing, transform=params.get("transform", "max"))
        kwargs.update(loss="sord", sord=sord)
    elif family == "slace":
        kwargs.update(loss="slace", slace_beta=smoothing)
    else:  # a soft-label kind; SoftLabelConfig reads only that kind's fields
        soft = {k: v for k, v in params.items() if k in _SOFT_FIELDS}
        kwargs.update(loss="cce_soft", soft=SoftLabelConfig(kind=family, **soft))
    return ModelConfig(**kwargs)


@dataclass(frozen=True)
class SearchSpace:
    """Cartesian hyperparameter grid for one method."""

    method: str
    grid: dict[str, tuple]

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        for key, values in self.grid.items():
            if len(values) == 0:
                raise ValueError(f"empty candidate list for {key!r}")

    @property
    def size(self) -> int:
        return math.prod(len(values) for values in self.grid.values())

    def at(self, index: int) -> dict:
        """Mixed-radix decode: the last grid key varies fastest."""
        if not 0 <= index < self.size:
            raise IndexError(index)
        pos = np.unravel_index(index, [len(values) for values in self.grid.values()])
        return {key: values[p] for (key, values), p in zip(self.grid.items(), pos)}


def search_space(method: str) -> SearchSpace:
    """Published tuning ranges per method: the learning rate, d_min for the
    cumulative-link head, then the family's keys from ``FAMILY_GRIDS``."""
    head, family = _head_family(method)
    grid: dict[str, tuple] = {"learning_rate": LEARNING_RATE_GRID}
    if head == "clm":
        grid["d_min"] = D_MIN_GRID
    return SearchSpace(method=method, grid={**grid, **FAMILY_GRIDS[family]})


def stratified_folds(y, n_folds: int, seed: int) -> np.ndarray:
    """Fold index per sample: seeded shuffle within class, then round-robin."""
    y = _validate_labels(y, None)
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    counts = np.bincount(y)
    if counts.min() < n_folds:
        raise ValueError(
            f"smallest class has {counts.min()} samples, fewer than {n_folds} folds"
        )
    rng = np.random.default_rng(seed)
    folds = np.empty(y.size, dtype=np.int64)
    # the classes np.unique(y) gives, in its order; with no return_* flag,
    # np.unique imports numpy.ma (~17 ms) to test y for a mask
    for q in np.flatnonzero(counts):
        members = np.flatnonzero(y == q)
        members = members[rng.permutation(members.size)]
        folds[members] = np.arange(members.size) % n_folds
    return folds


def tune(
    space: SearchSpace,
    x,
    y,
    n_classes: int,
    seed: int,
    folds: int = 3,
    trace: list | None = None,
    **base,
) -> dict:
    """The search-space params minimizing mean stratified k-fold AMAE.

    Exhaustive when the grid fits within 15 evaluations, otherwise 15
    distinct configurations sampled uniformly without replacement. A fold
    whose training diverges, or whose model overflows on the held-out rows,
    scores the worst possible AMAE (J - 1). Ties go to the earlier
    candidate in sampling order. ``base`` fixes the non-searched
    ModelConfig fields (backbone, epochs, batch size, ...) of the fold
    fits; pass the returned params on to ``method_config``.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = _validate_labels(y, n_classes)
    size = space.size
    rng = np.random.default_rng(seed)
    if size <= MAX_TUNE_EVALS:
        candidate_indices = np.arange(size)
    else:
        candidate_indices = rng.choice(size, size=MAX_TUNE_EVALS, replace=False)
    fold_of = stratified_folds(y, folds, seed)

    best_params: dict = {}
    best_score = math.inf
    for ci in candidate_indices:
        params = space.at(int(ci))
        scores = []
        for f in range(folds):
            fit = fold_of != f
            cfg = method_config(
                space.method,
                n_classes,
                params,
                seed=_subseed(seed, f),
                **base,
            )
            try:
                model = train(cfg, x[fit], y[fit])
                preds = np.argmax(predict_proba_batch(model, x[~fit]), axis=1)
                scores.append(amae(y[~fit], preds, n_classes))
            except TrainingDiverged:
                scores.append(float(n_classes - 1))
        score = float(np.mean(scores))
        if trace is not None:
            trace.append({"params": params, "amae": score})
        if score < best_score:
            best_score = score
            best_params = params
    return best_params
