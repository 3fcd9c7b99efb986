"""Desk-scale trainable classifier and AMAE-guided hyperparameter search.

A model is a feature backbone (linear or one hidden ReLU layer) under either
a softmax head (J logits) or a cumulative-link head (scalar latent + ordered
thresholds), trained by plain minibatch SGD with a fixed learning rate.

The 14 method identifiers pair the 7 loss/target families {nominal,
triangular, beta, exponential, cdwce, sord, slace} with the two heads; the
cumulative-link variants carry a ``clm``/``clm_`` prefix. ``search_space``
returns each method's published-range hyperparameter grid and ``tune`` runs
the exhaustive-or-15-samples search scored by stratified k-fold AMAE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as _k
from .clm import LINKS, ClmParams
from .losses import SORD_TRANSFORMS, SordConfig, sord_targets
from .metrics import amae
from .softlabel import SoftLabelConfig, target_matrix

__all__ = [
    "ModelConfig",
    "TrainedModel",
    "SearchSpace",
    "TrainingDiverged",
    "METHODS",
    "method_config",
    "search_space",
    "train",
    "predict_proba",
    "predict_proba_batch",
    "stratified_folds",
    "tune",
]

BACKBONES = ("linear", "one_hidden")
HEADS = ("softmax", "clm")
LOSSES = ("cce", "cce_soft", "cdwce", "sord", "slace")

METHODS = (
    "nominal",
    "triangular",
    "beta",
    "exponential",
    "cdwce",
    "sord",
    "slace",
    "clm",
    "clm_triangular",
    "clm_beta",
    "clm_exponential",
    "clm_cdwce",
    "clm_sord",
    "clm_slace",
)

LEARNING_RATE_GRID = (1e-4, 1e-3, 1e-2)
MIX_GRID = (0.8, 1.0)
ADJACENT_GRID = (0.01, 0.05, 0.10)
EXPONENT_GRID = (1.0, 1.5, 2.0)
CDWCE_ALPHA_GRID = (0.25, 0.5, 0.75, 1.0)
SMOOTHING_GRID = (0.3, 0.5, 0.8, 1.0, 2.0, 3.0, 4.0, 7.0, 10.0, 15.0, 20.0, 25.0)
D_MIN_GRID = (0.0, 0.5, 1.0)

MAX_TUNE_EVALS = 15


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes NaN; carries the epoch index."""

    def __init__(self, epoch: int):
        super().__init__(f"training loss became NaN at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class ModelConfig:
    n_classes: int
    loss: str = "cce"
    head: str = "softmax"
    backbone: str = "linear"
    hidden_width: int = 16
    link: str = "logit"
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
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.head not in HEADS:
            raise ValueError(f"unknown head {self.head!r}")
        if self.backbone not in BACKBONES:
            raise ValueError(f"unknown backbone {self.backbone!r}")
        if self.head == "clm" and self.link not in LINKS:
            raise ValueError(f"unknown link {self.link!r}")
        if self.loss == "cce_soft" and self.soft is None:
            raise ValueError("loss 'cce_soft' needs a SoftLabelConfig")
        if self.loss == "sord" and self.sord is None:
            raise ValueError("loss 'sord' needs a SordConfig")
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be positive")
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
    """Immutable parameters after training; safe for concurrent prediction."""

    config: ModelConfig
    w1: np.ndarray
    c1: np.ndarray
    w2: np.ndarray
    c2: np.ndarray
    clm: ClmParams | None
    epoch_losses: np.ndarray
    training_log: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("w1", "c1", "w2", "c2", "epoch_losses"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        log = np.minimum.accumulate(self.epoch_losses)
        log.flags.writeable = False
        object.__setattr__(self, "training_log", log)

    @property
    def n_features(self) -> int:
        return int(
            self.w1.shape[0] if self.config.backbone == "one_hidden" else self.w2.shape[0]
        )


def _kernel_loss(config: ModelConfig) -> tuple[str, float]:
    """The kernel loss family and its exponent; cce_soft and sord train as
    cross-entropy against their target rows."""
    if config.loss == "cdwce":
        return "cdwce", float(config.cdwce_alpha)
    if config.loss == "slace":
        return "slace", 1.0
    return "cce", 1.0


def _target_rows(config: ModelConfig) -> np.ndarray:
    j = config.n_classes
    if config.loss == "cce_soft":
        return target_matrix(j, config.soft)
    if config.loss == "sord":
        return np.vstack([sord_targets(k, j, config.sord) for k in range(j)])
    if config.loss == "slace":
        cfg = SordConfig(beta=config.slace_beta, transform="max")
        return np.vstack([sord_targets(k, j, cfg) for k in range(j)])
    return np.eye(j)


def _init_clm_arrays(config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Thresholds start as an even grid spanning [-2, 2] around the latent 0."""
    j = config.n_classes
    b1 = np.array([-2.0])
    if j == 2:
        return b1, np.zeros(0)
    step = 4.0 / (j - 2) if j > 2 else 0.0
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
    y = np.ascontiguousarray(y, dtype=np.int64)
    if y.shape != (x.shape[0],):
        raise ValueError("y length must match x rows")
    if y.size and (y.min() < 0 or y.max() >= config.n_classes):
        raise ValueError("labels outside [0, n_classes)")

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

    shuffles = np.empty((config.epochs, n), dtype=np.int64)
    for e in range(config.epochs):
        shuffles[e] = rng.permutation(n)

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
        config.link,
        float(config.d_min),
        w1,
        c1,
        w2,
        c2,
        clm_b1,
        clm_deltas,
        float(config.learning_rate),
        int(config.batch_size),
    )
    bad = np.flatnonzero(~np.isfinite(losses))
    if bad.size:
        raise TrainingDiverged(int(bad[0]))

    clm_params = None
    if config.head == "clm":
        clm_params = ClmParams(
            b1=float(clm_b1[0]),
            deltas=clm_deltas,
            link=config.link,
            d_min=config.d_min,
        )
    return TrainedModel(
        config=config, w1=w1, c1=c1, w2=w2, c2=c2, clm=clm_params, epoch_losses=losses
    )


def predict_proba_batch(model: TrainedModel, x) -> np.ndarray:
    """(n, d) features -> (n, J) class probabilities."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be 2-D")
    if x.shape[1] != model.n_features:
        raise ValueError(
            f"expected {model.n_features} features, got {x.shape[1]}"
        )
    _check_finite(x)
    cfg = model.config
    if cfg.head == "clm":
        clm_b1 = np.array([model.clm.b1])
        clm_deltas = model.clm.deltas
    else:
        clm_b1, clm_deltas = np.zeros(1), np.zeros(0)
    return _k.forward_batch(
        x,
        cfg.backbone,
        cfg.head,
        cfg.link,
        float(cfg.d_min),
        model.w1,
        model.c1,
        model.w2,
        model.c2,
        clm_b1,
        clm_deltas,
    )


def predict_proba(model: TrainedModel, features) -> np.ndarray:
    """One feature vector -> one probability vector."""
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("features must be a 1-D vector")
    return predict_proba_batch(model, arr.reshape(1, -1))[0]


# ------------------------------------------------------------ method registry


def method_config(
    method: str, n_classes: int, params: dict | None = None, **base
) -> ModelConfig:
    """Build the ModelConfig for a method identifier.

    ``params`` carries tuned hyperparameters under the search-space key names
    (learning_rate, lam, alpha_adjacent, p_exponent, alpha, beta, transform,
    d_min); ``base`` passes through fixed ModelConfig fields such as backbone,
    epochs, batch_size, or seed.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    params = dict(params or {})
    head = "clm" if method.startswith("clm") else "softmax"
    family = method[4:] if method.startswith("clm_") else method
    if method == "clm":
        family = "nominal"

    kwargs: dict = dict(base)
    kwargs["n_classes"] = n_classes
    kwargs["head"] = head
    if "learning_rate" in params:
        kwargs["learning_rate"] = float(params["learning_rate"])
    if head == "clm" and "d_min" in params:
        kwargs["d_min"] = float(params["d_min"])

    if family == "nominal":
        kwargs["loss"] = "cce"
    elif family in ("triangular", "beta", "exponential"):
        kwargs["loss"] = "cce_soft"
        soft_kwargs: dict = {"kind": family, "lam": float(params.get("lam", 1.0))}
        if family == "triangular":
            soft_kwargs["alpha_adjacent"] = float(params.get("alpha_adjacent", 0.05))
        elif family == "exponential":
            soft_kwargs["tau"] = float(params.get("tau", 1.0))
            soft_kwargs["p_exponent"] = float(params.get("p_exponent", 1.0))
        else:
            soft_kwargs["concentration"] = float(params.get("concentration", 10.0))
        kwargs["soft"] = SoftLabelConfig(**soft_kwargs)
    elif family == "cdwce":
        kwargs["loss"] = "cdwce"
        kwargs["cdwce_alpha"] = float(params.get("alpha", 1.0))
    elif family == "sord":
        kwargs["loss"] = "sord"
        kwargs["sord"] = SordConfig(
            beta=float(params.get("beta", 1.0)),
            transform=params.get("transform", "max"),
        )
    else:
        kwargs["loss"] = "slace"
        kwargs["slace_beta"] = float(params.get("beta", 1.0))
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
        out = 1
        for values in self.grid.values():
            out *= len(values)
        return out

    def at(self, index: int) -> dict:
        """Mixed-radix decode: the last grid key varies fastest."""
        if not 0 <= index < self.size:
            raise IndexError(index)
        out = {}
        for key in reversed(list(self.grid)):
            values = self.grid[key]
            index, pos = divmod(index, len(values))
            out[key] = values[pos]
        return {key: out[key] for key in self.grid}


def search_space(method: str) -> SearchSpace:
    """Published tuning ranges per method (learning rate always included)."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    grid: dict[str, tuple] = {"learning_rate": LEARNING_RATE_GRID}
    if method.startswith("clm"):
        grid["d_min"] = D_MIN_GRID
    family = method[4:] if method.startswith("clm_") else method
    if method == "clm":
        family = "nominal"
    if family in ("triangular", "beta", "exponential"):
        grid["lam"] = MIX_GRID
    if family == "triangular":
        grid["alpha_adjacent"] = ADJACENT_GRID
    elif family == "exponential":
        grid["p_exponent"] = EXPONENT_GRID
    elif family == "cdwce":
        grid["alpha"] = CDWCE_ALPHA_GRID
    elif family == "sord":
        grid["beta"] = SMOOTHING_GRID
        grid["transform"] = SORD_TRANSFORMS
    elif family == "slace":
        grid["beta"] = SMOOTHING_GRID
    return SearchSpace(method=method, grid=grid)


def stratified_folds(y, n_folds: int, seed: int) -> np.ndarray:
    """Fold index per sample: seeded shuffle within class, then round-robin."""
    y = np.asarray(y, dtype=np.int64)
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    counts = np.bincount(y)
    if counts.min() < n_folds:
        raise ValueError(
            f"smallest class has {counts.min()} samples, fewer than {n_folds} folds"
        )
    rng = np.random.default_rng(seed)
    folds = np.empty(y.size, dtype=np.int64)
    for q in np.unique(y):
        members = np.flatnonzero(y == q)
        members = members[rng.permutation(members.size)]
        folds[members] = np.arange(members.size) % n_folds
    return folds


def _fold_seed(seed: int, fold: int) -> int:
    return int(np.random.SeedSequence((seed, fold)).generate_state(1)[0])


def tune(
    space: SearchSpace,
    x,
    y,
    n_classes: int,
    seed: int,
    folds: int = 3,
    trace: list | None = None,
    **base,
) -> ModelConfig:
    """Pick the config minimizing mean stratified k-fold AMAE.

    Exhaustive when the grid fits within 15 evaluations, otherwise 15
    distinct configurations sampled uniformly without replacement. A fold
    whose training diverges scores the worst possible AMAE (J - 1). Ties go
    to the earlier candidate in sampling order. ``base`` fixes the
    non-searched ModelConfig fields (backbone, epochs, batch size, ...).
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.int64)
    size = space.size
    rng = np.random.default_rng(seed)
    if size <= MAX_TUNE_EVALS:
        candidate_indices = np.arange(size)
    else:
        candidate_indices = rng.choice(size, size=MAX_TUNE_EVALS, replace=False)
    fold_of = stratified_folds(y, folds, seed)

    best_params: dict | None = None
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
                seed=_fold_seed(seed, f),
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
    return method_config(space.method, n_classes, best_params, **base)
