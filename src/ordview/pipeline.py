"""Data generation/ingestion, experiment orchestration, and persistence.

An experiment crosses methods x view-configurations x seeds on one dataset:

* one stratified train/test split derives from the run-level base seed and is
  shared by every method, view configuration, and seed;
* each seed resamples the training partition per class (bootstrap), carves a
  stratified validation subset used only for ensemble weight search, tunes
  (optionally) and trains one model per view on the remainder;
* single-view rows score those models on the test partition; multi-view rows
  aggregate the per-view test probabilities with weights fitted on the
  validation carve-out. Test labels never reach tuning or weight search.

Results persist as a raw grid CSV (one row per method/view-config/seed),
mean +- std markdown summaries, and ANOVA/Tukey reports per metric. Reruns
with an identical config are byte-identical.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import warnings
from collections import Counter
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from .core import (
    MultiViewDataset,
    _subseed,
    apportion_counts,
    check_fields,
    check_view_names,
    split_counts,
    stratified_resample,
    stratified_split,
)
from .metrics import evaluate
from .model import (
    METHODS, ModelConfig, method_config, predict_proba_batch, search_space, train, tune
)
from .ensemble import aggregate, optimize_weights
from .stats import _check_design, anova2, tukey_hsd

__all__ = [
    "SynthConfig",
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentError",
    "generate_synthetic",
    "write_views_csv",
    "load_views_csv",
    "view_config_names",
    "grid_header",
    "run_experiment",
    "read_grid_csv",
]

DEFAULT_PROPORTIONS = (0.1356, 0.3458, 0.3593, 0.1593)
DEFAULT_VIEWS = ("crown", "north", "south")

METRIC_COLUMNS = ("qwk", "amae", "accuracy")
_MODEL_OPTIONS = ("backbone", "hidden_width", "epochs", "batch_size", "learning_rate")


class ExperimentError(RuntimeError):
    """A module error wrapped with its (method, view_config, seed) context."""


# ----------------------------------------------------------- synthetic data


@dataclass(frozen=True)
class SynthConfig:
    """Latent-driven stand-in for the multi-view imagery.

    Each sample has a scalar severity score; labels are the score's rank
    blocks sized to class_proportions. Every view sees the score along one
    direction plus Gaussian noise of scale view_noise[v]; a
    latent_correlation fraction of that noise variance is shared across
    views (0 = independent views, 1 = one common nuisance).
    """

    n_samples: int = 295
    n_features_per_view: int = 10
    n_classes: int = 4
    class_proportions: tuple[float, ...] = DEFAULT_PROPORTIONS
    view_names: tuple[str, ...] = DEFAULT_VIEWS
    view_noise: tuple[float, ...] = (1.0, 1.0, 1.0)
    latent_correlation: float = 0.1

    def __post_init__(self):
        check_fields(self)
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2")
        if self.n_features_per_view < 1:
            raise ValueError("n_features_per_view must be >= 1")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if len(self.class_proportions) != self.n_classes:
            raise ValueError("class_proportions length must equal n_classes")
        if not all(p > 0 for p in self.class_proportions):  # NaN fails too
            raise ValueError("class proportions must be positive")
        if abs(sum(self.class_proportions) - 1.0) > 1e-6:
            raise ValueError("class proportions must sum to 1")
        if not self.view_names:
            raise ValueError("need at least one view name")
        check_view_names(self.view_names)
        if len(set(self.view_names)) != len(self.view_names):
            raise ValueError("view names must be unique")
        if len(self.view_noise) != len(self.view_names):
            raise ValueError("view_noise length must match view_names")
        if not all(0 <= s < math.inf for s in self.view_noise):  # NaN fails too
            raise ValueError("view_noise entries must be >= 0 and finite")
        if not 0.0 <= self.latent_correlation <= 1.0:
            raise ValueError("latent_correlation must lie in [0, 1]")

    def for_views(self, views: tuple[str, ...]) -> SynthConfig:
        """This config if it generates all of ``views``, else one generating
        exactly ``views``, each with the first view's noise."""
        if set(views) <= set(self.view_names):
            return self
        noise = (self.view_noise[0],) * len(views)
        return dataclasses.replace(self, view_names=views, view_noise=noise)


def generate_synthetic(cfg: SynthConfig, seed: int) -> MultiViewDataset:
    """Deterministic multi-view dataset with exact per-class counts."""
    quotas = np.asarray(cfg.class_proportions) * cfg.n_samples
    counts = apportion_counts(quotas, cfg.n_samples)
    if np.any(counts == 0):
        raise ValueError(
            f"infeasible proportions: class counts {counts.tolist()} "
            f"for n_samples={cfg.n_samples}"
        )
    rng = np.random.default_rng(seed)
    z = rng.normal(size=cfg.n_samples)
    labels = np.empty(cfg.n_samples, dtype=np.int64)
    order = np.argsort(z)
    start = 0
    for q, c in enumerate(counts):
        labels[order[start : start + c]] = q
        start += c

    d = cfg.n_features_per_view
    rho = cfg.latent_correlation
    shared = rng.normal(size=(cfg.n_samples, d))
    shared *= math.sqrt(rho)
    views = {}
    # each view is z direction + noise_scale (sqrt(rho) shared + sqrt(1 - rho)
    # own), summed in place in its own noise draw: the same products and
    # (commuted) sums, so the same bits, with one (n, d) temporary
    for name, noise_scale in zip(cfg.view_names, cfg.view_noise):
        direction = rng.normal(size=d)
        direction /= np.linalg.norm(direction)
        view = rng.normal(size=(cfg.n_samples, d))
        view *= math.sqrt(1.0 - rho)
        view += shared
        view *= noise_scale
        view += z[:, None] * direction
        views[name] = view
    return MultiViewDataset(views=views, labels=labels, n_classes=cfg.n_classes)


def write_views_csv(
    data: MultiViewDataset,
    out_dir,
    label_column: str = "label",
    id_column: str = "sample_id",
) -> dict[str, Path]:
    """One CSV per view: id, features f0.., label. Returns view -> path.

    A label or id column named like the other or like a feature column
    raises a ValueError before any file is written, since the loader
    rejects a header with a duplicate column.
    """
    if label_column == id_column:
        raise ValueError(f"label column and id column are both {id_column!r}")
    width = max(block.shape[1] for block in data.views.values())
    features = {f"f{i}" for i in range(width)}
    for role, col in (("id", id_column), ("label", label_column)):
        if col in features:
            raise ValueError(f"{role} column {col!r} is also the name of a feature column")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, block in data.views.items():
        header = [id_column] + [f"f{i}" for i in range(block.shape[1])] + [label_column]
        paths[name] = _write_csv(out_dir / f"{name}.csv", header, _rows(block, data.labels))
    return paths


_WRITE_BLOCK = 4096  # rows converted to Python floats at a time


def _rows(block: np.ndarray, labels: np.ndarray):
    """[id, *features, label] per row, converted ``_WRITE_BLOCK`` rows at a
    time, so no list of the whole view is held."""
    for start in range(0, len(labels), _WRITE_BLOCK):
        stop = start + _WRITE_BLOCK
        rows = zip(block[start:stop].tolist(), labels[start:stop].tolist())
        yield from ([i, *x, y] for i, (x, y) in enumerate(rows, start))


# ------------------------------------------------------------------ csv i/o


def _write_csv(path: Path, header, rows) -> Path:
    """Write a header line and the rows, streamed one line at a time.

    Every cell of ``rows`` must be a Python int or float (both callers pass
    values from ``.tolist()``). Each is written with ``repr``, so every float
    reads back bit for bit, and the bytes equal what ``csv.writer`` writes,
    since no such cell needs quoting.
    """
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)
    return path


def _read_table(
    path, column_types, what, required=()
) -> tuple[list[str], list[np.ndarray], Sequence[int]]:
    """Header, typed columns and the line of each data row of one CSV file.

    ``column_types(header)`` gives every column's type: ``str`` for an
    object array of the cells as read, ``int`` or ``float`` for an int64 or
    float64 column, whose bad cells are reported as ``what[int]`` or
    ``what[float]`` values. It may raise ValueError to reject the header.
    An empty file, a missing required column and a duplicate column are
    rejected before any row is read.

    The body is parsed by one ``np.loadtxt`` call, which reads the file once
    and counts its lines as it goes. Its int64 and float64 parses give the
    values of Python's ``int`` and ``float`` and accept no spelling that
    those reject. Its result is used only when it raised nothing and has
    one row per physical data line (``loadtxt`` skips blank lines and reads
    a quoted newline as part of a cell, where ``csv.reader`` reports a short
    row or joins two lines). Else ``_read_csv`` and ``_parse_cells`` read
    the file cell by cell: they raise the ValueError naming the file and the
    line, or return the cells that only ``float`` or ``int`` parse, such as
    ``1_0.5`` or ``1_0``. A row's line is the physical line it ends on, so a
    quoted newline before it counts.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"file {path}: empty file")
        for col in required:
            if col not in header:
                raise ValueError(f"file {path}: missing required column {col!r}")
        dup = next((col for col, n in Counter(header).items() if n > 1), None)
        if dup is not None:
            raise ValueError(f"file {path}: duplicate column {dup!r}")
        types = column_types(header)
        skip = reader.line_num
        parsed = _loadtxt_columns(fh, types)
        if parsed is not None:
            columns, n_rows = parsed
            return header, columns, range(skip + 1, skip + 1 + n_rows)
        records, lines = _read_csv(path, fh, len(header))
    columns = [
        np.array([rec[i] for rec in records], dtype=object) if t is str else None
        for i, t in enumerate(types)
    ]
    # integer columns first, so a bad label is named before a bad feature
    for parse in (int, float):
        for i, t in enumerate(types):
            if t is parse:
                columns[i] = _parse_cells(
                    path, header, records, lines, i, parse, what[parse]
                )
    return header, columns, lines


_LOADTXT_TYPES = {str: object, int: np.int64, float: np.float64}


def _loadtxt_columns(fh, types) -> tuple[list[np.ndarray], int] | None:
    """The typed columns of the rest of ``fh`` and its number of lines, from
    one ``np.loadtxt`` call that pulls each line once and counts it; None
    when a cell does not parse, there is no line, or the call reads other
    than one row per line."""
    n_lines = 0

    def lines():
        nonlocal n_lines
        for n_lines, line in enumerate(fh, 1):
            yield line

    dtype = [(f"c{i}", _LOADTXT_TYPES[t]) for i, t in enumerate(types)]
    try:
        with warnings.catch_warnings():
            # an all-blank body reads as zero rows, which the count rejects
            warnings.simplefilter("ignore", UserWarning)
            # numpy < 2 reads an integer cell such as 1.0 with this warning
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(lines(), dtype=dtype, delimiter=",", quotechar='"',
                               comments=None, ndmin=1)
    except (ValueError, OverflowError, DeprecationWarning):
        return None
    if n_lines == 0 or len(table) != n_lines:
        return None
    return [table[name] for name, _ in dtype], n_lines


def _read_csv(path, fh, width: int) -> tuple[list[list[str]], list[int]]:
    """The data records of the open CSV file ``fh``, read by ``csv.reader``,
    and the line each record ends on.

    Raises ValueError, naming the file and the line, for a record whose
    width differs from the header's, and for a file without data rows.
    """
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)
    records, lines = [], []
    for rec in reader:
        records.append(rec)
        lines.append(reader.line_num)
    for line_no, rec in zip(lines, records):
        if len(rec) != width:
            raise ValueError(
                f"file {path}: line {line_no} has {len(rec)} fields, "
                f"expected {width}"
            )
    if not records:
        raise ValueError(f"file {path}: no data rows")
    return records, lines


def _parse_cells(
    path, header, records, lines, i: int, parse, what: str
) -> np.ndarray:
    """Column ``i`` of every record, each cell parsed by ``parse`` (int or
    float) into one int64 or float64 array; a cell that does not parse or
    fit raises a ValueError naming the file, its line in ``lines`` and the
    column."""
    dtype, kind = (np.int64, "an integer") if parse is int else (np.float64, "a number")
    cells = [rec[i] for rec in records]
    try:
        return np.fromiter(map(parse, cells), dtype, len(cells))
    except (ValueError, OverflowError):
        for line_no, cell in zip(lines, cells):
            try:
                dtype(parse(cell))
            except (ValueError, OverflowError):
                raise ValueError(
                    f"file {path}: line {line_no}: cannot parse {what} value "
                    f"{cell!r} in column {header[i]!r}: not {kind}"
                ) from None
        raise


def _check_labels(
    path, column: str, labels: np.ndarray, lines, n_classes=None
) -> None:
    """Raise a ValueError naming the file and the line (from ``lines``) of
    the first label below 0 or, when n_classes is given, above n_classes - 1."""
    bad = labels < 0 if n_classes is None else (labels < 0) | (labels >= n_classes)
    if bad.any():
        k = int(np.argmax(bad))
        where = f"file {path}: line {lines[k]}: label {labels[k]} in column {column!r}"
        if n_classes is None:
            raise ValueError(f"{where} is negative")
        raise ValueError(f"{where} lies outside [0, {n_classes - 1}]")


def _check_finite(path, names, block: np.ndarray, lines) -> None:
    """Raise a ValueError naming the file, the line (from ``lines``) and
    the column (from ``names``) of the first NaN or infinite value of the
    (rows, columns) ``block``, in file order."""
    finite = np.isfinite(block)
    if not finite.all():
        k, j = divmod(int(np.argmin(finite)), block.shape[1])
        raise ValueError(
            f"file {path}: line {lines[k]}: value {float(block[k, j])!r} in "
            f"column {names[j]!r} is not finite"
        )


def _parse_view_csv(path: Path, label_column: str, id_column: str, n_classes=None):
    """Sample ids, the (n, d) feature block and the labels of one view CSV."""

    def types(header):
        return [
            str if col == id_column else int if col == label_column else float
            for col in header
        ]

    header, columns, lines = _read_table(
        path, types, {int: "label", float: "feature"},
        required=(id_column, label_column),
    )
    id_pos = header.index(id_column)
    label_pos = header.index(label_column)
    ids = columns[id_pos].tolist()
    # a copy, since a view of one field would keep the whole parsed table alive
    labels = columns[label_pos].copy()
    _check_labels(path, label_column, labels, lines, n_classes)
    features = [i for i in range(len(header)) if i not in (id_pos, label_pos)]
    block = np.empty((len(ids), len(features)))
    for j, i in enumerate(features):
        block[:, j] = columns[i]
    _check_finite(path, [header[i] for i in features], block, lines)
    return ids, block, labels


def _id_order(path, ids: list[str]) -> np.ndarray:
    """The permutation that sorts the ids by (int(id), id), or by id alone
    when one id does not parse as an integer. Equal ids are neighbours in
    that order, so the first such pair raises a ValueError naming the file
    and the id."""
    try:
        keys = np.fromiter(map(int, ids), np.int64, len(ids))
    except ValueError:  # a non-integer id
        order = sorted(range(len(ids)), key=ids.__getitem__)
    except OverflowError:  # an id past int64
        order = sorted(range(len(ids)), key=lambda r: (int(ids[r]), ids[r]))
    else:
        order = np.argsort(keys, kind="stable")
        if not (np.diff(keys[order]) == 0).any():
            return order
        # spellings of one integer, such as 1 and 01, or one id twice
        order = np.lexsort((np.array(ids), keys)).tolist()
    dup = next((ids[a] for a, b in zip(order, order[1:]) if ids[a] == ids[b]), None)
    if dup is not None:
        raise ValueError(f"file {path}: duplicate sample id {dup!r}")
    return np.array(order, dtype=np.intp)


def load_views_csv(
    paths,
    label_column: str = "label",
    id_column: str = "sample_id",
    n_classes: int | None = None,
) -> MultiViewDataset:
    """Aligned multi-view dataset from one CSV per view.

    Views must agree on the sample-id set and on every sample's label; rows
    are ordered by ascending sample id (numeric when all ids parse as
    integers, ties such as ``1`` and ``01`` broken by the string). When
    ``n_classes`` is omitted it is inferred as max label + 1. Each view is
    parsed, ordered and checked against the first before the next is read.
    """
    if not paths:
        raise ValueError("need at least one view path")
    views = {}
    view_labels = []
    first_ids = None
    for view, path in paths.items():
        ids, block, labels = _parse_view_csv(Path(path), label_column, id_column, n_classes)
        if first_ids is None:
            first, first_ids, order = view, ids, _id_order(path, ids)
        idx = order
        if ids != first_ids:  # another order or other ids: sort them too
            idx = _id_order(path, ids)
            # distinct ids under one total order: equal sets sort alike
            if len(ids) != len(first_ids) or any(map(
                str.__ne__, map(ids.__getitem__, idx), map(first_ids.__getitem__, order)
            )):
                # the first in the order of both views' ids, which is the
                # integer order only when every one of them is an integer
                both = list(set(ids).union(first_ids))
                off = set(ids).symmetric_difference(first_ids)
                sid = next(both[k] for k in _id_order(path, both) if both[k] in off)
                raise ValueError(
                    f"view {first!r} and view {view!r}: sample ids differ "
                    f"(first offending id: {sid!r})"
                )
        if not np.array_equal(idx, np.arange(len(idx))):  # not already in id order
            block, labels = block[idx], labels[idx]
        views[view] = block
        view_labels.append(labels)
        del ids  # so the next view is not parsed beside this one's ids
    view_labels = np.stack(view_labels)
    conflicts = np.flatnonzero((view_labels != view_labels[0]).any(axis=0))
    if conflicts.size:
        k = conflicts[0]
        vals = dict(zip(views, view_labels[:, k].tolist()))
        sid = first_ids[order[k]]
        raise ValueError(f"sample id {sid!r}: conflicting labels across views: {vals}")
    labels = view_labels[0]
    j = int(labels.max()) + 1 if n_classes is None else int(n_classes)
    return MultiViewDataset(views=views, labels=labels, n_classes=j)


# ------------------------------------------------------------ configuration


@dataclass(frozen=True)
class ExperimentConfig:
    output_dir: Path
    methods: tuple[str, ...] = METHODS
    views: tuple[str, ...] = DEFAULT_VIEWS
    n_seeds: int = 20
    test_fraction: float = 0.2
    tuning: bool = True
    base_seed: int = 0
    synth: SynthConfig | None = field(default_factory=SynthConfig)
    csv_paths: dict | None = None
    label_column: str = "label"
    id_column: str = "sample_id"
    csv_n_classes: int | None = None
    data_seed: int = 0
    val_fraction: float = 0.25
    n_candidates: int = 1000
    folds: int = 3
    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 1e-2
    backbone: str = "linear"
    hidden_width: int = 16
    qwk_exponent: int = 2
    e_normalization: str = "n"
    workers: int = 1

    def __post_init__(self):
        check_fields(self)
        if not self.methods:
            raise ValueError("need at least one method")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("duplicate methods")
        if not self.views or len(set(self.views)) != len(self.views):
            raise ValueError("views must be nonempty and unique")
        check_view_names(self.views)
        if self.csv_paths is not None:
            check_view_names(self.csv_paths)
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie in (0, 1)")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in (0, 1)")
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if (self.synth is None) == (self.csv_paths is None):
            raise ValueError("configure exactly one of synth or csv_paths")
        if self.qwk_exponent < 1:
            raise ValueError("qwk_exponent must be >= 1")
        if self.e_normalization not in ("n", "j"):
            raise ValueError("e_normalization must be 'n' or 'j'")
        if self.workers != 1:
            raise ValueError(
                f"workers must be 1, got {self.workers}: seeds run one after another"
            )
        # the model options fail here, before anything is written, through
        # the checks of a throwaway ModelConfig
        ModelConfig(n_classes=2, **self.model_options)

    @property
    def model_options(self) -> dict:
        """The ModelConfig fields that every fit of the experiment shares."""
        return {name: getattr(self, name) for name in _MODEL_OPTIONS}


@dataclass(frozen=True)
class ExperimentResult:
    grid_path: Path
    config_path: Path
    summary_paths: dict[str, Path]
    stats_paths: dict[str, Path]
    header: tuple[str, ...]
    rows: tuple[tuple, ...]


def view_config_names(views) -> list[tuple[str, tuple[str, ...]]]:
    """All nonempty view combinations: singles, then pairs, ... in the given
    view order; each named by joining members with '+'."""
    views = list(views)
    out = []
    for size in range(1, len(views) + 1):
        for combo in combinations(range(len(views)), size):
            members = tuple(views[i] for i in combo)
            out.append(("+".join(members), members))
    return out


def grid_header(n_classes: int) -> tuple[str, ...]:
    return (
        "method",
        "view_config",
        "seed",
        "qwk",
        "amae",
        "accuracy",
        *[f"sens_{q}" for q in range(n_classes)],
        *[f"mae_{q}" for q in range(n_classes)],
    )


# -------------------------------------------------------------- orchestration


def _load_data(cfg: ExperimentConfig) -> MultiViewDataset:
    if cfg.synth is not None:
        return generate_synthetic(cfg.synth, cfg.data_seed)
    return load_views_csv(
        cfg.csv_paths,
        label_column=cfg.label_column,
        id_column=cfg.id_column,
        n_classes=cfg.csv_n_classes,
    )


@contextmanager
def _context(method, view, seed):
    """Wrap any error of the (method, view, seed) cell in ExperimentError."""
    try:
        yield
    except Exception as exc:
        msg = f"method={method} view={view} seed={seed}: {exc}"
        raise ExperimentError(msg) from exc


def _run_seed(cfg: ExperimentConfig, train_base, test, configs, seed) -> list[tuple]:
    j = train_base.n_classes
    resampled = stratified_resample(train_base, _subseed(cfg.base_seed, seed, 1))
    fit_part, val_part = stratified_split(
        resampled, cfg.val_fraction, _subseed(cfg.base_seed, seed, 2)
    )
    base = cfg.model_options
    rows = []
    for mi, method in enumerate(cfg.methods):
        p_val, p_test = {}, {}
        for vi, view in enumerate(cfg.views):
            x_fit, y_fit = fit_part.views[view], fit_part.labels
            with _context(method, view, seed):
                params = None
                if cfg.tuning:
                    params = tune(
                        search_space(method),
                        x_fit,
                        y_fit,
                        n_classes=j,
                        seed=_subseed(cfg.base_seed, seed, 3, mi, vi),
                        folds=cfg.folds,
                        **base,
                    )
                train_seed = _subseed(cfg.base_seed, seed, 4, mi, vi)
                config = method_config(method, j, params, seed=train_seed, **base)
                model = train(config, x_fit, y_fit)
                p_val[view] = predict_proba_batch(model, val_part.views[view])
                p_test[view] = predict_proba_batch(model, test.views[view])
        for ci, (name, members) in enumerate(configs):
            with _context(method, name, seed):
                if len(members) == 1:
                    probs = p_test[members[0]]
                else:
                    w = optimize_weights(
                        [p_val[v] for v in members],
                        val_part.labels,
                        n_candidates=cfg.n_candidates,
                        seed=_subseed(cfg.base_seed, seed, 5, mi, ci),
                    )
                    probs = aggregate(w.w, np.stack([p_test[v] for v in members]))
                preds = np.argmax(probs, axis=1)
                report = evaluate(
                    test.labels, preds, j, cfg.qwk_exponent, cfg.e_normalization
                )
            rows.append(
                (
                    method,
                    name,
                    seed,
                    report.qwk,
                    report.amae,
                    report.accuracy,
                    *report.sens.tolist(),
                    *report.mae_per_class.tolist(),
                )
            )
    return rows


def _config_json(cfg: ExperimentConfig) -> str:
    def default(obj):
        if isinstance(obj, Path):
            return str(obj)
        raise TypeError(type(obj))

    payload = dataclasses.asdict(cfg)
    return json.dumps(payload, indent=2, sort_keys=True, default=default)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    data = _load_data(cfg)
    missing = [v for v in cfg.views if v not in data.view_names]
    if missing:
        raise ValueError(f"views not in dataset: {missing}")
    try:
        train_base, test = stratified_split(data, cfg.test_fraction, cfg.base_seed)
    except ValueError as exc:
        raise ValueError(f"test_fraction={cfg.test_fraction:g}: {exc}") from exc
    # each seed resamples train_base within its classes, so every seed's
    # validation split holds out these counts
    counts = train_base.counts()
    try:
        fit = counts - split_counts(counts, cfg.val_fraction)
    except ValueError as exc:
        raise ValueError(f"val_fraction={cfg.val_fraction:g}: {exc}") from exc
    if cfg.tuning and fit.min() < cfg.folds:
        q = int(np.argmin(fit))
        raise ValueError(
            f"class {q} has {fit[q]} fit samples (train minus validation), "
            f"fewer than folds={cfg.folds}"
        )
    configs = view_config_names(cfg.views)
    header = grid_header(data.n_classes)

    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / "config.json"
    config_path.write_text(_config_json(cfg) + "\n")
    grid_path = out / "grid.csv"

    all_rows: list[tuple] = []
    with grid_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        fh.flush()
        for seed in range(cfg.n_seeds):
            rows = _run_seed(cfg, train_base, test, configs, seed)
            writer.writerows(rows)
            fh.flush()
            all_rows.extend(rows)

    # the rows are seed-major, (seed, method, view config); each metric gets
    # a (method, view config, seed) block, contiguous along the seeds
    cols = [header.index(metric) for metric in METRIC_COLUMNS]
    grid = np.array([[row[c] for c in cols] for row in all_rows], dtype=np.float64)
    grid = grid.reshape(cfg.n_seeds, len(cfg.methods), len(configs), len(cols))
    grid = np.ascontiguousarray(grid.transpose(3, 1, 2, 0))
    names = [name for name, _ in configs]
    summary_paths = {
        metric: _write_summary(out, metric, cfg.methods, names, values)
        for metric, values in zip(METRIC_COLUMNS, grid)
    }
    return ExperimentResult(
        grid_path=grid_path,
        config_path=config_path,
        summary_paths=summary_paths,
        stats_paths=_write_stats_reports(out, header, all_rows, METRIC_COLUMNS),
        header=header,
        rows=tuple(all_rows),
    )


# ------------------------------------------------------------------ reports


def _write_summary(out: Path, metric: str, methods, view_cfgs, values) -> Path:
    """Mean +- std of one metric per (method, view_config) cell, from its
    (methods, view configs, seeds) array of values."""
    lines = [f"# Mean {metric.upper()} per method and view configuration", ""]
    lines.append("| method | " + " | ".join(view_cfgs) + " |")
    lines.append("|---" * (len(view_cfgs) + 1) + "|")
    for m, per_cfg in zip(methods, values):
        cells = []
        for vals in per_cfg:
            std = vals.std(ddof=1) if vals.size > 1 else 0.0
            cells.append(f"{vals.mean():.3f} +- {std:.3f}")
        lines.append(f"| {m} | " + " | ".join(cells) + " |")
    path = out / f"summary_{metric}.md"
    path.write_text("\n".join(lines) + "\n")
    return path


def _tukey_section(groups: dict[str, np.ndarray], factor: str, alpha: float) -> list[str]:
    lines = [f"## Tukey HSD over {factor} (alpha={alpha:g})", ""]
    if len(groups) < 2 or any(v.size < 2 for v in groups.values()):
        lines.append("Not enough groups/replicates for Tukey comparisons.")
        lines.append("")
        return lines
    try:
        grouping = tukey_hsd(groups, alpha=alpha)
    except ValueError as exc:
        lines.append(f"Skipped: {exc}")
        lines.append("")
        return lines
    subset_names = [f"S{i + 1}" for i in range(len(grouping.subsets))]
    lines.append("| level | mean | " + " | ".join(subset_names) + " |")
    lines.append("|---" * (len(subset_names) + 2) + "|")
    for i, level in enumerate(grouping.levels):
        cells = [
            f"{grouping.means[i]:.3f}" if name in grouping.letters[level] else ""
            for name in subset_names
        ]
        lines.append(f"| {level} | {grouping.means[i]:.3f} | " + " | ".join(cells) + " |")
    lines.append("")
    lines.append(
        f"q critical: {grouping.q_critical:.4f} "
        f"(k={len(grouping.levels)}, df={grouping.df})"
    )
    lines.append("")
    return lines


def _write_stats_reports(out: Path, header, rows, metrics) -> dict[str, Path]:
    """Write stats_<metric>.md for each metric: the two-way ANOVA over
    (method, view config) and the Tukey-Kramer groups of each factor, from
    one grouping of the rows. A metric's values in ``order`` fill anova2's
    (a, b, r) array; an incomplete grid skips the ANOVA only."""
    factors = {
        factor: np.unique([row[i] for row in rows], return_inverse=True)
        for i, factor in enumerate(("method", "view_config"))
    }
    (a_levels, a_idx), (b_levels, b_idx) = factors.values()
    a, b = a_levels.size, b_levels.size
    counts = np.bincount(a_idx * b + b_idx, minlength=a * b)
    r = int(counts[0]) if np.all(counts == counts[0]) else None
    # the stable sort keeps each cell's rows in grid order
    order = np.lexsort((b_idx, a_idx))
    paths = {}
    for metric in metrics:
        col = header.index(metric)
        values = np.array([row[col] for row in rows], dtype=np.float64)
        lines = [f"# Factorial analysis of {metric.upper()}", ""]
        try:
            _check_design(a, b, r)
            tbl = anova2(values[order].reshape(a, b, r))
            lines.append("| effect | SS | DF | F | p |")
            lines.append("|---|---|---|---|---|")
            for name, row in tbl.rows().items():
                f_txt = "" if math.isnan(row.f) else f"{row.f:.4f}"
                p_txt = "" if math.isnan(row.p) else f"{row.p:.3e}"
                lines.append(f"| {name} | {row.ss:.6f} | {row.df} | {f_txt} | {p_txt} |")
            lines.append(f"| Total | {tbl.ss_total:.6f} | {tbl.df_total} |  |  |")
            if tbl.degenerate:
                lines.append("")
                lines.append("Degenerate table: residual mean square is zero.")
        except ValueError as exc:
            lines.append(f"ANOVA skipped: {exc}")
        lines.append("")
        for factor, (levels, idx) in factors.items():
            groups = {level: values[idx == i] for i, level in enumerate(levels.tolist())}
            lines.extend(_tukey_section(groups, factor, alpha=0.05))
        paths[metric] = out / f"stats_{metric}.md"
        paths[metric].write_text("\n".join(lines) + "\n")
    return paths


def read_grid_csv(path, finite=()) -> tuple[tuple[str, ...], list[tuple]]:
    """Parse a grid CSV back into typed rows (strings, int seed, floats).

    A NaN or infinite value in a column named in ``finite`` raises a
    ValueError naming the file, the line and the column; other metric
    columns may hold NaN (``sens_q`` and ``mae_q`` of a class q with no
    test rows).
    """
    path = Path(path)

    def types(header):
        if tuple(header[:3]) != ("method", "view_config", "seed"):
            raise ValueError(
                f"file {path}: not a grid CSV (header {tuple(header[:3])})"
            )
        return [str, str, int] + [float] * (len(header) - 3)

    header, columns, lines = _read_table(path, types, {int: "seed", float: "metric"})
    for name in finite:
        if name in header:
            _check_finite(path, [name], columns[header.index(name)][:, None], lines)
    return tuple(header), list(zip(*(col.tolist() for col in columns)))
