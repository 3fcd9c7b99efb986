"""Command-line entry points.

Subcommands:

* ``generate``    synthetic multi-view dataset -> one CSV per view
* ``train``       train a single method on one view CSV, report test metrics
* ``experiment``  full methods x view-configurations x seeds grid
* ``stats``       ANOVA + Tukey report over an existing grid CSV
* ``metrics``     score a predictions CSV (true vs predicted labels)

Options may come from a ``--config`` file of ``key = value`` lines
(# comments allowed); command-line flags override file values.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .core import stratified_split
from .metrics import evaluate
from .model import METHODS, method_config, predict_proba_batch, search_space, train, tune
from .pipeline import (
    ExperimentConfig,
    ExperimentError,
    SynthConfig,
    generate_synthetic,
    load_views_csv,
    read_grid_csv,
    run_experiment,
    write_views_csv,
    _check_labels,
    _read_table,
    _write_csv,
    _write_stats_report,
)

__all__ = ["main"]


def _parse_scalar(text: str):
    low = text.lower()
    if low in ("true", "on", "yes"):
        return True
    if low in ("false", "off", "no"):
        return False
    if low in ("none", "null"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_file(path) -> dict:
    """``key = value`` pairs; values with commas become tuples of scalars."""
    out: dict = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config {path}: line {line_no}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValueError(f"config {path}: line {line_no}: empty key")
        if "," in value:
            out[key] = tuple(
                _parse_scalar(part.strip()) for part in value.split(",") if part.strip()
            )
        else:
            out[key] = _parse_scalar(value)
    return out


def _split_option(value):
    if value is None:
        return None
    if isinstance(value, tuple):
        return value
    return tuple(part.strip() for part in str(value).split(",") if part.strip())


def _as_tuple(value):
    return value if isinstance(value, tuple) else (value,)


def _build_synth_config(file_cfg: dict) -> SynthConfig:
    kwargs = {}
    fields = {f.name for f in dataclasses.fields(SynthConfig)}
    for key, value in file_cfg.items():
        if not key.startswith("synth."):
            continue
        name = key[len("synth.") :]
        if name not in fields:
            raise ValueError(f"unknown synth option {name!r}")
        if name in ("class_proportions", "view_names", "view_noise"):
            value = _as_tuple(value)
        kwargs[name] = value
    return SynthConfig(**kwargs)


def _build_experiment_config(args) -> ExperimentConfig:
    file_cfg = parse_config_file(args.config) if args.config else {}
    csv_paths = {
        key[len("csv.") :]: str(value)
        for key, value in file_cfg.items()
        if key.startswith("csv.")
    }
    simple = {
        key: value
        for key, value in file_cfg.items()
        if not key.startswith(("synth.", "csv."))
    }
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = [k for k in simple if k not in known]
    if unknown:
        raise ValueError(f"unknown experiment options: {unknown}")
    if "methods" in simple:
        simple["methods"] = _as_tuple(simple["methods"])
    if "views" in simple:
        simple["views"] = _as_tuple(simple["views"])

    if csv_paths:
        simple["csv_paths"] = csv_paths
        simple["synth"] = None
    else:
        simple["synth"] = _build_synth_config(file_cfg)

    if args.out is not None:
        simple["output_dir"] = args.out
    if "output_dir" not in simple:
        raise ValueError("output directory required (--out or output_dir in config)")
    if args.seed is not None:
        simple["base_seed"] = args.seed
    if args.methods is not None:
        simple["methods"] = _split_option(args.methods)
    if args.views is not None:
        simple["views"] = _split_option(args.views)
        if simple.get("synth") is not None:
            synth = simple["synth"]
            if set(simple["views"]) - set(synth.view_names):
                noise = synth.view_noise[0]
                simple["synth"] = dataclasses.replace(
                    synth,
                    view_names=simple["views"],
                    view_noise=(noise,) * len(simple["views"]),
                )
    if args.n_seeds is not None:
        simple["n_seeds"] = args.n_seeds
    if args.no_tuning:
        simple["tuning"] = False
    if args.qwk_exponent is not None:
        simple["qwk_exponent"] = args.qwk_exponent
    if args.e_normalization is not None:
        simple["e_normalization"] = args.e_normalization
    return ExperimentConfig(**simple)


# ------------------------------------------------------------- subcommands


def _cmd_generate(args) -> int:
    file_cfg = parse_config_file(args.config) if args.config else {}
    cfg = _build_synth_config(file_cfg)
    data = generate_synthetic(cfg, args.seed)
    paths = write_views_csv(data, args.out)
    for name, path in paths.items():
        print(f"{name}: {path}")
    print(f"samples={data.n_samples} classes={data.n_classes} "
          f"counts={data.counts().tolist()}")
    return 0


def _print_report(report) -> None:
    print(f"qwk={report.qwk:.6f} amae={report.amae:.6f} "
          f"accuracy={report.accuracy:.6f}")
    sens = " ".join(f"{v:.4f}" for v in report.sens)
    mae = " ".join(f"{v:.4f}" for v in report.mae_per_class)
    print(f"sensitivity per class: {sens}")
    print(f"mae per class: {mae}")


def _cmd_train(args) -> int:
    data = load_views_csv(
        {args.view: args.data}, label_column=args.label_column,
        id_column=args.id_column,
    )
    train_part, test_part = stratified_split(data, args.test_fraction, args.seed)
    x_fit = train_part.views[args.view]
    y_fit = train_part.labels
    params = None
    if not args.no_tuning:
        params = tune(search_space(args.method), x_fit, y_fit,
                      n_classes=data.n_classes, seed=args.seed)
    config = method_config(args.method, data.n_classes, params, seed=args.seed)
    model = train(config, x_fit, y_fit)
    probs = predict_proba_batch(model, test_part.views[args.view])
    preds = np.argmax(probs, axis=1)
    report = evaluate(test_part.labels, preds, data.n_classes,
                      args.qwk_exponent, args.e_normalization)
    print(f"method={args.method} view={args.view} "
          f"train={train_part.n_samples} test={test_part.n_samples}")
    _print_report(report)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        header = ["true_label", "predicted_label"] + [
            f"p_{q}" for q in range(data.n_classes)
        ]
        rows = zip(test_part.labels.tolist(), preds.tolist(), probs.tolist())
        _write_csv(out, header, ([y, y_hat, *p] for y, y_hat, p in rows))
        print(f"predictions: {out}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = _build_experiment_config(args)
    result = run_experiment(cfg)
    print(f"grid: {result.grid_path} ({len(result.rows)} rows)")
    for metric, path in result.summary_paths.items():
        print(f"summary[{metric}]: {path}")
    for metric, path in result.stats_paths.items():
        print(f"stats[{metric}]: {path}")
    return 0


def _cmd_stats(args) -> int:
    header, rows = read_grid_csv(args.grid)
    out_dir = Path(args.out) if args.out else Path(args.grid).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    for metric in _split_option(args.metrics):
        if metric not in header:
            raise ValueError(f"metric {metric!r} not in grid columns")
        path = _write_stats_report(out_dir, header, rows, metric)
        print(f"stats[{metric}]: {path}")
    return 0


def _cmd_metrics(args) -> int:
    columns = ("true_label", "predicted_label")
    header, cells = _read_table(
        args.predictions,
        lambda header: [int if col in columns else str for col in header],
        {int: "label"},
        required=columns,
    )
    y_true, y_pred = (cells[header.index(col)] for col in columns)
    for col, labels in zip(columns, (y_true, y_pred)):
        _check_labels(args.predictions, col, labels, args.n_classes)
    n_classes = args.n_classes
    if n_classes is None:
        n_classes = int(max(y_true.max(), y_pred.max())) + 1
        n_classes = max(n_classes, 2)
    report = evaluate(y_true, y_pred, n_classes,
                      args.qwk_exponent, args.e_normalization)
    _print_report(report)
    return 0


# ------------------------------------------------------------------ parser


def _add_scoring_flags(sub, exponent=2, normalization="n") -> None:
    sub.add_argument("--qwk-exponent", type=int, choices=(1, 2), default=exponent,
                     help="penalty exponent for QWK (1 linear, 2 quadratic)")
    sub.add_argument("--e-normalization", choices=("n", "j"), default=normalization,
                     help="expected-matrix normalization: by N or by J")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordview",
        description="Ordinal multi-view classification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset as CSVs")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="synth.* options file")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train one method on one view CSV")
    p.add_argument("--data", required=True, help="view CSV path")
    p.add_argument("--view", default="view", help="name for the view")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--no-tuning", action="store_true")
    p.add_argument("--label-column", default="label")
    p.add_argument("--id-column", default="sample_id")
    p.add_argument("--out", default=None, help="write test predictions CSV here")
    _add_scoring_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("experiment", help="run the full experiment grid")
    p.add_argument("--config", default=None, help="experiment options file")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="base seed")
    p.add_argument("--methods", default=None, help="comma-separated methods")
    p.add_argument("--views", default=None, help="comma-separated views")
    p.add_argument("--n-seeds", type=int, default=None)
    p.add_argument("--no-tuning", action="store_true")
    # no flag defaults: an unset flag leaves the config file's value
    _add_scoring_flags(p, exponent=None, normalization=None)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("stats", help="ANOVA + Tukey reports from a grid CSV")
    p.add_argument("grid", help="grid CSV path")
    p.add_argument("--out", default=None, help="report directory")
    p.add_argument("--metrics", default="qwk,amae,accuracy",
                   help="comma-separated metric columns")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("metrics", help="score a predictions CSV")
    p.add_argument("predictions", help="CSV with true_label/predicted_label")
    p.add_argument("--n-classes", type=int, default=None)
    _add_scoring_flags(p)
    p.set_defaults(func=_cmd_metrics)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ExperimentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(argv=None))
