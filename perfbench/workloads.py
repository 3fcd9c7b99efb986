"""The three benchmark workloads: inputs from a seed, the timed operations,
and a summary of the outputs that the parent process checks.

Each workload maps its seed onto one of ``VARIANTS`` input variants, so that
``reference.json`` can hold the expected outputs of every input the
benchmark can generate. Package functions are called through their module
(``pipeline.run_experiment``), so that a traced run sees the wrappers.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

from ordview import cli, pipeline
from ordview.model import MAX_TUNE_EVALS, METHODS, search_space

VARIANTS = 16
STATS_METRICS = ("qwk", "amae", "accuracy")

# grid: the acceptance ensemble grid shape (2 methods, 3 views -> 7 view
# configs, 200 epochs, 295x10 data), cut to the 2 seeds ANOVA needs.
GRID = dict(methods=("nominal", "clm"), n_seeds=2, tuning=False, epochs=200)
# tune: methods whose grids exceed 15 candidates and are sampled, one view
# (so no weight search), 45 fold fits + 1 final fit per (method, seed).
TUNE = dict(
    methods=("sord", "clm_slace"), views=("crown",), n_seeds=1, tuning=True, epochs=25
)
# report: a paper-shaped grid and a large 3-view dataset, no training.
REPORT_GRID_SEEDS = 20
REPORT_SAMPLES = 20_000


def variant(seed: int) -> int:
    return seed % VARIANTS


# ------------------------------------------------------------ experiments


def _experiment_setup(shape: dict, seed: int, work: Path) -> dict:
    v = variant(seed)
    cfg = pipeline.ExperimentConfig(
        output_dir=work / "out", base_seed=v, data_seed=v, workers=1, **shape
    )
    return {"variant": v, "config": cfg}


def _experiment_ops(state: dict):
    def run():
        state["result"] = pipeline.run_experiment(state["config"])

    return [("run_experiment", run)]


def _experiment_summary(state: dict) -> dict:
    result = state["result"]
    header = result.header
    qwk, amae = header.index("qwk"), header.index("amae")
    cells: dict[str, list[list[float]]] = {}
    for row in result.rows:
        cells.setdefault(f"{row[0]}|{row[1]}", []).append([row[qwk], row[amae]])
    out_dir = state["config"].output_dir
    return {
        "variant": state["variant"],
        "digest": hashlib.sha256(result.grid_path.read_bytes()).hexdigest(),
        "cell_means": {k: np.mean(v, axis=0).tolist() for k, v in cells.items()},
        "stats": {m: parse_stats_report(out_dir / f"stats_{m}.md") for m in STATS_METRICS},
        "fits": _expected_fits(state["config"]),
        "epochs": state["config"].epochs,
    }


def _expected_fits(cfg) -> int:
    """train calls of one run: 45 fold fits + 1 final fit per tuned model."""
    per_model = [
        1 + (cfg.folds * min(search_space(m).size, MAX_TUNE_EVALS) if cfg.tuning else 0)
        for m in cfg.methods
    ]
    return sum(per_model) * len(cfg.views) * cfg.n_seeds


# ----------------------------------------------------------------- report


def _write_paper_grid(rng: np.random.Generator, path: Path) -> None:
    """14 methods x 7 view configs x 20 seeds with method and view effects."""
    configs = [name for name, _ in pipeline.view_config_names(pipeline.DEFAULT_VIEWS)]
    n_classes = len(pipeline.DEFAULT_PROPORTIONS)
    shape = (REPORT_GRID_SEEDS, len(METHODS), len(configs))
    effect = rng.normal(0.0, 0.04, size=(len(METHODS), 1)) + rng.normal(
        0.0, 0.03, size=(1, len(configs))
    )
    qwk = np.clip(0.6 + effect + rng.normal(0.0, 0.05, size=shape), -1.0, 1.0)
    amae = np.clip(0.7 - effect + rng.normal(0.0, 0.06, size=shape), 0.0, 3.0)
    accuracy = np.clip(0.5 + effect + rng.normal(0.0, 0.04, size=shape), 0.0, 1.0)
    sens = rng.uniform(0.0, 1.0, size=shape + (n_classes,))
    mae = rng.uniform(0.0, 1.5, size=shape + (n_classes,))
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(pipeline.grid_header(n_classes))
        for s in range(shape[0]):
            for mi, method in enumerate(METHODS):
                for ci, name in enumerate(configs):
                    cell = (s, mi, ci)
                    values = [qwk[cell], amae[cell], accuracy[cell], *sens[cell], *mae[cell]]
                    writer.writerow([method, name, s, *(repr(float(x)) for x in values)])


def _report_setup(seed: int, work: Path) -> dict:
    v = variant(seed)
    rng = np.random.default_rng(v)
    grid_path = work / "grid.csv"
    _write_paper_grid(rng, grid_path)
    data = pipeline.generate_synthetic(
        pipeline.SynthConfig(n_samples=REPORT_SAMPLES), seed=v
    )
    paths = pipeline.write_views_csv(data, work / "views")
    return {"variant": v, "grid": grid_path, "out": work / "stats", "data": data, "paths": paths}


def _report_ops(state: dict):
    def stats():
        argv = ["stats", str(state["grid"]), "--metrics", ",".join(STATS_METRICS)]
        rc = cli.main(argv + ["--out", str(state["out"])])
        if rc != 0:
            raise RuntimeError(f"ordview stats exited with {rc}")

    def load():
        state["loaded"] = pipeline.load_views_csv(state["paths"])

    return [("stats", stats), ("load_views_csv", load)]


def _report_summary(state: dict) -> dict:
    files = [state["out"] / f"stats_{m}.md" for m in STATS_METRICS]
    data, loaded = state["data"], state["loaded"]
    load_ok = (
        list(loaded.views) == list(data.views)
        and np.array_equal(loaded.labels, data.labels)
        and all(np.array_equal(loaded.views[v], data.views[v]) for v in data.views)
    )
    return {
        "variant": state["variant"],
        "digest": hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest(),
        "stats": {m: parse_stats_report(f) for m, f in zip(STATS_METRICS, files)},
        "load_ok": bool(load_ok),
    }


def parse_stats_report(path: Path) -> dict:
    """ANOVA F values and Tukey subset membership from a stats_<metric>.md."""
    anova: dict[str, float] = {}
    tukey: dict[str, dict[str, list[str]]] = {}
    section = None
    subsets: list[str] = []
    for line in path.read_text().splitlines():
        if line.startswith("## Tukey HSD over "):
            section = line.split()[4]
            tukey[section] = {}
            continue
        if not line.startswith("| ") or line.startswith("|---"):
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        if section is None:
            if cells[0] in ("Method", "View", "Method:View") and cells[3]:
                anova[cells[0]] = float(cells[3])
        elif cells[0] == "level":
            subsets = cells[2:]
        else:
            tukey[section][cells[0]] = [s for s, c in zip(subsets, cells[2:]) if c]
    return {"anova_f": anova, "tukey": tukey}


WORKLOADS = {
    "grid": (
        lambda seed, work: _experiment_setup(GRID, seed, work),
        _experiment_ops,
        _experiment_summary,
    ),
    "tune": (
        lambda seed, work: _experiment_setup(TUNE, seed, work),
        _experiment_ops,
        _experiment_summary,
    ),
    "report": (_report_setup, _report_ops, _report_summary),
}
