#!/usr/bin/env python3
"""ordview benchmark: end-to-end and per-layer timings of three workloads.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload grid --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py                  # all workloads, traced, plus
                                              # the paper-grid estimate

Workloads (see ``workloads.py``):

* ``grid``   -- ``run_experiment``: nominal+clm, 3 views, no tuning, 200 epochs;
* ``tune``   -- ``run_experiment`` with tuning: sord+clm_slace, one view;
* ``report`` -- ``ordview stats`` on a 1960-row grid plus ``load_views_csv``
  on a 20k-row 3-view dataset; no training.

Every repetition is a fresh single-threaded interpreter (``rep.py``, BLAS
pinned to one thread, ``workers=1``), so the package's ``lru_cache``s start
cold, as they do for a command-line user. Repetitions run until the next one
would end past ``--seconds``. With ``--trace 0`` the result carries the
end-to-end metrics of untraced repetitions; with ``--trace 1`` untraced and
traced repetitions alternate and the result carries the per-layer metrics
of the traced ones (``trace.overhead_s`` is traced minus untraced time).

End-to-end metrics are medians over repetitions. ``wall_cal_s`` is the
workload's wall time divided by the CPU slowdown that ``probe.py`` samples
during it, and ``setup_s`` is the set-up time divided by the slowdown
sampled during set-up: on shared hosts the CPU speed drifts by up to ~1.6x
over minutes, which moves raw times between runs more than any bound could
allow. The raw times and each repetition's slowdowns are printed beside them.

Outputs are checked on every repetition: ``grid.csv`` (or the stats reports)
must be byte-identical across repetitions, per-cell mean QWK/AMAE, ANOVA F
values and Tukey groupings must match ``reference.json``, the loaded dataset
must equal the one written, and traced work counts must repeat exactly. An
operation that raises or whose outputs fail a check counts as failed. The
last line of standard output is one JSON object: correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_NAMES

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("grid", "tune", "report")

MIN_UNTRACED = 3
MIN_EACH_TRACED = 2
RUN_LIMIT_S = 150.0
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# A rewrite that only reorders float sums moves a per-cell mean by ~1e-15;
# one changed test prediction moves it by ~1e-3. F values are compared as
# printed (4 decimals), so they may differ by one unit in the last place.
CELL_MEAN_TOL = 1e-9
F_TOL = 2e-4

# Paper-scale grid: 14 methods x 3 views x 20 seeds x (45 fold + 1 final)
# fits, and a weight search per (method, seed, multi-view config).
PAPER_FITS = 14 * 3 * 20 * 46
PAPER_WEIGHT_SEARCHES = 14 * 20 * 4
PAPER_EPOCHS = 200


# ----------------------------------------------------------------- running


def run_rep(workload, seed, trace, index, timeout) -> dict:
    rep_dir = WORK / f"{workload}-{seed}" / f"rep{index}"
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    out = rep_dir / "result.json"
    spans = WORK / f"spans-{workload}-{seed}.json"
    env = {**os.environ, **CHILD_ENV}
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "rep.py"), "--workload", workload,
        "--seed", str(seed), "--work", str(rep_dir / "io"), "--t0", repr(t0),
        "--trace", str(trace), "--out", str(out), "--spans", str(spans),
    ]  # fmt: skip
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
        crash = None if proc.returncode == 0 and out.is_file() else (
            " | ".join(proc.stderr.strip().splitlines()[-5:]) or f"exit {proc.returncode}"
        )
    except subprocess.TimeoutExpired:
        crash = f"timed out after {timeout:.0f} s"
    elapsed = time.monotonic() - t0
    if crash is not None:
        return {"traced": trace, "crash": crash, "ops": 1, "elapsed": elapsed}
    rep = json.loads(out.read_text())
    shutil.rmtree(rep_dir, ignore_errors=True)
    return {**rep, "traced": trace, "elapsed": elapsed}


def measure(workload, seed, seconds, trace) -> list[dict]:
    """Fresh-process repetitions until the next would end past ``seconds``."""
    start = time.monotonic()
    reps: list[dict] = []
    while True:
        mode = len(reps) % 2 if trace else 0
        left = RUN_LIMIT_S - (time.monotonic() - start)
        reps.append(run_rep(workload, seed, mode, len(reps), timeout=max(left, 1.0)))
        elapsed = time.monotonic() - start
        typical = statistics.median(r.get("elapsed", 0.0) for r in reps)
        need = (MIN_EACH_TRACED * 2) if trace else MIN_UNTRACED
        if elapsed + typical > RUN_LIMIT_S:
            return reps
        if len(reps) >= need and elapsed + typical > seconds:
            return reps


# ------------------------------------------------------------------ checks


def compare_reference(summary: dict, ref: dict) -> list[str]:
    problems = []
    got_cells = summary.get("cell_means", {})
    if set(got_cells) != set(ref.get("cell_means", {})):
        problems.append("per-cell rows differ from the reference")
    for cell, expected in ref.get("cell_means", {}).items():
        for label, g, e in zip(("qwk", "amae"), got_cells.get(cell, ()), expected):
            if abs(g - e) > CELL_MEAN_TOL:
                problems.append(f"mean {label} of {cell}: {g!r} != reference {e!r}")
    for metric, expected in ref["stats"].items():
        got = summary["stats"][metric]
        if set(got["anova_f"]) != set(expected["anova_f"]):
            problems.append(f"{metric}: ANOVA effects differ from the reference")
        for effect, e in expected["anova_f"].items():
            g = got["anova_f"].get(effect, float("nan"))
            if not abs(g - e) <= F_TOL:
                problems.append(f"{metric}: F({effect}) {g} != reference {e}")
        if got["tukey"] != expected["tukey"]:
            problems.append(f"{metric}: Tukey groupings differ from the reference")
    return problems


def traced_layers(rep: dict) -> dict:
    """Layer totals of one traced repetition, set-up and workload summed."""
    merged: dict[str, dict] = {}
    for root in ("setup", "workload"):
        for name, entry in rep["trace"][root].items():
            into = merged.setdefault(name, {})
            for key, value in entry.items():
                into[key] = into.get(key, 0) + value
    return merged


def work_counts(rep: dict) -> dict:
    counts = {"spans": rep["trace"]["spans"]}
    for name, entry in traced_layers(rep).items():
        for key, value in entry.items():
            if key not in ("s", "self_s"):
                counts[f"{name}.{key}"] = value
    return counts


def check(workload, seed, reps, reference) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over all repetitions of one run."""
    attempted = failed = 0
    problems: list[str] = []
    first_digest = first_counts = None
    for i, rep in enumerate(reps):
        attempted += rep["ops"]
        found = []
        if "crash" in rep:
            found.append(f"rep {i} crashed: {rep['crash']}")
        else:
            found += [f"rep {i} op {f['op']} raised:\n{f['traceback']}" for f in rep["failures"]]
        summary = rep.get("summary")
        if summary is not None:
            first_digest = first_digest or summary["digest"]
            if summary["digest"] != first_digest:
                found.append(f"rep {i}: outputs are not byte-identical to rep 0")
            ref = reference[workload].get(str(summary["variant"]))
            if ref is None:
                found.append(f"rep {i}: no reference for input variant {summary['variant']}")
            else:
                found += [f"rep {i}: {p}" for p in compare_reference(summary, ref)]
            if summary.get("load_ok") is False:
                found.append(f"rep {i}: loaded dataset differs from the one written")
        if rep.get("traced") and summary is not None:
            counts = work_counts(rep)
            first_counts = first_counts or counts
            if counts != first_counts:
                diff = sorted(k for k in counts.keys() | first_counts.keys()
                              if counts.get(k) != first_counts.get(k))
                found.append(f"rep {i}: work counts differ between traced reps: {diff}")
            calls = traced_layers(rep).get("model.train", {}).get("calls", 0)
            if "fits" in summary and calls != summary["fits"]:
                found.append(f"rep {i}: {calls} train calls, expected {summary['fits']}")
        if found:
            failed += rep["ops"]
            problems += found
    return attempted, failed, problems


# ----------------------------------------------------------------- metrics


def end_to_end(reps) -> dict:
    ok = [r for r in reps if not r.get("traced") and r.get("summary")]
    if not ok:
        return {}
    wall = statistics.median(r["wall_s"] for r in ok)
    out = {
        "wall_s": wall,
        "wall_cal_s": statistics.median(r["wall_s"] / r["slowdown"] for r in ok),
        "setup_s": statistics.median(r["setup_s"] / r["setup_slowdown"] for r in ok),
        "setup_raw_s": statistics.median(r["setup_s"] for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        "reps": ok,
    }
    fits = ok[0]["summary"].get("fits")
    if fits:
        out["fits_per_s"] = fits / wall
    return out


def per_layer(reps, untraced_wall) -> dict:
    traced = [r for r in reps if r.get("traced") and r.get("summary")]
    if not traced:
        return {}
    layers = [traced_layers(r) for r in traced]

    def med(name, key):
        return statistics.median(lay.get(name, {}).get(key, 0.0) for lay in layers)

    out = {}
    for name in LAYER_NAMES:
        out[f"{name}.s"] = med(name, "s")
        out[f"{name}.self_s"] = med(name, "self_s")
        for key, value in layers[0].get(name, {}).items():
            if key not in ("s", "self_s"):
                out[f"{name}.{key}"] = value
    steps = out.get("kernels.run_sgd.steps", 0)
    out["kernels.run_sgd.us_per_step"] = (
        1e6 * out["kernels.run_sgd.s"] / steps if steps else 0.0
    )
    fits = out.setdefault("model.tune.fits", 0)
    diverged = out.setdefault("model.tune.diverged", 0)
    out["model.tune.useful_ratio"] = (fits - diverged) / fits if fits else 0.0
    wall = statistics.median(r["wall_s"] / r["slowdown"] for r in traced)
    out["trace.overhead_s"] = wall - untraced_wall if untraced_wall else 0.0
    out["trace.unattributed_share"] = statistics.median(
        r["trace"]["workload"]["workload"]["self_s"] / r["wall_s"] for r in traced
    )
    out["trace.spans"] = traced[0]["trace"]["spans"]
    return out


# ----------------------------------------------------------------- report


def environment() -> dict:
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {k: v for k, v in CHILD_ENV.items() if k != "PYTHONHASHSEED"},
        "commit": git_commit(),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def show_layers(reps) -> None:
    """Self time per layer of the median traced repetition, by root span."""
    traced = sorted(
        (r for r in reps if r.get("traced") and r.get("summary")), key=lambda r: r["wall_s"]
    )
    if not traced:
        return
    rep = traced[len(traced) // 2]
    for root in ("setup", "workload"):
        layers = rep["trace"][root]
        if len(layers) == 1:
            continue
        total = layers[root]["s"]
        print(f"  {root + ' layers':36s} {'calls':>7s} {'total_s':>9s} {'self_s':>9s} "
              f"{'self%':>6s}")
        for name, e in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            label = "(unattributed)" if name == root else name
            print(f"  {label:36s} {e['calls']:7d} {e['s']:9.4f} {e['self_s']:9.4f} "
                  f"{100 * e['self_s'] / total:6.1f}")


def run_workload(workload, seed, seconds, trace, reference) -> dict:
    print(f"== {workload}: seed {seed}, {seconds} s, trace {trace}")
    reps = measure(workload, seed, seconds, trace)
    shutil.rmtree(WORK / f"{workload}-{seed}", ignore_errors=True)
    attempted, failed, problems = check(workload, seed, reps, reference)
    e2e = end_to_end(reps)
    layers = per_layer(reps, e2e.get("wall_cal_s")) if trace else {}
    envs = [r["env"] for r in reps if "env" in r]
    print("env:", json.dumps({**environment(), **(envs[0] if envs else {})}))
    n_traced = sum(1 for r in reps if r.get("traced"))
    print(f"reps: {len(reps) - n_traced} untraced, {n_traced} traced; each a fresh "
          "process with cold caches")
    if e2e:
        ok = e2e["reps"]
        print(f"wall_cal_s   {e2e['wall_cal_s']:.4f} s  (median of {len(ok)}; wall time at "
              "the probe's reference CPU speed; too few samples for a higher percentile)")
        print(f"wall_s       {e2e['wall_s']:.4f} s  (median of {len(ok)}, as measured)")
        for r in ok:
            print(f"  rep: wall_s {r['wall_s']:.4f} slowdown {r['slowdown']:.3f}  "
                  f"setup {r['setup_s']:.4f} s slowdown {r['setup_slowdown']:.3f}  "
                  f"({r['probes']} probes)")
        print(f"setup_s      {e2e['setup_s']:.4f} s  (median, at the reference CPU speed; "
              f"{e2e['setup_raw_s']:.4f} s as measured)")
        print(f"peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB")
        if "fits_per_s" in e2e:
            print(f"fits_per_s   {e2e['fits_per_s']:.3f} 1/s  (train calls per wall second)")
    print(f"error_rate   {failed / attempted:.4f}  ({failed} failed of {attempted} attempted)")
    show_layers(reps)
    missing = {m for r in reps if "trace" in r for m in r["trace"]["missing"]}
    if missing:
        print("not traced (absent from the package):", ", ".join(sorted(missing)))
    for p in problems:
        print("FAIL:", p)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "e2e": e2e,
        "layers": layers,
        "epochs": next((r["summary"].get("epochs") for r in reps if r.get("summary")), None),
    }


def metric_block(declared, values) -> dict:
    return {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = parser.parse_args()

    if not (ROOT / "src" / "ordview" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/ordview; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    WORK.mkdir(exist_ok=True)
    if args.workload != "all":
        res = run_workload(args.workload, args.seed, seconds, args.trace, reference)
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        values = res["layers"] if args.trace else res["e2e"]
        metrics = metric_block(declared, values)
        correct = res["correct"] and bool(values)
    else:
        results = {w: run_workload(w, args.seed, seconds, 1, reference) for w in WORKLOADS}
        metrics = {}
        for w, res in results.items():
            for block, values in (("end_to_end", res["e2e"]), ("per_layer", res["layers"])):
                for name, entry in metric_block(spec[block], values).items():
                    metrics[f"{w}.{name}"] = entry
        paper_estimate(results)
        res = {
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
        }
        correct = all(r["correct"] and r["e2e"] and r["layers"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def paper_estimate(results) -> None:
    tune, grid = results["tune"], results["grid"]
    if not (tune["e2e"].get("fits_per_s") and grid["layers"]):
        print("paper_grid_est_h: unavailable (a workload failed)")
        return
    s_per_fit = PAPER_EPOCHS / tune["epochs"] / tune["e2e"]["fits_per_s"]
    calls = grid["layers"]["ensemble.optimize_weights.calls"]
    s_per_search = grid["layers"]["ensemble.optimize_weights.s"] / calls
    hours = (PAPER_FITS * s_per_fit + PAPER_WEIGHT_SEARCHES * s_per_search) / 3600
    print(f"paper_grid_est_h {hours:.2f} h = ({PAPER_FITS} fits x {s_per_fit:.4f} s "
          f"[tune s/fit x {PAPER_EPOCHS}/{tune['epochs']} epochs] + "
          f"{PAPER_WEIGHT_SEARCHES} weight searches x {s_per_search:.4f} s "
          f"[grid optimize_weights s/call]) / 3600; reported, not gated")


if __name__ == "__main__":
    sys.exit(main())
