"""Release acceptance gate.

Each test below is one numbered release criterion. Running this module with
``pytest -v`` therefore prints exactly one pass/fail line per criterion.
Every test also prints the measured quantities it checked, so a failing
criterion can be diagnosed from the captured output alone.
"""

import math
import time

import numpy as np
import pytest

from oracles import (
    beta_cell_masses,
    mc_studentized_range_quantile,
    qwk_brute_force,
    triangle_cell_masses,
)
from ordview import _kernels as _k
from ordview.cli import main as cli_main
from ordview.core import (
    MultiViewDataset,
    class_counts,
    stratified_split,
)
from ordview.ensemble import optimize_weights
from ordview.metrics import amae, imbalance_ratio, per_class_mae, qwk
from ordview.model import (
    ADJACENT_GRID,
    CDWCE_ALPHA_GRID,
    EXPONENT_GRID,
    MIX_GRID,
    SMOOTHING_GRID,
)
from ordview.pipeline import ExperimentConfig, run_experiment
from ordview.softlabel import (
    SORD_TRANSFORMS,
    SoftLabelConfig,
    SordConfig,
    target_matrix,
)
from ordview.stats import (
    ResultsTable,
    anova2,
    studentized_range_quantile,
    tukey_hsd,
)

REFERENCE_COUNTS = (40, 102, 106, 47)


def assert_unimodal(dist, k, tol=1e-12):
    """Entries must not increase as the class index moves away from k."""
    for j in range(k, dist.size - 1):
        assert dist[j + 1] <= dist[j] + tol
    for j in range(k, 0, -1):
        assert dist[j - 1] <= dist[j] + tol


def assert_soft_target(dist, k, sum_tol):
    assert np.all(dist >= 0.0)
    assert abs(dist.sum() - 1.0) <= sum_tol
    assert np.argmax(dist) == k
    assert_unimodal(dist, k)


def soft_row(kind, k, j, **fields):
    """Row k of the (j, j) target table of one soft-label config."""
    return target_matrix(j, SoftLabelConfig(kind=kind, **fields))[k]


def rel_err(analytic, numeric):
    denom = max(abs(analytic), abs(numeric), 1e-6)
    return abs(analytic - numeric) / denom


def test_criterion_01_imbalance_ratio_value_and_speed():
    value = imbalance_ratio(REFERENCE_COUNTS)
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        imbalance_ratio(REFERENCE_COUNTS)
        best = min(best, time.perf_counter() - t0)
    print(f"criterion 1: IR{REFERENCE_COUNTS} = {value:.6f}, "
          f"best-of-5 runtime = {best * 1e6:.1f} us")
    assert abs(value - 1.277) <= 0.001
    assert best < 1e-3


def test_criterion_02_split_counts_exact():
    labels = np.repeat(np.arange(4), REFERENCE_COUNTS)
    data = MultiViewDataset(
        views={"crown": labels[:, None].astype(float)}, labels=labels, n_classes=4
    )
    train, test = stratified_split(data, test_fraction=0.2, seed=0)
    train_counts = tuple(int(c) for c in class_counts(train.labels, 4))
    test_counts = tuple(int(c) for c in class_counts(test.labels, 4))
    print(f"criterion 2: train counts {train_counts}, test counts {test_counts}")
    assert train_counts == (32, 82, 85, 37)
    assert test_counts == (8, 20, 21, 10)


def test_criterion_03_soft_label_grid():
    t0 = time.perf_counter()
    checked = 0
    worst_quadrature = 0.0
    for j in (3, 4, 5, 10):
        for k in range(j):
            for alpha in ADJACENT_GRID:
                raw = soft_row("triangular", k, j, alpha_adjacent=alpha)
                oracle = triangle_cell_masses(k, j, alpha)
                worst_quadrature = max(
                    worst_quadrature, float(np.max(np.abs(raw - oracle)))
                )
                for lam in MIX_GRID:
                    d = soft_row("triangular", k, j, lam=lam, alpha_adjacent=alpha)
                    assert_soft_target(d, k, 1e-6)
                    checked += 1
            raw = soft_row("beta", k, j, concentration=10.0)
            oracle = beta_cell_masses(k, j, 10.0)
            worst_quadrature = max(
                worst_quadrature, float(np.max(np.abs(raw - oracle)))
            )
            for lam in MIX_GRID:
                d = soft_row("beta", k, j, lam=lam, concentration=10.0)
                assert_soft_target(d, k, 1e-6)
                checked += 1
            for p_exponent in EXPONENT_GRID:
                for lam in MIX_GRID:
                    d = soft_row(
                        "exponential", k, j, lam=lam, tau=1.0, p_exponent=p_exponent
                    )
                    assert_soft_target(d, k, 1e-9)
                    checked += 1
            for transform in SORD_TRANSFORMS:
                for beta in SMOOTHING_GRID:
                    d = target_matrix(j, SordConfig(beta=beta, transform=transform))[k]
                    assert_soft_target(d, k, 1e-9)
                    checked += 1
    elapsed = time.perf_counter() - t0
    print(f"criterion 3: {checked} encoder/hyperparameter cells checked, "
          f"max |quadrature - oracle| = {worst_quadrature:.2e}, "
          f"runtime = {elapsed:.1f} s")
    assert worst_quadrature <= 1e-6
    assert elapsed < 30.0


def loss_row(loss, p, k, config):
    """Value and gradient of one loss at the probability vector p, as a
    one-row ``loss_rows`` + ``loss_batch``. ``loss`` is cce (against
    config["target"]), cdwce, sord (cce against sord targets) or slace."""
    if loss == "cce":
        kernel, target, alpha = "cce", config["target"], 1.0
    elif loss == "cdwce":
        kernel, target, alpha = "cdwce", np.zeros(p.size), config["alpha"]
    elif loss == "sord":
        cfg = SordConfig(beta=config["beta"], transform=config["transform"])
        kernel, target, alpha = "cce", target_matrix(p.size, cfg)[k], 1.0
    else:
        cfg = SordConfig(beta=config["beta"], transform="max")
        kernel, target, alpha = "slace", target_matrix(p.size, cfg)[k], 1.0
    rows = _k.loss_rows(target.reshape(1, -1), np.array([k]), kernel, alpha)
    value, grad = _k.loss_batch(p.reshape(1, -1), rows, kernel)
    return float(value), grad[0]


def loss_grad_error(loss, point, k, config, step=1e-5):
    """Max relative error between the analytic gradient and central
    differences, per coordinate of the probability vector (denominator
    max(|analytic|, |numeric|, 1e-6))."""
    analytic = loss_row(loss, point, k, config)[1]
    numeric = np.empty_like(point)
    for i in range(point.size):
        hi = point.copy()
        lo = point.copy()
        hi[i] += step
        lo[i] -= step
        numeric[i] = (
            loss_row(loss, hi, k, config)[0] - loss_row(loss, lo, k, config)[0]
        ) / (2.0 * step)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def clm_row(f, b1, deltas, d_min):
    """Thresholds, cumulative and class probabilities at one latent score."""
    b = _k.materialize_thresholds_raw(b1, deltas, d_min)
    cum, probs = _k.clm_forward_batch(np.array([f]), b)
    return b, cum[0], probs[0]


def clm_row_grads(f, b1, deltas, d_min, upstream):
    """Gradients of upstream . probs in (f, b1, deltas) from the kernels."""
    b = _k.materialize_thresholds_raw(b1, deltas, d_min)
    c = _k.link_inverse(b - np.array([[f]]))
    grad_f, grad_b = _k.clm_backward_batch(c, upstream.reshape(1, -1))
    d_b1, d_deltas = _k.threshold_param_grads(deltas, grad_b)
    return float(grad_f[0]), d_b1, d_deltas


def clm_fd_grads(f, b1, deltas, d_min, upstream, step=1e-6):
    """Central differences of upstream . probs in (f, b1, each delta)."""

    def val(f_, b1_, deltas_):
        return float(upstream @ clm_row(f_, b1_, deltas_, d_min)[2])

    d_f = (val(f + step, b1, deltas) - val(f - step, b1, deltas)) / (2 * step)
    d_b1 = (val(f, b1 + step, deltas) - val(f, b1 - step, deltas)) / (2 * step)
    d_deltas = np.empty(deltas.size)
    for m in range(deltas.size):
        hi = deltas.copy()
        lo = deltas.copy()
        hi[m] += step
        lo[m] -= step
        d_deltas[m] = (val(f, b1, hi) - val(f, b1, lo)) / (2 * step)
    return d_f, d_b1, d_deltas


def interior_point(rng, j, floor):
    """Random simplex point with every coordinate at least ~floor.

    Central differences are only trustworthy away from the simplex boundary:
    near it the log losses' third derivatives blow up and the finite
    difference truncation error itself exceeds the comparison tolerance.
    """
    p = rng.dirichlet(np.ones(j))
    p = np.clip(p, floor, None)
    return p / p.sum()


def test_criterion_04_gradient_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = {"cce": 0.0, "cdwce": 0.0, "sord": 0.0, "slace": 0.0}
    for i in range(100):
        j = (3, 4, 5, 10)[i % 4]
        k = int(rng.integers(0, j))
        point = interior_point(rng, j, 0.02)
        target = interior_point(rng, j, 1e-3)
        worst["cce"] = max(
            worst["cce"], loss_grad_error("cce", point, k, {"target": target})
        )
        worst["cdwce"] = max(
            worst["cdwce"],
            loss_grad_error("cdwce", point, k, {"alpha": CDWCE_ALPHA_GRID[i % 4]}),
        )
        # larger step: peaked sord targets make some loss terms so small that
        # a 1e-5 step leaves their finite difference below float64 granularity
        worst["sord"] = max(
            worst["sord"],
            loss_grad_error(
                "sord",
                point,
                k,
                {"beta": SMOOTHING_GRID[i % 12], "transform": SORD_TRANSFORMS[i % 6]},
                step=3e-5,
            ),
        )
        worst["slace"] = max(
            worst["slace"],
            loss_grad_error(
                "slace",
                interior_point(rng, j, 0.05),
                k,
                {"beta": SMOOTHING_GRID[i % 12]},
            ),
        )
    worst["clm"] = 0.0
    for i in range(100):
        j = int(rng.integers(3, 6))
        # bounded |b - f| keeps the logistic CDF away from the float64
        # saturation band, where finite differences read pure cancellation
        b1 = float(rng.uniform(-2.0, -0.5))
        deltas = rng.uniform(-0.4, 0.4, size=j - 2)
        head = (b1, deltas, (0.0, 0.5, 1.0)[i % 3])
        f = float(rng.uniform(-1.5, 1.5))
        upstream = rng.normal(size=j)
        g_f, g_b1, g_deltas = clm_row_grads(f, *head, upstream)
        d_f, d_b1, d_deltas = clm_fd_grads(f, *head, upstream, step=5e-6)
        errs = [rel_err(g_f, d_f), rel_err(g_b1, d_b1)]
        errs += [rel_err(g_deltas[m], d_deltas[m]) for m in range(deltas.size)]
        worst["clm"] = max(worst["clm"], max(errs))
    elapsed = time.perf_counter() - t0
    report = ", ".join(f"{name}={err:.2e}" for name, err in worst.items())
    print(f"criterion 4: max relative errors over 100 points each: {report}; "
          f"runtime = {elapsed:.1f} s")
    for name, err in worst.items():
        assert err < 1e-4, name
    assert elapsed < 60.0


def test_criterion_05_clm_invariants():
    # parameter ranges keep |b - f| < 3.6, where the logistic CDF does not
    # round to exactly 0 or 1 in float64, so strict ordering stays observable
    rng = np.random.default_rng(505)
    n_draws = 10_000
    for i in range(n_draws):
        j = int(rng.integers(3, 6))
        d_min = (0.0, 0.5, 1.0)[i % 3]
        b1 = float(rng.uniform(-2.0, -0.5))
        head = (b1, rng.uniform(-0.4, 0.4, size=j - 2), d_min)
        f = float(rng.uniform(-0.5, 2.0))
        b, cum, probs = clm_row(f, *head)
        gaps = np.diff(b)
        assert np.all(gaps > 0)
        if d_min > 0:
            assert np.all(gaps >= d_min - 1e-12)
        else:
            assert np.all(gaps >= 0.99e-6)
        assert np.all(probs >= 0.0)
        assert abs(probs.sum() - 1.0) <= 1e-9
        assert np.all(np.diff(cum) > 0)
        shifted_cum = clm_row(f + 0.5, *head)[1]
        assert np.all(shifted_cum < cum)
    print(f"criterion 5: {n_draws} random draws on the logit link, "
          f"d_min grid (0.0, 0.5, 1.0): all invariants held")


def test_criterion_06_metric_oracles():
    rng = np.random.default_rng(606)
    checked = 0
    worst = 0.0
    while checked < 1000:
        j = int(rng.integers(2, 9))
        cm = rng.integers(0, 20, size=(j, j))
        n = (1, 2, 3)[checked % 3]
        try:
            mine = qwk(cm, n)
        except ValueError:
            continue  # degenerate margins; redraw
        worst = max(worst, abs(mine - qwk_brute_force(cm, n)))
        checked += 1
    perfect = qwk(np.diag([3, 5, 2, 7]), 2)
    skewed = qwk([[1, 1], [0, 2]], 2)
    hand = amae([0, 1, 2, 3], [1, 1, 2, 2])
    print(f"criterion 6: {checked} random matrices, max |qwk - brute force| = "
          f"{worst:.2e}; qwk(perfect) = {perfect}, qwk([[1,1],[0,2]]) = {skewed}, "
          f"amae hand case = {hand}")
    assert worst <= 1e-12
    assert perfect == 1.0
    assert abs(skewed - 0.5) <= 1e-12
    assert hand == 0.5
    assert amae([0, 1, 2, 3], [0, 1, 2, 3]) == 0.0
    # duplicating every class-0 sample must not move the per-class average
    assert amae([0, 0, 1, 2, 3], [1, 1, 1, 2, 2]) == hand


def test_criterion_07_ensemble_validation_dominance():
    rng = np.random.default_rng(707)
    violations = []
    for i in range(50):
        v = 2 + i % 3
        j = 3 + i % 2
        n = int(rng.integers(30, 61))
        probs = rng.dirichlet(np.ones(j), size=(v, n))
        y = np.concatenate([np.arange(j), rng.integers(0, j, size=n - j)])

        def score(weights):
            agg = np.tensordot(weights, probs, axes=(0, 0))
            preds = np.argmax(agg, axis=1)
            return float(np.nanmean(per_class_mae(y, preds, j)))

        best = score(optimize_weights(probs, y, n_candidates=60, seed=i).w)
        singles = [score(np.eye(v)[m]) for m in range(v)]
        if best > min(singles) + 1e-12:
            violations.append((i, best, min(singles)))
    print(f"criterion 7: 50 random instances, violations = {violations}")
    assert violations == []


@pytest.fixture(scope="module")
def ensemble_grid(tmp_path_factory):
    """Shared multi-seed experiment on the default synthetic dataset."""
    out = tmp_path_factory.mktemp("acceptance_grid")
    cfg = ExperimentConfig(
        output_dir=out,
        methods=("nominal", "clm"),
        n_seeds=12,
        tuning=False,
        base_seed=0,
    )
    t0 = time.perf_counter()
    result = run_experiment(cfg)
    return result, time.perf_counter() - t0


def _mean_metric(result, method, metric):
    mi = result.header.index("method")
    vi = result.header.index("view_config")
    ci = result.header.index(metric)
    out = {}
    for row in result.rows:
        if row[mi] == method:
            out.setdefault(row[vi], []).append(row[ci])
    return {vc: float(np.mean(vals)) for vc, vals in out.items()}


def test_criterion_08_multi_view_beats_single_views(ensemble_grid):
    result, elapsed = ensemble_grid
    means = _mean_metric(result, "clm", "qwk")
    singles = [means["crown"], means["north"], means["south"]]
    triple = means["crown+north+south"]
    pair_names = ("crown+north", "crown+south", "north+south")
    mean_single = float(np.mean(singles))
    pair_wins = sum(1 for p in pair_names if means[p] >= mean_single)
    print(f"criterion 8: 12-seed mean test QWK (clm head): singles = "
          f"{[round(s, 4) for s in singles]}, pairs = "
          f"{[round(means[p], 4) for p in pair_names]}, triple = {triple:.4f}; "
          f"pairs >= mean(singles): {pair_wins}/3; experiment runtime = "
          f"{elapsed:.1f} s")
    assert elapsed < 600.0
    for single in singles:
        assert triple >= single
    assert pair_wins >= 2


def test_criterion_09_ordinal_head_amae_not_worse(ensemble_grid):
    result, _ = ensemble_grid
    mi = result.header.index("method")
    ci = result.header.index("amae")
    clm = [row[ci] for row in result.rows if row[mi] == "clm"]
    nominal = [row[ci] for row in result.rows if row[mi] == "nominal"]
    clm_mean = float(np.mean(clm))
    nominal_mean = float(np.mean(nominal))
    print(f"criterion 9: mean test AMAE over 12 seeds x 7 view configs: "
          f"clm = {clm_mean:.4f}, nominal = {nominal_mean:.4f} "
          f"(threshold: clm <= nominal + 0.02)")
    assert clm_mean <= nominal_mean + 0.02


def test_criterion_10_anova_sum_of_squares_identity():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(500):
        n_a = int(rng.integers(2, 7))
        n_b = int(rng.integers(2, 6))
        r = int(rng.integers(2, 7))
        loc = float(rng.normal(scale=3))
        rows = [
            (f"m{a}", f"v{b}", s, float(rng.normal(loc=loc)))
            for a in range(n_a)
            for b in range(n_b)
            for s in range(r)
        ]
        tbl = anova2(ResultsTable.from_rows(rows))
        parts = tbl.method.ss + tbl.view.ss + tbl.interaction.ss + tbl.residual.ss
        worst = max(worst, abs(parts - tbl.ss_total) / max(tbl.ss_total, 1e-12))
    hand = anova2(ResultsTable.from_rows([
        ("a1", "b1", 0, 1.0), ("a1", "b1", 1, 1.0),
        ("a1", "b2", 0, 1.0), ("a1", "b2", 1, 1.0),
        ("a2", "b1", 0, 1.0), ("a2", "b1", 1, 1.0),
        ("a2", "b2", 0, 5.0), ("a2", "b2", 1, 5.0),
    ]))
    print(f"criterion 10: 500 random balanced tables, worst relative identity "
          f"error = {worst:.2e}; hand case SS = "
          f"({hand.method.ss}, {hand.view.ss}, {hand.interaction.ss}), "
          f"total = {hand.ss_total}")
    assert worst <= 1e-8
    assert hand.method.ss == pytest.approx(8.0, abs=1e-12)
    assert hand.view.ss == pytest.approx(8.0, abs=1e-12)
    assert hand.interaction.ss == pytest.approx(8.0, abs=1e-12)
    assert hand.ss_total == pytest.approx(24.0, abs=1e-12)


def test_criterion_11_tukey_separation_and_range_quantile():
    rng = np.random.default_rng(1111)
    groups = {
        "a": rng.normal(0.0, 0.1, size=20),
        "b": rng.normal(0.05, 0.1, size=20),
        "hi": rng.normal(1.0, 0.1, size=20),
    }
    grouping = tukey_hsd(groups, alpha=0.05)
    top = grouping.subsets[-1]
    quantile_report = []
    for k, df in ((3, 10), (5, 30), (14, 1862)):
        mine = studentized_range_quantile(k, df, 0.95)
        oracle = mc_studentized_range_quantile(k, df, 0.95)
        quantile_report.append((k, df, round(mine, 4), round(oracle, 4)))
        assert abs(mine - oracle) < 0.01, (k, df)
    print(f"criterion 11: top Tukey subset = {top}; studentized range "
          f"quantiles (k, df, computed, monte carlo) = {quantile_report}")
    assert top == ("hi",)


def test_criterion_12_experiment_rerun_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "methods = nominal, clm\n"
        "n_seeds = 2\n"
        "tuning = false\n"
        "epochs = 20\n"
        "n_candidates = 30\n"
        "synth.n_samples = 60\n"
        "synth.n_features_per_view = 4\n"
        "synth.class_proportions = 0.25, 0.25, 0.25, 0.25\n"
    )
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        code = cli_main(["experiment", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        outputs.append((out / "grid.csv").read_bytes())
    capsys.readouterr()
    identical = outputs[0] == outputs[1]
    print(f"criterion 12: two runs, grid bytes equal = {identical} "
          f"({len(outputs[0])} bytes)")
    assert identical
