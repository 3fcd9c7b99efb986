import csv
import hashlib

import numpy as np
import pytest

from ordview.cli import _build_experiment_config, build_parser, main, parse_config_file
from ordview.core import MultiViewDataset, stratified_split
from ordview.model import (
    METHODS, TrainingDiverged, method_config, predict_proba_batch, search_space, train,
    tune,
)
from ordview.pipeline import (
    DEFAULT_VIEWS, ExperimentError, load_views_csv, run_experiment, view_config_names,
    write_views_csv,
)
from test_model import blob_dataset


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def experiment_config(tmp_path, text, *flags):
    p = tmp_path / "c.cfg"
    p.write_text(text)
    argv = ["experiment", "--config", str(p), "--out", str(tmp_path / "run"), *flags]
    return _build_experiment_config(build_parser().parse_args(argv))


# a config that runs in well under a second; each bad value is set on it
BASE_OPTIONS = {
    "methods": "nominal", "views": "crown", "n_seeds": "1", "epochs": "5",
    "tuning": "false",
}


def config_text(options: dict) -> str:
    options = {**BASE_OPTIONS, **options}
    return "".join(f"{key} = {value}\n" for key, value in options.items())


class TestConfigFile:
    def test_scalars_and_lists(self, tmp_path):
        # values are read by the annotation of the field they set
        cfg = experiment_config(
            tmp_path,
            "# comment line\n"
            "n_seeds = 5\n"
            "tuning = false\n"
            "methods = nominal, clm  # trailing comment\n"
            "test_fraction = 0.25\n"
            "label_column = crown\n",
        )
        assert cfg.n_seeds == 5
        assert cfg.tuning is False
        assert cfg.methods == ("nominal", "clm")
        assert cfg.test_fraction == 0.25
        assert cfg.label_column == "crown"

    @pytest.mark.parametrize(
        "line, value",
        [("tuning = ON", True), ("tuning = no", False), ("csv_n_classes = none", None),
         ("csv_n_classes = 5", 5), ("learning_rate = 1", 1.0),
         ("test_fraction = 3e-1", 0.3)],
    )
    def test_value_read_by_field_type(self, tmp_path, line, value):
        key = line.split(" = ")[0]
        got = getattr(experiment_config(tmp_path, line + "\n"), key)
        assert got == value and type(got) is type(value)

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(
            "csv.crown = h#1/crown.csv\n"
            "methods = nominal   # c\n"
            "label_column = crown\t# tab before the hash\n"
            "#views = crown\n"
        )
        assert parse_config_file(p) == {
            "csv.crown": "h#1/crown.csv",
            "methods": "nominal",
            "label_column": "crown",
        }

    def test_bad_line_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("just some words\n")
        with pytest.raises(ValueError):
            parse_config_file(p)

    def test_key_set_twice_names_both_lines(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("n_seeds = 2\n# comment\nn_seeds = 1\n")
        with pytest.raises(ValueError) as info:
            parse_config_file(p)
        assert str(info.value) == f"config {p}: line 3: n_seeds already set on line 1"

    def test_empty_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("n_seeds = 2\n = 3\n")
        with pytest.raises(ValueError) as info:
            parse_config_file(p)
        assert str(info.value) == f"config {p}: line 2: empty key"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("n_seeds", "ten", "n_seeds: expected int, got ten"),
            ("synth.n_samples", "3e2", "synth.n_samples: expected int, got 3e2"),
            ("test_fraction", "0.2, 0.3", "test_fraction: expected float, got 0.2, 0.3"),
            ("epochs", "2.5", "epochs: expected int, got 2.5"),
            ("tuning", "maybe", "tuning: expected bool, got maybe"),
            ("batch_size", "8.0", "batch_size: expected int, got 8.0"),
            ("n_candidates", "1.5", "n_candidates: expected int, got 1.5"),
            ("folds", "2.0", "folds: expected int, got 2.0"),
            ("csv_n_classes", "four", "csv_n_classes: expected int | None, got four"),
            ("synth.view_noise", "1.0, x, 1.0",
             "synth.view_noise: expected tuple[float, ...], got 1.0, x, 1.0"),
            ("workres", "2", "unknown option 'workres'"),
            ("synth.n_sample", "30", "unknown option 'synth.n_sample'"),
        ],
    )
    def test_bad_value_exits_2_before_output(
        self, tmp_path, capsys, key, value, message
    ):
        cfg = tmp_path / "e.cfg"
        cfg.write_text(config_text({key: value}))
        out_dir = tmp_path / "run"
        code, _, err = run_cli(
            capsys, "experiment", "--config", str(cfg), "--out", str(out_dir)
        )
        assert code == 2
        assert err == f"error: config {cfg}: {message}\n"
        assert not out_dir.exists()

    def test_workers_other_than_one_exits_2_before_output(self, tmp_path, capsys):
        cfg = tmp_path / "e.cfg"
        cfg.write_text(config_text({"workers": "2"}))
        out_dir = tmp_path / "run"
        code, _, err = run_cli(
            capsys, "experiment", "--config", str(cfg), "--out", str(out_dir)
        )
        assert code == 2
        assert err == "error: workers must be 1, got 2: seeds run one after another\n"
        assert not out_dir.exists()

    def test_csv_and_synth_keys_conflict(self, tmp_path, capsys):
        cfg = tmp_path / "e.cfg"
        cfg.write_text(config_text({"csv.crown": "crown.csv", "synth.n_samples": "60"}))
        code, _, err = run_cli(
            capsys, "experiment", "--config", str(cfg), "--out", str(tmp_path / "run")
        )
        assert code == 2
        assert err == "error: configure exactly one of synth or csv_paths\n"
        assert not (tmp_path / "run").exists()


class TestGenerate:
    def test_writes_view_csvs(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--out", str(tmp_path / "d"), "--seed", "4"
        )
        assert code == 0
        for view in ("crown", "north", "south"):
            assert (tmp_path / "d" / f"{view}.csv").exists()
        assert "counts=[40, 102, 106, 47]" in out

    def test_respects_synth_config(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "synth.n_samples = 40\n"
            "synth.n_classes = 2\n"
            "synth.class_proportions = 0.5, 0.5\n"
            "synth.view_names = left, right\n"
            "synth.view_noise = 1.0, 1.0\n"
        )
        code, out, _ = run_cli(
            capsys, "generate", "--out", str(tmp_path / "d"),
            "--config", str(cfg),
        )
        assert code == 0
        assert (tmp_path / "d" / "left.csv").exists()
        assert "samples=40 classes=2" in out

    @pytest.mark.parametrize("key", ["synt.n_samples", "synth.n_sample", "n_samples"])
    def test_unknown_key_exits_2_before_output(self, tmp_path, capsys, key):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"synth.n_classes = 2\nsynth.class_proportions = 0.5, 0.5\n"
                       f"{key} = 40\n")
        out_dir = tmp_path / "d"
        code, out, err = run_cli(
            capsys, "generate", "--out", str(out_dir), "--config", str(cfg)
        )
        assert (code, out) == (2, "")
        assert err == f"error: config {cfg}: unknown option {key!r}\n"
        assert not out_dir.exists()


    def test_view_name_outside_out_dir_exits_2_before_output(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("synth.view_names = ../escape, b, c\n")
        out_dir = tmp_path / "d"
        code, out, err = run_cli(
            capsys, "generate", "--out", str(out_dir), "--config", str(cfg)
        )
        assert (code, out) == (2, "")
        assert err == "error: view name '../escape' is not a plain file name\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.cfg"]


class TestTrainAndMetrics:
    def test_train_then_score(self, tmp_path, capsys):
        run_cli(capsys, "generate", "--out", str(tmp_path / "d"), "--seed", "0")
        preds = tmp_path / "preds.csv"
        code, out, _ = run_cli(
            capsys, "train",
            "--data", str(tmp_path / "d" / "crown.csv"),
            "--view", "crown", "--method", "clm",
            "--seed", "1", "--no-tuning", "--out", str(preds),
        )
        assert code == 0
        assert "qwk=" in out and "amae=" in out
        assert preds.exists()
        train_line = [ln for ln in out.splitlines() if ln.startswith("qwk=")][0]

        code2, out2, _ = run_cli(capsys, "metrics", str(preds))
        assert code2 == 0
        metrics_line = [ln for ln in out2.splitlines() if ln.startswith("qwk=")][0]
        assert metrics_line == train_line

    def test_train_tunes_by_default(self, tmp_path, capsys):
        # without --no-tuning, train fits on the params tune picks: its
        # predictions are those of the same steps taken by hand
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "synth.n_samples = 60\n"
            "synth.class_proportions = 0.25, 0.25, 0.25, 0.25\n"
            "synth.n_features_per_view = 4\n"
        )
        run_cli(capsys, "generate", "--out", str(tmp_path / "d"), "--config", str(cfg))
        view = tmp_path / "d" / "south.csv"
        preds = tmp_path / "preds.csv"
        code, _, _ = run_cli(
            capsys, "train", "--data", str(view), "--method", "nominal",
            "--seed", "0", "--out", str(preds),
        )
        assert code == 0

        data = load_views_csv({"view": view})
        fit, test = stratified_split(data, 0.2, 0)
        x, y, j = fit.views["view"], fit.labels, data.n_classes
        params = tune(search_space("nominal"), x, y, n_classes=j, seed=0)
        # tune moves the learning rate off its default here, so a train
        # that skipped tuning would not pass
        assert params["learning_rate"] != method_config("nominal", j).learning_rate
        model = train(method_config("nominal", j, params, seed=0), x, y)
        probs = predict_proba_batch(model, test.views["view"])
        lines = ["true_label,predicted_label,p_0,p_1,p_2,p_3"]
        for label, pred, row in zip(test.labels.tolist(),
                                    np.argmax(probs, axis=1).tolist(),
                                    probs.tolist()):
            lines.append(",".join(map(repr, [label, pred, *row])))
        assert preds.read_bytes() == "".join(ln + "\r\n" for ln in lines).encode()

    def test_metrics_requires_columns(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        with p.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["foo", "bar"])
            writer.writerow([1, 2])
        code, _, err = run_cli(capsys, "metrics", str(p))
        assert code == 2
        assert "missing required column" in err


class TestExperiment:
    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "e.cfg"
        cfg.write_text(
            "methods = nominal\n"
            "views = crown\n"
            "n_seeds = 5\n"
            "tuning = true\n"
            "epochs = 20\n"
            "synth.n_samples = 60\n"
            "synth.class_proportions = 0.25, 0.25, 0.25, 0.25\n"
            "synth.n_features_per_view = 4\n"
        )
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(
            capsys, "experiment", "--config", str(cfg),
            "--out", str(out_dir), "--n-seeds", "2", "--no-tuning",
            "--seed", "3",
        )
        assert code == 0
        grid = (out_dir / "grid.csv").read_text().splitlines()
        assert len(grid) == 1 + 2  # header + 1 method x 1 view x 2 seeds
        import json
        saved = json.loads((out_dir / "config.json").read_text())
        assert saved["n_seeds"] == 2
        assert saved["tuning"] is False
        assert saved["base_seed"] == 3

    def test_scoring_options_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "e.cfg"
        cfg.write_text(
            "methods = nominal\n"
            "views = crown\n"
            "n_seeds = 2\n"
            "tuning = false\n"
            "epochs = 5\n"
            "qwk_exponent = 1\n"
            "e_normalization = j\n"
            "synth.n_samples = 60\n"
            "synth.class_proportions = 0.25, 0.25, 0.25, 0.25\n"
            "synth.n_features_per_view = 4\n"
        )
        import json
        # the file's values hold unless a flag is given
        for flags, expected in [
            ((), (1, "j")),
            (("--qwk-exponent", "2", "--e-normalization", "n"), (2, "n")),
        ]:
            out_dir = tmp_path / f"run{len(flags)}"
            argv = ["experiment", "--config", str(cfg), "--out", str(out_dir)]
            code, _, _ = run_cli(capsys, *argv, *flags)
            assert code == 0
            saved = json.loads((out_dir / "config.json").read_text())
            assert (saved["qwk_exponent"], saved["e_normalization"]) == expected

    @pytest.mark.parametrize(
        "views, names, noise",
        [("north", ("crown", "north", "south"), (0.5, 1.0, 2.0)),
         ("left, right", ("left", "right"), (0.5, 0.5))],
    )
    def test_views_flag_picks_synthetic_views(self, tmp_path, views, names, noise):
        # --views naming a view the generator lacks generates exactly those,
        # each with the first view's noise
        cfg = experiment_config(tmp_path, "synth.view_noise = 0.5, 1.0, 2.0\n",
                                "--views", views)
        assert cfg.views == tuple(v.strip() for v in views.split(","))
        assert (cfg.synth.view_names, cfg.synth.view_noise) == (names, noise)

    def test_requires_output_dir(self, capsys):
        code, _, err = run_cli(capsys, "experiment", "--n-seeds", "1")
        assert code == 2
        assert "output directory required" in err

    def test_csv_source(self, tmp_path, capsys):
        run_cli(capsys, "generate", "--out", str(tmp_path / "d"), "--seed", "0")
        cfg = tmp_path / "e.cfg"
        cfg.write_text(
            "methods = nominal\n"
            "views = crown\n"
            "n_seeds = 1\n"
            "tuning = false\n"
            "epochs = 20\n"
            f"csv.crown = {tmp_path / 'd' / 'crown.csv'}\n"
        )
        code, out, _ = run_cli(
            capsys, "experiment", "--config", str(cfg),
            "--out", str(tmp_path / "run"),
        )
        assert code == 0
        assert "grid.csv" in out


class TestStats:
    def test_reports_from_grid(self, tmp_path, capsys):
        cfg = tmp_path / "e.cfg"
        cfg.write_text(
            "methods = nominal, clm\n"
            "views = crown, north\n"
            "n_seeds = 3\n"
            "tuning = false\n"
            "epochs = 20\n"
            "synth.n_samples = 60\n"
            "synth.class_proportions = 0.25, 0.25, 0.25, 0.25\n"
            "synth.n_features_per_view = 4\n"
        )
        out_dir = tmp_path / "run"
        run_cli(capsys, "experiment", "--config", str(cfg), "--out", str(out_dir))
        report_dir = tmp_path / "reports"
        code, out, _ = run_cli(
            capsys, "stats", str(out_dir / "grid.csv"),
            "--out", str(report_dir), "--metrics", "qwk",
        )
        assert code == 0
        text = (report_dir / "stats_qwk.md").read_text()
        assert "| Method |" in text

    # sha256 of each stats_<metric>.md for the grid below, as deciding every
    # pair by its integrated p-value (p < alpha) writes them: pins the Tukey
    # subsets and the q critical line byte for byte
    GOLDEN = {
        "qwk": "b732ecc61f783f5e06d06d10368647d2085b7cc0895661cc6a7eb095ea846f85",
        "amae": "b7e8fa05ee9f276c15c0c4582d13302cdfdd5125071b49a8ac1ee613e5d0fdcc",
        "accuracy": "b34c1a2987eff4b7e0f1fd4018969841aefff15c8fce7f0937f3a2429068bdd5",
    }

    def test_paper_grid_report_golden(self, tmp_path, capsys):
        # 14 methods x 7 view configs x 3 seeds with method and view effects
        configs = [name for name, _ in view_config_names(DEFAULT_VIEWS)]
        rng = np.random.default_rng(20)
        shape = (3, len(METHODS), len(configs))
        effect = rng.normal(0.0, 0.04, size=(len(METHODS), 1)) + rng.normal(
            0.0, 0.03, size=(1, len(configs))
        )
        metrics = {
            "qwk": 0.6 + effect + rng.normal(0.0, 0.05, size=shape),
            "amae": 0.7 - effect + rng.normal(0.0, 0.06, size=shape),
            "accuracy": 0.5 + effect + rng.normal(0.0, 0.04, size=shape),
        }
        grid = tmp_path / "grid.csv"
        with grid.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "view_config", "seed", *metrics])
            for cell in np.ndindex(shape):
                s, mi, ci = cell
                values = [repr(float(v[cell])) for v in metrics.values()]
                writer.writerow([METHODS[mi], configs[ci], s, *values])
        code, _, _ = run_cli(capsys, "stats", str(grid), "--out", str(tmp_path / "r"))
        assert code == 0
        digests = {
            m: hashlib.sha256((tmp_path / "r" / f"stats_{m}.md").read_bytes()).hexdigest()
            for m in metrics
        }
        assert digests == self.GOLDEN

    def test_constant_metric_reports_degenerate_tables(self, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        grid.write_text("method,view_config,seed,qwk\n" + "".join(
            f"{m},{v},{s},0.5\n"
            for m in ("nominal", "clm") for v in ("crown", "north") for s in range(3)
        ))
        code, _, _ = run_cli(capsys, "stats", str(grid), "--metrics", "qwk")
        assert code == 0
        lines = (tmp_path / "stats_qwk.md").read_text().splitlines()
        assert "Degenerate table: residual mean square is zero." in lines
        skipped = "Skipped: degenerate pooled variance: all groups constant"
        assert lines.count(skipped) == 2  # the method and the view_config sections

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_metric_names_line_and_column(self, tmp_path, capsys, cell):
        # a sens_q or mae_q cell is nan when class q has no test rows, so
        # only the requested metric columns are checked
        grid = tmp_path / "grid.csv"
        grid.write_text(
            "method,view_config,seed,qwk,amae,sens_0\n"
            "nominal,crown,0,0.5,0.4,nan\n"
            f"nominal,crown,1,0.6,{cell},nan\n"
        )
        code, _, err = run_cli(capsys, "stats", str(grid), "--metrics", "qwk,amae",
                               "--out", str(tmp_path / "r"))
        assert code == 2
        message = f"line 3: value {cell} in column 'amae' is not finite"
        assert err == f"error: file {grid}: {message}\n"
        code, _, _ = run_cli(capsys, "stats", str(grid), "--metrics", "qwk",
                             "--out", str(tmp_path / "r"))
        assert code == 0

    def test_unknown_metric(self, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        grid.write_text("method,view_config,seed,qwk\nnominal,crown,0,0.5\n")
        code, _, err = run_cli(capsys, "stats", str(grid), "--metrics", "f1")
        assert code == 2
        assert "not in grid columns" in err

    @pytest.mark.parametrize("metrics", ["", " , ", "qwk,qwk", "qwk,f1"])
    def test_bad_metric_list_writes_nothing(self, tmp_path, capsys, metrics):
        grid = tmp_path / "grid.csv"
        grid.write_text("method,view_config,seed,qwk\nnominal,crown,0,0.5\n")
        out_dir = tmp_path / "r"
        code, _, err = run_cli(
            capsys, "stats", str(grid), "--metrics", metrics, "--out", str(out_dir)
        )
        assert code == 2
        assert err.startswith("error: ")
        assert not out_dir.exists()


class TestErrorExits:
    def test_experiment_failure_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "e.cfg"
        cfg.write_text(
            "methods = nominal\n"
            "views = crown\n"
            "n_seeds = 1\n"
            "tuning = false\n"
            "learning_rate = 1e308\n"
            "synth.n_samples = 60\n"
            "synth.class_proportions = 0.25, 0.25, 0.25, 0.25\n"
        )
        code, _, err = run_cli(
            capsys, "experiment", "--config", str(cfg), "--out", str(tmp_path / "run")
        )
        assert code == 2
        assert err.startswith("error: method=nominal view=crown seed=0")

    # the overflow of a trained slace model on its test rows, scaled by 100
    DIVERGED = (
        "training diverged: the trained parameters overflow the forward pass: "
        "NaN probabilities in 6 of 7 rows"
    )

    @staticmethod
    def saturating_config(tmp_path) -> str:
        """A CSV experiment whose one fit ends with finite weights that
        overflow only on the test rows."""
        x, y = blob_dataset(12, 3, scale=2.0, seed=0)
        # the rows the experiment's split (test_fraction 0.2, seed 0) tests on
        index = MultiViewDataset({"i": np.arange(y.size)[:, None]}, y, n_classes=3)
        test_rows = stratified_split(index, 0.2, 0)[1].views["i"][:, 0].astype(int)
        x[test_rows] *= 100.0
        data = MultiViewDataset({"crown": x}, y, n_classes=3)
        paths = write_views_csv(data, tmp_path / "d")
        return (
            f"csv.crown = {paths['crown']}\n"
            "methods = slace\nviews = crown\nn_seeds = 1\ntuning = false\n"
            "learning_rate = 1e308\nepochs = 3\nbatch_size = 8\n"
        )

    def test_prediction_failure_names_its_cell(self, tmp_path):
        cfg = experiment_config(tmp_path, self.saturating_config(tmp_path))
        with pytest.raises(ExperimentError) as info:
            run_experiment(cfg)
        assert str(info.value) == f"method=slace view=crown seed=0: {self.DIVERGED}"
        assert isinstance(info.value.__cause__, TrainingDiverged)

    def test_prediction_failure_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "e.cfg"
        cfg.write_text(self.saturating_config(tmp_path))
        code, _, err = run_cli(
            capsys, "experiment", "--config", str(cfg), "--out", str(tmp_path / "run")
        )
        assert code == 2
        assert err == f"error: method=slace view=crown seed=0: {self.DIVERGED}\n"

    def test_stats_on_directory_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "stats", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("metrics", "true_label,predicted_label\n0,1\n1\n",
             "line 3 has 1 fields, expected 2"),
            ("metrics", "", "empty file"),
            ("stats", "", "empty file"),
            ("metrics", "true_label,predicted_label\n0,1\n1,high\n",
             "line 3: cannot parse label value 'high' in column 'predicted_label'"),
            ("stats", "method,view_config,seed,qwk\nnominal,crown,0,n/a\n",
             "line 2: cannot parse metric value 'n/a' in column 'qwk'"),
            ("metrics", "true_label,predicted_label\n0,1\n99999999999999999999,1\n",
             "line 3: cannot parse label value '99999999999999999999'"),
            ("metrics", "true_label,predicted_label,true_label\n0,1,0\n",
             "duplicate column 'true_label'"),
            ("stats", "method,view_config,seed,qwk,qwk\nnominal,crown,0,0.5,0.5\n",
             "duplicate column 'qwk'"),
            ("stats", "true_label,predicted_label\n0,1\n",
             "not a grid CSV (header ('true_label', 'predicted_label'))"),
        ],
    )
    def test_malformed_csv_names_file(self, tmp_path, capsys, command, text, message):
        p = tmp_path / "in.csv"
        p.write_text(text)
        code, _, err = run_cli(capsys, command, str(p))
        assert code == 2
        assert err.startswith(f"error: file {p}: {message}")

    @pytest.mark.parametrize(
        "text, flags, message",
        [
            ("true_label,predicted_label\n0,1\n-1,0\n", [],
             "line 3: label -1 in column 'true_label' is negative"),
            ("true_label,predicted_label\n0,1\n2,4\n", ["--n-classes", "4"],
             "line 3: label 4 in column 'predicted_label' lies outside [0, 3]"),
        ],
        ids=("negative", "above_n_classes"),
    )
    def test_metrics_label_out_of_range_names_line(
        self, tmp_path, capsys, text, flags, message
    ):
        p = tmp_path / "pred.csv"
        p.write_text(text)
        code, _, err = run_cli(capsys, "metrics", str(p), *flags)
        assert code == 2
        assert err.startswith(f"error: file {p}: {message}")
