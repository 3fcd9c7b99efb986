import csv
import hashlib
from pathlib import Path

import numpy as np
import pytest

from ordview.cli import main, parse_config_file
from ordview.model import METHODS
from ordview.pipeline import DEFAULT_VIEWS, view_config_names


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConfigFile:
    def test_scalars_and_lists(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(
            "# comment line\n"
            "n_seeds = 5\n"
            "tuning = false\n"
            "methods = nominal, clm  # trailing comment\n"
            "test_fraction = 0.25\n"
            "label = crown\n"
        )
        cfg = parse_config_file(p)
        assert cfg["n_seeds"] == 5
        assert cfg["tuning"] is False
        assert cfg["methods"] == ("nominal", "clm")
        assert cfg["test_fraction"] == 0.25
        assert cfg["label"] == "crown"

    def test_bad_line_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("just some words\n")
        with pytest.raises(ValueError):
            parse_config_file(p)


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

    def test_unknown_metric(self, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        grid.write_text("method,view_config,seed,qwk\nnominal,crown,0,0.5\n")
        code, _, err = run_cli(capsys, "stats", str(grid), "--metrics", "f1")
        assert code == 2
        assert "not in grid columns" in err


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
