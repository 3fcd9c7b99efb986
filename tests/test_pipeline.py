import csv
import hashlib
import math
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ordview import pipeline, stats
from ordview.core import MultiViewDataset, stratified_split
from ordview.metrics import amae
from ordview.model import METHODS, ModelConfig, method_config, predict_proba_batch, train
from ordview.pipeline import (
    ExperimentConfig,
    ExperimentError,
    SynthConfig,
    generate_synthetic,
    grid_header,
    load_views_csv,
    read_grid_csv,
    run_experiment,
    view_config_names,
    write_views_csv,
)


def write_csv(path, header, rows):
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]


def bitwise_equal(a, b):
    """Equal float arrays down to the sign of zero."""
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def no_cell_reader(*args):
    raise AssertionError("the cell-by-cell reader ran on a well-formed file")


@st.composite
def decimal_strings(draw):
    """Decimal spellings of floats: up to 40 mantissa digits, exponents from
    -330 to 310, halfway and subnormal cases, signed zeros, and spaces
    around the number."""
    digits = draw(st.text("0123456789", min_size=1, max_size=40))
    point = draw(st.none() | st.integers(0, len(digits)))
    number = digits if point is None else digits[:point] + "." + digits[point:]
    exponent = draw(st.none() | st.integers(-330, 310))
    if exponent is not None:
        number += draw(st.sampled_from(["e", "E"])) + str(exponent)
    number = draw(st.sampled_from(["", "+", "-"])) + number
    number = draw(st.one_of(st.just(number), st.sampled_from([
        "9007199254740993", "9007199254740995", "-9007199254740993.0",
        "2.4703282292062327e-324", "2.4703282292062328e-324",
        "4.9406564584124654e-324", "2.2250738585072011e-308",
        "2.2250738585072012e-308", "1.7976931348623158e308",
        "1.7976931348623159e308", "-0", "-0.0e-5", "+0.0",
    ])))
    pad = st.sampled_from(["", " ", "  "])
    return draw(pad) + number + draw(pad)


class TestSynthetic:
    def test_default_counts(self):
        data = generate_synthetic(SynthConfig(), seed=0)
        assert data.counts().tolist() == [40, 102, 106, 47]
        assert data.view_names == ("crown", "north", "south")
        assert data.views["crown"].shape == (295, 10)

    def test_deterministic(self):
        a = generate_synthetic(SynthConfig(), seed=5)
        b = generate_synthetic(SynthConfig(), seed=5)
        assert np.array_equal(a.labels, b.labels)
        for v in a.view_names:
            assert np.array_equal(a.views[v], b.views[v])

    def test_seed_changes_data(self):
        a = generate_synthetic(SynthConfig(), seed=0)
        b = generate_synthetic(SynthConfig(), seed=1)
        assert not np.array_equal(a.views["crown"], b.views["crown"])

    def test_labels_ordered_by_latent(self):
        # the latent score is recoverable: class means must increase
        cfg = SynthConfig(view_noise=(0.0, 0.0, 0.0))
        data = generate_synthetic(cfg, seed=2)
        x = data.views["crown"]
        # project onto the first principal direction of the signal
        u, s, vt = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)
        proj = x @ vt[0]
        means = [proj[data.labels == q].mean() for q in range(4)]
        diffs = np.diff(means)
        assert np.all(diffs > 0) or np.all(diffs < 0)

    def test_noise_free_is_learnable(self):
        cfg = SynthConfig(view_noise=(0.0, 0.0, 0.0))
        data = generate_synthetic(cfg, seed=3)
        train_part, test_part = stratified_split(data, 0.2, seed=0)
        model = train(
            method_config("nominal", 4, None, seed=0, learning_rate=0.1,
                          epochs=500),
            train_part.views["crown"],
            train_part.labels,
        )
        preds = np.argmax(
            predict_proba_batch(model, test_part.views["crown"]), axis=1
        )
        assert amae(test_part.labels, preds, 4) < 0.1

    def test_infeasible_proportions(self):
        cfg = SynthConfig(
            n_samples=5,
            n_classes=4,
            class_proportions=(0.01, 0.01, 0.49, 0.49),
            view_noise=(1.0, 1.0, 1.0),
        )
        with pytest.raises(ValueError):
            generate_synthetic(cfg, seed=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(class_proportions=(0.5, 0.4))  # length != n_classes
        with pytest.raises(ValueError):
            SynthConfig(latent_correlation=1.5)
        with pytest.raises(ValueError):
            SynthConfig(view_noise=(1.0,))
        with pytest.raises(ValueError, match="class proportions must be positive"):
            SynthConfig(class_proportions=(math.nan, 0.5, 0.25, 0.25))
        with pytest.raises(ValueError, match="view_noise entries must be >= 0"):
            SynthConfig(view_noise=(math.nan, 1.0, 1.0))

    def test_infinite_view_noise_rejected_when_built(self):
        with pytest.raises(ValueError, match="view_noise entries must be >= 0 and finite"):
            SynthConfig(view_noise=(1.0, math.inf, 1.0))

    def test_for_views(self):
        # a subset of the generated views keeps the config; any other set is
        # generated exactly, each view with the first view's noise
        cfg = SynthConfig(n_samples=40, view_noise=(0.5, 1.0, 2.0))
        assert cfg.for_views(("south", "crown")) is cfg
        other = cfg.for_views(("crown", "west"))
        assert (other.view_names, other.view_noise) == (("crown", "west"), (0.5, 0.5))
        assert other.n_samples == 40
        assert generate_synthetic(other, seed=0).view_names == ("crown", "west")


class TestCsvRoundtrip:
    def test_write_then_load(self, tmp_path):
        data = generate_synthetic(
            SynthConfig(n_samples=40, class_proportions=(0.25,) * 4), seed=1
        )
        paths = write_views_csv(data, tmp_path)
        loaded = load_views_csv(paths)
        assert loaded.n_samples == 40
        assert loaded.n_classes == 4
        assert np.array_equal(loaded.labels, data.labels)
        for v in data.view_names:
            assert np.allclose(loaded.views[v], data.views[v])

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_floats_round_trip_bitwise(self, draw):
        n = draw.draw(st.integers(1, 12))
        d = draw.draw(st.integers(1, 4))
        edge = st.sampled_from(EDGE_FLOATS)
        cells = st.one_of(st.floats(allow_nan=False, allow_infinity=False), edge)
        views = {
            v: draw.draw(arrays(np.float64, (n, d), elements=cells))
            for v in ("a", "b")
        }
        labels = draw.draw(arrays(np.int64, n, elements=st.integers(0, 3)))
        data = MultiViewDataset(views=views, labels=labels, n_classes=4)
        with tempfile.TemporaryDirectory() as tmp:
            loaded = load_views_csv(write_views_csv(data, tmp), n_classes=4)
        assert np.array_equal(loaded.labels, data.labels)
        for v in views:
            assert np.array_equal(loaded.views[v], data.views[v])
            # array_equal holds for 0.0 == -0.0; the bit patterns must match too
            assert np.array_equal(
                loaded.views[v].view(np.int64), data.views[v].view(np.int64)
            )

    @pytest.mark.parametrize("columns, message", [
        (dict(label_column="f0"), "label column 'f0' is also the name of a feature column"),
        (dict(id_column="f3"), "id column 'f3' is also the name of a feature column"),
        (dict(id_column="y", label_column="y"), "label column and id column are both 'y'"),
    ])
    def test_clashing_column_names_rejected_before_writing(self, tmp_path, columns, message):
        data = generate_synthetic(SynthConfig(n_samples=40), seed=1)
        with pytest.raises(ValueError, match=message):
            write_views_csv(data, tmp_path / "out", **columns)
        assert not (tmp_path / "out").exists()

    def test_label_named_past_the_features_round_trips(self, tmp_path):
        data = generate_synthetic(SynthConfig(n_samples=40), seed=1)
        paths = write_views_csv(data, tmp_path, label_column="f10", id_column="f11")
        loaded = load_views_csv(paths, label_column="f10", id_column="f11")
        assert np.array_equal(loaded.labels, data.labels)

    def test_write_matches_csv_writer_bytes(self, tmp_path):
        block = np.array(EDGE_FLOATS + [0.1, 1 / 3, -2.5e-7, 123456789.0])
        data = MultiViewDataset(
            views={"v": np.stack([block, block[::-1]], axis=1)},
            labels=np.arange(block.size) % 3,
            n_classes=3,
        )
        path = write_views_csv(data, tmp_path / "out", id_column="id")["v"]
        rows = zip(data.views["v"].tolist(), data.labels.tolist())
        write_csv(tmp_path / "ref.csv", ["id", "f0", "f1", "label"],
                  ([i, *x, y] for i, (x, y) in enumerate(rows)))
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_written_views_load_in_one_numpy_call(self, tmp_path, monkeypatch):
        data = generate_synthetic(
            SynthConfig(n_samples=40, class_proportions=(0.25,) * 4), seed=2
        )
        paths = write_views_csv(data, tmp_path)
        monkeypatch.setattr(pipeline, "_read_csv", no_cell_reader)
        loaded = load_views_csv(paths)
        assert np.array_equal(loaded.labels, data.labels)
        for v in data.view_names:
            assert bitwise_equal(loaded.views[v], data.views[v])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(decimal_strings(), min_size=1, max_size=20))
    def test_decimal_strings_parse_as_python_float(self, cells):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "v.csv"
            body = "".join(f"{i},{cell},0\n" for i, cell in enumerate(cells))
            path.write_text("sample_id,f0,label\n" + body)
            with mock.patch.object(pipeline, "_read_csv", no_cell_reader):
                # the table reader itself: the view reader rejects the
                # overflows to inf
                _, columns, _ = pipeline._read_table(
                    path, lambda header: [str, float, int],
                    {int: "label", float: "feature"},
                )
        expected = np.array([float(cell) for cell in cells])
        assert bitwise_equal(columns[1], expected)


def permute_rows(path, seed):
    """Rewrite a CSV file with its data lines in a seeded random order."""
    header, *body = path.read_bytes().splitlines(keepends=True)
    order = np.random.default_rng(seed).permutation(len(body))
    path.write_bytes(header + b"".join(body[i] for i in order))


class TestViewFilesPinned:
    """The bytes ``write_views_csv`` writes, for row counts below, at and just
    past a multiple of 4096, and the views that load back from them."""

    DIGESTS = {
        300: "45ff5f7f8e741b308f35091db4954eb7b8c69e0792382c4be36903edbd5e6b60",
        4096: "8957b65ae0cf4325a8d19097ad3ed44832d1d6d4b8b7b149904868b73d188893",
        8193: "accd92841ab7174049039fdc413ac876640993017a5a2b71d0ebf725e82faa92",
    }

    @pytest.mark.parametrize("n", sorted(DIGESTS))
    def test_written_bytes_pinned(self, tmp_path, n):
        data = generate_synthetic(SynthConfig(n_samples=n), seed=n)
        digest = hashlib.sha256()
        for path in write_views_csv(data, tmp_path).values():
            digest.update(path.read_bytes())
        assert digest.hexdigest() == self.DIGESTS[n]

    def load_permuted(self, tmp_path, permuted):
        data = generate_synthetic(SynthConfig(n_samples=300), seed=3)
        paths = write_views_csv(data, tmp_path)
        for i, view in enumerate(permuted):
            permute_rows(paths[view], seed=i)
        loaded = load_views_csv(paths)
        assert list(loaded.views) == list(data.views)
        assert np.array_equal(loaded.labels, data.labels)
        for array in [loaded.labels, *loaded.views.values()]:
            assert array.flags.c_contiguous and not array.flags.writeable
        for v in data.views:
            assert bitwise_equal(loaded.views[v], data.views[v])

    def test_sorted_ids_load_as_written(self, tmp_path):
        self.load_permuted(tmp_path, [])

    def test_shuffled_first_view_loads_as_written(self, tmp_path):
        self.load_permuted(tmp_path, ["crown"])

    def test_second_view_in_another_order_loads_as_written(self, tmp_path):
        self.load_permuted(tmp_path, ["north"])


def traced_peak(fn):
    """fn()'s result and the peak of the memory it allocated, in MB."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_data_path_memory_is_bounded(tmp_path):
    """3 views x 20k rows x 10 features (1.5 MB a view): generating, writing
    and loading them allocate no whole-view temporary beyond the ones each
    step needs (peaks of 8.2 / 1.6 / 9.6 MB when written, 11.1 / 7.6 / 18.9
    MB with whole-view temporaries). A view in another order than the first
    is matched by sorting its ids, and a shuffled first view gathers every
    view (peaks of 9.7 and 9.6 MB, each view put in id order before the
    next is read; 12.1 and 14.0 MB when the ids were matched through sets
    and an id-to-row dict)."""
    generate_synthetic(SynthConfig(n_samples=50), seed=0)  # first-call set-up
    cfg = SynthConfig(n_samples=20_000)
    data, peak = traced_peak(lambda: generate_synthetic(cfg, seed=0))
    assert peak < 9.5
    paths, peak = traced_peak(lambda: write_views_csv(data, tmp_path))
    assert peak < 3.0
    first, second = list(paths)[:2]
    for shuffled, budget in ((None, 10.0), (second, 11.5), (first, 12.5)):
        if shuffled is not None:
            permute_rows(paths[shuffled], seed=1)
        loaded, peak = traced_peak(lambda: load_views_csv(paths))
        assert peak < budget
        for v in data.views:
            assert bitwise_equal(loaded.views[v], data.views[v])


class TestCsvLoader:
    def make_pair(self, tmp_path, rows_a=None, rows_b=None):
        header = ["sample_id", "f0", "f1", "label"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_csv(a, header, rows_a or [[0, 0.1, 0.2, 0], [1, 0.3, 0.4, 1]])
        write_csv(b, header, rows_b or [[0, 1.1, 1.2, 0], [1, 1.3, 1.4, 1]])
        return {"a": a, "b": b}

    def test_two_aligned_files(self, tmp_path):
        data = load_views_csv(self.make_pair(tmp_path))
        assert data.n_samples == 2
        assert sorted(data.view_names) == ["a", "b"]
        assert data.labels.tolist() == [0, 1]

    def test_missing_column(self, tmp_path):
        p = tmp_path / "x.csv"
        write_csv(p, ["id", "f0", "label"], [[0, 0.5, 0]])
        with pytest.raises(ValueError, match="missing required column"):
            load_views_csv({"x": p})

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "x.csv"
        write_csv(p, ["sample_id", "f0", "label"], [[0, 0.5, 0], [1, 0.5]])
        with pytest.raises(ValueError, match="line 3"):
            load_views_csv({"x": p})

    def test_non_integer_label(self, tmp_path):
        p = tmp_path / "x.csv"
        write_csv(p, ["sample_id", "f0", "label"], [[0, 0.5, "high"]])
        with pytest.raises(ValueError, match="not an integer"):
            load_views_csv({"x": p})

    def test_negative_label(self, tmp_path):
        p = tmp_path / "x.csv"
        write_csv(p, ["sample_id", "f0", "label"], [[0, 0.5, -1]])
        with pytest.raises(ValueError, match="negative"):
            load_views_csv({"x": p})

    def test_label_out_of_range(self, tmp_path):
        p = tmp_path / "x.csv"
        write_csv(p, ["sample_id", "f0", "label"], [[0, 0.5, 1], [1, 0.6, 4]])
        with pytest.raises(ValueError, match=r"file .*x\.csv: line 3: .*outside"):
            load_views_csv({"x": p}, n_classes=4)

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "x.csv"
        write_csv(p, ["sample_id", "f0", "label"], [[0, 0.5, 0], [0, 0.6, 1]])
        with pytest.raises(ValueError, match="duplicate"):
            load_views_csv({"x": p})

    def test_mismatched_ids_name_first_offender(self, tmp_path):
        paths = self.make_pair(
            tmp_path,
            rows_a=[[0, 0.1, 0.2, 0], [1, 0.3, 0.4, 1]],
            rows_b=[[0, 1.1, 1.2, 0], [7, 1.3, 1.4, 1]],
        )
        with pytest.raises(ValueError, match="'1'|'7'"):
            load_views_csv(paths)

    def test_mismatched_ids_name_first_offender_in_id_order(self, tmp_path):
        paths = self.make_pair(
            tmp_path,
            rows_a=[[1, 0.1, 0.2, 0], [9, 0.3, 0.4, 1]],
            rows_b=[[1, 1.1, 1.2, 0], [10, 1.3, 1.4, 1]],
        )
        with pytest.raises(ValueError, match=r"first offending id: '9'\)"):
            load_views_csv(paths)

    def test_mismatched_ids_name_first_offender_in_load_order(self, tmp_path):
        # the shared id x puts both views in string order, where 10 precedes 9
        paths = self.make_pair(
            tmp_path,
            rows_a=[[1, 0.1, 0.2, 0], [9, 0.3, 0.4, 1], ["x", 0.5, 0.6, 0]],
            rows_b=[[1, 1.1, 1.2, 0], [10, 1.3, 1.4, 1], ["x", 1.5, 1.6, 0]],
        )
        with pytest.raises(ValueError, match=r"first offending id: '10'\)"):
            load_views_csv(paths)

    @pytest.mark.parametrize(
        "ids, dup",
        [(["5", "3", "5", "3"], "3"), (["1", "01", "1", "01"], "01"),
         (["t2", "t1", "t2", "t1"], "t1"),
         (["100000000000000000000", "9", "100000000000000000000", "9"], "9")],
        ids=("integer", "integer_spellings", "string", "past_int64"),
    )
    def test_duplicate_id_named_first_in_id_order(self, tmp_path, ids, dup):
        p = tmp_path / "x.csv"
        write_csv(p, ["sample_id", "f0", "label"], [[i, 0.5, 0] for i in ids])
        with pytest.raises(ValueError, match=re.escape(f"file {p}: duplicate sample id {dup!r}")):
            load_views_csv({"x": p})

    def test_view_checked_before_the_next_is_read(self, tmp_path):
        paths = self.make_pair(
            tmp_path,
            rows_a=[[0, 0.1, 0.2, 0], [1, 0.3, 0.4, 1]],
            rows_b=[[0, 1.1, 1.2, 0], [7, 1.3, 1.4, 1]],
        )
        paths["c"] = tmp_path / "missing.csv"
        with pytest.raises(ValueError, match="view 'a' and view 'b': sample ids differ"):
            load_views_csv(paths)

    def test_conflicting_labels(self, tmp_path):
        paths = self.make_pair(
            tmp_path,
            rows_a=[[0, 0.1, 0.2, 0], [1, 0.3, 0.4, 1]],
            rows_b=[[0, 1.1, 1.2, 0], [1, 1.3, 1.4, 0]],
        )
        with pytest.raises(ValueError, match="conflicting labels"):
            load_views_csv(paths)

    def test_non_numeric_feature(self, tmp_path):
        p = tmp_path / "x.csv"
        write_csv(p, ["sample_id", "f0", "label"], [[0, "oops", 0]])
        with pytest.raises(ValueError, match="cannot parse feature"):
            load_views_csv({"x": p})

    @pytest.mark.parametrize(
        "cell, value", [("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"), ("1e309", "inf")]
    )
    def test_non_finite_feature_names_line_and_column(self, tmp_path, cell, value):
        p = tmp_path / "x.csv"
        write_csv(p, ["sample_id", "f0", "f1", "label"],
                  [[0, 0.5, 0.1, 0], [1, 0.6, cell, 1], [2, cell, 0.2, 0]])
        message = f"file {p}: line 3: value {value} in column 'f1' is not finite"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_views_csv({"x": p})

    def test_numeric_id_ordering(self, tmp_path):
        p = tmp_path / "x.csv"
        write_csv(
            p,
            ["sample_id", "f0", "label"],
            [[10, 0.1, 0], [2, 0.2, 1], [1, 0.3, 0]],
        )
        data = load_views_csv({"x": p})
        # numeric order 1, 2, 10 (not lexicographic "1", "10", "2")
        assert data.views["x"][:, 0].tolist() == [0.3, 0.2, 0.1]

    # an all-blank body makes np.loadtxt warn that it read no data
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "body, line", [("0,0.5,0\n\n1,0.6,1\n", 3), ("\n\n", 2)], ids=("middle", "only")
    )
    def test_blank_line_names_line(self, tmp_path, body, line):
        p = tmp_path / "x.csv"
        p.write_text("sample_id,f0,label\n" + body)
        with pytest.raises(ValueError, match=f"line {line} has 0 fields, expected 3"):
            load_views_csv({"x": p})

    @pytest.mark.parametrize(
        "text, error",
        [
            ('sample_id,f0,label\n"a\nb",0.1,0\n1,bad,0\n',
             "line 4: cannot parse feature value 'bad'"),
            ('sample_id,f0,label\n"a\nb",0.1,0\n1,0.2,7\n',
             r"line 4: label 7 in column 'label' lies outside \[0, 2\]"),
            ('sample_id,"f\n0",label\n0,0.1,0\n1,0.2,7\n',
             r"line 4: label 7 in column 'label' lies outside \[0, 2\]"),
        ],
        ids=("feature_after_quoted_newline", "label_after_quoted_newline",
             "label_after_quoted_newline_in_header"),
    )
    def test_error_names_physical_line(self, tmp_path, text, error):
        p = tmp_path / "x.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=error):
            load_views_csv({"x": p}, n_classes=3)

    @pytest.mark.parametrize(
        "ids", [["a,b", "#e", 'f"g', " h "], ["c\nd", "e"]], ids=("one_line", "newline")
    )
    def test_ids_read_as_csv_reader_reads_them(self, tmp_path, ids):
        p = tmp_path / "x.csv"
        write_csv(p, ["sample_id", "f0", "label"], [[i, 0.5, 1] for i in ids])
        with p.open(newline="") as fh:
            expected = [rec[0] for rec in list(csv.reader(fh))[1:]]
        got, block, labels = pipeline._parse_view_csv(p, "label", "sample_id")
        assert got == expected == ids
        assert block.tolist() == [[0.5]] * len(ids)
        assert labels.tolist() == [1] * len(ids)

    def test_spellings_only_python_parses(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("sample_id,f0,label\n0,1_0.5, +3\n1,0.5,0\n")
        data = load_views_csv({"x": p})
        assert data.views["x"][:, 0].tolist() == [10.5, 0.5]
        assert data.labels.tolist() == [3, 0]

    def test_crlf_and_lf_files_load_equal(self, tmp_path):
        text = "sample_id,f0,f1,label\n0,0.1,-2e-310,0\n1,1e300,-0.0,1\n"
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        a, b = load_views_csv({"x": lf}), load_views_csv({"x": crlf})
        assert np.array_equal(a.labels, b.labels)
        assert bitwise_equal(a.views["x"], b.views["x"])

    def test_duplicate_column(self, tmp_path):
        p = tmp_path / "x.csv"
        write_csv(p, ["sample_id", "f0", "label", "label"], [[0, 0.5, 0, 1]])
        with pytest.raises(ValueError, match=r"file .*x\.csv: duplicate column 'label'"):
            load_views_csv({"x": p})

    def test_lexicographic_fallback(self, tmp_path):
        p = tmp_path / "x.csv"
        write_csv(
            p,
            ["sample_id", "f0", "label"],
            [["t2", 0.1, 0], ["t10", 0.2, 1], ["t1", 0.3, 0]],
        )
        data = load_views_csv({"x": p})
        assert data.views["x"][:, 0].tolist() == [0.3, 0.2, 0.1]


def spy_cell_reader(monkeypatch):
    """Record each run of the cell-by-cell reader, which still does its work."""
    calls = []
    read_csv = pipeline._read_csv

    def spy(*args):
        calls.append(args[0])
        return read_csv(*args)

    monkeypatch.setattr(pipeline, "_read_csv", spy)
    return calls


@st.composite
def integer_strings(draw):
    """Integer spellings: signs, spaces, leading zeros, underscores, up to 21
    digits (past int64) and a few that ``int`` rejects."""
    digits = draw(st.text("0123456789", min_size=1, max_size=21))
    if draw(st.booleans()):
        cut = draw(st.integers(1, len(digits)))
        digits = digits[:cut] + draw(st.sampled_from(["_", "__", ""])) + digits[cut:]
    number = draw(st.sampled_from(["", "+", "-"])) + digits
    number = draw(st.one_of(st.just(number), st.sampled_from([
        "9223372036854775807", "-9223372036854775808", "9223372036854775808",
        "1.0", "1e3", "0x10", "+-3", "٣", "1 2", "_1",
    ])))
    pad = st.sampled_from(["", " ", "\t", "  "])
    return draw(pad) + number + draw(pad)


class TestStreamedLoader:
    """The one-pass ``loadtxt`` read and the single row-order sort."""

    HEADER = ["sample_id", "f0", "f1", "label"]
    ROWS = [[3, 0.5, -2e-310, 1], [1, 0.25, -0.0, 0], [10, 1e300, 7.0, 2], [2, 0.1, 0.2, 1]]

    def test_views_in_other_row_orders_load_aligned(self, tmp_path):
        rows_b = [[i, x + 1, y + 1, k] for i, x, y, k in self.ROWS]
        write_csv(tmp_path / "a.csv", self.HEADER, self.ROWS)
        write_csv(tmp_path / "b.csv", self.HEADER, rows_b)
        write_csv(tmp_path / "b_shuffled.csv", self.HEADER, rows_b[::-1])
        write_csv(tmp_path / "c.csv", self.HEADER, self.ROWS[1:] + self.ROWS[:1])
        same = load_views_csv({"a": tmp_path / "a.csv", "b": tmp_path / "b.csv",
                               "c": tmp_path / "a.csv"})
        mixed = load_views_csv({"a": tmp_path / "a.csv",
                                "b": tmp_path / "b_shuffled.csv",
                                "c": tmp_path / "c.csv"})
        assert same.labels.tolist() == mixed.labels.tolist() == [0, 1, 1, 2]
        for v in ("a", "b", "c"):
            assert bitwise_equal(same.views[v], mixed.views[v])
        assert same.views["a"][:, 0].tolist() == [0.25, 0.1, 0.5, 1e300]
        assert same.views["b"][:, 0].tolist() == [1.25, 1.1, 1.5, 1e300]

    def test_line_endings_load_equal(self, tmp_path, monkeypatch):
        text = "sample_id,f0,f1,label\n0,0.1,-2e-310,0\n1,1e300,-0.0,1\n2,5e-324,3,2\n"
        spellings = {
            "lf": text,
            "crlf": text.replace("\n", "\r\n"),
            "cr": text.replace("\n", "\r"),
            "lf_no_final": text[:-1],
            "crlf_no_final": text.replace("\n", "\r\n")[:-2],
            "cr_no_final": text.replace("\n", "\r")[:-1],
        }
        calls = spy_cell_reader(monkeypatch)
        loaded = {}
        for name, body in spellings.items():
            path = tmp_path / f"{name}.csv"
            path.write_bytes(body.encode())
            loaded[name] = load_views_csv({"x": path})
        assert calls == []
        for name, data in loaded.items():
            assert data.labels.tolist() == [0, 1, 2], name
            assert bitwise_equal(data.views["x"], loaded["lf"].views["x"]), name

    @pytest.mark.parametrize(
        "body, line",
        [("0,0.5,0\r\n\r\n1,0.6,1\r\n", 3), ("0,0.5,0\r\r1,0.6,1\r", 3),
         ("0,0.5,0\n1,0.6,1\n\n", 4)],
        ids=("crlf", "cr", "trailing"),
    )
    def test_blank_line_found_in_every_line_ending(self, tmp_path, body, line):
        p = tmp_path / "x.csv"
        p.write_bytes(("sample_id,f0,label\n" + body).encode())
        with pytest.raises(ValueError, match=f"line {line} has 0 fields, expected 3"):
            load_views_csv({"x": p})

    def test_header_only_file_has_no_data_rows(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("sample_id,f0,label")
        with pytest.raises(ValueError, match=r"file .*x\.csv: no data rows"):
            load_views_csv({"x": p})

    def test_spellings_of_one_integer_id_kept_in_int_then_string_order(self, tmp_path):
        p = tmp_path / "x.csv"
        rows = [["1", 0.1, 0], ["01", 0.2, 1], ["2", 0.3, 0], [" 1", 0.4, 1], ["0", 0.5, 0]]
        write_csv(p, ["sample_id", "f0", "label"], rows)
        data = load_views_csv({"x": p, "y": p})
        # (int, str) order: 0, then " 1" < "01" < "1", then 2
        assert data.views["x"][:, 0].tolist() == [0.5, 0.4, 0.2, 0.1, 0.3]
        assert data.labels.tolist() == [0, 1, 1, 0, 0]

    def test_ids_past_int64_sort_numerically(self, tmp_path):
        p = tmp_path / "x.csv"
        ids = ["100000000000000000000", "9", "-100000000000000000000", "9223372036854775808"]
        write_csv(p, ["sample_id", "f0", "label"], [[i, float(k), 0] for k, i in enumerate(ids)])
        data = load_views_csv({"x": p}, n_classes=2)
        assert data.views["x"][:, 0].tolist() == [2.0, 1.0, 3.0, 0.0]

    def test_spellings_only_int_parses_use_the_cell_reader(self, tmp_path, monkeypatch):
        p = tmp_path / "x.csv"
        p.write_text("sample_id,f0,label\n0,0.5,1_0\n1,0.5, +3\n2,0.5,٣\n")
        calls = spy_cell_reader(monkeypatch)
        data = load_views_csv({"x": p})
        assert calls == [p]
        assert data.labels.tolist() == [10, 3, 3]

    def test_label_past_int64_cannot_parse(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("sample_id,f0,label\n0,0.5,0\n1,0.5,12345678901234567890\n")
        with pytest.raises(
            ValueError,
            match=r"file .*x\.csv: line 3: cannot parse label value "
                  r"'12345678901234567890' in column 'label': not an integer",
        ):
            load_views_csv({"x": p})

    @settings(max_examples=200, deadline=None)
    @given(st.lists(integer_strings(), min_size=1, max_size=20))
    def test_integer_strings_parse_as_python_int(self, cells):
        expected = []
        for cell in cells:
            try:
                value = int(cell)
            except ValueError:
                value = None
            expected.append(value if value is None or -2**63 <= value < 2**63 else None)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.csv"
            body = "".join(f"m,c,{cell},0.5\n" for cell in cells)
            path.write_text("method,view_config,seed,qwk\n" + body)
            if None in expected:
                bad = cells[expected.index(None)]
                with pytest.raises(ValueError, match="cannot parse seed value") as err:
                    read_grid_csv(path)
                assert repr(bad) in str(err.value)
            else:
                _, rows = read_grid_csv(path)
                assert [row[2] for row in rows] == expected


class TestViewNames:
    """A view name is a plain file name without '+', which joins the views
    of a configuration's name."""

    BUILDERS = {
        "synth": lambda name: SynthConfig(view_names=(name, "b", "c")),
        "views": lambda name: ExperimentConfig(output_dir="run", views=("b", name)),
        "csv": lambda name: ExperimentConfig(
            output_dir="run", views=("b",), synth=None, csv_paths={"b": "b.csv", name: "x.csv"}
        ),
        "dataset": lambda name: MultiViewDataset(
            {"b": np.zeros((2, 1)), name: np.zeros((2, 1))}, [0, 1], n_classes=2
        ),
    }

    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize("name", ["", ".", "..", "../escape", "a/b", "a\\b"])
    def test_not_a_plain_file_name(self, builder, name):
        message = f"view name {name!r} is not a plain file name"
        with pytest.raises(ValueError, match=re.escape(message)):
            self.BUILDERS[builder](name)

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_plus_joins_configurations(self, builder):
        with pytest.raises(ValueError, match=re.escape("view name 'a+b' contains '+'")):
            self.BUILDERS[builder]("a+b")

    def test_escaping_name_writes_no_file(self, tmp_path):
        with pytest.raises(ValueError, match="is not a plain file name"):
            cfg = SynthConfig(n_samples=20, view_names=("../escape", "b", "c"))
            write_views_csv(generate_synthetic(cfg, seed=0), tmp_path / "out")
        assert list(tmp_path.iterdir()) == []


class TestViewConfigs:
    def test_order_and_names(self):
        configs = view_config_names(("crown", "north", "south"))
        assert [name for name, _ in configs] == [
            "crown", "north", "south",
            "crown+north", "crown+south", "north+south",
            "crown+north+south",
        ]

    def test_header(self):
        assert grid_header(3) == (
            "method", "view_config", "seed", "qwk", "amae", "accuracy",
            "sens_0", "sens_1", "sens_2", "mae_0", "mae_1", "mae_2",
        )


def tiny_config(tmp_path, **kw):
    defaults = dict(
        output_dir=tmp_path / "run",
        methods=("nominal",),
        views=("crown",),
        n_seeds=1,
        tuning=False,
        synth=SynthConfig(
            n_samples=60,
            n_features_per_view=4,
            class_proportions=(0.25, 0.25, 0.25, 0.25),
        ),
        epochs=30,
        n_candidates=20,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_single_cell_grid(self, tmp_path):
        res = run_experiment(tiny_config(tmp_path))
        assert len(res.rows) == 1
        header, rows = read_grid_csv(res.grid_path)
        assert header == res.header
        assert len(rows) == 1
        assert rows[0][0] == "nominal"
        assert rows[0][1] == "crown"

    def test_28_row_cardinality(self, tmp_path):
        cfg = tiny_config(
            tmp_path,
            methods=("nominal", "clm"),
            views=("crown", "north", "south"),
            n_seeds=2,
        )
        res = run_experiment(cfg)
        assert len(res.rows) == 2 * 7 * 2

    # sha256 of each summary_<metric>.md for the grid of
    # test_28_row_cardinality at 2 seeds and at 1 seed (every std 0): pins
    # each cell's mean +- std and the table's row and column order
    SUMMARY_DIGESTS = {
        1: {
            "qwk": "45c7a80e6c1b7c0271491623896a25f7dd93e6c4958b9ee1b88251a1541071db",
            "amae": "36e4005384a5833f7679d82344d294ad9ad6368e7fe077e32fcd7ca688575bfb",
            "accuracy": "e3b0550890c3feb2acafaee72a71c141b26953a94d62bfe79b774df4d0392f61",
        },
        2: {
            "qwk": "213d2ccc982ca3f04825bf7c23e8b12b84f98ec7ddb04fa855c7ecd6747cf1aa",
            "amae": "a4bd4b55c1545ca04ac4bf0de17737c91b40ca368991a09e8a7d2893e1b17968",
            "accuracy": "e637871a0e0aee46e6c9c7b0683c6e5d122b219f550f5edaa1a68eb948bd53b3",
        },
    }

    @pytest.mark.parametrize("n_seeds", SUMMARY_DIGESTS)
    def test_summaries_pinned(self, tmp_path, n_seeds):
        cfg = tiny_config(
            tmp_path,
            methods=("nominal", "clm"),
            views=("crown", "north", "south"),
            n_seeds=n_seeds,
        )
        res = run_experiment(cfg)
        digests = {
            metric: hashlib.sha256(path.read_bytes()).hexdigest()
            for metric, path in res.summary_paths.items()
        }
        assert digests == self.SUMMARY_DIGESTS[n_seeds]

    def test_rows_written_in_seed_major_order(self, tmp_path):
        cfg = tiny_config(
            tmp_path, methods=("nominal", "clm"), views=("crown", "north"), n_seeds=2
        )
        res = run_experiment(cfg)
        expected = [
            (method, name, seed)
            for seed in range(cfg.n_seeds)
            for method in cfg.methods
            for name, _ in view_config_names(cfg.views)
        ]
        assert [r[:3] for r in res.rows] == expected
        _, rows = read_grid_csv(res.grid_path)
        assert [r[:3] for r in rows] == expected

    # sha256 of grid.csv for a tuning-on run of all 14 methods on two views,
    # one seed and 10 epochs, per backbone: pins the tuned fits, the fused
    # predictions and the grid's formatting byte for byte
    GOLDEN_GRID = {
        "linear": "0c88d087cf6a6628b293ce1f4c3995423cc3ba4f70519669748f1c2770e18950",
        "one_hidden": "2d486f79b9e39580564581c3eaf5a8b2fdfba28dd4fa1b91930cd35d2911d5e6",
    }

    @pytest.mark.parametrize("backbone", GOLDEN_GRID)
    def test_tuned_grid_golden(self, tmp_path, backbone):
        cfg = tiny_config(
            tmp_path, methods=METHODS, views=("crown", "north"), tuning=True,
            epochs=10, folds=2, backbone=backbone,
        )
        res = run_experiment(cfg)
        assert len(res.rows) == len(METHODS) * 3
        digest = hashlib.sha256(res.grid_path.read_bytes()).hexdigest()
        assert digest == self.GOLDEN_GRID[backbone]

    def test_byte_identical_rerun(self, tmp_path):
        cfg_a = tiny_config(tmp_path, output_dir=tmp_path / "a", n_seeds=2)
        cfg_b = tiny_config(tmp_path, output_dir=tmp_path / "b", n_seeds=2)
        ra = run_experiment(cfg_a)
        rb = run_experiment(cfg_b)
        assert ra.grid_path.read_bytes() == rb.grid_path.read_bytes()

    def test_summary_recomputable_from_grid(self, tmp_path):
        cfg = tiny_config(tmp_path, methods=("nominal", "clm"), n_seeds=3)
        res = run_experiment(cfg)
        header, rows = read_grid_csv(res.grid_path)
        qwk_col = header.index("qwk")
        vals = [r[qwk_col] for r in rows if r[0] == "clm"]
        mean = np.mean(vals)
        std = np.std(vals, ddof=1)
        text = res.summary_paths["qwk"].read_text()
        line = [ln for ln in text.splitlines() if ln.startswith("| clm ")][0]
        assert f"{mean:.3f} +- {std:.3f}" in line

    def test_outputs_exist(self, tmp_path):
        res = run_experiment(tiny_config(tmp_path, n_seeds=2))
        assert res.grid_path.exists()
        assert res.config_path.exists()
        for metric in ("qwk", "amae", "accuracy"):
            assert res.summary_paths[metric].exists()
            assert res.stats_paths[metric].exists()

    def test_error_carries_context(self, tmp_path):
        # the per-view training diverges at this learning rate
        cfg = tiny_config(tmp_path, learning_rate=1e308)
        with pytest.raises(ExperimentError, match="method=nominal.*seed=0.*NaN"):
            run_experiment(cfg)

    @pytest.mark.parametrize(
        "option",
        [{"backbone": "cnn"}, {"epochs": 0}, {"batch_size": 0},
         {"learning_rate": -1.0}, {"backbone": "one_hidden", "hidden_width": 0},
         {"learning_rate": math.inf}],
    )
    def test_bad_model_option_fails_before_outputs(self, tmp_path, option):
        with pytest.raises(ValueError):
            run_experiment(tiny_config(tmp_path, **option))
        assert not (tmp_path / "run").exists()

    def test_partial_flush_before_abort(self, tmp_path, monkeypatch):
        import ordview.pipeline as pl

        original = pl._run_seed

        def failing(cfg, train_base, test, configs, seed):
            if seed == 1:
                raise ExperimentError("method=nominal view=crown seed=1: boom")
            return original(cfg, train_base, test, configs, seed)

        monkeypatch.setattr(pl, "_run_seed", failing)
        cfg = tiny_config(tmp_path, methods=("nominal",), n_seeds=2)
        with pytest.raises(ExperimentError, match="seed=1"):
            run_experiment(cfg)
        # seed 0 rows must already be flushed to disk
        header, rows = read_grid_csv(cfg.output_dir / "grid.csv")
        assert len(rows) == 1
        assert rows[0][2] == 0

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_config(tmp_path, methods=("unknown",))
        with pytest.raises(ValueError):
            tiny_config(tmp_path, n_seeds=0)
        with pytest.raises(ValueError):
            ExperimentConfig(output_dir=tmp_path, synth=None, csv_paths=None)
        with pytest.raises(ValueError, match="views not in dataset"):
            run_experiment(tiny_config(tmp_path, views=("crown", "missing")))

    def test_rejects_zero_candidates(self, tmp_path):
        with pytest.raises(ValueError, match="n_candidates must be >= 1"):
            tiny_config(tmp_path, n_candidates=0)

    def test_rejects_one_fold(self, tmp_path):
        with pytest.raises(ValueError, match="folds must be >= 2"):
            tiny_config(tmp_path, folds=1)

    def test_workers_must_be_one(self, tmp_path):
        # seeds run in one serial loop; 1 is the value the benchmark passes
        assert tiny_config(tmp_path, workers=1).workers == 1
        with pytest.raises(ValueError, match="workers must be 1, got 2"):
            tiny_config(tmp_path, workers=2)

    def test_infeasible_validation_split_fails_before_outputs(self, tmp_path):
        # class counts 21/20/20/2: the test split takes one row of class 3,
        # so its validation split would leave that class no fit row
        props = (21 / 63, 20 / 63, 20 / 63, 2 / 63)
        synth = SynthConfig(n_samples=63, n_features_per_view=4, class_proportions=props)
        cfg = tiny_config(tmp_path, synth=synth)
        assert not cfg.tuning
        with pytest.raises(ValueError, match=r"^val_fraction=0\.25: class 3 has 1 samples"):
            run_experiment(cfg)
        assert not (cfg.output_dir / "grid.csv").exists()
        assert not (cfg.output_dir / "config.json").exists()

    def test_infeasible_test_split_names_test_fraction(self, tmp_path):
        # class counts 13/13/13/1: class 3 cannot be split at all
        props = (0.325, 0.325, 0.325, 0.025)
        synth = SynthConfig(n_samples=40, n_features_per_view=4, class_proportions=props)
        cfg = tiny_config(tmp_path, synth=synth)
        with pytest.raises(ValueError, match=r"^test_fraction=0\.2: class 3 has 1 samples"):
            run_experiment(cfg)
        assert not (cfg.output_dir / "grid.csv").exists()
        assert not (cfg.output_dir / "config.json").exists()

    def test_small_class_fails_before_outputs(self, tmp_path):
        cfg = tiny_config(
            tmp_path,
            tuning=True,
            synth=SynthConfig(n_samples=30, n_features_per_view=4),
        )
        with pytest.raises(ValueError, match=r"class \d+ has 2 fit samples .*folds=3"):
            run_experiment(cfg)
        assert not (cfg.output_dir / "grid.csv").exists()
        assert not (cfg.output_dir / "config.json").exists()


class TestFieldTypes:
    """Each config dataclass holds its values to its field annotations."""

    @pytest.mark.parametrize(
        "cls, option, message",
        [
            (ExperimentConfig, {"n_seeds": "ten"}, "n_seeds: expected int, got 'ten'"),
            (SynthConfig, {"n_samples": 3e2}, "n_samples: expected int, got 300.0"),
            (ExperimentConfig, {"test_fraction": (0.2, 0.3)},
             "test_fraction: expected float, got (0.2, 0.3)"),
            (ExperimentConfig, {"epochs": 2.5}, "epochs: expected int, got 2.5"),
            (ExperimentConfig, {"tuning": "maybe"}, "tuning: expected bool, got 'maybe'"),
            (ExperimentConfig, {"batch_size": 8.0}, "batch_size: expected int, got 8.0"),
            (ExperimentConfig, {"n_candidates": 1.5}, "n_candidates: expected int, got 1.5"),
            (ExperimentConfig, {"folds": 2.0}, "folds: expected int, got 2.0"),
            (ExperimentConfig, {"n_seeds": True}, "n_seeds: expected int, got True"),
            (ExperimentConfig, {"learning_rate": False},
             "learning_rate: expected float, got False"),
            (ExperimentConfig, {"methods": "nominal"},
             "methods: expected tuple[str, ...], got 'nominal'"),
            (ExperimentConfig, {"output_dir": 3}, "output_dir: expected Path, got 3"),
            (ExperimentConfig, {"csv_n_classes": 4.0},
             "csv_n_classes: expected int | None, got 4.0"),
            (SynthConfig, {"view_noise": (1.0, "x", 1.0)},
             "view_noise: expected tuple[float, ...], got (1.0, 'x', 1.0)"),
            (ModelConfig, {"n_classes": 4.0}, "n_classes: expected int, got 4.0"),
            (ModelConfig, {"targets": "beta"},
             "targets: expected SoftLabelConfig | SordConfig | None, got 'beta'"),
        ],
    )
    def test_wrong_type_rejected(self, tmp_path, cls, option, message):
        defaults = {
            ExperimentConfig: {"output_dir": tmp_path / "run"},
            SynthConfig: {},
            ModelConfig: {"n_classes": 4},
        }[cls]
        with pytest.raises(ValueError) as info:
            cls(**{**defaults, **option})
        assert str(info.value) == message

    def test_values_stored_as_annotated(self, tmp_path):
        cfg = tiny_config(
            tmp_path, output_dir=str(tmp_path / "run"), methods=["nominal", "clm"],
            n_seeds=np.int64(2), learning_rate=1, test_fraction=np.float32(0.25),
            csv_n_classes=None,
        )
        assert cfg.output_dir == tmp_path / "run" and isinstance(cfg.output_dir, Path)
        assert cfg.methods == ("nominal", "clm")
        assert cfg.n_seeds == 2 and type(cfg.n_seeds) is int
        assert cfg.learning_rate == 1.0 and type(cfg.learning_rate) is float
        assert cfg.test_fraction == 0.25 and type(cfg.test_fraction) is float
        synth = SynthConfig(view_noise=[1, 1, 1])
        assert synth.view_noise == (1.0, 1.0, 1.0)
        assert all(type(s) is float for s in synth.view_noise)


class TestStatsReports:
    def test_anova_section_present(self, tmp_path):
        cfg = tiny_config(
            tmp_path, methods=("nominal", "clm"), views=("crown", "north"),
            n_seeds=3,
        )
        res = run_experiment(cfg)
        text = res.stats_paths["qwk"].read_text()
        assert "| Method |" in text
        assert "| Method:View |" in text
        assert "Tukey HSD over method" in text

    def test_single_cell_skips_gracefully(self, tmp_path):
        res = run_experiment(tiny_config(tmp_path, n_seeds=2))
        text = res.stats_paths["qwk"].read_text()
        assert "ANOVA skipped" in text or "Not enough groups" in text

    def test_shuffled_rows_fill_their_own_cells(self, tmp_path, monkeypatch):
        # rows in random order: every SS of the cube the report hands anova2
        # against sums over explicitly grouped cells, so rows must land in
        # their own (method, view) cell
        rng = np.random.default_rng(4)
        rows = [
            (f"m{a}", f"v{b}", s, float(rng.normal() + 0.5 * a - 0.3 * b * b))
            for a in range(3) for b in range(4) for s in range(3)
        ]
        rows = [rows[i] for i in rng.permutation(len(rows))]
        cubes = []
        monkeypatch.setattr(
            pipeline, "anova2", lambda cube: cubes.append(cube) or stats.anova2(cube)
        )
        header = ("method", "view_config", "seed", "qwk")
        pipeline._write_stats_reports(tmp_path, header, rows, ["qwk"])
        [cube] = cubes
        tbl = stats.anova2(cube)
        methods = np.array([m for m, *_ in rows])
        views = np.array([v for _, v, *_ in rows])
        vals = np.array([val for *_, val in rows])
        grand = vals.mean()
        m_mean = {m: vals[methods == m].mean() for m in set(methods)}
        v_mean = {v: vals[views == v].mean() for v in set(views)}
        cell_mean = {
            (m, v): vals[(methods == m) & (views == v)].mean()
            for m in m_mean
            for v in v_mean
        }
        expected = {
            "method": 12 * sum((x - grand) ** 2 for x in m_mean.values()),
            "view": 9 * sum((x - grand) ** 2 for x in v_mean.values()),
            "interaction": 3 * sum(
                (x - m_mean[m] - v_mean[v] + grand) ** 2
                for (m, v), x in cell_mean.items()
            ),
            "residual": sum((val - cell_mean[(m, v)]) ** 2 for m, v, _, val in rows),
        }
        for name, ss in expected.items():
            assert getattr(tbl, name).ss == pytest.approx(ss, rel=1e-10)

    # the refusals in the order anova2 checks them: levels, balance, replicates
    @pytest.mark.parametrize(
        "cells, message",
        [
            ({("a", "x"): 2, ("a", "y"): 1}, "both factors need at least 2 levels"),
            ({("a", "x"): 2, ("a", "y"): 2, ("b", "x"): 2, ("b", "y"): 1},
             "unbalanced design: unequal cell counts"),
            ({("a", "x"): 1, ("a", "y"): 1, ("b", "x"): 1, ("b", "y"): 2},
             "unbalanced design: unequal cell counts"),
            ({("a", "x"): 1, ("a", "y"): 1, ("b", "x"): 1, ("b", "y"): 1},
             "need at least 2 replicates per cell"),
        ],
        ids=("one-method", "unbalanced", "unbalanced-one-replicate", "one-replicate"),
    )
    def test_incomplete_grid_skips_anova(self, tmp_path, cells, message):
        rows = [
            (m, v, s, 1.0 + s + i)
            for i, ((m, v), n) in enumerate(cells.items())
            for s in range(n)
        ]
        header = ("method", "view_config", "seed", "qwk")
        paths = pipeline._write_stats_reports(tmp_path, header, rows, ["qwk"])
        lines = paths["qwk"].read_text().splitlines()
        assert lines[2] == f"ANOVA skipped: {message}"
        assert "## Tukey HSD over method (alpha=0.05)" in lines
        assert "## Tukey HSD over view_config (alpha=0.05)" in lines
