import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordview.core import (
    MultiViewDataset,
    apportion_counts,
    class_counts,
    confusion_matrix,
    split_counts,
    stratified_resample,
    stratified_split,
)


def make_dataset(counts, n_features=3, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(len(counts)), counts)
    views = {
        "a": rng.normal(size=(labels.size, n_features)),
        "b": rng.normal(size=(labels.size, n_features)),
    }
    return MultiViewDataset(views=views, labels=labels, n_classes=len(counts))


class TestConfusion:
    def test_counts(self):
        y_true = np.array([0, 0, 1, 1, 1])
        y_pred = np.array([0, 1, 1, 1, 0])
        cm = confusion_matrix(y_true, y_pred, 2)
        assert cm.tolist() == [[1, 1], [1, 2]]

    def test_class_counts(self):
        assert class_counts(np.array([0, 2, 2]), 4).tolist() == [1, 0, 2, 0]


class TestApportion:
    def test_exact_totals(self):
        counts = apportion_counts(np.array([29.5, 29.5, 41.0]), 100)
        assert counts.sum() == 100

    def test_paper_proportions(self):
        props = np.array([0.1356, 0.3458, 0.3593, 0.1593])
        counts = apportion_counts(props * 295, 295)
        assert counts.tolist() == [40, 102, 106, 47]

    def test_tie_goes_to_smaller_class(self):
        # equal remainders: the smaller quota wins the leftover unit
        counts = apportion_counts(np.array([1.5, 2.5]), 4)
        assert counts.tolist() == [2, 2]


class TestStratifiedSplit:
    def test_reference_counts(self):
        data = make_dataset([40, 102, 106, 47])
        train, test = stratified_split(data, 0.2, seed=0)
        assert train.counts().tolist() == [32, 82, 85, 37]
        assert test.counts().tolist() == [8, 20, 21, 10]

    def test_disjoint_exhaustive(self):
        data = make_dataset([12, 15, 9])
        train, test = stratified_split(data, 0.25, seed=3)
        assert train.n_samples + test.n_samples == data.n_samples
        # reconstruct membership through feature rows
        seen = np.vstack([train.views["a"], test.views["a"]])
        assert np.unique(seen, axis=0).shape[0] == data.n_samples

    def test_deterministic(self):
        data = make_dataset([12, 15, 9])
        a = stratified_split(data, 0.25, seed=7)
        b = stratified_split(data, 0.25, seed=7)
        assert np.array_equal(a[0].labels, b[0].labels)
        assert np.array_equal(a[1].views["b"], b[1].views["b"])

    def test_seed_changes_partition(self):
        data = make_dataset([12, 15, 9])
        a = stratified_split(data, 0.25, seed=0)
        b = stratified_split(data, 0.25, seed=1)
        assert not np.array_equal(a[1].views["a"], b[1].views["a"])

    def test_tiny_class_rejected(self):
        data = make_dataset([1, 15, 9])
        with pytest.raises(ValueError):
            stratified_split(data, 0.2, seed=0)


class TestSplitCounts:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(1, 40), min_size=2, max_size=6),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_matches_stratified_split(self, counts, fraction):
        data = make_dataset(counts, n_features=1)
        try:
            _, test = stratified_split(data, fraction, seed=0)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                split_counts(counts, fraction)
        else:
            assert split_counts(counts, fraction).tolist() == test.counts().tolist()

    def test_names_first_infeasible_class(self):
        with pytest.raises(ValueError, match="class 1 has 1 samples"):
            split_counts([5, 1, 0], 0.5)
        with pytest.raises(ValueError, match="holding out 0.75 leaves class 1 no"):
            split_counts([9, 2, 2], 0.75)


class TestStratifiedResample:
    def test_preserves_label_vector(self):
        data = make_dataset([12, 15, 9])
        boot = stratified_resample(data, seed=5)
        assert np.array_equal(boot.labels, data.labels)
        assert boot.counts().tolist() == data.counts().tolist()

    def test_rows_come_from_same_class(self):
        data = make_dataset([12, 15, 9])
        boot = stratified_resample(data, seed=5)
        # every resampled row must exist among original rows of its class
        for q in range(data.n_classes):
            orig = data.views["a"][data.labels == q]
            drawn = boot.views["a"][boot.labels == q]
            for row in drawn:
                assert any(np.array_equal(row, o) for o in orig)

    def test_usually_duplicates(self):
        data = make_dataset([12, 15, 9])
        boot = stratified_resample(data, seed=5)
        n_unique = np.unique(boot.views["a"], axis=0).shape[0]
        assert n_unique < data.n_samples

    def test_views_stay_aligned(self):
        # the same per-class index draw must apply to every view
        counts = [8, 9]
        labels = np.repeat(np.arange(2), counts)
        base = np.arange(labels.size, dtype=np.float64)
        data = MultiViewDataset(
            views={"a": base[:, None], "b": 10.0 * base[:, None]},
            labels=labels,
            n_classes=2,
        )
        boot = stratified_resample(data, seed=2)
        assert np.allclose(boot.views["b"], 10.0 * boot.views["a"])


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            MultiViewDataset(
                views={"a": np.zeros((3, 2))},
                labels=np.array([0, 1, 5]),
                n_classes=3,
            )

    def test_subset(self):
        data = make_dataset([5, 5])
        sub = data.subset(np.array([0, 5, 9]))
        assert sub.n_samples == 3
        assert sub.labels.tolist() == [0, 1, 1]

    def test_read_only(self):
        data = make_dataset([5, 5])
        with pytest.raises(ValueError):
            data.labels[0] = 3
        with pytest.raises(ValueError):
            data.views["a"][0, 0] = 1.0
