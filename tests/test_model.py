import numpy as np
import pytest

from ordview.model import (
    METHODS,
    MAX_TUNE_EVALS,
    ModelConfig,
    TrainingDiverged,
    method_config,
    predict_proba,
    predict_proba_batch,
    search_space,
    stratified_folds,
    train,
    tune,
)

EXPECTED_GRID_SIZES = {
    "nominal": 3,
    "triangular": 18,
    "beta": 6,
    "exponential": 18,
    "cdwce": 12,
    "sord": 216,
    "slace": 36,
    "clm": 9,
    "clm_triangular": 54,
    "clm_beta": 18,
    "clm_exponential": 54,
    "clm_cdwce": 36,
    "clm_sord": 648,
    "clm_slace": 108,
}


def blob_dataset(n_per_class, n_classes, n_features=4, scale=4.0, seed=0):
    rng = np.random.default_rng(seed)
    x = []
    y = []
    for q in range(n_classes):
        center = np.zeros(n_features)
        center[0] = scale * q
        x.append(rng.normal(size=(n_per_class, n_features)) * 0.3 + center)
        y.append(np.full(n_per_class, q))
    return np.vstack(x), np.concatenate(y).astype(np.int64)


class TestConfig:
    def test_methods_registry(self):
        assert len(METHODS) == 14
        assert set(EXPECTED_GRID_SIZES) == set(METHODS)

    def test_grid_sizes(self):
        for method, expected in EXPECTED_GRID_SIZES.items():
            assert search_space(method).size == expected, method

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(n_classes=1)
        with pytest.raises(ValueError):
            ModelConfig(n_classes=4, epochs=0)
        with pytest.raises(ValueError):
            ModelConfig(n_classes=4, loss="hinge")
        with pytest.raises(ValueError):
            ModelConfig(n_classes=4, head="argmax")

    def test_method_config_covers_all(self):
        for method in METHODS:
            cfg = method_config(method, 4, None, seed=3)
            assert cfg.n_classes == 4
            assert cfg.seed == 3
            if method.startswith("clm"):
                assert cfg.head == "clm"
            else:
                assert cfg.head == "softmax"

    def test_method_config_applies_params(self):
        space = search_space("clm_sord")
        params = space.at(5)
        cfg = method_config("clm_sord", 4, params)
        assert cfg.learning_rate == params["learning_rate"]
        assert cfg.d_min == params["d_min"]
        assert cfg.sord.beta == params["beta"]
        assert cfg.sord.transform == params["transform"]


class TestSearchSpace:
    def test_at_enumerates_distinct_configs(self):
        space = search_space("triangular")
        seen = {tuple(sorted(space.at(i).items())) for i in range(space.size)}
        assert len(seen) == space.size

    def test_at_out_of_range(self):
        space = search_space("nominal")
        with pytest.raises(IndexError):
            space.at(space.size)


class TestTrain:
    def test_separable_toy_high_accuracy(self):
        x, y = blob_dataset(40, 2)
        model = train(method_config("nominal", 2, None, seed=0), x, y)
        preds = np.argmax(predict_proba_batch(model, x), axis=1)
        assert (preds == y).mean() >= 0.95

    def test_all_methods_learn_separable_data(self):
        x, y = blob_dataset(25, 4)
        for method in METHODS:
            cfg = method_config(method, 4, None, seed=0, epochs=300,
                                learning_rate=5e-2)
            model = train(cfg, x, y)
            preds = np.argmax(predict_proba_batch(model, x), axis=1)
            assert (preds == y).mean() >= 0.7, method

    def test_deterministic(self):
        x, y = blob_dataset(20, 3)
        cfg = method_config("clm_slace", 3, None, seed=11)
        m1 = train(cfg, x, y)
        m2 = train(cfg, x, y)
        assert np.array_equal(m1.w1, m2.w1)
        assert np.array_equal(m1.epoch_losses, m2.epoch_losses)

    def test_seed_matters(self):
        x, y = blob_dataset(20, 3)
        m1 = train(method_config("nominal", 3, None, seed=0), x, y)
        m2 = train(method_config("nominal", 3, None, seed=1), x, y)
        assert not np.array_equal(m1.w2, m2.w2)

    def test_loss_decreases_on_separable_toy(self):
        x, y = blob_dataset(40, 2)
        cfg = method_config("nominal", 2, None, seed=0, learning_rate=1e-3)
        model = train(cfg, x, y)
        assert model.epoch_losses[-1] < model.epoch_losses[0]

    def test_training_log_monotone(self):
        x, y = blob_dataset(15, 3)
        model = train(method_config("sord", 3, None, seed=2), x, y)
        log = model.training_log
        assert np.all(np.diff(log) <= 0)
        assert log.size == model.epoch_losses.size > 0

    def test_hidden_backbone(self):
        x, y = blob_dataset(30, 3)
        cfg = method_config("clm", 3, None, seed=0, backbone="one_hidden",
                            hidden_width=8)
        model = train(cfg, x, y)
        preds = np.argmax(predict_proba_batch(model, x), axis=1)
        assert (preds == y).mean() >= 0.7

    def test_divergence_raises(self):
        x, y = blob_dataset(20, 2, scale=2.0)
        cfg = method_config("nominal", 2, None, seed=0, learning_rate=1e308)
        with pytest.raises(TrainingDiverged):
            train(cfg, x, y)

    def test_degenerate_single_class_fit(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 3))
        y = np.zeros(30, dtype=np.int64)
        model = train(method_config("nominal", 3, None, seed=0), x, y)
        preds = np.argmax(predict_proba_batch(model, x), axis=1)
        assert np.all(preds == 0)

    def test_empty_rejected(self):
        cfg = method_config("nominal", 3, None)
        with pytest.raises(ValueError):
            train(cfg, np.zeros((0, 2)), np.zeros(0, dtype=np.int64))


class TestPredict:
    def test_single_sample_matches_batch(self):
        x, y = blob_dataset(20, 3)
        model = train(method_config("clm", 3, None, seed=0), x, y)
        batch = predict_proba_batch(model, x[:5])
        for i in range(5):
            single = predict_proba(model, x[i])
            assert np.allclose(single, batch[i], atol=1e-12)

    def test_rows_are_distributions(self):
        x, y = blob_dataset(20, 4)
        for method in ("nominal", "clm_beta"):
            model = train(method_config(method, 4, None, seed=0), x, y)
            probs = predict_proba_batch(model, x)
            assert np.all(probs >= 0)
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_feature_width_checked(self):
        x, y = blob_dataset(10, 2)
        model = train(method_config("nominal", 2, None, seed=0), x, y)
        with pytest.raises(ValueError):
            predict_proba(model, np.zeros(x.shape[1] + 1))


@pytest.mark.parametrize("entry", (np.nan, np.inf))
@pytest.mark.parametrize("call", ("train", "predict_proba_batch"))
def test_non_finite_features_rejected(entry, call):
    x, y = blob_dataset(10, 2)
    cfg = method_config("nominal", 2, None, seed=0)
    model = train(cfg, x, y)
    x[3, 1] = entry
    with pytest.raises(ValueError, match="NaN or infinite"):
        if call == "train":
            train(cfg, x, y)
        else:
            predict_proba_batch(model, x)


class TestFolds:
    def test_partition(self):
        y = np.repeat(np.arange(3), 12)
        folds = stratified_folds(y, 3, seed=0)
        assert folds.shape == y.shape
        assert set(folds.tolist()) == {0, 1, 2}
        for q in range(3):
            counts = np.bincount(folds[y == q], minlength=3)
            assert counts.tolist() == [4, 4, 4]

    def test_deterministic(self):
        y = np.repeat(np.arange(3), 10)
        assert np.array_equal(
            stratified_folds(y, 3, seed=5), stratified_folds(y, 3, seed=5)
        )


class TestTune:
    def test_exhaustive_small_space(self):
        x, y = blob_dataset(12, 3)
        trace = []
        cfg = tune(search_space("nominal"), x, y, n_classes=3, seed=0,
                   trace=trace)
        assert len(trace) == 3
        assert cfg.loss == "cce"

    def test_sampled_large_space(self):
        x, y = blob_dataset(12, 3)
        trace = []
        tune(search_space("clm_sord"), x, y, n_classes=3, seed=0, trace=trace)
        assert len(trace) == MAX_TUNE_EVALS
        seen = {tuple(sorted(t["params"].items())) for t in trace}
        assert len(seen) == MAX_TUNE_EVALS

    def test_divergent_candidate_loses(self):
        x, y = blob_dataset(12, 2, scale=2.0)
        from ordview.model import SearchSpace
        space = SearchSpace(
            method="nominal", grid={"learning_rate": (1e308, 1e-2)}
        )
        trace = []
        cfg = tune(space, x, y, n_classes=2, seed=0, trace=trace)
        assert cfg.learning_rate == 1e-2
        diverged = [t for t in trace if t["params"]["learning_rate"] == 1e308]
        assert diverged[0]["amae"] == pytest.approx(1.0)  # worst AMAE for J=2

    def test_deterministic(self):
        x, y = blob_dataset(12, 3)
        a = tune(search_space("cdwce"), x, y, n_classes=3, seed=4)
        b = tune(search_space("cdwce"), x, y, n_classes=3, seed=4)
        assert a == b
