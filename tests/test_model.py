import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest

from ordview import _kernels as _k
from ordview import model as model_module
from ordview.core import _subseed
from ordview.metrics import amae
from ordview.model import (
    LOSSES,
    METHODS,
    MAX_TUNE_EVALS,
    ModelConfig,
    SearchSpace,
    TrainingDiverged,
    method_config,
    predict_proba_batch,
    search_space,
    stratified_folds,
    train,
    tune,
)
from ordview.softlabel import KIND_FIELDS, SoftLabelConfig, SordConfig

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

# search_space(m).grid of every method in METHODS order, keys in decode order
# (the last key varies fastest). The order decides which candidates tune
# samples, and so decides grid.csv.
LR = ("learning_rate", (0.0001, 0.001, 0.01))
D_MIN = ("d_min", (0.0, 0.5, 1.0))
LAM = ("lam", (0.8, 1.0))
ADJACENT = ("alpha_adjacent", (0.01, 0.05, 0.1))
EXPONENT = ("p_exponent", (1.0, 1.5, 2.0))
CDWCE_ALPHA = ("alpha", (0.25, 0.5, 0.75, 1.0))
SMOOTHING = ("beta", (0.3, 0.5, 0.8, 1.0, 2.0, 3.0, 4.0, 7.0, 10.0, 15.0, 20.0, 25.0))
TRANSFORM = (
    "transform",
    ("max", "norm_max", "norm_log", "log", "norm_division", "division"),
)
PINNED_GRIDS = {
    "nominal": [LR],
    "triangular": [LR, LAM, ADJACENT],
    "beta": [LR, LAM],
    "exponential": [LR, LAM, EXPONENT],
    "cdwce": [LR, CDWCE_ALPHA],
    "sord": [LR, SMOOTHING, TRANSFORM],
    "slace": [LR, SMOOTHING],
    "clm": [LR, D_MIN],
    "clm_triangular": [LR, D_MIN, LAM, ADJACENT],
    "clm_beta": [LR, D_MIN, LAM],
    "clm_exponential": [LR, D_MIN, LAM, EXPONENT],
    "clm_cdwce": [LR, D_MIN, CDWCE_ALPHA],
    "clm_sord": [LR, D_MIN, SMOOTHING, TRANSFORM],
    "clm_slace": [LR, D_MIN, SMOOTHING],
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
        with pytest.raises(ValueError, match="'cdwce' takes no targets"):
            ModelConfig(n_classes=4, loss="cdwce", targets=SordConfig())

    @pytest.mark.parametrize("alpha", (0.0, -1.0, math.nan, math.inf))
    def test_cdwce_alpha_must_be_positive_and_finite(self, alpha):
        # at 0, |j - y|**0 = 1 would weight the true class; below 0 the
        # weight divides by zero there
        with pytest.raises(ValueError, match="cdwce_alpha"):
            ModelConfig(n_classes=4, loss="cdwce", cdwce_alpha=alpha)
        with pytest.raises(ValueError, match="cdwce_alpha"):
            method_config("cdwce", 4, {"alpha": alpha})

    @pytest.mark.parametrize("value", (math.inf, math.nan))
    @pytest.mark.parametrize(
        "cls, fixed, field",
        [(ModelConfig, {"n_classes": 4, "head": "clm"}, "d_min"),
         (SordConfig, {}, "beta"),
         (SoftLabelConfig, {"kind": "exponential"}, "tau"),
         (SoftLabelConfig, {"kind": "beta"}, "concentration")],
        ids=("d_min", "sord-beta", "tau", "concentration"),
    )
    def test_non_finite_hyperparameters_rejected(self, cls, fixed, field, value):
        # each constructed before and failed only in training or in its table
        with pytest.raises(ValueError, match=f"{field} must"):
            cls(**fixed, **{field: value})

    # (loss or soft-label kind, a field it never reads)
    UNREAD = [
        ("cce", "cdwce_alpha"),
        ("slace", "cdwce_alpha"),
        *((kind, field)
          for kind, reads in KIND_FIELDS.items()
          for field in ("alpha_adjacent", "concentration", "tau", "p_exponent")
          if field not in reads),
    ]

    @pytest.mark.parametrize("value", (0.25, math.nan), ids=("finite", "nan"))
    @pytest.mark.parametrize("owner, field", UNREAD)
    def test_unread_hyperparameter_rejected(self, owner, field, value):
        # each constructed before, and its fit or table ignored the value;
        # the default still passes
        if owner in LOSSES:
            ModelConfig(n_classes=4, loss=owner, cdwce_alpha=1.0)
            builds = [lambda: ModelConfig(n_classes=4, loss=owner, cdwce_alpha=value)]
        else:
            default = SoftLabelConfig.__dataclass_fields__[field].default
            SoftLabelConfig(kind=owner, **{field: default})
            builds = [lambda: SoftLabelConfig(kind=owner, **{field: value}),
                      lambda: method_config(owner, 4, {field: value})]
        for build in builds:
            with pytest.raises(ValueError, match=f"does not read {field}$"):
                build()

    def test_slace_beta_checked_at_the_boundary(self):
        with pytest.raises(ValueError, match="beta must be positive"):
            method_config("slace", 4, {"beta": -1.0})

    def test_method_config_builds_kernel_loss_and_targets(self):
        params = {"sord": {"beta": 2.0, "transform": "log"}, "slace": {"beta": 2.0},
                  "beta": {"lam": 0.8}, "cdwce": {"alpha": 0.5}}
        built = {
            family: method_config(family, 4, params.get(family))
            for family in ("nominal", "cdwce", "sord", "slace", "beta")
        }
        assert {f: (c.loss, c.targets) for f, c in built.items()} == {
            "nominal": ("cce", None),
            "cdwce": ("cdwce", None),
            "sord": ("cce", SordConfig(beta=2.0, transform="log")),
            "slace": ("slace", SordConfig(beta=2.0, transform="max")),
            "beta": ("cce", SoftLabelConfig(kind="beta", lam=0.8)),
        }
        assert built["cdwce"].cdwce_alpha == 0.5

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
        assert cfg.targets.beta == params["beta"]
        assert cfg.targets.transform == params["transform"]

    @pytest.mark.parametrize(
        "method, key",
        [("nominal", "learnig_rate"), ("nominal", "d_min"), ("sord", "lam"),
         ("clm_cdwce", "beta")],
    )
    def test_method_config_rejects_unknown_params(self, method, key):
        with pytest.raises(ValueError, match=f"{method!r}.*{key!r}"):
            method_config(method, 4, {key: 0.5})

    def test_method_config_soft_fields(self):
        cfg = method_config("exponential", 4, {"tau": 2.0, "learning_rate": 0.1})
        assert cfg.targets.tau == 2.0 and cfg.learning_rate == 0.1

    @pytest.mark.parametrize(
        "method, key",
        [("nominal", "learning_rate"), ("clm", "d_min"), ("cdwce", "alpha"),
         ("sord", "beta"), ("slace", "beta"), ("beta", "lam")],
    )
    def test_method_config_params_typed_by_field(self, method, key):
        # the config fields coerce an integer and reject text
        assert method_config(method, 4, {key: 1}) == method_config(method, 4, {key: 1.0})
        with pytest.raises(ValueError, match="expected float, got '1'"):
            method_config(method, 4, {key: "1"})


class TestSearchSpace:
    def test_grids_pinned_in_order(self):
        assert METHODS == tuple(PINNED_GRIDS)
        for method, expected in PINNED_GRIDS.items():
            assert list(search_space(method).grid.items()) == expected, method

    def test_at_decodes_last_key_fastest(self):
        space = search_space("clm_sord")
        assert space.at(0) == {"learning_rate": 1e-4, "d_min": 0.0,
                               "beta": 0.3, "transform": "max"}
        assert space.at(1)["transform"] == "norm_max"
        assert space.at(6)["beta"] == 0.5
        assert space.at(space.size - 1) == {"learning_rate": 1e-2, "d_min": 1.0,
                                            "beta": 25.0, "transform": "division"}

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

    @pytest.mark.parametrize("head", ("softmax", "clm"))
    def test_overflow_in_last_update_raises(self, head):
        # one epoch of one batch: the epoch loss, taken before the update,
        # is finite, and only the updated parameters overflow
        rng = np.random.default_rng(0)
        x = 10 * rng.normal(size=(40, 5))
        cfg = ModelConfig(n_classes=3, head=head, epochs=1, batch_size=40,
                          learning_rate=1e308)
        with pytest.raises(TrainingDiverged):
            train(cfg, x, np.arange(40) % 3)

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


KERNEL_LOSSES = {
    "cce": {"loss": "cce"},
    "cdwce": {"loss": "cdwce", "cdwce_alpha": 0.75},
    "slace": {"loss": "slace", "targets": SordConfig(beta=2.0)},
}


def train_digest(loss, head, backbone, n_classes=4, batch_size=8):
    """sha256 of the epoch losses and every parameter array of one small
    fit: 45 rows in batches of 8, so the short final batch runs too (in
    batches of 11, the final batch is a single row)."""
    x, y = blob_dataset(45 // n_classes + 1, n_classes, scale=1.5, seed=3)
    x, y = x[:45], y[:45]
    cfg = ModelConfig(n_classes=n_classes, head=head, backbone=backbone,
                      hidden_width=5, d_min=0.5 if n_classes > 2 else 0.0,
                      learning_rate=0.05,
                      epochs=6, batch_size=batch_size, seed=17, **KERNEL_LOSSES[loss])
    model = train(cfg, x, y)
    h = hashlib.sha256(model.epoch_losses.tobytes())
    for p in (model.w1, model.c1, model.w2, model.c2, model.thresholds):
        h.update(p.tobytes())
    return h.hexdigest()


# Recorded from the kernels before they kept a per-fit workspace (the J = 4
# and J = 2 cases before their per-fit/per-epoch hoisting, too; the CLM
# cases at J = 2, at J = 10 with a hidden layer and in batches of 11 from the
# per-fit workspace kernels): a kernel rewrite must keep every float of every
# path bitwise. A case is named loss-head-link-backbone-J[-b<batch size>];
# every digest was recorded with the logit link, the only one the CLM head
# has.
TRAIN_DIGESTS = {
    "cce-softmax-logit-linear-4":
        "c84304e1747f7d7374404b5ed93f687aa97d4edf72591ba551697e64bb52656c",
    "cce-softmax-logit-one_hidden-4":
        "559f0ee818b8d1aa5001ec73b3e9a6c03cc75954bda36a4c65087bba800f2fbe",
    "cce-clm-logit-linear-4":
        "bed1f054e2c0a75a57186c111f36c05be1d37ef47cae0383f76a29e342b653df",
    "cce-clm-logit-one_hidden-4":
        "3281962e9d31a070fbca0d0cb2f2c740e2defd7593bf0de51ea7f9ae16b5dd15",
    "cdwce-softmax-logit-linear-4":
        "b491950ec0f199477ecad841016f814eaae5e4dbcaa0390180dfe550bf2a905b",
    "cdwce-softmax-logit-one_hidden-4":
        "77373717dab254d77155fa8efbc9f02cf5a99618700b5cba8442442b9e7f22bb",
    "cdwce-clm-logit-linear-4":
        "75fd9c695e70b5015ca681a9f35e4ce25766e11175b11d2f9611567fc9ce536e",
    "cdwce-clm-logit-one_hidden-4":
        "3a4f6bb35dbdcc156062551308ef498184b04a35dd74135e914d5d46eb9c6da4",
    "slace-softmax-logit-linear-4":
        "f00358f8336d53aa2994969fb5ad3d21dc00ae53cfcf7b323c553d009f9ce713",
    "slace-softmax-logit-one_hidden-4":
        "b0a43d8a9a862d2898888c4091e256c2103c41926ceb634651fbaa635eebe88b",
    "slace-clm-logit-linear-4":
        "f587e9c5cf15e046bb6df9eb33eabaee3c3791fff3c329f481962764c9369b5f",
    "slace-clm-logit-one_hidden-4":
        "e8a7c07b63df8958217c02318084300cb641d5eb39491a90fd7470d7ad31faa6",
    "slace-clm-logit-linear-2":
        "b6c908fe4048d8e5a63a4695078e71129a55a7e4f7641216a5d620de015c8050",
    "cdwce-clm-logit-one_hidden-2":
        "7a5c1aa5eb5dae13d18d8713c63fb949adfaa8dfd14c71876d98a536a8303df7",
    # J - 1 >= 8 classes: numpy's pairwise sum changes form at 8 terms
    "slace-clm-logit-linear-10":
        "0dd0933d751a4fbbcbf9ba93951de08fececc2a025368f2a207af878df0b28de",
    "slace-softmax-logit-linear-10":
        "485f6dfb5f108279718271e4cda21cdfa9987c6ac33ef5633f1813e9f0d0290b",
    "cce-softmax-logit-one_hidden-10":
        "f192faa8a4504e9e2f82ef269862d6783f8baeaa40636d2350dc3208aa92a44e",
    "cdwce-clm-logit-one_hidden-10":
        "379a31c0c23603238ac4fa80ed3730f9565560152a283c18a4f515aef4109f8e",
    # batches of 11: the final batch of each epoch is one row
    "cce-softmax-logit-one_hidden-4-b11":
        "4e576c95af829b007cd732d7900dd20b2e9e2d51f1b890e100ac77d3814adcac",
    "slace-clm-logit-linear-4-b11":
        "2998dc7e45db89998b9224be28da15004202fe119e89fe3d0713f982299b565c",
    "cdwce-clm-logit-one_hidden-10-b11":
        "b9992291b3d6c00411f92534fdbb57ccb6932cb16e07fb7002f76f3a03f53505",
}


@pytest.mark.stack_pinned
@pytest.mark.parametrize("case", sorted(TRAIN_DIGESTS))
def test_train_bits_pinned(case):
    loss, head, _, backbone, j, *batch = case.split("-")
    batch_size = int(batch[0][1:]) if batch else 8
    digest = train_digest(loss, head, backbone, int(j), batch_size)
    assert digest == TRAIN_DIGESTS[case]


@pytest.mark.parametrize("loss", sorted(KERNEL_LOSSES))
@pytest.mark.parametrize("head", ("softmax", "clm"))
def test_divergence_has_one_signal(loss, head):
    """A fit that overflows in its first epoch raises TrainingDiverged, and
    no RuntimeWarning escapes the kernels on the way. The features are wide:
    on tight blobs a softmax can saturate to exact one-hot rows, whose
    gradient is exactly zero, and stall with finite weights instead."""
    rng = np.random.default_rng(0)
    x = 10 * rng.normal(size=(40, 5))
    cfg = ModelConfig(n_classes=3, head=head, learning_rate=1e308, epochs=3,
                      batch_size=8, **KERNEL_LOSSES[loss])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TrainingDiverged):
            train(cfg, x, np.arange(40) % 3)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# The epoch TrainingDiverged names (None: the fit stays finite) for each
# (learning rate, batch size), in the order of DIVERGENCE_CASES: 4 epochs of
# 40 wide rows. In batches of 40 an epoch is one step, whose loss is taken
# before its update, so an overflow reads at epoch 1. A loss that masked
# its zero-weight entries could hold a NaN back from the epoch loss by a
# batch or more, so a change to how a loss treats them must keep these.
DIVERGENCE_EPOCHS = {
    (1e308, 8): (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (1e306, 8): (None, 0, None, 0, None, 0, None, 0, None, 0, 1, 0),
    (1e3, 8): (None,) * 12,
    (1e308, 40): (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (1e306, 40): (1, 1, None, 1, 1, 1, None, 1, None, 1, 1, 1),
}
DIVERGENCE_CASES = list(itertools.product(
    sorted(KERNEL_LOSSES), ("softmax", "clm"), ("linear", "one_hidden")
))


@pytest.mark.parametrize(
    "loss, head, backbone, lr, batch_size, epoch",
    [pytest.param(*case, lr, b, epochs[i], id="-".join(case) + f"-{lr:g}-b{b}")
     for (lr, b), epochs in DIVERGENCE_EPOCHS.items()
     for i, case in enumerate(DIVERGENCE_CASES)],
)
def test_divergence_epoch_pinned(loss, head, backbone, lr, batch_size, epoch):
    rng = np.random.default_rng(0)
    x = 10 * rng.normal(size=(40, 5))
    cfg = ModelConfig(n_classes=3, head=head, backbone=backbone, hidden_width=5,
                      learning_rate=lr, epochs=4, batch_size=batch_size,
                      **KERNEL_LOSSES[loss])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            train(cfg, x, np.arange(40) % 3)
            got = None
        except TrainingDiverged as err:
            got = err.epoch
    assert got == epoch
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def saturated_fit():
    """A softmax fit that saturates to exact one-hot rows: the clamped
    gradient is exactly zero, so its epoch losses stay finite while its
    weights stop near the float limit."""
    x, y = blob_dataset(12, 3, scale=2.0)
    cfg = ModelConfig(n_classes=3, loss="slace", targets=SordConfig(beta=2.0),
                      learning_rate=1e308, epochs=3, batch_size=8)
    return train(cfg, x, y), x, y


def test_saturated_fit_fails_prediction_loudly():
    model, x, _ = saturated_fit()
    assert np.abs(model.w2).max() > 1e307
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert np.isfinite(predict_proba_batch(model, x)).all()
        with pytest.raises(TrainingDiverged, match="in 33 of 36 rows"):
            predict_proba_batch(model, 100 * x)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_tune_scores_an_overflowing_fold_as_diverged():
    """Fold 1 holds rows 100x wider. The fit on fold 0 saturates with finite
    weights and overflows on fold 1, the fit on fold 1 diverges in training:
    both folds score J - 1. (Scored from the NaN rows instead, the candidate
    read 1.56.)"""
    x, y = blob_dataset(12, 3, scale=2.0)
    x[stratified_folds(y, 2, seed=6) == 1] *= 100
    grid = {"learning_rate": (1e308,), "beta": (2.0,)}
    space = SearchSpace(method="slace", grid=grid)
    trace = []
    tune(space, x, y, n_classes=3, seed=6, folds=2, trace=trace, epochs=3,
         batch_size=8)
    assert trace[0]["amae"] == 2.0


# (epochs, epochs per loss block, batch size) of 45-row fits: a last block
# shorter than the others, blocks of one epoch, and a final batch of one row
# (45 = 4 x 11 + 1) across blocks of two epochs
LOSS_BLOCK_CASES = ((7, 3, 8), (4, 1, 8), (5, 2, 11))


@pytest.mark.parametrize("epochs, block, batch_size", LOSS_BLOCK_CASES)
@pytest.mark.parametrize("head", ("softmax", "clm"))
@pytest.mark.parametrize("loss", sorted(KERNEL_LOSSES))
def test_blocked_epoch_losses_equal_per_step_loss_sums(
    loss, head, epochs, block, batch_size, monkeypatch
):
    """run_sgd takes its epoch losses in blocks of epochs, after the steps.
    With the budget cut to ``block`` epochs, each epoch loss must equal,
    bit for bit, the sum of ``loss_batch`` over that epoch's steps in visit
    order, divided by n, and the fit must equal the one-block fit."""
    x, y = blob_dataset(12, 4, scale=1.5, seed=3)
    x, y = x[:45], y[:45]
    cfg = ModelConfig(n_classes=4, head=head, backbone="one_hidden",
                      hidden_width=5, d_min=0.5, learning_rate=0.05,
                      epochs=epochs, batch_size=batch_size, seed=17,
                      **KERNEL_LOSSES[loss])
    one_block = train(cfg, x, y)

    rows = _k.loss_rows(model_module._target_rows(cfg)[y], y, cfg.loss, cfg.cdwce_alpha)
    monkeypatch.setattr(_k, "_LOSS_BUDGET", 2 * rows.size * block)
    steps, blocks = [], []
    loss_grad, batch_losses = _k.loss_grad, _k.batch_losses

    def recording_loss_grad(probs, rows_b, loss_name, clamped):
        steps.append((probs.copy(), rows_b.copy()))
        return loss_grad(probs, rows_b, loss_name, clamped)

    def counting_batch_losses(*args):
        blocks.append(args[0].shape[-2] // 45)
        return batch_losses(*args)

    monkeypatch.setattr(_k, "loss_grad", recording_loss_grad)
    monkeypatch.setattr(_k, "batch_losses", counting_batch_losses)
    blocked = train(cfg, x, y)
    monkeypatch.undo()

    assert blocks == [block] * (epochs // block) + [epochs % block] * (epochs % block > 0)
    per_epoch = -(-45 // batch_size)
    assert len(steps) == epochs * per_epoch
    want = []
    for e in range(epochs):
        running = 0.0
        for probs, rows_b in steps[e * per_epoch:(e + 1) * per_epoch]:
            running += _k.loss_batch(probs, rows_b, cfg.loss)[0]
        want.append(running / 45)
    assert blocked.epoch_losses.tobytes() == np.array(want).tobytes()
    for name in ("epoch_losses", "w1", "c1", "w2", "c2", "thresholds"):
        assert getattr(blocked, name).tobytes() == getattr(one_block, name).tobytes()


@pytest.mark.parametrize("head", ("softmax", "clm"))
def test_trained_arrays_are_read_only_and_own_their_memory(head, monkeypatch):
    """run_sgd steps views of one packed buffer (and writes gradients into
    views of another); a TrainedModel must keep none of them."""
    workspaces = []
    pack = _k._pack

    def recording_pack(arrays):
        buf, views = pack(arrays)
        workspaces.append(buf)
        return buf, views

    monkeypatch.setattr(_k, "_pack", recording_pack)
    x, y = blob_dataset(10, 4)
    cfg = ModelConfig(n_classes=4, head=head, backbone="one_hidden",
                      hidden_width=5, epochs=3, batch_size=8)
    model = train(cfg, x, y)
    assert workspaces
    params = [model.w1, model.c1, model.w2, model.c2, model.thresholds]
    for p in params:
        assert not p.flags.writeable
        assert not any(np.shares_memory(p, w) for w in workspaces)
    for a, b in itertools.combinations(params, 2):
        assert not np.shares_memory(a, b)


class TestPredict:
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
            predict_proba_batch(model, np.zeros((1, x.shape[1] + 1)))


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

    def test_non_integer_labels_rejected(self):
        with pytest.raises(ValueError, match="labels must be integers"):
            stratified_folds([0.5, 0.7, 1.2, 1.9, 0.1, 1.0], 2, seed=0)

    def test_integer_valued_floats_fold_as_ints(self):
        y = np.repeat(np.arange(3), 10)
        assert np.array_equal(
            stratified_folds(y.astype(float), 3, seed=5), stratified_folds(y, 3, seed=5)
        )


class TestTune:
    def test_exhaustive_small_space(self):
        x, y = blob_dataset(12, 3)
        trace = []
        params = tune(search_space("nominal"), x, y, n_classes=3, seed=0,
                      trace=trace)
        assert len(trace) == 3
        assert params == min(trace, key=lambda t: t["amae"])["params"]

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
        params = tune(space, x, y, n_classes=2, seed=0, trace=trace)
        assert params == {"learning_rate": 1e-2}
        diverged = [t for t in trace if t["params"]["learning_rate"] == 1e308]
        assert diverged[0]["amae"] == pytest.approx(1.0)  # worst AMAE for J=2

    def test_deterministic(self):
        x, y = blob_dataset(12, 3)
        a = tune(search_space("cdwce"), x, y, n_classes=3, seed=4)
        b = tune(search_space("cdwce"), x, y, n_classes=3, seed=4)
        assert a == b


def candidate_major_tune(space, x, y, n_classes, seed, trace, folds=3, **base):
    """The reference order of ``tune``'s fits: every fold of one candidate,
    then the next candidate; appends each candidate's score to ``trace``."""
    rng = np.random.default_rng(seed)
    if space.size <= MAX_TUNE_EVALS:
        candidate_indices = np.arange(space.size)
    else:
        candidate_indices = rng.choice(space.size, size=MAX_TUNE_EVALS, replace=False)
    fold_of = stratified_folds(y, folds, seed)
    best_params, best_score = {}, math.inf
    for ci in candidate_indices:
        params = space.at(int(ci))
        scores = []
        for f in range(folds):
            fit = fold_of != f
            cfg = method_config(space.method, n_classes, params,
                                seed=_subseed(seed, f), **base)
            try:
                model = train(cfg, x[fit], y[fit])
                preds = np.argmax(predict_proba_batch(model, x[~fit]), axis=1)
                scores.append(amae(y[~fit], preds, n_classes))
            except TrainingDiverged:
                scores.append(float(n_classes - 1))
        score = float(np.mean(scores))
        trace.append({"params": params, "amae": score})
        if score < best_score:
            best_score, best_params = score, params
    return best_params


class TestFoldMajorTune:
    @pytest.mark.parametrize(
        "method, folds, backbone",
        [("nominal", 3, "linear"), ("clm_slace", 3, "linear"),
         ("cdwce", 2, "one_hidden"), ("clm_sord", 4, "linear")],
    )
    def test_matches_candidate_major_loop_with_one_train_per_fit(
        self, method, folds, backbone, monkeypatch
    ):
        x, y = blob_dataset(12, 3, scale=1.0)
        space = search_space(method)
        base = dict(epochs=10, batch_size=4, backbone=backbone, hidden_width=4)
        want_trace = []
        want = candidate_major_tune(space, x, y, 3, seed=2, folds=folds,
                                    trace=want_trace, **base)
        calls = []
        counted = model_module.train

        def counting_train(cfg, *args):
            calls.append(cfg)
            return counted(cfg, *args)

        monkeypatch.setattr(model_module, "train", counting_train)
        trace = []
        got = tune(space, x, y, 3, seed=2, folds=folds, trace=trace, **base)
        assert len(calls) == folds * min(space.size, MAX_TUNE_EVALS)
        assert got == want
        assert trace == want_trace

    def test_diverged_folds_score_as_in_candidate_major_loop(self):
        x, y = blob_dataset(12, 2, scale=2.0)
        space = SearchSpace(method="nominal",
                            grid={"learning_rate": (1e308, 1e-2, 1e306)})
        want_trace, trace = [], []
        want = candidate_major_tune(space, x, y, 2, seed=0, trace=want_trace)
        assert tune(space, x, y, 2, seed=0, trace=trace) == want
        assert trace == want_trace


class TestDrawMemo:
    def test_draws_are_read_only(self):
        model_module._draws.cache_clear()
        for backbone in ("linear", "one_hidden"):
            arrays = model_module._draws(5, backbone, 4, 3, 2, 10, 6)
            for a in arrays:
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[(0,) * a.ndim] = 1

    @pytest.mark.parametrize("n, dtype", [(256, np.uint8), (257, np.uint16)])
    def test_shuffles_are_kept_narrow_and_permute_as_int64(self, n, dtype):
        """The memo holds the shuffles past the fit, so they take the
        narrowest unsigned type; the rows are the permutations that int64
        rows would get from the same generator."""
        *_, shuffles = model_module._draws(5, "linear", 4, 3, 2, n, 4)
        wide = np.tile(np.arange(n), (4, 1))
        rng = np.random.default_rng(5)
        rng.normal(size=(3, 2))
        rng.permuted(wide, axis=1, out=wide)
        assert shuffles.dtype == dtype
        assert np.array_equal(shuffles, wide)

    @pytest.mark.parametrize("head", ("softmax", "clm"))
    @pytest.mark.parametrize("backbone", ("linear", "one_hidden"))
    def test_a_fit_after_another_fit_is_bitwise_a_fresh_fit(self, head, backbone):
        """Fits A and B share a seed and shapes, so B's draws come from the
        memo that A filled; A's training must have left them untouched."""
        x, y = blob_dataset(12, 3)
        base = dict(n_classes=3, head=head, backbone=backbone, hidden_width=5,
                    epochs=5, batch_size=8, seed=9)
        cfg_a = ModelConfig(loss="cce", learning_rate=0.5, **base)
        cfg_b = ModelConfig(loss="slace", targets=SordConfig(), learning_rate=0.05,
                            **base)
        model_module._draws.cache_clear()
        train(cfg_a, x, y)
        after_a = train(cfg_b, x, y)
        assert model_module._draws.cache_info().hits == 1
        model_module._draws.cache_clear()
        fresh = train(cfg_b, x, y)
        for name in ("epoch_losses", "w1", "c1", "w2", "c2", "thresholds"):
            assert getattr(after_a, name).tobytes() == getattr(fresh, name).tobytes()


@pytest.mark.parametrize("call", ("train", "tune"))
def test_non_integer_labels_rejected(call):
    # a cast to int64 would truncate 0.5 to class 0 and train on it
    x, y = blob_dataset(10, 3)
    y = y.astype(np.float64)
    y[4] = 0.5
    with pytest.raises(ValueError, match="labels must be integers"):
        if call == "train":
            train(method_config("nominal", 3, None, seed=0), x, y)
        else:
            tune(search_space("nominal"), x, y, 3, seed=0, epochs=2)
