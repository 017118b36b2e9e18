"""Autoencoder training discipline, scoring, and band calibration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarepred.anomaly import (
    DEFAULT_AUTOENCODER_FEATURES,
    OBJECTIVES,
    Autoencoder,
    ThresholdBand,
    calibrate_band,
    classify_band,
    score_dataset,
    train_autoencoder,
    write_scores,
)
from rarepred.dataset import _BLOCK_ROWS, Dataset, DatasetError, Feature
from rarepred.evaluate import auc
from rarepred.neural import DenseLayer, Network, param_count
from rarepred.rng import generator


def make_ds(values, labels=None, names=None):
    values = np.asarray(values, dtype=np.float64)
    names = names or [f"f{j}" for j in range(values.shape[1])]
    return Dataset(
        features=tuple(Feature(n, "continuous") for n in names),
        values=values,
        labels=labels or {},
    )


def identity_autoencoder(k=2, shift=None):
    """Hand-built net reconstructing x (optionally plus a fixed offset)."""
    bias = np.zeros(k) if shift is None else np.asarray(shift, dtype=np.float64)
    net = Network(layers=[DenseLayer(np.eye(k), bias, "linear")])
    return Autoencoder(
        feature_names=tuple(f"f{j}" for j in range(k)),
        net=net,
        loss="mse",
        activity_l2=0.0,
        seed=0,
        epochs=0,
        batch_size=1,
        lr=0.0,
        n_train_rows=0,
    )


class TestTraining:
    def test_default_architecture(self):
        rng = generator(0)
        ds = make_ds(rng.random((600, 11)), names=list(DEFAULT_AUTOENCODER_FEATURES))
        ae = train_autoencoder(ds, epochs=1, batch_size=128, seed=1)
        widths = [ae.net.layers[0].n_in] + [l.n_out for l in ae.net.layers]
        assert widths == [11, 9, 4, 4, 11]
        assert [l.activation for l in ae.net.layers] == ["tanh", "relu", "tanh", "relu"]
        assert param_count(ae.net) == 223
        assert ae.loss == "cosine_proximity"
        assert ae.activity_l2 == 1e-4

    def test_positive_rows_excluded(self):
        rng = generator(1)
        values = rng.random((100, 3))
        y = np.zeros(100, dtype=np.int64)
        y[:30] = 1
        ds = make_ds(values, labels={"y": y})
        ae = train_autoencoder(ds, label="y", hidden=(2,), activations=("tanh", "linear"), epochs=1)
        assert ae.n_train_rows == 70

    def test_unlabeled_uses_all_rows(self):
        rng = generator(2)
        ds = make_ds(rng.random((50, 3)))
        ae = train_autoencoder(ds, hidden=(2,), activations=("tanh", "linear"), epochs=1)
        assert ae.n_train_rows == 50

    def test_all_positive_rejected(self):
        ds = make_ds(np.random.default_rng(3).random((10, 3)), labels={"y": np.ones(10, dtype=np.int64)})
        with pytest.raises(DatasetError, match="negative"):
            train_autoencoder(ds, label="y", hidden=(2,), activations=("tanh", "linear"))

    def test_bottleneck_must_compress(self):
        ds = make_ds(np.random.default_rng(4).random((20, 3)))
        with pytest.raises(DatasetError, match="bottleneck"):
            train_autoencoder(ds, hidden=(3,), activations=("tanh", "linear"))

    def test_activation_count_validated(self):
        ds = make_ds(np.random.default_rng(5).random((20, 4)))
        with pytest.raises(DatasetError, match="activations"):
            train_autoencoder(ds, hidden=(2,), activations=("tanh",))

    def test_deterministic_in_seed(self):
        rng = generator(6)
        ds = make_ds(rng.random((200, 4)))
        kw = dict(hidden=(2,), activations=("tanh", "relu"), epochs=2, seed=9)
        a = train_autoencoder(ds, **kw)
        b = train_autoencoder(ds, **kw)
        np.testing.assert_array_equal(score_dataset(a, ds), score_dataset(b, ds))

    def test_loss_path_length(self):
        ds = make_ds(generator(7).random((100, 3)))
        ae = train_autoencoder(ds, hidden=(2,), activations=("tanh", "linear"), epochs=5)
        assert len(ae.loss_path) == 5


class TestScoring:
    def test_perfect_reconstruction_scores_zero(self):
        ae = identity_autoencoder()
        ds = make_ds([[1.0, 2.0], [0.0, 0.0]])
        np.testing.assert_array_equal(score_dataset(ae, ds), 0.0)

    def test_error_kind_oracles(self):
        # reconstruction off by 1 in each coordinate: sq errors 2, distance sqrt(2)
        ae = identity_autoencoder(shift=[1.0, 1.0])
        ds = make_ds([[0.0, 0.0]])
        assert score_dataset(ae, ds, "squared_l2")[0] == 2.0
        assert abs(score_dataset(ae, ds, "l2")[0] - math.sqrt(2.0)) < 1e-15

    def test_unknown_kind_rejected(self):
        with pytest.raises(DatasetError, match="kind"):
            score_dataset(identity_autoencoder(), make_ds([[0.0, 0.0]]), "l1")

    def test_row_order_preserved(self):
        ae = identity_autoencoder(shift=[1.0, 0.0])
        base = np.array([[float(i), 0.0] for i in range(6)])
        ds = make_ds(base)
        flipped = ds.subset_rows(np.arange(5, -1, -1))
        np.testing.assert_array_equal(
            score_dataset(ae, ds), score_dataset(ae, flipped)[::-1]
        )

    def test_anomalies_score_higher_end_to_end(self):
        rng = generator(8)
        n_neg, n_pos = 1600, 80
        neg = 0.5 + 0.08 * rng.normal(size=(n_neg, 6))
        pos = 0.5 + 0.08 * rng.normal(size=(n_pos, 6))
        pos[:, :3] += 0.35  # anomalous rows drift in half the coordinates
        values = np.clip(np.vstack([neg, pos]), 0.0, 1.0)
        y = np.concatenate([np.zeros(n_neg, dtype=np.int64), np.ones(n_pos, dtype=np.int64)])
        ds = make_ds(values, labels={"y": y})
        ae = train_autoencoder(
            ds, label="y", hidden=(4, 2, 4), activations=("tanh", "relu", "tanh", "relu"),
            epochs=12, batch_size=128, seed=3,
        )
        scores = score_dataset(ae, ds)
        assert scores[y == 1].mean() > scores[y == 0].mean()
        assert auc(y, scores) > 0.8


class TestBands:
    def test_band_inclusive_edges(self):
        band = ThresholdBand(1.0, 2.0)
        scores = np.array([0.9, 1.0, 1.5, 2.0, 2.1])
        np.testing.assert_array_equal(classify_band(scores, band), [0, 1, 1, 1, 0])

    def test_band_validation(self):
        with pytest.raises(DatasetError):
            ThresholdBand(2.0, 1.0)
        with pytest.raises(DatasetError):
            ThresholdBand(math.nan)

    def test_default_hi_is_open_ended(self):
        band = ThresholdBand(3.0)
        assert band.hi == math.inf
        np.testing.assert_array_equal(
            classify_band(np.array([2.0, 3.0, 1e12]), band), [0, 1, 1]
        )

    def test_calibrate_youden_clean_separation(self):
        scores = np.array([1.0, 2.0, 3.0, 4.0])
        labels = np.array([0, 0, 1, 1])
        band, value = calibrate_band(scores, labels)
        assert value == 1.0
        assert 2.0 < band.lo <= 3.0
        assert band.hi == math.inf

    def test_calibrate_f1(self):
        scores = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        labels = np.array([0, 0, 1, 1, 1])
        band, value = calibrate_band(scores, labels, objective="f1")
        assert value == 1.0
        np.testing.assert_array_equal(classify_band(scores, band), labels)

    def test_tie_breaks_to_lower_threshold(self):
        # every candidate in (1, 2] is optimal; the scan must return the lowest
        scores = np.array([1.0, 2.0, 3.0])
        labels = np.array([0, 1, 1])
        band_a, _ = calibrate_band(scores, labels)
        band_b, _ = calibrate_band(scores, labels)
        assert band_a.lo == band_b.lo
        qs = np.unique(np.quantile(scores, np.linspace(0.0, 1.0, 512)))
        optimal = [q for q in qs if 1.0 < q <= 2.0]
        assert band_a.lo == optimal[0]

    def test_finite_hi_respected(self):
        scores = np.array([1.0, 2.0, 3.0, 12.0])
        labels = np.array([0, 1, 1, 0])  # the extreme score is a negative
        band, value = calibrate_band(scores, labels, hi=11.0)
        assert band.hi == 11.0
        assert value == 1.0
        np.testing.assert_array_equal(classify_band(scores, band), labels)

    def test_single_class_rejected(self):
        with pytest.raises(DatasetError, match="both classes"):
            calibrate_band(np.array([1.0, 2.0]), np.array([1, 1]))

    def test_hi_below_every_candidate_rejected(self):
        scores = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DatasetError, match=r"hi = 0\.5 .* lowest band candidate 1\.0"):
            calibrate_band(scores, np.array([0, 1, 0, 1]), hi=0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scores_rejected(self, bad):
        scores = np.array([1.0, 2.0, bad, 4.0])
        with pytest.raises(DatasetError, match="scores must be finite"):
            calibrate_band(scores, np.array([0, 1, 0, 1]))

    def test_nan_hi_rejected(self):
        with pytest.raises(DatasetError, match="must not be nan"):
            calibrate_band(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0, 1, 0, 1]), hi=math.nan)


def _objective(name: str, y: np.ndarray, preds: np.ndarray) -> float:
    tp = float(np.sum((y == 1) & (preds == 1)))
    fn = float(np.sum((y == 1) & (preds == 0)))
    fp = float(np.sum((y == 0) & (preds == 1)))
    tn = float(np.sum((y == 0) & (preds == 0)))
    if name == "youden":
        return tp / (tp + fn) + tn / (tn + fp) - 1.0
    denom = 2.0 * tp + fp + fn
    return 2.0 * tp / denom if denom > 0 else 0.0


def calibrate_band_loop(scores, labels, objective="youden", hi=math.inf, n_candidates=512):
    """The band calibration that counted every candidate in its own pass over
    the scores, kept verbatim as the oracle for the shared counter."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    qs = np.linspace(0.0, 1.0, n_candidates)
    candidates = np.unique(np.quantile(s, qs))
    best_lo = None
    best_value = -math.inf
    for lo in candidates:
        if lo > hi:
            break
        value = _objective(objective, y, classify_band(s, ThresholdBand(float(lo), hi)))
        if value > best_value:
            best_value = value
            best_lo = float(lo)
    return ThresholdBand(best_lo, hi), float(best_value)


def assert_same_calibration(scores, labels, objective, hi):
    band, value = calibrate_band(scores, labels, objective=objective, hi=hi)
    want_band, want_value = calibrate_band_loop(scores, labels, objective=objective, hi=hi)
    got = np.array([band.lo, band.hi, value]).tobytes()
    assert got == np.array([want_band.lo, want_band.hi, want_value]).tobytes()


class TestCalibrationOracle:
    """calibrate_band against the per-candidate loop it replaced, bit for bit."""

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_single_positive_hi_on_a_score(self, objective):
        scores = np.array([0.5, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 4.0])
        labels = np.array([0, 0, 0, 0, 1, 0, 0, 0])
        for hi in (math.inf, 2.0, 3.0):  # hi equal to a (tied) score
            assert_same_calibration(scores, labels, objective, hi)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        n=st.integers(2, 600),
        rate=st.sampled_from([0.005, 0.02, 0.1, 0.5]),
        decimals=st.integers(0, 2),
        objective=st.sampled_from(OBJECTIVES),
        hi_from=st.sampled_from(["inf", "score", "quantile"]),
    )
    def test_matches_per_candidate_loop(self, seed, n, rate, decimals, objective, hi_from):
        rng = np.random.Generator(np.random.PCG64(seed))
        y = (rng.random(n) < rate).astype(np.int64)
        if y.sum() == 0:
            y[rng.integers(n)] = 1
        if y.sum() == n:
            y[0] = 0
        scores = np.round(rng.gamma(2.0, size=n) + y, decimals)  # rounding forces ties
        hi = {
            "inf": math.inf,
            "score": float(scores[rng.integers(n)]),
            "quantile": float(np.quantile(scores, 0.9)),
        }[hi_from]
        assert_same_calibration(scores, y, objective, hi)


class TestScoreFile:
    def test_layout_and_determinism(self, tmp_path):
        scores = np.array([0.5, 1.25])
        labels = np.array([0, 1])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_scores(str(a), scores, labels)
        write_scores(str(b), scores, labels)
        lines = a.read_text().splitlines()
        assert lines[0] == "row_id,score,label"
        assert lines[1] == "0,0.5,0"
        assert lines[2] == "1,1.25,1"
        assert a.read_bytes() == b.read_bytes()

    def test_unlabeled_blank_column(self, tmp_path):
        path = tmp_path / "s.csv"
        write_scores(str(path), np.array([2.0]))
        assert path.read_text().splitlines()[1] == "0,2.0,"


# The row-wise writer that write_scores replaced, kept verbatim (only renamed)
# as the reference for the block-wise one.
def write_scores_oracle(
    path: str, scores: np.ndarray, labels: np.ndarray | None = None
) -> None:
    """CSV of row_id,score,label in row order (label blank when unknown)."""
    s = np.asarray(scores, dtype=np.float64)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("row_id,score,label\n")
        for i, value in enumerate(s):
            tag = "" if labels is None else str(int(labels[i]))
            fh.write(f"{i},{repr(float(value))},{tag}\n")


class TestScoreFileOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([0, 1, 2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1]),
        seed=st.integers(0, 2 ** 32 - 1),
        label_kind=st.sampled_from([None, "int", "float", "bool", "list"]),
    )
    def test_matches_row_wise_writer(self, tmp_path_factory, n, seed, label_kind):
        tmp = tmp_path_factory.mktemp("scores")
        rng = np.random.Generator(np.random.PCG64(seed))
        scores = rng.normal(size=n) * 10.0 ** rng.integers(-5, 17, size=n)
        special = np.array([-0.0, 0.0, 1e15, -1e15, 2.0, math.inf, -math.inf, math.nan, 5e-324])
        pick = rng.random(n) < 0.2
        scores[pick] = rng.choice(special, size=int(pick.sum()))
        y = rng.integers(0, 2, size=n)
        labels = {
            None: None, "int": y, "float": y.astype(np.float64), "bool": y.astype(bool),
            "list": y.tolist(),
        }[label_kind]
        new, old = tmp / "new.csv", tmp / "old.csv"
        write_scores(str(new), scores, labels)
        write_scores_oracle(str(old), scores, labels)
        assert new.read_bytes() == old.read_bytes()

    def test_misaligned_labels_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="differ in length"):
            write_scores(str(tmp_path / "s.csv"), np.zeros(3), np.zeros(2))
