"""Scaler fit/apply/invert, conditional summaries."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import invert_scaler
from rarepred.dataset import Dataset, DatasetError, Feature
from rarepred.preprocess import (
    apply_scaler,
    conditional_summary,
    fit_scaler,
    write_conditional_summary,
)


def make_ds(values, kinds=None, labels=None):
    values = np.asarray(values, dtype=np.float64)
    kinds = kinds or ["continuous"] * values.shape[1]
    features = tuple(
        Feature(f"f{j}", kind) if kind != "categorical" else Feature(f"f{j}", kind, ("a", "b", "c"))
        for j, kind in enumerate(kinds)
    )
    return Dataset(features=features, values=values, labels=labels or {})


class TestScaler:
    def test_standardize_oracle(self):
        # hand value: [1,2,3] has mean 2, sd 1 (n-1), so output is [-1,0,1]
        ds = make_ds([[1.0], [2.0], [3.0]])
        params = fit_scaler(ds, "standardize")
        out = apply_scaler(ds, params)
        np.testing.assert_allclose(out.values[:, 0], [-1.0, 0.0, 1.0])

    def test_minmax_oracle(self):
        ds = make_ds([[2.0], [4.0], [6.0]])
        out = apply_scaler(ds, fit_scaler(ds, "minmax"))
        np.testing.assert_allclose(out.values[:, 0], [0.0, 0.5, 1.0])

    def test_meannorm_oracle(self):
        # mean 4, range 4: [-0.5, 0, 0.5]
        ds = make_ds([[2.0], [4.0], [6.0]])
        out = apply_scaler(ds, fit_scaler(ds, "meannorm"))
        np.testing.assert_allclose(out.values[:, 0], [-0.5, 0.0, 0.5])

    def test_constant_column_flagged_to_zero(self):
        ds = make_ds([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        for method in ("standardize", "minmax", "meannorm"):
            params = fit_scaler(ds, method)
            assert params.constant[0] and not params.constant[1]
            out = apply_scaler(ds, params)
            np.testing.assert_array_equal(out.values[:, 0], 0.0)

    @pytest.mark.parametrize("method", ["standardize", "minmax", "meannorm"])
    def test_constant_column_is_zero_on_new_data(self, method):
        params = fit_scaler(make_ds([[5.0, 1.0], [5.0, 3.0]]), method)
        out = apply_scaler(make_ds([[7.0, 2.0], [-1.0, 5.0]]), params)
        assert out.values[:, 0].tolist() == [0.0, 0.0]

    def test_constant_column_inverts_to_center(self):
        ds = make_ds([[5.0], [5.0], [5.0]])
        for method in ("standardize", "minmax", "meannorm"):
            params = fit_scaler(ds, method)
            back = invert_scaler(apply_scaler(ds, params), params)
            np.testing.assert_allclose(back.values[:, 0], 5.0)

    def test_train_only_statistics(self):
        train = make_ds([[0.0], [10.0]])
        test = make_ds([[100.0]])
        params = fit_scaler(train, "minmax")
        out = apply_scaler(test, params)
        # test value far outside the fitted range maps past 1, not to 1
        assert out.values[0, 0] == 10.0

    def test_unknown_method_rejected(self):
        ds = make_ds([[1.0], [2.0]])
        with pytest.raises(DatasetError, match="method"):
            fit_scaler(ds, "zscore")

    def test_default_targets_continuous_only(self):
        ds = make_ds([[1.0, 1.0], [3.0, 0.0]], kinds=["continuous", "binary"])
        params = fit_scaler(ds, "standardize")
        assert params.feature_names == ("f0",)
        out = apply_scaler(ds, params)
        np.testing.assert_array_equal(out.values[:, 1], ds.values[:, 1])

    @pytest.mark.parametrize("rows", [1, 3])
    def test_no_continuous_feature_gives_the_identity(self, rows):
        ds = make_ds([[1.0, 2.0], [0.0, 0.0], [1.0, 1.0]][:rows],
                     kinds=["binary", "categorical"])
        for method in ("standardize", "minmax", "meannorm"):
            params = fit_scaler(ds, method)
            assert params.feature_names == () and params.mean.shape == (0,)
            for transform in (apply_scaler, invert_scaler):
                assert transform(ds, params).values.tobytes() == ds.values.tobytes()

    def test_explicit_feature_subset(self):
        ds = make_ds([[1.0, 1.0], [3.0, 0.0]], kinds=["continuous", "binary"])
        params = fit_scaler(ds, "standardize", feature_names=["f1"])
        assert params.feature_names == ("f1",)

    def test_stats_for(self):
        ds = make_ds([[1.0], [2.0], [3.0]])
        stats = fit_scaler(ds, "standardize").stats_for("f0")
        assert stats["mean"] == 2.0
        assert math.isclose(stats["sd"], 1.0)
        assert stats["min"] == 1.0 and stats["max"] == 3.0
        assert stats["constant"] is False

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2 ** 32 - 1),
        st.integers(2, 40),
        st.integers(1, 5),
        st.sampled_from(["standardize", "minmax", "meannorm"]),
    )
    def test_round_trip_property(self, seed, rows, cols, method):
        rng = np.random.Generator(np.random.PCG64(seed))
        raw = rng.normal(0.0, 50.0, size=(rows, cols))
        # occasionally force a constant column into the mix
        if rows >= 2 and seed % 3 == 0:
            raw[:, 0] = 7.25
        ds = make_ds(raw)
        params = fit_scaler(ds, method)
        back = invert_scaler(apply_scaler(ds, params), params)
        assert np.max(np.abs(back.values - ds.values)) < 1e-10


class TestConditionalSummary:
    def test_hand_values(self):
        ds = make_ds(
            [[1.0], [3.0], [10.0], [14.0]],
            labels={"y": np.array([0, 0, 1, 1])},
        )
        recs = conditional_summary(ds, "y")
        assert len(recs) == 2
        neg, pos = recs
        assert neg["class"] == 0 and pos["class"] == 1
        assert neg["mean"] == 2.0 and pos["mean"] == 12.0
        assert math.isclose(neg["sd"], math.sqrt(2.0))
        assert math.isclose(pos["sd"], math.sqrt(8.0))
        # two points: d50 is their midpoint under linear interpolation
        assert neg["d50"] == 2.0
        assert pos["d50"] == 12.0

    def test_single_row_class_sd_nan(self):
        ds = make_ds([[1.0], [2.0], [3.0]], labels={"y": np.array([0, 0, 1])})
        recs = conditional_summary(ds, "y")
        assert math.isnan(recs[1]["sd"])
        assert recs[1]["mean"] == 3.0

    def test_csv_layout(self, tmp_path):
        ds = make_ds(
            [[1.0, 0.0], [2.0, 1.0]],
            kinds=["continuous", "binary"],
            labels={"y": np.array([0, 1])},
        )
        path = tmp_path / "summary.csv"
        write_conditional_summary(str(path), ds, "y")
        lines = path.read_text().splitlines()
        assert lines[0] == "feature,class,mean,sd,d10,d20,d30,d40,d50,d60,d70,d80,d90"
        assert len(lines) == 1 + 4  # two features, two classes each
        assert lines[1].startswith("f0,0,")
        assert lines[2].startswith("f0,1,")

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(1))
        ds = make_ds(
            rng.normal(size=(40, 2)),
            labels={"y": (rng.random(40) < 0.5).astype(np.int64)},
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_conditional_summary(str(a), ds, "y")
        write_conditional_summary(str(b), ds, "y")
        assert a.read_bytes() == b.read_bytes()

    def test_comma_named_feature_keeps_one_cell_per_column(self, tmp_path):
        ds = Dataset(
            features=(Feature("size, log", "continuous"), Feature("x", "continuous")),
            values=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
            labels={"y": np.array([0, 1, 1])},
        )
        path = tmp_path / "summary.csv"
        write_conditional_summary(str(path), ds, "y")
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert len(rows) == 4
        assert all(len(row) == len(header) for row in rows)
        assert [row[0] for row in rows] == ["size, log", "size, log", "x", "x"]
