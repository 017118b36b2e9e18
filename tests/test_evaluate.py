"""Confusion counts, kappa, ROC shape, trapezoid-vs-pair AUC, report files."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_no_child_left, auc_pair_count, report_cpus
from rarepred.dataset import _BLOCK_ROWS, DatasetError, write_table
from rarepred.evaluate import (
    ConfusionMatrix,
    auc,
    confusion,
    evaluate_scores,
    metrics,
    roc,
    write_report,
)


class TestConfusionAndMetrics:
    def test_confusion_counts(self):
        y = np.array([1, 1, 0, 0, 1, 0])
        p = np.array([1, 0, 1, 0, 1, 0])
        cm = confusion(y, p)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (2, 1, 1, 2)

    def test_metrics_oracle(self):
        # worked example: 45/5/15/35 gives chance agreement exactly 0.5
        m = metrics(ConfusionMatrix(tp=45, fn=5, fp=15, tn=35))
        assert math.isclose(m.accuracy, 0.8)
        assert math.isclose(m.kappa, 0.6)
        assert math.isclose(m.sensitivity, 0.9)
        assert math.isclose(m.specificity, 0.7)
        assert m.undefined == ()

    def test_no_positives_flags_sensitivity(self):
        m = metrics(ConfusionMatrix(tp=0, fn=0, fp=2, tn=8))
        assert math.isnan(m.sensitivity)
        assert "sensitivity" in m.undefined
        assert math.isclose(m.specificity, 0.8)

    def test_degenerate_kappa_flagged(self):
        # one class, matching predictions: expected agreement is 1
        m = metrics(ConfusionMatrix(tp=0, fn=0, fp=0, tn=10))
        assert math.isnan(m.kappa)
        assert "kappa" in m.undefined
        assert m.accuracy == 1.0

    def test_kappa_zero_for_chance(self):
        # predictions independent of labels at matched rates
        m = metrics(ConfusionMatrix(tp=25, fn=25, fp=25, tn=25))
        assert math.isclose(m.kappa, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(DatasetError):
            metrics(ConfusionMatrix(0, 0, 0, 0))

    def test_nonbinary_rejected(self):
        with pytest.raises(DatasetError):
            confusion(np.array([0, 2]), np.array([0, 1]))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 300), st.floats(0.0, 1.0))
    def test_confusion_matches_mask_counts(self, seed, n, rate):
        rng = np.random.Generator(np.random.PCG64(seed))
        y = (rng.random(n) < rate).astype(np.int64)
        p = rng.integers(0, 2, size=n)
        cm = confusion(y, p)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (
            int(((y == 1) & (p == 1)).sum()),
            int(((y == 1) & (p == 0)).sum()),
            int(((y == 0) & (p == 1)).sum()),
            int(((y == 0) & (p == 0)).sum()),
        )


class TestRoc:
    def test_anchors_and_monotone(self):
        y = np.array([1, 0, 1, 0, 1])
        s = np.array([0.9, 0.1, 0.8, 0.4, 0.35])
        curve = roc(y, s)
        assert curve[0, 0] == math.inf
        assert (curve[0, 1], curve[0, 2]) == (0.0, 0.0)
        assert (curve[-1, 1], curve[-1, 2]) == (1.0, 1.0)
        assert np.all(np.diff(curve[:, 1]) >= 0)
        assert np.all(np.diff(curve[:, 2]) >= 0)
        # thresholds strictly descending after the anchor
        assert np.all(np.diff(curve[1:, 0]) < 0)

    def test_ties_grouped_single_step(self):
        y = np.array([1, 0, 1, 0])
        s = np.array([0.5, 0.5, 0.9, 0.1])
        curve = roc(y, s)
        # unique thresholds: inf, 0.9, 0.5, 0.1 -> 4 rows
        assert curve.shape == (4, 3)
        # the tied 0.5 group moves both rates at once
        np.testing.assert_allclose(curve[2], [0.5, 0.5, 1.0])

    def test_auc_oracle_three_quarters(self):
        # pos {0.9, 0.8}, neg {0.85, 0.3}: 3 of 4 pairs ordered correctly
        y = np.array([1, 1, 0, 0])
        s = np.array([0.9, 0.8, 0.85, 0.3])
        assert math.isclose(auc(y, s), 0.75)
        assert math.isclose(auc_pair_count(y, s), 0.75)

    def test_perfect_and_reversed(self):
        y = np.array([1, 1, 0, 0])
        assert auc(y, np.array([0.9, 0.8, 0.2, 0.1])) == 1.0
        assert auc(y, np.array([0.1, 0.2, 0.8, 0.9])) == 0.0

    def test_all_tied_half(self):
        y = np.array([1, 0, 1, 0])
        s = np.full(4, 0.5)
        assert math.isclose(auc(y, s), 0.5)

    def test_single_class_rejected(self):
        with pytest.raises(DatasetError):
            roc(np.ones(3, dtype=int), np.array([0.1, 0.2, 0.3]))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 120), st.booleans())
    def test_trapezoid_equals_pair_count(self, seed, n, quantize):
        rng = np.random.Generator(np.random.PCG64(seed))
        y = rng.integers(0, 2, size=n)
        if y.sum() == 0:
            y[0] = 1
        if y.sum() == n:
            y[0] = 0
        s = rng.random(n)
        if quantize:
            s = np.round(s, 1)  # force heavy ties
        assert abs(auc(y, s) - auc_pair_count(y, s)) < 1e-10


def roc_cumsum(y_true, scores):
    """The ROC curve as a cumsum over groups of tied scores, kept verbatim
    as the oracle for the shared true/false-positive counter."""
    yt = np.asarray(y_true, dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)
    pos = int(yt.sum())
    neg = yt.size - pos
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = yt[order]
    # group boundaries where the sorted score changes
    boundary = np.flatnonzero(np.diff(s_sorted) != 0)
    last = np.concatenate([boundary, [s.size - 1]])
    cum_tp = np.cumsum(y_sorted)[last]
    cum_fp = np.cumsum(1 - y_sorted)[last]
    rows = np.column_stack(
        [s_sorted[last], cum_fp / neg, cum_tp / pos]
    )
    return np.vstack([[math.inf, 0.0, 0.0], rows])


class TestRocOracle:
    def test_single_positive(self):
        y = np.array([0, 0, 1, 0, 0])
        s = np.array([0.2, 0.7, 0.7, 0.1, 0.7])
        assert roc(y, s).tobytes() == roc_cumsum(y, s).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2 ** 32 - 1),
        st.integers(2, 600),
        st.sampled_from([0.005, 0.02, 0.1, 0.5]),
        st.integers(1, 200),
    )
    def test_matches_tie_group_cumsum(self, seed, n, rate, levels):
        rng = np.random.Generator(np.random.PCG64(seed))
        y = (rng.random(n) < rate).astype(np.int64)
        if y.sum() == 0:
            y[rng.integers(n)] = 1
        if y.sum() == n:
            y[0] = 0
        s = rng.integers(-levels, levels + 1, size=n) / 8.0 + 0.25 * y  # heavy ties
        assert roc(y, s).tobytes() == roc_cumsum(y, s).tobytes()


class TestReport:
    def make_eval(self, name="Model A", importance=None):
        y = np.array([1, 1, 0, 0, 1, 0, 0, 0])
        s = np.array([0.9, 0.4, 0.6, 0.2, 0.8, 0.1, 0.3, 0.55])
        return evaluate_scores(name, y, s, importance=importance)

    def test_threshold_semantics(self):
        y = np.array([1, 0])
        ev = evaluate_scores("m", y, np.array([0.5, 0.49]))
        # score exactly at threshold counts as positive
        assert ev.cm.tp == 1 and ev.cm.fp == 0 and ev.cm.tn == 1

    def test_bundle_files(self, tmp_path):
        evs = [self.make_eval("Logit"), self.make_eval("Forest", {"a": 0.7, "b": 0.3})]
        written = write_report(str(tmp_path), evs)
        assert "metrics.csv" in written
        assert "roc_logit.csv" in written and "confusion_forest.csv" in written
        assert "importance_forest.csv" in written
        assert "importance_logit.csv" not in written
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == "metric,logit,forest"
        assert [ln.split(",")[0] for ln in lines[1:]] == [
            "Accuracy",
            "Kappa",
            "Sensitivity",
            "Specificity",
            "AUC",
        ]

    def test_roc_csv_layout(self, tmp_path):
        write_report(str(tmp_path), [self.make_eval("m")])
        lines = (tmp_path / "roc_m.csv").read_text().splitlines()
        assert lines[0] == "threshold,fpr,tpr"
        assert lines[1] == "inf,0.0,0.0"
        assert lines[-1].endswith(",1.0,1.0")

    def test_confusion_csv_layout(self, tmp_path):
        write_report(str(tmp_path), [self.make_eval("m")])
        lines = (tmp_path / "confusion_m.csv").read_text().splitlines()
        assert lines[0] == ",predicted_1,predicted_0"
        assert lines[1].startswith("actual_1,")
        assert lines[2].startswith("actual_0,")

    def test_importance_sorted_desc(self, tmp_path):
        write_report(
            str(tmp_path),
            [self.make_eval("m", {"zeta": 0.5, "alpha": 0.3, "mid": 0.2})],
        )
        lines = (tmp_path / "importance_m.csv").read_text().splitlines()
        assert lines[0] == "feature,weight"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["zeta", "alpha", "mid"]

    def test_deterministic_bytes(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            write_report(str(d), [self.make_eval("m", {"a": 1.0})])
        for name in ("metrics.csv", "roc_m.csv", "confusion_m.csv", "importance_m.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_name_collision_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="collide"):
            write_report(str(tmp_path), [self.make_eval("My Model"), self.make_eval("my-model")])


def write_roc_serial(path: str, curve: np.ndarray) -> None:
    """A ROC table written one cell at a time, as ``write_report`` wrote it
    before it formatted blocks by column over the CPUs."""
    write_table(path, ["threshold", "fpr", "tpr"], curve)


class TestRocWriterOracle:
    def roc_eval(self, seed, thresholds):
        """A scored model whose curve has ``thresholds + 1`` rows: every
        threshold score once, some of them again as ties."""
        rng = np.random.default_rng(seed)
        unique = rng.normal(size=thresholds) * 10.0 ** rng.integers(-5, 17, size=thresholds)
        unique[7] = -0.0
        scores = np.concatenate([unique, unique[rng.integers(0, thresholds, size=thresholds // 3)]])
        return evaluate_scores("m", rng.integers(0, 2, size=scores.size), scores)

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    @pytest.mark.parametrize("thresholds, blocks", [
        (_BLOCK_ROWS - 1, 1),  # one full block: never forks
        (2 * _BLOCK_ROWS + 16, 3),  # three blocks, the last one short
    ])
    def test_roc_matches_write_table(self, tmp_path, monkeypatch, forks, cpus, thresholds, blocks):
        ev = self.roc_eval(cpus, thresholds)
        assert len(ev.roc_points) == thresholds + 1 and ev.roc_points[0, 0] == math.inf
        report_cpus(monkeypatch, cpus)
        write_report(str(tmp_path), [ev])
        assert len(forks) == min(cpus, blocks) - 1
        write_roc_serial(str(tmp_path / "old.csv"), ev.roc_points)
        assert (tmp_path / "roc_m.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert_no_child_left()
