"""Fold construction, grid expansion, CV mechanics, search composition."""

import csv
import dataclasses
import inspect
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_no_child_left, open_fds, report_cpus
from rarepred.config import _MODELS, _REQUIRED_PARAMS, format_value
from rarepred.dataset import Dataset, DatasetError, Feature
from rarepred.evaluate import auc
from rarepred.linear import fit_elastic_net, fit_logit, predict_proba
from rarepred.neural import train_ffn
from rarepred.preprocess import SCALER_METHODS, apply_scaler, fit_scaler
from rarepred.rng import child_seed, generator
from rarepred.serialize import model_to_text
from rarepred.trees import ForestHyper, fit_cart
from rarepred.tune import (
    _REGISTRY,
    cross_validate,
    get_model_spec,
    grid_expand,
    grid_search,
    kfold_partition,
    write_tuning_report,
)


def sample(seed=0, n=200, k_features=3, rate_signal=1.5):
    rng = generator(seed)
    X = rng.normal(size=(n, k_features))
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-rate_signal * X[:, 0]))).astype(np.int64)
    return Dataset(
        features=tuple(Feature(f"x{j}", "continuous") for j in range(k_features)),
        values=X,
        labels={"y": y},
    )


FITS = {"logit": fit_logit, "elastic_net": fit_elastic_net, "cart": fit_cart, "ffn": train_ffn}


def fit_defaults(kind):
    """Hyperparameter -> default of the fit behind ``kind`` (``inspect.Parameter.empty``
    when it has none), without the arguments that tune supplies itself."""
    if kind == "forest":
        defaults = {f.name: inspect.Parameter.empty if f.default is dataclasses.MISSING
                    else f.default for f in dataclasses.fields(ForestHyper)}
    else:
        params = inspect.signature(FITS[kind]).parameters.values()
        defaults = {p.name: p.default for p in params}
    return {key: value for key, value in defaults.items()
            if key not in ("ds", "label", "features", "seed")}


class TestRegistry:
    """config._MODELS, the one table of grid keys, against the registry and the fits."""

    def test_kinds_follow_the_registry(self):
        # in the same order: the "have" list of an unknown kind's message reads it
        assert list(_MODELS) == list(_REGISTRY)

    def test_params_are_the_fit_keywords(self):
        for kind, parsers in _MODELS.items():
            assert list(parsers) == list(fit_defaults(kind)), kind

    def test_required_params_are_those_without_a_default(self):
        for kind in _MODELS:
            required = [key for key, default in fit_defaults(kind).items()
                        if default is inspect.Parameter.empty]
            assert required == list(_REQUIRED_PARAMS.get(kind, ())), kind

    def test_fit_defaults_round_trip(self):
        for kind, parsers in _MODELS.items():
            for key, default in fit_defaults(kind).items():
                if default is not None and default is not inspect.Parameter.empty:
                    value = parsers[key](format_value(default))
                    assert (type(value), value) == (type(default), default), (kind, key)


class TestKfold:
    def test_eleven_rows_five_folds(self):
        plan = kfold_partition(11, 5, seed=3)
        sizes = sorted(np.bincount(plan.assignment, minlength=5), reverse=True)
        assert sizes == [3, 2, 2, 2, 2]

    def test_stratified_rare_class_spread(self):
        y = np.zeros(100, dtype=np.int64)
        y[:10] = 1
        plan = kfold_partition(100, 5, seed=1, stratify_labels=y)
        for fold in range(5):
            rows = plan.test_rows(fold)
            assert rows.size == 20
            assert y[rows].sum() == 2

    def test_every_row_in_exactly_one_fold(self):
        plan = kfold_partition(57, 4, seed=9)
        seen = np.concatenate([plan.test_rows(f) for f in range(4)])
        np.testing.assert_array_equal(np.sort(seen), np.arange(57))
        for f in range(4):
            overlap = np.intersect1d(plan.test_rows(f), plan.train_rows(f))
            assert overlap.size == 0

    def test_deterministic(self):
        a = kfold_partition(40, 5, seed=7)
        b = kfold_partition(40, 5, seed=7)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        c = kfold_partition(40, 5, seed=8)
        assert not np.array_equal(a.assignment, c.assignment)

    def test_validation(self):
        with pytest.raises(DatasetError):
            kfold_partition(10, 1, seed=0)
        with pytest.raises(DatasetError):
            kfold_partition(3, 5, seed=0)

    @pytest.mark.parametrize("n", [2, 3, 11, 57, 100, 1001])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_without_labels_every_row_is_one_class(self, n, k):
        # oracle: one seeded shuffle of all rows, dealt round-robin from fold 0
        k = min(k, n)
        for seed in range(20):
            perm = generator(child_seed(seed, "kfold")).permutation(n)
            want = np.empty(n, dtype=np.int64)
            want[perm] = np.arange(n) % k
            for labels in (None, np.zeros(n, np.int64), np.ones(n, np.int64)):
                plan = kfold_partition(n, k, seed, stratify_labels=labels)
                np.testing.assert_array_equal(plan.assignment, want)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2 ** 32 - 1),
        st.integers(4, 150),
        st.integers(2, 8),
        st.booleans(),
    )
    def test_balance_property(self, seed, n, k, stratify):
        if k > n:
            k = n
        labels = None
        if stratify:
            rng = generator(seed)
            labels = (rng.random(n) < 0.3).astype(np.int64)
        plan = kfold_partition(n, k, seed, stratify_labels=labels)
        sizes = np.bincount(plan.assignment, minlength=k)
        assert sizes.max() - sizes.min() <= 1
        if labels is not None:
            for cls in (0, 1):
                counts = np.bincount(plan.assignment[labels == cls], minlength=k)
                assert counts.max() - counts.min() <= 1


class TestGridExpand:
    def test_lexicographic_last_key_fastest(self):
        points = grid_expand({"b": [1, 2], "a": ["x", "y"]})
        assert points == [
            {"a": "x", "b": 1},
            {"a": "x", "b": 2},
            {"a": "y", "b": 1},
            {"a": "y", "b": 2},
        ]

    def test_empty_grid_single_point(self):
        assert grid_expand({}) == [{}]

    def test_empty_entry_rejected(self):
        with pytest.raises(DatasetError):
            grid_expand({"a": []})


class TestCrossValidate:
    def test_matches_manual_fold_loop(self):
        ds = sample(5, n=120)
        result = cross_validate(ds, "y", "logit", k=4, seed=11, metric="auc")
        plan = kfold_partition(ds.rows, 4, 11, stratify_labels=ds.label("y"))
        np.testing.assert_array_equal(plan.assignment, result.plan.assignment)
        for fold in range(4):
            train = ds.subset_rows(plan.train_rows(fold))
            test = ds.subset_rows(plan.test_rows(fold))
            model = fit_logit(train, "y", features=ds.feature_names)
            expected = auc(test.label("y"), predict_proba(model, test))
            assert result.fold_values[fold] == expected
        assert result.mean_value == float(result.fold_values.mean())

    def test_scaler_refit_inside_folds(self):
        # shift one feature so global scaling and fold scaling differ;
        # the run must still be deterministic and leak-free
        ds = sample(6, n=150)
        a = cross_validate(ds, "y", "logit", k=3, seed=2, scaler="standardize")
        b = cross_validate(ds, "y", "logit", k=3, seed=2, scaler="standardize")
        np.testing.assert_array_equal(a.fold_values, b.fold_values)
        # logit is scale-equivariant, so AUC matches the unscaled run
        c = cross_validate(ds, "y", "logit", k=3, seed=2)
        np.testing.assert_allclose(a.fold_values, c.fold_values, atol=1e-12)

    def test_threshold_metrics(self):
        ds = sample(7, n=160)
        result = cross_validate(ds, "y", "cart", {"cp": 0.01}, k=4, seed=3, metric="accuracy")
        assert np.all((result.fold_values >= 0) & (result.fold_values <= 1))

    def test_too_few_rows_of_a_class_refused_before_any_fit(self, monkeypatch, forks):
        # a class with fewer than k rows leaves some test fold without it
        ds = sample(21, n=100)
        y = np.zeros(100, dtype=np.int64)
        y[[3, 30, 50, 90]] = 1
        rare = dataclasses.replace(ds, labels={"y": y})
        common = dataclasses.replace(ds, labels={"y": 1 - y})
        fits, spec = [], _REGISTRY["logit"]

        def fit(*args):
            fits.append(args)
            return spec.fit(*args)

        monkeypatch.setitem(_REGISTRY, "logit", dataclasses.replace(spec, fit=fit))
        for data, cls in ((rare, 1), (common, 0)):
            message = ("^auc over k = 5 folds needs at least 5 rows of each class;"
                       f" label 'y' has 4 of class {cls}$")
            with pytest.raises(DatasetError, match=message):
                cross_validate(data, "y", "logit", k=5, seed=1)
            with pytest.raises(DatasetError, match=message):
                grid_search(data, "y", "logit", {}, k=5, seed=1)
        assert fits == [] and len(forks) == 0
        # k rows of the class give every test fold one of them
        assert np.isfinite(cross_validate(rare, "y", "logit", k=4, seed=1).fold_values).all()
        # a threshold metric needs no class in every fold
        cross_validate(rare, "y", "logit", k=5, seed=1, metric="accuracy")

    def test_unknown_kind_and_metric(self):
        ds = sample(9, n=60)
        with pytest.raises(DatasetError, match="model kind"):
            cross_validate(ds, "y", "svm")
        with pytest.raises(DatasetError, match="metric"):
            cross_validate(ds, "y", "logit", metric="brier")


def mixed_sample(seed, n=150):
    """Two continuous features on different scales, one binary, one categorical."""
    rng = generator(seed)
    X = np.column_stack([
        rng.normal(size=n), rng.normal(3.0, 2.0, size=n),
        rng.integers(0, 2, size=n), rng.integers(0, 3, size=n),
    ]).astype(np.float64)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-X[:, 0] - 0.8 * X[:, 2]))).astype(np.int64)
    features = (Feature("x0", "continuous"), Feature("x1", "continuous"),
                Feature("b", "binary"), Feature("c", "categorical", ("p", "q", "r")))
    return Dataset(features=features, values=X, labels={"y": y})


def binary_sample(seed, n=150):
    """Three binary features and no continuous one."""
    rng = generator(seed)
    X = rng.integers(0, 2, size=(n, 3)).astype(np.float64)
    y = (rng.random(n) < 0.2 + 0.5 * X[:, 0]).astype(np.int64)
    features = tuple(Feature(f"b{j}", "binary") for j in range(3))
    return Dataset(features=features, values=X, labels={"y": y})


FOLD_KINDS = {"logit": {}, "ffn": {"hidden": (4,), "epochs": 2, "batch_size": 32}}


class TestFoldScalingOracle:
    """Each fold is scaled as ``preprocess`` scales and fitted as ``train`` fits."""

    @staticmethod
    def hand_loop(ds, kind, method, scale_features, scaled, k=3, seed=12):
        spec = get_model_spec(kind)
        plan = kfold_partition(ds.rows, k, seed, stratify_labels=ds.label("y"))
        values = []
        for f in range(k):
            train = ds.subset_rows(plan.train_rows(f))
            test = ds.subset_rows(plan.test_rows(f))
            if scaled:
                sp = fit_scaler(train, method, feature_names=scale_features or None)
                train, test = apply_scaler(train, sp), apply_scaler(test, sp)
            model = spec.fit(train, "y", None, FOLD_KINDS[kind], child_seed(seed, "fit", f))
            values.append(auc(test.label("y"), spec.predict(model, test)))
        return np.array(values)

    @pytest.mark.parametrize("kind", sorted(FOLD_KINDS))
    @pytest.mark.parametrize("method", SCALER_METHODS)
    @pytest.mark.parametrize("scale_features", [None, ["x1", "b"], []])
    def test_mixed_features(self, kind, method, scale_features):
        ds = mixed_sample(22)
        result = cross_validate(ds, "y", kind, FOLD_KINDS[kind], k=3, seed=12,
                                scaler=method, scale_features=scale_features)
        expected = self.hand_loop(ds, kind, method, scale_features, scaled=True)
        assert result.fold_values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("method", SCALER_METHODS)
    @pytest.mark.parametrize("scale_features", [None, ["b1"], []])
    def test_all_binary(self, method, scale_features):
        # with nothing named and nothing continuous the scaler covers no feature,
        # so the folds keep their values
        ds = binary_sample(23)
        result = cross_validate(ds, "y", "logit", k=3, seed=12, scaler=method,
                                scale_features=scale_features)
        expected = self.hand_loop(ds, "logit", method, scale_features,
                                  scaled=bool(scale_features))
        assert result.fold_values.tobytes() == expected.tobytes()


# one two-point grid per family whose fit makes no map of its own
FOLD_GRIDS = {
    "logit": {"max_iter": [3, 25]},
    "elastic_net": {"lam": [0.0, 0.05], "alpha": [0.5]},
    "cart": {"cp": [0.01, 0.1]},
    "ffn": {"hidden": [(4,)], "epochs": [1, 2], "batch_size": [32]},
}


class TestFoldMap:
    """Fold f of a cross-validation is fitted in share f % P of ``shares.fork_map``."""

    @pytest.mark.parametrize("kind", sorted(FOLD_GRIDS))
    def test_same_values_at_any_cpu_count(self, monkeypatch, forks, kind):
        ds = sample(18, n=150)
        grid = FOLD_GRIDS[kind]
        runs = []
        for cpus in (1, 2, 64):  # at most k = 3 shares, so at most 2 helpers
            report_cpus(monkeypatch, cpus)
            before = len(forks)
            cv = cross_validate(ds, "y", kind, grid_expand(grid)[1], k=3, seed=8,
                                scaler="standardize")
            search = grid_search(ds, "y", kind, grid, k=3, seed=9, scaler="standardize",
                                 refit=False)
            assert len(forks) - before == 3 * (min(cpus, 3) - 1)  # 3 calls of k = 3 folds
            runs.append((cv.fold_values.tobytes(), repr(search.rows)))
        assert runs[0] == runs[1] == runs[2]
        assert_no_child_left()

    def test_forest_same_values_at_any_cpu_count(self, monkeypatch):
        # the caller's folds spread their trees, a helper's folds make them serially
        ds = sample(19, n=150)
        params = {"n_trees": 3, "min_node": 25}
        values = []
        for cpus in (1, 2, 64):
            report_cpus(monkeypatch, cpus)
            cv = cross_validate(ds, "y", "forest", params, k=3, seed=4)
            values.append(cv.fold_values.tobytes())
        assert values[0] == values[1] == values[2]
        assert_no_child_left()

    def test_fold_failing_in_a_helper_raises_its_error(self, monkeypatch, forks):
        # fold 1 diverges in its helper, with the lr of the diverging [model:ffn]
        # run, while fold 0 fits in the caller
        ds = sample(20, n=120)
        report_cpus(monkeypatch, 2)
        caller, spec = os.getpid(), _REGISTRY["ffn"]

        def fit(train, label, names, params, seed):
            if os.getpid() != caller:
                params = {**params, "lr": 1e300}
            return spec.fit(train, label, names, params, seed)

        monkeypatch.setitem(_REGISTRY, "ffn", dataclasses.replace(spec, fit=fit))
        fds = open_fds()
        with np.errstate(all="ignore"), pytest.raises(DatasetError, match="training diverged"):
            cross_validate(ds, "y", "ffn", {"epochs": 1, "batch_size": 32}, k=2, seed=5)
        assert len(forks) == 1
        assert_no_child_left()
        assert open_fds() == fds


class TestGridSearch:
    def test_composition_identity(self):
        # with the whole sample and one repeat, each point's values must be
        # exactly a cross_validate run and the refit a plain spec fit
        ds = sample(10, n=140)
        S = 77
        result = grid_search(
            ds, "y", "elastic_net",
            {"lam": [0.0, 0.05], "alpha": [0.0]},
            k=3, seed=S, subset_frac=1.0, repeats=1,
        )
        for pi, params in enumerate(result.points):
            direct = cross_validate(
                ds, "y", "elastic_net", params=params, k=3,
                seed=child_seed(S, "repeat", 0),
            )
            np.testing.assert_array_equal(result.cell_values[pi], direct.fold_values)
        spec = get_model_spec("elastic_net")
        refit = spec.fit(ds, "y", ds.feature_names, result.best_params, child_seed(S, "refit"))
        assert model_to_text(result.model) == model_to_text(refit)

    def test_tie_breaks_to_first_point(self):
        # both cp values produce the same stump, so every value ties
        ds = sample(11, n=90, rate_signal=0.0)
        result = grid_search(
            ds, "y", "cart", {"cp": [0.9, 0.95]},
            k=3, seed=1, subset_frac=1.0, metric="accuracy", refit=False,
        )
        assert result.cell_values[0] == result.cell_values[1]
        assert result.best_index == 0
        assert result.best_params == {"cp": 0.9}

    def test_subset_reduces_tuning_rows(self):
        ds = sample(12, n=400)
        result = grid_search(
            ds, "y", "logit", {}, k=4, seed=5, subset_frac=0.25, refit=True,
        )
        assert len(result.rows) == 4  # one point, one repeat, four folds
        # refit happens on the full data: coefficient scale stamps rows
        assert result.model.feature_scales.shape == (3,)

    def test_repeats_pool_values(self):
        ds = sample(13, n=100)
        result = grid_search(
            ds, "y", "logit", {}, k=3, seed=2, subset_frac=1.0, repeats=3, refit=False,
        )
        assert len(result.cell_values[0]) == 9
        assert len(result.rows) == 9
        # repeats use different fold plans, so values are not all identical
        assert len(set(result.cell_values[0])) > 1

    def test_refit_false_leaves_model_none(self):
        ds = sample(14, n=80)
        result = grid_search(ds, "y", "logit", {}, k=3, seed=3, refit=False, subset_frac=1.0)
        assert result.model is None

    def test_seeded_models_through_search(self):
        ds = sample(15, n=150)
        result = grid_search(
            ds, "y", "forest",
            {"n_trees": [5], "min_node": [25, 50]},
            k=3, seed=4, subset_frac=1.0,
        )
        assert result.model is not None
        assert result.model.hyper.seed == child_seed(4, "refit")

    def test_validation(self):
        ds = sample(16, n=60)
        with pytest.raises(DatasetError):
            grid_search(ds, "y", "logit", {}, subset_frac=0.0)
        with pytest.raises(DatasetError):
            grid_search(ds, "y", "logit", {}, repeats=0)


class TestTuningReport:
    def test_layout_and_determinism(self, tmp_path):
        ds = sample(17, n=120)
        result = grid_search(
            ds, "y", "cart", {"cp": [0.01, 0.1]},
            k=3, seed=6, subset_frac=1.0, refit=False,
        )
        d1, d2 = tmp_path / "a", tmp_path / "b"
        files = write_tuning_report(str(d1), result)
        write_tuning_report(str(d2), result)
        assert files == ["tuning_report.csv", "tuning_summary.csv"]
        for name in files:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        report = (d1 / "tuning_report.csv").read_text().splitlines()
        assert report[0] == "point,params,repeat,fold,value"
        assert len(report) == 1 + 2 * 3
        summary = (d1 / "tuning_summary.csv").read_text().splitlines()
        assert summary[0] == "point,params,n_values,mean,selected"
        assert sum(int(line.rsplit(",", 1)[1]) for line in summary[1:]) == 1

    def test_params_cells_parse_back(self, tmp_path):
        ds = sample(17, n=120)
        result = grid_search(
            ds, "y", "cart", {"cp": [0.01, 0.1]},
            k=3, seed=6, subset_frac=1.0, refit=False,
        )
        write_tuning_report(str(tmp_path), result)
        summary = (tmp_path / "tuning_summary.csv").read_text()
        # csv needs no quotes around these params, so none are written
        assert [line.split(",")[1] for line in summary.splitlines()[1:]] == [
            "cp=0.01", "cp=0.1",
        ]
        with open(tmp_path / "tuning_report.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert all(len(row) == len(header) for row in rows)
