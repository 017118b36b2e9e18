"""Seeded k-fold cross-validation and grid search over model families.

The search procedure: draw a stratified tuning subset, expand the grid,
score every point with repeated k-fold cross-validation (each fold scaled
as ``preprocess`` scales, refit on its training split alone, and fitted as
``train`` fits), pool the per-fold values, take the best mean (first point
in grid order wins ties), and refit the winner on the full input data.
Every stochastic step draws from a child seed with a documented
derivation, so results are reproducible and composable:
``grid_search(seed=s, repeats=1, subset_frac=1.0)`` scores each point
exactly like ``cross_validate(seed=child_seed(s, "repeat", 0))`` and refits
with ``child_seed(s, "refit")``. The folds of one point are fitted over the
usable CPUs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dataset import Dataset, DatasetError, stratified_split, write_table
from .evaluate import auc, confusion, metrics
from .linear import fit_elastic_net, fit_logit, predict_proba
from .neural import predict_ffn, train_ffn
from .preprocess import apply_scaler, fit_scaler
from .rng import child_seed, generator
from .shares import fork_map
from .trees import ForestHyper, fit_cart, fit_forest, predict_forest, predict_tree

__all__ = [
    "FoldPlan",
    "CVResult",
    "GridSearchResult",
    "ModelSpec",
    "get_model_spec",
    "kfold_partition",
    "grid_expand",
    "cross_validate",
    "grid_search",
    "write_tuning_report",
]

METRICS = ("auc", "accuracy", "kappa", "sensitivity", "specificity")


@dataclass(frozen=True)
class FoldPlan:
    """Row-to-fold assignment for one k-fold pass: ``assignment[i]`` is row i's fold."""

    assignment: np.ndarray

    def test_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == fold)

    def train_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment != fold)


def kfold_partition(
    n: int, k: int, seed: int, stratify_labels: np.ndarray | None = None
) -> FoldPlan:
    """Assign rows to k folds by seeded shuffle plus round-robin deal.

    Fold sizes differ by at most one. The deal runs within each class of
    ``stratify_labels`` (ascending class value) while one global cursor
    keeps rotating, so per-class counts are also within one of even and the
    overall balance is preserved. Without labels every row is one class.
    """
    if k < 2:
        raise DatasetError("k must be >= 2")
    if n < k:
        raise DatasetError(f"cannot make {k} folds from {n} rows")
    y = np.zeros(n, np.int64) if stratify_labels is None else np.asarray(stratify_labels)
    if y.shape != (n,):
        raise DatasetError("stratify labels must align with n")
    rng = generator(child_seed(seed, "kfold"))
    assignment = np.empty(n, dtype=np.int64)
    cursor = 0
    for cls in np.unique(y):
        members = np.flatnonzero(y == cls)
        shuffled = members[rng.permutation(members.size)]
        assignment[shuffled] = (cursor + np.arange(members.size)) % k
        cursor = (cursor + members.size) % k
    return FoldPlan(assignment)


def grid_expand(grid: dict[str, list]) -> list[dict]:
    """All grid points in lexicographic order of sorted keys.

    The last key varies fastest; the empty grid yields one empty point.
    """
    keys = sorted(grid)
    for key in keys:
        if not isinstance(grid[key], (list, tuple)) or len(grid[key]) == 0:
            raise DatasetError(f"grid entry {key!r} must be a nonempty list")
    return [dict(zip(keys, values)) for values in itertools.product(*map(grid.get, keys))]


# ---------------------------------------------------------------------------
# model registry


@dataclass(frozen=True)
class ModelSpec:
    """Uniform fit/predict adapter for one model family; ``_REGISTRY`` keys it by kind."""

    fit: Callable[[Dataset, str, tuple[str, ...] | None, dict, int], object]
    predict: Callable[[object, Dataset], np.ndarray]


def _fit_logit(ds, label, features, params, seed):
    return fit_logit(ds, label, features=features, **params)


def _fit_enet(ds, label, features, params, seed):
    return fit_elastic_net(ds, label, features=features, **params)


def _fit_cart(ds, label, features, params, seed):
    return fit_cart(ds, label, features=features, **params)


def _fit_forest(ds, label, features, params, seed):
    return fit_forest(ds, label, ForestHyper(seed=seed, **params), features=features)


def _fit_ffn(ds, label, features, params, seed):
    return train_ffn(ds, label, features=features, seed=seed, **params)


_REGISTRY: dict[str, ModelSpec] = {
    "logit": ModelSpec(_fit_logit, predict_proba),
    "elastic_net": ModelSpec(_fit_enet, predict_proba),
    "cart": ModelSpec(_fit_cart, predict_tree),
    "forest": ModelSpec(_fit_forest, predict_forest),
    "ffn": ModelSpec(_fit_ffn, predict_ffn),
}


def get_model_spec(kind: str) -> ModelSpec:
    if kind not in _REGISTRY:
        raise DatasetError(
            f"unknown model kind {kind!r} (have {', '.join(sorted(_REGISTRY))})"
        )
    return _REGISTRY[kind]


def _metric_value(name: str, y: np.ndarray, scores: np.ndarray) -> float:
    if name == "auc":
        return auc(y, scores)
    m = metrics(confusion(y, (scores >= 0.5).astype(np.int64)))
    return getattr(m, name)


# ---------------------------------------------------------------------------
# cross-validation


def _scale_on(
    train: Dataset, scaler: str | None, scale_features, *others: Dataset
) -> list[Dataset]:
    """``train`` and ``others`` scaled as ``preprocess`` scales, with statistics
    fit on ``train`` alone. With no ``scaler`` every dataset passes through;
    a scaler over no features leaves the values as they are.
    """
    if scaler is None:
        return [train, *others]
    sp = fit_scaler(train, scaler, feature_names=scale_features or None)
    return [apply_scaler(d, sp) for d in (train, *others)]


@dataclass
class CVResult:
    """Per-fold metric values for one (model, params) cell, and the folds they came from."""

    fold_values: np.ndarray
    mean_value: float
    plan: FoldPlan


def cross_validate(
    ds: Dataset,
    label: str,
    kind: str,
    params: dict | None = None,
    k: int = 5,
    seed: int = 0,
    metric: str = "auc",
    scaler: str | None = None,
    scale_features: list[str] | tuple[str, ...] | None = None,
) -> CVResult:
    """Stratified k-fold estimate of one metric for one hyperparameter point.

    Preprocessing never leaks: when ``scaler`` is set, its statistics are
    refit on each fold's training split, on the features ``preprocess``
    scales (possibly none), and applied to both sides. Under ``auc`` a class
    with fewer than k rows is refused before any fold is fitted. Fold f
    fits every feature, as ``train`` does, with seed
    ``child_seed(seed, "fit", f)`` and is scored in share ``f % P`` of
    ``shares.fork_map``, so its value is the same at any CPU count; the
    plan comes from the same master seed. A forest fitted in a fold helper
    makes its trees there serially; the caller's folds still spread theirs.
    """
    if metric not in METRICS:
        raise DatasetError(f"unknown metric {metric!r}")
    params = dict(params or {})
    spec = get_model_spec(kind)
    y = ds.label(label)
    counts = np.bincount(y, minlength=2)
    if metric == "auc" and counts.min() < k:
        cls = int(counts.argmin())
        raise DatasetError(f"auc over k = {k} folds needs at least {k} rows of each class;"
                           f" label {label!r} has {counts[cls]} of class {cls}")
    plan = kfold_partition(ds.rows, k, seed, stratify_labels=y)

    def score(fold: int) -> float:
        train = ds.subset_rows(plan.train_rows(fold))
        test = ds.subset_rows(plan.test_rows(fold))
        train, test = _scale_on(train, scaler, scale_features, test)
        model = spec.fit(train, label, None, params, child_seed(seed, "fit", fold))
        return _metric_value(metric, test.label(label), spec.predict(model, test))

    values: list[float] = []
    fork_map(score, k, values.append)
    return CVResult(np.array(values), float(np.mean(values)), plan)


# ---------------------------------------------------------------------------
# grid search


@dataclass
class GridSearchResult:
    points: list[dict]
    cell_values: list[list[float]]  # pooled over repeats x folds, per point
    means: list[float]
    best_index: int
    best_params: dict
    model: object | None
    rows: list[tuple] = field(default_factory=list)  # (point, repeat, fold, value)


def grid_search(
    ds: Dataset,
    label: str,
    kind: str,
    grid: dict[str, list],
    k: int = 5,
    seed: int = 0,
    metric: str = "auc",
    subset_frac: float = 1.0,
    repeats: int = 1,
    refit: bool = True,
    scaler: str | None = None,
    scale_features: list[str] | tuple[str, ...] | None = None,
) -> GridSearchResult:
    """Grid search by repeated stratified k-fold CV on a tuning subset.

    The subset is a stratified ``subset_frac`` draw from the input (seeded
    with ``child_seed(seed, "subset")``); 1.0 means tune on everything.
    Repeat r uses CV seed ``child_seed(seed, "repeat", r)``; values pool
    across repeats and folds per point; the best pooled mean wins with ties
    going to the earliest point in grid order. With ``refit`` the winner is
    refit on the full input with seed ``child_seed(seed, "refit")``.
    """
    if repeats < 1:
        raise DatasetError("repeats must be >= 1")
    if not 0.0 < subset_frac <= 1.0:
        raise DatasetError("subset_frac must lie in (0, 1]")
    points = grid_expand(grid)
    tune_ds = ds
    if subset_frac < 1.0:
        tune_ds = stratified_split(ds, subset_frac, label, child_seed(seed, "subset")).train
    rows: list[tuple] = []
    cell_values: list[list[float]] = [[] for _ in points]
    for r in range(repeats):
        cv_seed = child_seed(seed, "repeat", r)
        for pi, params in enumerate(points):
            result = cross_validate(
                tune_ds, label, kind, params=params, k=k, seed=cv_seed, metric=metric,
                scaler=scaler, scale_features=scale_features,
            )
            for fold, value in enumerate(result.fold_values):
                rows.append((pi, r, fold, float(value)))
                cell_values[pi].append(float(value))
    means = [float(np.mean(vals)) for vals in cell_values]
    best_index = means.index(max(means))  # max keeps the first of equal means
    model = None
    if refit:
        (fit_ds,) = _scale_on(ds, scaler, scale_features)
        model = get_model_spec(kind).fit(
            fit_ds, label, None, points[best_index], child_seed(seed, "refit")
        )
    return GridSearchResult(
        points=points,
        cell_values=cell_values,
        means=means,
        best_index=best_index,
        best_params=points[best_index],
        model=model,
        rows=rows,
    )


def _params_text(params: dict) -> str:
    if not params:
        return "(default)"
    parts = []
    for key in sorted(params):
        value = params[key]
        if isinstance(value, float):
            parts.append(f"{key}={value!r}")
        elif isinstance(value, (list, tuple)):
            parts.append(f"{key}=({'x'.join(str(v) for v in value)})")
        else:
            parts.append(f"{key}={value}")
    return "; ".join(parts)


def write_tuning_report(dir_path: str, result: GridSearchResult) -> list[str]:
    """Write per-(point, repeat, fold) values and the per-point summary.

    Wall-clock times are deliberately absent so reruns are byte-identical.
    """
    import os

    os.makedirs(dir_path, exist_ok=True)
    texts = [_params_text(params) for params in result.points]
    write_table(
        os.path.join(dir_path, "tuning_report.csv"),
        ["point", "params", "repeat", "fold", "value"],
        ((pi, texts[pi], r, fold, value) for pi, r, fold, value in result.rows),
    )
    write_table(
        os.path.join(dir_path, "tuning_summary.csv"),
        ["point", "params", "n_values", "mean", "selected"],
        (
            (pi, text, len(result.cell_values[pi]), result.means[pi], int(pi == result.best_index))
            for pi, text in enumerate(texts)
        ),
    )
    return ["tuning_report.csv", "tuning_summary.csv"]
