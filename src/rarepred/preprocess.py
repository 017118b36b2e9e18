"""Feature scaling, one-hot expansion, and per-class summary tables.

Scalers are fit on one dataset (the training split) and applied to any
dataset sharing the feature layout, which keeps test-set statistics out of
the transform. Constant columns are flagged at fit time and map to 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, DatasetError, Feature, write_table

__all__ = [
    "ScalerParams",
    "fit_scaler",
    "apply_scaler",
    "invert_scaler",
    "scaler_to_text",
    "scaler_from_text",
    "one_hot",
    "conditional_summary",
    "write_conditional_summary",
]

SCALER_METHODS = ("standardize", "minmax", "meannorm")


@dataclass(frozen=True)
class ScalerParams:
    """Per-feature statistics frozen at fit time.

    ``constant`` marks columns with zero spread under the chosen method;
    those transform to 0 and invert back to their fitted center.
    """

    method: str
    names: tuple[str, ...]
    mean: np.ndarray
    sd: np.ndarray
    min: np.ndarray
    max: np.ndarray
    constant: np.ndarray

    def stats_for(self, name: str) -> dict[str, float]:
        i = self.names.index(name)
        return {
            "mean": float(self.mean[i]),
            "sd": float(self.sd[i]),
            "min": float(self.min[i]),
            "max": float(self.max[i]),
            "constant": bool(self.constant[i]),
        }


def fit_scaler(
    ds: Dataset, method: str, feature_names: list[str] | tuple[str, ...] | None = None
) -> ScalerParams:
    """Fit scaling statistics on the given dataset.

    ``feature_names`` defaults to every continuous feature. Standard
    deviations use the n-1 convention; a single-row fit makes every column
    constant rather than dividing by zero.
    """
    if method not in SCALER_METHODS:
        raise DatasetError(f"unknown scaling method {method!r}")
    if feature_names is None:
        feature_names = [f.name for f in ds.features if f.kind == "continuous"]
    names = tuple(feature_names)
    cols = np.array([ds.feature_index(n) for n in names], dtype=np.int64)
    if cols.size == 0:
        raise DatasetError("no features to scale")
    block = ds.values[:, cols]
    mean = block.mean(axis=0)
    sd = block.std(axis=0, ddof=1) if ds.rows > 1 else np.zeros(len(names))
    lo = block.min(axis=0)
    hi = block.max(axis=0)
    if method == "standardize":
        constant = sd == 0.0
    else:
        constant = (hi - lo) == 0.0
    return ScalerParams(
        method=method,
        names=names,
        mean=mean,
        sd=sd,
        min=lo,
        max=hi,
        constant=constant,
    )


def _denominator(params: ScalerParams) -> np.ndarray:
    if params.method == "standardize":
        denom = params.sd.copy()
    else:
        denom = params.max - params.min
    denom[params.constant] = 1.0  # flagged columns bypass division
    return denom


def _center(params: ScalerParams) -> np.ndarray:
    if params.method == "minmax":
        return params.min
    return params.mean


def apply_scaler(ds: Dataset, params: ScalerParams) -> Dataset:
    """Transform the fitted columns; everything else passes through."""
    cols = np.array([ds.feature_index(n) for n in params.names], dtype=np.int64)
    values = ds.values.copy()
    block = values[:, cols]
    scaled = (block - _center(params)) / _denominator(params)
    scaled[:, params.constant] = 0.0
    values[:, cols] = scaled
    return Dataset(
        features=ds.features,
        values=values,
        labels=ds.labels,
    )


def invert_scaler(ds: Dataset, params: ScalerParams) -> Dataset:
    """Undo :func:`apply_scaler`; flagged constant columns restore their center."""
    cols = np.array([ds.feature_index(n) for n in params.names], dtype=np.int64)
    values = ds.values.copy()
    block = values[:, cols]
    restored = block * _denominator(params) + _center(params)
    restored[:, params.constant] = np.broadcast_to(
        _center(params), block.shape
    )[:, params.constant]
    values[:, cols] = restored
    return Dataset(
        features=ds.features,
        values=values,
        labels=ds.labels,
    )


def scaler_to_text(params: ScalerParams) -> str:
    """Readable key-value form of the fitted statistics.

    One block per feature; floats use repr so a round trip is exact and a
    rewrite of identical statistics is byte-identical.
    """
    lines = [f"method = {params.method}"]
    for i, name in enumerate(params.names):
        if "=" in name or "\n" in name:
            raise DatasetError(f"feature name {name!r} cannot be serialized")
        lines.append(f"feature = {name}")
        lines.append(f"mean = {float(params.mean[i])!r}")
        lines.append(f"sd = {float(params.sd[i])!r}")
        lines.append(f"min = {float(params.min[i])!r}")
        lines.append(f"max = {float(params.max[i])!r}")
        lines.append(f"constant = {int(params.constant[i])}")
    return "\n".join(lines) + "\n"


def scaler_from_text(text: str) -> ScalerParams:
    """Inverse of :func:`scaler_to_text`."""
    method = None
    names: list[str] = []
    stats: dict[str, list[float]] = {"mean": [], "sd": [], "min": [], "max": []}
    constant: list[bool] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if " = " not in line:
            raise DatasetError(f"scaler text line {lineno}: expected 'key = value'")
        key, value = line.split(" = ", 1)
        if key == "method":
            method = value
        elif key == "feature":
            names.append(value)
        elif key in stats:
            stats[key].append(float(value))
        elif key == "constant":
            constant.append(bool(int(value)))
        else:
            raise DatasetError(f"scaler text line {lineno}: unknown key {key!r}")
    if method not in SCALER_METHODS:
        raise DatasetError(f"scaler text: unknown or missing method {method!r}")
    counts = {len(v) for v in stats.values()} | {len(constant)}
    if counts != {len(names)} or not names:
        raise DatasetError("scaler text: incomplete feature blocks")
    return ScalerParams(
        method=method,
        names=tuple(names),
        mean=np.array(stats["mean"]),
        sd=np.array(stats["sd"]),
        min=np.array(stats["min"]),
        max=np.array(stats["max"]),
        constant=np.array(constant, dtype=bool),
    )


def one_hot(ds: Dataset) -> Dataset:
    """Expand categorical features into full-level indicator columns.

    Each categorical feature with L levels becomes L binary columns named
    ``feature=level``, replacing the original column in place (no reference
    level is dropped). Other features pass through untouched.
    """
    features: list[Feature] = []
    columns: list[np.ndarray] = []
    for j, feat in enumerate(ds.features):
        col = ds.values[:, j]
        if feat.kind != "categorical":
            features.append(feat)
            columns.append(col)
            continue
        for idx, level in enumerate(feat.levels):
            features.append(Feature(f"{feat.name}={level}", "binary"))
            columns.append((col == idx).astype(np.float64))
    return Dataset(
        features=tuple(features),
        values=np.column_stack(columns),
        labels=ds.labels,
    )


DECILES = tuple(range(10, 100, 10))


def conditional_summary(ds: Dataset, label: str) -> list[dict[str, float | str | int]]:
    """Per-feature, per-class location and spread with deciles d10..d90.

    Returns one record per (feature, class) pair in feature order, class 0
    first. Categorical features are summarized over their level indices.
    Standard deviations use n-1; a single-row class reports sd as nan.
    """
    y = ds.label(label)
    records: list[dict[str, float | str | int]] = []
    for j, feat in enumerate(ds.features):
        col = ds.values[:, j]
        for cls in (0, 1):
            part = col[y == cls]
            rec: dict[str, float | str | int] = {"feature": feat.name, "class": cls}
            if part.size == 0:
                rec["mean"] = float("nan")
                rec["sd"] = float("nan")
                for d in DECILES:
                    rec[f"d{d}"] = float("nan")
            else:
                rec["mean"] = float(part.mean())
                rec["sd"] = float(part.std(ddof=1)) if part.size > 1 else float("nan")
                qs = np.quantile(part, [d / 100 for d in DECILES])
                for d, q in zip(DECILES, qs):
                    rec[f"d{d}"] = float(q)
            records.append(rec)
    return records


def write_conditional_summary(path: str, ds: Dataset, label: str) -> None:
    records = conditional_summary(ds, label)
    header = ["feature", "class", "mean", "sd"] + [f"d{d}" for d in DECILES]
    write_table(path, header, ([rec[key] for key in header] for rec in records))
