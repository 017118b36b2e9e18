"""Feature scaling and per-class summary tables.

Scalers are fit on one dataset (the training split) and applied to any
dataset sharing the feature layout, which keeps test-set statistics out of
the transform. Constant columns are flagged at fit time and map to 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, DatasetError, write_table

__all__ = [
    "ScalerParams",
    "fit_scaler",
    "apply_scaler",
    "conditional_summary",
    "write_conditional_summary",
]

SCALER_METHODS = ("standardize", "minmax", "meannorm")


@dataclass(frozen=True)
class ScalerParams:
    """Per-feature statistics frozen at fit time.

    ``constant`` marks columns with zero spread under the chosen method;
    those transform to 0. A scaler over no features is valid and leaves
    every value as it is. A scaler saves and loads like a model
    (``serialize.save_model``, kind ``scaler``).
    """

    method: str
    feature_names: tuple[str, ...]
    mean: np.ndarray
    sd: np.ndarray
    min: np.ndarray
    max: np.ndarray
    constant: np.ndarray

    def __post_init__(self) -> None:
        if self.method not in SCALER_METHODS:
            raise DatasetError(
                f"field 'method' = {self.method!r}, expected one of {', '.join(SCALER_METHODS)}"
            )
        k = len(self.feature_names)
        for field in ("mean", "sd", "min", "max", "constant"):
            if len(getattr(self, field)) != k:
                raise DatasetError(
                    f"field {field!r} has {len(getattr(self, field))} entries,"
                    f" 'feature_names' has {k}"
                )

    def stats_for(self, name: str) -> dict[str, float]:
        i = self.feature_names.index(name)
        stats = {key: float(getattr(self, key)[i]) for key in ("mean", "sd", "min", "max")}
        return {**stats, "constant": bool(self.constant[i])}


def fit_scaler(
    ds: Dataset, method: str, feature_names: list[str] | tuple[str, ...] | None = None
) -> ScalerParams:
    """Fit scaling statistics on the given dataset.

    ``feature_names`` defaults to every continuous feature; where there is
    none the scaler covers nothing and applying it is the identity. Standard
    deviations use the n-1 convention; a single-row fit makes every column
    constant rather than dividing by zero.
    """
    if feature_names is None:
        feature_names = [f.name for f in ds.features if f.kind == "continuous"]
    names = tuple(feature_names)
    cols = np.array([ds.feature_index(n) for n in names], dtype=np.int64)
    block = ds.values[:, cols]
    mean = block.mean(axis=0)
    sd = block.std(axis=0, ddof=1) if ds.rows > 1 else np.zeros(len(names))
    lo = block.min(axis=0)
    hi = block.max(axis=0)
    constant = sd == 0.0 if method == "standardize" else (hi - lo) == 0.0
    return ScalerParams(method, names, mean, sd, lo, hi, constant)


def apply_scaler(ds: Dataset, params: ScalerParams) -> Dataset:
    """Transform the fitted columns; everything else passes through."""
    center = params.min if params.method == "minmax" else params.mean
    denom = params.sd.copy() if params.method == "standardize" else params.max - params.min
    denom[params.constant] = 1.0  # flagged columns bypass division
    cols = [ds.feature_index(n) for n in params.feature_names]
    values = ds.values.copy()
    scaled = (values[:, cols] - center) / denom
    scaled[:, params.constant] = 0.0
    values[:, cols] = scaled
    return Dataset(features=ds.features, values=values, labels=ds.labels)


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
            rec["mean"] = float(part.mean()) if part.size else float("nan")
            rec["sd"] = float(part.std(ddof=1)) if part.size > 1 else float("nan")
            probs = [d / 100 for d in DECILES]
            qs = np.quantile(part, probs) if part.size else [np.nan] * len(probs)
            rec.update((f"d{d}", float(q)) for d, q in zip(DECILES, qs))
            records.append(rec)
    return records


def write_conditional_summary(path: str, ds: Dataset, label: str) -> None:
    records = conditional_summary(ds, label)
    header = ["feature", "class", "mean", "sd"] + [f"d{d}" for d in DECILES]
    write_table(path, header, ([rec[key] for key in header] for rec in records))
