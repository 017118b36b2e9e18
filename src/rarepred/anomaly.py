"""Autoencoder anomaly scoring with threshold-band classification.

The detector never sees positive rows during training: it learns to
reconstruct the majority class and scores every row by how badly it
reconstructs. Rows whose score lands inside a calibrated band are flagged
positive. The default reconstruction head ends in relu, so feed it
nonnegative inputs (minmax-scaled features work well).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, DatasetError, _write_blocks
from .evaluate import _as_binary, _band_counts
from .neural import Network, fit_network, forward, glorot_init
from .rng import child_seed, generator

__all__ = [
    "Autoencoder",
    "ThresholdBand",
    "DEFAULT_AUTOENCODER_FEATURES",
    "train_autoencoder",
    "score_dataset",
    "classify_band",
    "calibrate_band",
    "write_scores",
]

# Default input schema: the 11 numeric patent metrics produced by the
# bundled benchmark generators, giving the stock 11-9-4-4-11 architecture.
DEFAULT_AUTOENCODER_FEATURES = (
    "sim.past",
    "sim.present",
    "patent_scope",
    "family_size",
    "bwd_cits",
    "npl_cits",
    "claims_bwd",
    "originality",
    "radicalness",
    "nb_applicants",
    "nb_inventors",
)

DEFAULT_HIDDEN = (9, 4, 4)
DEFAULT_ACTIVATIONS = ("tanh", "relu", "tanh", "relu")
ERROR_KINDS = ("l2", "squared_l2")
OBJECTIVES = ("youden", "f1")


@dataclass
class Autoencoder:
    """Trained reconstruction network plus its training recipe."""

    feature_names: tuple[str, ...]
    net: Network
    loss: str
    activity_l2: float
    seed: int
    epochs: int
    batch_size: int
    lr: float
    n_train_rows: int
    loss_path: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class ThresholdBand:
    """Closed score interval; rows with lo <= score <= hi are positive."""

    lo: float
    hi: float = math.inf

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise DatasetError("band edges must not be nan")
        if self.hi < self.lo:
            raise DatasetError("band needs lo <= hi")


def train_autoencoder(
    ds: Dataset,
    label: str | None = None,
    features: list[str] | tuple[str, ...] | None = None,
    hidden: list[int] | tuple[int, ...] = DEFAULT_HIDDEN,
    activations: list[str] | tuple[str, ...] = DEFAULT_ACTIVATIONS,
    loss_name: str = "cosine_proximity",
    activity_l2: float = 1e-4,
    epochs: int = 10,
    batch_size: int = 512,
    lr: float = 0.001,
    seed: int = 0,
) -> Autoencoder:
    """Fit a reconstruction network on the negative class only.

    With ``label`` given, positive rows are dropped from the training pool
    (scoring them later is the whole point); without it every row trains.
    The narrowest hidden width is the bottleneck and must be strictly
    smaller than the input width. The output layer always has input width.
    ``activity_l2`` penalizes the first hidden layer's activations.
    """
    names, X = ds.columns(features)
    if label is not None:
        keep = ds.label(label) == 0
        if not keep.any():
            raise DatasetError("no negative rows to train on")
        X = X[keep]
    k = len(names)
    if not hidden:
        raise DatasetError("autoencoder needs at least one hidden layer")
    if min(hidden) >= k:
        raise DatasetError(
            f"bottleneck width {min(hidden)} must be smaller than input width {k}"
        )
    widths = [k, *hidden, k]
    if len(activations) != len(widths) - 1:
        raise DatasetError(
            f"{len(widths) - 1} layers need {len(widths) - 1} activations,"
            f" got {len(activations)}"
        )
    rng = generator(child_seed(seed, "autoencoder"))
    net = glorot_init(widths, tuple(activations), None, rng)
    path = fit_network(
        net,
        X,
        X,
        loss_name,
        epochs=epochs,
        batch_size=batch_size,
        lr=lr,
        rng=rng,
        activity_l2=activity_l2,
    )
    return Autoencoder(
        feature_names=names,
        net=net,
        loss=loss_name,
        activity_l2=activity_l2,
        seed=seed,
        epochs=epochs,
        batch_size=batch_size,
        lr=lr,
        n_train_rows=X.shape[0],
        loss_path=path,
    )


def score_dataset(ae: Autoencoder, ds: Dataset, kind: str = "l2") -> np.ndarray:
    """Per-row distance between input and reconstruction, in row order, so
    higher means harder to reconstruct. ``l2`` is the Euclidean distance,
    ``squared_l2`` its square."""
    if kind not in ERROR_KINDS:
        raise DatasetError(f"unknown error kind {kind!r}")
    X = ds.columns(ae.feature_names)[1]
    recon = forward(ae.net, X)
    sq = np.sum((X - recon) ** 2, axis=1)
    return np.sqrt(sq) if kind == "l2" else sq


def classify_band(scores: np.ndarray, band: ThresholdBand) -> np.ndarray:
    """1 where the score lies inside the closed band, else 0."""
    s = np.asarray(scores, dtype=np.float64)
    return ((s >= band.lo) & (s <= band.hi)).astype(np.int64)


def calibrate_band(
    scores: np.ndarray,
    labels: np.ndarray,
    objective: str = "youden",
    hi: float = math.inf,
    n_candidates: int = 512,
) -> tuple[ThresholdBand, float]:
    """Pick the band's lower edge by scanning score quantiles.

    Candidates are the unique quantiles of the scores (``n_candidates``
    evenly spaced probabilities); the upper edge stays fixed at ``hi``.
    Returns the band maximizing the objective (``youden`` = sensitivity +
    specificity - 1, or ``f1``) together with the achieved value. Ties go
    to the lowest candidate, so calibration is deterministic.
    """
    if objective not in OBJECTIVES:
        raise DatasetError(f"unknown objective {objective!r}")
    s = np.asarray(scores, dtype=np.float64)
    y = _as_binary(labels, "labels")
    if s.shape != y.shape:
        raise DatasetError("scores and labels must be 1-d and aligned")
    if not np.all(np.isfinite(s)):
        raise DatasetError("scores must be finite")
    pos = int(y.sum())
    if pos in (0, y.size):
        raise DatasetError("calibration needs both classes")
    if n_candidates < 2:
        raise DatasetError("n_candidates must be >= 2")
    ThresholdBand(-math.inf, hi)  # rejects a nan hi
    qs = np.linspace(0.0, 1.0, n_candidates)
    candidates = np.unique(np.quantile(s, qs))
    if candidates[0] > hi:
        raise DatasetError(
            f"hi = {hi!r} lies below the lowest band candidate {float(candidates[0])!r}"
        )
    candidates = candidates[candidates <= hi]
    tp, fp = (c.astype(np.float64) for c in _band_counts(y, s, candidates, hi))
    fn, tn = pos - tp, y.size - pos - fp
    if objective == "youden":
        values = tp / (tp + fn) + tn / (tn + fp) - 1.0
    else:
        values = 2.0 * tp / (2.0 * tp + fp + fn)
    best = int(np.argmax(values))  # first maximum: ties go to the lowest candidate
    return ThresholdBand(float(candidates[best]), hi), float(values[best])


def write_scores(
    path: str, scores: np.ndarray, labels: np.ndarray | None = None
) -> None:
    """CSV of row_id,score,label in row order (label blank when unknown)."""
    s = np.asarray(scores, dtype=np.float64)
    y = None if labels is None else np.asarray(labels)
    if y is not None and len(y) != len(s):
        raise DatasetError("labels and scores differ in length")

    def block_cells(lo: int, hi: int) -> list:
        tags = [""] * (hi - lo) if y is None else map(str, y[lo:hi].astype(np.int64).tolist())
        return [map(str, range(lo, hi)), map(repr, s[lo:hi].tolist()), tags]

    _write_blocks(path, "row_id,score,label", len(s), block_cells)
