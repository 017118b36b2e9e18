"""Run configuration for the batch pipeline.

A run is described by a flat INI-style file: ``#`` comments, ``key = value``
lines, typed sections. ``[run]`` names the seed, output directory, and label;
``[data]`` picks exactly one source (a bundled synthetic benchmark or a
CSV/schema pair); ``[split]``, ``[preprocess]``, and ``[tuning]`` hold the
stage knobs; each ``[model:<kind>]`` section lists a hyperparameter grid
(comma-separated candidates, space-separated tuple entries); an optional
``[autoencoder]`` section configures anomaly detection.

Values are typed by shape: integers, floats, ``true``/``false``, bare
strings, and space-separated tuples. ``format_value`` is the exact inverse
of ``parse_value``, so artifacts that echo configuration (chosen grid
points, manifests) round-trip losslessly.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field

from .anomaly import (
    DEFAULT_ACTIVATIONS, DEFAULT_AUTOENCODER_FEATURES, DEFAULT_HIDDEN, ERROR_KINDS, OBJECTIVES,
)
from .benchmarks import BENCHMARKS, benchmark_spec
from .dataset import load_schema
from .neural import LOSSES
from .preprocess import SCALER_METHODS
from .tune import METRICS, _REGISTRY

__all__ = [
    "ConfigError",
    "ModelGrid",
    "AutoencoderConfig",
    "RunConfig",
    "parse_scalar",
    "parse_value",
    "parse_values",
    "format_value",
    "load_config",
]

_SECTION_KEYS = {
    "run": ("seed", "out_dir", "label"),
    "data": ("synth", "n", "csv", "schema", "missing"),
    "split": ("fraction",),
    "preprocess": ("scaler", "features"),
    "tuning": ("k", "repeats", "subset_frac", "metric"),
    "autoencoder": (
        "features",
        "hidden",
        "activations",
        "loss",
        "activity_l2",
        "epochs",
        "batch_size",
        "learning_rate",
        "scaler",
        "objective",
        "band_lo",
        "band_hi",
        "error",
    ),
}


class ConfigError(ValueError):
    """Unusable run configuration; the message names the offending field."""


def parse_scalar(token: str):
    """One typed token: int, float, bool, or bare string."""
    text = token.strip()
    if text == "":
        raise ConfigError("empty value")
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    if low in ("none", "null"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_value(text: str):
    """A single value; several space-separated tokens form a tuple."""
    tokens = text.split()
    if not tokens:
        raise ConfigError("empty value")
    if len(tokens) == 1:
        return parse_scalar(tokens[0])
    return tuple(parse_scalar(tok) for tok in tokens)


def parse_values(text: str) -> list:
    """A comma-separated candidate list of typed values."""
    parts = [part for part in text.split(",")]
    if not parts or any(part.strip() == "" for part in parts):
        raise ConfigError(f"malformed value list {text!r}")
    return [parse_value(part) for part in parts]


def format_value(value) -> str:
    """Inverse of :func:`parse_value`."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return " ".join(format_value(v) for v in value)
    return str(value)


@dataclass(frozen=True)
class ModelGrid:
    """One model family with its hyperparameter candidates."""

    kind: str
    grid: dict[str, list] = field(default_factory=dict)

    def single_point(self) -> dict | None:
        """The grid's only point, or None when tuning must choose."""
        point = {}
        for key, values in self.grid.items():
            if len(values) != 1:
                return None
            point[key] = values[0]
        return point


@dataclass(frozen=True)
class AutoencoderConfig:
    features: tuple[str, ...] = DEFAULT_AUTOENCODER_FEATURES
    hidden: tuple[int, ...] = DEFAULT_HIDDEN
    activations: tuple[str, ...] = DEFAULT_ACTIVATIONS
    loss: str = "cosine_proximity"
    activity_l2: float = 1e-4
    epochs: int = 10
    batch_size: int = 512
    learning_rate: float = 0.001
    scaler: str = "minmax"
    objective: str | None = "youden"
    band_lo: float | None = None
    band_hi: float = float("inf")
    error: str = "l2"


@dataclass(frozen=True)
class RunConfig:
    seed: int
    out_dir: str
    label: str
    synth: str | None
    synth_n: int | None
    csv: str | None
    schema: str | None
    missing: str
    fraction: float
    scaler: str
    scale_features: tuple[str, ...] | None
    k: int
    repeats: int
    subset_frac: float
    metric: str
    models: tuple[ModelGrid, ...]
    autoencoder: AutoencoderConfig | None
    raw: dict[str, dict[str, str]] = field(default_factory=dict, compare=False)

    def source_columns(self) -> dict[str, str]:
        """Column -> kind map of the configured data source (label included)."""
        if self.synth is not None:
            spec = benchmark_spec(self.synth, seed=self.seed)
            columns = {m.name: m.kind for m in spec.feature_marginals}
            columns[spec.label_name] = "label"
            return columns
        return load_schema(self.schema)


def _get(parser, section, key, fallback=None):
    if parser.has_option(section, key):
        return parser.get(section, key).strip()
    return fallback


def _require(parser, section, key) -> str:
    value = _get(parser, section, key)
    if value is None or value == "":
        raise ConfigError(f"[{section}] {key} is required")
    return value


def _typed(section: str, key: str, text: str, want: type):
    value = parse_scalar(text)
    if want is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, want) or isinstance(value, bool) is not (want is bool):
        raise ConfigError(f"[{section}] {key}: expected {want.__name__}, got {text!r}")
    return value


def _names(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(","))
    if any(not name for name in names):
        raise ConfigError(f"malformed name list {text!r}")
    return names


def _check_keys(parser, section: str) -> None:
    allowed = _SECTION_KEYS[section]
    for key in parser.options(section):
        if key not in allowed:
            raise ConfigError(f"[{section}] unknown key {key!r}")


def _parse_autoencoder(parser) -> AutoencoderConfig:
    section = "autoencoder"
    _check_keys(parser, section)
    defaults = AutoencoderConfig()
    features = defaults.features
    if _get(parser, section, "features"):
        features = _names(parser.get(section, "features"))
    hidden = defaults.hidden
    if _get(parser, section, "hidden"):
        value = parse_value(parser.get(section, "hidden"))
        hidden = value if isinstance(value, tuple) else (value,)
        if not all(isinstance(w, int) and w > 0 for w in hidden):
            raise ConfigError("[autoencoder] hidden: widths must be positive integers")
    activations = defaults.activations
    if _get(parser, section, "activations"):
        activations = _names(parser.get(section, "activations"))
    if len(activations) != len(hidden) + 1:
        raise ConfigError(
            f"[autoencoder] activations: need {len(hidden) + 1} entries, got {len(activations)}"
        )
    objective: str | None = defaults.objective
    if _get(parser, section, "objective"):
        objective = parser.get(section, "objective").strip()
        if objective not in OBJECTIVES:
            raise ConfigError(f"[autoencoder] objective: unknown objective {objective!r}")
    band_lo = None
    if _get(parser, section, "band_lo"):
        band_lo = _typed(section, "band_lo", parser.get(section, "band_lo"), float)
        if parser.has_option(section, "objective"):
            raise ConfigError("[autoencoder] band_lo and objective are mutually exclusive")
        objective = None
    band_hi = defaults.band_hi
    if _get(parser, section, "band_hi"):
        text = parser.get(section, "band_hi").strip()
        band_hi = float("inf") if text == "inf" else _typed(section, "band_hi", text, float)
    for key, edge in (("band_lo", band_lo), ("band_hi", band_hi)):
        if edge is not None and math.isnan(edge):
            raise ConfigError(f"[autoencoder] {key}: band edges must not be nan")
    if band_lo is not None and band_lo > band_hi:
        raise ConfigError("[autoencoder] band_lo must not exceed band_hi")
    scaler = _get(parser, section, "scaler", defaults.scaler)
    if scaler not in SCALER_METHODS:
        raise ConfigError(f"[autoencoder] scaler: unknown method {scaler!r}")
    error = _get(parser, section, "error", defaults.error)
    if error not in ERROR_KINDS:
        raise ConfigError(f"[autoencoder] error: unknown error kind {error!r}")
    loss = _get(parser, section, "loss", defaults.loss)
    if loss not in LOSSES:
        raise ConfigError(f"[autoencoder] loss: unknown loss {loss!r}")
    return AutoencoderConfig(
        features=features,
        hidden=hidden,
        activations=activations,
        loss=loss,
        activity_l2=_typed(
            section, "activity_l2",
            _get(parser, section, "activity_l2", format_value(defaults.activity_l2)), float,
        ),
        epochs=_typed(section, "epochs", _get(parser, section, "epochs", "10"), int),
        batch_size=_typed(
            section, "batch_size", _get(parser, section, "batch_size", "512"), int,
        ),
        learning_rate=_typed(
            section, "learning_rate", _get(parser, section, "learning_rate", "0.001"), float,
        ),
        scaler=scaler,
        objective=objective,
        band_lo=band_lo,
        band_hi=band_hi,
        error=error,
    )


def load_config(
    path: str, out_dir: str | None = None, seed: int | None = None
) -> RunConfig:
    """Parse and validate a run configuration file.

    ``out_dir`` and ``seed`` override the file when given (the command-line
    flags). Every referenced feature and label is checked against the
    configured data source, so a bad name fails here rather than mid-run.
    """
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#",), interpolation=None
    )
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    models: list[ModelGrid] = []
    for section in parser.sections():
        if section.startswith("model:"):
            kind = section.split(":", 1)[1]
            if kind not in _REGISTRY:
                raise ConfigError(
                    f"[{section}] unknown model kind {kind!r}"
                    f" (have {', '.join(_REGISTRY)})"
                )
            if any(m.kind == kind for m in models):
                raise ConfigError(f"[{section}] duplicate model section")
            params = _REGISTRY[kind].params
            grid: dict[str, list] = {}
            for key in parser.options(section):
                if key not in params:
                    raise ConfigError(
                        f"[{section}] unknown hyperparameter {key!r}"
                        f" (have {', '.join(params)})"
                    )
                grid[key] = parse_values(parser.get(section, key))
            models.append(ModelGrid(kind=kind, grid=grid))
        elif section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        else:
            _check_keys(parser, section)

    for required in ("run", "data"):
        if not parser.has_section(required):
            raise ConfigError(f"missing section [{required}]")

    synth = _get(parser, "data", "synth")
    csv_path = _get(parser, "data", "csv")
    schema_path = _get(parser, "data", "schema")
    if (synth is None) == (csv_path is None):
        raise ConfigError("[data] exactly one of synth or csv must be set")
    if synth is not None and synth not in BENCHMARKS:
        raise ConfigError(
            f"[data] synth: unknown benchmark {synth!r}"
            f" (have {', '.join(sorted(BENCHMARKS))})"
        )
    if csv_path is not None and schema_path is None:
        raise ConfigError("[data] schema is required with csv")
    if synth is not None and schema_path is not None:
        raise ConfigError("[data] schema only applies to csv sources")
    synth_n = None
    if _get(parser, "data", "n"):
        if synth is None:
            raise ConfigError("[data] n only applies to synth sources")
        synth_n = _typed("data", "n", parser.get("data", "n"), int)
        if synth_n < 1:
            raise ConfigError("[data] n must be >= 1")
    missing = _get(parser, "data", "missing", "error")
    if missing not in ("error", "impute"):
        raise ConfigError(f"[data] missing: unknown policy {missing!r}")
    if missing != "error" and synth is not None:
        raise ConfigError("[data] missing only applies to csv sources")

    if seed is None:
        seed = _typed("run", "seed", _get(parser, "run", "seed", "0"), int)
    if out_dir is None:
        out_dir = _require(parser, "run", "out_dir")
    label = _require(parser, "run", "label")

    fraction = _typed("split", "fraction", _get(parser, "split", "fraction", "0.8"), float) \
        if parser.has_section("split") else 0.8
    if not 0.0 < fraction < 1.0:
        raise ConfigError("[split] fraction must lie strictly between 0 and 1")

    scaler = "standardize"
    scale_features: tuple[str, ...] | None = None
    if parser.has_section("preprocess"):
        scaler = _get(parser, "preprocess", "scaler", scaler)
        if _get(parser, "preprocess", "features"):
            scale_features = _names(parser.get("preprocess", "features"))
    if scaler not in SCALER_METHODS:
        raise ConfigError(f"[preprocess] scaler: unknown method {scaler!r}")

    k, repeats, subset_frac, metric = 5, 1, 1.0, "auc"
    if parser.has_section("tuning"):
        k = _typed("tuning", "k", _get(parser, "tuning", "k", "5"), int)
        repeats = _typed("tuning", "repeats", _get(parser, "tuning", "repeats", "1"), int)
        subset_frac = _typed(
            "tuning", "subset_frac", _get(parser, "tuning", "subset_frac", "1.0"), float
        )
        metric = _get(parser, "tuning", "metric", metric)
    if k < 2:
        raise ConfigError("[tuning] k must be >= 2")
    if repeats < 1:
        raise ConfigError("[tuning] repeats must be >= 1")
    if not 0.0 < subset_frac <= 1.0:
        raise ConfigError("[tuning] subset_frac must lie in (0, 1]")
    if metric not in METRICS:
        raise ConfigError(
            f"[tuning] metric: unknown metric {metric!r} (have {', '.join(METRICS)})"
        )

    autoencoder = _parse_autoencoder(parser) if parser.has_section("autoencoder") else None
    if not models and autoencoder is None:
        raise ConfigError("configure at least one [model:<kind>] or [autoencoder] section")

    raw = {s: dict(parser.items(s)) for s in parser.sections()}
    cfg = RunConfig(
        seed=seed,
        out_dir=out_dir,
        label=label,
        synth=synth,
        synth_n=synth_n,
        csv=csv_path,
        schema=schema_path,
        missing=missing,
        fraction=fraction,
        scaler=scaler,
        scale_features=scale_features,
        k=k,
        repeats=repeats,
        subset_frac=subset_frac,
        metric=metric,
        models=tuple(models),
        autoencoder=autoencoder,
        raw=raw,
    )
    _check_columns(cfg)
    return cfg


def _check_columns(cfg: RunConfig) -> None:
    """Fail fast when a referenced column is absent from the data source."""
    if cfg.csv is not None and not os.path.exists(cfg.csv):
        raise ConfigError(f"[data] csv: no such file {cfg.csv!r}")
    try:
        columns = cfg.source_columns()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"[data] cannot inspect source columns: {exc}") from exc
    if columns.get(cfg.label) != "label":
        raise ConfigError(f"[run] label: no label column {cfg.label!r} in the data source")
    feature_names = {name for name, kind in columns.items() if kind != "label"}
    for name in cfg.scale_features or ():
        if name not in feature_names:
            raise ConfigError(f"[preprocess] features: unknown feature {name!r}")
    if cfg.autoencoder is not None:
        for name in cfg.autoencoder.features:
            if name not in feature_names:
                raise ConfigError(f"[autoencoder] features: unknown feature {name!r}")
