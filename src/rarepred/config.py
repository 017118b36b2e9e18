"""Run configuration for the batch pipeline.

A run is described by a flat INI-style file: ``#`` comments, ``key = value``
lines, typed sections. ``[run]`` names the seed, output directory, and label;
``[data]`` picks exactly one source (a bundled synthetic benchmark or a
CSV/schema pair); ``[split]``, ``[preprocess]``, and ``[tuning]`` hold the
stage knobs; each ``[model:<kind>]`` section lists a hyperparameter grid
(comma-separated candidates, space-separated tuple entries); an optional
``[autoencoder]`` section configures anomaly detection.

Each key of the fixed sections is declared once, in ``_SECTIONS``: its
field, default, and the parser that types and bounds it. One reader applies
the table, so an unknown key, an empty or a bad value fails with a
``ConfigError`` that starts ``[section] key:``; ``load_config`` spells out
only the rules that tie keys together. README's config reference lists it.
``_MODELS`` types and bounds each model kind's grid candidates the same way.

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
from .neural import ACTIVATIONS, DEFAULT_HIDDEN as FFN_HIDDEN, LOSSES
from .preprocess import SCALER_METHODS
from .trees import SPLIT_RULES
from .tune import METRICS

__all__ = [
    "ConfigError", "ModelGrid", "AutoencoderConfig", "RunConfig", "parse_scalar",
    "parse_value", "parse_values", "parse_param", "format_value", "load_config",
]


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


def parse_values(text: str, parse=parse_value) -> list:
    """A comma-separated candidate list of values, each typed by ``parse``."""
    parts = [part.strip() for part in text.split(",")]
    if not all(parts):
        raise ConfigError(f"malformed value list {text!r}")
    return [parse(part) for part in parts]


def parse_param(kind: str, key: str, text: str):
    """One value of hyperparameter ``key`` of ``[model:<kind>]``, as its grid reads it."""
    return _MODELS[kind][key](text)


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


# Value parsers: each takes the stripped, nonempty text of one key and
# returns its value or raises a ConfigError that _section prefixes.


def _number(want: type, bound: str = "", ok=lambda value: True, cast: bool = True):
    """A ``want`` passing ``ok``; an int is accepted as a float, and made one when ``cast``."""
    expected = f"expected {want.__name__} {bound}".rstrip()

    def parse(text: str):
        value = parse_scalar(text)
        number = float(value) if want is float and type(value) is int else value
        if type(number) is not want or not ok(number):
            raise ConfigError(f"{expected}, got {text!r}")
        return number if cast else value

    return parse


def _choice(options):
    def parse(text: str) -> str:
        if text not in options:
            raise ConfigError(f"unknown value {text!r} (have {', '.join(options)})")
        return text

    return parse


def _names(allowed=None):
    """A comma-separated list of names, each one of ``allowed`` when given."""
    check = _choice(allowed) if allowed is not None else str

    def parse(text: str) -> tuple[str, ...]:
        names = tuple(part.strip() for part in text.split(","))
        if not all(names):
            raise ConfigError(f"malformed name list {text!r}")
        return tuple(check(name) for name in names)

    return parse


def _widths(text: str) -> tuple[int, ...]:
    value = parse_value(text)
    widths = value if isinstance(value, tuple) else (value,)
    if not all(type(w) is int and w > 0 for w in widths):
        raise ConfigError("widths must be positive integers")
    return widths


def _rates(text: str) -> tuple | None:
    """Dropout rates of the leading layers, each in [0, 1), or ``none`` for the defaults."""
    value = parse_value(text)
    rates = value if isinstance(value, tuple) else (value,)
    if value is not None and not all(type(r) in (int, float) and 0 <= r < 1 for r in rates):
        raise ConfigError("rates must be numbers in [0, 1)")
    return None if value is None else rates


def _edge(text: str) -> float:
    value = _number(float)(text)
    if math.isnan(value):
        raise ConfigError("band edges must not be nan")
    return value


_REQUIRED = object()  # default of a key that must be given

_COUNT = _number(int, ">= 1", lambda v: v >= 1)
_NONNEGATIVE = _number(float, ">= 0", lambda v: 0 <= v < math.inf, cast=False)

# model kind -> {hyperparameter: parser of one grid candidate}, in tune._REGISTRY's
# order; a float keeps an int candidate an int, as best_params.txt echoes it
_MODELS = {
    "logit": {"tol": _NONNEGATIVE, "max_iter": _COUNT},
    "elastic_net": {"lam": _NONNEGATIVE,
                    "alpha": _number(float, "in [0, 1]", lambda v: 0 <= v <= 1, cast=False),
                    "tol": _NONNEGATIVE, "max_sweeps": _COUNT},
    "cart": {"cp": _NONNEGATIVE, "min_split_obs": _COUNT},
    "forest": {"n_trees": _COUNT,
               "mtry": lambda text: None if parse_scalar(text) is None else _COUNT(text),
               "min_node": _COUNT, "split_rule": _choice(SPLIT_RULES), "bootstrap": _number(bool)},
    "ffn": {"hidden": _widths, "dropout": _rates, "epochs": _COUNT, "batch_size": _COUNT,
            "lr": _number(float, "> 0", lambda v: 0 < v < math.inf, cast=False)},
}
_REQUIRED_PARAMS = {"elastic_net": ("lam", "alpha")}  # the others take the fit's default

# section -> {key: (field, default, parse)}; the fields of every section but
# [autoencoder] are RunConfig's, those of [autoencoder] AutoencoderConfig's
_SECTIONS = {
    "run": {
        "seed": ("seed", 0, _number(int)),
        "out_dir": ("out_dir", _REQUIRED, str),
        "label": ("label", _REQUIRED, str),
    },
    "data": {
        "synth": ("synth", None, _choice(tuple(BENCHMARKS))),
        "n": ("synth_n", None, _COUNT),
        "csv": ("csv", None, str),
        "schema": ("schema", None, str),
        "missing": ("missing", "error", _choice(("error", "impute"))),
    },
    "split": {
        "fraction": ("fraction", 0.8, _number(float, "in (0, 1)", lambda v: 0 < v < 1)),
    },
    "preprocess": {
        "scaler": ("scaler", "standardize", _choice(SCALER_METHODS)),
        "features": ("scale_features", None, _names()),
    },
    "tuning": {
        "k": ("k", 5, _number(int, ">= 2", lambda v: v >= 2)),
        "repeats": ("repeats", 1, _COUNT),
        "subset_frac": ("subset_frac", 1.0, _number(float, "in (0, 1]", lambda v: 0 < v <= 1)),
        "metric": ("metric", "auc", _choice(METRICS)),
    },
    "autoencoder": {
        "features": ("features", DEFAULT_AUTOENCODER_FEATURES, _names()),
        "hidden": ("hidden", DEFAULT_HIDDEN, _widths),
        "activations": ("activations", DEFAULT_ACTIVATIONS, _names(ACTIVATIONS)),
        "loss": ("loss", "cosine_proximity", _choice(LOSSES)),
        "activity_l2": ("activity_l2", 1e-4, _number(float, ">= 0", lambda v: 0 <= v < math.inf)),
        "epochs": ("epochs", 10, _COUNT),
        "batch_size": ("batch_size", 512, _COUNT),
        "learning_rate": ("learning_rate", 0.001, _number(float, "> 0", lambda v: 0 < v < math.inf)),
        "scaler": ("scaler", "minmax", _choice(SCALER_METHODS)),
        "objective": ("objective", "youden", _choice(OBJECTIVES)),
        "band_lo": ("band_lo", None, _edge),
        "band_hi": ("band_hi", math.inf, _edge),
        "error": ("error", "l2", _choice(ERROR_KINDS)),
    },
}


def _section(parser, name: str, given: dict | None = None) -> dict:
    """Field values of section ``name``: ``given`` (when not None), else the
    file's value, else the default. A key ``given`` fills is never parsed."""
    table = _SECTIONS[name]
    present = parser.options(name) if parser.has_section(name) else []
    for key in present:
        if key not in table:
            raise ConfigError(f"[{name}] unknown key {key!r}")
    values = {}
    for key, (fld, default, parse) in table.items():
        if given and given.get(fld) is not None:
            values[fld] = given[fld]
        elif key in present:
            text = parser.get(name, key).strip()
            try:
                if not text:
                    raise ConfigError("empty value")
                values[fld] = parse(text)
            except ConfigError as exc:
                raise ConfigError(f"[{name}] {key}: {exc}") from None
        elif default is _REQUIRED:
            raise ConfigError(f"[{name}] {key}: required key is missing")
        else:
            values[fld] = default
    return values


@dataclass(frozen=True)
class ModelGrid:
    """One model family with its hyperparameter candidates."""

    kind: str
    grid: dict[str, list] = field(default_factory=dict)

    def single_point(self) -> dict | None:
        """The grid's only point, or None when tuning must choose."""
        if any(len(values) != 1 for values in self.grid.values()):
            return None
        return {key: values[0] for key, values in self.grid.items()}


@dataclass(frozen=True)
class AutoencoderConfig:
    """The ``[autoencoder]`` section; its defaults live in ``_SECTIONS``."""

    features: tuple[str, ...]
    hidden: tuple[int, ...]
    activations: tuple[str, ...]
    loss: str
    activity_l2: float
    epochs: int
    batch_size: int
    learning_rate: float
    scaler: str
    objective: str | None
    band_lo: float | None
    band_hi: float
    error: str


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


def load_config(path: str, out_dir: str | None = None, seed: int | None = None) -> RunConfig:
    """Parse and validate a run configuration file.

    ``out_dir`` and ``seed`` override the file when given (the command-line
    flags). Every referenced feature and label is checked against the
    configured data source, so a bad name fails here rather than mid-run.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8-sig") as fh:
            parser.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    models: list[ModelGrid] = []
    for section in parser.sections():
        if not section.startswith("model:"):
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]")
            continue
        kind = section.split(":", 1)[1]
        if kind not in _MODELS:
            raise ConfigError(
                f"[{section}] unknown model kind {kind!r} (have {', '.join(_MODELS)})"
            )
        params = _MODELS[kind]
        grid: dict[str, list] = {}
        for key in parser.options(section):
            if key not in params:
                raise ConfigError(
                    f"[{section}] unknown hyperparameter {key!r} (have {', '.join(params)})"
                )
            try:
                grid[key] = parse_values(parser.get(section, key), params[key])
            except ConfigError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
        for key in _REQUIRED_PARAMS.get(kind, ()):
            if key not in grid:
                raise ConfigError(f"[{section}] {key}: required key is missing")
        if kind == "ffn":  # every (hidden, dropout) pair of the grid must fit
            rates = max((len(r) for r in grid.get("dropout", ()) if r is not None), default=0)
            if rates > min(map(len, grid.get("hidden", [FFN_HIDDEN]))):
                raise ConfigError(f"[{section}] dropout: a candidate has {rates} rates but a"
                                  " hidden candidate has fewer layers")
        models.append(ModelGrid(kind=kind, grid=grid))
    for required in ("run", "data"):
        if not parser.has_section(required):
            raise ConfigError(f"missing section [{required}]")

    fields: dict = {}
    for name in _SECTIONS:
        if name != "autoencoder":
            fields.update(_section(parser, name, {"seed": seed, "out_dir": out_dir}))
    if (fields["synth"] is None) == (fields["csv"] is None):
        raise ConfigError("[data] exactly one of synth or csv must be set")
    if fields["csv"] is not None and fields["schema"] is None:
        raise ConfigError("[data] schema is required with csv")
    source = "synth" if fields["synth"] is not None else "csv"
    for key, only in (("schema", "csv"), ("n", "synth"), ("missing", "csv")):
        if parser.has_option("data", key) and source != only:
            raise ConfigError(f"[data] {key} only applies to {only} sources")

    autoencoder = None
    if parser.has_section("autoencoder"):
        ae = _section(parser, "autoencoder")
        if len(ae["activations"]) != len(ae["hidden"]) + 1:
            raise ConfigError(
                f"[autoencoder] activations: need {len(ae['hidden']) + 1} entries,"
                f" got {len(ae['activations'])}"
            )
        if ae["band_lo"] is not None:
            if parser.has_option("autoencoder", "objective"):
                raise ConfigError("[autoencoder] band_lo and objective are mutually exclusive")
            if ae["band_lo"] > ae["band_hi"]:
                raise ConfigError("[autoencoder] band_lo must not exceed band_hi")
            ae["objective"] = None
        autoencoder = AutoencoderConfig(**ae)
    if not models and autoencoder is None:
        raise ConfigError("configure at least one [model:<kind>] or [autoencoder] section")

    cfg = RunConfig(
        **fields,
        models=tuple(models),
        autoencoder=autoencoder,
        raw={s: dict(parser.items(s)) for s in parser.sections()},
    )
    _check_columns(cfg)
    if autoencoder is not None and min(autoencoder.hidden) >= len(autoencoder.features):
        raise ConfigError(
            f"[autoencoder] hidden: bottleneck width {min(autoencoder.hidden)} must be smaller"
            f" than the {len(autoencoder.features)} features"
        )
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
    for mtry in (m for mg in cfg.models for m in mg.grid.get("mtry", ()) if m is not None):
        if mtry > len(feature_names):
            raise ConfigError(f"[model:forest] mtry: candidate {mtry} exceeds the"
                              f" {len(feature_names)} features")
    if cfg.autoencoder is not None:
        for name in cfg.autoencoder.features:
            if name not in feature_names:
                raise ConfigError(f"[autoencoder] features: unknown feature {name!r}")
