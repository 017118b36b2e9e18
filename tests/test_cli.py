"""Configuration parsing and the batch pipeline front end."""

import ast
import hashlib
import inspect
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rarepred
from conftest import with_blas_threads
from rarepred import anomaly, cli, neural, tune
from rarepred.benchmarks import BENCHMARKS, benchmark_spec
from rarepred.cli import PipelineError, main, run
from rarepred.config import (
    _SECTIONS,
    ConfigError,
    format_value,
    load_config,
    parse_param,
    parse_scalar,
    parse_value,
    parse_values,
)
from rarepred.dataset import (
    Dataset, Feature, gather_csv, load_csv, load_schema, reads_back, stratified_split,
    synth_generate, write_csv, write_schema,
)
from rarepred.preprocess import SCALER_METHODS, fit_scaler
from rarepred.rng import child_seed
from rarepred.serialize import load_model, model_from_text, model_to_text


class TestValueGrammar:
    def test_scalar_types(self):
        assert parse_scalar("3") == 3 and isinstance(parse_scalar("3"), int)
        assert parse_scalar("0.5") == 0.5 and isinstance(parse_scalar("0.5"), float)
        assert parse_scalar("1e-4") == 1e-4
        assert parse_scalar("true") is True
        assert parse_scalar("false") is False
        assert parse_scalar("none") is None
        assert parse_scalar("gini") == "gini"

    def test_tuple_value(self):
        assert parse_value("22 20 15") == (22, 20, 15)
        assert parse_value(" 8 ") == 8

    def test_value_list(self):
        assert parse_values("0.001, 0.01, 0.1") == [0.001, 0.01, 0.1]
        assert parse_values("22 20, 10 5") == [(22, 20), (10, 5)]
        with pytest.raises(ConfigError):
            parse_values("1,,2")

    def test_format_round_trip(self):
        for value in (3, 0.125, 1e-7, True, False, None, "extratrees", (22, 20, 15)):
            assert parse_value(format_value(value)) == value


BASE = """
[run]
seed = 5
out_dir = {out}
label = outcome

[data]
synth = interaction
n = 600

[split]
fraction = 0.8

[preprocess]
scaler = standardize

[tuning]
k = 2
metric = auc

[model:logit]

[model:cart]
cp = 0.005, 0.05

[autoencoder]
epochs = 1
batch_size = 128
scaler = minmax
"""


def write_cfg(tmp_path, text=None, name="run.ini", out=None):
    out = out or str(tmp_path / "out")
    path = tmp_path / name
    path.write_text((text or BASE).format(out=out))
    return str(path)


class TestLoadConfig:
    def test_byte_order_mark_is_dropped(self, tmp_path):
        text = Path(DEMO_CONFIG).read_text(encoding="utf-8")
        (tmp_path / "plain.ini").write_text(text, encoding="utf-8")
        (tmp_path / "marked.ini").write_text(text, encoding="utf-8-sig")
        plain, marked = (load_config(str(tmp_path / name)) for name in ("plain.ini", "marked.ini"))
        assert marked == plain and marked.raw == plain.raw and marked.seed == 7

    def test_full_parse(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        assert cfg.seed == 5
        assert cfg.label == "outcome"
        assert cfg.synth == "interaction" and cfg.synth_n == 600
        assert cfg.fraction == 0.8
        assert cfg.k == 2 and cfg.metric == "auc"
        assert [m.kind for m in cfg.models] == ["logit", "cart"]
        assert cfg.models[1].grid == {"cp": [0.005, 0.05]}
        assert cfg.autoencoder.epochs == 1
        assert cfg.autoencoder.scaler == "minmax"
        assert cfg.autoencoder.objective == "youden"

    def test_overrides(self, tmp_path):
        path = write_cfg(tmp_path)
        cfg = load_config(path, out_dir="/elsewhere", seed=99)
        assert cfg.out_dir == "/elsewhere"
        assert cfg.seed == 99

    def test_two_sources_rejected(self, tmp_path):
        text = BASE.replace("synth = interaction", "synth = interaction\ncsv = x.csv\nschema = s.txt")
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(write_cfg(tmp_path, text))

    def test_no_source_rejected(self, tmp_path):
        text = BASE.replace("synth = interaction\n", "").replace("n = 600\n", "")
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(write_cfg(tmp_path, text))

    def test_duplicate_model_section_refused_by_the_parser(self, tmp_path, capsys):
        path = write_cfg(tmp_path, BASE + "\n[model:cart]\ncp = 0.1\n")
        assert main(["all", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot parse config {path}: ")
        assert err.endswith("section 'model:cart' already exists\n")
        assert not (tmp_path / "out").exists()

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(write_cfg(tmp_path, BASE + "\n[mystery]\nx = 1\n"))

    def test_unknown_key_names_field(self, tmp_path):
        text = BASE.replace("fraction = 0.8", "fraction = 0.8\nratio = 2")
        with pytest.raises(ConfigError, match=r"\[split\].*ratio"):
            load_config(write_cfg(tmp_path, text))

    def test_unknown_model_kind(self, tmp_path):
        have = r"\(have logit, elastic_net, cart, forest, ffn\)"
        with pytest.raises(ConfigError, match=f"unknown model kind 'svm' {have}"):
            load_config(write_cfg(tmp_path, BASE + "\n[model:svm]\n"))

    def test_unknown_hyperparameter(self, tmp_path):
        text = BASE.replace("cp = 0.005, 0.05", "depth = 3")
        have = r"\(have cp, min_split_obs\)"
        with pytest.raises(ConfigError, match=f"unknown hyperparameter 'depth' {have}"):
            load_config(write_cfg(tmp_path, text))

    def test_unknown_label_names_field(self, tmp_path):
        text = BASE.replace("label = outcome", "label = result")
        with pytest.raises(ConfigError, match=r"label.*result"):
            load_config(write_cfg(tmp_path, text))

    def test_unknown_autoencoder_feature(self, tmp_path):
        text = BASE.replace("epochs = 1", "epochs = 1\nfeatures = bogus_feature")
        with pytest.raises(ConfigError, match="bogus_feature"):
            load_config(write_cfg(tmp_path, text))

    def test_band_and_objective_exclusive(self, tmp_path):
        text = BASE.replace("epochs = 1", "epochs = 1\nobjective = f1\nband_lo = 0.5")
        with pytest.raises(ConfigError, match="mutually exclusive"):
            load_config(write_cfg(tmp_path, text))

    def test_fixed_band_drops_objective(self, tmp_path):
        text = BASE.replace("epochs = 1", "epochs = 1\nband_lo = 0.5\nband_hi = 2.0")
        cfg = load_config(write_cfg(tmp_path, text))
        assert cfg.autoencoder.objective is None
        assert cfg.autoencoder.band_lo == 0.5
        assert cfg.autoencoder.band_hi == 2.0

    @pytest.mark.parametrize("key", ["band_lo", "band_hi"])
    def test_nan_band_edge_rejected(self, tmp_path, key):
        text = BASE.replace("epochs = 1", f"epochs = 1\n{key} = nan")
        want = rf"\[autoencoder\] {key}: band edges must not be nan"
        with pytest.raises(ConfigError, match=want):
            load_config(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("key", ["objective", "error", "loss"])
    def test_unknown_autoencoder_choice(self, tmp_path, key):
        text = BASE.replace("epochs = 1", f"epochs = 1\n{key} = bogus")
        with pytest.raises(ConfigError, match=rf"\[autoencoder\] {key}: unknown .* 'bogus'"):
            load_config(write_cfg(tmp_path, text))

    def test_fraction_bounds(self, tmp_path):
        with pytest.raises(ConfigError, match="fraction"):
            load_config(write_cfg(tmp_path, BASE.replace("fraction = 0.8", "fraction = 1.0")))

    def test_bad_metric(self, tmp_path):
        with pytest.raises(ConfigError, match="metric"):
            load_config(write_cfg(tmp_path, BASE.replace("metric = auc", "metric = rmse")))

    def test_needs_some_model(self, tmp_path):
        text = BASE
        for cut in ("[model:logit]\n", "[model:cart]\ncp = 0.005, 0.05\n"):
            text = text.replace(cut, "")
        text = text[: text.index("[autoencoder]")]
        with pytest.raises(ConfigError, match="at least one"):
            load_config(write_cfg(tmp_path, text))


def set_key(text, section, key, value):
    """``text`` with ``key = value`` as the only ``key`` line of ``[section]``."""
    lines, out, current = text.splitlines(), [], None
    for line in lines:
        if line.startswith("["):
            current = line.strip("[]")
        elif current == section and line.partition("=")[0].strip() == key:
            continue
        out.append(line)
        if line == f"[{section}]":
            out.append(f"{key} = {value}")
    if f"[{section}]" not in lines:
        out += [f"[{section}]", f"{key} = {value}"]
    return "\n".join(out) + "\n"


def csv_base(tmp_path):
    """BASE reading a CSV/schema pair instead of a synthetic benchmark."""
    ds = synth_generate(benchmark_spec("interaction", n=300, seed=2))
    write_csv(str(tmp_path / "d.csv"), ds)
    write_schema(str(tmp_path / "s.txt"), ds)
    return BASE.replace(
        "synth = interaction\nn = 600",
        f"csv = {tmp_path / 'd.csv'}\nschema = {tmp_path / 's.txt'}",
    )


# one accepted value per table key, with the field value it must load as;
# a key added to _SECTIONS without an entry here fails the tests below
VALID = {
    ("run", "seed"): ("11", 11),
    ("run", "out_dir"): ("elsewhere", "elsewhere"),
    ("run", "label"): ("outcome", "outcome"),
    ("data", "synth"): ("anomaly", "anomaly"),
    ("data", "n"): ("700", 700),
    ("data", "csv"): (None, None),
    ("data", "schema"): (None, None),
    ("data", "missing"): ("impute", "impute"),
    ("split", "fraction"): ("0.7", 0.7),
    ("preprocess", "scaler"): ("minmax", "minmax"),
    ("preprocess", "features"): ("sim.past, many_field", ("sim.past", "many_field")),
    ("tuning", "k"): ("3", 3),
    ("tuning", "repeats"): ("2", 2),
    ("tuning", "subset_frac"): ("1", 1.0),
    ("tuning", "metric"): ("kappa", "kappa"),
    ("autoencoder", "features"): ("sim.past, sim.present, npl_cits, bwd_cits, claims_bwd",
                                  ("sim.past", "sim.present", "npl_cits", "bwd_cits", "claims_bwd")),
    ("autoencoder", "hidden"): ("5 3 3", (5, 3, 3)),
    ("autoencoder", "activations"): ("relu, relu, linear, sigmoid",
                                     ("relu", "relu", "linear", "sigmoid")),
    ("autoencoder", "loss"): ("mse", "mse"),
    ("autoencoder", "activity_l2"): ("0", 0.0),
    ("autoencoder", "epochs"): ("2", 2),
    ("autoencoder", "batch_size"): ("64", 64),
    ("autoencoder", "learning_rate"): ("0.01", 0.01),
    ("autoencoder", "scaler"): ("standardize", "standardize"),
    ("autoencoder", "objective"): ("f1", "f1"),
    ("autoencoder", "band_lo"): ("0.5", 0.5),
    ("autoencoder", "band_hi"): ("inf", float("inf")),
    ("autoencoder", "error"): ("squared_l2", "squared_l2"),
}
TABLE_KEYS = [(section, key) for section, keys in _SECTIONS.items() for key in keys]
CSV_KEYS = {("data", "csv"), ("data", "schema"), ("data", "missing")}


class TestSectionTable:
    @pytest.mark.parametrize("section,key", TABLE_KEYS)
    def test_valid_value_loads(self, tmp_path, section, key):
        base = csv_base(tmp_path) if (section, key) in CSV_KEYS else BASE
        text, want = VALID[(section, key)]
        if text is None:  # a file csv_base wrote
            text = want = str(tmp_path / {"csv": "d.csv", "schema": "s.txt"}[key])
        cfg = load_config(write_cfg(tmp_path, set_key(base, section, key, text)))
        field = _SECTIONS[section][key][0]
        assert getattr(cfg.autoencoder if section == "autoencoder" else cfg, field) == want

    @pytest.mark.parametrize("section,key", TABLE_KEYS)
    def test_empty_value_refused(self, tmp_path, section, key):
        base = csv_base(tmp_path) if (section, key) in CSV_KEYS else BASE
        text = set_key(base, section, key, "")
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: empty value$"):
            load_config(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("key,value,want", [
        ("epochs", "0", "expected int >= 1, got '0'"),
        ("batch_size", "0", "expected int >= 1, got '0'"),
        ("activity_l2", "-0.1", "expected float >= 0, got '-0.1'"),
        ("learning_rate", "0", "expected float > 0, got '0'"),
        ("learning_rate", "-0.001", "expected float > 0, got '-0.001'"),
        ("learning_rate", "inf", "expected float > 0, got 'inf'"),
        ("activity_l2", "inf", "expected float >= 0, got 'inf'"),
        ("activations", "tanh, bogus, tanh, relu", "unknown value 'bogus'"),
    ])
    def test_library_bounds_refused_at_load(self, tmp_path, capsys, key, value, want):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, set_key(BASE, "autoencoder", key, value), out=str(out))
        assert run_cli(["all", "--config", cfg]) == 1
        assert f"config error: [autoencoder] {key}: {want}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("settings,want", [
        ({"hidden": "12 12 12"}, "width 12 must be smaller than the 11 features"),
        ({"features": "sim.past, sim.present, bwd_cits", "hidden": "11 3 11"},
         "width 3 must be smaller than the 3 features"),
        ({"features": "sim.past, sim.present"}, "width 4 must be smaller than the 2 features"),
    ])
    def test_bottleneck_refused_at_load(self, tmp_path, capsys, settings, want):
        out, text = tmp_path / "out", BASE
        for key, value in settings.items():
            text = set_key(text, "autoencoder", key, value)
        cfg = write_cfg(tmp_path, text, out=str(out))
        assert run_cli(["all", "--config", cfg]) == 1
        assert f"config error: [autoencoder] hidden: bottleneck {want}" in capsys.readouterr().err
        assert not out.exists()

    def test_ffn_grid_values_read_as_widths_and_rates(self, tmp_path):
        text = set_key(BASE, "model:ffn", "hidden", "8 4, 16 8")
        text = set_key(text, "model:ffn", "dropout", "0.2, 0 0.5, none")
        grid = load_config(write_cfg(tmp_path, text)).models[-1].grid
        assert grid == {"hidden": [(8, 4), (16, 8)], "dropout": [(0.2,), (0, 0.5), None]}

    @pytest.mark.parametrize("hidden,dropout,rates", [
        ("8", "0.1 0.2", 2),
        ("8 4, 16", "0.2, 0 0.5", 2),
        (None, "0.1 0.1 0.1 0.1", 4),
    ])
    def test_ffn_dropout_deeper_than_hidden_refused_at_load(
        self, tmp_path, capsys, hidden, dropout, rates
    ):
        # any (hidden, dropout) pair of the grid counts; no hidden key means the
        # library's default depth
        out, text = tmp_path / "out", set_key(BASE, "model:ffn", "dropout", dropout)
        if hidden is not None:
            text = set_key(text, "model:ffn", "hidden", hidden)
        assert run_cli(["all", "--config", write_cfg(tmp_path, text, out=str(out))]) == 1
        want = f"a candidate has {rates} rates but a hidden candidate has fewer layers"
        assert f"config error: [model:ffn] dropout: {want}" in capsys.readouterr().err
        assert not out.exists()

    def test_ffn_dropout_as_deep_as_hidden_loads(self, tmp_path):
        text = set_key(BASE, "model:ffn", "dropout", "0.1 0.1 0.1, none")
        assert len(neural.DEFAULT_HIDDEN) == 3
        load_config(write_cfg(tmp_path, text))
        text = set_key(text, "model:ffn", "hidden", "8 4 2, 16 8 4")
        load_config(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("key,value,want", [
        ("hidden", "0", "widths must be positive integers"),
        ("hidden", "8, 4 -1", "widths must be positive integers"),
        ("hidden", "2.5", "widths must be positive integers"),
        ("hidden", "true", "widths must be positive integers"),
        ("hidden", "none", "widths must be positive integers"),
        ("dropout", "1", "rates must be numbers in [0, 1)"),
        ("dropout", "-0.1", "rates must be numbers in [0, 1)"),
        ("dropout", "0.2 1.5", "rates must be numbers in [0, 1)"),
        ("dropout", "nan", "rates must be numbers in [0, 1)"),
        ("dropout", "high", "rates must be numbers in [0, 1)"),
        ("hidden", "8,,4", "malformed value list '8,,4'"),
    ])
    def test_ffn_grid_value_refused_at_load(self, tmp_path, capsys, key, value, want):
        out = tmp_path / "out"
        text = set_key(BASE, "model:ffn", key, value)
        assert run_cli(["all", "--config", write_cfg(tmp_path, text, out=str(out))]) == 1
        assert f"config error: [model:ffn] {key}: {want}" in capsys.readouterr().err
        assert not out.exists()

    def test_one_width_and_one_rate_run(self, tmp_path):
        # the tuned point goes through best_params.txt, which writes (8,) as "8"
        out = tmp_path / "out"
        text = set_key(BASE, "model:ffn", "hidden", "8, 4")
        text = set_key(text, "model:ffn", "dropout", "0.2")
        text = set_key(text, "model:ffn", "epochs", "1")
        assert run_cli(["all", "--config", write_cfg(tmp_path, text, out=str(out))]) == 0
        best = (out / "tune" / "ffn" / "best_params.txt").read_text()
        assert "dropout = 0.2\n" in best
        model = load_model(str(out / "models" / "ffn.model"))
        width = 8 if "hidden = 8\n" in best else 4
        assert [layer.weights.shape[0] for layer in model.net.layers] == [width, 1]
        assert model.net.dropout == (0.2, 0.0)

    def test_diverging_ffn_named_at_tune(self, tmp_path, capsys):
        # lr passes the finite bound at load; the blow-up is reported by name, not as bad scores
        text = set_key(BASE, "model:ffn", "lr", "1e300")
        text = set_key(text, "model:ffn", "epochs", "1")
        with np.errstate(all="ignore"):
            assert run_cli(["all", "--config", write_cfg(tmp_path, text)]) == 2
        assert "runtime failure: training diverged:" in capsys.readouterr().err

    def test_autoencoder_defaults_match_library(self):
        # the library's own keyword defaults must agree with the config table;
        # features is left out: the library's None means every feature column
        params = {
            **inspect.signature(anomaly.train_autoencoder).parameters,
            "objective": inspect.signature(anomaly.calibrate_band).parameters["objective"],
        }
        renamed = {"learning_rate": "lr", "loss": "loss_name"}
        shared = {
            key: default for key, (_, default, _) in _SECTIONS["autoencoder"].items()
            if renamed.get(key, key) in params and key != "features"
        }
        assert set(shared) == {
            "hidden", "activations", "loss", "activity_l2", "epochs", "batch_size",
            "learning_rate", "objective",
        }
        for key, default in shared.items():
            assert params[renamed.get(key, key)].default == default, key

    def test_tuning_defaults_match_library(self):
        # every [tuning] key is a grid_search keyword of the same name and default
        params = inspect.signature(tune.grid_search).parameters
        assert set(_SECTIONS["tuning"]) == {"k", "repeats", "subset_frac", "metric"}
        for key, (_, default, _) in _SECTIONS["tuning"].items():
            assert params[key].default == default, key

    def test_bad_seed_ignored_under_override(self, tmp_path):
        text = set_key(BASE, "run", "seed", "many")
        with pytest.raises(ConfigError, match=r"^\[run\] seed: expected int, got 'many'$"):
            load_config(write_cfg(tmp_path, text))
        assert load_config(write_cfg(tmp_path, text), seed=3).seed == 3

    def test_out_dir_required_unless_overridden(self, tmp_path):
        text = BASE.replace("out_dir = {out}\n", "")
        with pytest.raises(ConfigError, match=r"^\[run\] out_dir: required key is missing$"):
            load_config(write_cfg(tmp_path, text))
        assert load_config(write_cfg(tmp_path, text), out_dir="o").out_dir == "o"

    def test_readme_lists_every_key(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        text = open(readme, encoding="utf-8").read()
        table = text[text.index("## Config reference"):]
        table = table[: table.index("\n## ", 1)]
        rows = {}
        for line in table.splitlines():
            cells = [cell.strip().strip("`") for cell in line.strip("|").split("|")]
            if line.startswith("| `") and len(cells) == 4:
                rows[(cells[0], cells[1])] = cells[2]
        assert sorted(rows) == sorted(TABLE_KEYS)
        for (section, key), (_, default, _) in (
            ((s, k), _SECTIONS[s][k]) for s, k in TABLE_KEYS
        ):
            if isinstance(default, (int, float, str)):
                assert rows[(section, key)] == format_value(default), (section, key)


N_FEATURES = len(benchmark_spec("interaction").feature_marginals)  # BASE's source

# (kind, grid keys set, key the refusal names, rest of its message): every row
# is refused by the grid table, the bad candidate last where there are two
INT_0 = "expected int >= 1, got '0'"
BAD_GRIDS = [
    ("logit", {"max_iter": "0"}, "max_iter", INT_0),
    ("logit", {"tol": "1e-8, -1"}, "tol", "expected float >= 0, got '-1'"),
    ("elastic_net", {"alpha": "0.5"}, "lam", "required key is missing"),
    ("elastic_net", {"lam": "0.01"}, "alpha", "required key is missing"),
    ("elastic_net", {"lam": "0.01", "alpha": "0.5, 1.5"}, "alpha",
     "expected float in [0, 1], got '1.5'"),
    ("elastic_net", {"lam": "0.01", "alpha": "0.5", "max_sweeps": "0"}, "max_sweeps", INT_0),
    ("cart", {"cp": "0.01, -1"}, "cp", "expected float >= 0, got '-1'"),
    ("cart", {"min_split_obs": "true"}, "min_split_obs", "expected int >= 1, got 'true'"),
    ("forest", {"mtry": "50"}, "mtry", f"candidate 50 exceeds the {N_FEATURES} features"),
    ("forest", {"mtry": f"3, {N_FEATURES + 1}"}, "mtry",
     f"candidate {N_FEATURES + 1} exceeds the {N_FEATURES} features"),
    ("forest", {"mtry": "0"}, "mtry", INT_0),
    ("forest", {"split_rule": "gini, bogus"}, "split_rule",
     "unknown value 'bogus' (have gini, extratrees)"),
    ("forest", {"n_trees": "2.5"}, "n_trees", "expected int >= 1, got '2.5'"),
    ("forest", {"n_trees": "true"}, "n_trees", "expected int >= 1, got 'true'"),
    ("forest", {"bootstrap": "1"}, "bootstrap", "expected bool, got '1'"),
    ("ffn", {"lr": "-1"}, "lr", "expected float > 0, got '-1'"),
    ("ffn", {"epochs": "0"}, "epochs", INT_0),
    ("ffn", {"batch_size": "0"}, "batch_size", INT_0),
    # inf passes a bare >= 0 or > 0 test
    ("logit", {"tol": "inf"}, "tol", "expected float >= 0, got 'inf'"),
    ("elastic_net", {"lam": "0.01, inf", "alpha": "0.5"}, "lam", "expected float >= 0, got 'inf'"),
    ("elastic_net", {"lam": "0.01", "alpha": "0.5", "tol": "inf"}, "tol",
     "expected float >= 0, got 'inf'"),
    ("cart", {"cp": "inf"}, "cp", "expected float >= 0, got 'inf'"),
    ("ffn", {"lr": "0.01, inf"}, "lr", "expected float > 0, got 'inf'"),
    ("ffn", {"lr": "nan"}, "lr", "expected float > 0, got 'nan'"),
]

# kind -> (grid keys set, the grid they load as): accepted edge values, each
# typed as parse_value types it, so a float key keeps an int candidate an int
GOOD_GRIDS = {
    "logit": ({"tol": "0, 1e-8, 1", "max_iter": "1, 100"},
              {"tol": [0, 1e-8, 1], "max_iter": [1, 100]}),
    "elastic_net": ({"lam": "0, 0.01", "alpha": "0, 1, 0.5, 1.0", "tol": "0", "max_sweeps": "1"},
                    {"lam": [0, 0.01], "alpha": [0, 1, 0.5, 1.0], "tol": [0], "max_sweeps": [1]}),
    "cart": ({"cp": "0, 0.002, 1e-3", "min_split_obs": "1, 5"},
             {"cp": [0, 0.002, 0.001], "min_split_obs": [1, 5]}),
    "forest": ({"n_trees": "1, 2", "mtry": f"1, none, {N_FEATURES}", "min_node": "1",
                "split_rule": "gini, extratrees", "bootstrap": "true, false"},
               {"n_trees": [1, 2], "mtry": [1, None, N_FEATURES], "min_node": [1],
                "split_rule": ["gini", "extratrees"], "bootstrap": [True, False]}),
    "ffn": ({"hidden": "8 4, 3", "dropout": "none, 0, 0.5", "epochs": "1", "batch_size": "1",
             "lr": "1, 0.5"},
            {"hidden": [(8, 4), (3,)], "dropout": [None, (0,), (0.5,)], "epochs": [1],
             "batch_size": [1], "lr": [1, 0.5]}),
}


def typed(value):
    """``value`` with the type of every entry beside it, so 0 and 0.0 differ."""
    if isinstance(value, dict):
        return {key: typed(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value), [typed(v) for v in value]
    return type(value), value


class TestModelTable:
    """config._MODELS: every grid candidate is typed and bounded when the config loads."""

    @pytest.mark.parametrize("kind,settings,key,want", BAD_GRIDS)
    def test_bad_grid_value_refused_at_load(self, tmp_path, capsys, kind, settings, key, want):
        out, text = tmp_path / "out", BASE
        for name, value in settings.items():
            text = set_key(text, f"model:{kind}", name, value)
        path = write_cfg(tmp_path, text, out=str(out))
        message = f"[model:{kind}] {key}: {want}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)
        assert run_cli(["all", "--config", path]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (out / "manifest.txt").exists() and not out.exists()

    @pytest.mark.parametrize("kind", list(GOOD_GRIDS))
    def test_edge_grid_loads_with_its_types(self, tmp_path, kind):
        settings, want = GOOD_GRIDS[kind]
        text = BASE
        for name, value in settings.items():
            text = set_key(text, f"model:{kind}", name, value)
        (grid,) = [m.grid for m in load_config(write_cfg(tmp_path, text)).models if m.kind == kind]
        assert typed(grid) == typed(want)
        for key, values in grid.items():  # as best_params.txt echoes and reads a point
            for value in values:
                assert typed(parse_param(kind, key, format_value(value))) == typed(value)
        # every accepted point fits, and its model file loads back
        ds = synth_generate(benchmark_spec("interaction", n=60, seed=3))
        spec = tune.get_model_spec(kind)
        for point in tune.grid_expand(grid):
            model = spec.fit(ds, "outcome", ds.feature_names, point, 3)
            assert model_to_text(model_from_text(model_to_text(model))) == model_to_text(model)

    @pytest.mark.parametrize("config,want", [
        ("demos/demo.ini", {"logit": {}, "cart": {"cp": [0.002, 0.01]},
                            "forest": {"n_trees": [30], "min_node": [100]}}),
        ("perfbench/configs/pipeline_forest.ini",
         {"cart": {"cp": [0.002, 0.01]}, "forest": {"n_trees": [30], "min_node": [100]}}),
        ("perfbench/configs/pipeline_rare.ini",
         {"logit": {}, "elastic_net": {"lam": [0.001, 0.01], "alpha": [0.5]}}),
    ])
    def test_shipped_configs_load_unchanged(self, config, want):
        # the benchmark loads these configs before it times anything; read only
        path = os.path.join(os.path.dirname(__file__), os.pardir, config)
        models = load_config(path).models
        assert typed({m.kind: m.grid for m in models}) == typed(want)
        assert [m.kind for m in models] == list(want)


def run_cli(args):
    return main(args)


def manifest_entries(out_dir):
    entries = {}
    with open(os.path.join(out_dir, "manifest.txt"), encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition(" = ")
            entries[key] = value
    return entries


THREADS_CFG = """
[run]
seed = 7
out_dir = {out}
label = outcome

[data]
synth = rare_linear
n = 50000

[model:logit]

[model:elastic_net]
lam = 0.01
alpha = 0.5

[model:ffn]
hidden = 8 4
epochs = 1

[autoencoder]
epochs = 1
"""


RARE_600_CFG = """
[run]
seed = 3
out_dir = {out}
label = outcome

[data]
synth = rare_linear
n = 600

[tuning]
k = 5

[model:logit]
"""


class TestPipeline:
    def test_too_few_positives_for_the_folds_named_at_tune(self, tmp_path, capsys):
        # the split leaves 2 positive train rows, so 3 of the 5 test folds would have none
        out = tmp_path / "out"
        assert run_cli(["all", "--config", write_cfg(tmp_path, RARE_600_CFG, out=str(out))]) == 2
        assert capsys.readouterr().err == (
            "runtime failure: auc over k = 5 folds needs at least 5 rows of each class;"
            " label 'outcome' has 2 of class 1\n"
        )
        train = load_csv(str(out / "train.csv"), load_schema(str(out / "schema.txt")))
        assert train.label("outcome").sum() == 2
        entries = manifest_entries(str(out))
        assert entries["artifact.scaler.txt.command"] == "preprocess"
        assert not any(key.startswith("artifact.tune/") for key in entries)

    def test_all_produces_bundle(self, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli(["all", "--config", write_cfg(tmp_path, out=out)]) == 0
        for rel in (
            "data.csv",
            "schema.txt",
            "train.csv",
            "test.csv",
            "scaler.txt",
            "conditional_summary.csv",
            "tune/cart/tuning_summary.csv",
            "models/logit.model",
            "models/cart.model",
            "models/autoencoder.model",
            "report/metrics.csv",
            "detect/band.txt",
            "detect/test_scores.csv",
            "report/summary.txt",
            "manifest.txt",
            "timestamps.txt",
        ):
            assert os.path.exists(os.path.join(out, rel)), rel

    def test_rerun_is_byte_identical(self, tmp_path):
        out = str(tmp_path / "out")
        cfg = write_cfg(tmp_path, out=out)
        assert run_cli(["all", "--config", cfg]) == 0
        first = {}
        for root, _, files in os.walk(out):
            for name in files:
                if name == "timestamps.txt":
                    continue
                full = os.path.join(root, name)
                first[os.path.relpath(full, out)] = hashlib.sha256(
                    open(full, "rb").read()
                ).hexdigest()
        assert run_cli(["all", "--config", cfg]) == 0
        for rel, digest in first.items():
            full = os.path.join(out, rel)
            assert hashlib.sha256(open(full, "rb").read()).hexdigest() == digest, rel

    def test_seed_changes_artifacts(self, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        cfg = write_cfg(tmp_path)
        assert run_cli(["all", "--config", cfg, "--out", out_a]) == 0
        assert run_cli(["all", "--config", cfg, "--out", out_b, "--seed", "6"]) == 0
        a = manifest_entries(out_a)["artifact.train.csv.sha256"]
        b = manifest_entries(out_b)["artifact.train.csv.sha256"]
        assert a != b

    def test_test_split_untouched_before_evaluate(self, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli(["all", "--config", write_cfg(tmp_path, out=out)]) == 0
        entries = manifest_entries(out)
        pre_eval = {"generate", "split", "preprocess", "tune", "train"}
        saw_report = False
        for key, value in entries.items():
            if not key.endswith(".inputs"):
                continue
            rel = key[len("artifact.") : -len(".inputs")]
            command = entries[f"artifact.{rel}.command"]
            inputs = set() if value == "(none)" else set(value.split(","))
            if command in pre_eval:
                assert "test.csv" not in inputs, rel
            if command == "evaluate":
                saw_report = True
                assert "test.csv" in inputs, rel
        assert saw_report

    def test_manifest_scaler_stats_are_train_only(self, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli(["all", "--config", write_cfg(tmp_path, out=out)]) == 0
        entries = manifest_entries(out)
        schema = load_schema(os.path.join(out, "schema.txt"))
        train = load_csv(os.path.join(out, "train.csv"), schema)
        params = fit_scaler(train, entries["scaler.method"])
        for name in params.feature_names:
            stats = params.stats_for(name)
            assert entries[f"scaler.{name}.mean"] == repr(stats["mean"])
            assert entries[f"scaler.{name}.sd"] == repr(stats["sd"])

    def test_evaluate_twice_warns_and_matches(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        cfg = write_cfg(tmp_path, out=out)
        assert run_cli(["all", "--config", cfg]) == 0
        capsys.readouterr()
        before = open(os.path.join(out, "report/metrics.csv"), "rb").read()
        assert run_cli(["evaluate", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert open(os.path.join(out, "report/metrics.csv"), "rb").read() == before

    def test_new_seed_is_a_new_holdout(self, tmp_path, capsys):
        # split writes a new test.csv, so the report of the old one does not count
        cfg = write_cfg(tmp_path)
        assert run_cli(["all", "--config", cfg, "--seed", "7"]) == 0
        assert run_cli(["all", "--config", cfg, "--seed", "8"]) == 0
        assert "warning" not in capsys.readouterr().err
        assert run_cli(["evaluate", "--config", cfg, "--seed", "8"]) == 0
        assert "the test split has already been evaluated" in capsys.readouterr().err

    def test_detect_again_warns(self, tmp_path, capsys):
        # detect reports test-set metrics too, so its second look is counted like evaluate's
        cfg = write_cfg(tmp_path)
        assert run_cli(["all", "--config", cfg, "--seed", "7"]) == 0
        assert run_cli(["all", "--config", cfg, "--seed", "8"]) == 0
        assert "warning" not in capsys.readouterr().err
        assert run_cli(["detect", "--config", cfg, "--seed", "8"]) == 0
        assert "the test split has already been evaluated" in capsys.readouterr().err

    def test_missing_prerequisite(self, tmp_path):
        assert run_cli(["split", "--config", write_cfg(tmp_path)]) == 1

    def test_generate_requires_synth(self, tmp_path):
        ds = synth_generate(benchmark_spec("interaction", n=300, seed=2))
        write_csv(str(tmp_path / "d.csv"), ds)
        write_schema(str(tmp_path / "s.txt"), ds)
        text = BASE.replace(
            "synth = interaction\nn = 600",
            f"csv = {tmp_path / 'd.csv'}\nschema = {tmp_path / 's.txt'}",
        )
        assert run_cli(["generate", "--config", write_cfg(tmp_path, text)]) == 1

    def test_csv_source_pipeline(self, tmp_path):
        ds = synth_generate(benchmark_spec("interaction", n=500, seed=2))
        write_csv(str(tmp_path / "d.csv"), ds)
        write_schema(str(tmp_path / "s.txt"), ds)
        out = str(tmp_path / "out")
        text = BASE.replace(
            "synth = interaction\nn = 600",
            f"csv = {tmp_path / 'd.csv'}\nschema = {tmp_path / 's.txt'}",
        )
        assert run_cli(["all", "--config", write_cfg(tmp_path, text, out=out)]) == 0
        assert os.path.exists(os.path.join(out, "report/metrics.csv"))
        assert not os.path.exists(os.path.join(out, "data.csv"))

    def test_train_needs_tuning_for_multipoint_grid(self, tmp_path):
        out = str(tmp_path / "out")
        cfg = write_cfg(tmp_path, out=out)
        assert run_cli(["generate", "--config", cfg]) == 0
        assert run_cli(["split", "--config", cfg]) == 0
        assert run_cli(["preprocess", "--config", cfg]) == 0
        assert run_cli(["train", "--config", cfg]) == 1

    def test_single_point_grid_trains_without_tune(self, tmp_path):
        out = str(tmp_path / "out")
        text = BASE.replace("cp = 0.005, 0.05", "cp = 0.01")
        cfg = write_cfg(tmp_path, text, out=out)
        for command in ("generate", "split", "preprocess", "train"):
            assert run_cli([command, "--config", cfg]) == 0, command
        assert os.path.exists(os.path.join(out, "models/cart.model"))

    def test_tune_folds_scale_the_preprocess_features(self, tmp_path, monkeypatch):
        # each fold must be scaled as preprocess scales the training split;
        # the spy appends to a file, so that folds fitted in helpers count too
        def spy(step):
            def fit(ds, method, feature_names=None):
                params = fit_scaler(ds, method, feature_names=feature_names)
                with open(tmp_path / f"{step}.seen", "a", encoding="utf-8") as fh:
                    fh.write(repr(params.feature_names) + "\n")
                return params
            return fit

        def seen(step):
            lines = (tmp_path / f"{step}.seen").read_text(encoding="utf-8").splitlines()
            return [ast.literal_eval(line) for line in lines]

        monkeypatch.setattr(cli, "fit_scaler", spy("preprocess"))
        monkeypatch.setattr(tune, "fit_scaler", spy("tune"))
        text = set_key(BASE, "preprocess", "features", "sim.past")
        text = set_key(text, "model:ffn", "hidden", "4")
        text = set_key(text, "model:ffn", "epochs", "1")
        cfg = write_cfg(tmp_path, text)
        for command in ("generate", "split", "preprocess", "tune"):
            assert run_cli([command, "--config", cfg]) == 0, command
        assert seen("preprocess") == [("sim.past",)]
        # k = 2 folds for logit (1 point), cart (2 points) and ffn (1 point)
        assert seen("tune") == [("sim.past",)] * 8

    def test_bad_config_exit_code(self, tmp_path):
        text = BASE.replace("label = outcome", "label = result")
        assert run_cli(["all", "--config", write_cfg(tmp_path, text)]) == 1

    def test_usage_error_exit_code(self, tmp_path):
        assert run_cli(["all"]) == 1
        assert run_cli(["frobnicate", "--config", write_cfg(tmp_path)]) == 1

    def test_module_entry_point_runs_main(self):
        src = os.path.dirname(os.path.dirname(rarepred.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "rarepred.cli"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert proc.returncode == 1
        assert "usage error" in proc.stderr

    def test_manifest_same_at_one_and_two_blas_threads(self, tmp_path):
        # 40k training rows: enough for a row reduction left to the BLAS
        # thread pool to change the logit bits between 1 and 2 threads
        digests = []
        for threads in (1, 2):
            out = str(tmp_path / f"out{threads}")
            cfg = write_cfg(tmp_path, THREADS_CFG, name=f"t{threads}.ini", out=out)
            proc = subprocess.run(
                [sys.executable, "-m", "rarepred.cli", "all", "--config", cfg],
                capture_output=True,
                text=True,
                env=with_blas_threads(threads),
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            with open(os.path.join(out, "manifest.txt"), "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
            assert os.path.exists(os.path.join(out, "models/ffn.model"))
            assert os.path.exists(os.path.join(out, "models/autoencoder.model"))
        assert digests[0] == digests[1]

    def test_detect_band_calibrated_on_train_scores(self, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli(["all", "--config", write_cfg(tmp_path, out=out)]) == 0
        band_lines = open(os.path.join(out, "detect/band.txt")).read().splitlines()
        values = dict(line.split(" = ", 1) for line in band_lines)
        lo = float(values["lo"])
        train_scores = np.loadtxt(
            os.path.join(out, "detect/train_scores.csv"),
            delimiter=",",
            skiprows=1,
            usecols=1,
        )
        # the calibrated edge is one of the train-score quantile candidates
        qs = np.unique(np.quantile(train_scores, np.linspace(0.0, 1.0, 512)))
        assert np.isclose(qs, lo).any()

    def test_report_embeds_metrics(self, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli(["all", "--config", write_cfg(tmp_path, out=out)]) == 0
        summary = open(os.path.join(out, "report/summary.txt")).read()
        assert "[report/metrics.csv]" in summary
        assert "Sensitivity" in summary
        assert "sha256=" in summary


DEMO_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "demo.ini")


def flip_digit(path):
    """Change one digit in the middle of a file, keeping it parseable."""
    data = bytearray(open(path, "rb").read())
    i = len(data) // 2
    while not chr(data[i]).isdigit():
        i += 1
    data[i] = ord("1") if data[i] != ord("1") else ord("2")
    open(path, "wb").write(bytes(data))


class TestVerifiedReads:
    """Fault injection: a command refuses an artifact the manifest does not vouch for."""

    def test_truncated_train_refused(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        cfg = write_cfg(tmp_path, out=out)
        assert run_cli(["all", "--config", cfg]) == 0
        path = os.path.join(out, "train.csv")
        os.truncate(path, os.path.getsize(path) // 2)
        capsys.readouterr()
        assert run_cli(["train", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "train.csv no longer matches its sha256 in manifest.txt" in err

    def test_flipped_byte_in_test_refused(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        cfg = write_cfg(tmp_path, out=out)
        assert run_cli(["all", "--config", cfg]) == 0
        flip_digit(os.path.join(out, "test.csv"))
        capsys.readouterr()
        assert run_cli(["evaluate", "--config", cfg]) == 1
        assert "test.csv" in capsys.readouterr().err

    def test_unrecorded_best_params_refused(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        text = BASE.replace("cp = 0.005, 0.05", "cp = 0.01")
        cfg = write_cfg(tmp_path, text, out=out)
        for command in ("generate", "split", "preprocess"):
            assert run_cli([command, "--config", cfg]) == 0, command
        os.makedirs(os.path.join(out, "tune", "cart"))
        with open(os.path.join(out, "tune", "cart", "best_params.txt"), "w") as fh:
            fh.write("cp = 0.5\nmin_split_obs = 20\n")
        capsys.readouterr()
        assert run_cli(["train", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "tune/cart/best_params.txt is not in manifest.txt" in err
        assert not os.path.exists(os.path.join(out, "models", "cart.model"))

    def test_report_embeds_only_recorded_tables(self, tmp_path):
        out = str(tmp_path / "out")
        cfg = write_cfg(tmp_path, BASE[: BASE.index("[autoencoder]")], out=out)
        assert run_cli(["all", "--config", cfg]) == 0
        os.makedirs(os.path.join(out, "detect"))
        with open(os.path.join(out, "detect", "band.txt"), "w") as fh:
            fh.write("lo = 0.0\nhi = 1.0\n")
        assert run_cli(["report", "--config", cfg]) == 0
        summary = open(os.path.join(out, "report/summary.txt")).read()
        assert "[report/metrics.csv]" in summary
        assert "detect/band.txt" not in summary

    def test_report_refuses_tampered_artifact(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        cfg = write_cfg(tmp_path, out=out)
        assert run_cli(["all", "--config", cfg]) == 0
        with open(os.path.join(out, "models", "logit.model"), "a") as fh:
            fh.write("\n")
        capsys.readouterr()
        assert run_cli(["report", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "models/logit.model no longer matches its sha256 in manifest.txt" in err

    def test_artifact_from_older_input_refused(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        cfg = write_cfg(tmp_path, out=out)
        assert run_cli(["all", "--config", cfg]) == 0
        assert run_cli(["split", "--config", cfg, "--seed", "6"]) == 0
        capsys.readouterr()
        assert run_cli(["train", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "scaler.txt was made from an older train.csv; run 'preprocess' again" in err
        assert run_cli(["report", "--config", cfg]) == 1
        entries = manifest_entries(out)
        hashes = [entries[f"artifact.{rel}.sha256"] for rel in ("train.csv", "schema.txt")]
        assert entries["artifact.scaler.txt.inputs"] == "train.csv,schema.txt"
        assert entries["artifact.scaler.txt.input_hashes"] != ",".join(hashes)
        assert entries["artifact.data.csv.input_hashes"] == "(none)"
        assert run_cli(["preprocess", "--config", cfg]) == 0
        capsys.readouterr()
        assert run_cli(["train", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "tune/logit/best_params.txt was made from an older train.csv" in err
        for command in ("tune", "train"):
            assert run_cli([command, "--config", cfg]) == 0, command
        assert manifest_entries(out)["artifact.scaler.txt.input_hashes"] == ",".join(hashes)

    @pytest.mark.parametrize("earlier_run", [False, True])
    def test_crash_between_write_and_record(
        self, tmp_path, monkeypatch, capsys, earlier_run
    ):
        out = str(tmp_path / "out")
        cfg = write_cfg(tmp_path, out=out)
        assert run_cli(["all" if earlier_run else "generate", "--config", cfg]) == 0

        def crash(self, rel, command, inputs):
            raise RuntimeError("crashed before recording")

        with monkeypatch.context() as patch:
            patch.setattr(cli.Workspace, "record_artifact", crash)
            assert run_cli(["split", "--config", cfg, "--seed", "6"]) == 2
        capsys.readouterr()
        assert run_cli(["preprocess", "--config", cfg]) == 1
        why = "no longer matches its sha256 in" if earlier_run else "is not in"
        assert f"train.csv {why} manifest.txt" in capsys.readouterr().err

    def test_failed_manifest_replace_keeps_previous(self, tmp_path, monkeypatch):
        out = str(tmp_path / "out")
        cfg = write_cfg(tmp_path, out=out)
        assert run_cli(["all", "--config", cfg]) == 0
        manifest = os.path.join(out, "manifest.txt")
        before = open(manifest, "rb").read()

        def fail(src, dst):
            raise OSError("disk gone")

        with monkeypatch.context() as patch:
            patch.setattr(cli.os, "replace", fail)
            assert run_cli(["split", "--config", cfg, "--seed", "6"]) == 2
        assert open(manifest, "rb").read() == before
        assert run_cli(["preprocess", "--config", cfg]) == 1


class TestDatasetMemo:
    def test_all_parses_each_split_file_once(self, tmp_path, monkeypatch):
        parsed = []

        def counting(path, *args, **kwargs):
            parsed.append(os.path.basename(path))
            return load_csv(path, *args, **kwargs)

        monkeypatch.setattr(cli, "load_csv", counting)
        out = str(tmp_path / "out")
        assert main(["all", "--config", DEMO_CONFIG, "--out", out]) == 0
        assert parsed == ["data.csv"]  # split keeps the train and test sets it writes

    def test_rewrite_between_steps_refused(self, tmp_path, monkeypatch):
        cfg = load_config(write_cfg(tmp_path))
        tune = cli._COMMANDS["tune"]

        def tune_then_rewrite(cfg, ws):
            tune(cfg, ws)
            assert any(key[0] == "train.csv" for key in ws.datasets)
            path = os.path.join(ws.out_dir, "train.csv")
            lines = open(path, "rb").read().splitlines(keepends=True)
            open(path, "wb").write(b"".join(lines[:-1]))

        monkeypatch.setitem(cli._COMMANDS, "tune", tune_then_rewrite)
        with pytest.raises(PipelineError, match="train.csv no longer matches"):
            run(cfg, "all")

    def test_memoised_dataset_equals_fresh_parse(self, tmp_path, monkeypatch):
        cfg = load_config(write_cfg(tmp_path))
        seen = []
        report = cli._COMMANDS["report"]

        def report_and_keep(cfg, ws):
            seen.append(ws)
            report(cfg, ws)

        monkeypatch.setitem(cli._COMMANDS, "report", report_and_keep)
        run(cfg, "all")
        ws = seen[0]
        memo = [ds for key, ds in ws.datasets.items() if key[0] == "train.csv"]
        assert len(memo) == 1
        assert ws.dataset("train.csv", "split") is memo[0]
        fresh = load_csv(
            os.path.join(ws.out_dir, "train.csv"),
            load_schema(os.path.join(ws.out_dir, "schema.txt")),
        )
        assert memo[0].features == fresh.features
        assert memo[0].values.tobytes() == fresh.values.tobytes()
        assert memo[0].labels.keys() == fresh.labels.keys()
        for key, vec in fresh.labels.items():
            assert memo[0].labels[key].tobytes() == vec.tobytes()

    @pytest.mark.parametrize("source", ["synth", "csv"])
    def test_split_loads_one_schema(self, tmp_path, monkeypatch, source):
        # data.csv's, or the source's; keeping a set needs none
        text = BASE
        if source == "csv":
            ds = synth_generate(benchmark_spec("interaction", n=600, seed=5))
            write_csv(str(tmp_path / "d.csv"), ds)
            write_schema(str(tmp_path / "s.txt"), ds)
            text = BASE.replace("synth = interaction\nn = 600",
                                f"csv = {tmp_path / 'd.csv'}\nschema = {tmp_path / 's.txt'}")
        cfg = write_cfg(tmp_path, text)
        if source == "synth":
            assert main(["generate", "--config", cfg]) == 0
        loaded = []

        def spying(path):
            loaded.append(os.path.basename(path))
            return load_schema(path)

        monkeypatch.setattr(cli, "load_schema", spying)
        assert main(["split", "--config", cfg]) == 0
        assert loaded == ["schema.txt" if source == "synth" else "s.txt"]

    def runs_with_and_without_keeping(self, tmp_path, monkeypatch, seed):
        """The files load_csv parses in `rarepred all` on d.csv and s.txt at ``seed``, once
        the same run with reads_back forced to False, parsing every split file as before
        split kept them, has written the same manifest."""
        text = CSV_MEMO_CFG.format(seed=seed, out="{out}", csv=tmp_path / "d.csv",
                                   schema=tmp_path / "s.txt")
        parsed = []

        def counting(path, *args, **kwargs):
            parsed.append(os.path.basename(path))
            return load_csv(path, *args, **kwargs)

        monkeypatch.setattr(cli, "load_csv", counting)
        assert main(["all", "--config", write_cfg(tmp_path, text, out=str(tmp_path / "a"))]) == 0
        kept = parsed[:]
        monkeypatch.setattr(cli, "reads_back", lambda ds: False)
        assert main(["all", "--config", write_cfg(tmp_path, text, out=str(tmp_path / "b"))]) == 0
        assert parsed[len(kept):] == ["d.csv", "train.csv", "test.csv"]
        manifest = (tmp_path / "a" / "manifest.txt").read_text()
        assert manifest == (tmp_path / "b" / "manifest.txt").read_text()
        return kept

    def test_split_out_of_first_seen_order_is_parsed(self, tmp_path, monkeypatch):
        # data.csv sees level a (row 0) before b (row 1); a seed that sends row 0
        # to test and row 1 to train numbers train's levels out of first-seen order
        rng = np.random.default_rng(3)
        ds = Dataset(
            (Feature("x", "continuous"), Feature("c", "categorical", ("a", "b"))),
            np.column_stack([rng.normal(size=300), np.arange(300) % 2]),
            {"y": (np.arange(300) % 10 == 3).astype(np.int64)},
        )
        write_csv(str(tmp_path / "d.csv"), ds)
        write_schema(str(tmp_path / "s.txt"), ds)
        seed = next(s for s in range(100) if list(stratified_split(
            ds, 0.8, "y", child_seed(s, "split")).train.column("c")[:1]) == [1.0])
        assert self.runs_with_and_without_keeping(tmp_path, monkeypatch, seed) == [
            "d.csv", "train.csv"]
        train = load_csv(str(tmp_path / "a" / "train.csv"), load_schema(str(tmp_path / "s.txt")))
        assert train.features[1].levels == ("b", "a")

    @pytest.mark.parametrize("side", ["train.csv", "test.csv"])
    def test_negative_zero_cell_is_parsed(self, tmp_path, monkeypatch, side):
        # write_csv writes row 0's -0 as 0, so the split set that holds row 0 is parsed
        rng = np.random.default_rng(4)
        lines = [f"{rng.normal()!r},{rng.normal()!r},{int(i % 10 == 3)}" for i in range(300)]
        lines[0] = "-0,1.5,0"
        (tmp_path / "d.csv").write_text("x,z,y\n" + "\n".join(lines) + "\n")
        (tmp_path / "s.txt").write_text("x = continuous\nz = continuous\ny = label\n")
        ds = load_csv(str(tmp_path / "d.csv"), load_schema(str(tmp_path / "s.txt")))
        assert np.signbit(ds.values[0, 0]) and ds.values[0, 0] == 0
        seed = next(s for s in range(100) if side == ("train.csv" if 0 in stratified_split(
            ds, 0.8, "y", child_seed(s, "split")).train_rows else "test.csv"))
        assert self.runs_with_and_without_keeping(tmp_path, monkeypatch, seed) == ["d.csv", side]


def spy_write_csv(monkeypatch):
    """The base names of the files cli.write_csv writes from now on."""
    written = []

    def spying(path, ds):
        written.append(os.path.basename(path))
        write_csv(path, ds)

    monkeypatch.setattr(cli, "write_csv", spying)
    return written


class TestSplitGather:
    """split gathers train.csv and test.csv from the lines of the checked data.csv of a
    synthetic source, and formats them with write_csv for a [data] csv source."""

    def split_files(self, out):
        return [Path(out, rel).read_bytes() for rel in ("train.csv", "test.csv")]

    def formatted_parts(self, tmp_path, ds, seed=5):
        """write_csv's bytes of the train and test sets split from ``ds``."""
        pair = stratified_split(ds, 0.8, "outcome", child_seed(seed, "split"))
        for rel, part in (("want_train.csv", pair.train), ("want_test.csv", pair.test)):
            write_csv(str(tmp_path / rel), part)
        return [(tmp_path / rel).read_bytes() for rel in ("want_train.csv", "want_test.csv")]

    def test_gathered_files_are_write_csv_files(self, tmp_path, monkeypatch):
        cfg = load_config(write_cfg(tmp_path))
        ws = cli.Workspace(cfg.out_dir)
        cli.cmd_generate(cfg, ws)
        written = spy_write_csv(monkeypatch)
        cli.cmd_split(cfg, ws)
        assert written == []
        ds = synth_generate(benchmark_spec("interaction", n=600, seed=5))
        assert self.split_files(cfg.out_dir) == self.formatted_parts(tmp_path, ds)

    def test_rewritten_data_csv_is_gathered(self, tmp_path, monkeypatch):
        cfg = load_config(write_cfg(tmp_path))
        ws = cli.Workspace(cfg.out_dir)
        cli.cmd_generate(cfg, ws)
        path = os.path.join(cfg.out_dir, "data.csv")
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        with open(path, "wb") as fh:
            fh.write(b"".join(lines[:1] + lines[:0:-1]))  # rows reversed
        ws.record_artifact("data.csv", "generate", [])
        written = spy_write_csv(monkeypatch)
        cli.cmd_split(cfg, ws)
        assert written == []
        ds = load_csv(path, cfg.source_columns())
        assert self.split_files(cfg.out_dir) == self.formatted_parts(tmp_path, ds)
        ws.dataset("train.csv", "split")

    def test_separate_commands_gather(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path)
        written = spy_write_csv(monkeypatch)
        assert main(["generate", "--config", cfg]) == 0
        assert main(["split", "--config", cfg]) == 0
        assert written == ["data.csv"]
        separate = self.split_files(str(tmp_path / "out"))
        assert main(["all", "--config", cfg, "--out", str(tmp_path / "all")]) == 0
        assert written[1:] == ["data.csv"]
        assert self.split_files(str(tmp_path / "all")) == separate

    def test_demo_all_gathers(self, tmp_path, monkeypatch):
        written = spy_write_csv(monkeypatch)
        out = str(tmp_path / "out")
        assert main(["all", "--config", DEMO_CONFIG, "--out", out]) == 0
        assert written == ["data.csv"]

    def test_csv_source_formats(self, tmp_path, monkeypatch):
        ds = synth_generate(benchmark_spec("interaction", n=600, seed=5))
        write_csv(str(tmp_path / "d.csv"), ds)
        write_schema(str(tmp_path / "s.txt"), ds)
        text = BASE.replace("synth = interaction\nn = 600",
                            f"csv = {tmp_path / 'd.csv'}\nschema = {tmp_path / 's.txt'}")
        written = spy_write_csv(monkeypatch)
        assert main(["split", "--config", write_cfg(tmp_path, text)]) == 0
        assert written == ["train.csv", "test.csv"]
        assert self.split_files(str(tmp_path / "out")) == self.formatted_parts(tmp_path, ds)

    def test_negative_zero_gathers_as_formatted(self, tmp_path, monkeypatch):
        # -0.0 is written as 0, so data.csv does not read back as the dataset,
        # but its lines are still write_csv's lines of the rows split from it
        cfg = load_config(write_cfg(tmp_path))
        ds = synth_generate(benchmark_spec("interaction", n=600, seed=5))
        values = ds.values.copy()
        values[:5, 0] = -0.0
        ds = Dataset(ds.features, values, ds.labels)
        assert not reads_back(ds)
        monkeypatch.setattr(cli, "synth_generate", lambda spec: ds)
        ws = cli.Workspace(cfg.out_dir)
        cli.cmd_generate(cfg, ws)
        written = spy_write_csv(monkeypatch)
        cli.cmd_split(cfg, ws)
        assert written == []
        assert self.split_files(cfg.out_dir) == self.formatted_parts(tmp_path, ds)
        for rel in ("train.csv", "test.csv"):
            part = ws.dataset(rel, "split")
            assert not (np.signbit(part.values) & (part.values == 0)).any()

    def test_crash_while_gathering_test_csv(self, tmp_path, monkeypatch, capsys):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")

        def failing(path, source_path, rows):
            if path.endswith("test.csv"):
                with open(path, "wb") as fh:
                    fh.write(Path(source_path).read_bytes()[:100])
                raise OSError("disk full")
            gather_csv(path, source_path, rows)

        monkeypatch.setattr(cli, "gather_csv", failing)
        assert main(["all", "--config", cfg]) == 2
        entries = manifest_entries(out)
        assert "artifact.data.csv.sha256" in entries
        assert not any(key.startswith(("artifact.train.csv", "artifact.test.csv"))
                       for key in entries)
        capsys.readouterr()
        assert main(["preprocess", "--config", cfg]) == 1
        assert "artifact train.csv is not in manifest.txt" in capsys.readouterr().err
        monkeypatch.setattr(cli, "gather_csv", gather_csv)
        assert main(["split", "--config", cfg]) == 0
        assert main(["preprocess", "--config", cfg]) == 0
        recovered = self.split_files(out)
        assert main(["all", "--config", cfg, "--out", str(tmp_path / "clean")]) == 0
        assert self.split_files(str(tmp_path / "clean")) == recovered

    def test_data_csv_is_hashed_once_when_gathering(self, tmp_path, monkeypatch):
        cfg = load_config(write_cfg(tmp_path))
        ws = cli.Workspace(cfg.out_dir)
        cli.cmd_generate(cfg, ws)
        spy = DigestSpy()
        monkeypatch.setattr(cli, "hashlib", spy)
        written = spy_write_csv(monkeypatch)
        cli.cmd_split(cfg, ws)
        assert written == []
        assert spy.digests.count(ws.entries["artifact.data.csv.sha256"]) == 1

    def test_changed_or_missing_data_csv_is_refused(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        ws = cli.Workspace(cfg.out_dir)
        cli.cmd_generate(cfg, ws)
        data = os.path.join(cfg.out_dir, "data.csv")
        flip_digit(data)
        with pytest.raises(PipelineError, match="data.csv no longer matches its sha256"):
            cli.cmd_split(cfg, ws)
        assert not os.path.exists(os.path.join(cfg.out_dir, "train.csv"))
        os.remove(data)
        with pytest.raises(PipelineError, match="missing artifact data.csv; run 'generate' first"):
            cli.cmd_split(cfg, ws)


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_generated_data_csv_formats_back_as_it_is(tmp_path, name, seed):
    # why split may gather: write_csv(load_csv(data.csv)) is data.csv, line for line
    ds = synth_generate(benchmark_spec(name, n=2000, seed=seed))
    data, again = str(tmp_path / "data.csv"), str(tmp_path / "again.csv")
    write_csv(data, ds)
    write_schema(str(tmp_path / "schema.txt"), ds)
    write_csv(again, load_csv(data, load_schema(str(tmp_path / "schema.txt"))))
    assert Path(again).read_bytes() == Path(data).read_bytes()


class DigestSpy:
    """hashlib as cli sees it, noting every hex digest it hands out."""

    def __init__(self):
        self.digests = []

    def sha256(self, data=b""):
        spy, digest = self, hashlib.sha256(data)

        class Noted:
            update = digest.update

            def hexdigest(self):
                spy.digests.append(digest.hexdigest())
                return spy.digests[-1]

        return Noted()


class TestSha256:
    """Artifact hashes read files in 1 MiB blocks and equal one-shot hashes."""

    @pytest.mark.parametrize("size", [0, (1 << 20) - 1, 1 << 20, (1 << 20) + 1])
    def test_matches_hash_of_the_bytes(self, tmp_path, size):
        data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
        path = tmp_path / "blob"
        path.write_bytes(data)
        assert cli._sha256(str(path)) == hashlib.sha256(data).hexdigest()


CSV_MEMO_CFG = """
[run]
seed = {seed}
out_dir = {out}
label = y

[data]
csv = {csv}
schema = {schema}

[tuning]
k = 2

[model:logit]

[model:cart]
cp = 0.01
"""


def indicator_data(kinds, n=400, seed=31):
    """Binary and three-level categorical features only, with a label that leans on the first."""
    rng = np.random.Generator(np.random.PCG64(seed))
    features = tuple(Feature(f"b{j}", "binary") if kind == "binary"
                     else Feature(f"c{j}", "categorical", ("p", "q", "r"))
                     for j, kind in enumerate(kinds))
    values = np.column_stack([rng.integers(0, 2 if kind == "binary" else 3, size=n)
                              for kind in kinds]).astype(np.float64)
    y = (rng.random(n) < 0.15 + 0.2 * values[:, 0]).astype(np.int64)
    return Dataset(features, values, {"y": y})


FEATURE_KINDS = {
    "binary": ("binary", "binary", "binary"),
    "categorical": ("categorical", "categorical"),
    "mixed": ("binary", "categorical", "binary"),
}


@pytest.mark.parametrize("method", SCALER_METHODS)
@pytest.mark.parametrize("kinds", sorted(FEATURE_KINDS))
def test_data_with_no_continuous_feature_runs_through(tmp_path, kinds, method):
    # preprocess fits a scaler over no features, and tune, train and evaluate apply it
    ds = indicator_data(FEATURE_KINDS[kinds])
    write_csv(str(tmp_path / "d.csv"), ds)
    write_schema(str(tmp_path / "s.txt"), ds)
    text = set_key(CSV_MEMO_CFG.format(seed=4, out="{out}", csv=tmp_path / "d.csv",
                                       schema=tmp_path / "s.txt"), "preprocess", "scaler", method)
    manifests = []
    for out in ("a", "b"):
        cfg = write_cfg(tmp_path, text, out=str(tmp_path / out))
        assert main(["all", "--config", cfg]) == 0
        manifests.append((tmp_path / out / "manifest.txt").read_bytes())
    assert manifests[0] == manifests[1]
    scaler = load_model(str(tmp_path / "a" / "scaler.txt"))
    assert (scaler.method, scaler.feature_names) == (method, ())


# manifest.txt sha256 of `rarepred all --seed 7` with one BLAS thread, per shipped config
GOLDEN_MANIFESTS = {
    "demos/demo.ini": "a8fed48333a3beba34857407b4b20705ed27bb9c66540bb472642e39924c52d8",
    # a tuned CART and a 30-tree forest
    "perfbench/configs/pipeline_forest.ini":
        "ba71ff586ecd25eb3da4001e817cc0219a76d41a51aab128b10f16c420f6499e",
    # multi-block ROC tables, and elastic-net folds over the CPUs
    "perfbench/configs/pipeline_rare.ini":
        "883cf2989d1fc3c391d9f3feb6e30e031ed14d8235a59a639fb2e5482f6230f3",
}


@pytest.mark.skipif(
    (platform.python_version(), np.__version__) != ("3.11.7", "2.4.6"),
    reason="the manifest records the Python and numpy versions, and the golden digests"
    " were made with Python 3.11.7 and numpy 2.4.6",
)
@pytest.mark.parametrize("config", sorted(GOLDEN_MANIFESTS))
def test_shipped_config_gives_its_golden_manifest(tmp_path, config):
    out = str(tmp_path / "out")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "rarepred.cli", "all", "--config", os.path.join(root, config),
         "--out", out, "--seed", "7"],
        capture_output=True,
        text=True,
        env=with_blas_threads(1),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(out, "manifest.txt"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == GOLDEN_MANIFESTS[config]
