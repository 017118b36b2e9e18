"""Configuration parsing and the batch pipeline front end."""

import hashlib
import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

import rarepred
from rarepred import anomaly, cli, tune
from rarepred.benchmarks import benchmark_spec
from rarepred.cli import PipelineError, main, run
from rarepred.config import (
    _SECTIONS,
    ConfigError,
    format_value,
    load_config,
    parse_scalar,
    parse_value,
    parse_values,
)
from rarepred.dataset import load_csv, load_schema, synth_generate, write_csv, write_schema
from rarepred.preprocess import fit_scaler


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


class TestPipeline:
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
        for name in params.names:
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
        assert parsed == ["data.csv", "train.csv", "test.csv"]

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
