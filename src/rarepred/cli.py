"""Batch command-line front end for the full modeling pipeline.

Usage: ``rarepred <command> --config <path> [--out <dir>] [--seed <n>]``.
Commands: generate, split, preprocess, tune, train, evaluate, detect,
report, and all (which runs the applicable subsequence in that order).
Exit codes: 0 success, 1 configuration or prerequisite problem, 2 runtime
failure.

Every command writes its artifacts under the configured output directory
and records them in ``manifest.txt``: a sorted key-value file carrying
artifact SHA-256 hashes, the command and input artifacts behind each file
with the inputs' hashes at the time, derived seeds, library versions, the
effective configuration, and the train-only scaler statistics. Two runs
with the same configuration and seed produce byte-identical artifacts and
manifests; wall-clock timestamps live in ``timestamps.txt`` so they never
break that.

Every command reads its workspace inputs through one check: a file that is
missing, not recorded, or whose sha256 no longer matches the manifest is
refused with exit 1, and so is one made from an input that has since been
rewritten; ``report`` checks every artifact it lists. A split file that
passes is parsed once per command run, so ``rarepred all`` parses each of
data.csv, train.csv and test.csv once.

The test split is written once by ``split`` and first read by ``evaluate``
(then ``detect``); the manifest's per-artifact input lists make that
auditable. Running ``evaluate`` again warns that a reused holdout stops
being an honest generalization check.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .anomaly import (
    ThresholdBand,
    calibrate_band,
    classify_band,
    score_dataset,
    train_autoencoder,
    write_scores,
)
from .config import ConfigError, RunConfig, format_value, load_config, parse_value
from .dataset import (
    Dataset,
    load_csv,
    load_schema,
    stratified_split,
    synth_generate,
    write_csv,
    write_schema,
    write_table,
)
from .benchmarks import benchmark_spec
from .evaluate import auc, confusion, evaluate_scores, metrics, write_report
from .preprocess import (
    apply_scaler,
    fit_scaler,
    scaler_from_text,
    scaler_to_text,
    write_conditional_summary,
)
from .rng import child_seed
from .serialize import load_model, save_model
from .trees import variable_importance
from .tune import get_model_spec, grid_search, write_tuning_report

__all__ = ["console_main", "main", "PipelineError", "COMMANDS"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

MANIFEST_NAME = "manifest.txt"
TIMESTAMPS_NAME = "timestamps.txt"


class PipelineError(Exception):
    """A command cannot run: bad request or missing prerequisite artifact."""


class _UsageError(Exception):
    pass


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Workspace:
    """One output directory with its manifest and timestamp log."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.entries: dict[str, str] = {}
        # parsed split files keyed by (rel, its sha256, schema.txt's sha256)
        self.datasets: dict[tuple[str, str, str], Dataset] = {}
        path = os.path.join(out_dir, MANIFEST_NAME)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                for raw in fh:
                    line = raw.strip()
                    if not line or line.startswith("#"):
                        continue
                    key, _, value = line.partition(" = ")
                    self.entries[key] = value

    def path(self, rel: str) -> str:
        full = os.path.join(self.out_dir, rel)
        os.makedirs(os.path.dirname(full) or ".", exist_ok=True)
        return full

    def set(self, key: str, value) -> None:
        self.entries[key] = str(value)

    def record_artifact(self, rel: str, command: str, inputs: list[str]) -> None:
        self.entries[f"artifact.{rel}.sha256"] = _sha256(os.path.join(self.out_dir, rel))
        self.entries[f"artifact.{rel}.command"] = command
        # "(none)" keeps every manifest value nonempty, so the file parses
        # back identically line by line
        self.entries[f"artifact.{rel}.inputs"] = ",".join(inputs) if inputs else "(none)"
        self.entries[f"artifact.{rel}.input_hashes"] = self._input_hashes(inputs)

    def _input_hashes(self, inputs: list[str]) -> str:
        """The sha256s the manifest records for ``inputs`` now, in order."""
        return ",".join(self.entries.get(f"artifact.{i}.sha256", "?") for i in inputs) or "(none)"

    def has_artifact(self, rel: str) -> bool:
        return f"artifact.{rel}.sha256" in self.entries

    def require_artifact(self, rel: str, producer: str) -> str:
        """Path of ``rel`` once its bytes hash to the sha256 the manifest records."""
        full = os.path.join(self.out_dir, rel)
        if not os.path.exists(full):
            raise PipelineError(f"missing artifact {rel}; run '{producer}' first")
        recorded = self.entries.get(f"artifact.{rel}.sha256")
        if recorded is None or _sha256(full) != recorded:
            why = "is not in" if recorded is None else "no longer matches its sha256 in"
            raise PipelineError(
                f"artifact {rel} {why} {MANIFEST_NAME}; run '{producer}' again"
            )
        # provenance by content: the inputs must still be the bytes rel was made from
        listed = self.entries.get(f"artifact.{rel}.inputs", "(none)")
        inputs = [] if listed == "(none)" else listed.split(",")
        made_from = self.entries.get(f"artifact.{rel}.input_hashes", "").split(",")
        for name, then, now in zip(inputs, made_from, self._input_hashes(inputs).split(",")):
            if then != now:
                raise PipelineError(
                    f"artifact {rel} was made from an older {name}; run '{producer}' again"
                )
        return full

    def dataset(self, rel: str, producer: str) -> Dataset:
        """The checked split file ``rel``, parsed once per content and schema."""
        full = self.require_artifact(rel, producer)
        schema = self.require_artifact("schema.txt", producer)
        key = (rel, self.entries[f"artifact.{rel}.sha256"],
               self.entries["artifact.schema.txt.sha256"])
        if key not in self.datasets:
            self.datasets[key] = load_csv(full, load_schema(schema))
        return self.datasets[key]

    def artifacts(self) -> list[str]:
        prefix, suffix = "artifact.", ".sha256"
        return sorted(
            key[len(prefix) : -len(suffix)]
            for key in self.entries
            if key.startswith(prefix) and key.endswith(suffix)
        )

    def save(self) -> None:
        # Only the manifest is replaced atomically. An artifact is written in
        # place and recorded afterwards, so a crash in between leaves bytes
        # whose sha256 the manifest does not hold, and require_artifact
        # refuses them; a torn manifest would lose every record at once.
        os.makedirs(self.out_dir, exist_ok=True)
        lines = [
            "# artifact hashes, seeds, versions, and the effective configuration",
            f"# timestamps live in {TIMESTAMPS_NAME}",
        ]
        lines += [f"{key} = {self.entries[key]}" for key in sorted(self.entries)]
        path = os.path.join(self.out_dir, MANIFEST_NAME)
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(path + ".tmp", path)

    def stamp(self, command: str) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        now = datetime.now(timezone.utc).isoformat()
        with open(os.path.join(self.out_dir, TIMESTAMPS_NAME), "a", encoding="utf-8") as fh:
            fh.write(f"{now} {command}\n")


def _common_entries(cfg: RunConfig, ws: Workspace) -> None:
    import numpy

    ws.set("seed.master", cfg.seed)
    ws.set("version.rarepred", __version__)
    ws.set("version.numpy", numpy.__version__)
    ws.set("version.python", ".".join(str(v) for v in sys.version_info[:3]))
    for section, items in cfg.raw.items():
        for key, value in items.items():
            if section == "run" and key in ("out_dir", "seed"):
                continue
            ws.set(f"config.{section}.{key}", " ".join(value.split()))
    ws.set("config.run.seed", cfg.seed)


def _record_scaler_stats(ws: Workspace, prefix: str, params) -> None:
    ws.set(f"{prefix}.method", params.method)
    for name in params.names:
        stats = params.stats_for(name)
        for stat in ("mean", "sd", "min", "max"):
            ws.set(f"{prefix}.{name}.{stat}", repr(float(stats[stat])))
        ws.set(f"{prefix}.{name}.constant", int(stats["constant"]))


def _load_scaler(ws: Workspace):
    with open(ws.require_artifact("scaler.txt", "preprocess"), encoding="utf-8") as fh:
        return scaler_from_text(fh.read())


# ---------------------------------------------------------------------------
# commands


def cmd_generate(cfg: RunConfig, ws: Workspace) -> None:
    if cfg.synth is None:
        raise PipelineError("generate needs a synth data source; this run reads a csv")
    spec = benchmark_spec(cfg.synth, n=cfg.synth_n, seed=cfg.seed)
    ds = synth_generate(spec)
    write_csv(ws.path("data.csv"), ds)
    write_schema(ws.path("schema.txt"), ds)
    ws.record_artifact("data.csv", "generate", [])
    ws.record_artifact("schema.txt", "generate", [])
    print(f"generate: wrote data.csv ({ds.rows} rows, {len(ds.features)} features)")


def cmd_split(cfg: RunConfig, ws: Workspace) -> None:
    if cfg.synth is not None:
        # checked but not memoised: nothing reads data.csv again
        data = ws.require_artifact("data.csv", "generate")
        ds = load_csv(data, load_schema(ws.require_artifact("schema.txt", "generate")))
        inputs = ["data.csv", "schema.txt"]
    else:
        ds = load_csv(cfg.csv, load_schema(cfg.schema), missing_policy=cfg.missing)
        write_schema(ws.path("schema.txt"), ds)
        ws.record_artifact("schema.txt", "split", [])
        inputs = ["schema.txt"]
    seed = child_seed(cfg.seed, "split")
    pair = stratified_split(ds, cfg.fraction, cfg.label, seed)
    write_csv(ws.path("train.csv"), pair.train)
    write_csv(ws.path("test.csv"), pair.test)
    ws.record_artifact("train.csv", "split", inputs)
    ws.record_artifact("test.csv", "split", inputs)
    ws.set("seed.split", seed)
    ws.set("split.train_rows", pair.train.rows)
    ws.set("split.test_rows", pair.test.rows)
    print(f"split: train.csv ({pair.train.rows} rows), test.csv ({pair.test.rows} rows)")


def cmd_preprocess(cfg: RunConfig, ws: Workspace) -> None:
    train = ws.dataset("train.csv", "split")
    params = fit_scaler(train, cfg.scaler, feature_names=cfg.scale_features)
    with open(ws.path("scaler.txt"), "w", encoding="utf-8") as fh:
        fh.write(scaler_to_text(params))
    write_conditional_summary(ws.path("conditional_summary.csv"), train, cfg.label)
    inputs = ["train.csv", "schema.txt"]
    ws.record_artifact("scaler.txt", "preprocess", inputs)
    ws.record_artifact("conditional_summary.csv", "preprocess", inputs)
    _record_scaler_stats(ws, "scaler", params)
    print(f"preprocess: {cfg.scaler} scaler over {len(params.names)} features")


def cmd_tune(cfg: RunConfig, ws: Workspace) -> None:
    if not cfg.models:
        raise PipelineError("no [model:<kind>] sections to tune")
    train = ws.dataset("train.csv", "split")
    for mg in cfg.models:
        seed = child_seed(cfg.seed, "tune", mg.kind)
        result = grid_search(
            train,
            cfg.label,
            mg.kind,
            mg.grid,
            k=cfg.k,
            seed=seed,
            metric=cfg.metric,
            subset_frac=cfg.subset_frac,
            repeats=cfg.repeats,
            refit=False,
            scaler=cfg.scaler,
        )
        rel_dir = f"tune/{mg.kind}"
        names = write_tuning_report(ws.path(rel_dir), result)
        best_rel = f"{rel_dir}/best_params.txt"
        with open(ws.path(best_rel), "w", encoding="utf-8") as fh:
            for key in sorted(result.best_params):
                fh.write(f"{key} = {format_value(result.best_params[key])}\n")
        for name in names + ["best_params.txt"]:
            ws.record_artifact(f"{rel_dir}/{name}", "tune", ["train.csv", "schema.txt"])
        ws.set(f"seed.tune.{mg.kind}", seed)
        best = result.means[result.best_index]
        print(
            f"tune: {mg.kind} best {cfg.metric}={best:.4f}"
            f" over {len(result.points)} grid points"
        )


def _chosen_params(cfg: RunConfig, ws: Workspace, mg) -> tuple[dict, list[str]]:
    best_rel = f"tune/{mg.kind}/best_params.txt"
    if ws.has_artifact(best_rel) or os.path.exists(os.path.join(ws.out_dir, best_rel)):
        params = {}
        with open(ws.require_artifact(best_rel, "tune"), encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                key, _, value = line.partition(" = ")
                params[key] = parse_value(value)
        return params, [best_rel]
    point = mg.single_point()
    if point is None:
        raise PipelineError(
            f"[model:{mg.kind}] has a multi-point grid and no tuning result;"
            " run 'tune' first"
        )
    return point, []


def cmd_train(cfg: RunConfig, ws: Workspace) -> None:
    if not cfg.models:
        raise PipelineError("no [model:<kind>] sections to train")
    train = ws.dataset("train.csv", "split")
    scaler = _load_scaler(ws)
    train_s = apply_scaler(train, scaler)
    for mg in cfg.models:
        params, extra_inputs = _chosen_params(cfg, ws, mg)
        seed = child_seed(cfg.seed, "train", mg.kind)
        model = get_model_spec(mg.kind).fit(train_s, cfg.label, None, params, seed)
        rel = f"models/{mg.kind}.model"
        save_model(ws.path(rel), model)
        ws.record_artifact(
            rel, "train", ["train.csv", "schema.txt", "scaler.txt"] + extra_inputs
        )
        ws.set(f"seed.train.{mg.kind}", seed)
        print(f"train: {mg.kind} -> {rel}")


def cmd_evaluate(cfg: RunConfig, ws: Workspace) -> None:
    if not cfg.models:
        raise PipelineError("no [model:<kind>] sections to evaluate")
    if ws.has_artifact("report/metrics.csv"):
        print(
            "warning: the test split has already been evaluated; repeated looks"
            " at the holdout stop it from being an honest generalization check",
            file=sys.stderr,
        )
    model_rels = [f"models/{mg.kind}.model" for mg in cfg.models]
    model_paths = [ws.require_artifact(rel, "train") for rel in model_rels]
    scaler = _load_scaler(ws)
    test = ws.dataset("test.csv", "split")
    test_s = apply_scaler(test, scaler)
    y = test_s.label(cfg.label)
    evaluations = []
    for mg, path in zip(cfg.models, model_paths):
        model = load_model(path)
        scores = get_model_spec(mg.kind).predict(model, test_s)
        importance = variable_importance(model) if mg.kind != "ffn" else {}
        evaluations.append(evaluate_scores(mg.kind, y, scores, importance=importance))
    names = write_report(ws.path("report"), evaluations)
    inputs = ["test.csv", "schema.txt", "scaler.txt"] + model_rels
    for name in names:
        ws.record_artifact(f"report/{name}", "evaluate", inputs)
    summary = ", ".join(f"{ev.name} auc={ev.auc_value:.4f}" for ev in evaluations)
    print(f"evaluate: {summary}")


def cmd_detect(cfg: RunConfig, ws: Workspace) -> None:
    ae_cfg = cfg.autoencoder
    if ae_cfg is None:
        raise PipelineError("no [autoencoder] section to run detection with")
    train = ws.dataset("train.csv", "split")
    test = ws.dataset("test.csv", "split")
    params = fit_scaler(train, ae_cfg.scaler, feature_names=ae_cfg.features)
    with open(ws.path("ae_scaler.txt"), "w", encoding="utf-8") as fh:
        fh.write(scaler_to_text(params))
    ws.record_artifact("ae_scaler.txt", "detect", ["train.csv", "schema.txt"])
    _record_scaler_stats(ws, "ae_scaler", params)
    train_s = apply_scaler(train, params)
    test_s = apply_scaler(test, params)
    seed = child_seed(cfg.seed, "detect")
    ae = train_autoencoder(
        train_s,
        label=cfg.label,
        features=ae_cfg.features,
        hidden=ae_cfg.hidden,
        activations=ae_cfg.activations,
        loss_name=ae_cfg.loss,
        activity_l2=ae_cfg.activity_l2,
        epochs=ae_cfg.epochs,
        batch_size=ae_cfg.batch_size,
        lr=ae_cfg.learning_rate,
        seed=seed,
    )
    save_model(ws.path("models/autoencoder.model"), ae)
    ws.record_artifact(
        "models/autoencoder.model", "detect", ["train.csv", "schema.txt", "ae_scaler.txt"]
    )
    ws.set("seed.detect", seed)

    y_train = train_s.label(cfg.label)
    y_test = test_s.label(cfg.label)
    train_scores = score_dataset(ae, train_s, kind=ae_cfg.error)
    test_scores = score_dataset(ae, test_s, kind=ae_cfg.error)
    if ae_cfg.band_lo is not None:
        band = ThresholdBand(ae_cfg.band_lo, ae_cfg.band_hi)
        objective_line = "objective = (fixed)"
        value_line = None
    else:
        band, value = calibrate_band(
            train_scores, y_train, objective=ae_cfg.objective, hi=ae_cfg.band_hi
        )
        objective_line = f"objective = {ae_cfg.objective}"
        value_line = f"value = {float(value)!r}"
    write_scores(ws.path("detect/train_scores.csv"), train_scores, y_train)
    write_scores(ws.path("detect/test_scores.csv"), test_scores, y_test)
    with open(ws.path("detect/band.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"lo = {float(band.lo)!r}\n")
        fh.write(f"hi = {float(band.hi)!r}\n")
        fh.write(objective_line + "\n")
        if value_line is not None:
            fh.write(value_line + "\n")
    preds = classify_band(test_scores, band)
    m = metrics(confusion(y_test, preds))
    auc_value = auc(y_test, test_scores)
    write_table(
        ws.path("detect/detect_metrics.csv"),
        ["metric", "value"],
        [("accuracy", m.accuracy), ("kappa", m.kappa), ("sensitivity", m.sensitivity),
         ("specificity", m.specificity), ("auc", auc_value)],
    )
    train_inputs = ["train.csv", "schema.txt", "ae_scaler.txt", "models/autoencoder.model"]
    test_inputs = ["test.csv", "schema.txt", "ae_scaler.txt", "models/autoencoder.model"]
    ws.record_artifact("detect/train_scores.csv", "detect", train_inputs)
    ws.record_artifact("detect/band.txt", "detect", train_inputs)
    ws.record_artifact("detect/test_scores.csv", "detect", test_inputs)
    ws.record_artifact(
        "detect/detect_metrics.csv", "detect", test_inputs + ["detect/band.txt"]
    )
    print(
        f"detect: band [{float(band.lo)!r}, {float(band.hi)!r}],"
        f" test auc={auc_value:.4f}, sensitivity={m.sensitivity:.4f}"
    )


def cmd_report(cfg: RunConfig, ws: Workspace) -> None:
    artifacts = [rel for rel in ws.artifacts() if rel != "report/summary.txt"]
    if not artifacts:
        raise PipelineError("nothing to report; run the pipeline first")
    lines = ["run summary", "===========", "", "[artifacts]"]
    for rel in artifacts:
        ws.require_artifact(rel, ws.entries[f"artifact.{rel}.command"])
        lines.append(f"{rel}  sha256={ws.entries[f'artifact.{rel}.sha256']}")
    tables = ("report/metrics.csv", "detect/detect_metrics.csv", "detect/band.txt")
    inputs = [rel for rel in tables if ws.has_artifact(rel)]
    for rel in inputs:  # checked above with every other artifact
        lines += ["", f"[{rel}]"]
        with open(os.path.join(ws.out_dir, rel), encoding="utf-8") as fh:
            lines.extend(fh.read().splitlines())
    with open(ws.path("report/summary.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    ws.record_artifact("report/summary.txt", "report", inputs)
    print(f"report: summary over {len(artifacts)} artifacts")


_COMMANDS = {
    "generate": cmd_generate,
    "split": cmd_split,
    "preprocess": cmd_preprocess,
    "tune": cmd_tune,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "detect": cmd_detect,
    "report": cmd_report,
}
COMMANDS = (*_COMMANDS, "all")


def _steps_for(command: str, cfg: RunConfig) -> list[str]:
    if command != "all":
        return [command]
    steps = ["generate"] if cfg.synth is not None else []
    steps += ["split", "preprocess"]
    if cfg.models:
        steps += ["tune", "train", "evaluate"]
    if cfg.autoencoder is not None:
        steps.append("detect")
    steps.append("report")
    return steps


def run(cfg: RunConfig, command: str) -> None:
    """Execute one command (or the `all` sequence) against its workspace."""
    if command not in COMMANDS:
        raise PipelineError(f"unknown command {command!r}")
    ws = Workspace(cfg.out_dir)
    for step in _steps_for(command, cfg):
        _COMMANDS[step](cfg, ws)
        _common_entries(cfg, ws)
        ws.save()
        ws.stamp(step)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation errors, exit 1
        raise _UsageError(message)


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="rarepred",
        description="Rare-event prediction pipeline: data synthesis, splitting,"
        " preprocessing, tuning, training, evaluation, and anomaly detection.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = load_config(args.config, out_dir=args.out, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        run(cfg, args.command)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - boundary: report, don't crash
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def console_main() -> int:
    return main()


if __name__ == "__main__":
    sys.exit(main())
