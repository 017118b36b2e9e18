"""The benchmark's workloads and their output checks.

All three are closed loops with one caller. A run repeats the workload's
unit of work while the next repetition is expected to end within
``--seconds``. Pipelines repeat at least twice, so every run can check that
its outputs repeat; score_batches repeats set-up and scoring job together at
least three times, so set-up time is a median. A traced run makes at least
three repetitions and traces the even ones. An untraced run samples the
reference computation of speed.py around each timed operation, and on a
timer during a pipeline, to time it in reference units as well as seconds.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from rarepred import anomaly, benchmarks, cli, dataset, evaluate, linear, preprocess
from rarepred import serialize, trees
from speed import SpeedProbe

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
LABEL = "outcome"
SETUP_REPEATS = 5  # CLI start-ups per pipeline run


@dataclass
class Outcome:
    """What one run of a workload measured and checked.

    Untraced repetitions are timed twice: in seconds outside the reference
    samples, and in reference units (see speed.py). Traced runs take no
    reference samples.
    """

    probe: SpeedProbe | None
    setup_s: list[float] = field(default_factory=list)
    rep_s: list[float] = field(default_factory=list)  # untraced repetitions
    rep_ref: list[float] = field(default_factory=list)
    traced_rep_s: list[float] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)  # untraced operations
    latencies_ref: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    quality: dict[str, float] = field(default_factory=dict)
    setup_runs: list[str] = field(default_factory=list)  # trace run ids
    measured_runs: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    @classmethod
    def start(cls, tracer) -> Outcome:
        return cls(probe=SpeedProbe() if tracer is None else None)

    def phase(self, tracer, i: int, kind: str):
        """Trace repetition i's set-up or measured phase if it is traced."""
        if not _traced(tracer, i):
            return contextlib.nullcontext()
        (self.setup_runs if kind == "setup" else self.measured_runs).append(f"{kind}{i}")
        return tracer.active(f"{kind}{i}")

    def sample(self) -> None:
        """Take a reference sample between two timed stretches."""
        if self.probe is not None:
            self.probe.sample()

    def periodic(self):
        """Take reference samples on a timer during one long operation."""
        return self.probe.periodic() if self.probe is not None else contextlib.nullcontext()

    def record(self, tracer, i: int, started: float, ended: float,
               ops: list[tuple[float, float]]) -> None:
        """Keep repetition i's time and the (start, end) times of its operations."""
        if _traced(tracer, i):
            self.traced_rep_s.append(ended - started)
        elif self.probe is None:
            self.rep_s.append(ended - started)
        else:
            self.rep_s.append(self.probe.busy_s(started, ended))
            self.rep_ref.append(self.probe.refs(started, ended))
            self.latencies_s.extend(self.probe.busy_s(*op) for op in ops)
            self.latencies_ref.extend(self.probe.refs(*op) for op in ops)


def _traced(tracer, i: int) -> bool:
    # Even repetitions are traced, so each untraced one sits between two
    # traced ones and a drift in machine speed over the run cancels out of
    # the traced-minus-untraced overhead.
    return tracer is not None and i % 2 == 0


def repeat(seconds: float, min_reps: int, rep) -> None:
    """Call rep(i) until the next call is expected to end after ``seconds``."""
    start = time.perf_counter()
    i, last = 0, 0.0
    while i < min_reps or time.perf_counter() - start + last <= seconds:
        last = rep(i)
        i += 1


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# pipelines: `rarepred all` through rarepred.cli.main


# Launching the CLI and parsing the config, as every command does first.
_STARTUP = (
    "import sys; sys.path.insert(0, sys.argv[1]); import rarepred.cli; "
    "rarepred.cli.load_config(sys.argv[2], out_dir=sys.argv[3], seed=int(sys.argv[4]))"
)


@dataclass(frozen=True)
class Pipeline:
    config: str
    steps: tuple[str, ...]
    expect: frozenset[str]  # spans a traced run must record
    forbid: tuple[str, ...]  # span name prefixes a traced run must not record
    forbid_measured: tuple[str, ...] = ()  # ... nor record in its measured phase

    def run(self, seed: int, seconds: float, work_dir: str, tracer) -> Outcome:
        ini = os.path.join(BENCH_DIR, "configs", self.config)
        res = Outcome.start(tracer)
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            # no timeout: with one, the wait polls in steps of up to 50 ms
            subprocess.run(
                [sys.executable, "-c", _STARTUP, SRC_DIR, ini, work_dir, str(seed)],
                check=True,
            )
            res.setup_s.append(time.perf_counter() - started)
        manifests: list[bytes] = []

        def rep(i: int) -> float:
            out = os.path.join(work_dir, f"rep{i}")
            argv = ["all", "--config", ini, "--out", out, "--seed", str(seed)]
            with res.phase(tracer, i, "rep"), contextlib.redirect_stdout(io.StringIO()):
                res.sample()
                started = time.perf_counter()
                with res.periodic():
                    cli.main(argv)
                ended = time.perf_counter()
                res.sample()
            res.record(tracer, i, started, ended, [(started, ended)])
            failed, manifest = self.check(out, manifests[0] if manifests else None)
            manifests.append(manifest)
            if i == 0:
                # later runs' AUCs are held equal by the manifest check
                res.quality = _pipeline_quality(out)
            res.attempted += len(self.steps)
            res.failed += len(failed)
            if failed:
                res.detail.setdefault("failed_steps", []).append(sorted(failed))
            shutil.rmtree(out)
            return ended - started

        repeat(seconds, 3 if tracer is not None else 2, rep)
        return res

    def check(self, out: str, first_manifest: bytes | None) -> tuple[set[str], bytes]:
        """Steps that failed a check, and this run's manifest.

        A step fails when it did not complete, when an artifact it produced
        does not hash to the manifest's sha256, or when a manifest line about
        its artifacts differs from the first run of this seed. A differing
        line about no artifact fails every step.
        """
        failed: set[str] = set()
        done = set()
        stamps = os.path.join(out, cli.TIMESTAMPS_NAME)
        if os.path.exists(stamps):
            with open(stamps, encoding="utf-8") as fh:
                done = {line.split()[1] for line in fh if line.strip()}
        failed.update(step for step in self.steps if step not in done)
        path = os.path.join(out, cli.MANIFEST_NAME)
        manifest = b""
        if os.path.exists(path):
            with open(path, "rb") as fh:
                manifest = fh.read()
        entries = _manifest_entries(manifest)
        for key, value in entries.items():
            if key.startswith("artifact.") and key.endswith(".sha256"):
                rel = key[len("artifact."):-len(".sha256")]
                full = os.path.join(out, rel)
                if not os.path.exists(full) or _sha256(full) != value:
                    failed.add(entries[f"artifact.{rel}.command"])
        if first_manifest is not None and manifest != first_manifest:
            first = _manifest_entries(first_manifest)
            for key in set(entries) | set(first):
                if entries.get(key) == first.get(key):
                    continue
                if key.startswith("artifact."):
                    rel = key[len("artifact."):].rsplit(".", 1)[0]
                    command = entries.get(f"artifact.{rel}.command") or first.get(
                        f"artifact.{rel}.command"
                    )
                    failed.add(command)
                else:
                    failed.update(self.steps)
        return failed, manifest


def _manifest_entries(manifest: bytes) -> dict[str, str]:
    entries = {}
    for line in manifest.decode("utf-8").splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.partition(" = ")
            entries[key] = value
    return entries


def _pipeline_quality(out: str) -> dict[str, float]:
    """Test AUC per model from report/metrics.csv, and the detector's AUC."""
    quality = {}
    path = os.path.join(out, "report", "metrics.csv")
    if os.path.exists(path):
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            if row[0] == "AUC":
                for model, value in zip(rows[0][1:], row[1:]):
                    quality[f"test_auc.{model}"] = float(value)
    path = os.path.join(out, "detect", "detect_metrics.csv")
    if os.path.exists(path):
        with open(path, encoding="utf-8", newline="") as fh:
            for metric, value in list(csv.reader(fh))[1:]:
                if metric == "auc":
                    quality["detect_auc"] = float(value)
    return quality


_PIPELINE_SPANS = {
    "cli.record_artifact", "cli.workspace_save", "config.load_config",
    "dataset.synth_generate", "dataset.stratified_split", "dataset.write_csv",
    "dataset.load_csv", "preprocess.fit_scaler", "preprocess.apply_scaler",
    "preprocess.write_conditional_summary", "tune.grid_search", "tune.cross_validate",
    "evaluate.evaluate_scores", "evaluate.auc", "evaluate.write_report",
    "serialize.save_model", "serialize.load_model",
}
_FOREST_STEPS = ("generate", "split", "preprocess", "tune", "train", "evaluate", "report")
_RARE_STEPS = _FOREST_STEPS[:-1] + ("detect", "report")

PIPELINE_FOREST = Pipeline(
    config="pipeline_forest.ini",
    steps=_FOREST_STEPS,
    expect=frozenset(
        _PIPELINE_SPANS
        | {f"cli.step.{s}" for s in _FOREST_STEPS}
        | {"trees.fit_forest", "trees.fit_cart", "trees.predict_forest", "trees.predict_tree"}
    ),
    forbid=(),
)

PIPELINE_RARE = Pipeline(
    config="pipeline_rare.ini",
    steps=_RARE_STEPS,
    expect=frozenset(
        _PIPELINE_SPANS
        | {f"cli.step.{s}" for s in _RARE_STEPS}
        | {"linear.fit_logit", "linear.fit_elastic_net", "linear.predict_proba"}
        | {"neural.fit_network", "neural.forward"}
        | {"anomaly.train_autoencoder", "anomaly.score_dataset", "anomaly.calibrate_band",
           "anomaly.write_scores"}
    ),
    forbid=("trees.",),
)


# ---------------------------------------------------------------------------
# score_batches: a library scoring job over saved models

N_TRAIN = 20_000
BATCH_ROWS = 1_000
N_BATCHES = 40  # per scoring job; a run makes at least three
MODEL_KINDS = ("forest", "cart", "logit", "autoencoder")


def _fit_and_save(seed: int, model_dir: str):
    spec = benchmarks.benchmark_spec(
        "interaction", n=N_TRAIN + N_BATCHES * BATCH_ROWS, seed=seed
    )
    ds = dataset.synth_generate(spec)
    train = ds.subset_rows(np.arange(N_TRAIN))
    held = ds.subset_rows(np.arange(N_TRAIN, ds.rows))
    scaler = preprocess.fit_scaler(
        train, "minmax", feature_names=anomaly.DEFAULT_AUTOENCODER_FEATURES
    )
    models = {
        "forest": trees.fit_forest(
            train, LABEL, trees.ForestHyper(n_trees=40, min_node=100, seed=seed)
        ),
        "cart": trees.fit_cart(train, LABEL, cp=0.002),
        "logit": linear.fit_logit(train, LABEL),
        "autoencoder": anomaly.train_autoencoder(
            preprocess.apply_scaler(train, scaler), label=LABEL, epochs=10,
            batch_size=512, seed=seed,
        ),
    }
    os.makedirs(model_dir, exist_ok=True)
    for kind, model in models.items():
        serialize.save_model(os.path.join(model_dir, f"{kind}.model"), model)
    return models, scaler, held


def _score_rest(models, scaler, batch) -> tuple[np.ndarray, ...]:
    return (
        trees.predict_tree(models["cart"], batch),
        linear.predict_proba(models["logit"], batch),
        anomaly.score_dataset(models["autoencoder"], preprocess.apply_scaler(batch, scaler)),
    )


def _score(models, scaler, batch) -> tuple[np.ndarray, ...]:
    return (trees.predict_forest(models["forest"], batch), *_score_rest(models, scaler, batch))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@dataclass(frozen=True)
class ScoreBatches:
    expect: frozenset[str] = frozenset({
        "dataset.synth_generate", "preprocess.fit_scaler", "preprocess.apply_scaler",
        "trees.fit_forest", "trees.fit_cart", "linear.fit_logit",
        "anomaly.train_autoencoder", "neural.fit_network", "serialize.save_model",
        "serialize.load_model", "trees.predict_forest", "trees.predict_tree",
        "linear.predict_proba", "anomaly.score_dataset", "neural.forward",
    })
    forbid: tuple[str, ...] = ()
    # CSV is never touched once the models are saved
    forbid_measured: tuple[str, ...] = ("dataset.load_csv", "dataset.write_csv")

    def run(self, seed: int, seconds: float, work_dir: str, tracer) -> Outcome:
        """Alternate set-up and scoring job, so each job loads fresh files."""
        res = Outcome.start(tracer)
        model_dir = os.path.join(work_dir, "models")
        first: dict = {}  # the first repetition's batches and reference scores
        hashes: list[str] = []

        def rep(i: int) -> float:
            shutil.rmtree(model_dir, ignore_errors=True)
            with res.phase(tracer, i, "setup"):
                started = time.perf_counter()
                models, scaler, held = _fit_and_save(seed, model_dir)
                setup_s = time.perf_counter() - started
            res.setup_s.append(setup_s)
            if i == 0:
                first["batches"] = [
                    held.subset_rows(np.arange(b * BATCH_ROWS, (b + 1) * BATCH_ROWS))
                    for b in range(N_BATCHES)
                ]
                # A forest's votes do not depend on which rows share a call,
                # so one call over every held-out row gives its references.
                forest_ref = trees.predict_forest(models["forest"], held)
                first["refs"] = [
                    (forest_ref[b * BATCH_ROWS:(b + 1) * BATCH_ROWS],
                     *_score_rest(models, scaler, batch))
                    for b, batch in enumerate(first["batches"])
                ]
            batch_ops = []
            scores = []
            with res.phase(tracer, i, "rep"):
                res.sample()
                started = time.perf_counter()
                loaded = {
                    kind: serialize.load_model(os.path.join(model_dir, f"{kind}.model"))
                    for kind in MODEL_KINDS
                }
                for batch in first["batches"]:
                    res.sample()
                    t0 = time.perf_counter()
                    scores.append(_score(loaded, scaler, batch))
                    batch_ops.append((t0, time.perf_counter()))
                ended = time.perf_counter()
                res.sample()
            res.record(tracer, i, started, ended, batch_ops)
            # Every job is held to the same references, so a run whose
            # batches all pass also repeats its score hash across jobs.
            job = hashlib.sha256()
            for got, ref in zip(scores, first["refs"]):
                job.update(b"".join(s.tobytes() for s in got))
                res.attempted += 1
                res.failed += not all(_same_bits(g, r) for g, r in zip(got, ref))
            hashes.append(job.hexdigest())
            if i == 0:
                y = held.label(LABEL)
                names = ("test_auc.forest", "test_auc.cart", "test_auc.logit", "detect_auc")
                for name, column in zip(names, zip(*scores)):
                    res.quality[name] = evaluate.auc(y, np.concatenate(column))
            return setup_s + ended - started

        repeat(seconds, 3, rep)
        res.detail["scores_sha256"] = hashes
        return res


WORKLOADS = {
    "pipeline_forest": PIPELINE_FOREST,
    "pipeline_rare": PIPELINE_RARE,
    "score_batches": ScoreBatches(),
}
