"""Span tracer that times calls into rarepred's layers from outside the package.

Installing the tracer rebinds every traced function wherever a rarepred module
holds it, so names that ``cli`` and ``anomaly`` bound with ``from ... import``
are wrapped too. It also wraps the function objects that are held by value:
the predict functions in ``tune._REGISTRY``, the step functions in
``cli._COMMANDS`` and two ``cli.Workspace`` methods. Removing it puts every
original back, so untraced repetitions run the unmodified program.

A span is (id, name, start, end, parent id, run id) plus the counters read
from the call's arguments and return value. Spans stay in memory until
``write`` saves them as JSON lines.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from rarepred import (
    anomaly,
    cli,
    config,
    dataset,
    evaluate,
    linear,
    neural,
    preprocess,
    serialize,
    trees,
    tune,
)

# the layers; benchmarks and rng are only called through dataset
MODULES = {
    m.__name__.rsplit(".", 1)[1]: m
    for m in (
        anomaly, cli, config, dataset, evaluate, linear, neural, preprocess,
        serialize, trees, tune,
    )
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _tree_depth(tree) -> int:
    # children always carry a higher index than their parent
    depth = np.zeros(tree.n_nodes, dtype=np.int64)
    for node in np.flatnonzero(tree.feature >= 0):
        depth[tree.left[node]] = depth[tree.right[node]] = depth[node] + 1
    return int(depth.max())


def _forest_shape(args, kwargs, forest):
    return {
        "trees": len(forest.trees),
        "nodes": sum(t.n_nodes for t in forest.trees),
        "max_depth": max(_tree_depth(t) for t in forest.trees),
    }


def _save_model(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _write_csv(args, kwargs, result):
    return {
        "rows": _arg(args, kwargs, 1, "ds").rows,
        "bytes": os.path.getsize(_arg(args, kwargs, 0, "path")),
    }


def _load_csv(args, kwargs, result):
    return {"rows": result.rows, "bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _record_artifact(args, kwargs, result):
    ws, rel = args[0], _arg(args, kwargs, 1, "rel")
    return {"bytes": os.path.getsize(os.path.join(ws.out_dir, rel))}


def _predict_forest(args, kwargs, result):
    forest = _arg(args, kwargs, 0, "forest")
    return {"row_trees": _arg(args, kwargs, 1, "ds").rows * len(forest.trees)}


# (layer, function, modules whose bindings are wrapped (None: every module), counters)
TRACED = (
    ("config", "load_config", None, None),
    ("dataset", "synth_generate", None, None),
    ("dataset", "stratified_split", None, None),
    ("dataset", "write_csv", None, _write_csv),
    ("dataset", "load_csv", None, _load_csv),
    ("preprocess", "fit_scaler", None, None),
    ("preprocess", "apply_scaler", None, None),
    ("preprocess", "write_conditional_summary", None, None),
    ("tune", "grid_search", None, None),
    ("tune", "cross_validate", None, None),
    ("linear", "fit_logit", None, lambda a, k, r: {"iters": r.n_iter}),
    ("linear", "fit_elastic_net", None, lambda a, k, r: {"sweeps": r.n_sweeps}),
    ("linear", "predict_proba", None, None),
    ("trees", "fit_forest", None, _forest_shape),
    ("trees", "fit_cart", None, lambda a, k, r: {"nodes": r.n_nodes}),
    ("trees", "predict_forest", None, _predict_forest),
    ("trees", "predict_tree", None, None),
    # neural is timed only as anomaly calls it, not its own internal calls
    ("neural", "fit_network", ("anomaly",), None),
    ("neural", "forward", ("anomaly",), None),
    ("anomaly", "train_autoencoder", None,
     lambda a, k, r: {"row_epochs": r.n_train_rows * r.epochs}),
    ("anomaly", "score_dataset", None, None),
    ("anomaly", "calibrate_band", None, None),
    ("anomaly", "write_scores", None, None),
    ("evaluate", "evaluate_scores", None, None),
    ("evaluate", "auc", None, None),
    ("evaluate", "write_report", None, None),
    ("serialize", "save_model", None, _save_model),
    ("serialize", "load_model", None, None),
)

FIT_SPANS = ("linear.fit_logit", "linear.fit_elastic_net", "trees.fit_cart", "trees.fit_forest")

# The per-layer metrics every traced run reports; a layer with no calls reads 0.
PER_LAYER = (
    [f"cli.step.{s}.s" for s in cli.COMMANDS if s != "all"]
    + ["cli.record_artifact.s", "cli.record_artifact.bytes", "cli.workspace_save.s"]
    + ["config.load_config.s"]
    + ["dataset.synth_generate.s", "dataset.stratified_split.s"]
    + ["dataset.write_csv.s", "dataset.write_csv.rows", "dataset.write_csv.bytes"]
    + ["dataset.load_csv.s", "dataset.load_csv.calls", "dataset.load_csv.rows",
       "dataset.load_csv.bytes"]
    + ["preprocess.fit_scaler.s", "preprocess.apply_scaler.s",
       "preprocess.write_conditional_summary.s"]
    + ["tune.grid_search.s", "tune.grid_search.self_s", "tune.cross_validate.calls",
       "tune.fits"]
    + ["linear.fit_logit.s", "linear.fit_logit.iters", "linear.fit_elastic_net.s",
       "linear.fit_elastic_net.sweeps", "linear.predict_proba.s"]
    + ["trees.fit_forest.s", "trees.fit_forest.trees", "trees.fit_forest.nodes",
       "trees.fit_forest.max_depth", "trees.fit_cart.s", "trees.fit_cart.nodes",
       "trees.predict_forest.s", "trees.predict_forest.row_trees", "trees.predict_tree.s"]
    + ["neural.fit_network.s", "neural.forward.s"]
    + ["anomaly.train_autoencoder.s", "anomaly.train_autoencoder.row_epochs",
       "anomaly.score_dataset.s", "anomaly.calibrate_band.s", "anomaly.write_scores.s"]
    + ["evaluate.evaluate_scores.s", "evaluate.auc.s", "evaluate.write_report.s"]
    + ["serialize.save_model.s", "serialize.save_model.bytes", "serialize.load_model.s"]
    + ["trace.overhead_s"]
)


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    counts: dict


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[Span] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.run, {})
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result
        return traced

    def _patch(self, target, key, value):
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = value
        else:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def _install(self):
        wrapped = {}
        for layer, fname, sites, count in TRACED:
            original = getattr(MODULES[layer], fname)
            wrapper = self._wrap(f"{layer}.{fname}", original, count)
            wrapped[original] = wrapper
            for site in sites or MODULES:
                module = MODULES[site]
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        for kind, spec in list(tune._REGISTRY.items()):
            if spec.predict in wrapped:
                self._patch(
                    tune._REGISTRY, kind,
                    dataclasses.replace(spec, predict=wrapped[spec.predict]),
                )
        for step, fn in list(cli._COMMANDS.items()):
            self._patch(cli._COMMANDS, step, self._wrap(f"cli.step.{step}", fn))
        self._patch(
            cli.Workspace, "record_artifact",
            self._wrap("cli.record_artifact", cli.Workspace.record_artifact,
                       _record_artifact),
        )
        self._patch(cli.Workspace, "save", self._wrap("cli.workspace_save", cli.Workspace.save))

    def _remove(self):
        while self._patches:
            target, key, original = self._patches.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    @contextmanager
    def active(self, run: str):
        """Trace every call made inside the block under the given run id."""
        self.run = run
        self._install()
        try:
            yield
        finally:
            self._remove()

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")


def run_totals(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over the spans of one run id.

    ``.s`` is inclusive time, skipping calls nested inside a call of the
    same name; ``.self_s`` excludes the time of traced calls into other
    layers (calls within the same layer count as its own time); ``.calls``
    counts calls; counters add up, except ``max_*`` which take the maximum.
    ``tune.fits`` counts model fits made inside a grid search.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent in by_id:
            children[s.parent].append(s)

    def other_layers(span: Span, layer: str) -> float:
        return sum(
            c.end - c.start if c.name.split(".")[0] != layer else other_layers(c, layer)
            for c in children[span.id]
        )

    out: dict[str, float] = defaultdict(float)
    for s in spans:
        ancestors = []
        parent = s.parent
        while parent in by_id:
            ancestors.append(by_id[parent].name)
            parent = by_id[parent].parent
        if s.name in FIT_SPANS and "tune.grid_search" in ancestors:
            out["tune.fits"] += 1
        if s.name in ancestors:
            continue
        out[f"{s.name}.s"] += s.end - s.start
        out[f"{s.name}.self_s"] += s.end - s.start - other_layers(s, s.name.split(".")[0])
        out[f"{s.name}.calls"] += 1
        for key, value in s.counts.items():
            name = f"{s.name}.{key}"
            out[name] = max(out[name], value) if key.startswith("max_") else out[name] + value
    return dict(out)


def is_counter(name: str) -> bool:
    return not (name.endswith(".s") or name.endswith(".self_s"))


def layer_metrics(tracer: Tracer, setup_runs: list[str], measured_runs: list[str]):
    """Per-layer values for one set-up plus one measured repetition.

    Each is the median over the traced set-ups plus the median over the
    traced measured repetitions. Also returns the names of counters that did
    not repeat exactly across the set-ups or across the measured repetitions.
    """
    values: dict[str, float] = defaultdict(float)
    unsteady = set()
    for runs in (setup_runs, measured_runs):
        totals = [run_totals([s for s in tracer.spans if s.run == run]) for run in runs]
        for name in set().union(*totals):
            got = [t.get(name, 0.0) for t in totals]
            values[name] += statistics.median(got)
            if is_counter(name) and len(set(got)) > 1:
                unsteady.add(name)
    return dict(values), sorted(unsteady)
