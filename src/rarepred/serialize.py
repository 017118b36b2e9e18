"""Versioned plain-text model files with exact float round-trips.

Every model kind saves to a line-oriented ``key = value`` format (arrays as
space-separated shortest-round-trip floats, nested parts as ``[section]``
blocks). Writing the same model twice produces identical bytes, and a
save/load cycle reproduces the model bit for bit, which downstream
determinism checks lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anomaly import Autoencoder
from .dataset import DatasetError
from .linear import ElasticNetModel, LogitModel
from .neural import DenseLayer, FFNModel, Network
from .trees import DecisionTree, Forest, ForestHyper

__all__ = ["save_model", "load_model", "model_to_text", "model_from_text"]

MAGIC = "rarepred-model v1"


def _f(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return repr(float(x))


def _floats(arr) -> str:
    return " ".join(_f(v) for v in np.asarray(arr, dtype=np.float64).ravel())


def _ints(arr) -> str:
    return " ".join(str(int(v)) for v in np.asarray(arr).ravel())


def _names(names: tuple[str, ...]) -> str:
    for n in names:
        if "\t" in n or "\n" in n:
            raise DatasetError(f"feature name {n!r} contains tab or newline")
    return "\t".join(names)


def _parse_floats(text: str) -> np.ndarray:
    if not text:
        return np.zeros(0)
    return np.array([float(tok) for tok in text.split(" ")], dtype=np.float64)


def _parse_ints(text: str, dtype=np.int64) -> np.ndarray:
    if not text:
        return np.zeros(0, dtype=dtype)
    return np.array([int(tok) for tok in text.split(" ")], dtype=dtype)


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(text.split("\t")) if text else ()


def _bool(text: str) -> bool:
    return {"true": True, "false": False}[text]


@dataclass
class _Section:
    title: str
    fields: dict[str, str]


def _split_sections(text: str) -> list[_Section]:
    lines = text.splitlines()
    if not lines or lines[0] != MAGIC:
        raise DatasetError("not a model file (bad or missing header)")
    sections = [_Section("", {})]
    for raw in lines[1:]:
        if not raw.strip():
            continue
        if raw.startswith("[") and raw.endswith("]"):
            sections.append(_Section(raw[1:-1], {}))
            continue
        if " = " not in raw:
            raise DatasetError(f"malformed model line: {raw!r}")
        key, value = raw.split(" = ", 1)
        sections[-1].fields[key] = value
    return sections


# --- network blocks --------------------------------------------------------


def _emit_network(out: list[str], net: Network) -> None:
    out.append(f"n_layers = {len(net.layers)}")
    out.append(f"dropout = {_floats(net.dropout)}")
    for i, layer in enumerate(net.layers):
        out.append(f"[layer {i}]")
        out.append(f"activation = {layer.activation}")
        out.append(f"n_in = {layer.n_in}")
        out.append(f"n_out = {layer.n_out}")
        out.append(f"weights = {_floats(layer.weights)}")
        out.append(f"bias = {_floats(layer.bias)}")


def _read_network(head: _Section, parts: list[_Section]) -> Network:
    n_layers = int(head.fields["n_layers"])
    dropout = tuple(float(v) for v in _parse_floats(head.fields["dropout"]))
    layers = []
    by_title = {s.title: s for s in parts}
    for i in range(n_layers):
        sec = by_title.get(f"layer {i}")
        if sec is None:
            raise DatasetError(f"model file missing layer {i}")
        n_in = int(sec.fields["n_in"])
        n_out = int(sec.fields["n_out"])
        weights = _parse_floats(sec.fields["weights"]).reshape(n_out, n_in)
        layers.append(
            DenseLayer(
                weights=weights,
                bias=_parse_floats(sec.fields["bias"]),
                activation=sec.fields["activation"],
            )
        )
    return Network(layers=layers, dropout=dropout)


# --- tree blocks ------------------------------------------------------------

_TREE_ARRAYS = ("feature", "threshold", "left", "right", "n_rows", "prob", "gain")


def _emit_tree_fields(out: list[str], tree: DecisionTree) -> None:
    out.append(f"root_gini = {_f(tree.root_gini)}")
    out.append(f"cp = {_f(tree.cp)}")
    out.append(f"min_split_obs = {tree.min_split_obs}")
    out.append(f"feature = {_ints(tree.feature)}")
    out.append(f"threshold = {_floats(tree.threshold)}")
    out.append(f"left = {_ints(tree.left)}")
    out.append(f"right = {_ints(tree.right)}")
    out.append(f"n_rows = {_ints(tree.n_rows)}")
    out.append(f"prob = {_floats(tree.prob)}")
    out.append(f"gain = {_floats(tree.gain)}")


def _read_tree_fields(sec: _Section, names: tuple[str, ...]) -> DecisionTree:
    """Read one tree and reject it if it would misroute rows or never stop.

    Prediction walks each row to strictly higher child indices until it
    reaches a leaf, then reads ``prob`` there. So the node arrays must be
    non-empty and aligned, a split's feature must name a column, its
    children must lie after it inside the arena, and a leaf has none.
    """
    tree = DecisionTree(
        feature_names=names,
        feature=_parse_ints(sec.fields["feature"], np.int32),
        threshold=_parse_floats(sec.fields["threshold"]),
        left=_parse_ints(sec.fields["left"], np.int32),
        right=_parse_ints(sec.fields["right"], np.int32),
        n_rows=_parse_ints(sec.fields["n_rows"]),
        prob=_parse_floats(sec.fields["prob"]),
        gain=_parse_floats(sec.fields["gain"]),
        root_gini=float(sec.fields["root_gini"]),
        cp=float(sec.fields["cp"]),
        min_split_obs=int(sec.fields["min_split_obs"]),
    )
    where = sec.title or "cart tree"
    n = tree.n_nodes
    if n == 0:
        raise DatasetError(f"{where}: field 'feature' lists no nodes")
    for field in _TREE_ARRAYS:
        if len(getattr(tree, field)) != n:
            raise DatasetError(
                f"{where}: field {field!r} has {len(getattr(tree, field))} entries,"
                f" 'feature' has {n}"
            )
    k = len(names)
    split = tree.feature != -1
    index = np.arange(n)
    wrong = {
        "feature": split & ((tree.feature < 0) | (tree.feature >= k)),
        "left": np.where(split, (tree.left <= index) | (tree.left >= n), tree.left != -1),
        "right": np.where(split, (tree.right <= index) | (tree.right >= n), tree.right != -1),
    }
    for field, bad in wrong.items():
        if bad.any():
            i = int(np.argmax(bad))
            if field == "feature":
                expected = f"-1 or a column below {k}"
            else:
                expected = f"in ({i}, {n})" if split[i] else "-1 at a leaf"
            raise DatasetError(
                f"{where}: node {i} has {field} = {getattr(tree, field)[i]}, expected {expected}"
            )
    return tree


# --- per-kind emit/read -----------------------------------------------------


def model_to_text(model) -> str:
    out = [MAGIC]
    if isinstance(model, LogitModel):
        out.append("kind = logit")
        out.append(f"feature_names = {_names(model.feature_names)}")
        out.append(f"intercept = {_f(model.intercept)}")
        out.append(f"coef = {_floats(model.coef)}")
        out.append(f"feature_scales = {_floats(model.feature_scales)}")
        out.append(f"converged = {str(model.converged).lower()}")
        out.append(f"n_iter = {model.n_iter}")
        out.append(f"loglik = {_f(model.loglik)}")
        out.append(f"quasi_separated = {str(model.quasi_separated).lower()}")
    elif isinstance(model, ElasticNetModel):
        out.append("kind = elastic_net")
        out.append(f"feature_names = {_names(model.feature_names)}")
        out.append(f"intercept = {_f(model.intercept)}")
        out.append(f"coef = {_floats(model.coef)}")
        out.append(f"feature_scales = {_floats(model.feature_scales)}")
        out.append(f"lam = {_f(model.lam)}")
        out.append(f"alpha = {_f(model.alpha)}")
        out.append(f"converged = {str(model.converged).lower()}")
        out.append(f"n_sweeps = {model.n_sweeps}")
        out.append(f"objective_path = {_floats(model.objective_path)}")
    elif isinstance(model, DecisionTree):
        out.append("kind = cart")
        out.append(f"feature_names = {_names(model.feature_names)}")
        _emit_tree_fields(out, model)
    elif isinstance(model, Forest):
        out.append("kind = forest")
        out.append(f"feature_names = {_names(model.feature_names)}")
        h = model.hyper
        out.append(f"n_trees = {h.n_trees}")
        out.append(f"mtry = {'none' if h.mtry is None else h.mtry}")
        out.append(f"min_node = {h.min_node}")
        out.append(f"split_rule = {h.split_rule}")
        out.append(f"seed = {h.seed}")
        out.append(f"bootstrap = {str(h.bootstrap).lower()}")
        for i, tree in enumerate(model.trees):
            out.append(f"[tree {i}]")
            _emit_tree_fields(out, tree)
    elif isinstance(model, FFNModel):
        out.append("kind = ffn")
        out.append(f"feature_names = {_names(model.feature_names)}")
        out.append(f"seed = {model.seed}")
        out.append(f"epochs = {model.epochs}")
        out.append(f"batch_size = {model.batch_size}")
        out.append(f"lr = {_f(model.lr)}")
        out.append(f"loss_path = {_floats(model.loss_path)}")
        _emit_network(out, model.net)
    elif isinstance(model, Autoencoder):
        out.append("kind = autoencoder")
        out.append(f"feature_names = {_names(model.feature_names)}")
        out.append(f"loss = {model.loss}")
        out.append(f"activity_l2 = {_f(model.activity_l2)}")
        out.append(f"seed = {model.seed}")
        out.append(f"epochs = {model.epochs}")
        out.append(f"batch_size = {model.batch_size}")
        out.append(f"lr = {_f(model.lr)}")
        out.append(f"n_train_rows = {model.n_train_rows}")
        out.append(f"loss_path = {_floats(model.loss_path)}")
        _emit_network(out, model.net)
    else:
        raise DatasetError(f"cannot serialize {type(model).__name__}")
    return "\n".join(out) + "\n"


def model_from_text(text: str):
    sections = _split_sections(text)
    head, parts = sections[0], sections[1:]
    kind = head.fields.get("kind")
    names = _parse_names(head.fields.get("feature_names", ""))
    if kind == "logit":
        return LogitModel(
            feature_names=names,
            intercept=float(head.fields["intercept"]),
            coef=_parse_floats(head.fields["coef"]),
            feature_scales=_parse_floats(head.fields["feature_scales"]),
            converged=_bool(head.fields["converged"]),
            n_iter=int(head.fields["n_iter"]),
            loglik=float(head.fields["loglik"]),
            quasi_separated=_bool(head.fields["quasi_separated"]),
        )
    if kind == "elastic_net":
        return ElasticNetModel(
            feature_names=names,
            intercept=float(head.fields["intercept"]),
            coef=_parse_floats(head.fields["coef"]),
            feature_scales=_parse_floats(head.fields["feature_scales"]),
            lam=float(head.fields["lam"]),
            alpha=float(head.fields["alpha"]),
            converged=_bool(head.fields["converged"]),
            n_sweeps=int(head.fields["n_sweeps"]),
            objective_path=[float(v) for v in _parse_floats(head.fields["objective_path"])],
        )
    if kind == "cart":
        return _read_tree_fields(head, names)
    if kind == "forest":
        mtry_text = head.fields["mtry"]
        hyper = ForestHyper(
            n_trees=int(head.fields["n_trees"]),
            mtry=None if mtry_text == "none" else int(mtry_text),
            min_node=int(head.fields["min_node"]),
            split_rule=head.fields["split_rule"],
            seed=int(head.fields["seed"]),
            bootstrap=_bool(head.fields["bootstrap"]),
        )
        trees = []
        by_title = {s.title: s for s in parts}
        for i in range(hyper.n_trees):
            sec = by_title.get(f"tree {i}")
            if sec is None:
                raise DatasetError(f"model file missing tree {i}")
            trees.append(_read_tree_fields(sec, names))
        return Forest(feature_names=names, trees=trees, hyper=hyper)
    if kind == "ffn":
        return FFNModel(
            feature_names=names,
            net=_read_network(head, parts),
            seed=int(head.fields["seed"]),
            epochs=int(head.fields["epochs"]),
            batch_size=int(head.fields["batch_size"]),
            lr=float(head.fields["lr"]),
            loss_path=[float(v) for v in _parse_floats(head.fields["loss_path"])],
        )
    if kind == "autoencoder":
        return Autoencoder(
            feature_names=names,
            net=_read_network(head, parts),
            loss=head.fields["loss"],
            activity_l2=float(head.fields["activity_l2"]),
            seed=int(head.fields["seed"]),
            epochs=int(head.fields["epochs"]),
            batch_size=int(head.fields["batch_size"]),
            lr=float(head.fields["lr"]),
            n_train_rows=int(head.fields["n_train_rows"]),
            loss_path=[float(v) for v in _parse_floats(head.fields["loss_path"])],
        )
    raise DatasetError(f"unknown model kind {kind!r}")


def save_model(path: str, model) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(model_to_text(model))


def load_model(path: str):
    with open(path, encoding="utf-8") as fh:
        return model_from_text(fh.read())
