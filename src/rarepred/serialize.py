"""Versioned plain-text model files with exact float round-trips.

Every fitted object, each model kind and a fitted scaler (kind ``scaler``),
saves to a line-oriented ``key = value`` format (arrays as space-separated
shortest-round-trip floats, nested parts as ``[section]`` blocks). Writing
the same object twice produces identical bytes, and a save/load cycle
reproduces it bit for bit, which downstream determinism checks lean on.
"""

from __future__ import annotations

import numpy as np

from .anomaly import Autoencoder
from .dataset import DatasetError
from .linear import ElasticNetModel, LogitModel
from .neural import DenseLayer, FFNModel, Network
from .preprocess import ScalerParams
from .trees import DecisionTree, Forest, ForestHyper

__all__ = ["save_model", "load_model", "model_to_text", "model_from_text"]

MAGIC = "rarepred-model v1"


def _floats(arr) -> str:
    return " ".join(map(repr, np.asarray(arr, dtype=np.float64).ravel().tolist()))


def _ints(arr) -> str:
    return " ".join(map(str, arr.tolist()))


def _names(names: tuple[str, ...]) -> str:
    # tab separates the names, and load_model's text reading ends a line at \r
    for n in names:
        if "\t" in n or "\n" in n or "\r" in n:
            raise DatasetError(f"feature name {n!r} contains a tab, \\r or \\n")
    return "\t".join(names)


def _parse_floats(text: str) -> np.ndarray:
    return np.fromiter(map(float, text.split(" ")) if text else (), np.float64)


def _parse_ints(text: str, dtype=np.int64) -> np.ndarray:
    return np.fromiter(map(int, text.split(" ")) if text else (), dtype)


# --- field codecs: (format the attribute, parse the text back) ---------------

_FLOAT = (lambda x: repr(float(x)), float)
_INT = (str, int)
_TEXT = (str, str)
_BOOL = (lambda b: str(b).lower(), lambda t: {"true": True, "false": False}[t])
_FLOATS = (_floats, _parse_floats)
_BOOLS = (
    lambda arr: " ".join(map(_BOOL[0], arr)),
    lambda t: np.array([_BOOL[1](tok) for tok in t.split(" ")] if t else [], dtype=bool),
)
_FLOAT_LIST = (_floats, lambda t: _parse_floats(t).tolist())
_INT32S = (_ints, lambda t: _parse_ints(t, np.int32))
_INT64S = (_ints, _parse_ints)
_FLOAT_TUPLE = (_floats, lambda t: tuple(_parse_floats(t).tolist()))
_MTRY = (lambda m: "none" if m is None else str(m), lambda t: None if t == "none" else int(t))

# --- field tables: (key, codec) in file order --------------------------------

_NAMES = (("feature_names", (_names, lambda t: tuple(t.split("\t")) if t else ())),)
_LINEAR = (("intercept", _FLOAT), ("coef", _FLOATS), ("feature_scales", _FLOATS))
_RECIPE = (("seed", _INT), ("epochs", _INT), ("batch_size", _INT), ("lr", _FLOAT))
_TREE = (
    ("root_gini", _FLOAT), ("cp", _FLOAT), ("min_split_obs", _INT),
    ("feature", _INT32S), ("threshold", _FLOATS), ("left", _INT32S), ("right", _INT32S),
    ("n_rows", _INT64S), ("prob", _FLOATS), ("gain", _FLOATS),
)
_FOREST = (
    ("n_trees", _INT), ("mtry", _MTRY), ("min_node", _INT),
    ("split_rule", _TEXT), ("seed", _INT), ("bootstrap", _BOOL),
)
_NETWORK = (("n_layers", _INT), ("dropout", _FLOAT_TUPLE))
_LAYER = (
    ("activation", _TEXT), ("n_in", _INT), ("n_out", _INT),
    ("weights", _FLOATS), ("bias", _FLOATS),
)

_KINDS = {
    "logit": (LogitModel, _LINEAR + (
        ("converged", _BOOL), ("n_iter", _INT), ("loglik", _FLOAT), ("quasi_separated", _BOOL),
    )),
    "elastic_net": (ElasticNetModel, _LINEAR + (
        ("lam", _FLOAT), ("alpha", _FLOAT), ("converged", _BOOL), ("n_sweeps", _INT),
        ("objective_path", _FLOAT_LIST),
    )),
    "cart": (DecisionTree, _TREE),
    "forest": (Forest, _FOREST),
    "ffn": (FFNModel, _RECIPE + (("loss_path", _FLOAT_LIST),)),
    "autoencoder": (Autoencoder, (("loss", _TEXT), ("activity_l2", _FLOAT)) + _RECIPE + (
        ("n_train_rows", _INT), ("loss_path", _FLOAT_LIST),
    )),
    "scaler": (ScalerParams, (
        ("method", _TEXT), ("mean", _FLOATS), ("sd", _FLOATS), ("min", _FLOATS),
        ("max", _FLOATS), ("constant", _BOOLS),
    )),
}


def _title(kind: str) -> str:
    """How error messages name a model of ``kind``."""
    return "cart tree" if kind == "cart" else f"{kind} model"


def _emit(out: list[str], obj, fields) -> None:
    out.extend(f"{key} = {fmt(getattr(obj, key))}" for key, (fmt, _) in fields)


def _read(section: dict[str, str], fields, where: str) -> dict:
    """Parse a section holding exactly ``fields``; any bad field is a ``DatasetError``."""
    known = dict(fields)
    for key in section:
        if key not in known:
            raise DatasetError(f"{where}: unknown field {key!r}")
    values = {}
    for key, (_, parse) in known.items():
        if key not in section:
            raise DatasetError(f"{where}: missing field {key!r}")
        try:
            values[key] = parse(section[key])
        except (KeyError, ValueError, OverflowError) as exc:
            raise DatasetError(f"{where}: bad value for field {key!r}: {exc}") from None
    return values


def _split_sections(text: str) -> tuple[dict[str, str], dict[str, dict[str, str]]]:
    """The header's fields, and each ``[title]`` block's fields by title, none repeated."""
    lines = text.split("\n")  # splitlines() would also break at \x85, \u2028, ...
    if not lines or lines[0] != MAGIC:
        raise DatasetError("not a model file (bad or missing header)")
    head = fields = {}
    where = "header"
    blocks: dict[str, dict[str, str]] = {}
    for raw in lines[1:]:
        if not raw.strip():
            continue
        if raw.startswith("[") and raw.endswith("]"):
            where = raw[1:-1]
            if where in blocks:
                raise DatasetError(f"repeated block [{where}]")
            fields = blocks[where] = {}
            continue
        if " = " not in raw:
            raise DatasetError(f"malformed model line: {raw!r}")
        key, value = raw.split(" = ", 1)
        if key in fields:
            raise DatasetError(f"{where}: repeated field {key!r}")
        fields[key] = value
        if fields is head and key == "kind":
            where = f"{_title(value)} header"
    return head, blocks


def _block(blocks: dict[str, dict[str, str]], title: str, fields) -> dict:
    """Take the ``[title]`` block out of ``blocks`` and parse it."""
    if title not in blocks:
        raise DatasetError(f"model file missing {title}")
    return _read(blocks.pop(title), fields, title)


def _tree(values: dict, names: tuple[str, ...], where: str) -> DecisionTree:
    """Build one tree and reject it if it would misroute rows or never stop.

    Prediction walks each row to strictly higher child indices until it
    reaches a leaf, then reads ``prob`` there. So the node arrays must be
    non-empty and aligned, a split's feature must name a column, its
    children must lie after it inside the arena, and a leaf has none.
    """
    tree = DecisionTree(feature_names=names, **values)
    n = tree.n_nodes
    if n == 0:
        raise DatasetError(f"{where}: field 'feature' lists no nodes")
    for field, _ in _TREE[3:]:  # the seven node arrays
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


# --- whole models ------------------------------------------------------------


def model_to_text(model) -> str:
    kind = next((k for k, (cls, _) in _KINDS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise DatasetError(f"cannot serialize {type(model).__name__}")
    out = [MAGIC, f"kind = {kind}"]
    _emit(out, model, _NAMES)
    _emit(out, model.hyper if kind == "forest" else model, _KINDS[kind][1])
    for i, tree in enumerate(model.trees if kind == "forest" else ()):
        out.append(f"[tree {i}]")
        _emit(out, tree, _TREE)
    if kind in ("ffn", "autoencoder"):
        out.append(f"n_layers = {len(model.net.layers)}")
        _emit(out, model.net, _NETWORK[1:])
        for i, layer in enumerate(model.net.layers):
            out.append(f"[layer {i}]")
            _emit(out, layer, _LAYER)
    return "\n".join(out) + "\n"


def model_from_text(text: str):
    head, blocks = _split_sections(text)
    kind = head.pop("kind", None)
    if kind not in _KINDS:
        raise DatasetError(f"unknown model kind {kind!r}")
    cls, fields = _KINDS[kind]
    net = kind in ("ffn", "autoencoder")
    where = _title(kind)
    values = _read(head, _NAMES + fields + (_NETWORK if net else ()), where)
    names = values.pop("feature_names")
    if net:
        layers = []
        for i in range(values.pop("n_layers")):
            v = _block(blocks, f"layer {i}", _LAYER)
            try:
                weights = v["weights"].reshape(v["n_out"], v["n_in"])
                layers.append(DenseLayer(weights, v["bias"], v["activation"]))
            except DatasetError as exc:  # the layer's own checks
                raise DatasetError(f"layer {i}: {exc}") from None
            except ValueError as exc:
                raise DatasetError(f"layer {i}: weights are not n_out x n_in: {exc}") from None
    if kind == "cart":
        model = _tree(values, names, where)
    elif kind == "forest":
        hyper = ForestHyper(**values)
        trees = [
            _tree(_block(blocks, f"tree {i}", _TREE), names, f"tree {i}")
            for i in range(hyper.n_trees)
        ]
        model = Forest(feature_names=names, trees=trees, hyper=hyper)
    else:
        try:  # a scaler's or a network's own checks
            if net:
                values["net"] = Network(layers=layers, dropout=values.pop("dropout"))
            model = cls(feature_names=names, **values)
        except DatasetError as exc:
            raise DatasetError(f"{where}: {exc}") from None
    if blocks:
        raise DatasetError(f"{where}: unexpected block [{next(iter(blocks))}]")
    return model


def save_model(path: str, model) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(model_to_text(model))


def load_model(path: str):
    with open(path, encoding="utf-8") as fh:
        return model_from_text(fh.read())
