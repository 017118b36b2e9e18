"""Small dense networks: forward pass, exact backprop, Adam, FFN training.

Everything is plain numpy on (batch, dim) matrices. Gradients are exact
derivatives of the mean batch loss (verified against finite differences in
the test suite); each loss gives its value and its gradient from one pass.
Dropout is the inverted kind and only active during training steps, Adam
updates one parameter vector and its moment vectors in place, and all
randomness flows through seeded generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, DatasetError
from .linear import _sigmoid
from .rng import child_seed, generator

__all__ = [
    "DenseLayer",
    "Network",
    "FFNModel",
    "forward",
    "param_count",
    "loss",
    "backprop",
    "glorot_init",
    "train_ffn",
    "predict_ffn",
]

ACTIVATIONS = ("sigmoid", "tanh", "relu", "linear")
LOSSES = ("mse", "bce", "cosine_proximity")
_EPS_PROB = 1e-12
_EPS_NORM = 1e-12
_BETA1, _BETA2, _EPS_ADAM = 0.9, 0.999, 1e-8


@dataclass
class DenseLayer:
    """Affine map plus elementwise activation; weights are (out, in)."""

    weights: np.ndarray
    bias: np.ndarray
    activation: str

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise DatasetError("weights must be (out, in), bias (out,)")
        if self.weights.shape[0] != self.bias.shape[0]:
            raise DatasetError("bias length must match output width")
        if self.activation not in ACTIVATIONS:
            raise DatasetError(f"unknown activation {self.activation!r}")

    @property
    def n_in(self) -> int:
        return self.weights.shape[1]

    @property
    def n_out(self) -> int:
        return self.weights.shape[0]


@dataclass
class Network:
    """Layer stack; ``dropout[i]`` is the drop rate applied to layer i's
    activations during training (inverted scaling keeps expectations fixed).
    """

    layers: list[DenseLayer]
    dropout: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.layers:
            raise DatasetError("network needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.n_out != nxt.n_in:
                raise DatasetError(
                    f"layer widths do not chain: {prev.n_out} -> {nxt.n_in}"
                )
        if not self.dropout:
            self.dropout = (0.0,) * len(self.layers)
        if len(self.dropout) != len(self.layers):
            raise DatasetError("dropout must give one rate per layer")
        for rate in self.dropout:
            if not 0.0 <= rate < 1.0:
                raise DatasetError("dropout rates must lie in [0, 1)")

    @property
    def n_in(self) -> int:
        return self.layers[0].n_in


def param_count(net: Network) -> int:
    """Trainable parameter count: sum of (n_in + 1) * n_out over layers."""
    return sum((layer.n_in + 1) * layer.n_out for layer in net.layers)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "sigmoid":
        return _sigmoid(z)
    if kind == "tanh":
        return np.tanh(z)
    if kind == "relu":
        return np.maximum(z, 0.0)
    return z


def _activation_grad(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "sigmoid":
        return a * (1.0 - a)
    if kind == "tanh":
        return 1.0 - a * a
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    return np.ones_like(z)


def _input(net: Network, X: np.ndarray) -> np.ndarray:
    a = np.asarray(X, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != net.n_in:
        raise DatasetError(f"input must be (batch, {net.n_in})")
    return a


def _trace(net: Network, X: np.ndarray, training: bool, rng):
    """Forward pass keeping pre-activations and applying dropout masks."""
    a = _input(net, X)
    inputs = []
    zs = []
    acts = []
    masks = []
    for layer, rate in zip(net.layers, net.dropout):
        inputs.append(a)
        z = a @ layer.weights.T + layer.bias
        a = _activate(z, layer.activation)
        zs.append(z)
        acts.append(a)
        if training and rate > 0.0:
            if rng is None:
                raise DatasetError("dropout during training needs a generator")
            mask = (rng.random(a.shape) >= rate) / (1.0 - rate)
            a = a * mask
            masks.append(mask)
        else:
            masks.append(None)
    return inputs, zs, acts, masks, a


def forward(net: Network, X: np.ndarray) -> np.ndarray:
    """Network output for a (batch, n_in) matrix, as at inference: deterministic and
    without dropout (training passes go through ``backprop``). It walks the layers
    holding only the current activation, so its working set beyond ``X`` is about
    two of the widest layer's (batch, width) matrices.
    """
    a = _input(net, X)
    for layer in net.layers:
        a = _activate(a @ layer.weights.T + layer.bias, layer.activation)
    return a


def _loss(name: str, pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean batch loss and its gradient with respect to ``pred``, from one pass."""
    if name not in LOSSES:
        raise DatasetError(f"unknown loss {name!r}")
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise DatasetError("pred and target shapes differ")
    if p.ndim != 2:
        raise DatasetError("loss expects (batch, dim) matrices")
    b, d = p.shape
    if name == "mse":
        diff = p - t
        return float(np.mean(diff ** 2)), 2.0 * diff / (b * d)
    if name == "bce":
        q = np.clip(p, _EPS_PROB, 1.0 - _EPS_PROB)
        r = 1.0 - q
        g = (q - t) / (q * r) / (b * d)
        # clipped elements sit on a flat edge of the surrogate
        g[(p < _EPS_PROB) | (p > 1.0 - _EPS_PROB)] = 0.0
        return float(-np.mean(t * np.log(q) + (1.0 - t) * np.log(r))), g
    pn = np.linalg.norm(p, axis=1, keepdims=True)
    tn = np.linalg.norm(t, axis=1, keepdims=True)
    ok = ((pn >= _EPS_NORM) & (tn >= _EPS_NORM)).ravel()
    rows = slice(None) if ok.all() else ok  # a slice takes views, not masked copies
    po, to, pno, tno = p[rows], t[rows], pn[rows], tn[rows]
    dot = np.sum(po * to, axis=1, keepdims=True)
    cos = np.zeros(b)
    cos[rows] = (dot / (pno * tno)).ravel()
    g = np.zeros_like(p)
    g[rows] = -(to / (pno * tno) - po * dot / (pno ** 3 * tno)) / b
    return float(-np.mean(cos)), g


def loss(name: str, pred: np.ndarray, target: np.ndarray) -> float:
    """Mean batch loss.

    ``mse`` and ``bce`` average over every output element; ``bce`` clips
    probabilities away from 0/1. ``cosine_proximity`` is the negative cosine
    similarity per row, averaged, and contributes 0 for any row where either
    vector's norm falls below 1e-12 (no direction to compare).
    """
    return _loss(name, pred, target)[0]


def backprop(
    net: Network,
    X: np.ndarray,
    target: np.ndarray,
    loss_name: str,
    activity_l2: float = 0.0,
    training: bool = False,
    rng: np.random.Generator | None = None,
):
    """Exact gradients of the mean batch loss for every weight and bias.

    Returns ``(grads, loss_value)`` where grads is one (dW, db) pair per
    layer. ``activity_l2`` adds an L2 penalty on the first layer's
    activations (mean over the batch of the summed squared activations),
    matching the loss reported. With ``training=True`` dropout masks are
    sampled and the gradients are exact for those masks.
    """
    inputs, zs, acts, masks, out = _trace(net, X, training, rng)
    batch = out.shape[0]
    # delta is the gradient wrt the post-dropout output
    total, delta = _loss(loss_name, out, target)
    if activity_l2 > 0.0:
        total += activity_l2 * float(np.sum(acts[0] ** 2)) / batch

    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if masks[i] is not None:
            delta = delta * masks[i]
        # now the gradient wrt the raw activation acts[i]
        if i == 0 and activity_l2 > 0.0:
            delta = delta + 2.0 * activity_l2 * acts[0] / batch
        dz = delta * _activation_grad(zs[i], acts[i], layer.activation)
        grads[i] = (dz.T @ inputs[i], dz.sum(axis=0))
        if i > 0:
            delta = dz @ layer.weights
    return grads, total


def _adam_step(p, g, m, v, t: int, lr: float) -> None:
    """Bias-corrected Adam update number ``t`` (from 1) with gradient ``g``,
    in place on the array ``p`` and its first and second moments ``m``, ``v``."""
    m *= _BETA1
    m += (1.0 - _BETA1) * g
    v *= _BETA2
    v += (1.0 - _BETA2) * g * g
    p -= lr * (m / (1.0 - _BETA1 ** t)) / (np.sqrt(v / (1.0 - _BETA2 ** t)) + _EPS_ADAM)


def glorot_init(
    widths: list[int] | tuple[int, ...],
    activations: list[str] | tuple[str, ...],
    dropout: tuple[float, ...] | None,
    rng: np.random.Generator,
) -> Network:
    """Uniform(+-sqrt(6/(fan_in+fan_out))) weights, zero biases."""
    if len(widths) < 2:
        raise DatasetError("need input and output widths")
    if len(activations) != len(widths) - 1:
        raise DatasetError("one activation per layer required")
    layers = []
    for n_in, n_out, act in zip(widths, widths[1:], activations):
        bound = math.sqrt(6.0 / (n_in + n_out))
        layers.append(
            DenseLayer(
                weights=rng.uniform(-bound, bound, size=(n_out, n_in)),
                bias=np.zeros(n_out),
                activation=act,
            )
        )
    return Network(layers=layers, dropout=dropout or ())


def _net_params(net: Network) -> list[np.ndarray]:
    params: list[np.ndarray] = []
    for layer in net.layers:
        params.append(layer.weights)
        params.append(layer.bias)
    return params


def fit_network(
    net: Network,
    X: np.ndarray,
    target: np.ndarray,
    loss_name: str,
    epochs: int,
    batch_size: int,
    lr: float,
    rng: np.random.Generator,
    activity_l2: float = 0.0,
) -> list[float]:
    """Minibatch Adam over reshuffled epochs; returns mean loss per epoch.

    Rows are reshuffled every epoch; the final short batch is kept. The
    reported per-epoch value is the training loss (with dropout and the
    activity penalty) averaged over that epoch's batches, weighted by
    batch size; the first epoch whose value is not finite ends the fit.
    Adam updates one vector of every parameter: after training, each
    layer's weights and bias are views of that vector.
    """
    if epochs < 1 or batch_size < 1:
        raise DatasetError("epochs and batch_size must be >= 1")
    n = X.shape[0]
    params = _net_params(net)
    theta = np.concatenate([p.ravel() for p in params])
    views = np.split(theta, np.cumsum([p.size for p in params])[:-1])
    for layer, w, b in zip(net.layers, views[::2], views[1::2]):
        layer.weights, layer.bias = w.reshape(layer.weights.shape), b
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    step = 0
    path: list[float] = []
    for _ in range(epochs):
        order = rng.permutation(n)
        accum = 0.0
        for start in range(0, n, batch_size):
            rows = order[start : start + batch_size]
            xb = X[rows]  # gathered once for an autoencoder, whose target is X
            grads, value = backprop(
                net,
                xb,
                xb if target is X else target[rows],
                loss_name,
                activity_l2=activity_l2,
                training=True,
                rng=rng,
            )
            step += 1
            _adam_step(theta, np.concatenate([g.ravel() for pair in grads for g in pair]),
                       m, v, step, lr)
            accum += value * rows.size
        path.append(accum / n)
        if not math.isfinite(path[-1]):
            raise DatasetError(f"training diverged: epoch {len(path)}'s mean loss is {path[-1]}")
    return path


@dataclass
class FFNModel:
    """Feed-forward classifier with a sigmoid head trained on cross-entropy."""

    feature_names: tuple[str, ...]
    net: Network
    seed: int
    epochs: int
    batch_size: int
    lr: float
    loss_path: list[float] = field(default_factory=list)


DEFAULT_HIDDEN = (22, 20, 15)
DEFAULT_DROPOUT = (0.3, 0.2)


def train_ffn(
    ds: Dataset,
    label: str,
    hidden: list[int] | tuple[int, ...] = DEFAULT_HIDDEN,
    dropout: list[float] | tuple[float, ...] | None = None,
    features: list[str] | tuple[str, ...] | None = None,
    epochs: int = 30,
    batch_size: int = 512,
    lr: float = 0.001,
    seed: int = 0,
) -> FFNModel:
    """Train a relu feed-forward classifier ending in one sigmoid unit.

    ``dropout`` gives rates for the leading hidden layers (unlisted layers
    get 0; the output layer never drops); ``None`` takes the default rates
    trimmed to the hidden depth. Weights start Glorot-uniform from a child
    seed, and each epoch reshuffles the rows. A fit whose outputs on the
    training rows are not finite has diverged and is refused.
    """
    names, X = ds.columns(features)
    y = ds.label(label).astype(np.float64).reshape(-1, 1)
    if dropout is None:
        dropout = DEFAULT_DROPOUT[: len(hidden)]
    if len(dropout) > len(hidden):
        raise DatasetError("more dropout rates than hidden layers")
    rng = generator(child_seed(seed, "ffn"))
    widths = [len(names), *hidden, 1]
    activations = ["relu"] * len(hidden) + ["sigmoid"]
    rates = tuple(dropout) + (0.0,) * (len(widths) - 1 - len(dropout))
    net = glorot_init(widths, activations, rates, rng)
    path = fit_network(net, X, y, "bce", epochs, batch_size, lr, rng)
    if not np.isfinite(forward(net, X)).all():
        raise DatasetError(f"training diverged: the last update left outputs not finite (lr = {lr})")
    return FFNModel(
        feature_names=names,
        net=net,
        seed=seed,
        epochs=epochs,
        batch_size=batch_size,
        lr=lr,
        loss_path=path,
    )


def predict_ffn(model: FFNModel, ds: Dataset) -> np.ndarray:
    """Positive-class probabilities, dropout off."""
    return forward(model.net, ds.columns(model.feature_names)[1]).ravel()
