"""Forward/backward correctness, Adam arithmetic, FFN training behavior."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from rarepred.dataset import Dataset, DatasetError, Feature
from rarepred.evaluate import auc
from rarepred.neural import (
    DenseLayer,
    Network,
    _activation_grad,
    _adam_step,
    _loss,
    _net_params,
    _trace,
    backprop,
    fit_network,
    forward,
    glorot_init,
    loss,
    param_count,
    predict_ffn,
    train_ffn,
)
from rarepred.rng import generator


def small_net(seed=0, widths=(3, 4, 2), acts=("tanh", "sigmoid"), dropout=None):
    return glorot_init(widths, acts, dropout, generator(seed))


def fd_gradient_errors(net, X, T, loss_name, activity_l2=0.0, h=1e-6):
    """Max relative error between backprop and central finite differences."""
    grads, _ = backprop(net, X, T, loss_name, activity_l2=activity_l2)

    def loss_at() -> float:
        out = forward(net, X)
        value = loss(loss_name, out, T)
        if activity_l2 > 0.0:
            a1 = forward(
                Network(layers=[net.layers[0]]), X
            )
            value += activity_l2 * float(np.sum(a1 ** 2)) / X.shape[0]
        return value

    worst = 0.0
    for li, layer in enumerate(net.layers):
        for arr, g in ((layer.weights, grads[li][0]), (layer.bias, grads[li][1])):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                keep = arr[idx]
                arr[idx] = keep + h
                up = loss_at()
                arr[idx] = keep - h
                down = loss_at()
                arr[idx] = keep
                numeric = (up - down) / (2.0 * h)
                denom = max(abs(numeric), abs(g[idx]), 1e-8)
                worst = max(worst, abs(numeric - g[idx]) / denom)
    return worst


# ---------------------------------------------------------------------------
# Oracles: the two-pass loss (value, then gradient) and the functional Adam
# step that the single-pass loss and the in-place step replaced, kept verbatim.

_EPS_PROB = 1e-12
_EPS_NORM = 1e-12


def loss_oracle(name, pred, target):
    if name not in ("mse", "bce", "cosine_proximity"):
        raise DatasetError(f"unknown loss {name!r}")
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise DatasetError("pred and target shapes differ")
    if p.ndim != 2:
        raise DatasetError("loss expects (batch, dim) matrices")
    if name == "mse":
        return float(np.mean((p - t) ** 2))
    if name == "bce":
        q = np.clip(p, _EPS_PROB, 1.0 - _EPS_PROB)
        return float(-np.mean(t * np.log(q) + (1.0 - t) * np.log(1.0 - q)))
    pn = np.linalg.norm(p, axis=1)
    tn = np.linalg.norm(t, axis=1)
    ok = (pn >= _EPS_NORM) & (tn >= _EPS_NORM)
    cos = np.zeros(p.shape[0])
    cos[ok] = np.sum(p[ok] * t[ok], axis=1) / (pn[ok] * tn[ok])
    return float(-np.mean(cos))


def loss_grad_oracle(name, p, t):
    b, d = p.shape
    if name == "mse":
        return 2.0 * (p - t) / (b * d)
    if name == "bce":
        q = np.clip(p, _EPS_PROB, 1.0 - _EPS_PROB)
        g = (q - t) / (q * (1.0 - q)) / (b * d)
        # clipped elements sit on a flat edge of the surrogate
        g[(p < _EPS_PROB) | (p > 1.0 - _EPS_PROB)] = 0.0
        return g
    pn = np.linalg.norm(p, axis=1, keepdims=True)
    tn = np.linalg.norm(t, axis=1, keepdims=True)
    ok = ((pn >= _EPS_NORM) & (tn >= _EPS_NORM)).ravel()
    g = np.zeros_like(p)
    if ok.any():
        po, to = p[ok], t[ok]
        pno, tno = pn[ok], tn[ok]
        dot = np.sum(po * to, axis=1, keepdims=True)
        g[ok] = -(to / (pno * tno) - po * dot / (pno ** 3 * tno)) / b
    return g


def backprop_oracle(net, X, target, loss_name, activity_l2=0.0, training=False, rng=None):
    if loss_name not in ("mse", "bce", "cosine_proximity"):
        raise DatasetError(f"unknown loss {loss_name!r}")
    t = np.asarray(target, dtype=np.float64)
    inputs, zs, acts, masks, out = _trace(net, X, training, rng)
    batch = out.shape[0]
    total = loss_oracle(loss_name, out, t)
    if activity_l2 > 0.0:
        total += activity_l2 * float(np.sum(acts[0] ** 2)) / batch

    delta = loss_grad_oracle(loss_name, out, t)  # gradient wrt post-dropout output
    grads = [None] * len(net.layers)
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


@dataclass
class AdamState:
    m: list
    v: list
    t: int = 0

    @classmethod
    def for_params(cls, params):
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            t=0,
        )


def adam_step_oracle(params, grads, state, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
    if len(params) != len(grads) or len(params) != len(state.m):
        raise DatasetError("params, grads, and state must align")
    t = state.t + 1
    new_params = []
    new_m = []
    new_v = []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        new_params.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m)
        new_v.append(v)
    return new_params, AdamState(m=new_m, v=new_v, t=t)


def fit_network_oracle(net, X, target, loss_name, epochs, batch_size, lr, rng, activity_l2=0.0):
    n = X.shape[0]
    state = AdamState.for_params(_net_params(net))
    path = []
    for _ in range(epochs):
        order = rng.permutation(n)
        seen = 0.0
        accum = 0.0
        for start in range(0, n, batch_size):
            rows = order[start : start + batch_size]
            grads, value = backprop_oracle(
                net, X[rows], target[rows], loss_name,
                activity_l2=activity_l2, training=True, rng=rng,
            )
            flat = [g for pair in grads for g in pair]
            new_params, state = adam_step_oracle(_net_params(net), flat, state, lr=lr)
            for i, layer in enumerate(net.layers):
                layer.weights = new_params[2 * i]
                layer.bias = new_params[2 * i + 1]
            accum += value * rows.size
            seen += rows.size
        path.append(accum / seen)
    return path


# Oracles for the one-vector training loop and the trace-free inference pass:
# fit_network and _adam_step as they were, one array per layer weight and
# bias, and inference through the full trace that backprop keeps.


def adam_step_per_array_oracle(params, grads, m, v, t, lr):
    c1 = 1.0 - 0.9 ** t
    c2 = 1.0 - 0.999 ** t
    for p, g, mp, vp in zip(params, grads, m, v):
        mp *= 0.9
        mp += (1.0 - 0.9) * g
        vp *= 0.999
        vp += (1.0 - 0.999) * g * g
        p -= lr * (mp / c1) / (np.sqrt(vp / c2) + 1e-8)


def fit_network_per_array_oracle(net, X, target, loss_name, epochs, batch_size, lr, rng,
                                 activity_l2=0.0):
    n = X.shape[0]
    params = _net_params(net)
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    step = 0
    path = []
    for _ in range(epochs):
        order = rng.permutation(n)
        accum = 0.0
        for start in range(0, n, batch_size):
            rows = order[start : start + batch_size]
            grads, value = backprop(
                net, X[rows], target[rows], loss_name,
                activity_l2=activity_l2, training=True, rng=rng,
            )
            step += 1
            adam_step_per_array_oracle(
                params, [g for pair in grads for g in pair], m, v, step, lr
            )
            accum += value * rows.size
        path.append(accum / n)
    return path


def forward_oracle(net, X):
    return _trace(net, X, False, None)[4]


def loss_cases(name, seed=30):
    """A (pred, target) batch for ``name`` with the loss's edge cells in it:
    clipped and exact 0/1 predictions for bce, zero and sub-cutoff norms on
    either side for the cosine loss."""
    rng = generator(seed)
    if name == "bce":
        pred = rng.random((9, 4))
        pred[0] = [0.0, 1.0, 1e-13, 1.0 - 1e-17]
        pred[1] = [1e-12, 1.0 - 1e-12, 0.5, 2e-12]
        target = (rng.random((9, 4)) < 0.5).astype(np.float64)
        target[2] = [0.25, 0.75, 1.0, 0.0]
        return pred, target
    pred = rng.normal(size=(9, 4))
    target = rng.normal(size=(9, 4))
    if name == "cosine_proximity":
        pred[0] = 0.0
        target[1] = 0.0
        pred[2] = 1e-14
        target[3] = [5e-13, 0.0, 0.0, 0.0]
        pred[4], target[4] = 0.0, 0.0
    return pred, target


class TestLossOracle:
    @pytest.mark.parametrize("name", ["mse", "bce", "cosine_proximity"])
    def test_value_and_gradient_match_two_pass_oracle(self, name):
        for seed in (30, 31, 32):
            pred, target = loss_cases(name, seed)
            value, grad = _loss(name, pred, target)
            want = loss_grad_oracle(name, pred, target)
            assert np.float64(value).tobytes() == np.float64(loss_oracle(name, pred, target)).tobytes()
            assert grad.tobytes() == want.tobytes()
            assert loss(name, pred, target) == value

    def test_cosine_all_rows_degenerate(self):
        pred, target = np.zeros((3, 2)), np.ones((3, 2))
        value, grad = _loss("cosine_proximity", pred, target)
        assert value == 0.0
        assert grad.tobytes() == loss_grad_oracle("cosine_proximity", pred, target).tobytes()

    def test_shape_mismatch_refused(self):
        with pytest.raises(DatasetError, match="shapes differ"):
            loss("mse", np.zeros((2, 3)), np.zeros((2, 2)))
        net = small_net()  # output width 2
        X = np.ones((4, 3))
        for target in (np.zeros((4, 3)), np.zeros((3, 2)), np.zeros(8)):
            with pytest.raises(DatasetError, match="shapes differ"):
                backprop(net, X, target, "mse")

    def test_backprop_unknown_loss(self):
        with pytest.raises(DatasetError, match="unknown loss"):
            backprop(small_net(), np.ones((2, 3)), np.zeros((2, 2)), "hinge")


class TestFitNetworkOracle:
    @pytest.mark.parametrize(
        "loss_name, acts, activity_l2",
        [
            ("mse", ("relu", "tanh", "linear"), 0.01),
            ("bce", ("relu", "relu", "sigmoid"), 0.0),
            ("cosine_proximity", ("tanh", "relu", "tanh"), 1e-4),
        ],
    )
    def test_weights_and_loss_path_match_oracle_loop(self, loss_name, acts, activity_l2):
        rng = generator(50)
        X = rng.normal(size=(203, 5))
        if loss_name == "bce":
            T = (rng.random((203, 2)) < 0.3).astype(np.float64)
        else:
            T = X[:, :2] + 0.1 * rng.normal(size=(203, 2))
        nets = [small_net(51, (5, 7, 4, 2), acts, (0.3, 0.2, 0.0)) for _ in range(2)]
        path = fit_network(nets[0], X, T, loss_name, 3, 32, 0.01, generator(52), activity_l2)
        want = fit_network_oracle(nets[1], X, T, loss_name, 3, 32, 0.01, generator(52), activity_l2)
        assert np.array(path).tobytes() == np.array(want).tobytes()
        for got, exp in zip(_net_params(nets[0]), _net_params(nets[1])):
            assert got.tobytes() == exp.tobytes()

    @pytest.mark.parametrize(
        "loss_name, acts, activity_l2, autoencoder",
        [
            ("mse", ("relu", "tanh", "linear"), 0.01, False),
            ("mse", ("tanh", "relu", "linear"), 0.0, True),
            ("bce", ("relu", "relu", "sigmoid"), 1e-3, False),
            ("cosine_proximity", ("tanh", "relu", "tanh"), 1e-4, True),
            ("cosine_proximity", ("relu", "tanh", "relu"), 0.0, False),
        ],
    )
    def test_one_vector_matches_per_array_loop(self, loss_name, acts, activity_l2, autoencoder):
        rng = generator(56)
        X = rng.normal(size=(203, 5))
        X[:3] = 0.0  # rows whose cosine is skipped
        if loss_name == "bce":
            T = (rng.random((203, 5)) < 0.3).astype(np.float64)
        else:
            T = X if autoencoder else X[:, ::-1] + 0.1 * rng.normal(size=(203, 5))
        nets = [small_net(57, (5, 7, 3, 5), acts, (0.3, 0.2, 0.0)) for _ in range(2)]
        path = fit_network(nets[0], X, T, loss_name, 3, 32, 0.01, generator(58), activity_l2)
        want = fit_network_per_array_oracle(
            nets[1], X, T.copy() if autoencoder else T, loss_name, 3, 32, 0.01, generator(58),
            activity_l2,
        )
        assert np.array(path).tobytes() == np.array(want).tobytes()
        for got, exp in zip(_net_params(nets[0]), _net_params(nets[1])):
            assert got.tobytes() == exp.tobytes()
        # after training the layers' arrays are views of one parameter vector
        theta = nets[0].layers[0].weights.base
        assert all(p.base is theta for p in _net_params(nets[0]))
        assert theta.size == param_count(nets[0])

    def test_first_epoch_with_loss_not_finite_is_named(self):
        rng = generator(53)
        X = rng.normal(size=(200, 5))
        net = small_net(54, (5, 4, 5), ("relu", "linear"))
        want = "^training diverged: epoch 1's mean loss is nan$"
        with np.errstate(all="ignore"), pytest.raises(DatasetError, match=want):
            fit_network(net, X, X, "mse", 5, 16, 1e300, generator(55))


class TestStructure:
    def test_param_count_oracle(self):
        net = small_net(widths=(11, 9, 4, 4, 11), acts=("tanh", "relu", "tanh", "relu"))
        per_layer = [(l.n_in + 1) * l.n_out for l in net.layers]
        assert per_layer == [108, 40, 20, 55]
        assert param_count(net) == 223

    def test_width_chain_validated(self):
        l1 = DenseLayer(np.zeros((4, 3)), np.zeros(4), "relu")
        l2 = DenseLayer(np.zeros((2, 5)), np.zeros(2), "linear")
        with pytest.raises(DatasetError, match="chain"):
            Network(layers=[l1, l2])

    def test_activation_validated(self):
        with pytest.raises(DatasetError, match="activation"):
            DenseLayer(np.zeros((1, 1)), np.zeros(1), "softplus")

    def test_dropout_rate_validated(self):
        l1 = DenseLayer(np.zeros((2, 2)), np.zeros(2), "relu")
        with pytest.raises(DatasetError, match="dropout"):
            Network(layers=[l1], dropout=(1.0,))


class TestForward:
    def test_linear_identity(self):
        layer = DenseLayer(np.eye(2), np.array([1.0, -1.0]), "linear")
        net = Network(layers=[layer])
        X = np.array([[2.0, 3.0]])
        np.testing.assert_allclose(forward(net, X), [[3.0, 2.0]])

    def test_sigmoid_oracle(self):
        # sigmoid(ln 3) = 0.75
        layer = DenseLayer(np.array([[1.0]]), np.zeros(1), "sigmoid")
        net = Network(layers=[layer])
        out = forward(net, np.array([[math.log(3.0)]]))
        assert abs(out[0, 0] - 0.75) < 1e-12

    def test_relu_clamps(self):
        layer = DenseLayer(np.eye(2), np.zeros(2), "relu")
        net = Network(layers=[layer])
        np.testing.assert_allclose(
            forward(net, np.array([[-1.0, 2.0]])), [[0.0, 2.0]]
        )

    def test_inference_has_no_dropout(self):
        net = small_net(dropout=(0.5, 0.0))
        X = generator(1).normal(size=(8, 3))
        np.testing.assert_array_equal(forward(net, X), forward(net, X))

    def test_training_dropout_zeroes_and_rescales(self):
        layer = DenseLayer(np.eye(4), np.zeros(4), "linear")
        net = Network(layers=[layer], dropout=(0.5,))
        X = np.ones((2000, 4))
        out = _trace(net, X, True, generator(3))[4]
        values = np.unique(out)
        np.testing.assert_allclose(values, [0.0, 2.0])  # inverted scaling
        assert abs(out.mean() - 1.0) < 0.05  # expectation preserved

    @pytest.mark.parametrize("act", ["sigmoid", "tanh", "relu", "linear"])
    @pytest.mark.parametrize("rows", [0, 1, 1000])
    def test_matches_trace_oracle(self, act, rows):
        net = small_net(5, (6, 8, 4, 6), (act, act, act), (0.5, 0.2, 0.0))
        X = generator(6).normal(size=(rows, 6)) * 3.0
        got = forward(net, X)
        assert got.shape == (rows, 6)
        assert got.tobytes() == forward_oracle(net, X).tobytes()
        assert forward(net, X[:, ::-1]).tobytes() == forward_oracle(net, X[:, ::-1]).tobytes()

    @pytest.mark.parametrize("X", [np.ones((4, 5)), np.ones(6), np.ones((2, 6, 1))])
    def test_input_shape_refused_as_oracle(self, X):
        net = small_net(widths=(6, 3, 6), acts=("relu", "linear"))
        for fn in (forward, forward_oracle):
            with pytest.raises(DatasetError, match=r"^input must be \(batch, 6\)$"):
                fn(net, X)

    def test_training_dropout_requires_rng(self):
        net = small_net(dropout=(0.3, 0.0))
        with pytest.raises(DatasetError, match="generator"):
            backprop(net, np.ones((1, 3)), np.ones((1, 2)), "mse", training=True)


class TestLoss:
    def test_mse(self):
        assert loss("mse", np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])) == 1.0

    def test_bce(self):
        value = loss("bce", np.array([[0.75]]), np.array([[1.0]]))
        assert abs(value - (-math.log(0.75))) < 1e-12

    def test_cosine_orthogonal_is_zero(self):
        assert loss("cosine_proximity", np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])) == 0.0

    def test_cosine_aligned_is_minus_one(self):
        value = loss("cosine_proximity", np.array([[1.0, 0.0]]), np.array([[2.0, 0.0]]))
        assert abs(value + 1.0) < 1e-12

    def test_cosine_degenerate_row_contributes_zero(self):
        pred = np.array([[0.0, 0.0], [1.0, 0.0]])
        target = np.array([[1.0, 1.0], [1.0, 0.0]])
        assert abs(loss("cosine_proximity", pred, target) + 0.5) < 1e-12

    def test_unknown_loss(self):
        with pytest.raises(DatasetError):
            loss("hinge", np.zeros((1, 1)), np.zeros((1, 1)))


class TestBackprop:
    def test_fd_mse(self):
        rng = generator(10)
        net = small_net(11, (3, 5, 2), ("tanh", "linear"))
        X = rng.normal(size=(7, 3))
        T = rng.normal(size=(7, 2))
        assert fd_gradient_errors(net, X, T, "mse") < 1e-4

    def test_fd_bce(self):
        rng = generator(11)
        net = small_net(12, (4, 6, 1), ("relu", "sigmoid"))
        X = rng.normal(size=(9, 4))
        T = (rng.random((9, 1)) < 0.5).astype(np.float64)
        assert fd_gradient_errors(net, X, T, "bce") < 1e-4

    def test_fd_cosine(self):
        rng = generator(12)
        net = small_net(13, (5, 4, 5), ("tanh", "relu"))
        X = rng.normal(size=(6, 5)) + 1.0  # keep relu outputs off zero
        T = np.abs(rng.normal(size=(6, 5))) + 0.5
        assert fd_gradient_errors(net, X, T, "cosine_proximity") < 1e-4

    def test_fd_activity_regularizer(self):
        rng = generator(13)
        net = small_net(14, (3, 4, 2), ("tanh", "linear"))
        X = rng.normal(size=(5, 3))
        T = rng.normal(size=(5, 2))
        assert fd_gradient_errors(net, X, T, "mse", activity_l2=0.01) < 1e-4

    def test_loss_value_matches_loss_fn(self):
        rng = generator(14)
        net = small_net(15)
        X = rng.normal(size=(4, 3))
        T = rng.random((4, 2))
        _, value = backprop(net, X, T, "mse")
        assert abs(value - loss("mse", forward(net, X), T)) < 1e-15


class TestAdam:
    def test_two_steps_constant_gradient(self):
        # with a constant gradient, bias correction makes every step lr*sign(g)
        p, m, v, g = np.array([1.0]), np.zeros(1), np.zeros(1), np.array([0.5])
        start = p
        _adam_step(p, g, m, v, 1, lr=0.1)
        assert abs(p[0] - 0.9) < 1e-7
        _adam_step(p, g, m, v, 2, lr=0.1)
        assert abs(p[0] - 0.8) < 1e-7
        assert p is start  # updated in place

    def test_step_matches_functional_oracle(self):
        rng = generator(40)
        params = [rng.normal(size=(3, 2)), rng.normal(size=3)]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        want, state = [p.copy() for p in params], AdamState.for_params(params)
        for t in range(1, 6):
            grads = [rng.normal(size=p.shape) for p in params]
            for p, g, mp, vp in zip(params, grads, m, v):
                _adam_step(p, g, mp, vp, t, lr=0.01)
            want, state = adam_step_oracle(want, grads, state, lr=0.01)
        for got, exp in zip(params + m + v, want + state.m + state.v):
            assert got.tobytes() == exp.tobytes()


def blob(seed, n=1200):
    rng = generator(seed)
    X = rng.normal(size=(n, 4))
    eta = 2.0 * X[:, 0] - 1.5 * X[:, 1]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(np.int64)
    return Dataset(
        features=tuple(Feature(f"x{j}", "continuous") for j in range(4)),
        values=X,
        labels={"y": y},
    )


class TestTrainFFN:
    def test_learns_linear_signal(self):
        train, test = blob(20), blob(21)
        model = train_ffn(
            train, "y", hidden=(8,), dropout=(0.1,), epochs=40, batch_size=128, seed=2
        )
        assert auc(test.label("y"), predict_ffn(model, test)) > 0.85
        assert model.loss_path[-1] < model.loss_path[0]

    def test_deterministic_in_seed(self):
        ds = blob(22, n=300)
        a = train_ffn(ds, "y", hidden=(6,), epochs=3, batch_size=64, seed=7)
        b = train_ffn(ds, "y", hidden=(6,), epochs=3, batch_size=64, seed=7)
        np.testing.assert_array_equal(predict_ffn(a, ds), predict_ffn(b, ds))
        c = train_ffn(ds, "y", hidden=(6,), epochs=3, batch_size=64, seed=8)
        assert not np.array_equal(predict_ffn(a, ds), predict_ffn(c, ds))

    def test_default_architecture_shapes(self):
        ds = blob(23, n=200)
        model = train_ffn(ds, "y", epochs=1, seed=1)
        widths = [l.n_out for l in model.net.layers]
        assert widths == [22, 20, 15, 1]
        assert model.net.dropout == (0.3, 0.2, 0.0, 0.0)
        assert model.net.layers[-1].activation == "sigmoid"

    def test_probabilities_in_range(self):
        ds = blob(24, n=200)
        model = train_ffn(ds, "y", hidden=(5,), epochs=2, seed=3)
        p = predict_ffn(model, ds)
        assert np.all((p >= 0.0) & (p <= 1.0))

    def test_excess_dropout_rejected(self):
        ds = blob(25, n=50)
        with pytest.raises(DatasetError, match="dropout"):
            train_ffn(ds, "y", hidden=(4,), dropout=(0.3, 0.2), epochs=1)

    def test_divergence_in_the_last_update_named_with_lr(self):
        # one batch per epoch: the loss path stays finite while the update blows up
        ds = blob(26, n=200)
        want = r"^training diverged: .*\(lr = 1e\+300\)$"
        with np.errstate(all="ignore"), pytest.raises(DatasetError, match=want):
            train_ffn(ds, "y", hidden=(4,), epochs=1, batch_size=200, lr=1e300)
