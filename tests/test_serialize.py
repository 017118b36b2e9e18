"""Round-trip fidelity and byte determinism of the model file format."""

import numpy as np
import pytest

from rarepred.anomaly import Autoencoder, train_autoencoder
from rarepred.dataset import Dataset, DatasetError, Feature
from rarepred.linear import (
    ElasticNetModel,
    LogitModel,
    fit_elastic_net,
    fit_logit,
    predict_proba,
)
from rarepred.neural import DenseLayer, FFNModel, Network, predict_ffn, train_ffn
from rarepred.preprocess import ScalerParams, apply_scaler, fit_scaler
from rarepred.rng import generator
from rarepred.serialize import load_model, model_from_text, model_to_text, save_model
from rarepred.trees import (
    DecisionTree,
    Forest,
    ForestHyper,
    fit_cart,
    fit_forest,
    predict_forest,
    predict_tree,
)


def sample(seed=0, n=250):
    rng = generator(seed)
    X = rng.normal(size=(n, 3))
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-1.5 * X[:, 0]))).astype(np.int64)
    return Dataset(
        features=tuple(Feature(f"x{j}", "continuous") for j in range(3)),
        values=X,
        labels={"y": y},
    )


def fitted_models(ds):
    return [
        fit_logit(ds, "y"),
        fit_elastic_net(ds, "y", lam=0.01, alpha=0.3),
        fit_cart(ds, "y", cp=0.005),
        fit_forest(ds, "y", ForestHyper(n_trees=3, min_node=30, seed=1)),
        train_ffn(ds, "y", hidden=(4,), epochs=2, batch_size=64, seed=2),
        train_autoencoder(ds, hidden=(2,), activations=("tanh", "linear"), epochs=2, seed=3),
    ]


PREDICTORS = {
    "LogitModel": predict_proba,
    "ElasticNetModel": predict_proba,
    "DecisionTree": predict_tree,
    "Forest": predict_forest,
    "FFNModel": predict_ffn,
}


class TestRoundTrip:
    def test_predictions_survive_round_trip(self, tmp_path):
        ds = sample()
        for i, model in enumerate(fitted_models(ds)):
            path = tmp_path / f"m{i}.model"
            save_model(str(path), model)
            back = load_model(str(path))
            assert type(back).__name__ == type(model).__name__
            predictor = PREDICTORS.get(type(model).__name__)
            if predictor is not None:
                np.testing.assert_array_equal(predictor(model, ds), predictor(back, ds))
            else:
                from rarepred.anomaly import score_dataset

                np.testing.assert_array_equal(
                    score_dataset(model, ds), score_dataset(back, ds)
                )

    def test_text_stable_under_reserialization(self):
        ds = sample(1)
        for model in fitted_models(ds):
            text = model_to_text(model)
            again = model_to_text(model_from_text(text))
            assert text == again

    def test_header_required(self):
        with pytest.raises(DatasetError, match="header"):
            model_from_text("kind = logit\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(DatasetError, match="kind"):
            model_from_text("rarepred-model v1\nkind = mystery\n")

    def test_metadata_preserved(self, tmp_path):
        ds = sample(2)
        enet = fit_elastic_net(ds, "y", lam=0.05, alpha=0.0)
        path = tmp_path / "enet.model"
        save_model(str(path), enet)
        back = load_model(str(path))
        assert back.lam == 0.05 and back.alpha == 0.0
        assert back.converged == enet.converged
        assert back.n_sweeps == enet.n_sweeps
        np.testing.assert_array_equal(back.feature_scales, enet.feature_scales)
        assert back.objective_path == enet.objective_path

    def test_forest_hyper_preserved(self, tmp_path):
        ds = sample(3)
        hyper = ForestHyper(n_trees=2, mtry=2, min_node=40, split_rule="extratrees", seed=7)
        forest = fit_forest(ds, "y", hyper)
        save_model(str(tmp_path / "f.model"), forest)
        back = load_model(str(tmp_path / "f.model"))
        assert back.hyper == hyper

    def test_tab_in_feature_name_rejected(self):
        ds = sample(4)
        model = fit_logit(ds, "y")
        model.feature_names = ("a\tb", "c", "d")
        with pytest.raises(DatasetError, match="tab"):
            model_to_text(model)


def with_fields(text, **fields):
    """Model file text with the named ``key = value`` lines replaced.

    A value of None drops the key's lines.
    """
    lines = text.splitlines()
    for key, value in fields.items():
        lines = [
            f"{key} = {value}" if line.startswith(f"{key} = ") else line
            for line in lines
            if value is not None or not line.startswith(f"{key} = ")
        ]
    return "\n".join(lines) + "\n"


def small_tree_text(**fields):
    """A 3-node CART file splitting x0 at 2.5, with some arrays replaced."""
    ds = Dataset(
        features=(Feature("x0", "continuous"),),
        values=np.array([[1.0], [2.0], [3.0], [4.0]]),
        labels={"y": np.array([0, 0, 1, 1])},
    )
    return with_fields(model_to_text(fit_cart(ds, "y", min_split_obs=1)), **fields)


class TestMalformedTrees:
    def test_reference_tree_loads(self, tmp_path):
        path = tmp_path / "cart.model"
        path.write_text(small_tree_text())
        tree = load_model(str(path))
        np.testing.assert_array_equal(tree.left, [1, -1, -1])

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"prob": "0.5 0.0"}, "field 'prob' has 2 entries"),
            ({name: "" for name in ("feature", "threshold", "left", "right",
                                    "n_rows", "prob", "gain")}, "field 'feature' lists no nodes"),
            ({"feature": "1 -1 -1"}, "node 0 has feature = 1"),
            ({"feature": "-2 -1 -1"}, "node 0 has feature = -2"),
            ({"left": "-1 -1 -1"}, r"node 0 has left = -1, expected in \(0, 3\)"),
            ({"left": "0 -1 -1"}, "node 0 has left = 0"),
            ({"feature": "0 0 -1", "left": "1 0 -1", "right": "2 2 -1"}, "node 1 has left = 0"),
            ({"right": "3 -1 -1"}, "node 0 has right = 3"),
            ({"left": "1 2 -1"}, "node 1 has left = 2, expected -1 at a leaf"),
            ({"left": "3000000000 -1 -1"}, "bad value for field 'left'"),
        ],
        ids=[
            "unequal_lengths", "no_nodes", "feature_past_names", "feature_negative",
            "split_without_child", "self_child", "backward_child", "child_past_end",
            "leaf_with_child", "child_past_int32",
        ],
    )
    def test_rejected_on_load(self, tmp_path, fields, match):
        path = tmp_path / "cart.model"
        path.write_text(small_tree_text(**fields))
        with pytest.raises(DatasetError, match=f"cart tree: {match}"):
            load_model(str(path))

    def test_forest_error_names_the_tree(self, tmp_path):
        forest = fit_forest(sample(5), "y", ForestHyper(n_trees=2, min_node=30, seed=1))
        head, tree1 = model_to_text(forest).split("[tree 1]\n")
        n = forest.trees[1].n_nodes
        tree1 = with_fields(tree1, right=" ".join(["0"] + ["-1"] * (n - 1)))
        path = tmp_path / "forest.model"
        path.write_text(head + "[tree 1]\n" + tree1)
        with pytest.raises(DatasetError, match="tree 1: node 0 has right = 0"):
            load_model(str(path))


inf, nan = float("inf"), float("nan")


def literal_tree(names, threshold, prob):
    """A 5-node tree: split on names[1], then on names[0] in the right child."""
    return DecisionTree(
        feature_names=names,
        feature=np.array([1, -1, 0, -1, -1], dtype=np.int32),
        threshold=np.array(threshold),
        left=np.array([1, -1, 3, -1, -1], dtype=np.int32),
        right=np.array([2, -1, 4, -1, -1], dtype=np.int32),
        n_rows=np.array([40, 15, 25, 10, 15]),
        prob=np.array(prob),
        gain=np.array([0.125, 0.0, 1e-300, 0.0, 0.0]),
        root_gini=0.48,
        cp=0.01,
        min_split_obs=20,
    )


def literal_net(widths, activations, dropout=()):
    layers = [
        DenseLayer(
            np.arange(n_out * n_in, dtype=np.float64).reshape(n_out, n_in) / 7.0 - 0.5,
            np.linspace(-1.0, 1.0, n_out),
            act,
        )
        for n_in, n_out, act in zip(widths, widths[1:], activations)
    ]
    return Network(layers=layers, dropout=dropout)


def golden_models():
    """One model of every kind from literal arrays (no fitting, no BLAS)."""
    names = ("age", "bmi")
    return [
        LogitModel(names, -2.5, np.array([0.1, -inf]), np.array([1.0, nan]),
                   True, 7, -123.456789, False),
        ElasticNetModel(names, nan, np.array([0.0, -0.0]), np.array([2.0, 3.5]),
                        0.01, 1.0 / 3.0, False, 12, [5.0, 4.0, inf]),
        literal_tree(names, [21.5, nan, 0.5, nan, nan], [0.3, 0.1, 0.4, 0.0, 1.0]),
        Forest(names,
               [literal_tree(names, [inf, nan, -inf, nan, nan], [0.5, 0.2, 0.6, 0.0, 1.0]),
                literal_tree(names, [1e-5, nan, 3.0, nan, nan], [0.25, 0.0, 0.5, 0.5, 0.5])],
               ForestHyper(n_trees=2, mtry=None, min_node=5, split_rule="gini", seed=11)),
        Forest(names, [literal_tree(names, [2.0, nan, 1.0, nan, nan], [0.5, 0.5, 0.5, 0.5, 0.5])],
               ForestHyper(n_trees=1, mtry=1, min_node=3, split_rule="extratrees",
                           seed=4, bootstrap=False)),
        FFNModel(names, literal_net((2, 3, 1), ("relu", "sigmoid"), (0.25, 0.0)),
                 seed=5, epochs=0, batch_size=32, lr=0.001, loss_path=[]),
        Autoencoder(names, literal_net((2, 1, 2), ("tanh", "linear")), loss="mse",
                    activity_l2=1e-4, seed=6, epochs=2, batch_size=16, lr=inf,
                    n_train_rows=100, loss_path=[0.75, nan]),
    ]


# Model files as the serializer must keep writing them, byte for byte: the
# manifest hashes every saved model.
GOLDEN_TEXTS = (
    """\
rarepred-model v1
kind = logit
feature_names = age\tbmi
intercept = -2.5
coef = 0.1 -inf
feature_scales = 1.0 nan
converged = true
n_iter = 7
loglik = -123.456789
quasi_separated = false
""",
    """\
rarepred-model v1
kind = elastic_net
feature_names = age\tbmi
intercept = nan
coef = 0.0 -0.0
feature_scales = 2.0 3.5
lam = 0.01
alpha = 0.3333333333333333
converged = false
n_sweeps = 12
objective_path = 5.0 4.0 inf
""",
    """\
rarepred-model v1
kind = cart
feature_names = age\tbmi
root_gini = 0.48
cp = 0.01
min_split_obs = 20
feature = 1 -1 0 -1 -1
threshold = 21.5 nan 0.5 nan nan
left = 1 -1 3 -1 -1
right = 2 -1 4 -1 -1
n_rows = 40 15 25 10 15
prob = 0.3 0.1 0.4 0.0 1.0
gain = 0.125 0.0 1e-300 0.0 0.0
""",
    """\
rarepred-model v1
kind = forest
feature_names = age\tbmi
n_trees = 2
mtry = none
min_node = 5
split_rule = gini
seed = 11
bootstrap = true
[tree 0]
root_gini = 0.48
cp = 0.01
min_split_obs = 20
feature = 1 -1 0 -1 -1
threshold = inf nan -inf nan nan
left = 1 -1 3 -1 -1
right = 2 -1 4 -1 -1
n_rows = 40 15 25 10 15
prob = 0.5 0.2 0.6 0.0 1.0
gain = 0.125 0.0 1e-300 0.0 0.0
[tree 1]
root_gini = 0.48
cp = 0.01
min_split_obs = 20
feature = 1 -1 0 -1 -1
threshold = 1e-05 nan 3.0 nan nan
left = 1 -1 3 -1 -1
right = 2 -1 4 -1 -1
n_rows = 40 15 25 10 15
prob = 0.25 0.0 0.5 0.5 0.5
gain = 0.125 0.0 1e-300 0.0 0.0
""",
    """\
rarepred-model v1
kind = forest
feature_names = age\tbmi
n_trees = 1
mtry = 1
min_node = 3
split_rule = extratrees
seed = 4
bootstrap = false
[tree 0]
root_gini = 0.48
cp = 0.01
min_split_obs = 20
feature = 1 -1 0 -1 -1
threshold = 2.0 nan 1.0 nan nan
left = 1 -1 3 -1 -1
right = 2 -1 4 -1 -1
n_rows = 40 15 25 10 15
prob = 0.5 0.5 0.5 0.5 0.5
gain = 0.125 0.0 1e-300 0.0 0.0
""",
    """\
rarepred-model v1
kind = ffn
feature_names = age\tbmi
seed = 5
epochs = 0
batch_size = 32
lr = 0.001
loss_path = 
n_layers = 2
dropout = 0.25 0.0
[layer 0]
activation = relu
n_in = 2
n_out = 3
weights = -0.5 -0.35714285714285715 -0.2142857142857143 -0.07142857142857145 0.0714285714285714 0.2142857142857143
bias = -1.0 0.0 1.0
[layer 1]
activation = sigmoid
n_in = 3
n_out = 1
weights = -0.5 -0.35714285714285715 -0.2142857142857143
bias = -1.0
""",
    """\
rarepred-model v1
kind = autoencoder
feature_names = age\tbmi
loss = mse
activity_l2 = 0.0001
seed = 6
epochs = 2
batch_size = 16
lr = inf
n_train_rows = 100
loss_path = 0.75 nan
n_layers = 2
dropout = 0.0 0.0
[layer 0]
activation = tanh
n_in = 2
n_out = 1
weights = -0.5 -0.35714285714285715
bias = -1.0
[layer 1]
activation = linear
n_in = 1
n_out = 2
weights = -0.5 -0.35714285714285715
bias = -1.0 1.0
""",
)


class TestGoldenText:
    def test_bytes_match_the_recorded_format(self):
        for model, text in zip(golden_models(), GOLDEN_TEXTS, strict=True):
            assert model_to_text(model) == text

    def test_golden_text_reserializes_to_itself(self):
        for text in GOLDEN_TEXTS:
            assert model_to_text(model_from_text(text)) == text


def edit_section(text, title, **fields):
    """``with_fields`` applied to the ``[title]`` block only."""
    head, rest = text.split(f"[{title}]\n")
    block, sep, tail = rest.partition("\n[")
    return head + f"[{title}]\n" + with_fields(block, **fields) + sep + tail


class TestMalformedFields:
    @pytest.mark.parametrize(
        "index, section, fields, match",
        [
            (0, "", {"converged": "yes"}, "logit model: bad value for field 'converged'"),
            (1, "", {"lam": "0.1x"}, "elastic_net model: bad value for field 'lam'"),
            (2, "", {"cp": None}, "cart tree: missing field 'cp'"),
            (3, "", {"mtry": None}, "forest model: missing field 'mtry'"),
            (4, "", {"mtry": "two"}, "forest model: bad value for field 'mtry'"),
            (3, "tree 1", {"left": "1 -1 3000000000 -1 -1"}, "tree 1: bad value for field 'left'"),
            (5, "", {"n_layers": "x"}, "ffn model: bad value for field 'n_layers'"),
            (6, "layer 1", {"n_in": "1.5"}, "layer 1: bad value for field 'n_in'"),
            (6, "layer 1", {"weights": None}, "layer 1: missing field 'weights'"),
            (6, "layer 0", {"n_out": "2"}, "layer 0: weights are not n_out x n_in"),
        ],
        ids=[
            "bool_not_true_false", "unparsable_float", "missing_tree_field",
            "missing_forest_field", "unparsable_mtry", "forest_child_past_int32",
            "unparsable_n_layers", "unparsable_layer_width", "missing_layer_field",
            "weights_not_layer_shape",
        ],
    )
    def test_rejected_on_load(self, tmp_path, index, section, fields, match):
        text = GOLDEN_TEXTS[index]
        text = edit_section(text, section, **fields) if section else with_fields(text, **fields)
        path = tmp_path / "bad.model"
        path.write_text(text)
        with pytest.raises(DatasetError, match=match):
            load_model(str(path))


def after_line(text, line, extra):
    """``text`` with ``extra`` inserted after its first line equal to ``line``."""
    head, sep, tail = text.partition(line + "\n")
    assert sep, line
    return head + sep + extra + tail


TREE_0 = GOLDEN_TEXTS[4][GOLDEN_TEXTS[4].index("[tree 0]\n"):]


class TestSurplusContent:
    @pytest.mark.parametrize(
        "index, edit, match",
        [
            (0, lambda t: after_line(t, "n_iter = 7", "n_iter = 9\n"),
             "header: repeated field 'n_iter'"),
            (3, lambda t: t + "prob = 0.25 0.0 0.5 0.5 0.5\n", "tree 1: repeated field 'prob'"),
            (3, lambda t: t + "[tree 1]\n", r"repeated block \[tree 1\]"),
            (0, lambda t: t + "bogus = 1\n", "logit model: unknown field 'bogus'"),
            (0, lambda t: t + "mtry = 3\n", "logit model: unknown field 'mtry'"),
            (2, lambda t: after_line(t, "cp = 0.01", "bogus = 1\n"),
             "cart tree: unknown field 'bogus'"),
            (6, lambda t: after_line(t, "activation = tanh", "bogus = 1\n"),
             "layer 0: unknown field 'bogus'"),
            (4, lambda t: t + TREE_0.replace("[tree 0]", "[tree 1]"),
             r"unexpected block \[tree 1\]"),
            (0, lambda t: t + TREE_0, r"logit model: unexpected block \[tree 0\]"),
            (2, lambda t: t + TREE_0, r"cart tree: unexpected block \[tree 0\]"),
        ],
        ids=[
            "repeated_header_key", "repeated_block_key", "repeated_block_title",
            "unknown_header_key", "other_kinds_key", "unknown_cart_key", "unknown_layer_key",
            "tree_past_n_trees", "block_in_logit", "block_in_cart",
        ],
    )
    def test_rejected_on_load(self, tmp_path, index, edit, match):
        path = tmp_path / "bad.model"
        path.write_text(edit(GOLDEN_TEXTS[index]))
        with pytest.raises(DatasetError, match=match):
            load_model(str(path))


# ---------------------------------------------------------------------------
# fitted scalers: kind "scaler"


def scaler_ds(values, names=None):
    values = np.asarray(values, dtype=np.float64)
    names = names or [f"f{j}" for j in range(values.shape[1])]
    return Dataset(
        features=tuple(Feature(n, "continuous") for n in names), values=values, labels={}
    )


def assert_same_scaler(back, params):
    assert back.method == params.method
    assert back.feature_names == params.feature_names
    for field in ("mean", "sd", "min", "max", "constant"):
        a, b = getattr(back, field), getattr(params, field)
        assert a.dtype == b.dtype, field
        assert a.tobytes() == b.tobytes(), field


class TestScalerText:
    def test_round_trip_exact(self):
        rng = np.random.Generator(np.random.PCG64(3))
        ds = scaler_ds(rng.normal(size=(25, 3)) * [1.0, 100.0, 1e-6])
        params = fit_scaler(ds, "standardize")
        assert_same_scaler(model_from_text(model_to_text(params)), params)

    def test_constant_flag_survives(self):
        ds = scaler_ds([[5.0, 1.0], [5.0, 2.0]])
        params = fit_scaler(ds, "minmax")
        back = model_from_text(model_to_text(params))
        assert back.constant.tolist() == [True, False]
        out = apply_scaler(ds, back)
        np.testing.assert_array_equal(out.values[:, 0], [0.0, 0.0])

    def test_text_stable(self):
        params = fit_scaler(scaler_ds([[1.0], [2.0], [4.0]]), "meannorm")
        text = model_to_text(params)
        assert model_to_text(model_from_text(text)) == text

    def test_rejects_garbage(self):
        with pytest.raises(DatasetError):
            model_from_text("method = nonsense\n")
        with pytest.raises(DatasetError):
            model_from_text("rarepred-model v1\nkind = scaler\nmethod = minmax\nmean = 1.0\n")


GOLDEN_SCALER = ScalerParams(
    method="minmax",
    feature_names=("age", "bmi=high"),
    mean=np.array([41.5, -0.0]),
    sd=np.array([12.25, 0.0]),
    min=np.array([18.0, 1e-300]),
    max=np.array([90.0, inf]),
    constant=np.array([False, True]),
)

# The scaler file as the serializer must keep writing it: the manifest
# hashes scaler.txt and ae_scaler.txt.
GOLDEN_SCALER_TEXT = """\
rarepred-model v1
kind = scaler
feature_names = age\tbmi=high
method = minmax
mean = 41.5 -0.0
sd = 12.25 0.0
min = 18.0 1e-300
max = 90.0 inf
constant = false true
"""


class TestScalerModel:
    def test_golden_bytes(self):
        assert model_to_text(GOLDEN_SCALER) == GOLDEN_SCALER_TEXT
        assert_same_scaler(model_from_text(GOLDEN_SCALER_TEXT), GOLDEN_SCALER)

    @pytest.mark.parametrize("method", ["standardize", "minmax", "meannorm"])
    def test_save_load_exact(self, tmp_path, method):
        rng = np.random.Generator(np.random.PCG64(5))
        values = rng.normal(size=(30, 3)) * [1.0, 1e6, 1e-9]
        values[:, 1] = 7.0  # a constant column
        params = fit_scaler(scaler_ds(values), method)
        path = tmp_path / "scaler.txt"
        save_model(str(path), params)
        assert_same_scaler(load_model(str(path)), params)

    def test_zero_feature_round_trip(self, tmp_path):
        # data with no continuous feature gets a scaler over nothing, which
        # saves with empty fields and loads back
        ds = Dataset((Feature("b", "binary"),), np.array([[0.0], [1.0], [1.0]]), {})
        params = fit_scaler(ds, "minmax")
        assert params.feature_names == ()
        assert model_to_text(params) == with_fields(
            GOLDEN_SCALER_TEXT, feature_names="", mean="", sd="", min="", max="", constant="")
        path = tmp_path / "scaler.txt"
        save_model(str(path), params)
        back = load_model(str(path))
        assert_same_scaler(back, params)
        assert apply_scaler(ds, back).values.tobytes() == ds.values.tobytes()

    def test_name_with_tab_refused_on_save(self):
        params = fit_scaler(scaler_ds([[1.0], [2.0]], names=["a\tb"]), "minmax")
        with pytest.raises(DatasetError, match="tab"):
            model_to_text(params)

    @pytest.mark.parametrize("char", ["\x85", "\u2028", "\x0b", "\x1c"])
    def test_names_with_other_line_breaks_round_trip(self, tmp_path, char):
        # str.splitlines() breaks at these; the model files keep them
        names = [f"a{char}b", " c"]
        params = fit_scaler(scaler_ds([[1.0, 2.0], [3.0, 5.0]], names=names), "standardize")
        assert_same_scaler(model_from_text(model_to_text(params)), params)
        path = tmp_path / "scaler.txt"
        save_model(str(path), params)
        assert_same_scaler(load_model(str(path)), params)
        logit = fit_logit(sample(4), "y")
        logit.feature_names = (f"x{char}0", " x1", "x2")
        save_model(str(tmp_path / "logit.model"), logit)
        assert load_model(str(tmp_path / "logit.model")).feature_names == logit.feature_names

    def test_name_with_carriage_return_refused_on_save(self, tmp_path):
        params = fit_scaler(scaler_ds([[1.0], [2.0]], names=["a\rb"]), "minmax")
        with pytest.raises(DatasetError, match=r"feature name 'a\\rb'"):
            save_model(str(tmp_path / "scaler.txt"), params)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda t: with_fields(t, sd=None), "scaler model: missing field 'sd'"),
            (lambda t: after_line(t, "mean = 41.5 -0.0", "mean = 7.0 5.0\n"),
             "scaler model header: repeated field 'mean'"),
            (lambda t: after_line(t, "method = minmax", "method = standardize\n"),
             "scaler model header: repeated field 'method'"),
            (lambda t: t + "feature = age\n", "scaler model: unknown field 'feature'"),
            (lambda t: with_fields(t, method="zscore"), "scaler model: field 'method' = 'zscore'"),
            (lambda t: with_fields(t, max="90.0"),
             "scaler model: field 'max' has 1 entries, 'feature_names' has 2"),
            (lambda t: with_fields(t, constant="false true false"),
             "scaler model: field 'constant' has 3 entries"),
            (lambda t: with_fields(t, constant="false 2"),
             "scaler model: bad value for field 'constant'"),
            (lambda t: with_fields(t, constant="0 1"),
             "scaler model: bad value for field 'constant'"),
            (lambda t: with_fields(t, constant="false True"),
             "scaler model: bad value for field 'constant'"),
            (lambda t: with_fields(t, constant="false  true"),
             "scaler model: bad value for field 'constant'"),
            (lambda t: with_fields(t, mean="x 1.0"), "scaler model: bad value for field 'mean'"),
            (lambda t: t + TREE_0, r"scaler model: unexpected block \[tree 0\]"),
        ],
        ids=[
            "missing_field", "repeated_stat", "repeated_method", "unknown_field",
            "unknown_method", "short_array", "long_constant",
            "constant_digit", "constant_old_spelling", "constant_capitalised",
            "constant_double_space", "unparsable_mean", "block_in_scaler",
        ],
    )
    def test_rejected_on_load(self, tmp_path, edit, match):
        path = tmp_path / "scaler.txt"
        path.write_text(edit(GOLDEN_SCALER_TEXT))
        with pytest.raises(DatasetError, match=match):
            load_model(str(path))
