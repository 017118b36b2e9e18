"""Round-trip fidelity and byte determinism of the model file format."""

import numpy as np
import pytest

from rarepred.anomaly import train_autoencoder
from rarepred.dataset import Dataset, DatasetError, Feature
from rarepred.linear import fit_elastic_net, fit_logit, predict_proba
from rarepred.neural import predict_ffn, train_ffn
from rarepred.rng import generator
from rarepred.serialize import load_model, model_from_text, model_to_text, save_model
from rarepred.trees import (
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
    """Model file text with the named ``key = value`` lines replaced."""
    lines = text.splitlines()
    for key, value in fields.items():
        lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line for line in lines]
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
        ],
        ids=[
            "unequal_lengths", "no_nodes", "feature_past_names", "feature_negative",
            "split_without_child", "self_child", "backward_child", "child_past_end",
            "leaf_with_child",
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
