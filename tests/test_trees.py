"""CART growth, forest bagging, importance, and determinism guarantees."""

import math
import os
import signal
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_no_child_left, open_fds, report_cpus

from rarepred import trees
from rarepred.dataset import Dataset, DatasetError, Feature
from rarepred.evaluate import auc
from rarepred.rng import child_seed, generator
from rarepred.trees import (
    DecisionTree,
    Forest,
    ForestHyper,
    fit_cart,
    fit_forest,
    gini,
    predict_forest,
    predict_tree,
    render_tree,
    variable_importance,
)
from rarepred.serialize import load_model, save_model
from rarepred.trees import (
    _best_midpoint_split, _binary_gini, _grow, _route, _uniform_cut_split,
)


def array_dataset(X, y, names=None):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    names = names or [f"x{j}" for j in range(X.shape[1])]
    return Dataset(
        features=tuple(Feature(n, "continuous") for n in names),
        values=X,
        labels={"y": np.asarray(y, dtype=np.int64)},
    )


def xor_dataset(copies=25):
    cells = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    X = np.repeat(cells, copies, axis=0)
    y = np.repeat(np.array([0, 1, 1, 0]), copies)
    return array_dataset(X, y)


def blob_dataset(seed, n=400, informative=1.5):
    rng = generator(seed)
    X = rng.normal(size=(n, 3))
    eta = informative * X[:, 0]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(np.int64)
    return array_dataset(X, y)


def route_per_node(tree: DecisionTree, X: np.ndarray) -> np.ndarray:
    """The per-node router the depth-wise one replaced; the oracle for it."""
    assign = np.zeros(X.shape[0], dtype=np.int64)
    for node in range(tree.n_nodes):
        feat = int(tree.feature[node])
        if feat == -1:
            continue
        at_node = np.flatnonzero(assign == node)
        if at_node.size == 0:
            continue
        go_left = X[at_node, feat] <= tree.threshold[node]
        assign[at_node[go_left]] = tree.left[node]
        assign[at_node[~go_left]] = tree.right[node]
    return assign


def best_midpoint_split_stable(x: np.ndarray, y: np.ndarray, min_child: int):
    """The split search as it was with a stable sort; the oracle for the quicksort one."""
    n = x.size
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ys = y[order]
    cut = np.flatnonzero(xs[:-1] != xs[1:])  # split after these positions
    if cut.size == 0:
        return None
    n_left = cut + 1
    n_right = n - n_left
    keep = (n_left >= min_child) & (n_right >= min_child)
    if not keep.any():
        return None
    cut = cut[keep]
    n_left = n_left[keep]
    n_right = n_right[keep]
    pos_prefix = np.cumsum(ys)
    pos_left = pos_prefix[cut]
    pos_total = pos_prefix[-1]
    pos_right = pos_total - pos_left
    pl = pos_left / n_left
    pr = pos_right / n_right
    g_left = 1.0 - pl * pl - (1.0 - pl) * (1.0 - pl)
    g_right = 1.0 - pr * pr - (1.0 - pr) * (1.0 - pr)
    g_node = _binary_gini(float(pos_total), float(n))
    gains = g_node - (n_left * g_left + n_right * g_right) / n
    best = int(np.argmax(gains))
    threshold = 0.5 * (xs[cut[best]] + xs[cut[best] + 1])
    return float(gains[best]), float(threshold)


def route_depthwise(tree: DecisionTree, X: np.ndarray) -> np.ndarray:
    """The per-tree depth-wise router the arena router replaced; a second oracle."""
    children = np.stack((tree.right, tree.left), axis=1).ravel()  # [2 * node + went_left]
    leaf = np.zeros(X.shape[0], dtype=np.int64)
    rows, node = np.arange(X.shape[0]), leaf
    while rows.size:  # ends within the depth: children exceed their parent
        feat = tree.feature[node]
        inner = feat != -1
        rows, node, feat = rows[inner], node[inner], feat[inner]
        go_left = X[rows, feat] <= tree.threshold[node]
        node = children[2 * node + go_left]
        leaf[rows] = node
    return leaf


def leaf_codes(model_trees, X):
    """Per row, every tree's leaf as one mixed-radix number, from the arena
    router and from each oracle; equal numbers mean equal leaves in every tree."""
    scale = np.cumprod([1] + [tree.n_nodes for tree in model_trees[:-1]])
    codes = [np.arange(tree.n_nodes) * s for tree, s in zip(model_trees, scale)]
    per_node = sum(route_per_node(t, X) * s for t, s in zip(model_trees, scale))
    depthwise = sum(route_depthwise(t, X) * s for t, s in zip(model_trees, scale))
    return _route(model_trees, codes, X), per_node, depthwise


def assert_routes_like_oracle(model, X):
    """Leaves on any rows, and scores on finite rows, equal both oracles' bit for bit."""
    forest = isinstance(model, Forest)
    model_trees = model.trees if forest else [model]
    arena, per_node, depthwise = leaf_codes(model_trees, X)
    assert arena.tobytes() == per_node.tobytes() == depthwise.tobytes()
    votes = np.zeros(X.shape[0])
    for tree in model_trees:
        leaves = route_per_node(tree, X)
        votes += (tree.prob[leaves] > 0.5).astype(np.float64)
    if np.isfinite(X).all():
        ds = array_dataset(X, np.zeros(X.shape[0]), model.feature_names)
        if forest:
            want = votes / len(model.trees)
            assert predict_forest(model, ds).tobytes() == want.tobytes()
        else:
            assert predict_tree(model, ds).tobytes() == model.prob[leaves].tobytes()


def edge_rows(model, X, rng):
    """Copies of X: cells snapped to the nearest split threshold on their
    column (rows landing exactly on a threshold), and cells set to NaN."""
    trees = model.trees if isinstance(model, Forest) else [model]
    on_threshold = X.copy()
    for j in range(X.shape[1]):
        cuts = np.concatenate([t.threshold[t.feature == j] for t in trees])
        if cuts.size:
            nearest = np.abs(X[:, j, None] - cuts[None, :]).argmin(axis=1)
            on_threshold[:, j] = cuts[nearest]
    for t, tree in enumerate(trees[: X.shape[0]]):  # certain ties at every root
        if tree.feature[0] != -1:
            on_threshold[t, tree.feature[0]] = tree.threshold[0]
    with_nan = X.copy()
    with_nan[rng.random(X.shape) < 0.2] = np.nan
    return on_threshold, with_nan


def check_against_oracle(model, ds, seed=0):
    X = ds.values[:, [ds.feature_index(n) for n in model.feature_names]]
    on_threshold, with_nan = edge_rows(model, X, generator(seed))
    for rows in (X, on_threshold, with_nan):
        assert_routes_like_oracle(model, rows)


# The tree growth that one grow function replaced, kept verbatim as the oracle.

class _Builder:
    """Shared arena-growing machinery for single trees and forest trees."""

    def __init__(self, X: np.ndarray, y: np.ndarray, names: tuple[str, ...]):
        self.X = X
        self.y = y
        self.names = names
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.n_rows: list[int] = []
        self.prob: list[float] = []
        self.gain: list[float] = []

    def new_node(self, rows: np.ndarray) -> int:
        idx = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(math.nan)
        self.left.append(-1)
        self.right.append(-1)
        n = rows.size
        pos = int(self.y[rows].sum())
        self.n_rows.append(n)
        self.prob.append(pos / n if n else 0.0)
        self.gain.append(0.0)
        return idx

    def grow(
        self,
        root_rows: np.ndarray,
        accept,  # (node_gain_total, node_rows) -> bool
        candidates,  # (node_rows) -> iterable of feature indices
        splitter,  # (x, y_node, feat) -> (node-mean gain, threshold) | None
        attempt,  # (node_rows) -> bool, gate before searching
    ) -> None:
        n_train = root_rows.size
        stack = [(self.new_node(root_rows), root_rows)]
        while stack:
            node, rows = stack.pop()
            if not attempt(rows):
                continue
            y_node = self.y[rows]
            pos = int(y_node.sum())
            if pos == 0 or pos == rows.size:
                continue  # pure nodes stay leaves
            best = None
            for feat in candidates(rows):
                found = splitter(self.X[rows, feat], y_node, feat)
                if found is None:
                    continue
                node_gain, threshold = found
                total_gain = (rows.size / n_train) * node_gain
                if best is None or total_gain > best[0]:
                    best = (total_gain, feat, threshold)
            if best is None:
                continue
            total_gain, feat, threshold = best
            if not accept(total_gain, rows):
                continue
            go_left = self.X[rows, feat] <= threshold
            left_rows = rows[go_left]
            right_rows = rows[~go_left]
            if left_rows.size == 0 or right_rows.size == 0:
                continue
            self.feature[node] = feat
            self.threshold[node] = threshold
            self.gain[node] = total_gain
            left_idx = self.new_node(left_rows)
            right_idx = self.new_node(right_rows)
            self.left[node] = left_idx
            self.right[node] = right_idx
            # right pushed first so the left child is processed (and
            # numbered) in depth-first order
            stack.append((right_idx, right_rows))
            stack.append((left_idx, left_rows))

    def finish(self, root_gini: float, cp: float, min_split_obs: int) -> DecisionTree:
        return DecisionTree(
            feature_names=self.names,
            feature=np.array(self.feature, dtype=np.int32),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.int32),
            right=np.array(self.right, dtype=np.int32),
            n_rows=np.array(self.n_rows, dtype=np.int64),
            prob=np.array(self.prob, dtype=np.float64),
            gain=np.array(self.gain, dtype=np.float64),
            root_gini=root_gini,
            cp=cp,
            min_split_obs=min_split_obs,
        )


def fit_cart_oracle(
    ds: Dataset,
    label: str,
    features: list[str] | tuple[str, ...] | None = None,
    cp: float = 0.001,
    min_split_obs: int = 2,
) -> DecisionTree:
    """Grow a classification tree by greedy gini split search.

    A split is accepted when its training-share-weighted impurity decrease
    is at least ``cp`` times the root impurity and both children keep at
    least ``min_split_obs`` rows. With ``cp = 0`` zero-gain splits are
    admitted (pure nodes still stop), which lets the tree carve out
    interaction structure no single split can reward.
    """
    if cp < 0:
        raise DatasetError("cp must be >= 0")
    if min_split_obs < 1:
        raise DatasetError("min_split_obs must be >= 1")
    names = tuple(features) if features is not None else ds.feature_names
    cols = [ds.feature_index(n) for n in names]
    X = ds.values[:, cols]
    y = ds.label(label)
    n = X.shape[0]
    root_gini = _binary_gini(float(y.sum()), float(n))

    builder = _Builder(X, y, names)
    feature_range = range(len(names))

    def accept(total_gain: float, rows: np.ndarray) -> bool:
        if root_gini == 0.0:
            return False
        return total_gain / root_gini >= cp

    builder.grow(
        root_rows=np.arange(n, dtype=np.int64),
        accept=accept,
        candidates=lambda rows: feature_range,
        splitter=lambda x, y_node, feat: _best_midpoint_split(x, y_node, min_split_obs),
        attempt=lambda rows: rows.size >= 2 * min_split_obs,
    )
    return builder.finish(root_gini, cp, min_split_obs)


def fit_forest_oracle(
    ds: Dataset,
    label: str,
    hyper: ForestHyper,
    features: list[str] | tuple[str, ...] | None = None,
) -> Forest:
    """Fit a bagged forest of unpruned trees.

    Tree t draws its bootstrap sample and split randomness from a child
    seed of (hyper.seed, t), so the forest is reproducible and trees are
    order-independent. Nodes with fewer than ``min_node`` rows (or pure
    nodes) become leaves; every split needs strictly positive gain. At each
    split ``mtry`` features are sampled without replacement.
    """
    names = tuple(features) if features is not None else ds.feature_names
    cols = [ds.feature_index(n) for n in names]
    X = ds.values[:, cols]
    y = ds.label(label)
    n, k = X.shape
    mtry = hyper.mtry if hyper.mtry is not None else max(1, int(math.isqrt(k)))
    if mtry > k:
        raise DatasetError(f"mtry {mtry} exceeds feature count {k}")

    trees: list[DecisionTree] = []
    for t in range(hyper.n_trees):
        rng = generator(child_seed(hyper.seed, "tree", t))
        if hyper.bootstrap:
            sample = np.sort(rng.integers(0, n, size=n))
        else:
            sample = np.arange(n, dtype=np.int64)
        builder = _Builder(X, y, names)

        def candidates(rows: np.ndarray, rng=rng) -> np.ndarray:
            if mtry == k:
                return np.arange(k, dtype=np.int64)
            return np.sort(rng.choice(k, size=mtry, replace=False))

        if hyper.split_rule == "gini":
            def splitter(x, y_node, feat):
                return _best_midpoint_split(x, y_node, 1)
        else:
            def splitter(x, y_node, feat, rng=rng):
                return _uniform_cut_split(x, y_node, rng)

        builder.grow(
            root_rows=sample,
            accept=lambda total_gain, rows: total_gain > 0.0,
            candidates=candidates,
            splitter=splitter,
            attempt=lambda rows: rows.size >= max(2, hyper.min_node),
        )
        root_pos = float(y[sample].sum())
        trees.append(
            builder.finish(_binary_gini(root_pos, sample.size), 0.0, 1)
        )
    return Forest(feature_names=names, trees=trees, hyper=hyper)


def fit_forest_serial(
    ds: Dataset,
    label: str,
    hyper: ForestHyper,
    features: list[str] | tuple[str, ...] | None = None,
) -> Forest:
    """fit_forest as it was before its trees were split over processes."""
    names, X = ds.columns(features)
    y = ds.label(label)
    n, k = X.shape
    mtry = hyper.mtry if hyper.mtry is not None else max(1, int(math.isqrt(k)))
    if mtry > k:
        raise DatasetError(f"mtry {mtry} exceeds feature count {k}")

    trees: list[DecisionTree] = []
    for t in range(hyper.n_trees):
        rng = generator(child_seed(hyper.seed, "tree", t))
        if hyper.bootstrap:
            sample = np.sort(rng.integers(0, n, size=n))
        else:
            sample = np.arange(n, dtype=np.int64)
        nodes = _grow(
            X,
            y,
            sample,
            mtry,
            min_rows=max(2, hyper.min_node),
            min_child=1,
            admit=lambda gain: gain > 0.0,
            rng=rng,
            extratrees=hyper.split_rule == "extratrees",
        )
        root_gini = _binary_gini(float(y[sample].sum()), sample.size)
        trees.append(DecisionTree(names, *nodes, root_gini, 0.0, 1))
    return Forest(feature_names=names, trees=trees, hyper=hyper)


def tie_heavy_dataset(rng):
    """Integer, binary, quarter-step and rounded columns with duplicated rows."""
    n = int(rng.integers(20, 300))
    X = np.column_stack([
        rng.integers(0, 4, n),
        rng.integers(0, 2, n),
        rng.integers(-3, 4, n) * 0.25,
        rng.normal(size=n).round(1),
    ]).astype(np.float64)
    y = (rng.random(n) < 0.2 + 0.5 * X[:, 1]).astype(np.int64)
    again = rng.integers(0, n, int(rng.integers(0, 2 * n)))
    return array_dataset(np.vstack([X, X[again]]), np.concatenate([y, y[again]]))


def assert_same_trees(got, want):
    for a, b in zip(got, want, strict=True):
        for name in ("feature", "threshold", "left", "right", "n_rows", "prob", "gain"):
            assert getattr(a, name).dtype == getattr(b, name).dtype
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert (a.root_gini, a.cp, a.min_split_obs) == (b.root_gini, b.cp, b.min_split_obs)
        assert a.feature_names == b.feature_names


class TestGini:
    def test_oracles(self):
        assert gini(np.array([3, 1])) == 0.375
        assert gini(np.array([5, 5])) == 0.5
        assert gini(np.array([4, 0])) == 0.0
        assert gini(np.array([0, 0])) == 0.0

    def test_three_classes(self):
        assert abs(gini(np.array([2, 2, 2])) - 2.0 / 3.0) < 1e-15

    def test_negative_rejected(self):
        with pytest.raises(DatasetError):
            gini(np.array([-1, 2]))


class TestCart:
    def test_single_clean_split(self):
        ds = array_dataset([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1])
        tree = fit_cart(ds, "y", min_split_obs=1)
        assert tree.n_nodes == 3
        assert tree.feature[0] == 0
        assert tree.threshold[0] == 2.5  # midpoint between 2 and 3
        np.testing.assert_array_equal(predict_tree(tree, ds), [0, 0, 1, 1])

    def test_leaf_probability_is_positive_share(self):
        ds = array_dataset([1.0, 1.0, 1.0, 5.0, 5.0], [0, 0, 1, 1, 1])
        tree = fit_cart(ds, "y", min_split_obs=1)
        p = predict_tree(tree, ds)
        np.testing.assert_allclose(p[:3], 1.0 / 3.0)
        np.testing.assert_allclose(p[3:], 1.0)

    def test_children_partition_parent(self):
        ds = blob_dataset(1, n=600)
        tree = fit_cart(ds, "y", cp=0.0005)
        for node in range(tree.n_nodes):
            if tree.feature[node] >= 0:
                l, r = tree.left[node], tree.right[node]
                assert tree.n_rows[l] + tree.n_rows[r] == tree.n_rows[node]
                assert tree.n_rows[l] >= tree.min_split_obs
                assert tree.n_rows[r] >= tree.min_split_obs

    def test_cp_monotone_node_count(self):
        ds = blob_dataset(2, n=800)
        sizes = [
            fit_cart(ds, "y", cp=cp).n_nodes
            for cp in (0.0, 0.0005, 0.002, 0.01, 0.05, 0.5)
        ]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[-1] == 1  # huge cp suppresses every split

    def test_gain_positive_when_cp_positive(self):
        ds = blob_dataset(3, n=500)
        tree = fit_cart(ds, "y", cp=0.001)
        split = tree.feature >= 0
        assert np.all(tree.gain[split] > 0.0)
        assert np.all(tree.gain >= 0.0)

    def test_zero_gain_split_needs_cp_zero(self):
        # XOR: no single split reduces impurity, so cp > 0 stops at the root
        ds = xor_dataset()
        stump = fit_cart(ds, "y", cp=0.01)
        assert stump.n_nodes == 1
        full = fit_cart(ds, "y", cp=0.0)
        preds = predict_tree(full, ds)
        assert np.mean((preds >= 0.5).astype(int) == ds.label("y")) == 1.0

    def test_row_order_invariance(self):
        ds = blob_dataset(4, n=300)
        rng = generator(99)
        perm = rng.permutation(ds.rows)
        shuffled = ds.subset_rows(perm)
        a = fit_cart(ds, "y", cp=0.002)
        b = fit_cart(shuffled, "y", cp=0.002)
        np.testing.assert_array_equal(a.feature, b.feature)
        np.testing.assert_array_equal(a.threshold, b.threshold)
        np.testing.assert_array_equal(a.n_rows, b.n_rows)
        np.testing.assert_array_equal(a.prob, b.prob)

    def test_tie_breaks_to_lowest_feature_index(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        ds = array_dataset(np.column_stack([x, x]), [0, 0, 1, 1])
        tree = fit_cart(ds, "y", min_split_obs=1)
        assert tree.feature[0] == 0

    def test_min_split_obs_respected(self):
        ds = blob_dataset(5, n=200)
        tree = fit_cart(ds, "y", cp=0.0, min_split_obs=40)
        leaves = tree.feature == -1
        assert np.all(tree.n_rows[leaves] >= 40)

    def test_pure_root_stays_leaf(self):
        ds = array_dataset([1.0, 2.0, 3.0], [1, 1, 1])
        tree = fit_cart(ds, "y", cp=0.0, min_split_obs=1)
        assert tree.n_nodes == 1

    def test_render_smoke(self):
        ds = array_dataset([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1])
        text = render_tree(fit_cart(ds, "y", min_split_obs=1))
        assert "x0 <= 2.5" in text
        assert text.count("leaf") == 2


class TestForest:
    def test_deterministic_in_seed(self):
        ds = blob_dataset(6, n=400)
        hyper = ForestHyper(n_trees=10, seed=5, min_node=20)
        a = predict_forest(fit_forest(ds, "y", hyper), ds)
        b = predict_forest(fit_forest(ds, "y", hyper), ds)
        np.testing.assert_array_equal(a, b)
        c = predict_forest(fit_forest(ds, "y", ForestHyper(n_trees=10, seed=6, min_node=20)), ds)
        assert not np.array_equal(a, c)

    def test_bootstrap_disable_matches_cart(self):
        # one full-sample tree with every feature is plain greedy growth
        ds = blob_dataset(7, n=300)
        hyper = ForestHyper(n_trees=1, mtry=3, min_node=2, seed=0, bootstrap=False)
        forest = fit_forest(ds, "y", hyper)
        cart = fit_cart(ds, "y", cp=0.0, min_split_obs=1)
        ftree = forest.trees[0]
        np.testing.assert_array_equal(ftree.feature, cart.feature)
        np.testing.assert_array_equal(ftree.threshold, cart.threshold)

    def test_score_is_vote_fraction(self):
        ds = blob_dataset(8, n=300)
        forest = fit_forest(ds, "y", ForestHyper(n_trees=4, seed=1, min_node=30))
        score = predict_forest(forest, ds)
        steps = np.unique(score)
        assert np.all(np.isin(steps, [0.0, 0.25, 0.5, 0.75, 1.0]))

    def test_min_node_limits_leaf_parents(self):
        ds = blob_dataset(9, n=500)
        forest = fit_forest(ds, "y", ForestHyper(n_trees=3, min_node=100, seed=2))
        for tree in forest.trees:
            split = tree.feature >= 0
            assert np.all(tree.n_rows[split] >= 100)

    def test_extratrees_rule(self):
        ds = blob_dataset(10, n=600)
        hyper = ForestHyper(n_trees=20, split_rule="extratrees", min_node=40, seed=3)
        forest = fit_forest(ds, "y", hyper)
        score = predict_forest(forest, ds)
        assert auc(ds.label("y"), score) > 0.7
        # cutpoints need not be data midpoints but stay inside the range
        for tree in forest.trees:
            for node in range(tree.n_nodes):
                if tree.feature[node] >= 0:
                    col = ds.values[:, int(tree.feature[node])]
                    assert col.min() <= tree.threshold[node] <= col.max()

    def test_mtry_validation(self):
        ds = blob_dataset(11, n=100)
        with pytest.raises(DatasetError, match="mtry"):
            fit_forest(ds, "y", ForestHyper(n_trees=1, mtry=9))

    def test_forest_beats_single_tree_on_noisy_data(self):
        train = blob_dataset(12, n=800, informative=1.0)
        test = blob_dataset(13, n=800, informative=1.0)
        tree = fit_cart(train, "y", cp=0.0, min_split_obs=5)
        forest = fit_forest(train, "y", ForestHyper(n_trees=60, min_node=25, seed=4))
        auc_tree = auc(test.label("y"), predict_tree(tree, test))
        auc_forest = auc(test.label("y"), predict_forest(forest, test))
        assert auc_forest > auc_tree


class TestSplitSortOracle:
    """The quicksort split search against the stable-sort one it replaced."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_trees_match_on_heavy_ties(self, seed):
        rng = generator(seed)
        n = int(rng.integers(20, 300))
        X = np.column_stack([
            rng.integers(0, 4, n),  # integer-valued
            rng.integers(0, 2, n),  # binary
            rng.integers(-3, 4, n) * 0.25,
            rng.normal(size=n).round(1),
        ]).astype(np.float64)
        y = (rng.random(n) < 0.2 + 0.5 * X[:, 1]).astype(np.int64)
        again = rng.integers(0, n, int(rng.integers(0, 2 * n)))  # duplicated rows
        ds = array_dataset(np.vstack([X, X[again]]), np.concatenate([y, y[again]]))
        hyper = ForestHyper(
            n_trees=2, mtry=int(rng.integers(1, 5)), min_node=int(rng.integers(1, 20)), seed=seed
        )
        min_split_obs = int(rng.integers(1, 10))

        def fit():
            return [fit_cart(ds, "y", cp=0.0, min_split_obs=min_split_obs),
                    *fit_forest(ds, "y", hyper).trees]

        quick = fit()
        stable_split = mock.Mock(wraps=best_midpoint_split_stable)
        with mock.patch.object(trees, "_best_midpoint_split", stable_split):
            stable = fit()
        assert stable_split.called
        for a, b in zip(quick, stable, strict=True):
            for name in ("feature", "threshold", "left", "right", "n_rows", "prob", "gain"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


class TestGrowOracle:
    """One grow function against the builder and callbacks it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_fits_match_bit_for_bit(self, seed):
        rng = generator(seed)
        ds = tie_heavy_dataset(rng)
        cp = (0.0, float(rng.uniform(0.0, 0.02)))[int(rng.integers(2))]
        min_split_obs = int(rng.integers(1, 10))
        assert_same_trees(
            [fit_cart(ds, "y", cp=cp, min_split_obs=min_split_obs)],
            [fit_cart_oracle(ds, "y", cp=cp, min_split_obs=min_split_obs)],
        )
        hyper = ForestHyper(
            n_trees=2,
            mtry=int(rng.integers(1, 5)),  # 4 is every feature
            min_node=int(rng.integers(1, 20)),
            split_rule=("gini", "extratrees")[int(rng.integers(2))],
            seed=seed,
            bootstrap=bool(rng.integers(2)),
        )
        got, want = fit_forest(ds, "y", hyper), fit_forest_oracle(ds, "y", hyper)
        assert got.feature_names == want.feature_names and got.hyper == want.hyper
        assert_same_trees(got.trees, want.trees)

    @pytest.mark.parametrize("mtry", [None, 2, 3])
    @pytest.mark.parametrize("split_rule", ["gini", "extratrees"])
    def test_forest_on_blobs(self, mtry, split_rule):
        ds = blob_dataset(31, n=600)
        hyper = ForestHyper(n_trees=4, mtry=mtry, min_node=3, split_rule=split_rule, seed=5)
        assert_same_trees(fit_forest(ds, "y", hyper).trees, fit_forest_oracle(ds, "y", hyper).trees)

    def test_edge_datasets(self):
        for ds in (
            array_dataset(np.zeros((0, 2)), np.zeros(0)),
            array_dataset(np.zeros((6, 2)), [0, 1, 0, 1, 0, 1]),  # no cut anywhere
            array_dataset(np.ones((4, 1)), [1, 1, 1, 1]),  # pure root
            array_dataset([1 + 2 ** -52, 1 + 2 ** -51] * 3, [0, 1] * 3),  # midpoint rounds up: empty child
            xor_dataset(3),
        ):
            for cp in (0.0, 0.01):
                assert_same_trees(
                    [fit_cart(ds, "y", cp=cp, min_split_obs=1)],
                    [fit_cart_oracle(ds, "y", cp=cp, min_split_obs=1)],
                )
            hyper = ForestHyper(n_trees=2, mtry=1, min_node=1, seed=3)
            assert_same_trees(
                fit_forest(ds, "y", hyper).trees, fit_forest_oracle(ds, "y", hyper).trees
            )


class TestForkedShares:
    """Forests fitted over forked helpers against the serial tree loop."""

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    @pytest.mark.parametrize("n_trees", [1, 2, 3, 5])
    @pytest.mark.parametrize("mtry", [2, 3])  # 3 is every feature
    @pytest.mark.parametrize("split_rule", ["gini", "extratrees"])
    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_matches_serial(self, monkeypatch, forks, cpus, n_trees, mtry, split_rule, bootstrap):
        ds = blob_dataset(41, n=300)
        hyper = ForestHyper(
            n_trees=n_trees, mtry=mtry, min_node=5, split_rule=split_rule, seed=n_trees,
            bootstrap=bootstrap,
        )
        report_cpus(monkeypatch, cpus)
        got = fit_forest(ds, "y", hyper)
        assert len(forks) == min(cpus, n_trees) - 1
        want = fit_forest_serial(ds, "y", hyper)
        assert got.feature_names == want.feature_names and got.hyper == want.hyper
        assert_same_trees(got.trees, want.trees)
        assert_no_child_left()

    def test_usable_cpus_by_default(self, forks):
        ds = blob_dataset(42, n=200)
        hyper = ForestHyper(n_trees=4, min_node=10, seed=2)
        assert_same_trees(fit_forest(ds, "y", hyper).trees, fit_forest_serial(ds, "y", hyper).trees)
        assert len(forks) == min(len(os.sched_getaffinity(0)), 4) - 1

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_serial_without_fork_or_affinity(self, monkeypatch, forks, missing):
        report_cpus(monkeypatch, 2)
        monkeypatch.delattr(os, missing)
        ds = blob_dataset(43, n=200)
        hyper = ForestHyper(n_trees=3, min_node=10, seed=3)
        assert_same_trees(fit_forest(ds, "y", hyper).trees, fit_forest_serial(ds, "y", hyper).trees)
        assert forks == []

    @pytest.mark.parametrize("where", ["helper", "caller", "helper exit"])
    def test_failed_share_raises_and_leaves_nothing(self, monkeypatch, forks, where):
        caller, grow, waitpid, statuses = os.getpid(), trees._grow, os.waitpid, []

        def failing_grow(*args, **kwargs):
            in_helper = os.getpid() != caller
            if in_helper and where == "helper exit":
                os._exit(3)
            if in_helper == (where != "caller"):
                raise DatasetError(f"grow failed in the {where}")
            if in_helper:
                time.sleep(60)  # the caller has failed: a helper still at work is killed
            return grow(*args, **kwargs)

        def recorded_waitpid(pid, options):
            reaped = waitpid(pid, options)
            statuses.append(reaped[1])
            return reaped

        monkeypatch.setattr(trees, "_grow", failing_grow)
        monkeypatch.setattr(os, "waitpid", recorded_waitpid)
        report_cpus(monkeypatch, 64)
        ds = blob_dataset(44, n=200)
        fds = open_fds()
        want = "wait status 768" if where == "helper exit" else f"grow failed in the {where}"
        with pytest.raises((DatasetError, RuntimeError), match=want):
            fit_forest(ds, "y", ForestHyper(n_trees=3, min_node=10, seed=4))
        assert len(forks) == 2
        assert_no_child_left()
        assert open_fds() == fds
        if where == "caller":
            assert [os.WTERMSIG(status) for status in statuses] == [signal.SIGKILL] * 2


class TestImportance:
    def test_tree_importance_concentrates(self):
        ds = blob_dataset(14, n=700, informative=2.0)
        weights = variable_importance(fit_cart(ds, "y", cp=0.002))
        assert abs(sum(weights.values()) - 1.0) < 1e-12
        assert weights["x0"] == max(weights.values())
        assert weights["x0"] > 0.5

    def test_forest_importance_sums_to_one(self):
        ds = blob_dataset(15, n=400)
        forest = fit_forest(ds, "y", ForestHyper(n_trees=10, min_node=30, seed=1))
        weights = variable_importance(forest)
        assert abs(sum(weights.values()) - 1.0) < 1e-12
        assert weights["x0"] == max(weights.values())

    def test_stump_falls_back_to_uniform(self):
        ds = array_dataset([1.0, 1.0, 1.0, 1.0], [0, 1, 0, 1])
        stump = fit_cart(ds, "y")
        assert stump.n_nodes == 1
        weights = variable_importance(stump)
        np.testing.assert_allclose(list(weights.values()), 1.0)

    def test_linear_importance_uses_standardized_scale(self):
        from rarepred.linear import fit_logit

        rng = generator(16)
        # x1 carries the signal but on a tiny raw scale; standardized
        # importance must still rank it first
        x0 = rng.normal(size=2000)
        x1 = rng.normal(size=2000) * 0.01
        eta = 200.0 * x1  # equivalent to 2.0 on the standardized scale
        y = (rng.random(2000) < 1.0 / (1.0 + np.exp(-eta))).astype(np.int64)
        ds = array_dataset(np.column_stack([x0, x1]), y)
        weights = variable_importance(fit_logit(ds, "y"))
        assert weights["x1"] > 0.8

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_importance_distribution_property(self, seed):
        ds = blob_dataset(seed % 1000, n=150)
        tree = fit_cart(ds, "y", cp=0.01)
        weights = variable_importance(tree)
        assert abs(sum(weights.values()) - 1.0) < 1e-9
        assert all(w >= 0 for w in weights.values())


class TestRouterOracle:
    """The arena router against the per-node and the per-tree depth-wise routers."""

    def test_cart(self):
        ds = blob_dataset(20, n=500)
        check_against_oracle(fit_cart(ds, "y", cp=0.0, min_split_obs=3), ds)

    def test_forest_default_mtry(self):
        ds = blob_dataset(21, n=500)
        check_against_oracle(fit_forest(ds, "y", ForestHyper(n_trees=5, min_node=5, seed=1)), ds)

    def test_forest_mtry_all_features(self):
        ds = blob_dataset(22, n=500)
        hyper = ForestHyper(n_trees=5, mtry=3, min_node=5, seed=2)
        check_against_oracle(fit_forest(ds, "y", hyper), ds)

    def test_forest_extratrees(self):
        ds = blob_dataset(23, n=500)
        hyper = ForestHyper(n_trees=5, min_node=5, split_rule="extratrees", seed=3)
        check_against_oracle(fit_forest(ds, "y", hyper), ds)

    def test_ties_go_left_and_nan_goes_right(self):
        tree = fit_cart(array_dataset([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1]), "y", min_split_obs=1)
        X = np.array([[2.5], [np.nan], [np.nextafter(2.5, 3.0)]])
        leaves = _route([tree], [np.arange(tree.n_nodes)], X)
        np.testing.assert_array_equal(leaves, [tree.left[0], tree.right[0], tree.right[0]])
        assert_routes_like_oracle(tree, X)

    def test_zero_rows(self):
        ds = blob_dataset(24, n=300)
        empty = ds.subset_rows(np.arange(0))
        check_against_oracle(fit_cart(ds, "y", cp=0.0), empty)
        forest = fit_forest(ds, "y", ForestHyper(n_trees=3, min_node=10, seed=4))
        check_against_oracle(forest, empty)
        assert predict_forest(forest, empty).shape == (0,)

    def test_stump(self):
        ds = array_dataset([1.0, 1.0, 1.0, 1.0], [0, 1, 0, 1])
        stump = fit_cart(ds, "y")
        assert stump.n_nodes == 1
        check_against_oracle(stump, ds)
        nan_rows = np.full((2, 1), np.nan)
        np.testing.assert_array_equal(_route([stump], [np.arange(1)], nan_rows), [0, 0])
        no_features = fit_cart(ds, "y", features=())
        check_against_oracle(no_features, ds)

    def test_forest_with_a_stump_and_trees_of_very_different_depths(self):
        ds = blob_dataset(25, n=600)
        pure = array_dataset(ds.values, np.zeros(ds.rows))
        forest = fit_forest(ds, "y", ForestHyper(n_trees=3, min_node=150, seed=5))
        deep = fit_cart(ds, "y", cp=0.0, min_split_obs=1)
        stump = fit_cart(pure, "y")
        assert stump.n_nodes == 1 and deep.n_nodes > 20 * forest.trees[0].n_nodes
        mixed = Forest(ds.feature_names, [stump, deep, *forest.trees, stump], forest.hyper)
        check_against_oracle(mixed, ds)
        stumps = Forest(ds.feature_names, [stump, stump], forest.hyper)
        check_against_oracle(stumps, ds)

    def test_leaf_thresholds_are_ignored(self):
        ds = blob_dataset(29, n=300)
        forest = fit_forest(ds, "y", ForestHyper(n_trees=3, min_node=20, seed=8))
        for tree in forest.trees:
            tree.threshold[tree.feature == -1] = np.inf  # would send every finite row left
        check_against_oracle(forest, ds)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_rows_around_one_chunk(self, extra):
        ds = blob_dataset(26, n=400)
        forest = fit_forest(ds, "y", ForestHyper(n_trees=3, min_node=10, seed=6))
        n = trees._CHUNK_PAIRS // len(forest.trees) + extra
        X = generator(27).normal(size=(n, 3))
        X[::7, 0] = forest.trees[0].threshold[0]
        check_against_oracle(forest, array_dataset(X, np.zeros(n)))

    def test_saved_and_loaded_forest(self, tmp_path):
        ds = blob_dataset(28, n=500)
        forest = fit_forest(ds, "y", ForestHyper(n_trees=4, min_node=5, seed=7))
        save_model(str(tmp_path / "forest.model"), forest)
        loaded = load_model(str(tmp_path / "forest.model"))
        check_against_oracle(loaded, ds)
        assert predict_forest(loaded, ds).tobytes() == predict_forest(forest, ds).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_oracle_property(self, seed):
        rng = generator(seed)
        ds = blob_dataset(seed % 1000, n=200)
        hyper = ForestHyper(
            n_trees=3,
            mtry=int(rng.integers(1, 4)),
            min_node=int(rng.integers(1, 30)),
            split_rule=("gini", "extratrees")[int(rng.integers(2))],
            seed=seed,
        )
        check_against_oracle(fit_forest(ds, "y", hyper), ds, seed)
        check_against_oracle(fit_cart(ds, "y", cp=float(rng.uniform(0, 0.01))), ds, seed)
