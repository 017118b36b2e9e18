"""Classification trees and bagged forests with gini split search.

Both learners grow through one function, depth first from a row sample. A
node splits on the best gini decrease, weighted by the node's share of the
training data, among its candidate features, when the learner admits it: the
single tree needs the decrease, as a fraction of the root impurity, to reach
the complexity threshold ``cp``; forest trees need it to be positive and grow
unpruned to a minimum node size over bootstrap resamples and per-split
feature subsets. Both children are numbered when their parent splits, and
the left subtree grows first.

Tie-breaking is fully specified so fits are reproducible down to the bit:
among equal-gain splits the lowest feature index wins, then the lowest
threshold. A single tree depends only on the data as a multiset, never on
row order; forests are deterministic in (data, seed). A forest's trees are
made over the CPUs the process may use by ``shares.fork_map``; each tree draws
only from its own seed, so the split cannot change a bit.

Both also share one router. A call lays its trees end to end in one arena,
where each leaf is its own child on both sides, and steps all (row, tree)
pairs of a chunk of rows down one level at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, DatasetError
from .rng import child_seed, generator
from .shares import fork_map

__all__ = [
    "gini", "DecisionTree", "ForestHyper", "Forest", "fit_cart", "predict_tree", "fit_forest",
    "predict_forest", "variable_importance", "render_tree",
]


def gini(counts: np.ndarray) -> float:
    """Gini impurity 1 - sum(p^2) from per-class counts."""
    c = np.asarray(counts, dtype=np.float64)
    if np.any(c < 0):
        raise DatasetError("counts must be nonnegative")
    total = c.sum()
    if total == 0:
        return 0.0
    p = c / total
    return float(1.0 - np.sum(p * p))


def _binary_gini(pos: float, n: float) -> float:
    if n == 0:
        return 0.0
    p = pos / n
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


@dataclass
class DecisionTree:
    """Arena-encoded binary classification tree.

    Node arrays are aligned by index; ``feature[i] == -1`` marks a leaf.
    ``prob`` is the positive share of training rows at the node. Every
    child index is greater than its parent's, so the router's pairs reach
    their self-looping leaves within the depth; the model loader rejects
    files that break it.
    """

    feature_names: tuple[str, ...]
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    n_rows: np.ndarray
    prob: np.ndarray
    gain: np.ndarray  # total-weighted impurity decrease of each split
    root_gini: float
    cp: float
    min_split_obs: int

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature == -1))


@dataclass(frozen=True)
class ForestHyper:
    """Forest knobs. ``mtry=None`` means floor(sqrt(feature count)).

    ``bootstrap=False`` fits every tree on the full sample (deterministic
    hook for equivalence tests); ``split_rule`` is ``gini`` (best midpoint
    threshold) or ``extratrees`` (one uniform cutpoint per candidate
    feature, best gain among them).
    """

    n_trees: int = 100
    mtry: int | None = None
    min_node: int = 100
    split_rule: str = "gini"
    seed: int = 0
    bootstrap: bool = True

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise DatasetError("n_trees must be >= 1")
        if self.mtry is not None and self.mtry < 1:
            raise DatasetError("mtry must be >= 1")
        if self.min_node < 1:
            raise DatasetError("min_node must be >= 1")
        if self.split_rule not in ("gini", "extratrees"):
            raise DatasetError(f"unknown split rule {self.split_rule!r}")


@dataclass
class Forest:
    feature_names: tuple[str, ...]
    trees: list[DecisionTree]
    hyper: ForestHyper


def _best_midpoint_split(x: np.ndarray, y: np.ndarray, min_child: int):
    """Best (gain_fraction_threshold) midpoint split of one feature.

    Returns (mean-impurity decrease at the node, threshold) or None. The
    decrease is node-local: g_node - weighted child ginis. Candidates whose
    children would fall below ``min_child`` rows are skipped. On tied gains
    the lowest threshold wins (first argmax over ascending candidates).
    """
    n = x.size
    order = np.argsort(x)  # ties may land in any order: cuts fall only between runs
    xs = x[order]
    ys = y[order]
    cut = np.flatnonzero(xs[:-1] != xs[1:])  # split after these positions
    if cut.size == 0:
        return None
    n_left = cut + 1
    n_right = n - n_left
    if min_child > 1:  # else every cut between runs has a row on each side
        keep = (n_left >= min_child) & (n_right >= min_child)
        if not keep.any():
            return None
        cut, n_left, n_right = cut[keep], n_left[keep], n_right[keep]
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


def _uniform_cut_split(x: np.ndarray, y: np.ndarray, rng: np.random.Generator):
    """Gain of one uniform random cutpoint in [min, max) of the feature."""
    lo = float(x.min())
    hi = float(x.max())
    if lo == hi:
        return None
    threshold = float(rng.uniform(lo, hi))
    go_left = x <= threshold
    n_left = int(go_left.sum())
    n = x.size
    pos_left = float(y[go_left].sum())
    pos_total = float(y.sum())
    g_node = _binary_gini(pos_total, n)
    g_left = _binary_gini(pos_left, n_left)
    g_right = _binary_gini(pos_total - pos_left, n - n_left)
    gain = g_node - (n_left * g_left + (n - n_left) * g_right) / n
    return gain, threshold


def _grow(X, y, sample, mtry, min_rows, min_child, admit, rng, extratrees):
    """Grow one tree over the rows ``sample`` of ``X``; return its seven node arrays.

    Nodes under ``min_rows`` rows, and pure ones, stay leaves. Others split
    where ``admit`` takes the best share-weighted gain (the first on ties) of
    ``mtry`` drawn features (all, with no draw, when ``mtry == k``), each cut
    at its best midpoint with ``min_child`` rows a side or, with
    ``extratrees``, at one uniform cutpoint.
    """
    n_train, k = sample.size, X.shape[1]
    nodes = []  # per node: feature, threshold, left, right, rows, positives, gain

    def leaf(rows, y_rows):
        nodes.append([-1, math.nan, -1, -1, rows.size, int(y_rows.sum()), 0.0])
        return len(nodes) - 1, rows, y_rows

    stack = [leaf(sample, y[sample])]
    while stack:
        node, rows, y_node = stack.pop()
        n, pos = rows.size, nodes[node][5]
        if n < min_rows or pos == 0 or pos == n:
            continue
        feats = range(k) if mtry == k else np.sort(rng.choice(k, size=mtry, replace=False))
        best = None
        for feat in feats:
            x = X[rows, feat]
            if extratrees:
                found = _uniform_cut_split(x, y_node, rng)
            else:
                found = _best_midpoint_split(x, y_node, min_child)
            if found is None:
                continue
            gain = (n / n_train) * found[0]
            if best is None or gain > best[0]:
                best = (gain, feat, found[1])
        if best is None or not admit(best[0]):
            continue
        gain, feat, threshold = best
        go_left = X[rows, feat] <= threshold
        if not 0 < np.count_nonzero(go_left) < n:
            continue
        left = leaf(rows[go_left], y_node[go_left])
        right = leaf(rows[~go_left], y_node[~go_left])
        nodes[node] = [feat, threshold, left[0], right[0], n, pos, gain]
        stack += [right, left]
    feature, threshold, left, right, n_rows, pos, gain = map(np.array, zip(*nodes))
    feature, left, right = (links.astype(np.int32) for links in (feature, left, right))
    return feature, threshold, left, right, n_rows, pos / np.maximum(n_rows, 1), gain


def fit_cart(
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
    names, X = ds.columns(features)
    y = ds.label(label)
    root_gini = _binary_gini(float(y.sum()), float(y.size))
    nodes = _grow(
        X,
        y,
        sample=np.arange(y.size, dtype=np.int64),
        mtry=len(names),
        min_rows=2 * min_split_obs,
        min_child=min_split_obs,
        admit=lambda gain: root_gini != 0.0 and gain / root_gini >= cp,
        rng=None,
        extratrees=False,
    )
    return DecisionTree(names, *nodes, root_gini, cp, min_split_obs)


_CHUNK_PAIRS = 1 << 15  # (row, tree) pairs routed at once: bounds the transient arrays
_SWEEP = 6  # levels stepped between drops of the pairs that are at a leaf


def _route(trees: list[DecisionTree], values: list[np.ndarray], X: np.ndarray) -> np.ndarray:
    """Per row of ``X``, the sum over trees ``t`` of ``values[t]`` at the row's leaf.

    Pairs ``row * T + t`` go left on ties and right on NaN; leaves have feature
    0. Sums are exact for integer values and for one tree.
    """
    sizes = [tree.n_nodes for tree in trees]
    roots = np.cumsum([0] + sizes[:-1])
    feature = np.concatenate([tree.feature for tree in trees], dtype=np.intp)
    threshold = np.concatenate([tree.threshold for tree in trees])
    value = np.concatenate(values)
    children = np.empty(2 * feature.size, dtype=np.intp)  # [2 * node + went_left]
    children[0::2] = np.concatenate([tree.right for tree in trees])
    children[1::2] = np.concatenate([tree.left for tree in trees])
    children += np.repeat(roots, np.multiply(sizes, 2))
    at_leaf = feature == -1
    leaves = np.flatnonzero(at_leaf)  # index arrays: far faster than masks here
    feature[leaves] = 0
    children[2 * leaves] = children[2 * leaves + 1] = leaves
    flat, (n, k), T = X.ravel(), X.shape, len(trees)
    sums = np.zeros(n, np.result_type(value, np.int64))
    for rows in np.array_split(np.arange(n), max(1, -(-n * T // _CHUNK_PAIRS))):
        pair, node = np.arange(rows.size * T), np.tile(roots, rows.size)
        base, leaf = np.repeat(rows * k, T), np.empty_like(node)
        while pair.size:
            done = at_leaf[node]
            leaf[pair[done]] = node[done]
            pair, node, base = pair[~done], node[~done], base[~done]
            for _ in range(_SWEEP if pair.size else 0):  # no steps once every pair is at a leaf
                node = children[2 * node + (flat[base + feature[node]] <= threshold[node])]
        sums[rows] = value[leaf].reshape(rows.size, T).sum(axis=1)
    return sums


def predict_tree(tree: DecisionTree, ds: Dataset) -> np.ndarray:
    """Per-row positive probability: the training positive share at the leaf."""
    return _route([tree], [tree.prob], ds.columns(tree.feature_names)[1])


def fit_forest(
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

    Tree t is fitted in share ``t % P`` of P processes, one per usable CPU
    (see ``shares.fork_map``); since a tree reads nothing but the data and
    its own seed, the forest is the same bit for bit at any CPU count.
    """
    names, X = ds.columns(features)
    y = ds.label(label)
    n, k = X.shape
    mtry = hyper.mtry if hyper.mtry is not None else max(1, int(math.isqrt(k)))
    if mtry > k:
        raise DatasetError(f"mtry {mtry} exceeds feature count {k}")

    def fit(t: int) -> DecisionTree:
        rng = generator(child_seed(hyper.seed, "tree", t))
        sample = np.sort(rng.integers(0, n, size=n)) if hyper.bootstrap else np.arange(n)
        nodes = _grow(
            X, y, sample, mtry, min_rows=max(2, hyper.min_node), min_child=1,
            admit=lambda gain: gain > 0.0, rng=rng, extratrees=hyper.split_rule == "extratrees",
        )
        root_gini = _binary_gini(float(y[sample].sum()), sample.size)
        return DecisionTree(names, *nodes, root_gini, 0.0, 1)

    fitted: list[DecisionTree] = []
    fork_map(fit, hyper.n_trees, fitted.append)
    return Forest(feature_names=names, trees=fitted, hyper=hyper)


def predict_forest(forest: Forest, ds: Dataset) -> np.ndarray:
    """Fraction of trees voting positive per row.

    A tree votes positive when its leaf's positive share exceeds one half
    (an exactly split leaf votes negative). Classify at 0.5 downstream for
    strict-majority semantics with forest-level ties going negative. All
    trees are routed together, and votes are counted as exact integers.
    """
    votes = [tree.prob > 0.5 for tree in forest.trees]
    return _route(forest.trees, votes, ds.columns(forest.feature_names)[1]) / len(forest.trees)


def _tree_gain_by_feature(tree: DecisionTree, k: int) -> np.ndarray:
    totals = np.zeros(k)
    split = tree.feature >= 0
    np.add.at(totals, tree.feature[split], tree.gain[split])
    return totals


def variable_importance(model) -> dict[str, float]:
    """Normalized importance weights summing to 1, keyed by feature name.

    Trees and forests use the summed training-share-weighted gini decrease
    per feature (averaged over trees for forests); linear models use the
    absolute coefficient on the standardized scale, |coef| * sd. A model
    with nothing to attribute (no splits, all-zero coefficients) falls back
    to uniform weights so the weights always form a distribution.
    """
    if isinstance(model, DecisionTree):
        names = model.feature_names
        raw = _tree_gain_by_feature(model, len(names))
    elif isinstance(model, Forest):
        names = model.feature_names
        raw = np.zeros(len(names))
        for tree in model.trees:
            raw += _tree_gain_by_feature(tree, len(names))
        raw /= len(model.trees)
    elif hasattr(model, "coef") and hasattr(model, "feature_scales"):
        names = model.feature_names
        raw = np.abs(np.asarray(model.coef) * np.asarray(model.feature_scales))
    else:
        raise DatasetError(f"no importance rule for {type(model).__name__}")
    total = float(raw.sum())
    if total <= 0.0:
        return {n: 1.0 / len(names) for n in names}
    return {n: float(w / total) for n, w in zip(names, raw)}


def render_tree(tree: DecisionTree, max_depth: int | None = None) -> str:
    """Indented text rendering, left branch first."""
    lines: list[str] = []

    def walk(node: int, depth: int, prefix: str) -> None:
        pad = "  " * depth
        if max_depth is not None and depth > max_depth:
            lines.append(f"{pad}{prefix}...")
            return
        n = int(tree.n_rows[node])
        p = tree.prob[node]
        if tree.feature[node] == -1:
            lines.append(f"{pad}{prefix}leaf n={n} p={p:.4f}")
            return
        name = tree.feature_names[int(tree.feature[node])]
        lines.append(f"{pad}{prefix}{name} <= {tree.threshold[node]:.6g} n={n}")
        walk(int(tree.left[node]), depth + 1, "yes: ")
        walk(int(tree.right[node]), depth + 1, "no:  ")

    walk(0, 0, "")
    return "\n".join(lines)
