"""Classification trees and bagged forests with gini split search.

Both learners share one split-search core. The single tree accepts a split
when its impurity decrease, taken as a fraction of the root impurity and
weighted by the node's share of the training data, reaches the complexity
threshold ``cp``; forest trees grow unpruned to a minimum node size over
bootstrap resamples and per-split feature subsets.

Tie-breaking is fully specified so fits are reproducible down to the bit:
among equal-gain splits the lowest feature index wins, then the lowest
threshold. A single tree depends only on the data as a multiset, never on
row order; forests are deterministic in (data, seed).

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

__all__ = [
    "gini",
    "DecisionTree",
    "ForestHyper",
    "Forest",
    "fit_cart",
    "predict_tree",
    "fit_forest",
    "predict_forest",
    "variable_importance",
    "render_tree",
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
            for _ in range(_SWEEP):
                node = children[2 * node + (flat[base + feature[node]] <= threshold[node])]
        sums[rows] = value[leaf].reshape(rows.size, T).sum(axis=1)
    return sums


def predict_tree(tree: DecisionTree, ds: Dataset) -> np.ndarray:
    """Per-row positive probability: the training positive share at the leaf."""
    cols = [ds.feature_index(n) for n in tree.feature_names]
    return _route([tree], [tree.prob], ds.values[:, cols])


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


def predict_forest(forest: Forest, ds: Dataset) -> np.ndarray:
    """Fraction of trees voting positive per row.

    A tree votes positive when its leaf's positive share exceeds one half
    (an exactly split leaf votes negative). Classify at 0.5 downstream for
    strict-majority semantics with forest-level ties going negative. All
    trees are routed together, and votes are counted as exact integers.
    """
    cols = [ds.feature_index(n) for n in forest.feature_names]
    votes = [tree.prob > 0.5 for tree in forest.trees]
    return _route(forest.trees, votes, ds.values[:, cols]) / len(forest.trees)


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
