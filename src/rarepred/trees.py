"""Classification trees and bagged forests with gini split search.

Both learners grow through one function, depth first from a row sample. A
node splits on the best gini decrease, weighted by the node's share of the
training data, among its candidate features, when the learner admits it: the
single tree needs the decrease, as a fraction of the root impurity, to reach
the complexity threshold ``cp``; forest trees need it to be positive and grow
unpruned to a minimum node size over bootstrap resamples and per-split feature
subsets, drawn by ``rng.subsets``: ``Generator.choice``'s subsets, read in
step from the tree's generator, so extratrees' cutpoints draw from the same
stream between them. Both children are numbered when their parent splits,
and the left subtree grows first. The split search sorts integer keys, not
values: each fit builds one table of a rank and a label bit per (feature,
row), and a node sorts its drawn features' keys as one block; ``_grow`` says
why the splits are a value sort's, bit for bit.

Tie-breaking is fully specified so fits are reproducible down to the bit:
among equal-gain splits the lowest feature index wins, then the lowest
threshold. A single tree depends only on the data as a multiset, never on
row order; forests are deterministic in (data, seed). A forest's trees are
made over the CPUs the process may use by ``shares.fork_map``; each tree draws
only from its own seed, so the split cannot change a bit.

Both also share one router: ``_arena`` lays trees end to end in one arena,
where each leaf is its own child on both sides, and ``_walk`` steps all
(row, tree) pairs of a chunk of rows down one level at a time. A ``Forest``
builds its arena once; ``predict_tree`` builds one per call. The arena folds
each subtree whose leaves all hold one value into a leaf with that value,
which is exact because a walk sums only the values at the leaves it reaches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, DatasetError
from .rng import child_seed, generator, subsets
from .shares import fork_map

__all__ = [
    "DecisionTree", "ForestHyper", "Forest", "fit_cart", "predict_tree", "fit_forest",
    "predict_forest", "variable_importance", "render_tree",
]

SPLIT_RULES = ("gini", "extratrees")


def _binary_gini(pos: float, n: float) -> float:
    if n == 0:
        return 0.0
    p = pos / n
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


@dataclass(frozen=True)
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
        if self.split_rule not in SPLIT_RULES:
            raise DatasetError(f"unknown split rule {self.split_rule!r}")


@dataclass(frozen=True)
class Forest:
    """Bagged trees, and the arena that routes their votes, built once here.

    The arena folds each subtree whose leaves all vote alike into one leaf
    with that vote: exact, as a row reaching any of them casts that vote. The
    forest is frozen and its trees' node arrays read-only, so the two agree.
    """

    feature_names: tuple[str, ...]
    trees: tuple[DecisionTree, ...]
    hyper: ForestHyper
    arena: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "trees", tuple(self.trees))
        for tree in self.trees:
            for name in ("feature", "threshold", "left", "right", "n_rows", "prob", "gain"):
                getattr(tree, name).flags.writeable = False
        object.__setattr__(self, "arena", _arena(self.trees, [t.prob > 0.5 for t in self.trees]))


def _uniform_cut_split(x: np.ndarray, y: np.ndarray, rng: np.random.Generator):
    """Gain of one uniform random cutpoint in [min, max) of the feature."""
    lo = float(x.min())
    hi = float(x.max())
    if lo == hi:
        return None
    u = rng.random()  # rng.uniform(lo, hi)'s draw; it fails where hi - lo overflows
    threshold = lo + (hi - lo) * u if math.isfinite(hi - lo) else lo * (1.0 - u) + hi * u
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


_SPLIT_CELLS = 1 << 15  # (feature, row) keys searched at once: bounds the split buffers


def _key_table(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per (feature, row) the key ``(rank + offset) << 1 | label``, and the distinct values:
    a rank orders a feature's distinct values and the offset counts earlier features',
    so ``values[key >> 1]`` is the cell. The table is written a feature at a time."""
    keys = np.empty(X.shape[::-1], np.int32 if 2 * X.size < 2 ** 31 else np.int64)
    distinct, offset = [np.empty(0)], 0
    for j, column in enumerate(X.T):
        values, ranks = np.unique(column, return_inverse=True)  # -0.0 and 0.0: one rank
        keys[j] = (ranks + offset) << 1 | y
        distinct.append(values)
        offset += values.size
    return keys, np.concatenate(distinct)


def _share_gini(p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``1 - p * p - (1 - p) * (1 - p)`` into ``out``, as ``_binary_gini`` has it; spends ``p``."""
    np.subtract(1.0, np.multiply(p, p, out=out), out=out)
    out -= np.square(np.subtract(1.0, p, out=p), out=p)
    return out


def _best_split(table, buffers, rows, pos, feats, min_child, scale):
    """The best (scaled gain, feature, threshold) midpoint split of a node; feature None if none.

    The keys of ``feats`` at ``rows`` are sorted as one block, ``_SPLIT_CELLS`` at
    most at a time. A cut falls where the rank changes, ``min_child`` rows or more a
    side; its positives left are a running sum of label bits. The first best cut of
    the first feature with the best scaled gain wins."""
    (keys, values), n = table, rows.size
    lo, hi = min_child - 1, n - min_child  # a cut after position c, for lo <= c < hi
    n_left = np.arange(lo + 1, hi + 1, dtype=np.float64)
    n_right, g_node = n - n_left, _binary_gini(float(pos), float(n))
    best, step = (-math.inf, None, None), max(1, _SPLIT_CELLS // n)
    for start in range(0, len(feats), step):
        chunk = feats[start:start + step]
        block, bits, left, a, b = (buf[:len(chunk) * width].reshape(len(chunk), width)
                                   for buf, width in zip(buffers, (n, hi, hi, hi - lo, hi - lo)))
        for i, feat in enumerate(chunk):
            keys[feat].take(rows, out=block[i], mode="clip")  # rows are in range: no copy
        block.sort(axis=1)
        np.bitwise_and(block[:, :hi], 1, out=bits)
        left = np.cumsum(bits, axis=1, dtype=np.float64, out=left)[:, lo:]  # positives left of cuts
        np.multiply(_share_gini(np.divide(left, n_left, out=a), b), n_left, out=b)
        np.subtract(pos, left, out=a)
        np.multiply(_share_gini(np.divide(a, n_right, out=a), left), n_right, out=left)
        np.subtract(g_node, np.divide(np.add(b, left, out=b), n, out=b), out=b)
        step_up = np.bitwise_xor(block[:, lo + 1:hi + 1], block[:, lo:hi], out=bits[:, :hi - lo])
        np.copyto(b, -math.inf, where=step_up <= 1)  # the same rank on both sides: no cut
        gains = scale * b.max(axis=1)
        i = int(gains.argmax())
        if gains[i] > best[0]:
            u, v = map(float, values[block[i, lo + int(b[i].argmax()):][:2] >> 1])
            mid = 0.5 * (u + v)  # halving first would change subnormal midpoints
            best = (float(gains[i]), chunk[i], mid if math.isfinite(mid) else 0.5 * u + 0.5 * v)
    return best


def _grow(X, y, sample, mtry, min_rows, min_child, admit, rng, table):
    """Grow one tree over the rows ``sample`` of ``X``; return its seven node arrays.

    Nodes under ``min_rows`` rows, and pure ones, stay leaves. Others split on
    ``X[rows, feature] <= threshold`` where ``admit`` takes the best share-weighted
    gain (the first on ties) of ``mtry`` drawn features (all, with no draw, when
    ``mtry == k``), each cut at its best midpoint with ``min_child`` rows a side,
    by ``_best_split`` in ``table``, or with no table (extratrees) at a uniform one.

    Sorting ``_key_table`` keys finds the splits a value sort does, bit for bit:
    ranks change where sorted finite values do, ``-0.0`` and ``0.0`` share a rank
    and give any other value the same midpoint, and row counts are exact in
    float64, so each gain is the same arithmetic on the same numbers.
    """
    n_train, k = sample.size, X.shape[1]
    nodes = []  # per node: feature, threshold, left, right, rows, positives, gain
    dtypes = (table[0].dtype,) * 2 + (np.float64,) * 3 if table else ()
    buffers = [np.empty(max(_SPLIT_CELLS, n_train), dtype) for dtype in dtypes]

    def leaf(rows, y_rows):
        nodes.append([-1, math.nan, -1, -1, rows.size, int(y_rows.sum()), 0.0])
        return len(nodes) - 1, rows, y_rows

    draw = subsets(rng) if rng else None
    stack = [leaf(sample, y[sample])]
    while stack:
        node, rows, y_node = stack.pop()
        n, pos = rows.size, nodes[node][5]
        if n < min_rows or pos == 0 or pos == n:
            continue
        feats = range(k) if mtry == k else draw(k, mtry)
        best = (-math.inf, None, None)
        if table:
            best = _best_split(table, buffers, rows, pos, feats, min_child, n / n_train)
        for feat in () if table else feats:
            found = _uniform_cut_split(X[:, feat].take(rows), y_node, rng)
            if found is not None and (n / n_train) * found[0] > best[0]:
                best = ((n / n_train) * found[0], feat, found[1])
        if best[1] is None or not admit(best[0]):
            continue
        gain, feat, threshold = best
        go_left = X[:, feat].take(rows) <= threshold
        if not 0 < np.count_nonzero(go_left) < n:
            continue
        left = leaf(rows[go_left], y_node[go_left])
        right = leaf(rows[~go_left], y_node[~go_left])
        nodes[node] = [feat, threshold, left[0], right[0], n, pos, gain]
        stack += [right, left]
    feature, threshold, left, right, n_rows, pos, gain = map(np.array, zip(*nodes))
    feature, left, right = (links.astype(np.int32) for links in (feature, left, right))
    return feature, threshold, left, right, n_rows, pos / np.maximum(n_rows, 1), gain


def fit_cart(ds: Dataset, label: str, features: list[str] | tuple[str, ...] | None = None,
             cp: float = 0.001, min_split_obs: int = 2) -> DecisionTree:
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
        X, y, np.arange(y.size, dtype=np.int64), len(names), min_rows=2 * min_split_obs,
        min_child=min_split_obs, admit=lambda gain: root_gini != 0.0 and gain / root_gini >= cp,
        rng=None, table=_key_table(X, y),
    )
    return DecisionTree(names, *nodes, root_gini, cp, min_split_obs)


_CHUNK_PAIRS = 1 << 15  # (row, tree) pairs routed at once: bounds the transient arrays
_SWEEP = 8  # levels stepped between drops of the pairs that are at a leaf


def _arena(trees, values: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """``trees`` end to end for ``_walk``, with ``values[t]`` at tree ``t``'s leaves.

    A node whose leaves all hold the same value bits becomes a leaf (bottom up,
    a level per pass). Kept nodes keep their order, so children follow parents.
    Returns the roots, the leaf mask, and per node the feature (0 at a leaf),
    threshold, value and ``children[2 * node + went_left]`` (a leaf: itself).
    """
    sizes = [tree.n_nodes for tree in trees]
    roots = np.cumsum([0] + sizes[:-1])
    left, right = (np.concatenate(links) + np.repeat(roots, sizes)
                   for links in zip(*((tree.left, tree.right) for tree in trees)))
    feature = np.concatenate([tree.feature for tree in trees], dtype=np.intp)
    value = np.concatenate(values)
    bits = value.view(f"u{value.itemsize}")  # 0.0 and -0.0 never fold together
    same = feature == -1  # every leaf under the node holds the node's value
    parent, inner = np.arange(feature.size), np.flatnonzero(~same)
    parent[left[inner]] = parent[right[inner]] = inner
    while inner.size:  # the inner nodes that may fold now
        lo, hi = left[inner], right[inner]
        inner = inner[same[lo] & same[hi] & (bits[lo] == bits[hi])]
        same[inner], bits[inner] = True, bits[left[inner]]
        inner = np.unique(parent[inner])  # a root is its own parent, and now the same
        inner = inner[~same[inner]]
    keep = np.zeros(feature.size, dtype=bool)  # a root, or a child of a split that stays
    keep[roots] = keep[left[~same]] = keep[right[~same]] = True
    kept, index = np.flatnonzero(keep), np.cumsum(keep) - 1
    at_leaf, links = same[kept], index[np.stack((right[kept], left[kept]), axis=1)]
    children = np.where(at_leaf[:, None], np.arange(kept.size)[:, None], links).ravel()
    threshold = np.concatenate([tree.threshold for tree in trees])[kept]
    return index[roots], at_leaf, np.where(at_leaf, 0, feature[kept]), threshold, value[kept], children


def _walk(arena: tuple[np.ndarray, ...], X: np.ndarray) -> np.ndarray:
    """Per row of ``X``, the sum over trees of the value at the row's leaf.

    Pairs ``row * T + t`` go left on ties and right on NaN. Sums are exact for
    integer values and for one tree."""
    roots, at_leaf, feature, threshold, value, children = arena
    flat, (n, k), T = X.ravel(), X.shape, roots.size
    sums = np.zeros(n, np.result_type(value, np.int64))
    for rows in np.array_split(np.arange(n), max(1, -(-n * T // _CHUNK_PAIRS))):
        pair, node = np.arange(rows.size * T), np.tile(roots, rows.size)
        base, leaf = np.repeat(rows * k, T), np.empty_like(node)
        while pair.size:
            done = at_leaf.take(node)
            leaf[pair[done]] = node[done]
            pair, node, base = pair[~done], node[~done], base[~done]
            for _ in range(_SWEEP if pair.size else 0):  # no steps once every pair is at a leaf
                went_left = flat.take(base + feature.take(node)) <= threshold.take(node)
                node = children.take(2 * node + went_left)
        sums[rows] = value.take(leaf).reshape(rows.size, T).sum(axis=1)
    return sums


def predict_tree(tree: DecisionTree, ds: Dataset) -> np.ndarray:
    """Per-row positive probability: the training positive share at the leaf."""
    return _walk(_arena([tree], [tree.prob]), ds.columns(tree.feature_names)[1])


def fit_forest(ds: Dataset, label: str, hyper: ForestHyper,
               features: list[str] | tuple[str, ...] | None = None) -> Forest:
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
    table = _key_table(X, y) if hyper.split_rule == "gini" else None

    def fit(t: int) -> DecisionTree:
        rng = generator(child_seed(hyper.seed, "tree", t))
        sample = np.sort(rng.integers(0, n, size=n)) if hyper.bootstrap else np.arange(n)
        nodes = _grow(
            X, y, sample, mtry, min_rows=max(2, hyper.min_node), min_child=1,
            admit=lambda gain: gain > 0.0, rng=rng, table=table,
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
    trees are routed together through the forest's arena, and votes are
    counted as exact integers.
    """
    return _walk(forest.arena, ds.columns(forest.feature_names)[1]) / len(forest.trees)


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
    if isinstance(model, (DecisionTree, Forest)):
        names, trees = model.feature_names, getattr(model, "trees", (model,))
        raw = sum(_tree_gain_by_feature(tree, len(names)) for tree in trees) / len(trees)
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
        if tree.feature[node] == -1:
            lines.append(f"{pad}{prefix}leaf n={n} p={tree.prob[node]:.4f}")
            return
        name = tree.feature_names[int(tree.feature[node])]
        lines.append(f"{pad}{prefix}{name} <= {tree.threshold[node]:.6g} n={n}")
        walk(int(tree.left[node]), depth + 1, "yes: ")
        walk(int(tree.right[node]), depth + 1, "no:  ")

    walk(0, 0, "")
    return "\n".join(lines)
