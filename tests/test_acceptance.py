"""End-to-end acceptance gate.

Eleven checks, one per shipped guarantee, each printing a single
PASS/FAIL line (run with ``pytest -s`` or ``-rA`` to see them on success).
They cover: the reference autoencoder architecture, the failure mode of
threshold classifiers on rare outcomes, anomaly-detection lift, the
nonlinear-model ordering on interaction-driven data, gradient and AUC
oracles, penalized-regression limiting behavior, cross-validation
mechanics, XOR separation, leakage guarding, and bitwise determinism of
the batch pipeline.
"""

import hashlib
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import auc_pair_count
from rarepred.anomaly import (
    DEFAULT_AUTOENCODER_FEATURES,
    score_dataset,
    train_autoencoder,
)
from rarepred.benchmarks import benchmark_spec
from rarepred.cli import main as cli_main
from rarepred.dataset import (
    Dataset,
    Feature,
    load_csv,
    load_schema,
    stratified_split,
    synth_generate,
)
from rarepred.evaluate import auc, confusion, metrics
from rarepred.linear import fit_elastic_net, fit_logit, predict_proba
from rarepred.neural import (
    Network,
    backprop,
    glorot_init,
    param_count,
    _net_params,
    _trace,
)
from rarepred.preprocess import apply_scaler, fit_scaler
from rarepred.rng import child_seed, generator
from rarepred.serialize import model_to_text
from rarepred.trees import fit_cart, predict_tree
from rarepred.tune import cross_validate, get_model_spec, grid_search, kfold_partition

DEMO_CONFIG = str(Path(__file__).resolve().parent.parent / "demos" / "demo.ini")


def _verdict(num: int, text: str, failures: list[str], started: float) -> None:
    status = "PASS" if not failures else "FAIL"
    print(
        f"[criterion {num:02d}] {status} - {text} ({time.time() - started:.1f}s)",
        flush=True,
    )
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


# ---------------------------------------------------------------------------
# 1. reference architecture


def test_criterion_01_architecture_parameter_count():
    started = time.time()
    failures: list[str] = []
    widths = [11, 9, 4, 4, 11]
    net = glorot_init(widths, ("tanh", "relu", "tanh", "relu"), None, generator(0))
    _check(failures, param_count(net) == 223, f"total params {param_count(net)} != 223")
    per_layer = [(w_in + 1) * w_out for w_in, w_out in zip(widths, widths[1:])]
    _check(failures, per_layer == [108, 40, 20, 55], f"per-layer {per_layer}")
    _verdict(1, "11-9-4-4-11 reconstruction stack has 223 parameters (108/40/20/55)",
             failures, started)


# ---------------------------------------------------------------------------
# 2. rare outcomes push threshold classifiers to all-negative predictions


def test_criterion_02_rare_event_threshold_failure():
    started = time.time()
    failures: list[str] = []
    ds = synth_generate(benchmark_spec("rare_linear", seed=1))
    pair = stratified_split(ds, 0.8, "outcome", seed=child_seed(1, "split"))
    train, test = pair.train, pair.test
    y_test = test.label("outcome")
    _check(failures, int(ds.label("outcome").sum()) > 0, "no positives generated")

    models = {
        "logit": fit_logit(train, "outcome"),
        "elastic_net": fit_elastic_net(train, "outcome", lam=0.001, alpha=0.5),
    }
    scores = {name: predict_proba(m, test) for name, m in models.items()}
    tree = fit_cart(train, "outcome")
    scores["cart"] = predict_tree(tree, test)

    for name, s in scores.items():
        cm = confusion(y_test, (s >= 0.5).astype(np.int64))
        m = metrics(cm)
        sens = m.sensitivity
        _check(failures, sens <= 0.02, f"{name} sensitivity {sens:.4f} > 0.02")
        _check(failures, math.isfinite(m.accuracy), f"{name} accuracy not finite")
        _check(failures, math.isfinite(m.specificity), f"{name} specificity not finite")

    # degenerate slices flag undefined metrics instead of raising
    no_pos = metrics(confusion(np.zeros(10, dtype=int), np.zeros(10, dtype=int)))
    _check(failures, math.isnan(no_pos.sensitivity), "sensitivity should be nan")
    _check(failures, "sensitivity" in no_pos.undefined, "missing undefined flag")
    _check(failures, time.time() - started <= 300, "over the 5 minute budget")
    _verdict(2, "0.6% positives: logit, elastic net, and CART all sit at"
                " sensitivity <= 0.02 with flagged, not raised, metrics",
             failures, started)


# ---------------------------------------------------------------------------
# 3. reconstruction-error anomaly scores separate shifted positives


def test_criterion_03_anomaly_detection_lift():
    started = time.time()
    failures: list[str] = []
    seeds = (1, 2, 3, 4, 5)
    hits = 0
    for seed in seeds:
        seed_started = time.time()
        ds = synth_generate(benchmark_spec("anomaly", seed=seed))
        pair = stratified_split(ds, 0.8, "outcome", seed=child_seed(seed, "split"))
        scaler = fit_scaler(
            pair.train, "minmax", feature_names=list(DEFAULT_AUTOENCODER_FEATURES)
        )
        train_s = apply_scaler(pair.train, scaler)
        test_s = apply_scaler(pair.test, scaler)
        ae = train_autoencoder(
            train_s,
            label="outcome",
            features=list(DEFAULT_AUTOENCODER_FEATURES),
            seed=seed,
        )
        _check(failures, ae.epochs == 10 and ae.batch_size == 512,
               "training options drifted from defaults")
        scores = score_dataset(ae, test_s)
        y = test_s.label("outcome")
        value = auc(y, scores)
        if value >= 0.75:
            hits += 1
        mean_pos = scores[y == 1].mean()
        mean_neg = scores[y == 0].mean()
        _check(failures, mean_pos > mean_neg,
               f"seed {seed}: anomaly mean {mean_pos:.4f} <= normal mean {mean_neg:.4f}")
        _check(failures, time.time() - seed_started <= 300,
               f"seed {seed} over the 5 minute budget")
    _check(failures, hits >= 4, f"AUC >= 0.75 on only {hits}/5 seeds")
    _verdict(3, f"autoencoder scores reach AUC >= 0.75 on {hits}/5 seeds and"
                " separate class means on all 5", failures, started)


# ---------------------------------------------------------------------------
# 4. interaction effects order forest > plain tree ~ logit


def test_criterion_04_nonlinearity_ordering():
    started = time.time()
    failures: list[str] = []
    aucs = {"logit": [], "cart": [], "forest": []}
    forest_params = {"n_trees": 100, "mtry": 3, "min_node": 100}
    for seed in (1, 2, 3, 4, 5):
        ds = synth_generate(benchmark_spec("interaction", seed=seed))
        pair = stratified_split(ds, 0.8, "outcome", seed=child_seed(seed, "split"))
        train, test = pair.train, pair.test
        y = test.label("outcome")
        aucs["logit"].append(auc(y, predict_proba(fit_logit(train, "outcome"), test)))
        aucs["cart"].append(auc(y, predict_tree(fit_cart(train, "outcome"), test)))
        spec = get_model_spec("forest")
        forest = spec.fit(train, "outcome", None, forest_params, child_seed(seed, "tree"))
        aucs["forest"].append(auc(y, spec.predict(forest, test)))
    means = {name: float(np.mean(vals)) for name, vals in aucs.items()}
    _check(failures, means["forest"] >= means["cart"],
           f"forest {means['forest']:.4f} < cart {means['cart']:.4f}")
    _check(failures, means["cart"] >= means["logit"] - 0.02,
           f"cart {means['cart']:.4f} < logit {means['logit']:.4f} - 0.02")
    _check(failures, means["forest"] > means["logit"] + 0.03,
           f"forest {means['forest']:.4f} <= logit {means['logit']:.4f} + 0.03")
    _check(failures, time.time() - started <= 600, "over the 10 minute budget")
    _verdict(4, "5-seed mean test AUC: forest {forest:.3f} >= cart {cart:.3f} >="
                " logit {logit:.3f} - 0.02, forest beats logit by > 0.03"
                .format(**means), failures, started)


# ---------------------------------------------------------------------------
# 5. backprop matches central finite differences


def _fd_max_relative_error(net: Network, X, target, loss_name, h=1e-5) -> float:
    """Worst per-array relative gap between backprop and central differences."""
    grads, _ = backprop(net, X, target, loss_name)
    flat_grads = [g for pair in grads for g in pair]
    params = _net_params(net)
    worst = 0.0
    for pi, param in enumerate(params):
        ana = flat_grads[pi]
        num = np.empty_like(param)
        for idx in np.ndindex(param.shape):
            keep = param[idx]
            param[idx] = keep + h
            _, up = backprop(net, X, target, loss_name)
            param[idx] = keep - h
            _, down = backprop(net, X, target, loss_name)
            param[idx] = keep
            num[idx] = (up - down) / (2.0 * h)
        gap = float(np.linalg.norm(num - ana))
        scale = max(float(np.linalg.norm(num)), float(np.linalg.norm(ana)), 1e-4)
        worst = max(worst, gap / scale)
    return worst


def _sample_fd_case(i: int):
    """Draw a random (net, batch, loss) triple at a safely differentiable point.

    Central differences are meaningless across a relu kink or the zero-norm
    cutoff of the cosine loss, so draws whose pre-activations or row norms
    sit within nudging distance of those boundaries are redrawn.
    """
    activations = ("sigmoid", "tanh", "relu", "linear")
    losses = ("mse", "bce", "cosine_proximity")
    for attempt in range(50):
        rng = generator(child_seed(424242, "fdcheck", i * 100 + attempt))
        depth = int(rng.integers(1, 4))
        widths = [int(rng.integers(1, 7)) for _ in range(depth + 1)]
        loss_name = losses[int(rng.integers(len(losses)))]
        acts = [activations[int(rng.integers(len(activations)))] for _ in range(depth)]
        if loss_name == "bce":
            acts[-1] = "sigmoid"  # keeps predictions inside (0, 1)
        if loss_name == "cosine_proximity" and widths[-1] == 1:
            widths[-1] = 2  # cosine needs a direction, not a scalar
        net = glorot_init(widths, tuple(acts), None, rng)
        batch = int(rng.integers(1, 6))
        X = rng.normal(size=(batch, widths[0]))
        if loss_name == "bce":
            target = rng.integers(0, 2, size=(batch, widths[-1])).astype(np.float64)
        else:
            target = rng.normal(size=(batch, widths[-1])) + 0.1
        _, zs, _, _, out = _trace(net, X, False, None)
        safe = all(
            float(np.min(np.abs(z))) > 1e-3
            for z, layer in zip(zs, net.layers)
            if layer.activation == "relu"
        )
        if loss_name == "cosine_proximity":
            safe = safe and float(
                min(
                    np.linalg.norm(out, axis=1).min(),
                    np.linalg.norm(target, axis=1).min(),
                )
            ) > 1e-3
        if safe:
            return net, X, target, loss_name, widths, acts
    raise AssertionError(f"case {i}: no differentiable draw in 50 attempts")


def test_criterion_05_gradient_correctness():
    started = time.time()
    failures: list[str] = []
    combos = 0
    worst_overall = 0.0
    for i in range(200):
        net, X, target, loss_name, widths, acts = _sample_fd_case(i)
        worst = _fd_max_relative_error(net, X, target, loss_name)
        worst_overall = max(worst_overall, worst)
        _check(failures, worst < 1e-4,
               f"combo {i} ({widths}, {acts}, {loss_name}): rel err {worst:.2e}")
        combos += 1
    _check(failures, combos >= 200, f"only {combos} combinations checked")
    _check(failures, time.time() - started <= 60, "over the 1 minute budget")
    _verdict(5, f"backprop matches central differences on {combos} random"
                f" (shape, activation, loss) combos, worst rel err"
                f" {worst_overall:.1e}", failures, started)


# ---------------------------------------------------------------------------
# 6. trapezoid AUC equals the pair-counting statistic


def test_criterion_06_auc_oracle_equivalence():
    started = time.time()
    failures: list[str] = []
    worst = 0.0
    for i in range(1000):
        rng = generator(child_seed(606060, "auc", i))
        n = int(rng.integers(2, 201))
        y = rng.integers(0, 2, size=n)
        y[0], y[1] = 0, 1  # force both classes
        scores = rng.normal(size=n)
        if i % 2 == 0:
            scores = np.round(scores, 1)  # heavy ties half the time
        gap = abs(auc(y, scores) - auc_pair_count(y, scores))
        worst = max(worst, gap)
        _check(failures, gap < 1e-10, f"instance {i}: |trapezoid - pairs| = {gap:.2e}")
    _check(failures, time.time() - started <= 60, "over the 1 minute budget")
    _verdict(6, f"trapezoid AUC equals rank pair statistic on 1000 tied"
                f" instances, worst gap {worst:.1e}", failures, started)


# ---------------------------------------------------------------------------
# 7. penalty limits: unpenalized match, sparsity, ridge shrinkage


def _toy_logistic(seed: int = 77, n: int = 1500):
    rng = generator(seed)
    X = rng.normal(size=(n, 4))
    eta = -1.0 + X @ np.array([1.0, -0.5, 0.8, 0.0])
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(np.int64)
    features = tuple(Feature(f"x{j}", "continuous") for j in range(4))
    return Dataset(features=features, values=X, labels={"y": y})


def test_criterion_07_elastic_net_limits():
    started = time.time()
    failures: list[str] = []
    ds = _toy_logistic()
    base = fit_logit(ds, "y")
    unpenalized = fit_elastic_net(ds, "y", lam=0.0, alpha=0.5)
    gap = max(
        abs(unpenalized.intercept - base.intercept),
        float(np.max(np.abs(unpenalized.coef - base.coef))),
    )
    _check(failures, gap < 1e-4, f"lam=0 mismatch {gap:.2e}")

    lams = (0.001, 0.003, 0.01, 0.03, 0.1)
    supports = []
    saw_zero = False
    for lam in lams:
        m = fit_elastic_net(ds, "y", lam=lam, alpha=0.0)
        active = frozenset(np.flatnonzero(m.coef != 0.0).tolist())
        saw_zero = saw_zero or len(active) < 4
        supports.append(active)
    _check(failures, saw_zero, "absolute-value penalty never produced exact zeros")
    for small, big in zip(supports, supports[1:]):
        _check(failures, big <= small,
               f"support grew from {sorted(small)} to {sorted(big)}")

    norms = []
    for lam in lams:
        m = fit_elastic_net(ds, "y", lam=lam, alpha=1.0)
        _check(failures, np.all(m.coef != 0.0),
               f"quadratic penalty at lam={lam} zeroed a coefficient")
        norms.append(float(np.linalg.norm(m.coef)))
    for a, b in zip(norms, norms[1:]):
        _check(failures, b < a, f"norm did not shrink ({a:.6f} -> {b:.6f})")
    _check(failures, time.time() - started <= 60, "over the 1 minute budget")
    _verdict(7, "lam=0 matches plain logit to 1e-4; alpha=0 gives exact zeros"
                " with nested supports; alpha=1 shrinks without zeros",
             failures, started)


# ---------------------------------------------------------------------------
# 8. cross-validation mechanics


def test_criterion_08_cv_mechanics():
    started = time.time()
    failures: list[str] = []
    for i in range(60):
        rng = generator(child_seed(808080, "folds", i))
        n = int(rng.integers(2, 300))
        k = int(rng.integers(2, min(n, 8) + 1))
        stratified = bool(rng.integers(2)) and n >= 2 * k
        labels = rng.integers(0, 2, size=n) if stratified else None
        plan = kfold_partition(n, k, seed=i, stratify_labels=labels)
        counts = np.bincount(plan.assignment, minlength=k)
        _check(failures, counts.sum() == n, f"plan {i}: not a partition")
        _check(failures, counts.max() - counts.min() <= 1,
               f"plan {i}: fold sizes {counts.tolist()}")
        if labels is not None:
            for cls in (0, 1):
                cls_counts = np.bincount(plan.assignment[labels == cls], minlength=k)
                _check(failures, cls_counts.max() - cls_counts.min() <= 1,
                       f"plan {i}: class {cls} counts {cls_counts.tolist()}")

    rng = generator(88)
    X = rng.normal(size=(20, 2))
    y = np.array([0, 1] * 10)
    ds = Dataset(
        features=(Feature("a", "continuous"), Feature("b", "continuous")),
        values=X,
        labels={"y": y},
    )
    result = cross_validate(ds, "y", "logit", k=4, seed=3)
    by_hand = []
    spec = get_model_spec("logit")
    for fold in range(4):
        train = ds.subset_rows(result.plan.train_rows(fold))
        test = ds.subset_rows(result.plan.test_rows(fold))
        model = spec.fit(train, "y", ds.feature_names, {}, child_seed(3, "fit", fold))
        by_hand.append(auc(test.label("y"), spec.predict(model, test)))
    _check(failures, result.mean_value == float(np.mean(by_hand)),
           "cross_validate mean differs from the hand loop")
    _check(failures, np.array_equal(result.fold_values, np.array(by_hand)),
           "per-fold values differ from the hand loop")

    grid = {"cp": [0.01, 0.1]}
    gs = grid_search(ds, "y", "cart", grid, k=4, seed=9, subset_frac=1.0, repeats=1)
    for pi, params in enumerate(gs.points):
        direct = cross_validate(
            ds, "y", "cart", params=params, k=4, seed=child_seed(9, "repeat", 0)
        )
        _check(failures, gs.cell_values[pi] == direct.fold_values.tolist(),
               f"grid point {pi} differs from direct cross-validation")
    refit = get_model_spec("cart").fit(ds, "y", ds.feature_names, gs.best_params,
                                       child_seed(9, "refit"))
    _check(failures, model_to_text(gs.model) == model_to_text(refit),
           "refit model is not bit-identical to the direct fit")
    _check(failures, time.time() - started <= 60, "over the 1 minute budget")
    _verdict(8, "fold plans partition exactly; a 20-row CV mean equals the"
                " hand-computed average; grid search reduces bit-identically",
             failures, started)


# ---------------------------------------------------------------------------
# 9. XOR needs splits, not a hyperplane


def test_criterion_09_xor_separation():
    started = time.time()
    failures: list[str] = []
    cells = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    X = np.tile(cells, (25, 1))
    y = (X[:, 0].astype(int) ^ X[:, 1].astype(int)).astype(np.int64)
    ds = Dataset(
        features=(Feature("a", "binary"), Feature("b", "binary")),
        values=X,
        labels={"y": y},
    )
    tree = fit_cart(ds, "y", cp=0.0, min_split_obs=1)
    tree_acc = float(((predict_tree(tree, ds) >= 0.5).astype(int) == y).mean())
    _check(failures, tree_acc == 1.0, f"tree training accuracy {tree_acc}")
    logit = fit_logit(ds, "y")
    logit_acc = float(((predict_proba(logit, ds) >= 0.5).astype(int) == y).mean())
    _check(failures, logit_acc <= 0.6, f"logit training accuracy {logit_acc}")
    _verdict(9, f"XOR x25: zero-threshold tree hits accuracy 1.0, logit stalls"
                f" at {logit_acc:.2f}", failures, started)


# ---------------------------------------------------------------------------
# 10. manifest provenance proves the holdout stayed untouched


def _manifest(out_dir: str) -> dict[str, str]:
    entries = {}
    with open(os.path.join(out_dir, "manifest.txt"), encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition(" = ")
            entries[key] = value
    return entries


def test_criterion_10_leakage_guard(tmp_path):
    started = time.time()
    failures: list[str] = []
    out = str(tmp_path / "leakcheck")
    code = cli_main(["all", "--config", DEMO_CONFIG, "--out", out])
    _check(failures, code == 0, f"pipeline exit code {code}")
    entries = _manifest(out)

    pre_eval = {"generate", "split", "preprocess", "tune", "train"}
    eval_artifacts = 0
    for key, value in entries.items():
        if not key.endswith(".inputs"):
            continue
        rel = key[len("artifact.") : -len(".inputs")]
        command = entries[f"artifact.{rel}.command"]
        inputs = set() if value == "(none)" else set(value.split(","))
        if command in pre_eval:
            _check(failures, "test.csv" not in inputs,
                   f"{rel} ({command}) read the test split")
        if command in ("evaluate", "detect") and "test.csv" in inputs:
            eval_artifacts += 1
    _check(failures, eval_artifacts > 0, "no artifact records reading the test split")

    schema = load_schema(os.path.join(out, "schema.txt"))
    train = load_csv(os.path.join(out, "train.csv"), schema)
    params = fit_scaler(train, entries["scaler.method"])
    for name in params.feature_names:
        stats = params.stats_for(name)
        for stat in ("mean", "sd", "min", "max"):
            recorded = entries[f"scaler.{name}.{stat}"]
            _check(failures, recorded == repr(stats[stat]),
                   f"scaler.{name}.{stat}: manifest {recorded} != train-only"
                   f" {stats[stat]!r}")
    _check(failures, time.time() - started <= 300, "over the 5 minute budget")
    _verdict(10, "manifest provenance keeps test.csv out of every pre-evaluation"
                 " command and records train-only scaler statistics",
             failures, started)


# ---------------------------------------------------------------------------
# 11. bitwise determinism of the full pipeline


def test_criterion_11_determinism(tmp_path):
    started = time.time()
    failures: list[str] = []
    hashes = []
    manifests = []
    for run in ("one", "two"):
        out = str(tmp_path / run)
        code = cli_main(["all", "--config", DEMO_CONFIG, "--out", out])
        _check(failures, code == 0, f"run {run} exit code {code}")
        per_file = {}
        for root, _, files in os.walk(out):
            for name in files:
                if name == "timestamps.txt":
                    continue
                full = os.path.join(root, name)
                rel = os.path.relpath(full, out)
                with open(full, "rb") as fh:
                    per_file[rel] = hashlib.sha256(fh.read()).hexdigest()
        hashes.append(per_file)
        with open(os.path.join(out, "manifest.txt"), "rb") as fh:
            manifests.append(fh.read())
    _check(failures, set(hashes[0]) == set(hashes[1]), "artifact sets differ")
    for rel in sorted(hashes[0]):
        _check(failures, hashes[0][rel] == hashes[1].get(rel),
               f"{rel} differs between runs")
    _check(failures, manifests[0] == manifests[1], "manifest bytes differ")
    _check(failures, time.time() - started <= 600, "over the 10 minute budget")
    _verdict(11, f"two identical runs produced byte-identical hashes for"
                 f" {len(hashes[0])} artifacts", failures, started)
