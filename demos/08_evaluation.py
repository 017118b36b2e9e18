"""Metrics that stay honest when a class is missing or a model never fires.

Rare-outcome slices routinely produce degenerate confusion matrices. Here
every undefined ratio comes back as nan plus an entry in ``undefined``
instead of an exception, AUC is checked against the rank-statistic
definition it must equal, and a full report bundle is written to disk.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from rarepred.benchmarks import benchmark_spec
from rarepred.dataset import stratified_split, synth_generate
from rarepred.evaluate import (
    auc,
    confusion,
    evaluate_scores,
    metrics,
    roc,
    write_report,
)
from rarepred.linear import fit_logit, predict_proba
from rarepred.rng import generator
from rarepred.trees import fit_cart, predict_tree, variable_importance

SEED = 11


def main():
    # all-negative predictions on a 4% slice: accuracy flatters, recall is 0
    y = np.array([0] * 96 + [1] * 4)
    preds = np.zeros(100, dtype=int)
    m = metrics(confusion(y, preds))
    print(f"all-negative predictions on a 4% slice: accuracy {m.accuracy:.2f}, "
          f"sensitivity {m.sensitivity:.2f}, kappa {m.kappa:.2f}")

    # a slice with no positives at all: ratios go nan and get flagged
    m = metrics(confusion(np.zeros(50, dtype=int), np.zeros(50, dtype=int)))
    print(f"no positives anywhere: sensitivity {m.sensitivity}, kappa {m.kappa}, "
          f"flagged undefined: {', '.join(m.undefined)}")

    rng = generator(SEED)
    scores = np.round(rng.random(200), 2)  # two decimals force plenty of ties
    labels = (rng.random(200) < scores).astype(int)
    pos, neg = scores[labels == 1, None], scores[labels == 0]
    # the share of (positive, negative) pairs ordered correctly, ties counting one half
    a, b = auc(labels, scores), float(np.mean((pos > neg) + 0.5 * (pos == neg)))
    agree = abs(a - b) < 1e-12
    print(f"\ntrapezoid auc {a:.12f} == pair-count auc {b:.12f}: {agree}")
    if not agree:
        sys.exit("check failed: the trapezoid and pair-count auc disagree")
    curve = roc(labels, scores)
    print(f"roc curve has {curve.shape[0]} thresholds "
          f"(unique scores, descending)")

    ds = synth_generate(benchmark_spec("interaction", seed=SEED, n=8000))
    pair = stratified_split(ds, 0.8, "outcome", seed=SEED)
    yt = pair.test.label("outcome")
    logit = fit_logit(pair.train, "outcome")
    cart = fit_cart(pair.train, "outcome")
    evals = [
        evaluate_scores("logit", yt, predict_proba(logit, pair.test),
                        importance=variable_importance(logit)),
        evaluate_scores("cart", yt, predict_tree(cart, pair.test),
                        importance=variable_importance(cart)),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        write_report(tmp, evals)
        files = sorted(p.name for p in Path(tmp).iterdir())
    print(f"\nreport bundle: {', '.join(files)}")
    for ev in evals:
        print(f"  {ev.name}: auc {ev.auc_value:.3f}, "
              f"sensitivity {ev.point_metrics.sensitivity:.3f}")


if __name__ == "__main__":
    main()
