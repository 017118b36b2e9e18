"""Unsupervised detection: learn what normal looks like, flag the rest.

The autoencoder (11-9-4-4-11 by default) trains only on negative rows, so
it never sees a positive example. Positives reconstruct badly, and the
reconstruction error, the Euclidean distance between a row and its
reconstruction, becomes an anomaly score. A closed threshold band [lo, hi]
is then calibrated on training scores; the holdout stays untouched until
the final read.
"""

import numpy as np

from rarepred.anomaly import (
    DEFAULT_AUTOENCODER_FEATURES,
    calibrate_band,
    classify_band,
    score_dataset,
    train_autoencoder,
)
from rarepred.benchmarks import benchmark_spec
from rarepred.dataset import stratified_split, synth_generate
from rarepred.evaluate import auc, confusion, metrics
from rarepred.preprocess import apply_scaler, fit_scaler

SEED = 11


def main():
    ds = synth_generate(benchmark_spec("anomaly", seed=SEED))
    pair = stratified_split(ds, 0.8, "outcome", seed=SEED)

    # min-max scaling keeps every input in [0, 1], which the tanh/relu
    # stack needs to reconstruct well
    params = fit_scaler(pair.train, "minmax",
                        feature_names=list(DEFAULT_AUTOENCODER_FEATURES))
    train_s = apply_scaler(pair.train, params)
    test_s = apply_scaler(pair.test, params)

    ae = train_autoencoder(train_s, label="outcome", seed=SEED)
    print(f"trained on negatives only ({ae.n_train_rows} rows): "
          f"{ae.epochs} epochs, batch {ae.batch_size}, loss {ae.loss}")

    train_scores = score_dataset(ae, train_s)
    test_scores = score_dataset(ae, test_s)
    y = test_s.label("outcome")
    print(f"holdout auc {auc(y, test_scores):.3f}; mean score "
          f"{test_scores[y == 1].mean():.4f} for anomalies vs "
          f"{test_scores[y == 0].mean():.4f} for normals")

    band, value = calibrate_band(
        train_scores, train_s.label("outcome"), objective="youden"
    )
    print(f"\ncalibrated band [{band.lo:.4f}, {band.hi}] "
          f"(training youden {value:.3f})")
    m = metrics(confusion(y, classify_band(test_scores, band)))
    print(f"holdout: sensitivity {m.sensitivity:.3f}, "
          f"specificity {m.specificity:.3f}, kappa {m.kappa:.3f}")


if __name__ == "__main__":
    main()
