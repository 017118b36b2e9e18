"""Fit scalers on the training split only, then look for leakage.

Scaling statistics belong to the training data: the holdout must be
transformed with the training split's numbers, never its own. The script
fits each method, shows the holdout mean drifting away from zero (as it
should), and prints the per-class summary table used to eyeball which
features carry signal.
"""

import sys

from rarepred.benchmarks import benchmark_spec
from rarepred.dataset import stratified_split, synth_generate
from rarepred.preprocess import (
    SCALER_METHODS,
    apply_scaler,
    conditional_summary,
    fit_scaler,
)
from rarepred.serialize import model_from_text, model_to_text

SEED = 11


def main():
    ds = synth_generate(benchmark_spec("interaction", seed=SEED, n=20_000))
    pair = stratified_split(ds, 0.8, "outcome", seed=SEED)

    for method in SCALER_METHODS:
        params = fit_scaler(pair.train, method)
        train_s = apply_scaler(pair.train, params)
        test_s = apply_scaler(pair.test, params)
        col = params.feature_names[0]
        print(f"[{method}] {col!r}: train mean {train_s.column(col).mean():+.4f}, "
              f"holdout mean {test_s.column(col).mean():+.4f} "
              "(holdout uses training statistics, so it is not exactly centered)")

    # a fitted scaler saves as a model file (kind "scaler") so a pipeline can reload it
    params = fit_scaler(pair.train, "standardize")
    text = model_to_text(params)
    exact = model_to_text(model_from_text(text)) == text
    print(f"\nscaler file round trip exact: {exact}")
    if not exact:
        sys.exit("check failed: the scaler file does not round-trip")

    print("\nper-class feature summary (first 3 features):")
    rows = conditional_summary(ds, "outcome")
    header = ("feature", "class", "mean", "sd", "d50")
    print("  " + "  ".join(f"{h:>12}" for h in header))
    for rec in rows[:6]:
        print("  " + "  ".join(
            f"{rec[h]:>12.4f}" if isinstance(rec[h], float) else f"{str(rec[h]):>12}"
            for h in header
        ))


if __name__ == "__main__":
    main()
