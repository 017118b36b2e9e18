"""Hyperparameter search that can be replayed bit for bit.

Cross-validation folds come from a seeded shuffle with per-class balance,
every fold's fit gets its own derived seed, and the tuning subset never
touches the refit. The payoff: a grid search over a single point with no
subsampling collapses to exactly the result of one cross_validate call
plus one refit, byte for byte.
"""

import sys

import numpy as np

from rarepred.benchmarks import benchmark_spec
from rarepred.dataset import stratified_split, synth_generate
from rarepred.rng import child_seed
from rarepred.serialize import model_to_text
from rarepred.tune import (
    cross_validate,
    get_model_spec,
    grid_search,
    kfold_partition,
)

SEED = 11


def main():
    ds = synth_generate(benchmark_spec("interaction", seed=SEED, n=8000))
    y = ds.label("outcome")

    plan = kfold_partition(ds.rows, 5, seed=SEED, stratify_labels=y)
    counts = np.bincount(plan.assignment)
    pos = [int(y[plan.assignment == f].sum()) for f in range(5)]
    print(f"5-fold plan over {ds.rows} rows: sizes {counts.tolist()}, "
          f"positives per fold {pos}")

    cv = cross_validate(ds, "outcome", "cart", params={"cp": 0.005}, k=5, seed=SEED)
    folds = [round(float(v), 3) for v in cv.fold_values]
    print(f"cart cp=0.005: fold auc {folds}, mean {cv.mean_value:.4f}")

    grid = {"cp": [0.001, 0.005, 0.02], "min_split_obs": [20, 100]}
    gs = grid_search(ds, "outcome", "cart", grid, k=5, seed=SEED,
                     subset_frac=0.5, repeats=2)
    print(f"\ngrid search over {len(gs.points)} points "
          "(half the rows, 2 repeats, pooled over 10 cells each):")
    for point, mean in zip(gs.points, gs.means):
        marker = " <- best" if point == gs.best_params else ""
        print(f"  {point}: {mean:.4f}{marker}")

    # the degenerate search is exactly one cross_validate plus one refit
    gs1 = grid_search(ds, "outcome", "cart", {"cp": [0.005]}, k=5, seed=SEED,
                      subset_frac=1.0, repeats=1)
    direct = cross_validate(ds, "outcome", "cart", params={"cp": 0.005}, k=5,
                            seed=child_seed(SEED, "repeat", 0))
    refit = get_model_spec("cart").fit(ds, "outcome", ds.feature_names,
                                       {"cp": 0.005}, child_seed(SEED, "refit"))
    same_cells = gs1.cell_values[0] == direct.fold_values.tolist()
    same_model = model_to_text(gs1.model) == model_to_text(refit)
    print(f"\ndegenerate grid == plain cross-validation: cells {same_cells}, "
          f"refit model identical {same_model}")
    if not (same_cells and same_model):
        sys.exit("check failed: the one-point grid differs from cross_validate plus a refit")


if __name__ == "__main__":
    main()
