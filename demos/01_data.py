"""Generate benchmark data and carve a stratified holdout.

Three presets ship with the package: ``rare_linear`` (0.6% positives, a
linear signal buried in noise), ``interaction`` (the signal only exists in
feature products), and ``anomaly`` (positives are distribution shifts, not
a labeled pattern). This script builds one of each, shows how class
prevalence survives a stratified split, and round-trips the result through
the CSV + schema file pair the command-line pipeline uses.
"""

import sys
import tempfile
from pathlib import Path

from rarepred.benchmarks import BENCHMARKS, benchmark_spec
from rarepred.dataset import load_csv, load_schema, stratified_split, synth_generate
from rarepred.dataset import write_csv, write_schema

SEED = 11


def prevalence(ds, label="outcome"):
    y = ds.label(label)
    return y.sum() / y.size


def main():
    print("available presets:", ", ".join(sorted(BENCHMARKS)))
    for name in sorted(BENCHMARKS):
        ds = synth_generate(benchmark_spec(name, seed=SEED, n=5000))
        print(f"\n[{name}] {ds.rows} rows x {len(ds.features)} features, "
              f"positives {prevalence(ds):.3%}")
        print("  features:", ", ".join(f.name for f in ds.features[:6]),
              "..." if len(ds.features) > 6 else "")

        pair = stratified_split(ds, 0.8, "outcome", seed=SEED)
        print(f"  split 80/20 -> train {pair.train.rows} rows "
              f"({prevalence(pair.train):.3%} positive), "
              f"test {pair.test.rows} rows ({prevalence(pair.test):.3%} positive)")

    # the same Dataset survives a trip through the on-disk format
    ds = synth_generate(benchmark_spec("rare_linear", seed=SEED, n=2000))
    with tempfile.TemporaryDirectory() as tmp:
        write_schema(Path(tmp) / "schema.txt", ds)
        write_csv(Path(tmp) / "data.csv", ds)
        back = load_csv(Path(tmp) / "data.csv", load_schema(Path(tmp) / "schema.txt"))
        same = (back.values == ds.values).all() and (
            back.label("outcome") == ds.label("outcome")
        ).all()
    print(f"\ncsv + schema round trip exact: {bool(same)}")
    if not same:
        sys.exit("check failed: the csv + schema round trip changed the data")


if __name__ == "__main__":
    main()
