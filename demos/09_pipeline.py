"""Drive the full batch pipeline twice and diff the evidence.

``rarepred all --config demos/demo.ini`` chains generate, split,
preprocess, tune, train, evaluate, detect, and report. Everything the run
decides is written down: manifest.txt carries artifact hashes, derived
seeds, library versions, the config echo, and the training-only scaler
statistics, while wall-clock timestamps live in a separate file so the
manifest stays reproducible. This script runs the pipeline into two fresh
directories and shows that every artifact hash comes out identical.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

from rarepred.cli import main as rarepred_main

CONFIG = str(Path(__file__).resolve().parent / "demo.ini")


def artifact_hashes(out_dir):
    hashes = {}
    for p in sorted(Path(out_dir).rglob("*")):
        if p.is_file() and p.name != "timestamps.txt":
            hashes[str(p.relative_to(out_dir))] = hashlib.sha256(
                p.read_bytes()
            ).hexdigest()
    return hashes


def main():
    with tempfile.TemporaryDirectory() as tmp:
        first = Path(tmp) / "first"
        second = Path(tmp) / "second"
        print("=== first run ===")
        code = rarepred_main(["all", "--config", CONFIG, "--out", str(first)])
        print(f"exit code {code}")
        if code != 0:
            sys.exit(f"check failed: the first run exited with {code}")

        print("\n=== second run (same config, fresh directory) ===")
        code = rarepred_main(["all", "--config", CONFIG, "--out", str(second)])
        if code != 0:
            sys.exit(f"check failed: the second run exited with {code}")

        a, b = artifact_hashes(first), artifact_hashes(second)
        same = a == b
        print(f"\n{len(a)} artifacts, byte-identical across runs: {same}")
        if not same:
            sys.exit("check failed: the two runs wrote different artifacts")

        manifest = (first / "manifest.txt").read_text()
        test_readers = []
        for line in manifest.splitlines():
            key, _, value = line.partition(" = ")
            if (key.startswith("artifact.") and key.endswith(".inputs")
                    and "test.csv" in value.split(",")):
                test_readers.append(key[len("artifact."):-len(".inputs")])
        print("artifacts that admit to reading the holdout:")
        for rel in sorted(test_readers):
            print(f"  {rel}")


if __name__ == "__main__":
    main()
