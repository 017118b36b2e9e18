"""The fork-share map, and the CSV and score writers that format their blocks through it."""

import csv
import os
import signal
import time

import numpy as np
import pytest

from conftest import assert_no_child_left, open_fds, report_cpus

from rarepred import dataset
from rarepred.anomaly import write_scores
from rarepred.benchmarks import benchmark_spec
from rarepred.cli import main
from rarepred.dataset import (
    _BLOCK_ROWS, Dataset, DatasetError, Feature, _csv_field, _float_cells, synth_generate,
    write_csv, write_schema,
)
from rarepred.shares import fork_map


def mapped(fn, n):
    items = []
    fork_map(fn, n, items.append)
    return items


def statuses_of(monkeypatch):
    """Wait statuses of the helpers the test reaps, in reaping order."""
    statuses, waitpid = [], os.waitpid

    def recorded_waitpid(pid, options):
        reaped = waitpid(pid, options)
        statuses.append(reaped[1])
        return reaped

    monkeypatch.setattr(os, "waitpid", recorded_waitpid)
    return statuses


class TestForkMap:
    @pytest.mark.parametrize("cpus,n", [(1, 5), (2, 0), (2, 1), (2, 5), (3, 7), (64, 2), (64, 3)])
    def test_item_t_made_by_share_t_mod_p(self, monkeypatch, forks, cpus, n):
        report_cpus(monkeypatch, cpus)
        caller = os.getpid()
        items = mapped(lambda t: (t, os.getpid()), n)
        p = max(min(cpus, n), 1)
        assert len(forks) == p - 1
        assert [t for t, _ in items] == list(range(n))
        assert [pid for _, pid in items] == [([caller] + forks)[t % p] for t in range(n)]
        assert_no_child_left()

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_serial_without_fork_or_affinity(self, monkeypatch, forks, missing):
        report_cpus(monkeypatch, 2)
        monkeypatch.delattr(os, missing)
        assert mapped(lambda t: (t, os.getpid()), 4) == [(t, os.getpid()) for t in range(4)]
        assert forks == []

    def test_map_inside_a_helper_runs_serially(self, monkeypatch, forks):
        report_cpus(monkeypatch, 2)
        caller = os.getpid()

        def nested(t):
            return os.getpid(), mapped(lambda u: os.getpid(), 3)

        items = mapped(nested, 4)
        helper = forks[0]
        assert [pid for pid, _ in items] == [caller, helper, caller, helper]
        for pid, inner in items[1::2]:
            assert inner == [helper] * 3  # no grandchild
        assert_no_child_left()

    def test_items_stream_before_the_share_is_done(self, monkeypatch, forks):
        # the helper's second item never comes: the caller must still get its first
        report_cpus(monkeypatch, 2)
        caller, seen = os.getpid(), []

        def fn(t):
            if os.getpid() != caller and t == 3:
                time.sleep(30)
                os._exit(7)
            return t

        def take(item):
            seen.append(item)
            if item == 2:
                raise DatasetError("seen enough")

        with pytest.raises(DatasetError, match="seen enough"):
            fork_map(fn, 4, take)
        assert seen == [0, 1, 2]
        assert_no_child_left()

    def test_helper_killed_mid_item_raises(self, monkeypatch, forks, tmp_path):
        # the helper is killed while its item is larger than what the pipe holds
        report_cpus(monkeypatch, 2)
        made = tmp_path / "made"

        def fn(t):
            if t == 1:
                made.touch()
                return b"x" * (4 << 20)
            return t

        def take(item):
            if item == 0:
                while not made.exists():
                    time.sleep(0.01)
                time.sleep(0.2)  # the helper is now blocked in the middle of its write
                os.kill(forks[0], signal.SIGKILL)

        with pytest.raises(RuntimeError, match=f"wait status {signal.SIGKILL}$"):
            fork_map(fn, 2, take)
        assert_no_child_left()

    @pytest.mark.parametrize("where", ["helper", "helper exit", "take"])
    def test_failure_raises_and_leaves_nothing(self, monkeypatch, forks, where):
        caller = os.getpid()

        def fn(t):
            in_helper = os.getpid() != caller
            if in_helper and t == 1 and where != "take":
                if where == "helper exit":
                    os._exit(5)
                raise DatasetError("item 1 failed in the helper")
            if in_helper and t > 2:
                time.sleep(60)  # the caller has failed: a helper still at work is killed
            return t

        def take(item):
            if where == "take" and item == 1:
                raise OSError("disk full")

        report_cpus(monkeypatch, 3)
        statuses = statuses_of(monkeypatch)
        fds = open_fds()
        want = {"helper": "item 1 failed", "helper exit": "wait status 1280", "take": "disk full"}
        with pytest.raises((DatasetError, RuntimeError, OSError), match=want[where]):
            fork_map(fn, 9, take)
        assert len(forks) == 2
        assert_no_child_left()
        assert open_fds() == fds
        assert signal.SIGKILL in [os.WTERMSIG(s) for s in statuses if os.WIFSIGNALED(s)]


# The serial block writer that _write_blocks replaced, and the two writers that
# called it, kept verbatim (only renamed) as the reference for the forked ones.
def write_blocks_serial(fh, n: int, block_cells) -> None:
    """Write rows ``[0, n)`` a block at a time; ``block_cells(lo, hi)`` gives
    the block's cells as one iterable of strings per column."""
    for lo in range(0, n, _BLOCK_ROWS):
        columns = block_cells(lo, min(lo + _BLOCK_ROWS, n))
        fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


def write_csv_serial(path: str, ds: Dataset) -> None:
    """Write a Dataset as UTF-8 CSV (categorical cells as level strings).

    Integral values below 1e15 in magnitude are written as integers (so
    ``-0.0`` as ``0``), every other value as its ``repr``.
    """
    header = list(ds.feature_names) + list(ds.labels)
    alone = len(header) == 1
    quoted = [tuple(_csv_field(level, alone) for level in feat.levels) for feat in ds.features]

    def block_cells(lo: int, hi: int) -> list:
        cells = []
        for feat, levels, col in zip(ds.features, quoted, ds.values[lo:hi].T):
            if feat.kind == "categorical":
                cells.append(map(levels.__getitem__, col.astype(np.int64).tolist()))
            else:
                cells.append(_float_cells(col))
        cells += [map(str, vec[lo:hi].tolist()) for vec in ds.labels.values()]
        return cells or [[""] * (hi - lo)]  # a row of no fields is an empty line

    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        write_blocks_serial(fh, ds.rows, block_cells)


def write_scores_serial(
    path: str, scores: np.ndarray, labels: np.ndarray | None = None
) -> None:
    """CSV of row_id,score,label in row order (label blank when unknown)."""
    s = np.asarray(scores, dtype=np.float64)
    y = None if labels is None else np.asarray(labels)
    if y is not None and len(y) != len(s):
        raise DatasetError("labels and scores differ in length")

    def block_cells(lo: int, hi: int) -> list:
        tags = [""] * (hi - lo) if y is None else map(str, y[lo:hi].astype(np.int64).tolist())
        return [map(str, range(lo, hi)), map(repr, s[lo:hi].tolist()), tags]

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("row_id,score,label\n")
        write_blocks_serial(fh, len(s), block_cells)


LEVELS = ("plain", "with, comma", 'say "hi"', "two\nlines", " padded ", "", "ünï")


def mixed_dataset(rows, seed=3, names=None):
    """Continuous, categorical and binary columns with quoted, -0.0 and extreme cells."""
    rng = np.random.default_rng(seed)
    cont = rng.normal(size=rows) * 10.0 ** rng.integers(-6, 18, size=rows)
    special = np.array([-0.0, 0.0, 1e15, -1e15, 2.0, 1e15 - 1, 5e-324, -3.0])
    pick = rng.random(rows) < 0.3
    cont[pick] = rng.choice(special, size=int(pick.sum()))
    cat = rng.integers(0, len(LEVELS), size=rows)
    binary = rng.integers(0, 2, size=rows)
    ints = np.round(rng.normal(size=rows) * 50.0)
    names = names or ("x", 'q"uoted, name', "b", "n")
    features = (
        Feature(names[0], "continuous"), Feature(names[1], "categorical", LEVELS),
        Feature(names[2], "binary"), Feature(names[3], "continuous"),
    )
    values = np.column_stack([cont, cat, binary, ints])
    return Dataset(features, values, {"y": rng.integers(0, 2, size=rows)})


class TestWriterOracle:
    ROWS = 2 * _BLOCK_ROWS + 17  # three blocks, the last one short

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    def test_write_csv_matches_serial(self, tmp_path, monkeypatch, forks, cpus):
        ds = mixed_dataset(self.ROWS)
        report_cpus(monkeypatch, cpus)
        write_csv(str(tmp_path / "new.csv"), ds)
        assert len(forks) == min(cpus, 3) - 1
        write_csv_serial(str(tmp_path / "old.csv"), ds)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert b'"with, comma"' in new and b'"say ""hi"""' in new
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    @pytest.mark.parametrize("labelled", [True, False])
    def test_write_scores_matches_serial(self, tmp_path, monkeypatch, forks, cpus, labelled):
        rng = np.random.default_rng(cpus)
        scores = rng.normal(size=self.ROWS) * 10.0 ** rng.integers(-5, 17, size=self.ROWS)
        scores[::97] = -0.0
        labels = rng.integers(0, 2, size=self.ROWS) if labelled else None
        report_cpus(monkeypatch, cpus)
        write_scores(str(tmp_path / "new.csv"), scores, labels)
        assert len(forks) == min(cpus, 3) - 1
        write_scores_serial(str(tmp_path / "old.csv"), scores, labels)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert_no_child_left()

    @pytest.mark.parametrize("rows", [0, 1, _BLOCK_ROWS])
    def test_one_block_never_forks(self, tmp_path, monkeypatch, forks, rows):
        report_cpus(monkeypatch, 64)
        ds = mixed_dataset(rows)
        write_csv(str(tmp_path / "new.csv"), ds)
        write_scores(str(tmp_path / "s.csv"), np.arange(rows, dtype=np.float64))
        assert forks == []
        write_csv_serial(str(tmp_path / "old.csv"), ds)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("names", [("", "a", "b", "c"), ("x,y", "a\nb", '"', " "), ("",)])
    def test_header_quoting_matches_csv_writer(self, tmp_path, names):
        if len(names) == 1:  # a lone empty field is quoted so the row is not blank
            ds = Dataset((Feature("", "continuous"),), np.array([[0.0], [-0.0], [1.5]]))
        else:
            ds = mixed_dataset(5, names=names)
        write_csv(str(tmp_path / "new.csv"), ds)
        write_csv_serial(str(tmp_path / "old.csv"), ds)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


CRASH_CFG = """
[run]
seed = 4
out_dir = {out}
label = outcome

[data]
csv = {csv}
schema = {schema}

[split]
fraction = 0.8

[preprocess]
scaler = standardize

[model:logit]
"""


class TestCrashedWriter:
    """A helper that fails while ``split`` formats train.csv from a ``[data] csv`` source
    leaves no artifact that is read."""

    @pytest.mark.parametrize("how", ["raise", "exit"])
    def test_split_fails_and_preprocess_refuses(self, tmp_path, monkeypatch, forks, capsys, how):
        out = tmp_path / "out"
        data, schema = tmp_path / "data.csv", tmp_path / "schema.txt"
        ds = synth_generate(benchmark_spec("interaction", n=11000, seed=4))
        write_csv(str(data), ds)
        write_schema(str(schema), ds)
        cfg = tmp_path / "run.ini"
        cfg.write_text(CRASH_CFG.format(out=out, csv=data, schema=schema))
        report_cpus(monkeypatch, 2)
        caller, float_cells = os.getpid(), dataset._float_cells

        def failing_float_cells(col):
            if os.getpid() != caller:
                if how == "exit":
                    os._exit(3)
                raise DatasetError("block formatter failed")
            return float_cells(col)

        monkeypatch.setattr(dataset, "_float_cells", failing_float_cells)
        fds, made = open_fds(), len(forks)
        assert main(["split", "--config", str(cfg)]) != 0
        assert len(forks) == made + 2  # one parses data.csv's second range, one formats train.csv
        assert_no_child_left()
        assert open_fds() == fds
        want = "block formatter failed" if how == "raise" else "wait status 768"
        assert want in capsys.readouterr().err
        train = out / "train.csv"
        assert 0 < train.stat().st_size  # the header and the caller's first block
        assert main(["preprocess", "--config", str(cfg)]) == 1
        assert "artifact train.csv is not in manifest.txt" in capsys.readouterr().err
