"""Dataset container, CSV round-trips, synthetic generation, splitting."""

import csv
import io
import math
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import assert_no_child_left, invert_scaler, report_cpus
from rarepred import dataset
from rarepred.benchmarks import BENCHMARKS, benchmark_spec
from rarepred.dataset import (
    _BLOCK_ROWS,
    Dataset,
    DatasetError,
    Feature,
    MarginalTarget,
    Signal,
    SplitPair,
    SynthSpec,
    gather_csv,
    load_csv,
    load_schema,
    reads_back,
    stratified_split,
    synth_generate,
    write_csv,
    write_schema,
    write_table,
)
from rarepred.preprocess import apply_scaler, fit_scaler
from rarepred.rng import generator


def tiny_dataset():
    features = (
        Feature("x", "continuous"),
        Feature("color", "categorical", ("red", "green", "blue")),
        Feature("flag", "binary"),
    )
    values = np.array(
        [
            [0.5, 0, 1],
            [1.5, 2, 0],
            [-2.25, 1, 1],
            [3.0, 0, 0],
        ],
        dtype=np.float64,
    )
    labels = {"outcome": np.array([1, 0, 0, 1])}
    return Dataset(features=features, values=values, labels=labels)


class TestDataset:
    def test_arrays_frozen(self):
        ds = tiny_dataset()
        with pytest.raises(ValueError):
            ds.values[0, 0] = 9.0
        with pytest.raises(ValueError):
            ds.labels["outcome"][0] = 0

    def test_shape_validation(self):
        with pytest.raises(DatasetError):
            Dataset(
                features=(Feature("x", "continuous"),),
                values=np.zeros((3, 2)),
            )

    def test_label_validation(self):
        with pytest.raises(DatasetError):
            Dataset(
                features=(Feature("x", "continuous"),),
                values=np.zeros((2, 1)),
                labels={"y": np.array([0, 2])},
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(DatasetError):
            Dataset(
                features=(Feature("x", "continuous"), Feature("x", "binary")),
                values=np.zeros((1, 2)),
            )

    def test_nonfinite_rejected(self):
        with pytest.raises(DatasetError):
            Dataset(
                features=(Feature("x", "continuous"),),
                values=np.array([[np.nan]]),
            )

    def test_subset_rows(self):
        ds = tiny_dataset()
        sub = ds.subset_rows(np.array([2, 0]))
        assert sub.rows == 2
        assert sub.values[0, 0] == -2.25
        assert list(sub.labels["outcome"]) == [0, 1]

    def test_columns(self):
        ds = tiny_dataset()
        names, X = ds.columns(["flag", "x"])
        assert names == ("flag", "x")
        assert X.tolist() == ds.values[:, [2, 0]].tolist()
        names, X = ds.columns()
        assert names == ds.feature_names and X.tolist() == ds.values.tolist()
        with pytest.raises(DatasetError):
            ds.columns(["nope"])

    def test_derived_datasets_stay_frozen_and_leave_the_source_alone(self):
        ds = tiny_dataset()
        values, outcome = ds.values.copy(), ds.labels["outcome"].copy()
        params = fit_scaler(ds, "standardize", ["x"])
        derived = [
            ds.subset_rows(np.array([3, 0, 0])),
            apply_scaler(ds, params),
            invert_scaler(apply_scaler(ds, params), params),
        ]
        split = stratified_split(ds, 0.5, "outcome", seed=1)
        derived += [split.train, split.test]
        for sub in derived:
            assert not sub.values.flags.writeable
            assert not sub.labels["outcome"].flags.writeable
            with pytest.raises(ValueError):
                sub.values[0, 0] = 9.0
            with pytest.raises(ValueError):
                sub.labels["outcome"][0] = 0
        assert ds.values.tobytes() == values.tobytes()
        assert ds.labels["outcome"].tobytes() == outcome.tobytes()
        assert not ds.values.flags.writeable and not ds.labels["outcome"].flags.writeable


class TestSchemaAndCsv:
    def test_schema_round_trip(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "schema.txt"
        write_schema(str(path), ds)
        schema = load_schema(str(path))
        assert schema == {
            "x": "continuous",
            "color": "categorical",
            "flag": "binary",
            "outcome": "label",
        }

    def test_schema_rejects_bad_kind(self, tmp_path):
        path = tmp_path / "schema.txt"
        path.write_text("x = numeric\n")
        with pytest.raises(DatasetError, match="unknown kind"):
            load_schema(str(path))

    def test_schema_comments_and_blanks(self, tmp_path):
        path = tmp_path / "schema.txt"
        path.write_text("# header comment\n\nx = continuous  # inline\n")
        assert load_schema(str(path)) == {"x": "continuous"}

    def test_one_hot_names_round_trip(self, tmp_path):
        # indicator columns named "feature=level"; a schema line splits at its last "="
        names = ("x", "color=red", "color=green", "color=blue", "flag")
        ds = Dataset(
            features=tuple(Feature(n, "binary" if "=" in n else "continuous") for n in names),
            values=np.array([[0.5, 1, 0, 0, 1], [1.5, 0, 0, 1, 0], [-2.25, 0, 1, 0, 1]], float),
            labels={"outcome": np.array([1, 0, 1])},
        )
        csv_path, schema_path = tmp_path / "data.csv", tmp_path / "schema.txt"
        write_csv(str(csv_path), ds)
        write_schema(str(schema_path), ds)
        schema = load_schema(str(schema_path))
        assert list(schema) == list(ds.feature_names) + ["outcome"]
        back = load_csv(str(csv_path), schema)
        assert back.feature_names == ds.feature_names
        assert [f.kind for f in back.features] == [f.kind for f in ds.features]
        np.testing.assert_array_equal(back.values, ds.values)
        np.testing.assert_array_equal(back.labels["outcome"], ds.labels["outcome"])

    @pytest.mark.parametrize("name", ["a#b", "a\nb", "a\rb", "\ufeffa"])
    def test_schema_refuses_unreadable_name(self, tmp_path, name):
        ds = Dataset(features=(Feature(name, "continuous"),), values=np.zeros((2, 1)), labels={})
        path = tmp_path / "schema.txt"
        with pytest.raises(DatasetError, match=re.escape(repr(name))):
            write_schema(str(path), ds)
        assert not path.exists()

    def test_schema_refuses_unreadable_label(self, tmp_path):
        ds = Dataset(features=(Feature("x", "continuous"),), values=np.zeros((2, 1)),
                     labels={"y#1": np.array([0, 1])})
        with pytest.raises(DatasetError, match="y#1"):
            write_schema(str(tmp_path / "schema.txt"), ds)

    def test_table_quotes_text_cells(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = [("size, log", 1.0, 2), ('say "hi"', -0.5, 3), ("a\nb", 0.25, 4)]
        write_table(str(path), ["feature", "importance", "rank"], rows)
        with open(path, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed == [["feature", "importance", "rank"]] + [
            [text, repr(value), str(rank)] for text, value, rank in rows
        ]
        # text needing no quotes is written bare
        assert path.read_text().splitlines()[0] == "feature,importance,rank"

    def test_csv_round_trip(self, tmp_path):
        # level indices are first-seen order, so compare decoded strings
        ds = tiny_dataset()
        csv_path = tmp_path / "data.csv"
        schema_path = tmp_path / "schema.txt"
        write_csv(str(csv_path), ds)
        write_schema(str(schema_path), ds)
        loaded = load_csv(str(csv_path), load_schema(str(schema_path)))
        np.testing.assert_array_equal(loaded.values[:, 0], ds.values[:, 0])
        np.testing.assert_array_equal(loaded.values[:, 2], ds.values[:, 2])
        decoded = [loaded.features[1].levels[int(i)] for i in loaded.values[:, 1]]
        original = [ds.features[1].levels[int(i)] for i in ds.values[:, 1]]
        assert decoded == original
        np.testing.assert_array_equal(loaded.labels["outcome"], ds.labels["outcome"])
        # a second write/load cycle is index-stable
        write_csv(str(csv_path), loaded)
        again = load_csv(str(csv_path), load_schema(str(schema_path)))
        np.testing.assert_array_equal(again.values, loaded.values)

    def test_missing_error_policy(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1.0,0\n,1\n")
        schema = {"x": "continuous", "y": "label"}
        with pytest.raises(DatasetError, match="row 2"):
            load_csv(str(path), schema, missing_policy="error")

    def test_mean_imputation(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1.0,0\n,1\n3.0,0\n")
        schema = {"x": "continuous", "y": "label"}
        ds = load_csv(str(path), schema, missing_policy="impute")
        # [1, gap, 3] fills with the observed mean 2
        np.testing.assert_allclose(ds.values[:, 0], [1.0, 2.0, 3.0])

    def test_mode_imputation_tie_to_lowest_index(self, tmp_path):
        path = tmp_path / "data.csv"
        # first-seen order: b=0, a=1; tie between b and a resolves to index 0 (b)
        path.write_text("c,y\nb,0\na,0\n,1\nb,0\na,0\n")
        schema = {"c": "categorical", "y": "label"}
        ds = load_csv(str(path), schema, missing_policy="impute")
        assert ds.values[2, 0] == 0.0
        assert ds.features[0].levels == ("b", "a")

    def test_missing_label_always_error(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1.0,\n")
        schema = {"x": "continuous", "y": "label"}
        with pytest.raises(DatasetError, match="missing label"):
            load_csv(str(path), schema, missing_policy="impute")

    def test_header_schema_mismatch(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,z\n1.0,2.0\n")
        schema = {"x": "continuous", "y": "label"}
        with pytest.raises(DatasetError, match="header"):
            load_csv(str(path), schema)

    def test_binary_cells_validated(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("b,y\n2,0\n")
        schema = {"b": "binary", "y": "label"}
        with pytest.raises(DatasetError, match="binary"):
            load_csv(str(path), schema)

    @pytest.mark.parametrize("policy", ["error", "impute"])
    @pytest.mark.parametrize("cell", ["nan", " inf ", "-Infinity", "1e999"])
    def test_nonfinite_cell_names_row_and_column(self, tmp_path, cell, policy):
        path = tmp_path / "data.csv"
        path.write_text(f"y,x\n0,1.5\n1,{cell}\n0,2.5\n")
        schema = {"x": "continuous", "y": "label"}
        want = rf"row 2, column 'x': non-finite cell '{cell.strip()}'"
        with pytest.raises(DatasetError, match=want):
            load_csv(str(path), schema, missing_policy=policy)

    def test_repeated_header_column_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y,y\n1.0,0,1\n")
        with pytest.raises(DatasetError, match="column 'y' appears twice"):
            load_csv(str(path), {"x": "continuous", "y": "label"})

    @pytest.mark.parametrize(
        "body, want",
        [
            (b"x,y\n1,0\n\xff,1\n", r"line 3: not UTF-8 \(invalid start byte\)"),
            (b"x,y\n" + b"1,0\n" * 20_000 + b"2,\xc3\n", r"line 20002: not UTF-8"),
            (b'x,y\n1,0\n"' + b"a" * 131_073 + b'",1\n', r"line 3: field larger than field limit"),
        ],
    )
    def test_undecodable_or_untokenizable_file_names_the_line(self, tmp_path, body, want):
        path = tmp_path / "data.csv"
        path.write_bytes(body)
        with pytest.raises(DatasetError, match=r"data\.csv, " + want):
            load_csv(str(path), {"x": "continuous", "y": "label"})


# ---------------------------------------------------------------------------
# CSV oracles: the per-cell loader and the row-wise writer that load_csv and
# write_csv replaced, kept verbatim (only renamed) to check the block-wise code


def _parse_number_oracle(cell: str, column: str, row: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise DatasetError(
            f"row {row}, column {column!r}: non-numeric cell {cell!r}"
        ) from None


def load_csv_oracle(path: str, schema: dict[str, str], missing_policy: str = "error") -> Dataset:
    """Load a comma-separated UTF-8 file against a column-kind schema.

    The header must contain exactly the schema's columns (file order is
    preserved). Empty cells are missing; under ``impute`` continuous gaps
    take the column mean and categorical/binary gaps the column mode (mode
    ties break to the lowest level index). Missing label cells are always an
    error. Data rows are 1-indexed in error messages.
    """
    if missing_policy not in ("error", "impute"):
        raise DatasetError(f"unknown missing policy {missing_policy!r}")
    try:
        fh = open(path, encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if set(header) != set(schema):
            missing = sorted(set(schema) - set(header))
            extra = sorted(set(header) - set(schema))
            raise DatasetError(
                f"{path}: header does not match schema"
                f" (missing {missing or 'nothing'}, unexpected {extra or 'nothing'})"
            )
        rows = [row for row in reader if row]

    n = len(rows)
    feature_cols = [name for name in header if schema[name] != "label"]
    label_cols = [name for name in header if schema[name] == "label"]

    values = np.zeros((n, len(feature_cols)), dtype=np.float64)
    missing_mask = np.zeros((n, len(feature_cols)), dtype=bool)
    level_maps: dict[str, dict[str, int]] = {name: {} for name in feature_cols}
    col_of = {name: j for j, name in enumerate(feature_cols)}
    labels = {name: np.zeros(n, dtype=np.int64) for name in label_cols}

    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DatasetError(f"row {i + 1}: expected {len(header)} cells, got {len(row)}")
        for name, cell in zip(header, row):
            cell = cell.strip()
            kind = schema[name]
            if kind == "label":
                if cell == "":
                    raise DatasetError(f"row {i + 1}, column {name!r}: missing label")
                value = _parse_number_oracle(cell, name, i + 1)
                if value not in (0.0, 1.0):
                    raise DatasetError(f"row {i + 1}, column {name!r}: label must be 0 or 1")
                labels[name][i] = int(value)
                continue
            j = col_of[name]
            if cell == "":
                if missing_policy == "error":
                    raise DatasetError(f"row {i + 1}, column {name!r}: missing value")
                missing_mask[i, j] = True
            elif kind == "categorical":
                levels = level_maps[name]
                if cell not in levels:
                    levels[cell] = len(levels)
                values[i, j] = levels[cell]
            else:
                value = _parse_number_oracle(cell, name, i + 1)
                if kind == "binary" and value not in (0.0, 1.0):
                    raise DatasetError(f"row {i + 1}, column {name!r}: binary cell must be 0 or 1")
                values[i, j] = value

    for name in feature_cols:
        j = col_of[name]
        gaps = missing_mask[:, j]
        if not gaps.any():
            continue
        present = values[~gaps, j]
        if present.size == 0:
            raise DatasetError(f"column {name!r}: all values missing, nothing to impute from")
        if schema[name] == "continuous":
            fill = float(present.mean())
        else:
            # mode over observed cells; ties break to the lowest level index
            idx, counts = np.unique(present.astype(np.int64), return_counts=True)
            fill = float(idx[np.argmax(counts)])
        values[gaps, j] = fill

    features = []
    for name in feature_cols:
        kind = schema[name]
        if kind == "categorical":
            ordered = tuple(sorted(level_maps[name], key=level_maps[name].__getitem__))
            if not ordered:
                raise DatasetError(f"column {name!r}: categorical column has no observed levels")
            features.append(Feature(name, kind, ordered))
        else:
            features.append(Feature(name, kind))
    return Dataset(features=tuple(features), values=values, labels=labels)


def _format_cell_oracle(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def write_csv_oracle(path: str, ds: Dataset) -> None:
    """Write a Dataset as UTF-8 CSV (categorical cells as level strings)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(ds.feature_names) + list(ds.labels))
        label_arrays = list(ds.labels.values())
        for i in range(ds.rows):
            row = []
            for j, feat in enumerate(ds.features):
                cell = ds.values[i, j]
                if feat.kind == "categorical":
                    row.append(feat.levels[int(cell)])
                else:
                    row.append(_format_cell_oracle(float(cell)))
            row.extend(str(int(vec[i])) for vec in label_arrays)
            writer.writerow(row)


BLOCK = _BLOCK_ROWS
ROW_COUNTS = (0, 1, 3, BLOCK - 1, BLOCK, BLOCK + 1)
KINDS = ("continuous", "categorical", "binary", "label")
NUMBERS = (
    "0", "1", "-3", "2.5", " 2.5", "7.25 ", "\t-0.125\t", "1_000", "+4", ".5", "5.",
    "1E3", "-0.0", "0.0", "1e15", "-1e15", "999999999999999.0", "-999999999999999",
    "1e16", "123456789012345678", "0.1", "3.141592653589793", "1e-300", "5e-324",
)
BITS = ("0", "1", "1.0", " 0 ", "-0.0", "0e0", "1e0", "+1")
LEVELS = ("a", "b,c", 'q"uote', '"', "new\nline", " padded ", "a ", "L0", "x y", ",")


def _column_cells(kind, n, rng, gap_rate):
    """n valid cells of one column; features get a gap ('' or blanks) at gap_rate."""
    if kind == "continuous":
        pool = NUMBERS
    elif kind == "categorical":
        pool = LEVELS[: int(rng.integers(1, len(LEVELS) + 1))]
    else:
        pool = BITS
    cells = [pool[k] for k in rng.integers(0, len(pool), size=n).tolist()]
    if kind == "continuous":  # plus plain random floats
        for k in np.flatnonzero(rng.random(n) < 0.5).tolist():
            cells[k] = repr(float(rng.normal() * 10.0 ** rng.integers(-3, 6)))
    if kind != "label":
        for k in np.flatnonzero(rng.random(n) < gap_rate).tolist():
            cells[k] = "" if rng.random() < 0.5 else "  "
    return cells


def _write_rows(path, header, rows, rng, blank_lines):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
            if blank_lines and rng.random() < 0.02:
                fh.write("\n")


def _outcome(load, path, schema, policy):
    try:
        return load(path, schema, policy)
    except DatasetError as exc:
        return f"DatasetError: {exc}"


def assert_same_load(got, want):
    """Same error message, or Dataset fields equal bit for bit."""
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got.features == want.features
    assert got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()
    assert list(got.labels) == list(want.labels)
    for key, vec in want.labels.items():
        assert got.labels[key].dtype == vec.dtype
        assert got.labels[key].tobytes() == vec.tobytes()


def assert_same_write(tmp_path, ds):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_csv(str(new), ds)
    write_csv_oracle(str(old), ds)
    assert new.read_bytes() == old.read_bytes()


layouts = st.lists(st.sampled_from(KINDS), min_size=1, max_size=5)
MATCH_ARGS = dict(
    kinds=layouts,
    n=st.sampled_from(ROW_COUNTS),
    seed=st.integers(0, 2 ** 32 - 1),
    gap_rate=st.sampled_from([0.0, 0.0005, 0.2]),
    policy=st.sampled_from(["error", "impute"]),
    blank_lines=st.booleans(),
)
CORRUPT_ARGS = dict(
    kinds=layouts,
    n=st.sampled_from(ROW_COUNTS[1:]),
    seed=st.integers(0, 2 ** 32 - 1),
    policy=st.sampled_from(["error", "impute"]),
    edits=st.lists(
        st.tuples(
            st.sampled_from(["drop", "append", "blank", "x", "2", "nan"]),
            st.integers(0, 2 ** 20),
            st.integers(0, 16),
        ),
        min_size=1,
        max_size=4,
    ),
)
# (_RANGE_BYTES, usable CPUs): ranges of a few rows each, parsed in the caller or over 2 CPUs
SMALL_RANGES = st.sampled_from([(64, 1), (64, 2), (4096, 1), (4096, 2)])


def check_matches_per_cell_code(tmp, kinds, n, seed, gap_rate, policy, blank_lines):
    rng = np.random.Generator(np.random.PCG64(seed))
    header = [f"c{j}" for j in range(len(kinds))]
    columns = [_column_cells(kind, n, rng, gap_rate) for kind in kinds]
    path = str(tmp / "in.csv")
    _write_rows(path, header, zip(*columns), rng, blank_lines)
    schema = dict(zip(header, kinds))
    got = _outcome(load_csv, path, schema, policy)
    want = _outcome(load_csv_oracle, path, schema, policy)
    assert_same_load(got, want)
    if not isinstance(want, str):
        assert_same_write(tmp, want)


def check_corrupted_file_same_error(tmp, kinds, n, seed, policy, edits):
    rng = np.random.Generator(np.random.PCG64(seed))
    header = [f"c{j}" for j in range(len(kinds))]
    rows = [list(row) for row in zip(*(_column_cells(k, n, rng, 0.0) for k in kinds))]
    zero_one = [j for j, kind in enumerate(kinds) if kind in ("label", "binary")]
    for edit, r, c in edits:
        row = rows[r % n]
        if edit in ("x", "2", "nan"):
            j = zero_one[c % len(zero_one)] if zero_one else len(row)
            if j < len(row):  # the row may have lost that cell already
                row[j] = edit
        elif edit == "drop" and row:
            del row[c % len(row)]
        elif edit == "append":
            row.append("1")
        elif row:
            row[c % len(row)] = ""
    path = str(tmp / "in.csv")
    _write_rows(path, header, rows, rng, False)
    schema = dict(zip(header, kinds))
    assert_same_load(
        _outcome(load_csv, path, schema, policy),
        _outcome(load_csv_oracle, path, schema, policy),
    )


class TestCsvOracle:
    """load_csv and write_csv against the per-cell code they replaced."""

    @settings(max_examples=60, deadline=None)
    @given(**MATCH_ARGS)
    def test_matches_per_cell_code(self, tmp_path_factory, **case):
        check_matches_per_cell_code(tmp_path_factory.mktemp("csv"), **case)

    @settings(max_examples=80, deadline=None)
    @given(**CORRUPT_ARGS)
    def test_corrupted_file_same_error(self, tmp_path_factory, **case):
        check_corrupted_file_same_error(tmp_path_factory.mktemp("csv"), **case)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(ranges=SMALL_RANGES, **MATCH_ARGS)
    def test_matches_per_cell_code_in_small_ranges(self, tmp_path_factory, ranges, **case):
        # ranges of a few rows: numeric ones by numpy's reader, the rest by the block parse
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataset, "_RANGE_BYTES", ranges[0])
            report_cpus(patch, ranges[1])
            check_matches_per_cell_code(tmp_path_factory.mktemp("csv"), **case)
        assert_no_child_left()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(ranges=SMALL_RANGES, **CORRUPT_ARGS)
    def test_corrupted_file_same_error_in_small_ranges(self, tmp_path_factory, ranges, **case):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataset, "_RANGE_BYTES", ranges[0])
            report_cpus(patch, ranges[1])
            check_corrupted_file_same_error(tmp_path_factory.mktemp("csv"), **case)
        assert_no_child_left()

    @pytest.mark.parametrize(
        "body, want",
        [
            ("0,1.5,0\n1,2.5,x\n0,,1\n", "row 2, column 'b': non-numeric cell 'x'"),
            ("0,1.5,0\n1,2.5,2\n1,1\n", "row 2, column 'b': binary cell must be 0 or 1"),
            ("0,1.5,0\n1,2.5,1\n2,x\n", "row 3: expected 3 cells, got 2"),
            ("0,1.5,0\n1,x,2\n0,1,1\n", "row 2, column 'x': non-numeric cell 'x'"),
        ],
    )
    def test_first_error_in_row_major_order(self, tmp_path, body, want):
        path = tmp_path / "data.csv"
        path.write_text("y,x,b\n" + body)
        schema = {"y": "label", "x": "continuous", "b": "binary"}
        assert _outcome(load_csv, str(path), schema, "error") == f"DatasetError: {want}"
        assert _outcome(load_csv_oracle, str(path), schema, "error") == f"DatasetError: {want}"

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_write_odd_levels_and_extremes(self, tmp_path, n):
        levels = ("", " a ", "b,c", 'd"e', "f\ng", "h\ri", ",", '"')
        rng = np.random.Generator(np.random.PCG64(n))
        extremes = np.array([-0.0, 0.0, 1e15, -1e15, 999999999999999.0, 1e15 - 0.5,
                             -2.5, 1e300, 5e-324, 2.0 ** 53 + 2])
        values = np.column_stack([
            rng.normal(size=n) * 1e3,
            rng.choice(extremes, size=n),
            rng.integers(0, len(levels), size=n),
            rng.integers(0, 2, size=n),
        ])
        features = (
            Feature("x", "continuous"),
            Feature("edge", "continuous"),
            Feature("c", "categorical", levels),
            Feature("b", "binary"),
        )
        ds = Dataset(features, values, {"y": rng.integers(0, 2, size=n)})
        assert_same_write(tmp_path, ds)
        # one-column files, where an empty level is written as ""
        for j in range(len(features)):
            assert_same_write(tmp_path, Dataset(features[j:j + 1], values[:, j:j + 1]))
        assert_same_write(tmp_path, Dataset((), values[:, :0], {"y": ds.labels["y"]}))
        assert_same_write(tmp_path, Dataset((), values[:, :0]))  # no columns: empty lines


def zero_signal_spec(n=100_000, rate=0.006, seed=7, shift=None):
    marginals = (
        MarginalTarget("u", mean=1.0, sd=2.0, min=-10.0, max=12.0),
        MarginalTarget("v", mean=0.0, sd=1.0),
        MarginalTarget("flag", kind="binary", mean=0.4),
        MarginalTarget("cat", kind="categorical", levels=3),
    )
    signal = Signal(interactions=(("u", "v", 0.0),))
    return SynthSpec(
        n=n,
        positive_rate=rate,
        feature_marginals=marginals,
        signal=signal,
        anomaly_shift=shift or {},
        seed=seed,
    )


def calibrate_intercept_oracle(latent, rate):
    """Reference intercept bisection: all 200 halvings, with no early stop."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        mean = float(np.mean(1.0 / (1.0 + np.exp(-(latent + mid)))))
        if mean < rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def intercept_cases():
    """60 (latent, rate) pairs: flat, narrow, wide and skewed latents at rare to
    common rates, with roots at and near 0."""
    rng = generator(2024)
    latents = [
        np.zeros(1), np.zeros(1000), np.full(50, 3.5), rng.normal(size=1000),
        rng.normal(scale=8.0, size=500), rng.exponential(size=300) - 1.0,
        np.array([-60.0, 60.0]), rng.normal(scale=1e-9, size=100),
        np.linspace(-2.0, 2.0, 101), rng.standard_t(2, size=400),
    ]
    rates = (0.5, 0.006, 1e-4, 0.2, 0.9, 0.999)
    return [(latent, rate) for latent in latents for rate in rates]


class TestCalibrateIntercept:
    @pytest.mark.parametrize("latent, rate", intercept_cases())
    def test_matches_the_full_bisection(self, latent, rate):
        got = dataset._calibrate_intercept(latent, rate)
        assert np.float64(got).tobytes() == np.float64(
            calibrate_intercept_oracle(latent, rate)).tobytes()

    def test_stops_at_the_fixed_point(self):
        class Counted(np.ndarray):
            steps = 0

            def __add__(self, other):  # one ``latent + mid`` per bisection step
                Counted.steps += 1
                return np.asarray(self) + other

        latent = generator(5).normal(size=1000).view(Counted)
        dataset._calibrate_intercept(latent, 0.006)
        assert 0 < Counted.steps < 100


class TestSynthGenerate:
    def test_positive_count_in_binomial_interval(self):
        ds = synth_generate(zero_signal_spec())
        count = int(ds.labels["outcome"].sum())
        assert 480 <= count <= 720

    def test_byte_identical_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_csv(str(a), synth_generate(zero_signal_spec(n=2000)))
        write_csv(str(b), synth_generate(zero_signal_spec(n=2000)))
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self):
        x = synth_generate(zero_signal_spec(n=500, seed=1))
        y = synth_generate(zero_signal_spec(n=500, seed=2))
        assert not np.array_equal(x.values, y.values)

    def test_zero_shift_classes_indistinguishable(self):
        # with a zero-coefficient signal the label is independent of the
        # features, so per-class distributions must match
        ds = synth_generate(zero_signal_spec(n=50_000, rate=0.2, seed=11))
        y = ds.labels["outcome"]
        for name in ("u", "v"):
            col = ds.column(name)
            result = stats.ks_2samp(col[y == 1], col[y == 0])
            assert result.pvalue > 0.001

    def test_anomaly_shift_moves_positives(self):
        ds = synth_generate(
            zero_signal_spec(n=50_000, rate=0.1, seed=3, shift={"u": 5.0})
        )
        y = ds.labels["outcome"]
        u = ds.column("u")
        assert u[y == 1].mean() > u[y == 0].mean() + 4.0
        # the unshifted column stays indistinguishable
        v = ds.column("v")
        assert stats.ks_2samp(v[y == 1], v[y == 0]).pvalue > 0.001

    def test_marginals_respected(self):
        ds = synth_generate(zero_signal_spec(n=100_000, rate=0.5, seed=5))
        u = ds.column("u")
        assert abs(u.mean() - 1.0) < 0.05
        assert abs(u.std(ddof=1) - 2.0) < 0.05
        assert u.min() >= -10.0 and u.max() <= 12.0
        flag = ds.column("flag")
        assert abs(flag.mean() - 0.4) < 0.01
        cat = ds.column("cat")
        assert set(np.unique(cat)) == {0.0, 1.0, 2.0}

    def test_nonzero_signal_tilts_label(self):
        marginals = (MarginalTarget("a"), MarginalTarget("b"))
        spec = SynthSpec(
            n=30_000,
            positive_rate=0.2,
            feature_marginals=marginals,
            signal=Signal(linear={"a": 2.0}, interactions=(("a", "b", 0.0),)),
            seed=9,
        )
        ds = synth_generate(spec)
        y = ds.labels["outcome"]
        a = ds.column("a")
        assert a[y == 1].mean() > a[y == 0].mean() + 0.3
        # calibrated intercept keeps the overall rate near target
        assert abs(y.mean() - 0.2) < 0.02

    def test_signal_requires_interaction(self):
        with pytest.raises(DatasetError, match="interaction"):
            Signal(linear={"a": 1.0})

    def test_unknown_signal_feature_rejected(self):
        with pytest.raises(DatasetError, match="unknown feature"):
            SynthSpec(
                n=10,
                positive_rate=0.5,
                feature_marginals=(MarginalTarget("a"),),
                signal=Signal(interactions=(("a", "zzz", 1.0),)),
            )

    def test_shift_on_categorical_rejected(self):
        with pytest.raises(DatasetError, match="continuous"):
            SynthSpec(
                n=10,
                positive_rate=0.5,
                feature_marginals=(
                    MarginalTarget("a"),
                    MarginalTarget("c", kind="categorical", levels=2),
                ),
                signal=Signal(interactions=(("a", "a", 0.0),)),
                anomaly_shift={"c": 1.0},
            )


class TestStratifiedSplit:
    def test_floor_rounding_996_4(self):
        y = np.array([0] * 996 + [1] * 4)
        ds = Dataset(
            features=(Feature("x", "continuous"),),
            values=np.arange(1000, dtype=np.float64).reshape(-1, 1),
            labels={"y": y},
        )
        pair = stratified_split(ds, 0.75, "y", seed=0)
        ytr = pair.train.labels["y"]
        yte = pair.test.labels["y"]
        assert (ytr == 0).sum() == 747 and (ytr == 1).sum() == 3
        assert (yte == 0).sum() == 249 and (yte == 1).sum() == 1

    def test_partition_exact(self):
        ds = synth_generate(zero_signal_spec(n=1000, rate=0.3, seed=2))
        pair = stratified_split(ds, 0.6, "outcome", seed=4)
        assert pair.train.rows + pair.test.rows == ds.rows
        merged = np.concatenate([pair.train.values[:, 0], pair.test.values[:, 0]])
        np.testing.assert_array_equal(np.sort(merged), np.sort(ds.values[:, 0]))

    def test_deterministic(self):
        ds = synth_generate(zero_signal_spec(n=500, rate=0.3, seed=2))
        a = stratified_split(ds, 0.7, "outcome", seed=9)
        b = stratified_split(ds, 0.7, "outcome", seed=9)
        np.testing.assert_array_equal(a.train.values, b.train.values)
        c = stratified_split(ds, 0.7, "outcome", seed=10)
        assert not np.array_equal(a.train.values, c.train.values)

    def test_fraction_one_rejected(self):
        ds = tiny_dataset()
        with pytest.raises(DatasetError, match="fraction"):
            stratified_split(ds, 1.0, "outcome", seed=0)

    def test_fraction_zero_rejected(self):
        ds = tiny_dataset()
        with pytest.raises(DatasetError):
            stratified_split(ds, 0.0, "outcome", seed=0)

    def test_single_class_rejected(self):
        ds = Dataset(
            features=(Feature("x", "continuous"),),
            values=np.zeros((5, 1)),
            labels={"y": np.ones(5, dtype=np.int64)},
        )
        with pytest.raises(DatasetError, match="class 0"):
            stratified_split(ds, 0.5, "y", seed=0)

    def test_row_indices_give_the_sides(self):
        ds = synth_generate(zero_signal_spec(n=1000, rate=0.1, seed=3))
        pair = stratified_split(ds, 0.8, "outcome", seed=6)
        for rows, side in ((pair.train_rows, pair.train), (pair.test_rows, pair.test)):
            assert (np.diff(rows) > 0).all()
            assert same_dataset(ds.subset_rows(rows), side)
        assert sorted(np.concatenate([pair.train_rows, pair.test_rows])) == list(range(1000))

    def test_split_pair_metadata(self):
        ds = tiny_dataset()
        pair = stratified_split(ds, 0.5, "outcome", seed=1)
        assert isinstance(pair, SplitPair)
        assert math.isclose(pair.train.rows + pair.test.rows, 4)


# ---------------------------------------------------------------------------
# reads_back: when a Dataset is its own CSV round trip


def round_trip(tmp_path, ds, schema):
    """``load_csv`` of ``write_csv(ds)`` under ``schema``, or its error message."""
    path = str(tmp_path / "round.csv")
    write_csv(path, ds)
    return _outcome(load_csv, path, schema, "error")


def same_dataset(got, want) -> bool:
    return (
        not isinstance(got, str)
        and got.features == want.features
        and got.values.shape == want.values.shape
        and got.values.tobytes() == want.values.tobytes()
        and list(got.labels) == list(want.labels)
        and all(got.labels[k].tobytes() == v.tobytes() for k, v in want.labels.items())
    )


def kinds_of(ds):
    return {**{f.name: f.kind for f in ds.features}, **dict.fromkeys(ds.labels, "label")}


def one_feature(feature, column, labels=None):
    values = np.array(column, dtype=np.float64).reshape(-1, 1)
    return Dataset((feature,), values, labels or {"y": np.arange(len(values)) % 2})


def reads_back_oracle(ds, schema) -> bool:
    """reads_back as it was when it took any Dataset and the schema to parse under; kept to
    check that the two-rule reads_back keeps every set this one kept."""
    header = [*ds.feature_names, *ds.labels]
    kinds = [f.kind for f in ds.features] + ["label"] * len(ds.labels)
    texts = header + [level for f in ds.features for level in f.levels]
    if not ds.rows or not header or len(set(header)) < len(header) or schema != dict(
        zip(header, kinds)
    ) or not all(t and t.isprintable() and t == t.strip() for t in texts):
        return False
    for f, col in zip(ds.features, ds.values.T):
        codes, first = np.unique(col, return_index=True) if f.kind != "continuous" else ((), ())
        if f.kind == "categorical":
            ok = len(set(f.levels)) == len(f.levels) == len(codes) and (np.diff(first) > 0).all()
            ok = ok and (codes == np.arange(len(codes))).all()
        else:
            ok = not f.levels and (f.kind != "binary" or np.isin(codes, (0, 1)).all())
        if not ok or (np.signbit(col) & (col == 0)).any():  # -0.0 is written as 0
            return False
    return True


# Sets whose round trip differs. The first four a parse can give, and reads_back refuses them.
# load_csv never gives the rest (it strips names and cells, reads an empty cell as a gap, gives
# distinct levels only to a categorical, integral codes, bits of 0 or 1 and unique names), so
# they are outside reads_back's contract and only their round trip is checked.
CAT = "categorical"
PARSED_NOT_READ_BACK = {
    "unused level": one_feature(Feature("c", CAT, ("a", "b", "z")), [0, 1, 0]),
    "codes out of first-seen order": one_feature(Feature("c", CAT, ("a", "b")), [1, 0, 1]),
    "negative zero": one_feature(Feature("x", "continuous"), [1.5, -0.0, 2.0]),
    "zero rows": Dataset((Feature("c", CAT, ("a",)),), np.zeros((0, 1)), {"y": []}),
}
NOT_READ_BACK = {
    **PARSED_NOT_READ_BACK,
    "duplicate level": one_feature(Feature("c", CAT, ("a", "a")), [0, 1, 0]),
    "non-integral code": one_feature(Feature("c", CAT, ("a", "b")), [0, 0.5, 1]),
    "binary 0.5": one_feature(Feature("b", "binary"), [0, 0.5, 1]),
    "padded level": one_feature(Feature("c", CAT, (" a", "b")), [0, 1]),
    "empty level": one_feature(Feature("c", CAT, ("", "b")), [0, 1]),
    "padded name": one_feature(Feature(" x", "continuous"), [1, 2]),
    "tab in a name": one_feature(Feature("x\t", "continuous"), [1, 2]),
    "levels on a number": one_feature(Feature("x", "continuous", ("a",)), [1, 2]),
    "label named like a feature": one_feature(Feature("y", "continuous"), [1, 2]),
    "no columns": Dataset((), np.zeros((3, 0))),
}

# Header names and cells of the files the property test parses: commas, quotes, tabs, padding,
# byte-order marks and odd Unicode in names; -0 and -0.0 among numbers and bits
NAME_PARTS = ("", "a", "b,c", 'q"', "\t", " ", "\ufeff", "é", "\u2028", "#", "=", "\x00")
READ_CELLS = {
    "continuous": ("0", "-0", "-0.0", " -0 ", "1", "2.5", "-3", "1e15", "1e300", "5e-324", "0.1"),
    "binary": ("0", "1", "-0", "-0.0", "1.0", " 0 "),
    "categorical": ("a", "b", "c,d", 'q"', "\tpad ", "é", "-0", "0", "new\nline", "\ufeffz"),
    "label": ("0", "1", "-0"),
}


def parsed_file(tmp, kinds, names, rows, policy, bom):
    """What load_csv parses from the file csv.writer writes of ``names`` and ``rows``,
    under the header as load_csv reads it; None where it refuses the file, or where
    write_schema refuses the names, as split does before it keeps a set."""
    path = tmp / "src.csv"
    with open(path, "w", encoding="utf-8-sig" if bom else "utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([names, *rows])
    with open(path, encoding="utf-8-sig", newline="") as fh:
        header = [name.strip() for name in next(csv.reader(fh))]
    try:
        ds = load_csv(str(path), dict(zip(header, kinds)), policy)
        write_schema(str(tmp / "schema.txt"), ds)
    except DatasetError:
        return None
    return ds


class TestReadsBack:
    """reads_back against the round trip it predicts."""

    @pytest.mark.parametrize("case", sorted(NOT_READ_BACK))
    def test_edge_case_does_not_read_back(self, tmp_path, case):
        ds = NOT_READ_BACK[case]
        assert case not in PARSED_NOT_READ_BACK or not reads_back(ds)
        assert not same_dataset(round_trip(tmp_path, ds, kinds_of(ds)), ds)

    def test_schema_kind_mismatch(self, tmp_path):
        # split keeps a set only under the schema it parsed it with and wrote
        ds = one_feature(Feature("b", "binary"), [0, 1, 1])
        for schema in ({"b": "continuous", "y": "label"}, {"b": "binary", "y": "binary"}):
            assert not same_dataset(round_trip(tmp_path, ds, schema), ds)
        assert reads_back(ds) and same_dataset(round_trip(tmp_path, ds, kinds_of(ds)), ds)

    @settings(max_examples=60, deadline=None)
    @given(
        kinds=layouts,
        n=st.sampled_from([1, 2, 7, 300]),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_valid_dataset_reads_back(self, tmp_path_factory, kinds, n, seed):
        ds = valid_dataset(np.random.Generator(np.random.PCG64(seed)), kinds, n)
        assert reads_back(ds)
        assert same_dataset(round_trip(tmp_path_factory.mktemp("rb"), ds, kinds_of(ds)), ds)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
        parts=st.lists(st.lists(st.sampled_from(NAME_PARTS), max_size=3), min_size=4, max_size=4),
        n=st.integers(1, 30),
        seed=st.integers(0, 2 ** 32 - 1),
        gap_rate=st.sampled_from([0.0, 0.1]),
        policy=st.sampled_from(["error", "impute"]),
        bom=st.booleans(),
    )
    def test_kept_subset_is_its_round_trip(self, tmp_path_factory, kinds, parts, n, seed,
                                           gap_rate, policy, bom):
        rng = np.random.Generator(np.random.PCG64(seed))
        names = ["".join(part[:1]) + f"{kind[0]}{j}" + "".join(part[1:])
                 for j, (kind, part) in enumerate(zip(kinds, parts))]
        pools = [READ_CELLS[kind][: rng.integers(1, len(READ_CELLS[kind]) + 1)] for kind in kinds]
        rows = [["" if kind != "label" and rng.random() < gap_rate
                 else pool[rng.integers(len(pool))] for kind, pool in zip(kinds, pools)]
                for _ in range(n)]
        tmp = tmp_path_factory.mktemp("kept")
        ds = parsed_file(tmp, kinds, names, rows, policy, bom)
        if ds is None:
            return
        for _ in range(3):
            part = ds.subset_rows(np.flatnonzero(rng.random(ds.rows) < rng.random()))
            kept = reads_back(part)
            if reads_back_oracle(part, kinds_of(part)):
                assert kept
            if kept:
                assert same_dataset(round_trip(tmp, part, kinds_of(part)), part)


NAMES = ("x", "a,b", 'say "hi"', "ünï", "L0", "x y", "#1", "=", "1e3")
LEVEL_TEXTS = ("a", "b,c", 'q"uote', "L0", "x y", ",", "1.5", "ÿ", '"', "-0.0")
VALUES = np.array([0.0, 1.0, -3.0, 2.5, 1e15, -1e15, 999999999999999.0, 1e15 - 0.5, 1e300,
                   -1e300, 5e-324, -5e-324, 2.2e-308, 2.0 ** 53 + 2, 0.1, 1e-300, 123456.75])


def valid_dataset(rng, kinds, n):
    """A Dataset of ``n`` rows and the given column kinds that reads_back holds for:
    names with commas and quotes, |v| >= 1e15, subnormals, categorical codes
    renumbered into first-seen order."""
    names = list(rng.permutation(NAMES + tuple(f"c{j}" for j in range(len(kinds)))))
    features, columns, labels = [], [], {}
    for kind, name in zip(kinds, names):
        if kind == "label":
            labels[name] = rng.integers(0, 2, size=n)
        elif kind == "categorical":
            raw = rng.integers(0, int(rng.integers(1, len(LEVEL_TEXTS) + 1)), size=n)
            _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
            columns.append(np.argsort(np.argsort(first))[inverse])
            levels = rng.choice(LEVEL_TEXTS, size=len(first), replace=False)
            features.append(Feature(name, kind, tuple(map(str, levels))))
        else:
            binary = kind == "binary"
            col = rng.integers(0, 2, size=n) if binary else rng.choice(VALUES, size=n)
            if not binary:
                normal = rng.random(n) < 0.5
                col[normal] = rng.normal(size=normal.sum()) * 10.0 ** rng.integers(-5, 18)
            columns.append(col)
            features.append(Feature(name, kind))
    values = np.column_stack(columns) if columns else np.zeros((n, 0))
    return Dataset(tuple(features), values, labels)


# ---------------------------------------------------------------------------
# gather_csv: the lines of a written file, against write_csv of those rows


def gather_csv_oracle(path, source: bytes, rows):
    """The bytes-based gather that gather_csv replaced: it holds the whole source file, finds
    every line end in it, and writes the header, then one slice per run of consecutive rows."""
    ends = np.flatnonzero(np.frombuffer(source, np.uint8) == 10) + 1
    first, last = np.diff(rows, prepend=-2) != 1, np.diff(rows, append=-2) != 1
    view = memoryview(source)
    with open(path, "wb") as fh:
        fh.write(view[: ends[0]])  # row r is the line from ends[r] to ends[r + 1]
        for lo, hi in zip(ends[rows[first]].tolist(), ends[rows[last] + 1].tolist()):
            fh.write(view[lo:hi])


def assert_gather_matches(tmp_path, ds, rows):
    """gather_csv from write_csv(ds) writes what the oracle cuts from the same bytes, and
    what write_csv(ds.subset_rows(rows)) writes."""
    whole, gathered, cut, written = (str(tmp_path / name)
                                     for name in ("w.csv", "g.csv", "o.csv", "s.csv"))
    write_csv(whole, ds)
    gather_csv(gathered, whole, rows)
    gather_csv_oracle(cut, Path(whole).read_bytes(), rows)
    write_csv(written, ds.subset_rows(rows))
    assert Path(gathered).read_bytes() == Path(cut).read_bytes() == Path(written).read_bytes()


def some_rows(rng, n):
    """The empty index, the full index, runs, single rows and a random subset."""
    runs = np.flatnonzero(np.arange(n) % 7 < 3)
    return [np.arange(0), np.arange(n), runs, np.arange(n)[n - 1 :], np.arange(1),
            np.flatnonzero(rng.random(n) < 0.8)]


class TestGatherCsv:
    @settings(max_examples=40, deadline=None)
    @given(
        kinds=layouts,
        n=st.sampled_from([1, 2, 7, 300]),
        seed=st.integers(0, 2 ** 32 - 1),
        range_bytes=st.sampled_from([1, 2, 17, 4096, 1 << 20]),
    )
    def test_oracle(self, tmp_path_factory, kinds, n, seed, range_bytes):
        # commas and quotes in names and levels, |v| >= 1e15, subnormals
        rng = np.random.Generator(np.random.PCG64(seed))
        ds = valid_dataset(rng, kinds, n)
        tmp = tmp_path_factory.mktemp("gather")
        assert same_dataset(round_trip(tmp, ds, kinds_of(ds)), ds)
        with pytest.MonkeyPatch.context() as patch:  # lines carried across many blocks
            patch.setattr(dataset, "_RANGE_BYTES", range_bytes)
            for rows in some_rows(rng, n):
                assert_gather_matches(tmp, ds, rows)

    @pytest.mark.parametrize("kind", ["continuous", "binary", CAT, "label"])
    def test_one_column(self, tmp_path, kind):
        rng = np.random.default_rng(4)
        ds = valid_dataset(rng, [kind], 50)
        assert len(ds.features) + len(ds.labels) == 1
        assert same_dataset(round_trip(tmp_path, ds, kinds_of(ds)), ds)
        for rows in some_rows(rng, 50):
            assert_gather_matches(tmp_path, ds, rows)

    def test_rarepred_file_in_many_ranges(self, tmp_path, monkeypatch):
        ds = synth_generate(zero_signal_spec(n=3000, rate=0.2, seed=5))
        monkeypatch.setattr(dataset, "_RANGE_BYTES", 4096)
        pair = stratified_split(ds, 0.8, "outcome", seed=2)
        for rows in (pair.train_rows, pair.test_rows):
            assert_gather_matches(tmp_path, ds, rows)
        assert os.path.getsize(tmp_path / "w.csv") > 30 * 4096

    @pytest.mark.parametrize("range_bytes", [1, 2, 3, 1 << 20])
    def test_last_line_without_newline(self, tmp_path, monkeypatch, range_bytes):
        monkeypatch.setattr(dataset, "_RANGE_BYTES", range_bytes)
        source = tmp_path / "d.csv"
        source.write_bytes(b"x\n10\n2\n30")
        for rows, want in (([0, 2], b"x\n10\n30"), ([2], b"x\n30"), ([1], b"x\n2\n"),
                           ([], b"x\n")):
            gather_csv(str(tmp_path / "g.csv"), str(source), np.array(rows, np.int64))
            assert (tmp_path / "g.csv").read_bytes() == want


# ---------------------------------------------------------------------------
# ranges: load_csv cuts a file at newlines and parses the ranges over the CPUs


def own_file(tmp_path):
    """A file rarepred writes: continuous, binary and categorical features."""
    ds = synth_generate(zero_signal_spec(n=300, rate=0.2, seed=5))
    path = str(tmp_path / "own.csv")
    write_csv(path, ds)
    return path, kinds_of(ds), "error"


def late_level(i):
    if i == 0:
        return "Z"
    if i < 150:
        return "AB"[i % 2]
    return "MID" if i < 290 else ("LATE", "Z", "A")[i % 3]


def late_level_file(tmp_path):
    """Levels first seen in the middle and in the last rows, where Z is seen again."""
    rows = [f"{i % 3},{late_level(i)},{i % 2}" for i in range(300)]
    path = tmp_path / "late.csv"
    path.write_text("b,c,y\n" + "\n".join(rows) + "\n")
    return str(path), {"b": "continuous", "c": CAT, "y": "label"}, "error"


def gap_file(tmp_path):
    """Gaps in every range, and a categorical column with only gaps for a stretch."""
    rng = np.random.default_rng(8)
    lines = []
    for i in range(300):
        x = "" if rng.random() < 0.2 else repr(float(rng.normal()))
        c = "" if 100 <= i < 200 or rng.random() < 0.1 else f"L{rng.integers(0, 4)}"
        b = "" if rng.random() < 0.1 else str(i % 2)
        lines.append(f"{x},{c},{b},{i % 2}")
    path = tmp_path / "gaps.csv"
    path.write_text("x,c,b,y\n" + "\n".join(lines) + "\n")
    return str(path), {"x": "continuous", "c": CAT, "b": "binary", "y": "label"}, "impute"


def blank_line_file(tmp_path):
    """Blank lines anywhere: runs of them, at the start and at the end."""
    lines = []
    for i in range(200):
        lines += [""] * (i % 7 == 0) * (1 + i % 3) + [f"{i}.5,L{i % 5},{i % 2}"]
    path = tmp_path / "blank.csv"
    path.write_text("x,c,y\n\n" + "\n".join(lines) + "\n\n\n")
    return str(path), {"x": "continuous", "c": CAT, "y": "label"}, "error"


RANGE_FILES = {
    "own": own_file, "late level": late_level_file, "gaps": gap_file, "blank lines": blank_line_file,
}


def patch_ranges(monkeypatch, path, cpus):
    """Set the range size so that the file is cut into many ranges, or into 3
    at most at 64 CPUs (so that no test forks more than 2 helpers)."""
    lines = open(path, "rb").read().split(b"\n")
    body = sum(map(len, lines[1:])) + len(lines) - 1
    monkeypatch.setattr(dataset, "_RANGE_BYTES", -(-body // 3) if cpus == 64 else 40)
    report_cpus(monkeypatch, cpus)
    return len(dataset._cuts(path)) - 1


def cuts_whole_file(path: str) -> list[int]:
    """``dataset._cuts`` as it was, reading the whole file at once; the oracle
    for the slice-at-a-time scan."""
    with open(path, "rb") as fh:
        data = fh.read()
    if b'"' in data or b"\r" in data:
        return []
    cuts = [data.find(b"\n") + 1 or len(data)]
    while cuts[-1] < len(data):
        cuts.append(data.find(b"\n", cuts[-1] + dataset._RANGE_BYTES - 1) + 1 or len(data))
    return cuts


def cut_files():
    """Bodies for the range scan: marks in the first, a middle and the last
    slice, newlines on slice edges, no final newline, a header only, nothing."""
    rows = b"x,y\n" + b"".join(b"%d.25,%d\n" % (i * 37 % 1000, i % 2) for i in range(12))
    bodies = {"rows": rows, "no final newline": rows[:-1], "header only": b"x,y\n",
              "header without newline": b"x,y", "empty": b"", "newline only": b"\n"}
    for mark, name in ((b'"', "quote"), (b"\r", "carriage return")):
        for at, where in ((1, "first"), (len(rows) // 2, "middle"), (len(rows) - 1, "last")):
            bodies[f"{name} in the {where} slice"] = rows[:at] + mark + rows[at:]
    for edge in (16, 17, 33, 34):  # a newline ending, or starting, a 17-byte slice
        line = b"1," + b"5" * (edge - 6) + b"\n"
        bodies[f"newline at byte {edge}"] = b"x,y\n" + line + line[::-1][1:] + b"\n" + rows[4:]
    rng = np.random.default_rng(18)
    for i in range(6):
        lines = [b"7" * int(rng.integers(0, 40)) + b",1\n" for _ in range(int(rng.integers(1, 30)))]
        bodies[f"random lines {i}"] = b"x,y\n" + b"".join(lines)
    return bodies


class TestRanges:
    @pytest.mark.parametrize("range_bytes", [1, 17, 1 << 20])
    @pytest.mark.parametrize("name", sorted(cut_files()))
    def test_cuts_scan_slices_like_the_whole_file(self, tmp_path, monkeypatch, range_bytes, name):
        path = tmp_path / "cuts.csv"
        path.write_bytes(cut_files()[name])
        monkeypatch.setattr(dataset, "_RANGE_BYTES", range_bytes)
        reads = []

        class Recorded(io.FileIO):
            def read(self, size=-1):
                reads.append(len(data := super().read(size)))
                return data

        monkeypatch.setattr(dataset, "open", lambda file, mode: Recorded(file), raising=False)
        assert dataset._cuts(str(path)) == cuts_whole_file(str(path))
        assert max(reads) <= range_bytes  # never the whole file at once

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    @pytest.mark.parametrize("name", sorted(RANGE_FILES))
    def test_same_dataset_at_any_cpu_count(self, tmp_path, monkeypatch, forks, cpus, name):
        path, schema, policy = RANGE_FILES[name](tmp_path)
        assert len(dataset._cuts(path)) == 2  # one range at the shipped size: parsed whole
        want = load_csv(path, schema, policy)
        assert_same_load(want, load_csv_oracle(path, schema, policy))
        ranges = patch_ranges(monkeypatch, path, cpus)
        assert ranges >= (2 if cpus == 64 else 30)
        assert_same_load(load_csv(path, schema, policy), want)
        assert len(forks) == min(cpus, ranges) - 1 <= 2
        assert_no_child_left()

    def test_level_numbers_follow_the_whole_file(self, tmp_path, monkeypatch, forks):
        path, schema, _ = late_level_file(tmp_path)
        patch_ranges(monkeypatch, path, 2)
        ds = load_csv(path, schema)
        assert ds.features[1].levels == ("Z", "B", "A", "MID", "LATE")
        assert ds.values[-3:, 1].tolist() == [4.0, 0.0, 2.0]  # LATE, Z, A

    @pytest.mark.parametrize("body", [
        b"x,y\r\n" + b"1.5,0\r\n2.5,1\r\n" * 40,
        b'"x",y\n' + b"1.5,0\n2.5,1\n" * 40,
        b"x,y\n" + b"1.5,0\n2.5,1\n" * 40 + b"3.5,0\r\n",
    ])
    def test_quote_or_carriage_return_is_one_range(self, tmp_path, monkeypatch, forks, body):
        path = tmp_path / "one.csv"
        path.write_bytes(body)
        schema = {"x": "continuous", "y": "label"}
        want = load_csv(str(path), schema)
        patch_ranges(monkeypatch, str(path), 64)
        assert dataset._cuts(str(path)) == []
        assert_same_load(load_csv(str(path), schema), want)
        assert forks == []

    @pytest.mark.parametrize("cpus", [2, 64])
    @pytest.mark.parametrize("last, want", [
        (b"7.5,x,1\n", "row 200, column 'b': non-numeric cell 'x'"),
        (b"7.5,1\n", "row 200: expected 3 cells, got 2"),
        (b"7.5,1,\xff\n", "line 201: not UTF-8 (invalid start byte)"),
        (b"7.5,1,0\n" + b"8" * 140_000 + b",1,0\n", "line 202: field larger than field limit (131072)"),
    ])
    def test_error_in_last_range_names_its_row(self, tmp_path, monkeypatch, forks, cpus, last,
                                               want):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"x,b,y\n" + b"".join(b"%d.5,1,0\n" % i for i in range(199)) + last)
        schema = {"x": "continuous", "b": "binary", "y": "label"}
        whole = _outcome(load_csv, str(path), schema, "error")
        assert whole.endswith(want)
        patch_ranges(monkeypatch, str(path), cpus)
        assert _outcome(load_csv, str(path), schema, "error") == whole
        assert len(forks) <= 2
        assert_no_child_left()

    def test_one_range_never_forks(self, tmp_path, monkeypatch, forks):
        path, schema, policy = own_file(tmp_path)
        report_cpus(monkeypatch, 64)
        load_csv(path, schema, policy)
        assert forks == []


# ---------------------------------------------------------------------------
# numeric ranges: numpy's C reader parses a range with no categorical column,
# and the block parse parses every range that the reader's table is not kept for

PADS = ("\t", "\x0b", "\x0c", "\xa0", "\x85", " ", "\x1c", "\x1f", "\u2028", "\u3000")
CORE_PIECES = (*"0159", ".", "e", "E", "+", "-", "_", "nan", "inf", "Infinity", "\uff11", "\u0663",
               "\x00")
pads = st.lists(st.sampled_from(PADS), max_size=2).map("".join)
cores = st.one_of(
    st.lists(st.sampled_from(CORE_PIECES), max_size=5).map("".join),
    st.floats().map(repr),
    st.sampled_from(BITS),
)
numeric_cells = st.builds("{}{}{}".format, pads, cores, pads)


def stripped_float(cell: str):
    """What the block parse and the oracle read from a cell: ``float`` of the stripped cell."""
    try:
        return float(cell.strip())
    except ValueError:
        return None


def counted(monkeypatch, name):
    """Calls of ``dataset.<name>`` made in this process, as (args, result)."""
    calls, fn = [], getattr(dataset, name)

    def spy(*args):
        calls.append((args, result := fn(*args)))
        return result

    monkeypatch.setattr(dataset, name, spy)
    return calls


def empty_cell_mask_oracle(text: str) -> bool:
    """How _numeric_table found an empty cell under impute before it searched for ",,",
    "\\n," and ",\\n": a byte mask of commas beside a comma or a line's end."""
    line = np.frombuffer(f"\n{text}\n".encode(), np.uint8)
    comma = line == ord(",")
    sep = comma | (line == ord("\n"))
    return bool((comma[1:] & sep[:-1] | sep[1:] & comma[:-1]).any())


class TestNumericRanges:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        kinds=st.lists(st.sampled_from(["continuous", "binary", "label"]), min_size=1, max_size=3),
        rows=st.lists(st.lists(numeric_cells, min_size=3, max_size=3), min_size=1, max_size=3),
        impute=st.booleans(),
    )
    def test_kept_cells_have_the_bits_of_float(self, kinds, rows, impute):
        rows = [row[: len(kinds)] for row in rows]
        lines = [",".join(row) for row in rows]
        table = dataset._numeric_table("\n".join(lines) + "\n", kinds, impute)
        rows = [row for row, line in zip(rows, lines) if line]  # an empty line is no row
        valid = all(dataset._cell_error(kind, cell.strip(), False) is None
                    for row in rows for kind, cell in zip(kinds, row))
        if table is not None:  # only where every cell is valid, and with float's bits
            assert valid
            want = np.array([[stripped_float(cell) for cell in row] for row in rows])
            assert table.shape == (len(rows), len(kinds))
            assert table.tobytes() == want.tobytes()
        elif valid and rows:  # refused only for what the reader cannot convert
            assert any("_" in cell or any(not c.isascii() and not c.isspace() for c in cell)
                       for row in rows for cell in row)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_file_mixes_both_paths(self, tmp_path, monkeypatch, cpus):
        lines = [f"{i}.5,{i % 3 // 2},{i % 2}" for i in range(300)]
        lines[40] = "1_000,1,0"  # float reads it, numpy's reader does not
        lines[150] = "\uff11\uff12,0,1"  # non-ASCII digits, likewise
        lines[220] = ",1,0"  # a gap
        path = tmp_path / "mixed.csv"
        path.write_text("x,b,y\n" + "\n".join(lines) + "\n")
        schema = {"x": "continuous", "b": "binary", "y": "label"}
        monkeypatch.setattr(dataset, "_RANGE_BYTES", 256)
        report_cpus(monkeypatch, cpus)
        tables, blocks = counted(monkeypatch, "_numeric_table"), counted(monkeypatch, "_parse_rows")
        got = load_csv(str(path), schema, "impute")
        assert_same_load(got, load_csv_oracle(str(path), schema, "impute"))
        if cpus == 1:  # every range is parsed here, so every call is seen
            ranges = len(dataset._cuts(str(path))) - 1
            assert sum(table is not None for _, table in tables) == ranges - 3
            assert len(blocks) == 3
        want = "DatasetError: row 221, column 'x': missing value"  # named by the whole-file parse
        assert _outcome(load_csv, str(path), schema, "error") == want
        assert _outcome(load_csv_oracle, str(path), schema, "error") == want
        assert_no_child_left()

    @pytest.mark.parametrize("range_bytes", [64, 1 << 20])
    def test_range_of_blank_lines(self, tmp_path, monkeypatch, range_bytes):
        path = tmp_path / "blank.csv"
        path.write_text("x,y\n1.5,0\n" + "\n" * 500 + "2.5,1\n\n\n")
        monkeypatch.setattr(dataset, "_RANGE_BYTES", range_bytes)
        schema = {"x": "continuous", "y": "label"}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns on a text of no data
            got = load_csv(str(path), schema)
        assert_same_load(got, load_csv_oracle(str(path), schema))
        assert got.values.ravel().tolist() == [1.5, 2.5]

    @pytest.mark.parametrize("policy", ["error", "impute"])
    @pytest.mark.parametrize("body, schema", [
        ("x,y\n1.5,0\n  \n2.5,1\n", {"x": "continuous", "y": "label"}),
        ("x\n1.5\n \t\n2.5\n", {"x": "continuous"}),
        ("b\n1\n\x0c\n0\n", {"b": "binary"}),
    ])
    def test_whitespace_line_keeps_its_error(self, tmp_path, policy, body, schema):
        path = tmp_path / "space.csv"
        path.write_text(body)
        assert dataset._numeric_table(body[body.index("\n") + 1:], list(schema.values()),
                                       policy == "impute") is None
        assert_same_load(_outcome(load_csv, str(path), schema, policy),
                         _outcome(load_csv_oracle, str(path), schema, policy))

    def test_field_past_the_csv_limit_keeps_its_error(self, tmp_path):
        body = "0" * 30 + "1,1\n2.5,0\n"
        path = tmp_path / "long.csv"
        path.write_text("x,y\n" + body)
        limit = csv.field_size_limit(20)
        try:
            assert dataset._numeric_table(body, ["continuous", "label"], False) is None
            with pytest.raises(DatasetError, match="line 2: field larger than field limit"):
                load_csv(str(path), {"x": "continuous", "y": "label"})
        finally:
            csv.field_size_limit(limit)

    @pytest.mark.parametrize("limit", [7, 8, 20])
    def test_any_line_past_the_csv_limit_is_left_to_the_block_parse(self, limit):
        old = csv.field_size_limit(limit)
        try:
            for before in range(2 * limit):  # the long line starts anywhere
                head = "".join(f"{k % 10},1\n" for k in range(before // 4))
                body = head + "0" * (limit - 1) + "1,1\n2,0\n"
                assert dataset._numeric_table(body, ["continuous", "label"], False) is None
        finally:
            csv.field_size_limit(old)

    @pytest.mark.parametrize("text", [",1,0\n", "1,,0\n", "1,1,\n", "1,1,0\n2,1,",
                                      "1,1,0\n\n,1,0\n", "1,1,0\n" * 50 + "2,,1\n"])
    def test_empty_cell_to_impute_skips_the_reader(self, monkeypatch, text):
        def refuse(*args, **kwargs):
            raise AssertionError("the reader was tried on a text with an empty cell")

        kinds = ["continuous", "binary", "label"]
        monkeypatch.setattr(dataset.np, "loadtxt", refuse)
        assert dataset._numeric_table(text, kinds, True) is None
        with pytest.raises(AssertionError, match="the reader was tried"):  # blank lines are not cells
            dataset._numeric_table("1,1,0\n\n\n2,0,1\n", kinds, True)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(text=st.text(st.sampled_from(",\n1 é"), max_size=24))
    def test_empty_cell_check_matches_the_byte_mask(self, text):
        tried = []

        def spy(*args, **kwargs):
            tried.append(args)
            raise ValueError("not parsed here")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataset.np, "loadtxt", spy)
            assert dataset._numeric_table(text, ["continuous", "binary"], True) is None
        assert bool(tried) == (text.strip("\n") != "" and not empty_cell_mask_oracle(text))

    def test_separator_padding_reads_as_the_oracle_reads_it(self, tmp_path):
        # str.strip strips \x1c-\x1f; float does not strip them from an ASCII cell
        path = tmp_path / "sep.csv"
        path.write_text("x,b,y\n\x1c1.5,1\x1f,0\n2.5,\x1e0,1\x1d\n")
        schema = {"x": "continuous", "b": "binary", "y": "label"}
        got = load_csv(str(path), schema)
        assert_same_load(got, load_csv_oracle(str(path), schema))
        assert got.values.tolist() == [[1.5, 1.0], [2.5, 0.0]]
        with open(path, encoding="utf-8", newline="") as fh:  # and so does the block parse
            next(fh)
            tables, _ = dataset._parse_rows(csv.reader(fh), ["x", "b", "y"], list(schema.values()),
                                            False)
        assert np.concatenate(tables).tolist() == [[1.5, 1.0, 0.0], [2.5, 0.0, 1.0]]

    @pytest.mark.parametrize("preset", sorted(BENCHMARKS))
    def test_presets_take_numpys_reader(self, tmp_path, monkeypatch, preset):
        ds = synth_generate(benchmark_spec(preset, n=14_000, seed=3))
        path = str(tmp_path / "data.csv")
        write_csv(path, ds)
        assert len(dataset._cuts(path)) - 1 >= 3
        report_cpus(monkeypatch, 1)  # every range in this process, where calls are counted
        blocks = counted(monkeypatch, "_parse_rows")
        assert same_dataset(load_csv(path, kinds_of(ds)), ds)
        assert blocks == []


# ---------------------------------------------------------------------------
# a leading UTF-8 byte-order mark, as some editors and spreadsheet exports write


def numeric_body():
    return "x,b,y\n" + "".join(f"{i}.25,{i % 3 // 2},{i % 2}\n" for i in range(300))


BOM_FILES = {  # body, schema, _RANGE_BYTES, ranges (0: a quoted file is parsed whole)
    "one range": ("x,c,y\n1.5,a,0\n-0,b,1\n2,a,1\n",
                  {"x": "continuous", "c": CAT, "y": "label"}, 1 << 20, 1),
    "several ranges": (numeric_body(), {"x": "continuous", "b": "binary", "y": "label"}, 256, 13),
    "quoted": ('"x",c,y\n1.5,"a,b",0\n2,"say ""hi""",1\n',
               {"x": "continuous", "c": CAT, "y": "label"}, 1 << 20, 0),
}


class TestByteOrderMark:
    """A file that starts with a byte-order mark loads as the same file without one."""

    @pytest.mark.parametrize("case", sorted(BOM_FILES))
    def test_csv(self, tmp_path, monkeypatch, case):
        body, schema, range_bytes, ranges = BOM_FILES[case]
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(body, encoding="utf-8")
        marked.write_text(body, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        monkeypatch.setattr(dataset, "_RANGE_BYTES", range_bytes)
        assert len(dataset._cuts(str(marked))[1:]) == ranges
        want = load_csv(str(plain), schema)
        assert_same_load(load_csv(str(marked), schema), want)
        assert_same_load(load_csv_oracle(str(marked), schema), want)

    def test_schema(self, tmp_path):
        text = "# kinds\nx = continuous\nc = categorical\ny = label\n"
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert load_schema(str(marked)) == load_schema(str(plain)) == {
            "x": "continuous", "c": CAT, "y": "label"}
        plain.write_text(text[text.index("x"):], encoding="utf-8")  # a column on the first line
        marked.write_text(text[text.index("x"):], encoding="utf-8-sig")
        assert list(load_schema(str(marked))) == list(load_schema(str(plain))) == ["x", "c", "y"]
