"""Dataset container, CSV round-trips, synthetic generation, splitting."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rarepred.dataset import (
    _BLOCK_ROWS,
    Dataset,
    DatasetError,
    Feature,
    MarginalTarget,
    Signal,
    SplitPair,
    SynthSpec,
    load_csv,
    load_schema,
    stratified_split,
    synth_generate,
    write_csv,
    write_schema,
)
from rarepred.preprocess import apply_scaler, fit_scaler, invert_scaler, one_hot


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

    def test_select_features(self):
        ds = tiny_dataset()
        sub = ds.select_features(["flag", "x"])
        assert sub.feature_names == ("flag", "x")
        assert sub.values[1, 1] == 1.5
        # labels carried through
        assert "outcome" in sub.labels

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
            ds.select_features(["flag", "x"]),
            apply_scaler(ds, params),
            invert_scaler(apply_scaler(ds, params), params),
            one_hot(ds),
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
        fh = open(path, encoding="utf-8", newline="")
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


class TestCsvOracle:
    """load_csv and write_csv against the per-cell code they replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        kinds=layouts,
        n=st.sampled_from(ROW_COUNTS),
        seed=st.integers(0, 2 ** 32 - 1),
        gap_rate=st.sampled_from([0.0, 0.0005, 0.2]),
        policy=st.sampled_from(["error", "impute"]),
        blank_lines=st.booleans(),
    )
    def test_matches_per_cell_code(self, tmp_path_factory, kinds, n, seed, gap_rate, policy,
                                   blank_lines):
        tmp = tmp_path_factory.mktemp("csv")
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

    @settings(max_examples=80, deadline=None)
    @given(
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
    def test_corrupted_file_same_error(self, tmp_path_factory, kinds, n, seed, policy, edits):
        tmp = tmp_path_factory.mktemp("csv")
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

    def test_split_pair_metadata(self):
        ds = tiny_dataset()
        pair = stratified_split(ds, 0.5, "outcome", seed=1)
        assert isinstance(pair, SplitPair)
        assert pair.fraction == 0.5
        assert pair.stratify_on == "outcome"
        assert math.isclose(pair.train.rows + pair.test.rows, 4)
