"""Tabular dataset container, CSV loading, synthetic generation, splitting.

A :class:`Dataset` is the currency every other module trades in: a row-major
float64 matrix with named, kinded features plus named binary label vectors.
Categorical cells hold level indices; the level strings live on the feature
so CSV round-trips are lossless.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from itertools import islice, repeat

import numpy as np

from .rng import child_seed, generator
from .shares import fork_map

__all__ = [
    "Feature",
    "Dataset",
    "MarginalTarget",
    "Signal",
    "SynthSpec",
    "SplitPair",
    "DatasetError",
    "load_schema",
    "write_schema",
    "load_csv",
    "reads_back",
    "write_csv",
    "gather_csv",
    "write_table",
    "synth_generate",
    "stratified_split",
]

FEATURE_KINDS = ("continuous", "categorical", "binary")


class DatasetError(ValueError):
    """Raised for malformed files, schema mismatches, and contract violations."""


@dataclass(frozen=True)
class Feature:
    """A named column with its kind and, for categoricals, its level names."""

    name: str
    kind: str
    levels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FEATURE_KINDS:
            raise DatasetError(f"unknown feature kind {self.kind!r} for {self.name!r}")
        if self.kind == "categorical" and len(self.levels) < 1:
            raise DatasetError(f"categorical feature {self.name!r} needs levels")


@dataclass
class Dataset:
    """Immutable feature matrix plus binary label vectors.

    ``values`` is (rows, features) float64; categorical cells hold level
    indices. Arrays are frozen after construction so a Dataset can be shared
    across concurrent readers.
    """

    features: tuple[Feature, ...]
    values: np.ndarray
    labels: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DatasetError("values must be a 2-d matrix")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise DatasetError("feature names must be unique")
        if self.values.shape[1] != len(self.features):
            raise DatasetError(
                f"{len(self.features)} features but {self.values.shape[1]} value columns"
            )
        if not np.all(np.isfinite(self.values)):
            raise DatasetError("values must be finite (impute or drop missing cells)")
        labels = {}
        for key, vec in self.labels.items():
            arr = np.ascontiguousarray(vec, dtype=np.int64)
            if arr.shape != (self.rows,):
                raise DatasetError(f"label {key!r} has length {arr.shape}, want ({self.rows},)")
            if not np.isin(arr, (0, 1)).all():
                raise DatasetError(f"label {key!r} must be 0/1")
            arr.flags.writeable = False
            labels[key] = arr
        self.labels = labels
        self.values.flags.writeable = False

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    def feature_index(self, name: str) -> int:
        for i, f in enumerate(self.features):
            if f.name == name:
                return i
        raise DatasetError(f"unknown feature {name!r}")

    def columns(self, names=None) -> tuple[tuple[str, ...], np.ndarray]:
        """The named features (all of them when ``names`` is None) and their
        value columns, in the given order."""
        names = tuple(names) if names is not None else self.feature_names
        return names, self.values[:, [self.feature_index(n) for n in names]]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.feature_index(name)]

    def label(self, name: str) -> np.ndarray:
        if name not in self.labels:
            raise DatasetError(f"unknown label {name!r}")
        return self.labels[name]

    def subset_rows(self, indices: np.ndarray) -> "Dataset":
        """A new Dataset holding the given rows (copied, in index order)."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            features=self.features,
            values=self.values[idx],
            labels={k: v[idx] for k, v in self.labels.items()},
        )


# ---------------------------------------------------------------------------
# schema files


def load_schema(path: str) -> dict[str, str]:
    """Parse a flat ``column = kind`` schema file.

    Blank lines and ``#`` comments are ignored. Kinds are the feature kinds
    plus ``label`` for outcome columns; a line splits at its last ``=``, so a
    column name may hold one (such as ``feature=level``).
    """
    schema: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DatasetError(f"{path}:{lineno}: expected 'column = kind'")
            name, kind = (part.strip() for part in line.rsplit("=", 1))
            if kind not in FEATURE_KINDS + ("label",):
                raise DatasetError(f"{path}:{lineno}: unknown kind {kind!r}")
            if name in schema:
                raise DatasetError(f"{path}:{lineno}: duplicate column {name!r}")
            schema[name] = kind
    if not schema:
        raise DatasetError(f"{path}: empty schema")
    return schema


def write_schema(path: str, ds: Dataset) -> None:
    """Write the schema ``load_schema`` reads back; refuse a name it could not."""
    rows = [(f.name, f.kind) for f in ds.features] + [(name, "label") for name in ds.labels]
    for name, _ in rows:  # load_schema drops a leading byte-order mark (BOM)
        if any(c in name for c in "#\r\n") or name[:1] == "\ufeff":
            raise DatasetError(f"column {name!r}: a schema file cannot hold it")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{name} = {kind}\n" for name, kind in rows)


# ---------------------------------------------------------------------------
# CSV I/O


# Rows per block: the block parse, and the writers, handle one block of rows at
# a time, column by column, so only one block of cell strings is alive.
_BLOCK_ROWS = 4096
# Bytes per range: load_csv parses, and gather_csv scans, a file in ranges about
# this long. numpy's C reader parses a numeric range; the block parse, which
# gives the same values and names the same first error, is its exact fallback.
_RANGE_BYTES = 1 << 20


def _cell_error(kind: str, cell: str, impute: bool) -> str | None:
    """Why one stripped cell is invalid, or None (a gap is valid under impute)."""
    if cell == "":
        if kind == "label":
            return "missing label"
        return None if impute else "missing value"
    if kind == "categorical":
        return None
    try:
        value = float(cell)
    except ValueError:
        return f"non-numeric cell {cell!r}"
    if kind == "continuous":
        return None if math.isfinite(value) else f"non-finite cell {cell!r}"
    if value in (0.0, 1.0):
        return None
    return "label must be 0 or 1" if kind == "label" else "binary cell must be 0 or 1"


def _parse_column(cells, kind: str, levels: dict[str, int], impute: bool):
    """One block of one column as values with NaN at each gap, or None when some
    cell is invalid (then :func:`_cell_error` names it)."""
    if kind == "categorical":
        stripped = list(map(str.strip, cells))
        for cell in dict.fromkeys(stripped):  # first-seen order
            if cell and cell not in levels:
                levels[cell] = len(levels)
        values = np.fromiter(map(levels.get, stripped, repeat(np.nan)), np.float64, len(stripped))
        return None if not impute and np.isnan(values).any() else values
    gaps = []
    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:  # a gap, a bad cell, or \x1c-\x1f that float does not strip
        stripped = [cell.strip() for cell in cells]
        gaps = [k for k, cell in enumerate(stripped) if not cell]
        if gaps and (kind == "label" or not impute):
            return None
        try:
            values = np.array([float(cell) if cell else 0.0 for cell in stripped])
        except ValueError:
            return None
    good = np.isfinite(values) if kind == "continuous" else (values == 0) | (values == 1)
    values[gaps] = np.nan
    return values if good.all() else None


def _block_error(rows, n: int, header: list[str], kinds: list[str], impute: bool) -> DatasetError:
    """The first error of a bad block in row-major order: a row's cell count,
    then its cells left to right."""
    for i, row in enumerate(rows, start=n + 1):
        if len(row) != len(header):
            return DatasetError(f"row {i}: expected {len(header)} cells, got {len(row)}")
        for name, kind, cell in zip(header, kinds, row):
            error = _cell_error(kind, cell.strip(), impute)
            if error is not None:
                return DatasetError(f"row {i}, column {name!r}: {error}")
    raise AssertionError("a block was rejected but no cell in it is invalid")


def _rows(path: str, fh):
    """``csv.reader`` over ``fh``, whose tokenizer and decoder errors become a
    :class:`DatasetError` naming the line of the file."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise DatasetError(f"{path}, line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        # text is decoded in chunks, so find the line in the bytes: the first
        # one that does not survive a round trip through lenient decoding
        with open(path, "rb") as raw:
            lossless = (b.decode("utf-8", "ignore").encode() == b for b in raw)
            line = next(i for i, ok in enumerate(lossless, 1) if not ok)
        raise DatasetError(f"{path}, line {line}: not UTF-8 ({exc.reason})") from None


def _parse_rows(reader, header: list[str], kinds: list[str], impute: bool):
    """The rows of ``reader`` as one (rows, columns) table per block, NaN at
    each gap, and each column's levels in first-seen order."""
    levels: list[dict[str, int]] = [{} for _ in header]
    tables = []
    n = 0
    body = filter(None, reader)  # blank lines are not rows
    while rows := list(islice(body, _BLOCK_ROWS)):
        parsed = [None]
        if set(map(len, rows)) == {len(header)}:
            parsed = list(map(_parse_column, zip(*rows), kinds, levels, repeat(impute)))
        if any(column is None for column in parsed):
            raise _block_error(rows, n, header, kinds, impute)
        tables.append(np.column_stack(parsed))
        n += len(rows)
    return tables, levels


def _numeric_table(text: str, kinds: list[str], impute: bool):
    """``text`` as numpy's C reader parses it, a (rows, columns) table, if it
    has rows, each with a cell per column, finite continuous cells and 0 or 1
    elsewhere; else None. The reader strips a cell as ``str.strip`` does and
    converts it to the bits ``float`` gives, but it has no field limit, so a
    text with a line past ``csv``'s is left to :func:`_parse_rows` too. The
    reader refuses an empty cell, so under ``impute``, where such a cell is a
    gap, a text with one is left to :func:`_parse_rows` untried."""
    # a categorical column needs levels, and on blank lines only the reader warns
    if "categorical" in kinds or not text.strip("\n"):
        return None
    # an empty cell: a comma beside a comma or a line's end
    if impute and any(gap in f"\n{text}\n" for gap in (",,", "\n,", ",\n")):
        return None
    # a line past the limit holds a whole window of half the limit with no newline
    half = max(csv.field_size_limit() // 2, 1)
    if any(text.find("\n", i, i + half) < 0 for i in range(0, len(text) - half + 1, half)):
        return None
    try:
        table = np.loadtxt(io.StringIO(text), np.float64, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    continuous = np.array([kind == "continuous" for kind in kinds])
    if table.shape[1] != len(kinds) or not np.isfinite(table[:, continuous]).all():
        return None
    bits = table[:, ~continuous]
    return table if ((bits == 0) | (bits == 1)).all() else None


def _cuts(path: str) -> list[int]:
    """Where the file's ranges start and end: after the header line, then
    after the line that reaches ``_RANGE_BYTES`` past the last cut, up to the
    size; none when a quote or a carriage return may put a newline in a row.
    The file is scanned one ``_RANGE_BYTES`` slice at a time."""
    cuts, target, offset = [], 0, 0  # the next cut follows the first newline at or past target
    with open(path, "rb") as fh:
        while data := fh.read(_RANGE_BYTES):
            if b'"' in data or b"\r" in data:
                return []
            while end := data.find(b"\n", max(target - offset, 0)) + 1:
                cuts.append(offset + end)
                target = offset + end + _RANGE_BYTES - 1
            offset += len(data)
    return cuts if cuts and cuts[-1] == offset else cuts + [offset]


def _parse_ranges(path: str, cuts: list[int], header: list[str], kinds: list[str], impute: bool):
    """The tables of each range over the usable CPUs (``shares.fork_map``): by
    :func:`_numeric_table` where it keeps the range, else by :func:`_parse_rows`.
    A range numbers its levels in first-seen order; appending its new levels in
    range order renumbers its codes into first-seen order over the file."""
    levels: list[dict[str, int]] = [{} for _ in header]
    tables = []

    def parse(t: int):
        with open(path, "rb") as fh:
            fh.seek(cuts[t])
            text = fh.read(cuts[t + 1] - cuts[t]).decode("utf-8")
        table = _numeric_table(text, kinds, impute)
        if table is not None:
            return [table], None  # no column has levels
        return _parse_rows(_rows(path, io.StringIO(text, newline="")), header, kinds, impute)

    def take(part) -> None:
        part_tables, part_levels = part
        for j, kind in enumerate(kinds):
            if kind == "categorical":
                codes = [levels[j].setdefault(level, len(levels[j])) for level in part_levels[j]]
                codes = np.array(codes, np.float64)
                for table in part_tables:  # a gap's NaN stays NaN
                    seen = ~np.isnan(table[:, j])
                    table[seen, j] = codes[table[seen, j].astype(np.intp)]
        tables.extend(part_tables)

    fork_map(parse, len(cuts) - 1, take)
    return tables, levels


def load_csv(path: str, schema: dict[str, str], missing_policy: str = "error") -> Dataset:
    """Load a comma-separated UTF-8 file, less a leading byte-order mark,
    against a column-kind schema.

    The header must contain exactly the schema's columns, once each (file
    order is preserved). Empty cells are missing; under ``impute`` continuous
    gaps take the column mean and categorical/binary gaps the column mode
    (mode ties break to the lowest level index). Missing label cells and
    non-finite numbers are always an error. Data rows are 1-indexed in error
    messages; the first bad cell in row order is named.

    A file with no ``"`` and no ``\\r`` byte is cut after a newline about every
    ``_RANGE_BYTES``, and the ranges are parsed over the usable CPUs. A range
    with no categorical column goes through numpy's C reader (``np.loadtxt``),
    which gives each cell the bits ``float`` gives. A range that the reader
    refuses, or whose table breaks a rule above, a range with a gap to impute,
    and a file with a quote or a carriage return are parsed in blocks of
    ``_BLOCK_ROWS`` rows, one column at a time: the exact fallback. A file
    where some range fails is parsed so in one range, so the result and every
    error message are the same.
    """
    if missing_policy not in ("error", "impute"):
        raise DatasetError(f"unknown missing policy {missing_policy!r}")
    impute = missing_policy == "impute"
    try:
        cuts = _cuts(path)
        fh = open(path, encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = _rows(path, fh)
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
        if len(header) != len(schema):
            repeated = next(name for name in header if header.count(name) > 1)
            raise DatasetError(f"{path}: column {repeated!r} appears twice in the header")
        kinds = [schema[name] for name in header]
        try:  # a bad cell or row, or a non-UTF-8 byte, is named by the parse in one range
            parsed = _parse_ranges(path, cuts, header, kinds, impute) if len(cuts) > 1 else None
        except ValueError:
            parsed = None
        tables, levels = parsed or _parse_rows(reader, header, kinds, impute)

    table = np.concatenate([np.empty((0, len(header)))] + tables)
    del tables, parsed  # only the joined table is alive while values are taken from it
    labels: dict[str, np.ndarray] = {}
    features = []
    for j, (name, kind) in enumerate(zip(header, kinds)):
        col = table[:, j]
        if kind == "label":
            labels[name] = col.astype(np.int64)
            continue
        gaps = np.isnan(col)
        if gaps.any():
            present = col[~gaps]
            if present.size == 0:
                raise DatasetError(f"column {name!r}: all values missing, nothing to impute from")
            if kind == "continuous":
                fill = float(present.mean())
            else:
                # mode over observed cells; ties break to the lowest level index
                idx, counts = np.unique(present.astype(np.int64), return_counts=True)
                fill = float(idx[np.argmax(counts)])
            col[gaps] = fill
        if kind == "categorical":
            if not levels[j]:  # only possible with no rows, so no gap was imputed
                raise DatasetError(f"column {name!r}: categorical column has no observed levels")
            features.append(Feature(name, kind, tuple(levels[j])))  # first-seen order
        else:
            features.append(Feature(name, kind))
    values = table[:, [j for j, kind in enumerate(kinds) if kind != "label"]]
    return Dataset(features=tuple(features), values=values, labels=labels)


def reads_back(ds: Dataset) -> bool:
    """For rows of a Dataset that :func:`load_csv` returned, with names that
    :func:`write_schema` accepts: True only if parsing ``write_csv(ds)`` gives ``ds``
    again bit for bit. Such rows keep all else a parse checks, so two rules remain:
    each categorical's codes are first seen in the order 0, 1, 2, ... with every level
    used, and no feature cell is -0.0 (written as ``0``)."""
    for f, col in zip(ds.features, ds.values.T):
        first = np.unique(col, return_index=True)[1] if f.kind == "categorical" else ()
        if len(first) < len(f.levels) or (np.diff(first) < 0).any():
            return False
    return not np.signbit(ds.values[ds.values == 0]).any()


def _float_cells(col: np.ndarray) -> list[str]:
    """Cells of a float column: ``str(int(v))`` for integral ``|v| < 1e15``, else ``repr``."""
    integral = (col == np.trunc(col)) & (np.abs(col) < 1e15)
    if integral.all():
        return list(map(str, col.astype(np.int64).tolist()))
    cells = list(map(repr, col.tolist()))
    where = np.flatnonzero(integral)
    for k, text in zip(where.tolist(), map(str, col[where].astype(np.int64).tolist())):
        cells[k] = text
    return cells


def _csv_field(text: str, alone: bool) -> str:
    """``text`` as csv.writer writes it as the only field of a row, or as one of several."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text] if alone else [text, ""])
    return buf.getvalue()[: -1 if alone else -2]


def _write_blocks(path: str, header: str, n: int, block_cells) -> None:
    """Write ``header`` and rows ``[0, n)`` as UTF-8 to ``path``, a block at a
    time; ``block_cells(lo, hi)`` gives the block's cells as one iterable of
    strings per column. Blocks are formatted over the usable CPUs
    (``shares.fork_map``) and written in order."""

    def block(b: int) -> bytes:
        columns = block_cells(b * _BLOCK_ROWS, min((b + 1) * _BLOCK_ROWS, n))
        return ("\n".join(map(",".join, zip(*columns))) + "\n").encode("utf-8")

    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode("utf-8"))
        fh.flush()  # the helpers fork with an empty buffer
        fork_map(block, -(-n // _BLOCK_ROWS), fh.write)


def write_csv(path: str, ds: Dataset) -> None:
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

    _write_blocks(path, ",".join(_csv_field(name, alone) for name in header), ds.rows, block_cells)


def gather_csv(path: str, source_path: str, rows: np.ndarray) -> None:
    """Write the header line of ``source_path``, then its data lines ``rows`` (ascending,
    from 0): what ``write_csv`` writes of those rows when ``source_path`` is the ``write_csv``
    file of the whole dataset, since each line is made from its own row alone. The file is
    read one ``_RANGE_BYTES`` block at a time; a line cut by a block's end is carried into
    the next, and each run of consecutive wanted lines in a block is written as one slice."""
    wanted = np.concatenate([[-1], rows]).astype(np.int64)  # the header is line -1
    line, carry = -1, b""  # the number of carry's line
    with open(source_path, "rb") as src, open(path, "wb") as fh:
        while True:
            data = src.read(_RANGE_BYTES)
            block = carry + data
            ends = np.flatnonzero(np.frombuffer(block, np.uint8) == 10) + 1
            if not data and block:  # a last line with no newline
                ends = np.append(ends, len(block))
            lo, hi = np.searchsorted(wanted, [line, line + len(ends)])
            take = wanted[lo:hi] - line  # line k of the block ends at ends[k]
            first, last = np.diff(take, prepend=-2) != 1, np.diff(take, append=-2) != 1
            starts = np.concatenate([[0], ends[:-1]])
            view = memoryview(block)
            for a, b in zip(starts[take[first]].tolist(), ends[take[last]].tolist()):
                fh.write(view[a:b])
            if not data:
                return
            carry = block[ends[-1]:] if len(ends) else block
            line += len(ends)


def write_table(path: str, header: list[str], rows) -> None:
    """Write a small table as CSV: floats as their ``repr``, text quoted as
    ``csv.writer`` quotes it, other cells as ``str``."""

    def cell(v) -> str:
        if isinstance(v, float):
            return repr(float(v))
        return _csv_field(v, alone=False) if isinstance(v, str) else str(v)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(cell, header)) + "\n")
        for row in rows:
            fh.write(",".join(map(cell, row)) + "\n")


# ---------------------------------------------------------------------------
# synthetic generation


@dataclass(frozen=True)
class MarginalTarget:
    """Target marginal distribution for one generated feature."""

    name: str
    kind: str = "continuous"
    mean: float = 0.0
    sd: float = 1.0
    min: float = -math.inf
    max: float = math.inf
    levels: int = 2  # categorical only

    def __post_init__(self) -> None:
        if self.kind not in FEATURE_KINDS:
            raise DatasetError(f"unknown feature kind {self.kind!r} for {self.name!r}")
        if self.sd < 0:
            raise DatasetError(f"degenerate marginal for {self.name!r}: sd < 0")
        if self.max < self.min:
            raise DatasetError(f"degenerate marginal for {self.name!r}: max < min")
        if self.kind == "categorical" and self.levels < 2:
            raise DatasetError(f"categorical {self.name!r} needs >= 2 levels")
        if self.kind == "binary" and not 0.0 <= self.mean <= 1.0:
            raise DatasetError(f"binary {self.name!r} needs mean in [0, 1]")


@dataclass(frozen=True)
class Signal:
    """Latent generating function: linear terms plus pairwise interactions.

    Coefficients apply to features standardized by their marginal targets,
    so signal strength is comparable across features. At least one
    interaction term must be present (its coefficient may be zero).
    """

    linear: dict[str, float] = field(default_factory=dict)
    interactions: tuple[tuple[str, str, float], ...] = ()

    def __post_init__(self) -> None:
        if len(self.interactions) < 1:
            raise DatasetError("signal needs at least one pairwise interaction term")


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a seeded synthetic dataset with a controllable rare outcome."""

    n: int
    positive_rate: float
    feature_marginals: tuple[MarginalTarget, ...]
    signal: Signal
    anomaly_shift: dict[str, float] = field(default_factory=dict)
    label_name: str = "outcome"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DatasetError("n must be >= 1")
        if not 0.0 < self.positive_rate < 1.0:
            raise DatasetError("positive_rate must lie in (0, 1)")
        names = {m.name for m in self.feature_marginals}
        if len(names) != len(self.feature_marginals):
            raise DatasetError("duplicate feature names in marginals")
        for ref in list(self.signal.linear) + [
            n for a, b, _ in self.signal.interactions for n in (a, b)
        ]:
            if ref not in names:
                raise DatasetError(f"signal references unknown feature {ref!r}")
        for ref in self.anomaly_shift:
            if ref not in names:
                raise DatasetError(f"anomaly_shift references unknown feature {ref!r}")
            kind = next(m.kind for m in self.feature_marginals if m.name == ref)
            if kind != "continuous":
                raise DatasetError(f"anomaly_shift only applies to continuous features ({ref!r})")


def _standardized(column: np.ndarray, target: MarginalTarget) -> np.ndarray:
    scale = target.sd if target.sd > 0 else 1.0
    return (column - target.mean) / scale


def _calibrate_intercept(latent: np.ndarray, rate: float) -> float:
    """Bisect the intercept b so that mean(sigmoid(latent + b)) == rate."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # a fixed point: no later step moves the midpoint
            break
        mean = float(np.mean(1.0 / (1.0 + np.exp(-(latent + mid)))))
        if mean < rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def synth_generate(spec: SynthSpec) -> Dataset:
    """Generate a Dataset from a SynthSpec, deterministically in (spec, seed).

    Features are drawn independently per column: clipped normals for
    continuous targets, Bernoulli(mean) for binary, uniform over levels for
    categorical. The label is Bernoulli per row with probability
    sigmoid(latent + b); the intercept b is calibrated so the mean
    probability equals ``positive_rate`` (zero signal makes every row's
    probability exactly the target rate). Positive rows then receive the
    per-feature ``anomaly_shift``, which may push cells past the marginal
    clip bounds by design.
    """
    rng = generator(child_seed(spec.seed, "synth"))
    n = spec.n
    columns: dict[str, np.ndarray] = {}
    features: list[Feature] = []
    for target in spec.feature_marginals:
        if target.kind == "continuous":
            col = rng.normal(target.mean, target.sd, size=n)
            col = np.clip(col, target.min, target.max)
            features.append(Feature(target.name, "continuous"))
        elif target.kind == "binary":
            col = (rng.random(n) < target.mean).astype(np.float64)
            features.append(Feature(target.name, "binary"))
        else:
            col = rng.integers(0, target.levels, size=n).astype(np.float64)
            levels = tuple(f"L{i}" for i in range(target.levels))
            features.append(Feature(target.name, "categorical", levels))
        columns[target.name] = col

    targets = {m.name: m for m in spec.feature_marginals}
    latent = np.zeros(n, dtype=np.float64)
    for name, coef in spec.signal.linear.items():
        if coef != 0.0:
            latent += coef * _standardized(columns[name], targets[name])
    for a, b, coef in spec.signal.interactions:
        if coef != 0.0:
            latent += coef * _standardized(columns[a], targets[a]) * _standardized(
                columns[b], targets[b]
            )

    intercept = _calibrate_intercept(latent, spec.positive_rate)
    prob = 1.0 / (1.0 + np.exp(-(latent + intercept)))
    label = (rng.random(n) < prob).astype(np.int64)

    for name, shift in spec.anomaly_shift.items():
        if shift != 0.0:
            col = columns[name].copy()
            col[label == 1] += shift
            columns[name] = col

    values = np.column_stack([columns[f.name] for f in features])
    return Dataset(features=tuple(features), values=values, labels={spec.label_name: label})


# ---------------------------------------------------------------------------
# stratified splitting


@dataclass(frozen=True)
class SplitPair:
    """Train/test partition of a source dataset, stratified on one label."""

    train: Dataset
    test: Dataset
    train_rows: np.ndarray
    test_rows: np.ndarray


def stratified_split(ds: Dataset, fraction: float, label: str, seed: int) -> SplitPair:
    """Split per class: train takes floor(fraction * class count), rest test.

    Rows within each class are shuffled by the seed before the cut; both
    sides keep ascending source-row order so output is independent of class
    processing order. Classes are processed in ascending label value. The
    pair's ``train_rows`` and ``test_rows`` hold those source-row indices, so
    ``ds.subset_rows(pair.train_rows)`` is ``pair.train``.
    """
    if not 0.0 < fraction < 1.0:
        raise DatasetError(f"fraction must lie strictly in (0, 1), got {fraction}")
    y = ds.label(label)
    rng = generator(child_seed(seed, "split"))
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for cls in (0, 1):
        members = np.flatnonzero(y == cls)
        if members.size == 0:
            raise DatasetError(f"label {label!r} has no rows of class {cls}")
        shuffled = members[rng.permutation(members.size)]
        cut = int(math.floor(fraction * members.size))
        train_idx.append(shuffled[:cut])
        test_idx.append(shuffled[cut:])
    train_rows = np.sort(np.concatenate(train_idx))
    test_rows = np.sort(np.concatenate(test_idx))
    return SplitPair(ds.subset_rows(train_rows), ds.subset_rows(test_rows), train_rows, test_rows)
