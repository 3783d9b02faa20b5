"""Comparison of categorical maps whose legends differ.

Covers contingency-table construction, the eight-step hybrid harmonization
protocol (steps 1-7 data-driven, step 8 as an auditable human override
file), the CVPAI2 association index of a binary legend relation and
``csv_rows``, the one reader of every CSV input, which holds its rules.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    AmbiguousMappingError,
    ConfigError,
    DataError,
    DimensionMismatchError,
    FormatError,
    MappingError,
    SpecmapError,
)
from .raster import (
    MAX_LABEL, CategoricalMap, LegendEntry, check_legend, default_strip_height, strip_bounds,
)


@dataclass(frozen=True)
class Override:
    """One expert decision on a relation cell, with its mandatory rationale."""

    test_label: str
    ref_label: str
    value: int
    note: str

    def __post_init__(self):
        if self.value not in (0, 1):
            raise ConfigError(f"override value must be 0 or 1, got {self.value}")
        if not self.note.strip():
            raise ConfigError(
                f"override ({self.test_label}, {self.ref_label}) needs a note"
            )


def _refuse_repeated_names(test_names: tuple[str, ...], ref_names: tuple[str, ...]) -> None:
    """A dictionary names each class once: a repeated name is a DataError."""
    for side, names in (("test", test_names), ("reference", ref_names)):
        seen: set[str] = set()
        for name in names:
            if name in seen:
                raise DataError(f"repeated {side} name {name!r}")
            seen.add(name)


@dataclass
class LegendRelation:
    """Binary correct-pair matrix between a test and a reference dictionary."""

    test_names: tuple[str, ...]
    ref_names: tuple[str, ...]
    matrix: np.ndarray  # (TC, RC) int8 in {0, 1}
    audit: tuple[Override, ...] = ()

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.int8)
        self.test_names = tuple(self.test_names)
        self.ref_names = tuple(self.ref_names)
        if self.matrix.shape != (len(self.test_names), len(self.ref_names)):
            raise DimensionMismatchError(
                f"relation matrix {self.matrix.shape} does not match "
                f"dictionaries ({len(self.test_names)}, {len(self.ref_names)})"
            )
        if not np.isin(self.matrix, (0, 1)).all():
            raise DataError("relation entries must be binary")
        _refuse_repeated_names(self.test_names, self.ref_names)

    @property
    def correct_pairs(self) -> int:
        return int(self.matrix.sum())


@dataclass
class ContingencyTable:
    test_names: tuple[str, ...]
    ref_names: tuple[str, ...]
    counts: np.ndarray  # (TC, RC) int64

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.test_names = tuple(self.test_names)
        self.ref_names = tuple(self.ref_names)
        if self.counts.shape != (len(self.test_names), len(self.ref_names)):
            raise DimensionMismatchError(
                "counts shape does not match dictionary cardinalities"
            )
        if (self.counts < 0).any():
            raise DataError("contingency counts must be non-negative")
        _refuse_repeated_names(self.test_names, self.ref_names)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class HarmonizationTrace:
    """Matrices of protocol steps 1-7 and their thresholds; ``apply_overrides``
    makes the step-8 relation from them."""

    table: ContingencyTable
    th1: float
    th2: float
    joint: np.ndarray               # step 2: counts / N
    ref_given_test: np.ndarray      # step 3: p(r | t), rows
    kept_by_row: np.ndarray         # step 4: [p(r | t) >= TH1]
    test_given_ref: np.ndarray      # step 5: p(t | r), columns
    kept_by_col: np.ndarray         # step 6: [p(t | r) >= TH2]
    temporary: np.ndarray           # step 7: elementwise max (logical OR)


def _position_lut(legend: Sequence[LegendEntry]) -> np.ndarray:
    """Label value -> position in ``legend``; every other value -> ``len(legend)``."""
    lut = np.full(MAX_LABEL + 1, len(legend), dtype=np.intp)
    lut[[e.label for e in legend]] = np.arange(len(legend))
    return lut


def build_contingency(test, reference, strip_height: int | None = None) -> ContingencyTable:
    """Count co-occurring (test label, reference label) pairs over valid pixels.

    ``test`` and ``reference`` are ``CategoricalMap``s or map sources
    (``open_map``, ``translate_legend``); both are read with ``rows``,
    ``strip_height`` rows at a time (default: about ``STRIP_PIXELS``
    pixels), and each strip adds one ``bincount``.  Memory stays fixed.
    """
    if (test.height, test.width) != (reference.height, reference.width):
        raise DimensionMismatchError("test and reference maps differ in shape")
    tc, rc = len(test.legend), len(reference.legend)
    # Nodata lands in the extra last row or column, which is dropped.
    t_index = _position_lut(test.legend)
    r_index = _position_lut(reference.legend)
    cells = np.zeros((tc + 1) * (rc + 1), dtype=np.int64)
    rows = strip_height or default_strip_height(test.width)
    for row0, row1 in strip_bounds(test.height, rows):
        pair = t_index[test.rows(row0, row1)]
        pair *= rc + 1
        pair += r_index[reference.rows(row0, row1)]
        cells += np.bincount(pair.ravel(), minlength=cells.size)
    counts = cells.reshape(tc + 1, rc + 1)[:tc, :rc]
    if not counts.any():
        raise DataError("empty overlap: no pixel is valid in both maps")
    return ContingencyTable(
        tuple(e.name for e in test.legend), tuple(e.name for e in reference.legend),
        counts,
    )


def harmonize(table: ContingencyTable, th1: float, th2: float) -> HarmonizationTrace:
    """Run protocol steps 2-7.

    A cell survives thresholding when its conditional probability is >= the
    threshold; rows or columns with zero marginals yield all-zero
    conditionals rather than errors.
    """
    if not (0.0 <= th2 <= th1 <= 1.0):
        raise ConfigError(f"need 0 <= TH2 <= TH1 <= 1, got TH1={th1}, TH2={th2}")
    n = table.total
    if n == 0:
        raise DataError("contingency table is empty (N = 0)")
    counts = table.counts.astype(np.float64)
    joint = counts / n
    row_marginal = counts.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        ref_given_test = np.where(row_marginal > 0, counts / row_marginal, 0.0)
    col_marginal = counts.sum(axis=0, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        test_given_ref = np.where(col_marginal > 0, counts / col_marginal, 0.0)
    kept_by_row = (ref_given_test >= th1).astype(np.int8)
    kept_by_col = (test_given_ref >= th2).astype(np.int8)
    temporary = np.maximum(kept_by_row, kept_by_col)
    return HarmonizationTrace(
        table, th1, th2, joint, ref_given_test, kept_by_row,
        test_given_ref, kept_by_col, temporary,
    )


def apply_overrides(
    trace: HarmonizationTrace, overrides: Sequence[Override]
) -> LegendRelation:
    """Protocol step 8: expert decisions replace step-7 cells, audited; ``trace``
    is left as it was."""
    test_names = trace.table.test_names
    ref_names = trace.table.ref_names
    matrix = trace.temporary.astype(np.int8).copy()
    seen: set[tuple[str, str]] = set()
    for ov in overrides:
        key = (ov.test_label, ov.ref_label)
        if key in seen:
            raise MappingError(f"duplicate override for cell {key}")
        seen.add(key)
        try:
            t = test_names.index(ov.test_label)
        except ValueError:
            raise MappingError(f"unknown test label {ov.test_label!r}") from None
        try:
            r = ref_names.index(ov.ref_label)
        except ValueError:
            raise MappingError(f"unknown reference label {ov.ref_label!r}") from None
        matrix[t, r] = ov.value
    return LegendRelation(test_names, ref_names, matrix, tuple(overrides))


def cvpai2(rel: LegendRelation) -> float:
    """Association index of a binary relation, in [0, 1].

    Column sums contribute 1 when the reference class is covered at all;
    row sums contribute a Gaussian membership centered on one match per
    test class with spread RC / 3.  Zero relation scores 0; a relation that
    is a function covering every reference class scores exactly 1.
    """
    tc, rc = rel.matrix.shape
    if tc < 1 or rc < 1:
        raise DataError("relation must have at least one row and one column")
    col_sums = rel.matrix.sum(axis=0)
    row_sums = rel.matrix.sum(axis=1)
    f_rc = (col_sums > 0).astype(np.float64)
    stddev = rc / 3.0
    gauss = np.exp(-((row_sums - 1.0) ** 2) / (2.0 * stddev * stddev))
    f_tc = np.where(row_sums == 0, 0.0, gauss)
    return float((f_rc.sum() + f_tc.sum()) / (rc + tc))


# ---------------------------------------------------------------------------
# Legend translation (child -> parent over a different legend)
# ---------------------------------------------------------------------------


@dataclass
class LegendAggregation:
    """Child-label to parent-label function between two legends."""

    mapping: dict[int, int]
    parent_legend: tuple[LegendEntry, ...]

    def __post_init__(self):
        parents = {e.label for e in self.parent_legend}
        missing = set(self.mapping.values()) - parents
        if missing:
            raise ConfigError(
                f"mapping targets missing from parent legend: {sorted(missing)}"
            )


@dataclass(frozen=True)
class MappingRow:
    child_label: int
    child_name: str
    parent_label: int
    parent_name: str


def auto_color(i: int) -> tuple[int, int, int]:
    """Deterministic, well-spread colors for synthesized legend entries."""
    import colorsys

    hue = (i * 0.6180339887498949) % 1.0
    r, g, b = colorsys.hsv_to_rgb(hue, 0.55, 0.92)
    return (int(r * 255), int(g * 255), int(b * 255))


class RelabelledMap:
    """A map source whose u16 rows pass through a lookup table as they are read."""

    def __init__(self, source, lut: np.ndarray, legend: tuple[LegendEntry, ...]):
        self._source, self._lut, self.legend = source, lut, legend
        self.height, self.width = source.height, source.width

    def rows(self, row0: int, row1: int) -> np.ndarray:
        return self._lut[self._source.rows(row0, row1)]


def relabel_table(legend: tuple[LegendEntry, ...], agg: LegendAggregation) -> np.ndarray:
    """The 65 536-entry u16 table taking each label of ``legend`` to its parent.

    Both legends must pass ``check_legend``, and every label of ``legend``
    must be in the mapping domain, whether or not a pixel carries it.  Only
    the legend's labels enter the table, so a child outside it, even a
    negative one that would index from the end, cannot change the result;
    every other value, nodata included, maps to nodata.
    """
    check_legend(legend)
    missing = {e.label for e in legend} - set(agg.mapping)
    if missing:
        raise MappingError(
            f"mapping is not total: no parent for labels {sorted(missing)}"
        )
    check_legend(agg.parent_legend)
    lut = np.zeros(MAX_LABEL + 1, dtype=np.uint16)
    for e in legend:
        lut[e.label] = agg.mapping[e.label]
    return lut


def translate_legend(cmap, agg: LegendAggregation):
    """Relabel a map onto the parent legend through ``relabel_table``.

    A ``CategoricalMap`` comes back relabelled; any other map source comes
    back as a ``RelabelledMap`` that relabels each strip as it is read,
    after the source has checked its raw labels.
    """
    lut = relabel_table(cmap.legend, agg)
    if isinstance(cmap, CategoricalMap):
        return CategoricalMap(lut[cmap.labels], agg.parent_legend)
    return RelabelledMap(cmap, lut, agg.parent_legend)


def read_legend_mapping(path: Path | str) -> list[MappingRow]:
    """Read mapping rows; a child listed with several parents is ambiguous."""
    columns = ("child_label", "child_name", "parent_label", "parent_name")
    lines, (children, child_names, parents, parent_names) = csv_columns(path, columns)
    return list(map(MappingRow, parse_column(path, columns[0], children, lines, int),
                    child_names, parse_column(path, columns[2], parents, lines, int),
                    parent_names))


def read_resolution(path: Path | str) -> dict[int, int]:
    """Read a ``child_label,parent_label`` CSV; a repeated child is a FormatError."""
    columns = ("child_label", "parent_label")
    lines, texts = csv_columns(path, columns)
    children, parents = (parse_column(path, name, column, lines, int)
                         for name, column in zip(columns, texts))
    mapping: dict[int, int] = {}
    for line, child, parent in zip(lines, children, parents):
        if child in mapping:
            raise FormatError(f"{path}: line {line}: duplicate child_label {child}")
        mapping[child] = parent
    return mapping


def read_aggregation(path: Path | str) -> LegendAggregation:
    """Read a ``child_label,parent_label`` CSV as an aggregation.

    The parent legend's entries are ``class-<label>`` with generated colors.
    """
    mapping = read_resolution(path)
    parents = sorted(set(mapping.values()))
    return LegendAggregation(mapping, tuple(
        LegendEntry(p, f"class-{p}", auto_color(i)) for i, p in enumerate(parents)))


def build_translation(
    rows: Iterable[MappingRow], resolution: dict[int, int] | None = None
) -> LegendAggregation:
    """Collapse mapping rows into a function over the listed children.

    Children with several candidate parents must be decided by the
    resolution; otherwise AmbiguousMappingError lists them.  A parent label
    listed under two different names is a MappingError.
    """
    candidates: dict[int, dict[int, str]] = {}
    parent_names: dict[int, str] = {}
    for row in rows:
        candidates.setdefault(row.child_label, {})[row.parent_label] = row.parent_name
        known = parent_names.setdefault(row.parent_label, row.parent_name)
        if known != row.parent_name:
            raise MappingError(
                f"parent label {row.parent_label} is named both {known!r} "
                f"and {row.parent_name!r}"
            )
    mapping: dict[int, int] = {}
    unresolved: list[int] = []
    for child, parents in candidates.items():
        if len(parents) == 1:
            mapping[child] = next(iter(parents))
        elif resolution is not None and child in resolution:
            pick = resolution[child]
            if pick not in parents:
                raise MappingError(
                    f"resolution maps child {child} to {pick}, which is not "
                    f"among its candidates {sorted(parents)}"
                )
            mapping[child] = pick
        else:
            unresolved.append(child)
    if unresolved:
        raise AmbiguousMappingError(unresolved)
    legend = tuple(
        LegendEntry(label, parent_names[label], auto_color(i))
        for i, label in enumerate(sorted(parent_names))
    )
    return LegendAggregation(mapping, legend)


# ---------------------------------------------------------------------------
# CSV I/O for tables, matrices, relations and overrides
# ---------------------------------------------------------------------------


def csv_rows(path: Path | str, columns: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line, fields)`` of each non-blank row of a CSV, the header first.

    The one CSV reader of every table input.  The text is UTF-8 and blank
    lines are skipped, before the header too.  The header names each of
    ``columns`` once, and every later row has the header's field count.  A
    quoted field must be closed before the end of the text.  Anything else,
    and any ``csv`` module error, is a ``FormatError`` naming the path and
    line; a file with no header names only the path.
    """
    try:
        with open(path, newline="", encoding="utf-8") as f:
            ended = []

            def end_mark():
                ended.append(True)
                yield "\n"

            # The mark after the last line is a blank row, unless a quoted
            # field is still open: the ``csv`` module then ends the field
            # and its row there, without an error.
            reader = csv.reader(chain(f, end_mark()))
            rows = filter(None, reader)
            header = next(rows, None)
            if header is None:
                raise FormatError(f"{path}: no header line")
            if ended:
                raise _open_quote(path, reader.line_num, header[-1])
            for name in columns:
                if header.count(name) != 1:
                    raise FormatError(f"{path}: line {reader.line_num}: header names "
                                      f"{name!r} {header.count(name)} times, not once")
            yield reader.line_num, header
            for row in rows:
                if ended:
                    raise _open_quote(path, reader.line_num, row[-1])
                if len(row) != len(header):
                    raise FormatError(f"{path}: line {reader.line_num}: ragged CSV, "
                                      f"{len(row)} fields where the header has {len(header)}")
                yield reader.line_num, row
    except csv.Error as exc:
        raise FormatError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        with open(path, newline="", encoding="utf-8", errors="surrogateescape") as f:
            # Only an undecodable byte escapes to a lone surrogate.
            line = next(n for n, text in enumerate(f, 1) if re.search("[\udc80-\udcff]", text))
        raise FormatError(f"{path}: line {line}: not UTF-8 text") from None


#: A line break as text files split lines at; a quoted field keeps it.
_LINE_BREAK = re.compile("\r\n|\r|\n")


def _open_quote(path, line: int, field: str) -> FormatError:
    """The refusal of a quoted ``field`` left open until the end mark on ``line``.

    Each line the field spans ends in a line break, the mark's too, apart
    from the last line of a text that does not end in one.
    """
    text = field[:-1]  # without the mark's break
    spanned = len(_LINE_BREAK.findall(text)) + (not text.endswith(("\n", "\r")))
    return FormatError(f"{path}: line {line - spanned}: quoted field is never closed")


def parse_column(path: Path | str, name: str, texts: Sequence[str],
                 lines: Sequence[int], kind: type = float):
    """``texts``, the ``name`` cells of rows at ``lines``, parsed with ``kind``.

    ``float`` gives a float64 array, ``int`` a list of ints.  A text that
    does not parse is a ``FormatError`` naming the first such line.
    """
    try:
        if kind is float:
            return np.fromiter(map(float, texts), np.float64, len(texts))
        return list(map(int, texts))
    except ValueError:
        for text, line in zip(texts, lines):
            try:
                kind(text)
            except ValueError:
                what = "numeric" if kind is float else "integer"
                raise FormatError(f"{path}: line {line}: non-{what} {name} {text!r}") from None
        raise


def csv_columns(path: Path | str,
                columns: Sequence[str]) -> tuple[list[int], list[list[str]]]:
    """The line of each data row of a CSV, and the texts of each of ``columns``.

    Rows are gathered 64 at a time, few enough to stay in cache; no list
    of all rows is built.
    """
    rows = csv_rows(path, columns)
    _, header = next(rows)
    picks = [itemgetter(header.index(name)) for name in columns]
    lines, texts = [], [[] for _ in columns]
    while chunk := list(islice(rows, 64)):
        chunk_lines, fields = zip(*chunk)
        lines.extend(chunk_lines)
        for column, pick in zip(texts, picks):
            column.extend(map(pick, fields))
    return lines, texts


def write_matrix_csv(
    path: Path | str,
    test_names: Sequence[str],
    ref_names: Sequence[str],
    matrix: np.ndarray,
) -> None:
    """Named matrix CSV: integer cells as ``str(int)``, others as ``repr(float)``."""
    matrix = np.asarray(matrix)
    cell = int if np.issubdtype(matrix.dtype, np.integer) else float
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow([""] + list(ref_names))
        for name, row in zip(test_names, matrix):
            writer.writerow([name] + [repr(cell(v)) for v in row])


def _read_matrix(path: Path | str):
    """The contingency and relation readers' named matrix: its distinct test
    names, distinct reference names, float64 cells and each row's line."""
    rows = csv_rows(path, ())
    header_line, header = next(rows)
    ref_names = tuple(header[1:])
    if len(set(ref_names)) < len(ref_names):
        raise FormatError(f"{path}: line {header_line}: repeated reference names")
    body = list(rows)
    if not body:
        raise FormatError(f"{path}: matrix CSV needs a header and one row")
    lines = [line for line, _ in body]
    test_names = tuple(row[0] for _, row in body)
    seen: set[str] = set()
    for line, name in zip(lines, test_names):
        if name in seen:
            raise FormatError(f"{path}: line {line}: repeated test name {name!r}")
        seen.add(name)
    cells = parse_column(path, "cell", [v for _, row in body for v in row[1:]],
                         [line for line in lines for _ in ref_names])
    return test_names, ref_names, cells.reshape(len(body), len(ref_names)), lines


def write_contingency_csv(path: Path | str, table: ContingencyTable) -> None:
    write_matrix_csv(path, table.test_names, table.ref_names, table.counts)


def read_contingency_csv(path: Path | str) -> ContingencyTable:
    test_names, ref_names, values, lines = _read_matrix(path)
    # Range first: the int64 cast of NaN, inf or 2**63 is undefined.
    bad = np.argwhere(~((values >= 0) & (values < 2.0**63) & (values == np.floor(values))))
    if bad.size:
        raise FormatError(f"{path}: line {lines[bad[0, 0]]}: contingency counts "
                          "must be non-negative integers")
    return ContingencyTable(test_names, ref_names, values.astype(np.int64))


def read_relation_csv(path: Path | str) -> LegendRelation:
    test_names, ref_names, values, lines = _read_matrix(path)
    bad = np.argwhere(~np.isin(values, (0.0, 1.0)))
    if bad.size:
        raise FormatError(f"{path}: line {lines[bad[0, 0]]}: relation entries must be 0 or 1")
    return LegendRelation(test_names, ref_names, values.astype(np.int8))


def write_relation_csv(path: Path | str, rel: LegendRelation) -> None:
    write_matrix_csv(path, rel.test_names, rel.ref_names, rel.matrix)


def read_overrides_csv(path: Path | str) -> list[Override]:
    columns = ("test_label", "reference_label", "value", "note")
    lines, (tests, refs, values, notes) = csv_columns(path, columns)
    overrides = []
    for line, *fields in zip(lines, tests, refs,
                             parse_column(path, "value", values, lines, int), notes):
        try:
            overrides.append(Override(*fields))
        except SpecmapError as exc:
            raise exc.at(f"{path}: line {line}")
    return overrides
