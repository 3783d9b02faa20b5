"""Cell, row, byte and header-column edits of valid CSV inputs.

Every example either reads back as the reader's type or is refused with a
``SpecmapError`` that names the file at fault and, when one row is at
fault, its line.  Refusals about the file as a whole name only the path:
a file with no header, a matrix with no rows and an evidence vector that
lacks classes.  An edit that breaks a CSV rule outright (a byte that is
not UTF-8, a field over the ``csv`` module's size limit, a header naming a
required column twice, a quote that opens a field and is never closed) must
be refused.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specmap.compare import (
    ContingencyTable,
    LegendAggregation,
    LegendRelation,
    read_aggregation,
    read_contingency_csv,
    read_legend_mapping,
    read_overrides_csv,
    read_relation_csv,
    read_resolution,
)
from specmap.errors import SpecmapError
from specmap.evidence import EvidenceTable, read_evidence_csv

RELATION = LegendRelation(("green", "white"), ("forest", "water", "roof"),
                          np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int8))

#: reader -> (read, valid rows with the header first, type read, whether
#: the first column is a row name rather than a required column).
READERS = {
    "evidence": (lambda p: read_evidence_csv(p, RELATION), [
        ["id", "color_name", "class_name", "shape", "texture", "spatial"],
        ["v1", "green", "forest", "0.6", "0.9", "0.7"],
        ["v1", "green", "water", "1.0", "0.25", "1"],
        ["v1", "green", "roof", "0", "1", "0.5"],
        ["v2", "white", "roof", "0.1", "0.2", "0.3"],
        ["v2", "white", "water", "1", "1", "1"],
        ["v2", "white", "forest", "0.4", "0.5", "0.6"],
    ], EvidenceTable, False),
    "relation": (read_relation_csv, [
        ["", "forest", "water", "roof"], ["green", "1", "0", "1"], ["white", "0", "1", "1"],
    ], LegendRelation, True),
    "contingency": (read_contingency_csv, [
        ["", "a", "b"], ["x", "3", "0"], ["y", "1", "2"],
    ], ContingencyTable, True),
    "resolution": (read_resolution, [
        ["child_label", "parent_label"], ["1", "1"], ["2", "1"], ["3", "2"],
    ], dict, False),
    "aggregation": (read_aggregation, [
        ["child_label", "parent_label"], ["1", "1"], ["2", "1"], ["3", "2"],
    ], LegendAggregation, False),
    "mapping": (read_legend_mapping, [
        ["child_label", "child_name", "parent_label", "parent_name"],
        ["1", "a", "1", "P"], ["2", "b", "1", "P"], ["3", "c", "2", "Q"],
    ], list, False),
    "overrides": (read_overrides_csv, [
        ["test_label", "reference_label", "value", "note"],
        ["x", "a", "0", "why"], ["y", "b", "1", "because"],
    ], list, False),
}
VALUES = ("", "x", "nan", "inf", "-1", "1e400", 'a"b', '"', "a\rb")
WHOLE_FILE = ("no header line", "matrix CSV needs a header and one row", "lacks classes")
#: Longer than the ``csv`` module's default field size limit.
OVERSIZED = "a" * (128 * 1024 + 1)


def _edit(name):
    rows = READERS[name][1]
    row = st.integers(0, len(rows) - 1)
    col = st.integers(0, len(rows[0]) - 1)
    data_row = st.integers(1, len(rows) - 1)
    size = len(_serialized(rows))
    return st.tuples(st.just(name), st.one_of(
        st.tuples(st.just("drop"), row, col),
        st.tuples(st.just("repeat"), data_row),
        st.tuples(st.just("set"), row, col, st.sampled_from(VALUES)),
        st.tuples(st.just("repeat_column"), col),
        st.tuples(st.just("cut"), st.integers(1, size - 1)),
        st.tuples(st.just("insert_ff"), st.integers(0, size)),
    ))


CASES = st.sampled_from(sorted(READERS)).flatmap(_edit)


def _serialized(rows) -> bytes:
    return "".join(",".join(row) + "\n" for row in rows).encode("utf-8")


def _mutated(rows, edit) -> bytes:
    rows = [list(row) for row in rows]
    op, *args = edit
    if op == "drop":
        del rows[args[0]][args[1]]
    elif op == "repeat":
        rows.insert(args[0], list(rows[args[0]]))
    elif op == "set":
        rows[args[0]][args[1]] = args[2]
    elif op == "repeat_column":
        for row in rows:
            row.append(row[args[0]])
    data = _serialized(rows)
    if op == "cut":
        return data[:args[0]]
    if op == "insert_ff":
        return data[:args[0]] + b"\xff" + data[args[0]:]
    return data


def _must_refuse(name, edit) -> bool:
    op, *args = edit
    if op == "repeat_column":
        return not (READERS[name][3] and args[0] == 0)
    return op == "insert_ff" or (op == "set" and args[2] in (OVERSIZED, '"'))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@settings(max_examples=400, deadline=None)
@given(case=CASES)
# Past mended faults: a short row, a non-integer label, a repeated child,
# a repeated test name and a NaN membership.
@example(case=("resolution", ("drop", 2, 1)))
@example(case=("mapping", ("set", 1, 2, "1.5")))
@example(case=("resolution", ("set", 3, 0, "1")))
@example(case=("relation", ("set", 2, 0, "green")))
@example(case=("evidence", ("set", 4, 3, "nan")))
# A byte that is not UTF-8, a field over the size limit, a repeated header
# column, and the refusals that used to name no path or line.
@example(case=("overrides", ("insert_ff", 50)))
@example(case=("mapping", ("set", 2, 1, OVERSIZED)))
@example(case=("evidence", ("repeat_column", 0)))
@example(case=("resolution", ("repeat_column", 0)))
@example(case=("overrides", ("set", 1, 2, "2")))
@example(case=("overrides", ("set", 2, 3, "")))
@example(case=("contingency", ("set", 1, 1, "1.5")))
@example(case=("contingency", ("set", 2, 2, "inf")))
@example(case=("relation", ("set", 1, 1, "2")))
@example(case=("evidence", ("set", 1, 1, "purple")))
# A quote left open, which used to swallow every later line silently.
@example(case=("overrides", ("set", 1, 3, '"')))
@example(case=("relation", ("set", 1, 1, '"')))
def test_mutated_csv_is_read_or_refused_naming_its_line(work, case):
    name, edit = case
    read, rows, kind, _ = READERS[name]
    path = work / f"{name}.csv"
    path.write_bytes(_mutated(rows, edit))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = read(path)
    except SpecmapError as exc:
        message = str(exc)
        if not any(whole in message for whole in WHOLE_FILE):
            assert re.match(rf"{re.escape(str(path))}: line \d+: ", message), message
        assert message.startswith(f"{path}: "), message
        return
    assert not _must_refuse(name, edit), result
    assert isinstance(result, kind)
