"""Convergence-of-evidence combiner.

Combines a pixel/object's color name with caller-supplied shape, texture
and spatial-relationship memberships through the fuzzy-AND (min) operator,
stratified by a binary legend relation: classes the relation bars score
exactly zero no matter what the other memberships say.  Scores are
memberships, not probabilities; no normalization is applied.

Vectors are held in a columnar ``EvidenceTable``: the vector ids in
first-appearance order, one relation row per vector, and ``(n, classes)``
shape, texture and spatial arrays in the relation's reference-class order.
``score_table`` is the one fuzzy-AND kernel; ``combine`` scores a single
``EvidenceVector`` through it.  ``read_evidence_csv`` fills the table from
a long-format CSV read through ``compare.csv_columns``; ``compare.csv_rows``
holds the CSV rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, cycle, repeat
from pathlib import Path

import numpy as np

from .compare import LegendRelation, csv_columns, parse_column
from .errors import ConfigError, DataError

_MEMBERSHIPS = ("shape", "texture", "spatial")
_COLUMNS = ("id", "color_name", "class_name") + _MEMBERSHIPS


def _outside_unit(values: np.ndarray) -> np.ndarray:
    """Mask of memberships that are not finite values in [0, 1]; NaN is outside."""
    return ~((values >= 0.0) & (values <= 1.0))


@dataclass
class EvidenceVector:
    color_name: str
    shape: np.ndarray    # per-class membership in [0, 1]
    texture: np.ndarray
    spatial: np.ndarray

    def __post_init__(self):
        self.shape = np.asarray(self.shape, dtype=np.float64)
        self.texture = np.asarray(self.texture, dtype=np.float64)
        self.spatial = np.asarray(self.spatial, dtype=np.float64)
        for name, arr in (("shape", self.shape), ("texture", self.texture),
                          ("spatial", self.spatial)):
            if arr.ndim != 1:
                raise DataError(f"{name} memberships must be a 1-D vector")
            if _outside_unit(arr).any():
                raise DataError(f"{name} memberships must be finite and lie in [0, 1]")


@dataclass
class ClassScores:
    class_names: tuple[str, ...]
    values: np.ndarray  # per-class score in [0, 1]


@dataclass(eq=False)
class EvidenceTable:
    """Columnar evidence: row ``i`` is vector ``ids[i]``.

    Membership columns are in the reference-class order of the relation the
    table was read against.
    """

    ids: list[str]        # vector ids, first-appearance order
    colors: np.ndarray    # (n,) intp row of the relation's test names
    shape: np.ndarray     # (n, classes) float64 membership in [0, 1]
    texture: np.ndarray
    spatial: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def score_table(table: EvidenceTable, rel: LegendRelation) -> np.ndarray:
    """``(n, classes)`` scores: min(relation[color, c], shape, texture, spatial)."""
    gate = rel.matrix.astype(np.float64)[table.colors]
    return np.minimum(np.minimum(np.minimum(gate, table.shape), table.texture),
                      table.spatial)


def combine(ev: EvidenceVector, rel: LegendRelation) -> ClassScores:
    """score(c) = min(relation[color, c], shape(c), texture(c), spatial(c))."""
    try:
        row = rel.test_names.index(ev.color_name)
    except ValueError:
        raise ConfigError(f"unknown color name {ev.color_name!r}") from None
    rc = len(rel.ref_names)
    for name, arr in (("shape", ev.shape), ("texture", ev.texture),
                      ("spatial", ev.spatial)):
        if arr.shape != (rc,):
            raise DataError(
                f"{name} memberships have {arr.size} entries for {rc} classes"
            )
    one = EvidenceTable([""], np.array([row]), ev.shape[np.newaxis],
                        ev.texture[np.newaxis], ev.spatial[np.newaxis])
    return ClassScores(rel.ref_names, score_table(one, rel)[0])


# ---------------------------------------------------------------------------
# CSV interface (long format: one row per vector id and class)
# ---------------------------------------------------------------------------


def _codes(values: list[str]) -> tuple[list[str], np.ndarray]:
    """Distinct values in first-appearance order, and each value's index there."""
    distinct = dict.fromkeys(values)
    index = {v: i for i, v in enumerate(distinct)}
    return list(distinct), np.fromiter(map(index.__getitem__, values), np.intp,
                                       len(values))


def read_evidence_csv(path: Path | str, rel: LegendRelation) -> EvidenceTable:
    """Read ``id,color_name,class_name,shape,texture,spatial`` rows.

    Every vector id must supply one row per reference class of the relation,
    all with the same color name, and memberships in [0, 1].  Extra named
    columns are ignored.  Each refusal names the path and the line at fault,
    but a vector lacking classes has no one line and names only the path.
    """
    lines, (ids, colors, classes, *texts) = csv_columns(path, _COLUMNS)
    memberships = [parse_column(path, name, column, lines)
                   for name, column in zip(_MEMBERSHIPS, texts)]

    rc = len(rel.ref_names)
    vector_ids, vec = _codes(ids)
    n = len(vector_ids)
    first = np.unique(vec, return_index=True)[1]

    color_names, color = _codes(colors)
    other = np.flatnonzero(color != color[first][vec])
    if other.size:
        raise DataError(f"{path}: line {lines[other[0]]}: vector "
                        f"{ids[other[0]]!r} has two color names")

    class_names, cls = _codes(classes)
    ref_index = {name: j for j, name in enumerate(rel.ref_names)}
    unknown = [name for name in class_names if name not in ref_index]
    if unknown:
        row = classes.index(unknown[0])
        raise DataError(f"{path}: line {lines[row]}: class {unknown[0]!r} "
                        "is not a reference class of the relation")
    cell = vec * rc + np.array([ref_index[name] for name in class_names],
                               np.intp)[cls]
    filled = np.bincount(cell, minlength=n * rc)
    if (filled > 1).any():
        order = np.argsort(cell, kind="stable")
        repeated = order[1:][cell[order[1:]] == cell[order[:-1]]].min()
        raise DataError(f"{path}: line {lines[repeated]}: vector "
                        f"{ids[repeated]!r} repeats class {classes[repeated]!r}")

    for name, column, values in zip(_MEMBERSHIPS, texts, memberships):
        bad = np.flatnonzero(_outside_unit(values))
        if bad.size:
            raise DataError(f"{path}: line {lines[bad[0]]}: {name} membership "
                            f"{column[bad[0]]!r} is not a number in [0, 1]")

    if (filled == 0).any():
        k = int(np.flatnonzero(filled == 0)[0]) // rc
        missing = [c for c, f in zip(rel.ref_names, filled[k * rc:(k + 1) * rc]) if not f]
        raise DataError(f"{path}: vector {vector_ids[k]!r} lacks classes {sorted(missing)}")

    test_index = {name: i for i, name in enumerate(rel.test_names)}
    rows = np.array([test_index.get(name, -1) for name in color_names], np.intp)
    vector_rows = rows[color[first]]
    if (vector_rows < 0).any():
        k = first[np.flatnonzero(vector_rows < 0)[0]]
        raise ConfigError(f"{path}: line {lines[k]}: unknown color name {colors[k]!r}")

    grids = []
    for values in memberships:
        grid = np.empty(n * rc)
        grid[cell] = values
        grids.append(grid.reshape(n, rc))
    return EvidenceTable(vector_ids, vector_rows, *grids)


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it: quoted if it holds , " CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_scores_csv(path: Path | str, ids: list[str],
                     class_names: tuple[str, ...], values: np.ndarray) -> None:
    """Write ``id,class_name,score`` rows, one per vector and class in order.

    ``values`` is ``(len(ids), len(class_names))``; scores are written as
    ``repr``.  The bytes equal ``csv.writer`` output: CRLF rows, and ids or
    class names quoted where they hold a delimiter, quote or line break.
    """
    rc = len(class_names)
    if values.shape != (len(ids), rc):
        raise DataError(f"{values.shape} scores for {len(ids)} vectors of {rc} classes")
    id_column = chain.from_iterable(repeat(_csv_field(v), rc) for v in ids)
    rows = zip(id_column, cycle(map(_csv_field, class_names)),
               values.ravel().tolist())
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("id,class_name,score\r\n")
        f.write("".join(["%s,%s,%r\r\n" % row for row in rows]))
