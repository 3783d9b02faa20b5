"""Deterministic run-graph connected components and superpixel description.

Pass 1 encodes every row as runs of equal labels and links each run to the
same-label runs it touches in the row above (He, Chao & Suzuki's run-based
two-scan labeling); pass 2 resolves those links with vectorized
hook-and-compress rounds (Shiloach & Vishkin) and numbers the components in
row-major first-encounter order, which makes output maps reproducible byte
for byte.  The labeler accepts rows incrementally, so strip-streamed
labeling needs no overlap rows and merges across seams by construction.
It keeps each run as a (start column, length) record and the run graph as
int32 while the run count fits it (int64 beyond); ``SegmentPainter`` then
writes the final ids of any rows from those records, so ids are painted a
strip at a time and no id plane need exist.

The superpixel description is a columnar ``SuperpixelTable`` (one array per
attribute, one entry per segment), folded in strip by strip: scattered
counts, labels, minima/maxima and band sums.  Every pixel the map labels
must be valid in the image, so no segment's mean or RMSE takes in a pixel
without data: the fold refuses the first one that is not.
``describe_segments`` labels the map and (pass A) paints each strip's ids
and cross-aura, writes both and folds the table, which must hold every
labelled pixel; ``write_mean_view`` (pass B) paints the ids again with the
same ``SegmentPainter``, writes each strip's mean-view reconstruction and
RMSE, and summarizes the RMSE with ``strip_rmse_stats``, whose bits equal
``RmseMap.stats``'s.  Each pass reads the image once; the summary's second
pass reads back the written RMSE only.  Both passes hold strips, O(runs)
labeling state and O(segments) table state, never a whole plane.  The
whole-image reference runs their code over one strip:
``build_superpixel_table`` is pass A's ``_TableFold`` and ``reconstruct``
pass B's ``_mean_rows``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from . import raster
from .errors import (
    ConfigError,
    DataError,
    DimensionMismatchError,
    FormatError,
    SpecmapError,
)
from .raster import NODATA, CategoricalMap, MapSource, MultiSpectralImage, RunStats, Strip

_OFFSETS_4 = ((-1, 0), (1, 0), (0, -1), (0, 1))
_OFFSETS_8 = _OFFSETS_4 + ((-1, -1), (-1, 1), (1, -1), (1, 1))


def _offsets(adjacency: int):
    if adjacency == 4:
        return _OFFSETS_4
    if adjacency == 8:
        return _OFFSETS_8
    raise ConfigError(f"adjacency must be 4 or 8, got {adjacency}")


#: Work accounting for the linear-time contracts.
OpStats = RunStats


@dataclass
class SegmentationMap:
    segment_ids: np.ndarray  # (height, width) int32, 0 = nodata
    segment_count: int

    def __post_init__(self):
        ids = self.segment_ids = np.asarray(self.segment_ids, dtype=np.int32)
        n = self.segment_count
        if n < 0:
            raise DataError(f"segment count {n} is negative")
        if ids.min(initial=0) < 0:
            raise DataError(f"segment id {int(ids.min())} is negative")
        if ids.max(initial=0) > n:
            raise DataError("segment ids are not dense")
        # A scatter, not a bincount: bincount would cast the plane to intp.
        seen = np.zeros(n + 1, dtype=bool)
        seen[ids] = True
        if not seen[1:].all():
            raise DataError("segment ids are not dense")


@dataclass
class CrossAuraMap:
    counts: np.ndarray  # (height, width) uint8 in {0..adjacency}
    adjacency: int


def compactness(area: np.ndarray, perimeter: np.ndarray) -> np.ndarray:
    """Isoperimetric quotient min(1, 4 pi area / perimeter**2), float64.

    Evaluated left to right as ((4 pi) area) / (p p): another order can
    change the last bit and so the CSV's repr digits.  Only an image-filling
    segment has no contour (perimeter 0); it counts as a disc, 1.0.
    """
    p = np.asarray(perimeter, dtype=np.float64)
    out = np.divide(4.0 * math.pi * area, p * p, out=np.ones(p.shape), where=p > 0)
    return np.minimum(out, 1.0, out=out)


@dataclass(eq=False)
class SuperpixelTable:
    """Columnar superpixel description: row ``i`` describes segment ``i + 1``.

    Every column has one entry per segment; ``label`` with the segment id
    forms the (segment, stratum) 2-tuple.  A segment has at least one pixel
    and a perimeter of at least 0; ``compactness`` is derived from both.
    Every column is read-only once these checks pass.
    """

    counts: np.ndarray       # (n,) int32 pixel count (int64 from 2**31 pixels)
    labels: np.ndarray       # (n,) int32 map label
    min_row: np.ndarray      # (n,) bounding box, inclusive, in counts' dtype
    min_col: np.ndarray
    max_row: np.ndarray
    max_col: np.ndarray
    perimeter: np.ndarray    # (n,) int32 sum of member cross-aura counts
                             # (int64 from 2**28 pixels)
    sums: np.ndarray         # (bands, n) float64 per-band sample sums

    def __post_init__(self):
        n = len(self.counts)
        columns = (self.labels, self.min_row, self.min_col, self.max_row,
                   self.max_col, self.perimeter)
        if any(len(c) != n for c in columns) or self.sums.ndim != 2 \
                or self.sums.shape[1] != n:
            raise DataError("superpixel table columns differ in length")
        if self.counts.min(initial=1) < 1:
            raise DataError(f"superpixel pixel count {int(self.counts.min())} is below 1")
        if self.perimeter.min(initial=0) < 0:
            raise DataError(f"superpixel perimeter {int(self.perimeter.min())} is negative")
        for column in (self.counts, *columns, self.sums):
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def compactness(self) -> np.ndarray:
        """(n,) float64 in (0, 1], read-only: ``compactness(counts, perimeter)``."""
        out = compactness(self.counts, self.perimeter)
        out.flags.writeable = False
        return out


@dataclass
class RmseStats:
    minimum: float
    maximum: float
    mean: float
    stdev: float


@dataclass
class RmseMap:
    values: np.ndarray  # (height, width) float64, invalid pixels zeroed
    validity: np.ndarray

    def stats(self) -> RmseStats:
        """Min, max, mean and population stdev of the valid pixels.

        The stdev takes ``np.std``'s steps, in place on the one copy of
        the valid values, so its bits equal ``np.std``'s.
        """
        v = self.values[self.validity]
        if v.size == 0:
            return RmseStats(0.0, 0.0, 0.0, 0.0)
        lo, hi, mean = float(v.min()), float(v.max()), v.mean()
        v -= mean
        v *= v
        return RmseStats(lo, hi, float(mean), float(np.sqrt(v.sum() / v.size)))


# ---------------------------------------------------------------------------
# Run-graph connected-component labeling
# ---------------------------------------------------------------------------


def _run_edges(adjacency: int, cur, up) -> tuple[np.ndarray, np.ndarray]:
    """(run, run-above) id pairs between row blocks ``cur`` and ``up``.

    ``cur`` and ``up`` are (values, run starts, run ids) triples of
    equal-shape row blocks, ``up`` holding the row above each ``cur`` row.
    A (run, run-above) pair always exposes one of its two run starts inside
    the overlap window, so the ``start | start-above`` mask yields every
    connected pair at least once without listing each shared pixel.
    """
    vals, start, ids = cur
    up_vals, up_start, up_ids = up
    w = vals.shape[1]
    valid = vals != NODATA  # equal values then make the pixel above valid too
    heads, tails = [], []
    for dc in (0, 1, -1) if adjacency == 8 else (0,):
        c = slice(max(dc, 0), w + min(dc, 0))    # this row, column j
        u = slice(max(-dc, 0), w + min(-dc, 0))  # row above, column j - dc
        mask = valid[:, c] & (vals[:, c] == up_vals[:, u]) & (start[:, c] | up_start[:, u])
        heads.append(ids[:, c][mask])
        tails.append(up_ids[:, u][mask])
    return np.concatenate(heads), np.concatenate(tails)


def _resolve_runs(n: int, heads: np.ndarray, tails: np.ndarray,
                  stats: RunStats) -> np.ndarray:
    """Root of every run: the smallest run id of its connected component.

    Hook-and-compress rounds (Shiloach & Vishkin): each edge between two
    trees hooks the larger root under the smaller, then pointer jumping
    flattens every tree, so each round starts from roots.  Parents never
    exceed their child, so no cycle can form; edges inside one tree are
    dropped for good.  Every other edge is replaced by the two roots it
    joins, larger first: that edge joins the same two trees.
    """
    parent = np.arange(n, dtype=heads.dtype)
    while heads.size:
        stats.union_find_ops += int(heads.size)
        heads, tails = parent[heads], parent[tails]
        split = heads != tails
        heads, tails = heads[split], tails[split]
        if not heads.size:
            break
        heads, tails = np.maximum(heads, tails), np.minimum(heads, tails)
        np.minimum.at(parent, heads, tails)
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    return parent


def _int_dtype(bound: int) -> type:
    """int32 while values up to ``bound`` fit it, else int64: the dtype of
    the run graph and of the table's count, bbox and perimeter columns."""
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


def _drain(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenate ``parts`` and empty the list, freeing the parts."""
    out = np.concatenate(parts)
    parts.clear()
    return out


class TwoPassLabeler:
    """Feed label rows top to bottom, then resolve them to segment ids.

    Pass 1 (``feed``) encodes each row as runs of equal labels, numbered
    consecutively in row-major order, keeps a (start column, length) record
    of each run, and collects (run, run-above) edges against the row fed
    before, so strips need no overlap rows.  Pass 2 (``resolve``) resolves
    the edges to components and numbers them by their first run, which is
    their first pixel in row-major order; the ``SegmentPainter`` it returns
    writes the ids of any rows.  ``finalize`` paints every row into one
    ``SegmentationMap``.  Either hands the fed runs over, so the labeler
    then holds none.  Work counts in ``stats``, or in a ``RunStats`` of its
    own.
    """

    def __init__(self, width: int, adjacency: int = 8, stats: RunStats | None = None):
        _offsets(adjacency)
        self.width = width
        self.adjacency = adjacency
        self.stats = stats or RunStats()
        self._reset()

    def _reset(self) -> None:
        self._n_runs = 0
        self._row_runs: list[np.ndarray] = []  # runs in each fed row, per block
        self._cols: list[np.ndarray] = []      # start column of each run, per block
        self._lens: list[np.ndarray] = []      # length of each run, per block
        self._heads: list[np.ndarray] = []
        self._tails: list[np.ndarray] = []
        self._prev = None  # (values, starts, run ids) of the last row fed

    def feed(self, rows: np.ndarray) -> None:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.int32))
        if rows.shape[1] != self.width:
            raise DimensionMismatchError(
                f"row width {rows.shape[1]} != labeler width {self.width}"
            )
        if rows.size == 0:
            return
        valid = rows != NODATA
        start = valid.copy()
        start[:, 1:] &= (rows[:, 1:] != rows[:, :-1]) | ~valid[:, :-1]
        # Runs never cross a row end, so one running count over the block
        # numbers them; ids of nodata pixels are never read.
        ids = np.cumsum(start, dtype=_int_dtype(self._n_runs + rows.size))
        ids = ids.reshape(rows.shape)
        ids += self._n_runs - 1
        self._n_runs = int(ids[-1, -1]) + 1
        cur = (rows, start, ids)
        pairs = [_run_edges(self.adjacency, tuple(a[1:] for a in cur),
                            tuple(a[:-1] for a in cur))]
        if self._prev is not None:
            pairs.append(_run_edges(self.adjacency, tuple(a[:1] for a in cur),
                                    self._prev))
        for heads, tails in pairs:
            self._heads.append(heads)
            self._tails.append(tails)
        self._prev = tuple(a[-1:].copy() for a in cur)
        del cur, ids
        end = valid  # not read again
        end[:, :-1] &= (rows[:, :-1] != rows[:, 1:]) | ~valid[:, 1:]
        # Flat positions: both lists are in run order, and a run's start and
        # end share a row.  A column, a length and a row's run count all
        # fit the narrowest unsigned type that holds the width.
        first, last = np.flatnonzero(start), np.flatnonzero(end)
        narrow = np.min_scalar_type(self.width)
        self._cols.append((first % self.width).astype(narrow))
        self._lens.append((last - first + 1).astype(narrow))
        self._row_runs.append(np.count_nonzero(start, axis=1).astype(narrow))
        self.stats.pixel_visits += int(rows.size)

    def resolve(self) -> SegmentPainter:
        """Number the components; returns the painter of their ids."""
        if not self._cols:
            raise DataError("cannot segment an empty map: no pixels fed to the labeler")
        n = self._n_runs
        dtype = _int_dtype(n)
        # Only the callee holds the edges, so each round frees the last.
        root = _resolve_runs(n, _drain(self._heads).astype(dtype, copy=False),
                             _drain(self._tails).astype(dtype, copy=False),
                             self.stats)
        rank = np.cumsum(root == np.arange(n, dtype=dtype), dtype=np.int32)
        segment_of_run = rank[root]
        del root
        painter = SegmentPainter(self.width, _drain(self._row_runs), _drain(self._cols),
                                 _drain(self._lens), segment_of_run,
                                 int(rank[-1]) if n else 0, self.stats)
        self._reset()
        return painter

    def finalize(self) -> SegmentationMap:
        """Resolve, then paint every row into one id plane, a strip at a time."""
        painter = self.resolve()
        seg = np.empty((painter.height, self.width), dtype=np.int32)
        for r0, r1 in raster.strip_bounds(painter.height,
                                          raster.default_strip_height(self.width)):
            seg[r0:r1] = painter.paint(r0, r1)
        return SegmentationMap(seg, painter.segment_count)


class SegmentPainter:
    """The final segment ids of any rows of a labeled map, from its runs.

    Holds a (start column, length, segment id) record per run and the first
    run of each row: O(runs + rows), never a plane.  Painted pixels count in
    ``stats.pixel_visits``.
    """

    def __init__(self, width: int, row_runs: np.ndarray, cols: np.ndarray,
                 lens: np.ndarray, segment_of_run: np.ndarray, segment_count: int,
                 stats: RunStats | None = None):
        self.width = width
        self.height = len(row_runs)
        self.segment_count = segment_count
        self.stats = stats or RunStats()
        self._first = np.zeros(self.height + 1, dtype=np.int64)
        np.cumsum(row_runs, out=self._first[1:])
        self._cols, self._lens, self._segment = cols, lens, segment_of_run

    @property
    def labelled_pixels(self) -> int:
        """Pixels in some run: every pixel the map does not mark nodata."""
        return int(self._lens.sum(dtype=np.int64))

    def paint(self, row0: int, row1: int) -> np.ndarray:
        """int32 segment ids of rows [row0, row1); 0 where the map is nodata."""
        if not 0 <= row0 <= row1 <= self.height:
            raise ConfigError(f"cannot paint rows [{row0}, {row1}) of a "
                              f"{self.height}-row map")
        w = self.width
        k0, k1 = self._first[row0], self._first[row1]
        m = int(k1 - k0)
        # The rows' pixels alternate a nodata gap and a run, then end with a
        # gap: one repeat of (0, id) pairs by (gap, length) writes them all.
        row_of_run = np.repeat(np.arange(row1 - row0, dtype=np.int64),
                               np.diff(self._first[row0:row1 + 1]))
        starts = row_of_run * w + self._cols[k0:k1]
        sizes = np.empty(2 * m + 1, dtype=np.int64)
        sizes[1::2] = self._lens[k0:k1]
        gaps = sizes[0::2]
        gaps[:m] = starts
        gaps[m] = (row1 - row0) * w
        starts += sizes[1::2]
        gaps[1:] -= starts  # each run's end
        values = np.zeros(2 * m + 1, dtype=np.int32)
        values[1::2] = self._segment[k0:k1]
        out = np.repeat(values, sizes).reshape(row1 - row0, w)
        self.stats.pixel_visits += out.size
        return out


def connected_components(cmap: CategoricalMap, adjacency: int = 8) -> SegmentationMap:
    """Label maximal connected same-label regions; nodata forms no segment."""
    labeler = TwoPassLabeler(cmap.width, adjacency)
    labeler.feed(cmap.labels)
    return labeler.finalize()


# ---------------------------------------------------------------------------
# Cross-aura contours
# ---------------------------------------------------------------------------


def cross_aura(cmap: CategoricalMap, adjacency: int = 8) -> CrossAuraMap:
    """Count, per pixel, in-image neighbors whose label differs.

    Nodata participates as its own label value, which keeps contributions
    symmetric; out-of-image neighbors contribute nothing.
    """
    labels = cmap.labels
    if labels.size == 0:
        raise DataError("cannot contour an empty map")
    return CrossAuraMap(_aura_counts(labels, adjacency), adjacency)


def _aura_counts(labels: np.ndarray, adjacency: int) -> np.ndarray:
    """u8 cross-aura counts of a block of rows, neighbors outside it not counted.

    Rows with their neighbors above and below in the block count as in the
    whole map, so a strip needs one halo row on each side.
    """
    h, w = labels.shape
    counts = np.zeros((h, w), dtype=np.uint8)
    for dr, dc in _offsets(adjacency):
        r0, r1 = max(0, -dr), min(h, h - dr)
        c0, c1 = max(0, -dc), min(w, w - dc)
        if r0 >= r1 or c0 >= c1:
            continue
        counts[r0:r1, c0:c1] += (
            labels[r0:r1, c0:c1] != labels[r0 + dr : r1 + dr, c0 + dc : c1 + dc]
        )
    return counts


# ---------------------------------------------------------------------------
# Superpixel description table
# ---------------------------------------------------------------------------


def build_superpixel_table(
    cmap: CategoricalMap,
    seg: SegmentationMap,
    image: MultiSpectralImage,
    aura: CrossAuraMap,
) -> SuperpixelTable:
    """Per segment: area, label, bbox, per-band sums, perimeter, compactness.

    The whole-image form of pass A's fold (``describe_segments``): one
    ``_TableFold.add`` over the image as a single strip, so the columns equal
    pass A's bit for bit and a labelled pixel without data is refused alike.
    """
    shape = cmap.labels.shape
    if seg.segment_ids.shape != shape or aura.counts.shape != shape:
        raise DimensionMismatchError("map, segmentation and aura shapes differ")
    if image.samples.shape[1:] != shape:
        raise DimensionMismatchError("image shape differs from map shape")
    fold = _TableFold(seg.segment_count, cmap.labels.size, len(image.bands))
    fold.add(seg.segment_ids, cmap.labels, aura.counts,
             Strip(0, image.bands, image.samples, image.validity))
    return fold.table()


class _TableFold:
    """The superpixel table's columns, folded in one block of rows at a time.

    Each band sum folds its samples in row-major pixel order whatever the
    block height: adding up per-block totals would associate the additions
    differently and could change the last bit.  The integer columns are
    exact in any order, and as narrow as an image of ``pixels`` allows: a
    count or bbox coordinate is below ``pixels``, a perimeter at most
    ``8 * pixels`` (``_int_dtype``).
    """

    def __init__(self, n: int, pixels: int, bands: int):
        self.rows = 0  # rows folded so far
        ints = _int_dtype(pixels)
        self.counts = np.zeros(n + 1, dtype=ints)
        self.label_of = np.full(n + 1, -1, dtype=np.int32)  # -1 until a member is seen
        self.perim = np.zeros(n + 1, dtype=_int_dtype(8 * pixels))
        self.min_row = np.full(n + 1, np.iinfo(ints).max, dtype=ints)
        self.min_col = np.full(n + 1, np.iinfo(ints).max, dtype=ints)
        self.max_row = np.full(n + 1, -1, dtype=ints)
        self.max_col = np.full(n + 1, -1, dtype=ints)
        self.sums = np.zeros((bands, n + 1), dtype=np.float64)  # column 0: unlabelled

    def add(self, ids: np.ndarray, labels: np.ndarray, aura: np.ndarray,
            strip: Strip) -> None:
        """Fold the next rows: their segment ids, map labels and aura counts,
        and the image ``strip`` of the same rows.  The first labelled pixel
        the image marks nodata, in row-major order, is a DataError."""
        valid = ids > 0
        without_data = valid & ~strip.core_validity
        if without_data.any():
            r, c = np.argwhere(without_data)[0]
            raise DataError(f"the map labels row {self.rows + r}, col {c}, "
                            "which the image marks nodata")
        for b, plane in enumerate(strip.core_samples):
            np.add.at(self.sums[b], ids.ravel(), plane.ravel())
        # ``ufunc.at`` takes a slow path unless its operands share the
        # column's dtype, so each is cast to it first.
        ints = self.counts.dtype.type
        flat = ids[valid]
        np.add.at(self.counts, flat, ints(1))
        labels = labels[valid]
        before = self.label_of[flat]
        self.label_of[flat] = labels
        if ((before >= 0) & (before != labels)).any() \
                or (self.label_of[flat] != labels).any():
            raise DataError("segmentation is not label-homogeneous over the map")
        np.add.at(self.perim, flat, aura[valid].astype(self.perim.dtype))
        rr, cc = np.nonzero(valid)
        rr += self.rows
        rr, cc = rr.astype(ints, copy=False), cc.astype(ints, copy=False)
        np.minimum.at(self.min_row, flat, rr)
        np.minimum.at(self.min_col, flat, cc)
        np.maximum.at(self.max_row, flat, rr)
        np.maximum.at(self.max_col, flat, cc)
        self.rows += ids.shape[0]

    def table(self) -> SuperpixelTable:
        return SuperpixelTable(
            counts=self.counts[1:],
            labels=self.label_of[1:],
            min_row=self.min_row[1:],
            min_col=self.min_col[1:],
            max_row=self.max_row[1:],
            max_col=self.max_col[1:],
            perimeter=self.perim[1:],
            sums=self.sums[:, 1:],
        )


def describe_segments(
    labels: MapSource | CategoricalMap,
    source: raster.ImageSource,
    strip_height: int,
    adjacency: int,
    seg_path: Path | str,
    aura_path: Path | str,
) -> tuple[SuperpixelTable, SegmentPainter]:
    """Label ``labels``, then pass A: write the segmentation and aura, and
    fold the superpixel table.

    The map is fed to a ``TwoPassLabeler`` strip by strip and resolved.
    Each image strip's ids are then painted from the run records and its
    aura counted from ``labels.rows`` with one halo row on each side; both
    are written as they are made.  A labelled pixel the image marks nodata
    is refused (``_TableFold.add``), and the writers then remove both files.
    The table must hold every labelled pixel, or the run fails.  Returns it
    and the painter, whose run records pass B (``write_mean_view``) paints.
    """
    labeler = TwoPassLabeler(labels.width, adjacency)
    for r0, r1 in raster.strip_bounds(labels.height, strip_height):
        labeler.feed(labels.rows(r0, r1))
    painter = labeler.resolve()
    h, w = painter.height, painter.width
    if (source.height, source.width) != (h, w):
        raise DimensionMismatchError("image shape differs from map shape")
    fold = _TableFold(painter.segment_count, h * w, source.nbands)
    with raster.RasterWriter(seg_path, _segmentation_header(painter.segment_count),
                             1, h, w, "u32") as seg_out, \
            raster.RasterWriter(aura_path, _aura_header(adjacency),
                                1, h, w, "u8") as aura_out:
        for strip in raster.stream_strips(source, strip_height):
            r0 = strip.core_start
            r1 = r0 + strip.core_validity.shape[0]
            lo = max(r0 - 1, 0)
            block = labels.rows(lo, min(r1 + 1, h))
            core = slice(r0 - lo, r1 - lo)
            ids = painter.paint(r0, r1)
            aura = _aura_counts(block, adjacency)[core]
            # Ids are non-negative, so their int32 and u32 bits agree.
            seg_out.write(ids[np.newaxis].view(np.uint32))
            aura_out.write(aura[np.newaxis])
            fold.add(ids, block[core], aura, strip)
    table = fold.table()
    if int(table.counts.sum(dtype=np.int64)) != painter.labelled_pixels:
        raise SpecmapError("pixel-count conservation violated")
    return table, painter


#: Rows per write; bounds the record buffer, and so the bytes built at once.
_CSV_CHUNK_ROWS = 1 << 13

#: Sorted rows per block of ``_sorted_codes``' new-key mask and ranks.
_SORT_BLOCK_ROWS = 1 << 16


def _decimals(start: int, stop: int) -> np.ndarray:
    """The ints ``start..stop-1`` (``start >= 0``) as right-aligned ASCII
    digits in one ``S<w>`` array.

    Positions before a value's first digit hold NUL, which the writer drops.
    The digits are peeled off a u32 range (u64 from 2**32) straight into the
    digit array, so no int64 temporary is made.
    """
    width = len(str(max(stop - 1, 0)))
    rest = np.arange(start, stop, dtype=np.uint32 if stop <= 1 << 32 else np.uint64)
    digits = np.empty((len(rest), width), dtype=np.uint8)
    for k in range(width - 1, -1, -1):
        np.remainder(rest, 10, out=digits[:, k], casting="unsafe")
        rest //= 10
    digits += ord("0")
    # The range's values below 10**p, its first 10**p - start, have no
    # digit at position width - 1 - p.
    for p in range(1, width):
        digits[:max(10 ** p - start, 0), width - 1 - p] = 0
    return digits.view(f"S{width}").ravel()


def _encode_column(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An int column's distinct decimals, one NUL-padded ``S<w>`` array, and
    each row's code into them (float columns: ``_float_keys``).

    A column within ``[0, 2n)`` indexes the decimals of ``0..max`` directly
    and is its own codes; other codes take the narrowest unsigned dtype
    that holds them.
    """
    if column.min(initial=0) >= 0 and int(column.max(initial=0)) < 2 * len(column):
        return _decimals(0, int(column.max()) + 1), column
    keys, codes = _sorted_codes(column)
    return np.array([str(v) for v in keys.tolist()], dtype="S"), codes


def _float_keys(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A float column's distinct bit patterns (u64) and each row's code:
    ``-0.0`` and ``0.0``, whose ``repr``s differ, stay apart."""
    return _sorted_codes(np.ascontiguousarray(column, dtype=np.float64).view(np.uint64))


def _float_fields(keys: np.ndarray) -> np.ndarray:
    """The ``repr`` of each u64 float64 bit pattern, as one ``S<w>`` array.

    Keys are formatted ``_CSV_CHUNK_ROWS`` at a time, so the Python floats
    and strings of one block live at once, not those of the whole column.
    """
    values = keys.view(np.float64)
    blocks = [np.array([repr(v) for v in values[i:i + _CSV_CHUNK_ROWS].tolist()], dtype="S")
              for i in range(0, len(values), _CSV_CHUNK_ROWS)]
    return np.concatenate(blocks) if blocks else np.array([], dtype="S")


def _compactness_keys(table: SuperpixelTable) -> tuple[np.ndarray, np.ndarray]:
    """``_float_keys(table.compactness)``, keyed on (pixel count, perimeter).

    Compactness is a function of that int pair, and a per-pixel map has few
    distinct pairs, so each row's pair indexes a table of the pairs seen and
    only their compactness is computed; a key may then repeat, which costs
    a duplicate field.  The pair table is sized with Python ints before any
    key is formed; past 2n entries the column is sorted instead.
    """
    counts, perimeter = table.counts, table.perimeter
    stride = int(perimeter.max(initial=0)) + 1
    size = (int(counts.max(initial=0)) + 1) * stride
    if size > 2 * len(table):
        return _float_keys(table.compactness)
    pair = counts.astype(_int_dtype(size))
    pair *= stride
    pair += perimeter
    seen = np.zeros(size, dtype=bool)
    seen[pair] = True
    keys = compactness(*np.divmod(np.flatnonzero(seen), stride)).view(np.uint64)
    # As in ``_sorted_codes``: a pair's code is the number of pairs seen
    # below it, so the first seen pair counts for none.
    seen[np.argmax(seen)] = False
    ranks = np.cumsum(seen, dtype=np.uint16 if len(keys) <= 1 << 16 else np.uint32)
    return keys, ranks[pair]


def _sorted_codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` with narrow codes.

    One argsort orders the values, and its int64 order is narrowed to u32 at
    once; a value starts a new key where it differs from the one before it
    in that order, and each row's code is the number of keys started before
    its own.  The mask and the codes are made ``_SORT_BLOCK_ROWS`` sorted
    rows at a time, so no full-length sorted copy, rank array or int64
    inverse is made.  The codes are u16 while the keys fit it, else u32.
    """
    n = len(values)
    order = np.argsort(values).astype(np.uint32 if n <= 1 << 32 else np.intp, copy=False)
    blocks = [slice(b0, b0 + _SORT_BLOCK_ROWS) for b0 in range(0, n, _SORT_BLOCK_ROWS)]
    new = np.empty(n, dtype=bool)
    parts = []
    for block in blocks:
        ordered = values.take(order[block])
        at = new[block]
        at[0] = block.start == 0 or ordered[0] != values[order[block.start - 1]]
        np.not_equal(ordered[1:], ordered[:-1], out=at[1:])
        parts.append(ordered[at])
    keys = np.concatenate(parts) if parts else values[:0]
    new[:1] = False  # the first key counts for none
    codes = np.empty(n, dtype=np.uint16 if len(keys) <= 1 << 16 else np.uint32)
    before = 0
    for block in blocks:
        ranks = np.cumsum(new[block], dtype=codes.dtype)
        ranks += before
        before = int(ranks[-1])
        codes.put(order[block], ranks)
    return keys, codes


def write_superpixel_csv(table: SuperpixelTable, path: Path | str) -> str:
    """Write the table as CSV: ints in decimal, floats as ``repr``, CRLF rows.
    Returns the SHA-256 hex digest of the bytes written.

    The bytes equal ``csv.writer`` output of those strings: no field can
    hold a delimiter, quote or line break, so none is quoted.  Each column
    is dictionary-encoded once into byte fields: ints by ``_encode_column``,
    floats by ``_float_keys``, compactness by ``_compactness_keys``; each
    float column's keys are formatted (``_float_fields``) as soon as it is
    sorted.  Each chunk of rows gathers them into one record buffer, a
    ``bytearray`` with commas and CRLF filled in advance, and the segment
    ids are formatted per chunk.  ``bytearray.translate`` drops the NUL
    padding (no field is ASCII NUL), and the rest is hashed and written,
    before the next chunk fills the buffer.  All of it runs in the calling
    thread: a helper thread could overlap the GIL-bound ``repr``s and NUL
    drop with the sorts and fills, but what it allocates stays resident in
    its own malloc arena, above ``segment``'s other peaks.
    """
    # Imported here: hashlib's OpenSSL would add ~5 ms to ``import specmap``.
    import hashlib

    n = len(table)
    header = [
        "segment_id", "label", "pixel_count", "min_row", "min_col",
        "max_row", "max_col", "perimeter", "compactness",
    ] + [f"sum_b{b + 1}" for b in range(table.sums.shape[0])]
    encoded = [_encode_column(c) for c in (
        table.labels, table.counts, table.min_row, table.min_col,
        table.max_row, table.max_col, table.perimeter,
    )] + [(_float_fields(keys), codes) for keys, codes in
          itertools.chain([_compactness_keys(table)], map(_float_keys, table.sums))]
    layout = [("id", f"S{len(str(n))}")]
    for i, (fields, _) in enumerate(encoded):
        layout += [(f"comma{i}", "S1"), (f"field{i}", fields.dtype)]
    layout.append(("crlf", "S2"))
    layout = np.dtype(layout)
    record = bytearray(min(n, _CSV_CHUNK_ROWS) * layout.itemsize)
    buffer = np.frombuffer(record, dtype=layout)
    for i in range(len(encoded)):
        buffer[f"comma{i}"] = b","
    buffer["crlf"] = b"\r\n"
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        def write(data) -> None:
            digest.update(data)
            f.write(data)

        write((",".join(header) + "\r\n").encode("ascii"))
        for r0 in range(0, n, _CSV_CHUNK_ROWS):
            r1 = min(r0 + _CSV_CHUNK_ROWS, n)
            rows = buffer[:r1 - r0]
            rows["id"] = _decimals(r0 + 1, r1 + 1)
            for i, (fields, codes) in enumerate(encoded):
                np.take(fields, codes[r0:r1], out=rows[f"field{i}"], mode="clip")
            filled = record if rows.nbytes == len(record) else record[:rows.nbytes]
            write(filled.translate(None, b"\0"))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Piecewise-constant reconstruction and RMSE
# ---------------------------------------------------------------------------


def reconstruct(
    seg: SegmentationMap,
    table: SuperpixelTable,
    image: MultiSpectralImage,
) -> MultiSpectralImage:
    """Replace every pixel by its segment's band means, as pass B (``_mean_rows``)."""
    if len(table) != seg.segment_count:
        raise DataError(
            f"table has {len(table)} rows for {seg.segment_count} segments"
        )
    if image.samples.shape[1:] != seg.segment_ids.shape:
        raise DimensionMismatchError("image shape differs from segmentation shape")
    if table.sums.shape[0] != len(image.bands):
        raise DimensionMismatchError(
            f"table has {table.sums.shape[0]} bands, image has {len(image.bands)}"
        )
    labelled = seg.segment_ids > 0
    out = _mean_rows(table, seg.segment_ids, labelled)
    return MultiSpectralImage(image.bands, out, labelled, image.dtype_name)


def pixel_rmse(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-pixel root of the band-mean squared difference of two stacks."""
    a = np.atleast_3d(np.asarray(a, dtype=np.float64))
    b = np.atleast_3d(np.asarray(b, dtype=np.float64))
    if a.shape != b.shape:
        raise DimensionMismatchError(f"stack shapes differ: {a.shape} vs {b.shape}")
    return np.sqrt(np.mean((a - b) ** 2, axis=0))


def rmse_map(original: MultiSpectralImage, reconstruction: MultiSpectralImage) -> RmseMap:
    """Per-pixel RMSE between an image and its piecewise-constant approximation."""
    if original.samples.shape != reconstruction.samples.shape:
        raise DimensionMismatchError("original and reconstruction shapes differ")
    values = pixel_rmse(original.samples, reconstruction.samples)
    validity = original.validity & reconstruction.validity
    values[~validity] = 0.0
    return RmseMap(values, validity)


def write_mean_view(
    table: SuperpixelTable,
    painter: SegmentPainter,
    source: raster.ImageSource,
    strip_height: int,
    recon_path: Path | str,
    rmse_path: Path | str,
) -> RmseStats:
    """Pass B: strip form of ``reconstruct``, ``rmse_map``, ``write_rmse`` and
    ``RmseMap.stats``, for what ``describe_segments`` returned for ``source``.

    Paints each image strip's ids, writes its mean view to ``recon_path``
    with ``ImageWriter`` and its RMSE to ``rmse_path``, and summarizes the
    RMSE of the table's pixels, bit for bit as the whole-image functions.
    A pixel's RMSE is valid where its id is above 0: pass A has refused a
    labelled pixel the image marks nodata.  ``ImageWriter`` refuses a table
    of another band count.
    """
    return strip_rmse_stats(
        int(table.counts.sum(dtype=np.int64)),
        _mean_view_strips(table, painter, source, strip_height, recon_path, rmse_path),
        _written_rmse(rmse_path, painter, strip_height),
    )


def _mean_view_strips(table, painter, source, strip_height, recon_path, rmse_path):
    """Write the reconstruction and RMSE strip by strip, yielding each strip's
    valid RMSE values; the files are complete once the generator is."""
    h, w = source.height, source.width
    with raster.ImageWriter(recon_path, source.bands, h, w, source.dtype_name) as recon_out, \
            raster.RasterWriter(rmse_path, _RMSE_HEADER, 1, h, w, "f64") as rmse_out:
        for strip in raster.stream_strips(source, strip_height):
            r0 = strip.core_start
            ids = painter.paint(r0, r0 + strip.core_validity.shape[0])
            labelled = ids > 0
            recon = _mean_rows(table, ids, labelled)
            recon_out.write(recon, labelled)
            part = pixel_rmse(strip.core_samples, recon)
            part[~labelled] = 0.0
            rmse_out.write(part[np.newaxis])
            yield part[labelled]


def _mean_rows(table: SuperpixelTable, ids: np.ndarray, labelled: np.ndarray) -> np.ndarray:
    """(bands, rows, width) mean view of a block of ids; 0.0 where unlabelled.

    Each pixel's band sum and pixel count are gathered from the table and
    divided there, so no (bands, segments) table of means is made.
    """
    if len(table) == 0:
        return np.zeros((table.sums.shape[0], *ids.shape), dtype=np.float64)
    out = np.empty((table.sums.shape[0], *ids.shape), dtype=np.float64)
    at = ids - 1  # unlabelled pixels wrap to the last segment and are zeroed
    counts = np.take(table.counts, at, mode="wrap").astype(np.float64)
    for sums, plane in zip(table.sums, out):
        np.take(sums, at, out=plane, mode="wrap")
        plane /= counts
    if not labelled.all():
        out[:, ~labelled] = 0.0
    return out


def _written_rmse(rmse_path, painter, strip_height):
    """The valid values of a written RMSE plane, strip by strip: those the
    painter labels (id > 0), as the payload stores an invalid pixel as 0.0,
    which is also the valid RMSE of a single-pixel segment."""
    values = raster.ImageSource(rmse_path, calibrated=False)
    for r0, r1 in raster.strip_bounds(values.height, strip_height):
        yield values.read_raw_rows(r0, r1)[0][painter.paint(r0, r1) > 0]


#: Most values one leaf of the summation tree takes: one ``np.add.reduce``
#: each, and the most ``_tree_sum`` buffers.
_SUM_LEAF = 1 << 16

#: numpy sums nodes of at most this many values without splitting them.
_PAIRWISE_BLOCK = 128


def _tree_sum(count: int, chunks: Iterable[np.ndarray], leaf: int = _SUM_LEAF):
    """``np.add.reduce`` of the ``count`` float64 values ``chunks`` yields, bit
    for bit, holding at most ``leaf`` of them; refuses any other count.

    numpy sums a contiguous float64 array pairwise: a node of n values over
    ``_PAIRWISE_BLOCK`` splits at n // 2 rounded down to a multiple of 8,
    and smaller nodes are summed whole.  A node's sum thus depends only on
    its own values, so every node of at most ``leaf`` values is summed by
    ``np.add.reduce`` and the partial sums are joined up the same tree.
    """
    leaf = max(leaf, _PAIRWISE_BLOCK)
    queue = _ValueQueue(chunks)

    def node(n: int):
        if n <= leaf:
            return np.add.reduce(queue.take(n))
        half = n // 2
        half -= half % 8
        return node(half) + node(n - half)

    total = node(count)
    queue.finish()
    return total


class _ValueQueue:
    """Values from a stream of 1-D chunks, taken in order in runs of any length."""

    def __init__(self, chunks: Iterable[np.ndarray]):
        self._chunks = iter(chunks)
        self._head = np.empty(0, dtype=np.float64)

    def take(self, n: int) -> np.ndarray:
        parts = []
        while n > len(self._head):
            parts.append(self._head)
            n -= len(self._head)
            self._head = next(self._chunks, None)
            if self._head is None:
                raise DataError("fewer valid RMSE values than counted")
        parts.append(self._head[:n])
        self._head = self._head[n:]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def finish(self) -> None:
        """Drain the stream; a value left over is a DataError."""
        left = len(self._head) + sum(len(chunk) for chunk in self._chunks)
        if left:
            raise DataError(f"{left} more valid RMSE values than counted")


def strip_rmse_stats(count: int, first: Iterable[np.ndarray],
                     second: Iterable[np.ndarray]) -> RmseStats:
    """``RmseMap.stats`` of ``count`` valid RMSE values, bit for bit, from two
    passes over them in row-major order.

    ``first`` and ``second`` each yield the values strip by strip; ``first``
    is always run to its end, and ``second`` is started only after, for the
    squared deviations from the mean.  Both sums follow ``np.add.reduce``'s
    pairwise tree (``_tree_sum``), so memory holds strips, never the values.
    """
    lo, hi = np.inf, -np.inf

    def extremes(chunks):
        nonlocal lo, hi
        for chunk in chunks:
            if chunk.size:
                lo, hi = min(lo, chunk.min()), max(hi, chunk.max())
            yield chunk

    total = _tree_sum(count, extremes(first))
    if count == 0:
        return RmseStats(0.0, 0.0, 0.0, 0.0)
    mean = total / count

    def squared_deviations(chunks):
        for chunk in chunks:
            chunk = chunk - mean
            chunk *= chunk
            yield chunk

    square_sum = _tree_sum(count, squared_deviations(second))
    return RmseStats(float(lo), float(hi), float(mean), float(np.sqrt(square_sum / count)))


# ---------------------------------------------------------------------------
# Segmentation / plane file I/O
# ---------------------------------------------------------------------------


#: Header entries of each written plane after its layout.
_RMSE_HEADER = [("maptype", "rmse")]


def _segmentation_header(segment_count: int) -> list[tuple[str, str]]:
    return [("maptype", "segmentation"), ("segments", str(segment_count))]


def _aura_header(adjacency: int) -> list[tuple[str, str]]:
    return [("maptype", "cross-aura"), ("adjacency", str(adjacency))]


def write_segmentation(seg: SegmentationMap, header_path: Path | str) -> None:
    # Ids are non-negative, so their int32 and u32 bits agree: no copy.
    planes = seg.segment_ids[np.newaxis, :, :].view(np.uint32)
    raster.write_raster(header_path, _segmentation_header(seg.segment_count), planes, "u32")


def read_segmentation(header_path: Path | str) -> SegmentationMap:
    """Read a segmentation; ids or a count int32 cannot hold are refused."""
    source = raster.open_map_raster(
        header_path, "segmentation", "u32", "a segmentation is one band of u32 ids")
    count = raster._header_int(source.header, "segments", header_path)
    limit = np.iinfo(np.int32).max
    if not 0 <= count <= limit:
        raise FormatError(f"{header_path}: header key 'segments' must be in "
                          f"0..{limit}, got {count}")
    ids = source.read_raw_rows(0, source.height)[0]
    if ids.max(initial=0) > limit:
        raise FormatError(f"{header_path}: segment id {int(ids.max())} exceeds "
                          f"{limit}; header key 'segments' is {count}")
    try:
        return SegmentationMap(ids.astype(np.int32), count)
    except SpecmapError as exc:
        raise exc.at(header_path)


def write_aura(aura: CrossAuraMap, header_path: Path | str) -> None:
    raster.write_raster(header_path, _aura_header(aura.adjacency),
                        aura.counts[np.newaxis, :, :], "u8")


def write_rmse(rmse: RmseMap, header_path: Path | str) -> None:
    raster.write_raster(header_path, _RMSE_HEADER, rmse.values[np.newaxis, :, :], "f64")
