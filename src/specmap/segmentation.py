"""Deterministic run-graph connected components and superpixel description.

Pass 1 encodes every row as runs of equal labels and links each run to the
same-label runs it touches in the row above (He, Chao & Suzuki's run-based
two-scan labeling); pass 2 resolves those links with vectorized
hook-and-compress rounds (Shiloach & Vishkin) and numbers the components in
row-major first-encounter order, which makes output maps reproducible byte
for byte.  The labeler accepts rows incrementally, so strip-streamed
labeling needs no overlap rows and merges across seams by construction.
The run graph is int32 while the run count fits it (int64 beyond), and
pass 2 writes the ids one fed block at a time.

The superpixel description is a columnar ``SuperpixelTable`` (one array per
attribute, one entry per segment), folded in strip by strip from the image
strips: scattered counts, labels, minima/maxima and band sums.  The
mean-view reconstruction of any block of rows is a single gather from its
means, so ``write_mean_view`` writes and scores it one image strip at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from . import raster
from .classify import NODATA, CategoricalMap
from .errors import (
    ConfigError,
    DataError,
    DimensionMismatchError,
    FormatError,
    SpecmapError,
)
from .raster import MultiSpectralImage, Strip

_OFFSETS_4 = ((-1, 0), (1, 0), (0, -1), (0, 1))
_OFFSETS_8 = _OFFSETS_4 + ((-1, -1), (-1, 1), (1, -1), (1, 1))


def _offsets(adjacency: int):
    if adjacency == 4:
        return _OFFSETS_4
    if adjacency == 8:
        return _OFFSETS_8
    raise ConfigError(f"adjacency must be 4 or 8, got {adjacency}")


@dataclass
class OpStats:
    """Work accounting for the linear-time contracts."""

    pixel_visits: int = 0
    union_find_ops: int = 0


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

    @property
    def width(self) -> int:
        return self.segment_ids.shape[1]

    @property
    def height(self) -> int:
        return self.segment_ids.shape[0]


@dataclass
class CrossAuraMap:
    counts: np.ndarray  # (height, width) uint8 in {0..adjacency}
    adjacency: int


@dataclass(eq=False)
class SuperpixelTable:
    """Columnar superpixel description: row ``i`` describes segment ``i + 1``.

    Every column has one entry per segment; ``label`` with the segment id
    forms the (segment, stratum) 2-tuple.
    """

    counts: np.ndarray       # (n,) int64 pixel count
    labels: np.ndarray       # (n,) int64 map label
    min_row: np.ndarray      # (n,) int64 bounding box, inclusive
    min_col: np.ndarray
    max_row: np.ndarray
    max_col: np.ndarray
    perimeter: np.ndarray    # (n,) int64 sum of member cross-aura counts
    compactness: np.ndarray  # (n,) float64 in (0, 1]
    sums: np.ndarray         # (bands, n) float64 per-band sample sums

    def __post_init__(self):
        n = len(self.counts)
        columns = (self.labels, self.min_row, self.min_col, self.max_row,
                   self.max_col, self.perimeter, self.compactness)
        if any(len(c) != n for c in columns) or self.sums.ndim != 2 \
                or self.sums.shape[1] != n:
            raise DataError("superpixel table columns differ in length")

    def __len__(self) -> int:
        return len(self.counts)


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
                  stats: OpStats | None) -> np.ndarray:
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
        if stats is not None:
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


def _run_dtype(n: int) -> type:
    """int32 while ``n`` run ids fit it, else int64: the run graph's dtype."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


def _drain(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenate ``parts`` and empty the list, freeing the parts."""
    out = np.concatenate(parts)
    parts.clear()
    return out


class TwoPassLabeler:
    """Feed label rows top to bottom, then finalize to a SegmentationMap.

    Pass 1 (``feed``) encodes each row as runs of equal labels, numbered
    consecutively in row-major order, and collects (run, run-above) edges
    against the row fed before, so strips need no overlap rows.  Pass 2
    (``finalize``) resolves the edges to components and numbers them by
    their first run, which is their first pixel in row-major order; it
    hands the fed rows over, so the labeler then holds none.
    """

    def __init__(self, width: int, adjacency: int = 8, stats: OpStats | None = None):
        _offsets(adjacency)
        self.width = width
        self.adjacency = adjacency
        self.stats = stats
        self._n_runs = 0
        self._blocks: list[tuple[np.ndarray, np.ndarray]] = []  # (starts, valid)
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
        ids = np.cumsum(start, dtype=_run_dtype(self._n_runs + rows.size))
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
        self._blocks.append((start, valid))
        self._prev = tuple(a[-1:].copy() for a in cur)
        if self.stats is not None:
            self.stats.pixel_visits += int(rows.size)

    def finalize(self) -> SegmentationMap:
        """Number the components, writing ids one fed block at a time.

        Every temporary is the size of one fed block or of the run graph;
        each block's rows are dropped once its ids are written.
        """
        if not self._blocks:
            raise DataError("cannot segment an empty map: no pixels fed to the labeler")
        blocks, self._blocks = self._blocks[::-1], []
        n, self._n_runs, self._prev = self._n_runs, 0, None
        dtype = _run_dtype(n)
        # Only the callee holds the edges, so each round frees the last.
        root = _resolve_runs(n, _drain(self._heads).astype(dtype, copy=False),
                             _drain(self._tails).astype(dtype, copy=False),
                             self.stats)
        height = sum(start.shape[0] for start, _ in blocks)
        seg = np.zeros((height, self.width), dtype=np.int32)
        if self.stats is not None:
            self.stats.pixel_visits += seg.size  # second pass
        if n == 0:
            return SegmentationMap(seg, 0)
        rank = np.cumsum(root == np.arange(n, dtype=dtype), dtype=np.int32)
        final_of_run = rank[root]
        del root
        r0, base = 0, 0  # first row and first run id of the block
        while blocks:
            start, valid = blocks.pop()
            # Pixels before the block's first run start read run base - 1,
            # or wrap to the last run before the map's first; all are
            # nodata and zeroed.
            run_of_px = np.cumsum(start, dtype=dtype).reshape(start.shape)
            base_next = base + int(run_of_px[-1, -1])
            run_of_px += base - 1
            out = seg[r0:r0 + start.shape[0]]
            np.take(final_of_run, run_of_px, out=out)
            out *= valid
            r0, base = r0 + start.shape[0], base_next
        return SegmentationMap(seg, int(rank[-1]))


def connected_components(
    cmap: CategoricalMap, adjacency: int = 8, stats: OpStats | None = None
) -> SegmentationMap:
    """Label maximal connected same-label regions; nodata forms no segment."""
    if cmap.labels.size == 0:
        raise DataError("cannot segment an empty map")
    labeler = TwoPassLabeler(cmap.width, adjacency, stats)
    labeler.feed(cmap.labels)
    return labeler.finalize()


# ---------------------------------------------------------------------------
# Cross-aura contours
# ---------------------------------------------------------------------------


def cross_aura(
    cmap: CategoricalMap, adjacency: int = 8, stats: OpStats | None = None
) -> CrossAuraMap:
    """Count, per pixel, in-image neighbors whose label differs.

    Nodata participates as its own label value, which keeps contributions
    symmetric; out-of-image neighbors contribute nothing.
    """
    labels = cmap.labels
    if labels.size == 0:
        raise DataError("cannot contour an empty map")
    h, w = labels.shape
    counts = np.zeros((h, w), dtype=np.uint8)
    offsets = _offsets(adjacency)
    for dr, dc in offsets:
        r0, r1 = max(0, -dr), min(h, h - dr)
        c0, c1 = max(0, -dc), min(w, w - dc)
        if r0 >= r1 or c0 >= c1:
            continue
        counts[r0:r1, c0:c1] += (
            labels[r0:r1, c0:c1] != labels[r0 + dr : r1 + dr, c0 + dc : c1 + dc]
        )
    if stats is not None:
        stats.pixel_visits += int(labels.size) * len(offsets)
    return CrossAuraMap(counts, adjacency)


# ---------------------------------------------------------------------------
# Superpixel description table
# ---------------------------------------------------------------------------


def build_superpixel_table(
    cmap: CategoricalMap,
    seg: SegmentationMap,
    image: MultiSpectralImage | Iterable[Strip],
    aura: CrossAuraMap,
) -> SuperpixelTable:
    """Per segment: area, label, bbox, per-band sums, perimeter, compactness.

    ``image`` is a whole image or its strips top to bottom, as
    ``raster.stream_strips`` yields them.  Every column is folded in strip
    by strip, so each temporary is the size of one strip.  Each band sum
    folds its samples in row-major pixel order whatever the strip height:
    adding up per-strip totals would associate the additions differently
    and could change the last bit.  The integer columns are exact in any
    order.
    """
    shape = cmap.labels.shape
    if seg.segment_ids.shape != shape or aura.counts.shape != shape:
        raise DimensionMismatchError("map, segmentation and aura shapes differ")
    if isinstance(image, MultiSpectralImage):
        image = [Strip(0, image.bands, image.samples, image.validity)]
    n = seg.segment_count
    counts = np.zeros(n + 1, dtype=np.int64)
    label_of = np.full(n + 1, -1, dtype=np.int64)  # -1 until a member is seen
    perim = np.zeros(n + 1, dtype=np.int64)
    min_row = np.full(n + 1, np.iinfo(np.int64).max, dtype=np.int64)
    min_col = np.full(n + 1, np.iinfo(np.int64).max, dtype=np.int64)
    max_row = np.full(n + 1, -1, dtype=np.int64)
    max_col = np.full(n + 1, -1, dtype=np.int64)
    sums = None  # (bands, n + 1); column 0 gathers nodata pixels
    row0 = 0
    for strip in image:
        samples = strip.core_samples
        nrows = samples.shape[1]
        if strip.core_start != row0 or samples.shape[2] != shape[1] \
                or row0 + nrows > shape[0]:
            raise DimensionMismatchError("image shape differs from map shape")
        if sums is None:
            sums = np.zeros((samples.shape[0], n + 1), dtype=np.float64)
        rows = slice(row0, row0 + nrows)
        ids = seg.segment_ids[rows]
        for b, plane in enumerate(samples):
            np.add.at(sums[b], ids.ravel(), plane.ravel())
        valid = ids > 0
        flat = ids[valid]
        np.add.at(counts, flat, 1)
        labels = cmap.labels[rows][valid]
        before = label_of[flat]
        label_of[flat] = labels
        if ((before >= 0) & (before != labels)).any() \
                or (label_of[flat] != labels).any():
            raise DataError("segmentation is not label-homogeneous over the map")
        np.add.at(perim, flat, aura.counts[rows][valid].astype(np.int64))
        rr, cc = np.nonzero(valid)
        rr += row0
        np.minimum.at(min_row, flat, rr)
        np.minimum.at(min_col, flat, cc)
        np.maximum.at(max_row, flat, rr)
        np.maximum.at(max_col, flat, cc)
        row0 += nrows
    if row0 != shape[0]:
        raise DimensionMismatchError("image shape differs from map shape")
    area = counts[1:]
    p = perim[1:].astype(np.float64)
    # Evaluated left to right as ((4 pi) area) / (p p): another order can
    # change the last bit and so the CSV's repr digits.  Only an
    # image-filling segment has no contour; it counts as a disc.
    compactness = np.ones(n, dtype=np.float64)
    has_contour = p > 0
    compactness[has_contour] = np.minimum(
        1.0, 4.0 * math.pi * area[has_contour] / (p[has_contour] * p[has_contour])
    )
    return SuperpixelTable(
        counts=area,
        labels=label_of[1:],
        min_row=min_row[1:],
        min_col=min_col[1:],
        max_row=max_row[1:],
        max_col=max_col[1:],
        perimeter=perim[1:],
        compactness=compactness,
        sums=sums[:, 1:],
    )


#: Rows per write; bounds the record buffer, and so the bytes built at once.
_CSV_CHUNK_ROWS = 1 << 13


def _decimals(values: np.ndarray) -> np.ndarray:
    """Non-negative ints as right-aligned ASCII digits in one ``S<w>`` array.

    Positions before a value's first digit hold NUL, which the writer drops.
    """
    width = len(str(int(values.max(initial=0))))
    digits = np.empty((len(values), width), dtype=np.uint8)
    rest = values.copy()
    for k in range(width - 1, -1, -1):
        digits[:, k] = rest % 10
        rest //= 10
    digits += ord("0")
    digits[:, :-1][values[:, np.newaxis] < 10 ** np.arange(width - 1, 0, -1)] = 0
    return digits.view(f"S{width}").ravel()


def _encode_column(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return a column's distinct fields and each row's code into them.

    The fields are one NUL-padded ``S<w>`` array: ints in decimal, floats
    as ``repr``, each distinct value formatted once.  Floats are keyed on
    their bit pattern, so ``-0.0`` and ``0.0`` (whose ``repr``s differ)
    stay apart; every member of a bit-pattern group formats the same.  An
    int column within ``[0, 2n)`` indexes the decimals of ``0..max``
    directly.  Codes take the narrowest unsigned dtype that holds them.
    """
    if column.dtype.kind == "f":
        bits = np.ascontiguousarray(column, dtype=np.float64).view(np.uint64)
        keys, codes = np.unique(bits, return_inverse=True)
        fields = np.array([repr(v) for v in keys.view(np.float64).tolist()], dtype="S")
    elif column.min(initial=0) >= 0 and column.max(initial=0) < 2 * len(column):
        fields = _decimals(np.arange(column.max() + 1))
        codes = column
    else:
        keys, codes = np.unique(column, return_inverse=True)
        fields = np.array([str(v) for v in keys.tolist()], dtype="S")
    return fields, codes.astype(np.uint16 if len(fields) <= 1 << 16 else np.uint32)


def write_superpixel_csv(table: SuperpixelTable, path: Path | str) -> None:
    """Write the table as CSV: ints in decimal, floats as ``repr``, CRLF rows.

    The bytes equal ``csv.writer`` output of those strings: no field can
    hold a delimiter, quote or line break, so none is quoted.  Each column
    is dictionary-encoded once into byte fields.  Every chunk of rows
    gathers them into one record buffer whose commas and CRLF are filled
    in advance, and writes it with its NUL padding dropped: no field is
    ASCII NUL.  The segment ids are formatted per chunk.
    """
    n = len(table)
    n_bands = table.sums.shape[0]
    header = [
        "segment_id", "label", "pixel_count", "min_row", "min_col",
        "max_row", "max_col", "perimeter", "compactness",
    ] + [f"sum_b{b + 1}" for b in range(n_bands)]
    encoded = [_encode_column(c) for c in (
        table.labels, table.counts, table.min_row, table.min_col,
        table.max_row, table.max_col, table.perimeter, table.compactness,
        *table.sums,
    )]
    layout = [("id", f"S{len(str(n))}")]
    for i, (fields, _) in enumerate(encoded):
        layout += [(f"comma{i}", "S1"), (f"field{i}", fields.dtype)]
    layout.append(("crlf", "S2"))
    buf = np.zeros(min(n, _CSV_CHUNK_ROWS), dtype=layout)
    for i in range(len(encoded)):
        buf[f"comma{i}"] = b","
    buf["crlf"] = b"\r\n"
    with open(path, "wb") as f:
        f.write((",".join(header) + "\r\n").encode("ascii"))
        for r0 in range(0, n, _CSV_CHUNK_ROWS):
            r1 = min(r0 + _CSV_CHUNK_ROWS, n)
            rows = buf[:r1 - r0]
            rows["id"] = _decimals(np.arange(r0 + 1, r1 + 1))
            for i, (fields, codes) in enumerate(encoded):
                rows[f"field{i}"] = fields[codes[r0:r1]]
            raw = rows.view(np.uint8)
            f.write(raw[raw != 0])


# ---------------------------------------------------------------------------
# Piecewise-constant reconstruction and RMSE
# ---------------------------------------------------------------------------


def mean_view(table: SuperpixelTable) -> np.ndarray:
    """(bands, n + 1) per-segment band means; column 0, for nodata, is zero.

    Indexing it with a block of segment ids gives that block's mean view.
    """
    means = np.zeros((table.sums.shape[0], len(table) + 1), dtype=np.float64)
    np.divide(table.sums, table.counts, out=means[:, 1:])
    return means


def reconstruct(
    seg: SegmentationMap,
    table: SuperpixelTable,
    image: MultiSpectralImage,
) -> MultiSpectralImage:
    """Replace every pixel by its segment's per-band mean ("mean view")."""
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
    out = mean_view(table)[:, seg.segment_ids]
    return MultiSpectralImage(image.bands, out, seg.segment_ids > 0, image.dtype_name)


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
    seg: SegmentationMap,
    table: SuperpixelTable,
    source: raster.ImageSource,
    strip_height: int,
    header_path: Path | str,
) -> RmseMap:
    """Strip form of ``reconstruct`` then ``rmse_map``, for an image on disk.

    Writes the mean view of ``source`` to ``header_path`` one strip at a
    time, with ``ImageWriter``, and returns the RMSE plane.  Both equal the
    whole-image functions' outputs bit for bit.  A pixel's RMSE is valid
    where the image and the segmentation both are.  ``ImageWriter`` refuses
    a table of another band count.
    """
    if len(table) != seg.segment_count:
        raise DataError(
            f"table has {len(table)} rows for {seg.segment_count} segments"
        )
    if (source.height, source.width) != seg.segment_ids.shape:
        raise DimensionMismatchError("image shape differs from segmentation shape")
    if len(source.bands) < 2:
        raise DataError("an image needs at least 2 bands")
    means = mean_view(table)
    values = np.empty(seg.segment_ids.shape, dtype=np.float64)
    validity = np.empty(seg.segment_ids.shape, dtype=bool)
    with raster.ImageWriter(header_path, source.bands, source.height, source.width,
                            source.dtype_name) as writer:
        for strip in raster.stream_strips(source, strip_height):
            rows = slice(strip.core_start,
                         strip.core_start + strip.core_validity.shape[0])
            ids = seg.segment_ids[rows]
            recon = means[:, ids]
            writer.write(recon, ids > 0)
            valid = strip.core_validity & (ids > 0)
            part = pixel_rmse(strip.core_samples, recon)
            part[~valid] = 0.0
            values[rows], validity[rows] = part, valid
    return RmseMap(values, validity)


# ---------------------------------------------------------------------------
# Segmentation / plane file I/O
# ---------------------------------------------------------------------------


def write_segmentation(seg: SegmentationMap, header_path: Path | str) -> None:
    extra = [("maptype", "segmentation"), ("segments", str(seg.segment_count))]
    # Ids are non-negative, so their int32 and u32 bits agree: no copy.
    planes = seg.segment_ids[np.newaxis, :, :].view(np.uint32)
    raster.write_raster(header_path, extra, planes, "u32")


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
    extra = [("maptype", "cross-aura"), ("adjacency", str(aura.adjacency))]
    raster.write_raster(header_path, extra, aura.counts[np.newaxis, :, :], "u8")


def write_rmse(rmse: RmseMap, header_path: Path | str) -> None:
    extra = [("maptype", "rmse")]
    raster.write_raster(header_path, extra, rmse.values[np.newaxis, :, :], "f64")
