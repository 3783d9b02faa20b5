"""Ordered-rule color naming: categorical maps, classification, map I/O.

Label 0 is reserved for nodata.  Every other label is a legend entry, and
for maps produced by ``classify`` the labels are the rule indices.  Labels
are u16 in memory, as in map files.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import raster
from .errors import ConfigError, DataError, FormatError, SpecmapError
from .raster import (
    ImageSource,
    MultiSpectralImage,
    RunStats,
    Strip,
    default_strip_height,
    read_strip,
    release_strip,
    strip_bounds,
)
from .rules import RuleProgram, RuleSet, compile_rules, format_color, parse_color

# ``eval_expr`` is the reference evaluator the compiled program is tested
# against; the benchmark's tracer wraps it under this module's name.
from .rules import eval_expr  # noqa: F401

NODATA = 0

#: Largest legend label; a map file stores labels as u16.
MAX_LABEL = 65535

#: Maximal wavelength distance (micrometers) for binding a rule-file band
#: symbol to an image band.  Neighboring optical band centers sit much
#: further apart than this.
WAVELENGTH_TOLERANCE = 0.03


@dataclass(frozen=True)
class LegendEntry:
    label: int
    name: str
    color: tuple[int, int, int]


def check_legend(legend: Iterable[LegendEntry]) -> None:
    """Refuse a legend holding the nodata label or a label u16 cannot store."""
    known = {e.label for e in legend}
    if NODATA in known:
        raise ConfigError("label 0 is reserved for nodata")
    outside = sorted(label for label in known if not 1 <= label <= MAX_LABEL)
    if outside:
        raise DataError(f"legend labels outside 1..{MAX_LABEL}: {outside}")


def _label_counts(chunks: Iterable[np.ndarray]) -> np.ndarray:
    """Pixels of each label value 0..MAX_LABEL, one ``bincount`` per u16 chunk."""
    counts = np.zeros(MAX_LABEL + 1, dtype=np.int64)
    for chunk in chunks:
        counts += np.bincount(chunk.ravel(), minlength=MAX_LABEL + 1)
    return counts


def _chunks(read, height: int, width: int) -> Iterator[np.ndarray]:
    """``read(row0, row1)`` over a whole map, one strip of rows at a time."""
    for row0, row1 in strip_bounds(height, default_strip_height(width)):
        yield read(row0, row1)


def _listed(legend: Iterable[LegendEntry]) -> np.ndarray:
    """Bool table over label values: True for nodata and the legend's labels."""
    listed = np.zeros(MAX_LABEL + 1, dtype=bool)
    listed[[NODATA, *(e.label for e in legend)]] = True
    return listed


def _refuse_unlisted(counts: np.ndarray, legend: Iterable[LegendEntry]) -> None:
    unlisted = np.flatnonzero((counts > 0) & ~_listed(legend))
    if unlisted.size:
        raise DataError(f"labels missing from legend: {unlisted.tolist()}")


def _as_u16(labels: np.ndarray) -> np.ndarray:
    """``labels`` as u16; a value u16 cannot hold is refused, never wrapped."""
    if labels.dtype == np.uint16:
        return labels
    if labels.dtype.kind not in "biu":
        raise DataError(f"labels must be integers, got {labels.dtype}")
    if labels.size and (labels.min() < 0 or labels.max() > MAX_LABEL):
        outside = np.unique(labels[(labels < 0) | (labels > MAX_LABEL)])
        raise DataError(f"pixel labels outside 0..{MAX_LABEL}: {outside.tolist()}")
    return labels.astype(np.uint16)


@dataclass
class CategoricalMap:
    """Per-pixel label raster plus its legend."""

    labels: np.ndarray  # (height, width) u16, 0 = nodata
    legend: tuple[LegendEntry, ...]
    #: Pixels of each label value 0..MAX_LABEL.
    counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 2:
            raise DataError("labels must be a 2-D array")
        self.legend = tuple(self.legend)
        check_legend(self.legend)
        self.labels = _as_u16(labels)
        self.counts = _label_counts(_chunks(self.rows, self.height, self.width))
        _refuse_unlisted(self.counts, self.legend)

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    def rows(self, row0: int, row1: int) -> np.ndarray:
        """u16 labels of rows [row0, row1), as ``MapSource.rows`` reads them."""
        return self.labels[row0:row1]


#: The counter of label decisions (``visits``), by the name the CLI calls.
PixelVisitCounter = RunStats


# ---------------------------------------------------------------------------
# Band binding
# ---------------------------------------------------------------------------


def bind_bands(ruleset: RuleSet, bands: Iterable[raster.BandMetadata]) -> dict[str, int]:
    """Match declared rule symbols to image band positions by wavelength.

    Returns symbol -> band index (into the image band list).  Symbols with
    no band within ``WAVELENGTH_TOLERANCE`` are left out; the caller decides
    whether they were required.
    """
    bands = list(bands)
    bound: dict[str, int] = {}
    taken: dict[int, str] = {}
    for symbol, wavelength in ruleset.declared_bands:
        dists = [abs(b.center_wavelength - wavelength) for b in bands]
        if not dists:
            continue
        idx = int(np.argmin(dists))
        if dists[idx] > WAVELENGTH_TOLERANCE:
            continue
        if idx in taken:
            raise ConfigError(
                f"band symbols {taken[idx]} and {symbol} both bind to the "
                f"image band at {bands[idx].center_wavelength} um"
            )
        taken[idx] = symbol
        bound[symbol] = idx
    return bound


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def _compile_for(
    ruleset: RuleSet,
    bands: Iterable[raster.BandMetadata],
    policy: str | None,
) -> tuple[dict[str, int], RuleProgram]:
    """(symbol -> band index, program) for images with these ``bands``.

    ``policy`` None means the rule set's own.  The rule set's legend is
    checked first, so every label the program writes fits a u16 map.
    """
    check_legend(legend_from_ruleset(ruleset))
    binding = bind_bands(ruleset, bands)
    missing = ruleset.required_bands() - set(binding)
    if missing:
        raise ConfigError(
            "image does not supply required band(s): " + ", ".join(sorted(missing))
        )
    return binding, compile_rules(ruleset, binding, policy or ruleset.match_policy)


def _label(
    binding: dict[str, int],
    program: RuleProgram,
    samples: np.ndarray,
    validity: np.ndarray,
) -> np.ndarray:
    planes = {symbol: samples[idx] for symbol, idx in binding.items()}
    return program.label(planes, validity)


def classify(
    image: MultiSpectralImage,
    ruleset: RuleSet,
    policy: str | None = None,
) -> CategoricalMap:
    """Label every valid pixel with the winning rule index.

    Rules are evaluated in index order; under last-match the highest
    satisfied index wins, under first-match the lowest.  Pixels satisfying
    no rule get the fallback class; invalid pixels get nodata.
    """
    binding, program = _compile_for(ruleset, image.bands, policy)
    labels = _label(binding, program, image.samples, image.validity)
    return CategoricalMap(labels, legend_from_ruleset(ruleset))


def classify_strip(
    strip: Strip,
    ruleset: RuleSet,
    policy: str,
    counter: RunStats | None = None,
) -> np.ndarray:
    """Label the core rows of one strip, counting them in ``counter.visits``;
    classification is context-free."""
    binding, program = _compile_for(ruleset, strip.bands, policy)
    labels = _label(binding, program, strip.core_samples, strip.core_validity)
    (counter or RunStats()).visits += int(labels.size)
    return labels


def classify_streamed(
    source: ImageSource,
    ruleset: RuleSet,
    strip_height: int,
    policy: str | None = None,
    counter: RunStats | None = None,
    workers: int = 1,
) -> CategoricalMap:
    """Strip-streamed classify; pixel-identical to whole-image classify.

    The rule set is compiled once, since every strip binds the same bands.
    Strips go to a pool of ``workers`` threads, but at most ``workers``
    strips are read and not yet labeled at once, so memory stays fixed; a
    strip's buffers are released when its labels are stored, or when the
    run fails.  Reads, releases and the count in ``counter.visits`` stay in
    the calling thread.
    """
    # Imported here: concurrent.futures loads logging, which would add
    # 10-20 ms to the start of every subcommand.
    from concurrent.futures import ThreadPoolExecutor

    if workers < 1:
        raise ConfigError("workers must be >= 1")
    counter = counter or RunStats()
    binding, program = _compile_for(ruleset, source.bands, policy)
    labels = np.empty((source.height, source.width), dtype=np.uint16)
    pending: deque = deque()

    def finish_oldest() -> None:
        # The strip stays pending until its labels are stored, so the
        # ``finally`` below releases it if its label fails.
        strip, future = pending[0]
        rows = future.result()
        labels[strip.core_start : strip.core_start + rows.shape[0]] = rows
        counter.visits += int(rows.size)
        pending.popleft()
        release_strip(strip)

    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for row0, row1 in strip_bounds(source.height, strip_height):
                if len(pending) == workers:
                    finish_oldest()
                strip = read_strip(source, row0, row1)
                pending.append((strip, pool.submit(
                    _label, binding, program, strip.core_samples, strip.core_validity
                )))
            while pending:
                finish_oldest()
    finally:
        # Left only by a failed read or label; the pool has joined its threads.
        for strip, _ in pending:
            release_strip(strip)
    return CategoricalMap(labels, legend_from_ruleset(ruleset))


def legend_from_ruleset(ruleset: RuleSet) -> tuple[LegendEntry, ...]:
    return tuple(
        LegendEntry(label, name, color)
        for label, name, color in ruleset.legend_entries()
    )


# ---------------------------------------------------------------------------
# Categorical map file I/O (u16 payload + legend in header)
# ---------------------------------------------------------------------------


def write_map(cmap: CategoricalMap, header_path: Path | str) -> None:
    extra = [("maptype", "categorical")]
    for e in cmap.legend:
        extra.append((f"legend.{e.label}.name", e.name))
        extra.append((f"legend.{e.label}.color", format_color(e.color)))
    raster.write_raster(header_path, extra, cmap.labels[np.newaxis], "u16")


def _legend_from_header(header: dict[str, str], header_path) -> tuple[LegendEntry, ...]:
    legend = []
    for key, value in header.items():
        if key.startswith("legend.") and key.endswith(".name"):
            label_text = key[len("legend."):-len(".name")]
            if not re.fullmatch(r"[0-9]+", label_text):
                raise FormatError(f"{header_path}: {key}: legend label is not digits 0-9")
            label = int(label_text)
            color_key = f"legend.{label_text}.color"
            color_text = header.get(color_key, "#000000")
            try:
                color = parse_color(color_text)
            except ValueError as exc:
                raise FormatError(f"{header_path}: {color_key}: {exc}") from None
            legend.append(LegendEntry(label, value, color))
    legend.sort(key=lambda e: e.label)
    return tuple(legend)


class MapSource:
    """A categorical map file read in rows of u16 labels.

    Only the header is read on opening.  Every ``rows`` read checks its
    labels against the legend; an unlisted one is the DataError
    ``CategoricalMap`` raises, naming every unlisted label of the map.
    """

    def __init__(self, header_path: Path | str):
        self._raster = raster.open_map_raster(
            header_path, "categorical", "u16", "a categorical map is one band of u16 labels")
        self.legend = _legend_from_header(self._raster.header, header_path)
        try:
            check_legend(self.legend)
        except SpecmapError as exc:
            raise exc.at(header_path)
        self.height, self.width = self._raster.height, self._raster.width
        self._listed = _listed(self.legend)

    def rows(self, row0: int, row1: int) -> np.ndarray:
        """u16 labels of rows [row0, row1), checked against the legend."""
        labels = self._read(row0, row1)
        if not self._listed[labels].all():
            chunks = _chunks(self._read, self.height, self.width)
            _refuse_unlisted(_label_counts(chunks), self.legend)
        return labels

    def _read(self, row0: int, row1: int) -> np.ndarray:
        return self._raster.read_raw_rows(row0, row1)[0]


def open_map(header_path: Path | str) -> MapSource:
    return MapSource(header_path)


def read_map(header_path: Path | str) -> CategoricalMap:
    source = open_map(header_path)
    # ``CategoricalMap`` checks the labels against the legend.
    return CategoricalMap(source._read(0, source.height), source.legend)
