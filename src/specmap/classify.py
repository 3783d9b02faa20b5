"""Ordered-rule color naming: band binding and classification.

Label 0 is reserved for nodata.  Every other label is a legend entry, and
for maps produced by ``classify`` the labels are the rule indices, written
as u16 ``raster.CategoricalMap`` labels under the rule set's own legend,
``RuleSet.legend()``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

import numpy as np

from . import raster
from .errors import ConfigError
from .raster import (
    CategoricalMap, ImageSource, MultiSpectralImage, RunStats, Strip,
    check_legend, read_strip, release_strip, strip_bounds,
)
from .rules import RuleProgram, RuleSet, compile_rules

# ``eval_expr`` is the reference evaluator the compiled program is tested
# against; the benchmark's tracer wraps it under this module's name.
from .rules import eval_expr  # noqa: F401

#: Maximal wavelength distance (micrometers) for binding a rule-file band
#: symbol to an image band.  Neighboring optical band centers sit much
#: further apart than this.
WAVELENGTH_TOLERANCE = 0.03


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
    check_legend(ruleset.legend())
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
    return CategoricalMap(labels, ruleset.legend())


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
    sink: Callable[[int, np.ndarray], None] | None = None,
) -> CategoricalMap | None:
    """Strip-streamed classify; pixel-identical to whole-image classify.

    Each strip's labels go to ``sink(row0, labels)`` in row order, so
    a sink that writes them holds no whole label plane.  Without a sink
    they fill one plane, returned as a ``CategoricalMap``.  The rule set is
    compiled once, since every strip binds the same bands.  Strips go to a
    pool of ``workers`` threads, but at most ``workers`` strips are read
    and not yet labeled at once, so memory stays fixed; a strip's buffers
    are released when its labels are sunk, or when the run fails.  Reads,
    sinks, releases and the count in ``counter.visits`` stay in the
    calling thread.
    """
    # Imported here: concurrent.futures loads logging, which would add
    # 10-20 ms to the start of every subcommand.
    from concurrent.futures import ThreadPoolExecutor

    if workers < 1:
        raise ConfigError("workers must be >= 1")
    counter = counter or RunStats()
    binding, program = _compile_for(ruleset, source.bands, policy)
    labels = None
    if sink is None:
        labels = np.empty((source.height, source.width), dtype=np.uint16)

        def sink(row0: int, rows: np.ndarray) -> None:
            labels[row0 : row0 + rows.shape[0]] = rows

    pending: deque = deque()

    def finish_oldest() -> None:
        # The strip stays pending until its labels are sunk, so the
        # ``finally`` below releases it if its label fails.
        strip, future = pending[0]
        rows = future.result()
        sink(strip.core_start, rows)
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
        # Left only by a failed read, label or sink; the pool has joined its threads.
        for strip, _ in pending:
            release_strip(strip)
    return None if labels is None else CategoricalMap(labels, ruleset.legend())
