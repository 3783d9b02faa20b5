"""Shared builders for test images, maps and on-disk scenes."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from specmap.raster import (
    BandMetadata, CategoricalMap, LegendEntry, MultiSpectralImage, write_image,
)
from specmap.rules import (
    Arith,
    BandRef,
    Cmp,
    Const,
    RequiresBand,
    Rule,
    RuleSet,
    make_and,
    make_or,
)

SPECL_WAVELENGTHS = {
    "b1": 0.48, "b2": 0.56, "b3": 0.66, "b4": 0.83, "b5": 1.6, "b7": 2.2,
}
SPECL_ORDER = ("b1", "b2", "b3", "b4", "b5", "b7")


def specl_bands(symbols=SPECL_ORDER, nodata=None, gain=1.0):
    return tuple(
        BandMetadata(i + 1, SPECL_WAVELENGTHS[s], gain=gain, nodata_value=nodata)
        for i, s in enumerate(symbols)
    )


def image_from_planes(planes: dict[str, np.ndarray], validity=None,
                      dtype_name="f64") -> MultiSpectralImage:
    """Build an image whose band wavelengths follow the SPECL symbols."""
    symbols = [s for s in SPECL_ORDER if s in planes]
    stack = np.stack([np.asarray(planes[s], dtype=np.float64) for s in symbols])
    if validity is None:
        validity = np.ones(stack.shape[1:], dtype=bool)
    return MultiSpectralImage(specl_bands(symbols), stack, validity, dtype_name)


def image_from_pixels(pixels: list[dict[str, float]]) -> MultiSpectralImage:
    """One-row image from per-pixel band dicts (missing bands read as 0)."""
    symbols = [s for s in SPECL_ORDER if any(s in p for p in pixels)]
    planes = {
        s: np.array([[p.get(s, 0.0) for p in pixels]]) for s in symbols
    }
    return image_from_planes(planes)


def legend(n: int, prefix="class"):
    return tuple(
        LegendEntry(i, f"{prefix}-{i}", (i * 37 % 256, i * 59 % 256, i * 83 % 256))
        for i in range(1, n + 1)
    )


def random_map(rng: np.random.Generator, height: int, width: int,
               n_labels: int, nodata_fraction: float = 0.0) -> CategoricalMap:
    labels = rng.integers(1, n_labels + 1, size=(height, width)).astype(np.int32)
    if nodata_fraction > 0:
        labels[rng.random((height, width)) < nodata_fraction] = 0
    return CategoricalMap(labels, legend(n_labels))


def random_image(rng: np.random.Generator, n_bands: int, height: int,
                 width: int) -> MultiSpectralImage:
    samples = rng.random((n_bands, height, width))
    bands = tuple(
        BandMetadata(i + 1, 0.4 + 0.2 * i) for i in range(n_bands)
    )
    return MultiSpectralImage(bands, samples, np.ones((height, width), bool))


# Spectral profiles over (b1, b2, b3, b4, b5, b7) that hit a spread of the
# shipped rule classes, for synthetic scenes.
SCENE_PROFILES = np.array([
    [0.020, 0.030, 0.020, 0.010, 0.010, 0.010],
    [0.020, 0.020, 0.015, 0.005, 0.005, 0.005],
    [0.030, 0.080, 0.050, 0.550, 0.250, 0.120],
    [0.030, 0.080, 0.050, 0.350, 0.200, 0.100],
    [0.100, 0.120, 0.150, 0.300, 0.350, 0.250],
    [0.800, 0.750, 0.700, 0.600, 0.050, 0.030],
    [0.600, 0.600, 0.600, 0.600, 0.400, 0.300],
    [0.290, 0.250, 0.250, 0.120, 0.300, 0.300],
])


def synth_scene(height: int, width: int, seed: int = 0, block: int = 32,
                nodata_fraction: float = 0.002) -> MultiSpectralImage:
    """Blocky multi-class scene encoded as u16 with nodata = raw 0."""
    rng = np.random.default_rng(seed)
    gh = (height + block - 1) // block
    gw = (width + block - 1) // block
    grid = rng.integers(0, len(SCENE_PROFILES), size=(gh, gw))
    regions = np.kron(grid, np.ones((block, block), dtype=np.int64))
    regions = regions[:height, :width]
    samples = SCENE_PROFILES[regions].transpose(2, 0, 1).copy()
    samples += rng.uniform(-0.004, 0.004, size=samples.shape)
    np.clip(samples, 0.001, 0.999, out=samples)
    # quantize exactly as the u16 encoding will store it
    gain = 1.0 / 65535.0
    raw = np.rint(samples / gain)
    samples = raw * gain
    validity = np.ones((height, width), dtype=bool)
    if nodata_fraction > 0:
        holes = rng.random((height, width)) < nodata_fraction
        validity &= ~holes
        samples[:, holes] = 0.0
    bands = specl_bands(nodata=0.0, gain=gain)
    return MultiSpectralImage(bands, samples, validity, "u16")


def write_scene(path, height: int, width: int, seed: int = 0, **kw):
    image = synth_scene(height, width, seed, **kw)
    write_image(image, path)
    return image


# -- random rule sets --------------------------------------------------------

_numbers = st.integers(0, 8000).map(lambda n: float(n) / 1000.0)
_num_leaf = st.one_of(
    _numbers.map(Const),
    st.sampled_from(SPECL_ORDER).map(BandRef),
)
_num_expr = st.recursive(
    _num_leaf,
    lambda children: st.tuples(st.sampled_from("+-/"), children, children).map(
        lambda t: Arith(*t)
    ),
    max_leaves=6,
)
_cmp = st.tuples(_num_expr, st.sampled_from(("<=", ">=", "<", ">")), _num_expr).map(
    lambda t: Cmp(*t)
)
_bool_expr = st.recursive(
    _cmp,
    lambda children: st.one_of(
        st.lists(children, min_size=2, max_size=3).map(make_and),
        st.lists(children, min_size=2, max_size=3).map(make_or),
        st.tuples(st.sampled_from(SPECL_ORDER), children).map(
            lambda t: RequiresBand(*t)
        ),
    ),
    max_leaves=8,
)
_names = st.text(
    alphabet="abcdefghij /()-", min_size=1, max_size=12
)
_colors = st.tuples(
    st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)
)


@st.composite
def rulesets(draw):
    """Random rule sets of 1-4 rules over the SPECL band symbols."""
    n_rules = draw(st.integers(1, 4))
    exprs = [draw(_bool_expr) for _ in range(n_rules)]
    rules = tuple(
        Rule(i + 1, draw(_names), expr, draw(_colors))
        for i, expr in enumerate(exprs)
    )
    ruleless = ()
    if draw(st.booleans()):
        ruleless = (LegendEntry(n_rules + 1, draw(_names), draw(_colors)),)
    return RuleSet(
        declared_bands=tuple(SPECL_WAVELENGTHS.items()),
        rules=rules,
        ruleless=ruleless,
        fallback=LegendEntry(n_rules + 2, draw(_names), draw(_colors)),
        match_policy=draw(st.sampled_from(("last-match", "first-match"))),
    )
