"""Seeded synthetic inputs for the benchmark: scenes, reference maps, vectors.

Everything here is a pure function of (workload kind, size, seed).  The
generator writes the documented flat-raster and CSV formats itself and
does not import the package under test or its test helpers, so neither a
program change nor a test refactor can shift the inputs.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

#: Band symbols and centre wavelengths (micrometers) of the SPECL rule file.
BANDS = (("b1", 0.48), ("b2", 0.56), ("b3", 0.66), ("b4", 0.83),
         ("b5", 1.6), ("b7", 2.2))

#: Reflectance profiles over (b1, b2, b3, b4, b5, b7) that land in a spread
#: of SPECL classes: two waters, bright and average vegetation, a soil/veg
#: mix, snow, cloud and bare soil.
PROFILES = np.array([
    [0.020, 0.030, 0.020, 0.010, 0.010, 0.010],
    [0.020, 0.020, 0.015, 0.005, 0.005, 0.005],
    [0.030, 0.080, 0.050, 0.550, 0.250, 0.120],
    [0.030, 0.080, 0.050, 0.350, 0.200, 0.100],
    [0.100, 0.120, 0.150, 0.300, 0.350, 0.250],
    [0.800, 0.750, 0.700, 0.600, 0.050, 0.030],
    [0.600, 0.600, 0.600, 0.600, 0.400, 0.300],
    [0.290, 0.250, 0.250, 0.120, 0.300, 0.300],
])

#: Ground-truth NLCD code of each profile.  52 and 24 are ambiguous in the
#: packaged NLCD -> LCCS-DP mapping, so compare must use the resolution file.
PROFILE_NLCD = (11, 11, 41, 81, 52, 12, 24, 31)

#: NLCD codes the reference map may carry (the truth codes plus the codes
#: label noise draws from), with their legend names.
NLCD_NAMES = {
    11: "Open water",
    12: "Perennial Ice/Snow",
    21: "Developed, Open Space",
    24: "Developed, High Intensity",
    31: "Barren Land (Rock/Sand/Clay)",
    41: "Deciduous Forest",
    52: "Scrub/Shrub",
    81: "Pasture/Hay",
    90: "Woody Wetlands",
}

GAIN = 1.0 / 65535.0
NOISE = 0.004
NODATA_SHARE = 0.002
BLOCK = 32
REF_FLIP_SHARE = 0.05

#: SPECL legend names, in label order 1..19; evidence vectors draw their
#: colour names from these.
SPECL_NAMES = (
    "Snow/ice", "Cloud", "Bright bare soil/sand/cloud", "Dark bare soil",
    "Average vegetation", "Bright vegetation", "Dark vegetation",
    "Yellow vegetation", "Mix of vegetation/soil", "Asphalt/dark sand",
    "Sand/bare soil/cloud", "Bright sand/bare soil/cloud",
    "Dry vegetation/soil", "Sparse vegetation/soil", "Turbid water",
    "Clear water", "Clear water over sand", "Shadow",
    "Not classified (outliers)",
)

#: LCCS-DP parent names of the packaged mapping; the evidence classes.
LCCS_NAMES = (
    "A1 - Vegetated terrestrial", "A2 - Vegetated aquatic",
    "B3 - Non-vegetated terrestrial", "B4 - Non-vegetated aquatic",
)


def payload_path(header: Path) -> Path:
    return header.with_suffix(".bin")


def _write_u16(header: Path, planes: np.ndarray, extra: list[tuple[str, str]]) -> None:
    nbands, height, width = planes.shape
    lines = [f"width = {width}", f"height = {height}", f"bands = {nbands}",
             "dtype = u16", "interleave = bsq"]
    lines += [f"{k} = {v}" for k, v in extra]
    header.write_text("\n".join(lines) + "\n", encoding="utf-8")
    np.ascontiguousarray(planes, dtype="<u2").tofile(payload_path(header))


def region_grid(kind: str, height: int, width: int,
                rng: np.random.Generator) -> np.ndarray:
    """Ground-truth profile index per pixel: 32-px blocks or per pixel."""
    if kind == "blocky":
        gh, gw = -(-height // BLOCK), -(-width // BLOCK)
        grid = rng.integers(0, len(PROFILES), size=(gh, gw), dtype=np.int8)
        return np.repeat(np.repeat(grid, BLOCK, 0), BLOCK, 1)[:height, :width]
    if kind == "noisy":
        return rng.integers(0, len(PROFILES), size=(height, width), dtype=np.int8)
    raise ValueError(f"unknown scene kind {kind!r}")


def scene_raw(regions: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """u16 band planes: profile + uniform noise, clipped, raw 0 = nodata."""
    height, width = regions.shape
    raw = np.empty((len(BANDS), height, width), dtype="<u2")
    for b in range(len(BANDS)):
        plane = PROFILES[regions, b]
        plane += rng.uniform(-NOISE, NOISE, size=plane.shape)
        np.clip(plane, 0.001, 0.999, out=plane)
        raw[b] = np.rint(plane * 65535.0)
    holes = rng.random((height, width)) < NODATA_SHARE
    raw[:, holes] = 0
    return raw


def reference_labels(regions: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """NLCD reference map: truth codes, a seeded share flipped, own nodata."""
    lut = np.array(PROFILE_NLCD, dtype=np.uint16)
    labels = lut[regions]
    flip = rng.random(labels.shape) < REF_FLIP_SHARE
    codes = np.array(sorted(NLCD_NAMES), dtype=np.uint16)
    labels[flip] = codes[rng.integers(0, len(codes), size=int(flip.sum()))]
    labels[rng.random(labels.shape) < NODATA_SHARE] = 0
    return labels


def write_scene(header: Path, raw: np.ndarray) -> None:
    extra = []
    for n, (_, wavelength) in enumerate(BANDS, start=1):
        extra += [(f"band.{n}.wavelength", repr(wavelength)),
                  (f"band.{n}.gain", repr(GAIN)),
                  (f"band.{n}.offset", "0.0"),
                  (f"band.{n}.nodata", "0.0")]
    _write_u16(header, raw, extra)


def write_reference(header: Path, labels: np.ndarray) -> None:
    extra = [("maptype", "categorical")]
    for i, (code, name) in enumerate(sorted(NLCD_NAMES.items())):
        extra += [(f"legend.{code}.name", name),
                  (f"legend.{code}.color", "#%02X%02X%02X" % (
                      40 + 23 * i, 200 - 17 * i, 90 + 13 * i))]
    _write_u16(header, labels[np.newaxis], extra)


def write_vectors(path: Path, n: int, rng: np.random.Generator) -> None:
    """``id,color_name,class_name,shape,texture,spatial`` rows, one per class."""
    colors = rng.integers(0, len(SPECL_NAMES), size=n)
    members = np.round(rng.random((n, len(LCCS_NAMES), 3)), 4)
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["id", "color_name", "class_name", "shape", "texture", "spatial"])
        for i in range(n):
            color = SPECL_NAMES[colors[i]]
            for c, cls in enumerate(LCCS_NAMES):
                s, t, p = members[i, c]
                w.writerow([f"v{i:05d}", color, cls, repr(float(s)),
                            repr(float(t)), repr(float(p))])


def generate(kind: str, height: int, width: int, seed: int, vectors: int,
             out_dir: Path) -> dict:
    """Write scene, reference map and evidence vectors; return a descriptor."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, height, width, 1 if kind == "noisy" else 0])
    regions = region_grid(kind, height, width, rng)
    raw = scene_raw(regions, rng)
    scene = out_dir / "scene.hdr"
    write_scene(scene, raw)
    nodata = int(np.count_nonzero(raw[0] == 0))
    del raw
    ref = out_dir / "reference.hdr"
    write_reference(ref, reference_labels(regions, rng))
    del regions
    vec = out_dir / "vectors.csv"
    write_vectors(vec, vectors, rng)
    files = [scene, payload_path(scene), ref, payload_path(ref), vec]
    return {
        "kind": kind,
        "seed": seed,
        "height": height,
        "width": width,
        "megapixels": height * width / 1e6,
        "bands": len(BANDS),
        "dtype": "u16",
        "nodata_share": nodata / (height * width),
        # Size of the scene once calibrated to float64, as the program holds
        # it; compare with the L3 size in the environment record.
        "calibrated_f64_mb": len(BANDS) * height * width * 8 / 1e6,
        "evidence_vectors": vectors,
        "bytes_on_disk": {f.name: f.stat().st_size for f in files},
    }
