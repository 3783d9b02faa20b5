"""The whole ``classify -> segment -> compare`` chain at random strip heights.

Small scenes are generated with ``hypothesis``: any size up to 24x24, square
blocks of one profile down to single pixels, whole rows and columns without
data, u16 or f64 samples, with or without a band nodata value.  Each stage
runs through the CLI at its own random ``--stream`` height, with random
``--workers`` and ``--adjacency``.  Every output must equal, bit for bit, what
the whole-image library calls write, and agree with ``tests/oracles.py``.  A
refused run must leave no output.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from specmap.classify import classify
from specmap.cli import main
from specmap.compare import (
    build_contingency,
    build_translation,
    read_legend_mapping,
    read_resolution,
    translate_legend,
    write_contingency_csv,
)
from specmap.errors import DataError
from specmap.raster import (
    CategoricalMap, LegendEntry, MultiSpectralImage, read_image, read_map, write_image, write_map,
)
from specmap.rules import load_specl
from specmap.segmentation import (
    build_superpixel_table,
    connected_components,
    cross_aura,
    reconstruct,
    rmse_map,
    write_aura,
    write_rmse,
    write_segmentation,
    write_superpixel_csv,
)

from helpers import SCENE_PROFILES, specl_bands
from oracles import (
    flood_fill_segments,
    group_by_means,
    scalar_rmse_stats,
    segmentations_bijective,
    specl_reference,
    tally_contingency,
)

SPECL_PATH = str(files("specmap").joinpath("data/specl.rules"))
NLCD_MAPPING = str(files("specmap").joinpath("data/nlcd_to_lccsdp.csv"))
NLCD_RESOLUTION = str(files("specmap").joinpath("data/nlcd_resolution_first_listed.csv"))
NLCD_CODES = (11, 12, 21, 22, 23, 24, 31, 41, 42, 43, 51, 52, 71, 72, 73, 74,
              81, 82, 90, 95)
NLCD_LEGEND = tuple(LegendEntry(c, f"code-{c}", (c, 0, 0)) for c in NLCD_CODES)
SEGMENT_FILES = ("seg.hdr", "seg.bin", "aura.hdr", "aura.bin", "superpixels.csv",
                 "recon.hdr", "recon.bin", "rmse.hdr", "rmse.bin")
U16_GAIN = 1.0 / 65535.0


@dataclass(frozen=True)
class Case:
    """One scene and the CLI settings of one run of the chain."""

    height: int
    width: int
    block: int
    dtype: str                      # "u16" or "f64"
    nodata: float | None            # the bands' nodata value
    nodata_rows: tuple[int, ...]    # rows with no valid pixel
    nodata_cols: tuple[int, ...]
    holes: float                    # share of other pixels without data
    seed: int                       # profiles, noise, holes and reference map
    streams: tuple[int, int, int]   # --stream of classify, segment, compare
    workers: int
    adjacency: int
    translate: str                  # "none", "ref" or "both"


@st.composite
def cases(draw) -> Case:
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    dtype = draw(st.sampled_from(("u16", "f64")))
    nodata = draw(st.sampled_from((None, 0.0, math.nan) if dtype == "f64" else (None, 0.0)))
    # Without a nodata value every pixel has data.
    masked = nodata is not None
    rows = draw(st.sets(st.integers(0, h - 1), max_size=h)) if masked else set()
    cols = draw(st.sets(st.integers(0, w - 1), max_size=w)) if masked else set()
    return Case(
        height=h, width=w, block=draw(st.integers(1, 12)), dtype=dtype, nodata=nodata,
        nodata_rows=tuple(sorted(rows)), nodata_cols=tuple(sorted(cols)),
        holes=draw(st.sampled_from((0.0, 0.1, 0.5))) if masked else 0.0,
        seed=draw(st.integers(0, 2**32 - 1)),
        streams=tuple(draw(st.integers(1, h)) for _ in range(3)),
        workers=draw(st.integers(1, 3)), adjacency=draw(st.sampled_from((4, 8))),
        translate=draw(st.sampled_from(("none", "ref", "both"))),
    )


def scene(case: Case) -> MultiSpectralImage:
    """Blocks of the SPECL profiles plus noise, quantized as stored."""
    rng = np.random.default_rng(case.seed)
    h, w, block = case.height, case.width, case.block
    grid = rng.integers(0, len(SCENE_PROFILES), size=(-(-h // block), -(-w // block)))
    regions = np.kron(grid, np.ones((block, block), dtype=np.int64))[:h, :w]
    samples = SCENE_PROFILES[regions].transpose(2, 0, 1).copy()
    samples += rng.uniform(-0.004, 0.004, size=samples.shape)
    np.clip(samples, 0.001, 0.999, out=samples)
    gain = U16_GAIN if case.dtype == "u16" else 1.0
    if case.dtype == "u16":
        samples = np.rint(samples / gain) * gain
    validity = rng.random((h, w)) >= case.holes
    validity[list(case.nodata_rows), :] = False
    validity[:, list(case.nodata_cols)] = False
    samples[:, ~validity] = 0.0
    return MultiSpectralImage(specl_bands(nodata=case.nodata, gain=gain), samples,
                              validity, case.dtype)


def _invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _assert_manifest_hashes(manifest_path: Path) -> None:
    manifest = json.loads(manifest_path.read_text())
    for entry in manifest["inputs"] + manifest["outputs"]:
        assert entry["sha256"] == _sha256(Path(entry["path"])), entry["path"]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("chain")


@settings(max_examples=180, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=cases())
# One pixel; one column; a scene with no valid pixel, which compare refuses.
@example(case=Case(1, 1, 1, "u16", None, (), (), 0.0, 0, (1, 1, 1), 1, 8, "none"))
@example(case=Case(24, 1, 1, "f64", math.nan, (), (), 0.1, 3, (5, 1, 24), 3, 4, "both"))
@example(case=Case(7, 9, 2, "u16", 0.0, (0, 6), (), 0.0, 5, (1, 2, 3), 2, 8, "ref"))
@example(case=Case(3, 5, 1, "f64", 0.0, (0, 1, 2), (), 0.0, 9, (2, 3, 1), 2, 8, "ref"))
# Two one-row strips: the smallest scenes that caught a strip seam one row
# off (an aura halo one row short, a contingency strip read one row up).
@example(case=Case(2, 1, 1, "u16", None, (), (), 0.0, 1, (1, 1, 1), 1, 4, "none"))
@example(case=Case(2, 1, 1, "u16", None, (), (), 0.0, 0, (1, 1, 1), 1, 4, "none"))
# Single-pixel blocks with nodata columns across every strip seam.
@example(case=Case(24, 24, 1, "u16", 0.0, (11,), (0, 23), 0.1, 11, (1, 5, 7), 3, 4, "both"))
def test_chain_equals_whole_image_references(work, case):
    runner = CliRunner()
    root = work / "run"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir()
    write_image(scene(case), root / "scene.hdr")
    image = read_image(root / "scene.hdr")
    rng = np.random.default_rng(case.seed + 1)
    ref_labels = np.array(NLCD_CODES, dtype=np.uint16)[
        rng.integers(0, len(NLCD_CODES), size=(case.height, case.width))]
    ref_labels[rng.random(ref_labels.shape) < 0.1] = 0
    write_map(CategoricalMap(ref_labels, NLCD_LEGEND), root / "ref.hdr")
    s_classify, s_segment, s_compare = case.streams

    # classify: the whole-image library call and the hand-written rules.
    result = _invoke(runner, "classify", "--rules", SPECL_PATH, "--in", root / "scene.hdr",
                     "--out", root / "map.hdr", "--stream", s_classify,
                     "--workers", case.workers)
    assert result.exit_code == 0, result.output
    cmap = classify(image, load_specl())
    write_map(cmap, root / "want.hdr")
    for suffix in ("hdr", "bin"):
        assert (root / f"map.{suffix}").read_bytes() == (root / f"want.{suffix}").read_bytes()
    pixels = image.samples.transpose(1, 2, 0)
    for (r, c), valid in np.ndenumerate(image.validity):
        assert cmap.labels[r, c] == (specl_reference(pixels[r, c]) if valid else 0)
    _assert_manifest_hashes(root / "map.manifest.json")

    # segment: the whole-image references and the oracles.
    result = _invoke(runner, "segment", "--in", root / "map.hdr", "--image", root / "scene.hdr",
                     "--out-prefix", root / "seg", "--adjacency", case.adjacency,
                     "--stream", s_segment, "--json")
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    seg = connected_components(cmap, case.adjacency)
    aura = cross_aura(cmap, case.adjacency)
    table = build_superpixel_table(cmap, seg, image, aura)
    recon = reconstruct(seg, table, image)
    rmse = rmse_map(image, recon)
    write_segmentation(seg, root / "want.seg.hdr")
    write_aura(aura, root / "want.aura.hdr")
    write_superpixel_csv(table, root / "want.superpixels.csv")
    write_image(recon, root / "want.recon.hdr")
    write_rmse(rmse, root / "want.rmse.hdr")
    for name in SEGMENT_FILES:
        assert (root / f"seg.{name}").read_bytes() == (root / f"want.{name}").read_bytes(), name
    stats = rmse.stats()
    assert report["segments"] == seg.segment_count
    assert (report["rmse_min"], report["rmse_max"], report["rmse_mean"],
            report["rmse_stdev"]) == (stats.minimum, stats.maximum, stats.mean, stats.stdev)
    _assert_manifest_hashes(root / "seg.manifest.json")
    oracle, count = flood_fill_segments(cmap.labels, case.adjacency)
    assert count == seg.segment_count
    assert segmentations_bijective(seg.segment_ids, oracle)
    for sid, mean in group_by_means(seg.segment_ids, image.samples).items():
        got = recon.samples[:, seg.segment_ids == sid]
        assert np.allclose(got, mean[:, np.newaxis], rtol=0, atol=1e-9)
    if seg.segment_count:
        want = scalar_rmse_stats(image.samples, recon.samples, rmse.validity)
        assert (stats.minimum, stats.maximum, stats.mean, stats.stdev) == pytest.approx(
            want, abs=1e-12)

    # compare: a whole-map contingency, tallied pixel by pixel too.  Its
    # CSV fed back through --counts must give the same outputs.
    args = ["--test", root / "map.hdr", "--ref", root / "ref.hdr"]
    test_map, ref_map = cmap, read_map(root / "ref.hdr")
    if case.translate != "none":
        resolution = read_resolution(NLCD_RESOLUTION)
        args += ["--translate-ref", NLCD_MAPPING, "--resolution", NLCD_RESOLUTION]
        ref_map = translate_legend(ref_map, build_translation(
            read_legend_mapping(NLCD_MAPPING), resolution))
    if case.translate == "both":
        mapping = root / "to_3.csv"
        mapping.write_text("child_label,child_name,parent_label,parent_name\n" + "".join(
            f"{e.label},c{e.label},{e.label % 3 + 1},P{e.label % 3 + 1}\n"
            for e in cmap.legend))
        args += ["--translate-test", mapping]
        test_map = translate_legend(test_map, build_translation(
            read_legend_mapping(mapping), resolution))
    result = _invoke(runner, "compare", *args, "--out-dir", root / "cmp",
                     "--stream", s_compare, "--json")
    tally = tally_contingency(test_map.labels, ref_map.labels,
                              [e.label for e in test_map.legend],
                              [e.label for e in ref_map.legend])
    if not tally.any():
        message = "empty overlap: no pixel is valid in both maps"
        with pytest.raises(DataError, match=message):
            build_contingency(test_map, ref_map)
        assert result.exit_code == 1
        assert result.output == f"error: {message}\n"
        assert not list((root / "cmp").iterdir())
    else:
        assert result.exit_code == 0, result.output
        whole = build_contingency(test_map, ref_map)
        assert np.array_equal(whole.counts, tally)
        write_contingency_csv(root / "counts.csv", whole)
        counted = _invoke(runner, "compare", "--counts", root / "counts.csv",
                          "--out-dir", root / "want-cmp", "--json")
        assert counted.exit_code == 0, counted.output
        assert result.output == counted.output
        names = sorted(p.name for p in (root / "cmp").iterdir())
        assert names == sorted(p.name for p in (root / "want-cmp").iterdir())
        assert len(names) == 11
        for name in names:
            if name != "manifest.json":
                assert (root / "cmp" / name).read_bytes() == (
                    root / "want-cmp" / name).read_bytes(), name
        _assert_manifest_hashes(root / "cmp" / "manifest.json")

    # Refused runs leave no output: a map that labels the pixels the image
    # marks nodata, a reference of another shape, and an option the mode
    # does not read.
    invalid = np.argwhere(~image.validity)
    if invalid.size:
        labels = cmap.labels.copy()
        labels[~image.validity] = cmap.legend[-1].label
        write_map(CategoricalMap(labels, cmap.legend), root / "labelled.hdr")
        result = _invoke(runner, "segment", "--in", root / "labelled.hdr",
                         "--image", root / "scene.hdr", "--out-prefix", root / "bad",
                         "--adjacency", case.adjacency, "--stream", s_segment)
        r, c = invalid[0]
        assert result.exit_code == 1
        assert result.output == (f"error: the map labels row {r}, col {c}, "
                                 "which the image marks nodata\n")
        assert not list(root.glob("bad.*"))
    write_map(CategoricalMap(np.concatenate([ref_labels, ref_labels[:1]]), NLCD_LEGEND),
              root / "tall.hdr")
    result = _invoke(runner, "compare", "--test", root / "map.hdr", "--ref", root / "tall.hdr",
                     "--out-dir", root / "bad-cmp", "--stream", s_compare)
    assert result.exit_code == 1
    assert result.output == "error: test and reference maps differ in shape\n"
    assert not list((root / "bad-cmp").iterdir())
    result = _invoke(runner, "compare", *args[:4], "--resolution", NLCD_RESOLUTION,
                     "--out-dir", root / "unread")
    assert result.exit_code == 2
    assert not (root / "unread").exists()
