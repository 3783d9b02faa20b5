import csv
import errno
import hashlib
import importlib
import json
import threading
import tracemalloc
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import specmap.cli
from specmap import raster, segmentation
from specmap.cli import main
from specmap.compare import read_aggregation, translate_legend
from specmap.errors import ConfigError, DataError
from specmap.raster import (
    STRIP_PIXELS,
    BandMetadata,
    CategoricalMap,
    ImageSource,
    LegendEntry,
    MultiSpectralImage,
    read_header,
    read_image,
    read_map,
    strip_ledger,
    write_header,
    write_image,
    write_map,
    write_raster,
)
from specmap.rules import load_specl, parse_rules
from specmap.classify import bind_bands, classify
from specmap.segmentation import (
    _CSV_CHUNK_ROWS,
    build_superpixel_table,
    connected_components,
    cross_aura,
    read_segmentation,
    reconstruct,
    rmse_map,
    write_aura,
    write_rmse,
    write_segmentation,
    write_superpixel_csv,
)

from helpers import image_from_pixels, image_from_planes, legend, synth_scene, write_scene
from oracles import segmentations_bijective, tally_contingency
from test_segmentation import NINE_SEGMENT_MAP

SPECL_PATH = str(files("specmap").joinpath("data/specl.rules"))
SPECL_LABELS = tuple(e.label for e in load_specl().legend())
COUNTS_PATH = str(files("specmap").joinpath("data/harmonization_example_counts.csv"))
OVERRIDES_PATH = str(
    files("specmap").joinpath("data/harmonization_example_overrides.csv")
)
NLCD_MAPPING = str(files("specmap").joinpath("data/nlcd_to_lccsdp.csv"))
NLCD_RESOLUTION = str(files("specmap").joinpath("data/nlcd_resolution_first_listed.csv"))
NLCD_CODES = np.array([11, 12, 21, 22, 23, 24, 31, 41, 42, 43, 51, 52, 71, 72, 73, 74,
                       81, 82, 90, 95])
NLCD_LEGEND = tuple(LegendEntry(int(c), f"code-{c}", (int(c), 0, 0)) for c in NLCD_CODES)


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    result = runner.invoke(main, [str(a) for a in args], catch_exceptions=False)
    return result


def run_into_empty_dir(runner, out, *args):
    """Run a subcommand that must succeed and write under ``out``, manifest included."""
    assert not out.exists() or not list(out.iterdir())
    result = invoke(runner, *args)
    assert result.exit_code == 0, result.output
    assert [p for p in out.iterdir() if p.name.endswith("manifest.json")]


def assert_failure_leaves_nothing(runner, out, message, *args):
    """Run a subcommand that must fail with ``message``; no file is left under
    ``out``: neither the last run's outputs and manifest nor its own."""
    result = runner.invoke(main, [str(a) for a in args])
    assert result.exit_code == 1
    assert message in result.output
    assert isinstance(result.exception, SystemExit)
    assert not list(out.iterdir())


def full_disk(path, *args):
    """A writer that writes part of ``path`` and then finds the disk full."""
    Path(path).write_text("partial")
    raise OSError(errno.ENOSPC, "No space left on device")


FULL_DISK = f"error: [Errno {errno.ENOSPC}] No space left on device\n"


class TestClassifyCommand:
    def test_end_to_end_matches_library(self, runner, tmp_path):
        image = write_scene(tmp_path / "scene.hdr", 48, 20, seed=11, block=8)
        out = tmp_path / "map.hdr"
        result = invoke(runner, "classify", "--rules", SPECL_PATH,
                        "--in", tmp_path / "scene.hdr", "--out", out)
        assert result.exit_code == 0, result.output
        expected = classify(image, load_specl())
        got = read_map(out)
        assert np.array_equal(got.labels, expected.labels)
        assert got.legend == expected.legend

    def test_missing_rule_file_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, [
            "classify", "--rules", str(tmp_path / "nope.rules"),
            "--in", str(tmp_path / "scene.hdr"), "--out", str(tmp_path / "map.hdr"),
        ])
        assert result.exit_code == 2
        assert "nope.rules" in result.output

    def test_policy_flag_changes_clear_water(self, runner, tmp_path):
        image = image_from_pixels(
            [dict(b1=0.01, b2=0.01, b3=0.01, b4=0.01, b5=0.01, b7=0.01)] * 4
        )
        write_image(image, tmp_path / "water.hdr")
        last = tmp_path / "last.hdr"
        first = tmp_path / "first.hdr"
        invoke(runner, "classify", "--rules", SPECL_PATH, "--in",
               tmp_path / "water.hdr", "--out", last)
        invoke(runner, "classify", "--rules", SPECL_PATH, "--in",
               tmp_path / "water.hdr", "--out", first, "--policy", "first-match")
        assert (read_map(last).labels == 16).all()
        assert (read_map(first).labels == 15).all()

    def test_streamed_equals_whole(self, runner, tmp_path):
        write_scene(tmp_path / "scene.hdr", 64, 16, seed=12, block=8)
        whole = tmp_path / "whole.hdr"
        streamed = tmp_path / "streamed.hdr"
        invoke(runner, "classify", "--rules", SPECL_PATH,
               "--in", tmp_path / "scene.hdr", "--out", whole)
        invoke(runner, "classify", "--rules", SPECL_PATH,
               "--in", tmp_path / "scene.hdr", "--out", streamed,
               "--stream", 16, "--workers", 2)
        assert np.array_equal(read_map(whole).labels, read_map(streamed).labels)

    def test_default_run_streams_fixed_size_strips(self, runner, tmp_path):
        width = 512
        rows = STRIP_PIXELS // width
        write_scene(tmp_path / "scene.hdr", 2 * rows + 88, width, seed=16, block=16)
        out = tmp_path / "map.hdr"
        strip_ledger.reset()
        result = invoke(runner, "classify", "--rules", SPECL_PATH,
                        "--in", tmp_path / "scene.hdr", "--out", out, "--workers", 2)
        assert result.exit_code == 0, result.output
        expected = classify(read_image(tmp_path / "scene.hdr"), load_specl())
        assert np.array_equal(read_map(out).labels, expected.labels)
        strip_bytes = 6 * rows * width * 8 + rows * width
        assert strip_ledger.peak == 2 * strip_bytes  # two of the three strips

    def test_negative_header_sizes_exit_1(self, runner, tmp_path):
        # -2 x -3 x 6 bands x 1 byte matches the 36-byte payload.
        entries = [("width", "-2"), ("height", "-3"), ("bands", "6"), ("dtype", "u8"),
                   ("interleave", "bsq")] + [
            (f"band.{i}.wavelength", str(w)) for i, w in enumerate(
                (0.48, 0.56, 0.66, 0.83, 1.6, 2.2), start=1)]
        write_header(tmp_path / "scene.hdr", entries)
        (tmp_path / "scene.bin").write_bytes(bytes(36))
        result = runner.invoke(main, [
            "classify", "--rules", SPECL_PATH, "--in", str(tmp_path / "scene.hdr"),
            "--out", str(tmp_path / "map.hdr"),
        ])
        assert result.exit_code == 1
        assert "scene.hdr: header key 'width' must be at least 1, got -2" in result.output
        assert isinstance(result.exception, SystemExit)  # no traceback

    def test_output_directory_is_made_after_the_input_check(self, runner, tmp_path):
        out = tmp_path / "no_such_dir" / "colors.hdr"
        args = ["classify", "--rules", SPECL_PATH, "--in", tmp_path / "scene.hdr",
                "--out", out]
        missing = runner.invoke(main, [str(a) for a in args])
        assert missing.exit_code == 2
        assert not out.parent.exists()
        write_scene(tmp_path / "scene.hdr", 16, 8, seed=12, block=4)
        result = invoke(runner, *args)
        assert result.exit_code == 0, result.output
        assert read_map(out).labels.shape == (16, 8)
        assert (out.parent / "colors.manifest.json").exists()

    def test_failed_rerun_leaves_no_manifest_and_no_output(self, runner, tmp_path):
        """A rerun into the same map whose aggregation file is refused."""
        write_scene(tmp_path / "scene.hdr", 20, 12, seed=1, block=4)
        out = tmp_path / "out"
        args = ["classify", "--rules", SPECL_PATH, "--in", tmp_path / "scene.hdr",
                "--out", out / "colors.hdr"]
        run_into_empty_dir(runner, out, *args)
        bad = tmp_path / "bad.csv"
        bad.write_text("child_label,parent_label\n21\n")
        assert_failure_leaves_nothing(runner, out, "line 2", *args, "--aggregate", bad)

    def test_missed_strip_violates_the_one_pass_contract(self, runner, tmp_path,
                                                         monkeypatch):
        """A run that labels fewer pixels than the map holds is refused, and
        leaves neither the last run's files nor its own."""
        write_scene(tmp_path / "scene.hdr", 20, 12, seed=1, block=4)
        out = tmp_path / "out"
        args = ["classify", "--rules", SPECL_PATH, "--in", tmp_path / "scene.hdr",
                "--out", out / "colors.hdr", "--stream", 5]
        run_into_empty_dir(runner, out, *args)
        # The package's ``classify`` function hides the submodule attribute.
        module = importlib.import_module("specmap.classify")
        bounds = module.strip_bounds
        monkeypatch.setattr(module, "strip_bounds", lambda h, s: bounds(h, s)[:-1])
        assert_failure_leaves_nothing(
            runner, out, "error: one-pass contract violated: 180 visits for 240 pixels",
            *args)

    @pytest.mark.parametrize("declared, symbols", [
        ("b1@0.48, b2@0.49", "b1 and b2"),
        ("b2@0.49, b1@0.47", "b2 and b1"),
    ], ids=["exact_first", "near_first"])
    def test_two_symbols_bound_to_one_band_leave_nothing(self, runner, tmp_path, declared,
                                                        symbols):
        """Two rule symbols within the binding tolerance of the image band at
        0.48 um are refused, naming both, and a rerun leaves no map and no
        manifest."""
        image = write_scene(tmp_path / "scene.hdr", 20, 12, seed=1, block=4)
        rules = tmp_path / "two.rules"
        rules.write_text(f'bands: {declared}\n'
                         'rule 1 "x" color #000000 { b1 <= b2 }\nfallback 2 "f"\n')
        message = f"band symbols {symbols} both bind to the image band at 0.48 um"
        with pytest.raises(ConfigError, match=message):
            bind_bands(parse_rules(rules.read_text()), image.bands)
        out = tmp_path / "out"
        args = ["classify", "--in", tmp_path / "scene.hdr", "--out", out / "colors.hdr"]
        run_into_empty_dir(runner, out, *args, "--rules", SPECL_PATH)
        assert_failure_leaves_nothing(runner, out, f"error: {message}\n", *args,
                                      "--rules", rules)

    def test_zero_workers_is_usage_error(self, runner, tmp_path):
        write_scene(tmp_path / "scene.hdr", 16, 8, seed=12, block=4)
        result = runner.invoke(main, [
            "classify", "--rules", SPECL_PATH, "--in", str(tmp_path / "scene.hdr"),
            "--out", str(tmp_path / "map.hdr"), "--stream", "4", "--workers", "0",
        ])
        assert result.exit_code == 2
        assert "--workers" in result.output
        assert not (tmp_path / "map.hdr").exists()

    def test_manifest_hashes_inputs_and_outputs(self, runner, tmp_path):
        write_scene(tmp_path / "scene.hdr", 16, 8, seed=13, block=4)
        out = tmp_path / "map.hdr"
        result = invoke(runner, "classify", "--rules", SPECL_PATH,
                        "--in", tmp_path / "scene.hdr", "--out", out, "--json")
        assert result.exit_code == 0
        manifest = json.loads((tmp_path / "map.manifest.json").read_text())
        hashed = {entry["path"]: entry["sha256"] for entry in manifest["inputs"]}
        rules_digest = hashlib.sha256(
            open(SPECL_PATH, "rb").read()
        ).hexdigest()
        assert hashed[SPECL_PATH] == rules_digest
        assert manifest["config"]["command"] == "classify"
        out_paths = [entry["path"] for entry in manifest["outputs"]]
        assert str(out) in out_paths
        report = json.loads(result.output)
        assert report["pixels"] == 16 * 8

    def test_manifest_hashes_payloads_whatever_the_suffix(self, runner, tmp_path,
                                                         monkeypatch):
        write_scene(tmp_path / "scene.img", 16, 8, seed=13, block=4)
        out = tmp_path / "colors.map"
        result = invoke(runner, "classify", "--rules", SPECL_PATH,
                        "--in", tmp_path / "scene.img", "--out", out)
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "colors.manifest.json").read_text())
        for key, names in (("inputs", ["scene.img", "scene.bin"]),
                           ("outputs", ["colors.map", "colors.bin"])):
            hashed = {entry["path"]: entry["sha256"] for entry in manifest[key]}
            for name in names:
                path = tmp_path / name
                assert hashed[str(path)] == hashlib.sha256(path.read_bytes()).hexdigest()

        # segment on a per-pixel map, whose CSV spans several chunks and is
        # hashed as it is written: every other file is read back, it is not
        read_back = []

        def counted(path, sha256=specmap.cli._sha256):
            read_back.append(path)
            return sha256(path)

        monkeypatch.setattr(specmap.cli, "_sha256", counted)
        _write_per_pixel_scene(tmp_path / "pp.map", tmp_path / "ppimage.img", 160, 256)
        result = invoke(runner, "segment", "--in", tmp_path / "pp.map",
                        "--image", tmp_path / "ppimage.img", "--out-prefix", tmp_path / "seg")
        assert result.exit_code == 0, result.output
        csv_path = tmp_path / "seg.superpixels.csv"
        assert csv_path.read_bytes().count(b"\r\n") > 2 * _CSV_CHUNK_ROWS + 1
        manifest = json.loads((tmp_path / "seg.manifest.json").read_text())
        entries = manifest["inputs"] + manifest["outputs"]
        names = ["pp.map", "pp.bin", "ppimage.img", "ppimage.bin"] + [
            f"seg.{part}" for part in ("seg.hdr", "seg.bin", "aura.hdr", "aura.bin",
                                       "superpixels.csv", "recon.hdr", "recon.bin",
                                       "rmse.hdr", "rmse.bin")]
        assert sorted(entry["path"] for entry in entries) == sorted(
            str(tmp_path / name) for name in names)
        for entry in entries:
            path = Path(entry["path"])
            assert entry["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert sorted(map(str, read_back)) == sorted(
            str(tmp_path / name) for name in names if name != "seg.superpixels.csv")

    def test_aggregate_option(self, runner, tmp_path):
        write_scene(tmp_path / "scene.hdr", 16, 8, seed=14, block=4)
        agg = tmp_path / "agg.csv"
        rows = ["child_label,parent_label"] + [f"{i},1" for i in range(1, 20)]
        agg.write_text("\n".join(rows) + "\n")
        out = tmp_path / "map.hdr"
        result = invoke(runner, "classify", "--rules", SPECL_PATH,
                        "--in", tmp_path / "scene.hdr", "--out", out,
                        "--aggregate", agg)
        assert result.exit_code == 0
        got = read_map(out)
        assert set(np.unique(got.labels)) <= {0, 1}


    def test_histogram_report_equals_unique_counts(self, runner, tmp_path):
        write_scene(tmp_path / "scene.hdr", 37, 24, seed=20, block=4,
                    nodata_fraction=0.05)
        out = tmp_path / "map.hdr"
        args = ["classify", "--rules", SPECL_PATH, "--in", tmp_path / "scene.hdr",
                "--out", out]
        as_json = invoke(runner, *args, "--json")
        as_text = invoke(runner, *args)
        assert as_json.exit_code == 0 and as_text.exit_code == 0
        values, counts = np.unique(read_map(out).labels, return_counts=True)
        assert values[0] == 0 and len(values) > 2
        expected = {
            "out": str(out),
            "pixels": 37 * 24,
            "classes_present": len(values) - 1,
            "histogram": {int(v): int(c) for v, c in zip(values, counts)},
        }
        assert as_text.output == "".join(f"{k}: {v}\n" for k, v in expected.items())
        assert json.loads(as_json.output) == json.loads(json.dumps(expected))

    def test_label_failure_on_a_later_strip_leaves_nothing(self, runner, tmp_path,
                                                           monkeypatch):
        """The map is written strip by strip; a label that fails after two
        strips are written leaves no header, payload or manifest, releases
        every strip and joins the pool's threads."""
        write_scene(tmp_path / "scene.hdr", 40, 12, seed=1, block=4)
        out = tmp_path / "out"
        args = ["classify", "--rules", SPECL_PATH, "--in", tmp_path / "scene.hdr",
                "--out", out / "colors.hdr", "--stream", 5, "--workers", 2]
        run_into_empty_dir(runner, out, *args)
        module = importlib.import_module("specmap.classify")
        label, calls = module._label, []

        def failing(*a):
            calls.append(None)
            if len(calls) == 5:
                raise DataError("a later strip cannot be labelled")
            return label(*a)

        monkeypatch.setattr(module, "_label", failing)
        threads = threading.active_count()
        strip_ledger.reset()
        assert_failure_leaves_nothing(
            runner, out, "error: a later strip cannot be labelled\n", *args)
        assert threading.active_count() == threads
        assert strip_ledger.current == 0 and strip_ledger.peak > 0

    def test_aggregation_that_is_not_total_leaves_nothing(self, runner, tmp_path):
        write_scene(tmp_path / "scene.hdr", 20, 12, seed=1, block=4)
        out = tmp_path / "out"
        args = ["classify", "--rules", SPECL_PATH, "--in", tmp_path / "scene.hdr",
                "--out", out / "colors.hdr"]
        run_into_empty_dir(runner, out, *args)
        agg = tmp_path / "agg.csv"
        agg.write_text("child_label,parent_label\n"
                       + "".join(f"{label},1\n" for label in SPECL_LABELS[2:]))
        missing = list(SPECL_LABELS[:2])
        assert_failure_leaves_nothing(
            runner, out, f"error: mapping is not total: no parent for labels {missing}\n",
            *args, "--aggregate", agg)

    def test_memory_does_not_grow_with_the_height(self, runner, tmp_path):
        """Quadrupling the height adds under 1 traced byte per added pixel.

        The map is written strip by strip and its histogram folded per
        strip; a whole u16 label plane would add 2 bytes per pixel.  The
        scene and the map are over 1 MiB at both heights, so the manifest's
        1 MiB hashing chunk is the same size in both runs.
        """
        w = 1024
        peaks = {}
        for h in (512, 2048):
            write_scene(tmp_path / f"scene{h}.hdr", h, w, seed=29, block=32)
            tracemalloc.start()
            try:
                result = invoke(runner, "classify", "--rules", SPECL_PATH,
                                "--in", tmp_path / f"scene{h}.hdr",
                                "--out", tmp_path / f"map{h}.hdr",
                                "--stream", 16, "--workers", 2)
                peaks[h] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.exit_code == 0, result.output
        assert (peaks[2048] - peaks[512]) / (1536 * w) < 1

    @given(height=st.integers(1, 24), width=st.integers(1, 24), block=st.integers(1, 8),
           seed=st.integers(0, 2**16), nodata=st.sampled_from((0.0, 0.1)),
           stream=st.integers(1, 24), workers=st.integers(1, 3),
           parents=st.none() | st.lists(st.integers(1, 65535), min_size=len(SPECL_LABELS),
                                        max_size=len(SPECL_LABELS)))
    @settings(max_examples=60, deadline=None)
    def test_strips_equal_the_whole_image(self, tmp_path_factory, height, width, block,
                                          seed, nodata, stream, workers, parents):
        """Any strip height and worker count, with or without ``--aggregate``,
        writes the bytes ``classify`` then ``translate_legend`` and
        ``write_map`` write, and reports their histogram."""
        root = tmp_path_factory.mktemp("strips")
        image = write_scene(root / "scene.hdr", height, width, seed=seed, block=block,
                            nodata_fraction=nodata)
        cmap = classify(image, load_specl())
        args = ["classify", "--rules", SPECL_PATH, "--in", root / "scene.hdr",
                "--out", root / "map.hdr", "--stream", stream, "--workers", workers,
                "--json"]
        if parents is not None:
            (root / "agg.csv").write_text("child_label,parent_label\n" + "".join(
                f"{child},{parent}\n" for child, parent in zip(SPECL_LABELS, parents)))
            cmap = translate_legend(cmap, read_aggregation(root / "agg.csv"))
            args += ["--aggregate", root / "agg.csv"]
        write_map(cmap, root / "ref.hdr")
        result = invoke(CliRunner(), *args)
        assert result.exit_code == 0, result.output
        for suffix in (".hdr", ".bin"):
            assert (root / f"map{suffix}").read_bytes() == (root / f"ref{suffix}").read_bytes()
        present = np.flatnonzero(cmap.counts)
        assert json.loads(result.output)["histogram"] == {
            str(v): int(cmap.counts[v]) for v in present}


@pytest.mark.parametrize("key", ["gain", "offset", "wavelength", "nodata"])
@pytest.mark.parametrize("value", ["abc", "nan", "inf"])
def test_band_header_value_reading_cannot_honour_exits_1(runner, tmp_path, key, value):
    write_scene(tmp_path / "scene.hdr", 16, 16, seed=12, block=4)
    header = read_header(tmp_path / "scene.hdr")
    assert f"band.1.{key}" in header
    header[f"band.1.{key}"] = value
    write_header(tmp_path / "scene.hdr", list(header.items()))
    result = runner.invoke(main, [
        "classify", "--rules", SPECL_PATH, "--in", str(tmp_path / "scene.hdr"),
        "--out", str(tmp_path / "map.hdr"),
    ])
    assert result.exit_code == 1, result.output
    assert f"scene.hdr: header key 'band.1.{key}' " in result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert not (tmp_path / "map.hdr").exists()


def test_infinite_float_nodata_header_exits_1(runner, tmp_path):
    scene = synth_scene(16, 16, seed=12, block=4)
    bands = tuple(BandMetadata(b.band_id, b.center_wavelength, nodata_value=-1.0)
                  for b in scene.bands)
    write_image(MultiSpectralImage(bands, scene.samples, scene.validity, "f64"),
                tmp_path / "scene.hdr")
    header = read_header(tmp_path / "scene.hdr")
    header["band.1.nodata"] = "inf"
    write_header(tmp_path / "scene.hdr", list(header.items()))
    result = runner.invoke(main, [
        "classify", "--rules", SPECL_PATH, "--in", str(tmp_path / "scene.hdr"),
        "--out", str(tmp_path / "map.hdr"),
    ])
    assert result.exit_code == 1, result.output
    assert ("scene.hdr: header key 'band.1.nodata' must be NaN or a finite "
            "number for f64 samples") in result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert not (tmp_path / "map.hdr").exists()


def test_missing_band_wavelength_names_the_header(runner, tmp_path):
    write_scene(tmp_path / "scene.hdr", 16, 16, seed=12, block=4)
    header = read_header(tmp_path / "scene.hdr")
    del header["band.2.wavelength"]
    write_header(tmp_path / "scene.hdr", list(header.items()))
    result = runner.invoke(main, [
        "classify", "--rules", SPECL_PATH, "--in", str(tmp_path / "scene.hdr"),
        "--out", str(tmp_path / "map.hdr"),
    ])
    assert result.exit_code == 1
    assert "scene.hdr: missing header key 'band.2.wavelength'" in result.output


def test_rule_file_that_is_not_utf8_exits_1(runner, tmp_path):
    write_scene(tmp_path / "scene.hdr", 16, 16, seed=12, block=4)
    rules = tmp_path / "specl.rules"
    rules.write_bytes(Path(SPECL_PATH).read_bytes() + b"// \xff\n")
    result = runner.invoke(main, ["classify", "--rules", str(rules),
                                  "--in", str(tmp_path / "scene.hdr"),
                                  "--out", str(tmp_path / "map.hdr")])
    assert result.exit_code == 1, result.output
    assert result.output == f"error: {rules}: not UTF-8 text\n"
    assert isinstance(result.exception, SystemExit)  # no traceback


def test_deeply_nested_rule_exits_1_without_traceback(runner, tmp_path):
    write_scene(tmp_path / "scene.hdr", 4, 4, seed=1, block=2)
    # 600 chained terms used to parse and then end in a RecursionError.
    for body, what in (("(" * 2000 + "b4 <= 0.5" + ")" * 2000, "parentheses"),
                       (" - ".join(["b4"] * 600) + " > 0", "operator '-'"),
                       (" - ".join(["b4"] * 2000) + " > 0", "operator '-'")):
        rules = Path(SPECL_PATH).read_text(encoding="utf-8")
        rules += 'rule 99 "deep" color #123456 { ' + body + " }\n"
        (tmp_path / "deep.rules").write_text(rules, encoding="utf-8")
        result = runner.invoke(main, ["classify", "--rules", str(tmp_path / "deep.rules"),
                                      "--in", str(tmp_path / "scene.hdr"),
                                      "--out", str(tmp_path / "map.hdr")])
        assert result.exit_code == 1
        assert result.output.startswith(f"error: {what} nested deeper than 100")
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)  # no traceback


@pytest.mark.parametrize("command", ["classify", "segment"])
def test_one_band_image_exits_1_and_leaves_nothing(runner, tmp_path, command):
    """An image needs at least 2 bands: a one-band image is refused on
    opening, naming its header, so no map or mean view is published."""
    image = synth_scene(12, 8, seed=1, block=4)
    write_map(classify(image, load_specl()), tmp_path / "map.hdr")
    hdr = tmp_path / "one.hdr"
    write_raster(hdr, [("band.1.wavelength", "0.48")], image.samples[:1], "f64")
    rules = tmp_path / "one.rules"
    rules.write_text('bands: b1@0.48\nrule 1 "x" color #000000 { b1 <= 0.5 }\n'
                     'fallback 2 "f"\n')
    out = tmp_path / "out"
    out.mkdir()
    args = {
        "classify": ["--rules", rules, "--in", hdr, "--out", out / "map.hdr"],
        "segment": ["--in", tmp_path / "map.hdr", "--image", hdr,
                    "--out-prefix", out / "seg"],
    }[command]
    assert_failure_leaves_nothing(
        runner, out, f"error: {hdr}: an image needs at least 2 bands\n", command, *args)


def test_raster_header_that_is_not_utf8_exits_1(runner, tmp_path):
    write_scene(tmp_path / "scene.hdr", 16, 16, seed=12, block=4)
    write_map(CategoricalMap(np.ones((16, 16), dtype=np.uint16), legend(1)),
              tmp_path / "map.hdr")
    with open(tmp_path / "map.hdr", "ab") as f:
        f.write(b"// \xff\n")
    result = runner.invoke(main, ["segment", "--in", str(tmp_path / "map.hdr"),
                                  "--image", str(tmp_path / "scene.hdr"),
                                  "--out-prefix", str(tmp_path / "out")])
    assert result.exit_code == 1, result.output
    assert result.output == f"error: {tmp_path / 'map.hdr'}: not UTF-8 text\n"
    assert isinstance(result.exception, SystemExit)  # no traceback


@pytest.mark.parametrize("command", ["classify", "segment", "compare"])
@pytest.mark.parametrize("stream", ["0", "-1"])
def test_stream_below_one_is_usage_error(runner, tmp_path, command, stream):
    image = write_scene(tmp_path / "scene.hdr", 16, 8, seed=12, block=4)
    write_map(classify(image, load_specl()), tmp_path / "map.hdr")
    inputs = {
        "classify": ["--rules", SPECL_PATH, "--in", tmp_path / "scene.hdr",
                     "--out", tmp_path / "out.hdr"],
        "segment": ["--in", tmp_path / "map.hdr", "--image", tmp_path / "scene.hdr",
                    "--out-prefix", tmp_path / "out"],
        "compare": ["--test", tmp_path / "map.hdr", "--ref", tmp_path / "map.hdr",
                    "--out-dir", tmp_path / "out"],
    }[command]
    result = runner.invoke(main, [command] + [str(a) for a in inputs]
                           + ["--stream", stream])
    assert result.exit_code == 2
    assert "--stream" in result.output
    assert not list(tmp_path.glob("out*"))


class TestSegmentCommand:
    def _write_map_and_image(self, tmp_path, labels):
        cmap = CategoricalMap(labels, legend(int(labels.max())))
        write_map(cmap, tmp_path / "map.hdr")
        h, w = labels.shape
        rng = np.random.default_rng(3)
        from helpers import image_from_planes

        planes = {
            "b1": labels / 10.0 + rng.random((h, w)) * 0.01,
            "b2": labels / 12.0,
        }
        write_image(image_from_planes(planes), tmp_path / "img.hdr")

    def test_constant_map_report(self, runner, tmp_path):
        self._write_map_and_image(tmp_path, np.ones((8, 8), dtype=np.int32))
        result = invoke(runner, "segment", "--in", tmp_path / "map.hdr",
                        "--image", tmp_path / "img.hdr",
                        "--out-prefix", tmp_path / "out", "--json")
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["segments"] == 1
        # constant map: no contours; reconstruction error only from noise
        aura = read_image_payload(tmp_path / "out.aura.hdr")
        assert (aura == 0).all()

    def test_nine_segment_fixture_reported(self, runner, tmp_path):
        self._write_map_and_image(tmp_path, NINE_SEGMENT_MAP)
        result = invoke(runner, "segment", "--in", tmp_path / "map.hdr",
                        "--image", tmp_path / "img.hdr",
                        "--out-prefix", tmp_path / "out", "--json")
        report = json.loads(result.output)
        assert report["segments"] == 9

    def test_zero_rmse_on_piecewise_constant(self, runner, tmp_path):
        labels = np.ones((6, 6), dtype=np.int32)
        cmap = CategoricalMap(labels, legend(1))
        write_map(cmap, tmp_path / "map.hdr")
        from helpers import image_from_planes

        planes = {"b1": np.full((6, 6), 0.25), "b2": np.full((6, 6), 0.5)}
        write_image(image_from_planes(planes), tmp_path / "img.hdr")
        result = invoke(runner, "segment", "--in", tmp_path / "map.hdr",
                        "--image", tmp_path / "img.hdr",
                        "--out-prefix", tmp_path / "out", "--json")
        report = json.loads(result.output)
        assert report["segments"] == 1
        assert report["rmse_max"] == 0.0 and report["rmse_mean"] == 0.0

    def test_streamed_segment_equivalent(self, runner, tmp_path):
        image = write_scene(tmp_path / "scene.hdr", 96, 24, seed=15, block=8)
        invoke(runner, "classify", "--rules", SPECL_PATH,
               "--in", tmp_path / "scene.hdr", "--out", tmp_path / "map.hdr")
        invoke(runner, "segment", "--in", tmp_path / "map.hdr",
               "--image", tmp_path / "scene.hdr",
               "--out-prefix", tmp_path / "whole")
        invoke(runner, "segment", "--in", tmp_path / "map.hdr",
               "--image", tmp_path / "scene.hdr",
               "--out-prefix", tmp_path / "streamed", "--stream", 16)
        a = read_segmentation(tmp_path / "whole.seg.hdr")
        b = read_segmentation(tmp_path / "streamed.seg.hdr")
        assert a.segment_count == b.segment_count
        assert segmentations_bijective(a.segment_ids, b.segment_ids)
        assert (tmp_path / "whole.aura.bin").read_bytes() == (
            tmp_path / "streamed.aura.bin"
        ).read_bytes()
        assert (tmp_path / "whole.rmse.bin").read_bytes() == (
            tmp_path / "streamed.rmse.bin"
        ).read_bytes()

    def test_strip_height_cannot_change_outputs(self, runner, tmp_path):
        # 16-px blocks: segments span many strips, so their band sums add
        # samples from several strips.
        write_scene(tmp_path / "scene.hdr", 37, 24, seed=18, block=16,
                    nodata_fraction=0.02)
        invoke(runner, "classify", "--rules", SPECL_PATH,
               "--in", tmp_path / "scene.hdr", "--out", tmp_path / "map.hdr")
        image = read_image(tmp_path / "scene.hdr")
        reports = {}
        for name, stream in (("s1", ["--stream", 1]), ("s3", ["--stream", 3]),
                             ("default", [])):
            result = invoke(runner, "segment", "--in", tmp_path / "map.hdr",
                            "--image", tmp_path / "scene.hdr",
                            "--out-prefix", tmp_path / f"map-{name}",
                            "--json", *stream)
            assert result.exit_code == 0, result.output
            report = json.loads(result.output)
            reports[name] = {k: v for k, v in report.items()
                             if k.startswith("rmse_")}
        # The reference: whole-image library calls, sums checked against
        # an in-order bincount fold over the whole image.
        cmap = read_map(tmp_path / "map.hdr")
        seg = connected_components(cmap, 8)
        aura = cross_aura(cmap, 8)
        table = build_superpixel_table(cmap, seg, image, aura)
        valid = seg.segment_ids > 0
        for b, plane in enumerate(image.samples):
            fold = np.bincount(seg.segment_ids[valid], weights=plane[valid],
                               minlength=seg.segment_count + 1)
            assert np.array_equal(table.sums[b], fold[1:])
        recon = reconstruct(seg, table, image)
        rmse = rmse_map(image, recon)
        ref = "map-ref"
        write_segmentation(seg, tmp_path / f"{ref}.seg.hdr")
        write_aura(aura, tmp_path / f"{ref}.aura.hdr")
        write_superpixel_csv(table, tmp_path / f"{ref}.superpixels.csv")
        write_image(recon, tmp_path / f"{ref}.recon.hdr")
        write_rmse(rmse, tmp_path / f"{ref}.rmse.hdr")
        outputs = ["seg.hdr", "seg.bin", "aura.hdr", "aura.bin", "superpixels.csv",
                   "recon.hdr", "recon.bin", "rmse.hdr", "rmse.bin"]
        for name in ("s1", "s3", "default"):
            for out in outputs:
                assert (tmp_path / f"map-{name}.{out}").read_bytes() == (
                    tmp_path / f"{ref}.{out}").read_bytes(), (name, out)
            assert reports[name] == {
                "rmse_min": rmse.stats().minimum, "rmse_max": rmse.stats().maximum,
                "rmse_mean": rmse.stats().mean, "rmse_stdev": rmse.stats().stdev,
            }
        # A second map labels the pixels the image marks nodata: each takes
        # a valid neighbour's label.  Such a pixel has no data for a mean or
        # an RMSE, so every strip height refuses the first of them in pass A
        # and leaves no output behind, as the whole-image reference does.
        labels = cmap.labels.copy()
        rows, cols = np.nonzero(~image.validity)
        assert rows.size
        for r, c in zip(rows, cols):
            near = cmap.labels[max(r - 1, 0):r + 2, max(c - 1, 0):c + 2]
            labels[r, c] = near[near > 0][0]
        labelled = CategoricalMap(labels, cmap.legend)
        write_map(labelled, tmp_path / "labelled.hdr")
        message = (f"the map labels row {rows[0]}, col {cols[0]}, "
                   "which the image marks nodata")
        for name, stream in (("s1", ["--stream", 1]), ("s3", ["--stream", 3]),
                             ("default", [])):
            prefix = tmp_path / f"labelled-{name}"
            result = invoke(runner, "segment", "--in", tmp_path / "labelled.hdr",
                            "--image", tmp_path / "scene.hdr",
                            "--out-prefix", prefix, "--json", *stream)
            assert result.exit_code == 1, result.output
            assert result.output == f"error: {message}\n"
            assert not list(tmp_path.glob(f"{prefix.name}.*")), name
        with pytest.raises(DataError) as err:
            build_superpixel_table(labelled, connected_components(labelled, 8), image,
                                   cross_aura(labelled, 8))
        assert str(err.value) == message

    def test_image_payload_is_read_twice(self, runner, tmp_path, monkeypatch):
        """Pass A and pass B read the image once each; the RMSE summary's
        second pass reads back only the written RMSE, and paints the ids
        from the run records, not the image."""
        write_scene(tmp_path / "scene.hdr", 37, 24, seed=18, block=16,
                    nodata_fraction=0.02)
        invoke(runner, "classify", "--rules", SPECL_PATH,
               "--in", tmp_path / "scene.hdr", "--out", tmp_path / "map.hdr")
        payload = (tmp_path / "scene.bin").stat().st_size
        read = []
        read_raw = ImageSource._read_raw

        def counted(source, f, band, row0, row1, buffer):
            raw = read_raw(source, f, band, row0, row1, buffer)
            if source.header_path == tmp_path / "scene.hdr":
                read.append(raw.nbytes)
            return raw

        monkeypatch.setattr(ImageSource, "_read_raw", counted)
        for stream in (["--stream", 1], ["--stream", 3], []):
            read.clear()
            result = invoke(runner, "segment", "--in", tmp_path / "map.hdr",
                            "--image", tmp_path / "scene.hdr",
                            "--out-prefix", tmp_path / "out", *stream)
            assert result.exit_code == 0, result.output
            assert sum(read) == 2 * payload, stream

    def test_segmentation_is_not_read_back(self, runner, tmp_path, monkeypatch):
        """Pass B and the RMSE summary paint the ids from the run records:
        no header of the segmentation the run wrote is parsed again."""
        write_scene(tmp_path / "scene.hdr", 37, 24, seed=18, block=16,
                    nodata_fraction=0.02)
        invoke(runner, "classify", "--rules", SPECL_PATH,
               "--in", tmp_path / "scene.hdr", "--out", tmp_path / "map.hdr")
        parsed = []
        parse = raster.read_header

        def recorded(path):
            parsed.append(Path(path))
            return parse(path)

        monkeypatch.setattr(raster, "read_header", recorded)
        result = invoke(runner, "segment", "--in", tmp_path / "map.hdr",
                        "--image", tmp_path / "scene.hdr",
                        "--out-prefix", tmp_path / "out", "--stream", 5)
        assert result.exit_code == 0, result.output
        assert tmp_path / "out.rmse.hdr" in parsed
        assert tmp_path / "out.seg.hdr" not in parsed

    def test_default_run_holds_one_image_strip(self, runner, tmp_path):
        width = 512
        rows = STRIP_PIXELS // width
        image = write_scene(tmp_path / "scene.hdr", 2 * rows + 88, width, seed=16,
                            block=16)
        write_map(classify(image, load_specl()), tmp_path / "map.hdr")
        strip_ledger.reset()
        result = invoke(runner, "segment", "--in", tmp_path / "map.hdr",
                        "--image", tmp_path / "scene.hdr", "--out-prefix", tmp_path / "out")
        assert result.exit_code == 0, result.output
        strip_bytes = 6 * rows * width * 8 + rows * width
        assert strip_ledger.peak == strip_bytes  # one of the three strips
        assert strip_ledger.current == 0

    def test_memory_does_not_scale_with_the_band_count(self, runner, tmp_path):
        rng = np.random.default_rng(19)
        h, w, n_bands = 400, 256, 16
        blocks = rng.integers(1, 5, size=(h // 16, w // 16))
        labels = np.kron(blocks, np.ones((16, 16), dtype=np.int32)).astype(np.int32)
        write_map(CategoricalMap(labels, legend(4)), tmp_path / "map.hdr")
        bands = tuple(BandMetadata(i + 1, 0.4 + 0.1 * i) for i in range(n_bands))
        write_image(MultiSpectralImage(bands, rng.random((n_bands, h, w)),
                                       np.ones((h, w), dtype=bool)), tmp_path / "img.hdr")
        tracemalloc.start()
        try:
            result = invoke(runner, "segment", "--in", tmp_path / "map.hdr",
                            "--image", tmp_path / "img.hdr",
                            "--out-prefix", tmp_path / "out", "--stream", 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        # Whole-image copies (image, mean view, squared differences) would
        # each take this much.
        assert peak < n_bands * h * w * 8

    def test_memory_does_not_grow_with_the_height(self, runner, tmp_path):
        """Quadrupling the height adds under 1 traced byte per added pixel.

        32-px blocks: the per-run labeling state and the per-segment table
        grow by a small fraction of a byte per pixel.  Any whole plane
        held, even the u8 aura, adds at least 1 byte per pixel; the planes
        held whole before strip painting added 16.5.  Every file is over
        1 MiB at both heights, so the manifest's 1 MiB hashing chunk is
        the same size in both runs.
        """
        rng = np.random.default_rng(29)
        w = 512
        peaks = {}
        for h in (256, 1024):
            blocks = rng.integers(1, 5, size=(h // 32, w // 32))
            labels = np.kron(blocks, np.ones((32, 32), dtype=np.int32))
            write_map(CategoricalMap(labels, legend(4)), tmp_path / f"map{h}.hdr")
            bands = tuple(BandMetadata(i + 1, 0.4 + 0.1 * i) for i in range(2))
            write_image(MultiSpectralImage(bands, rng.random((2, h, w)),
                                           np.ones((h, w), dtype=bool)),
                        tmp_path / f"img{h}.hdr")
            tracemalloc.start()
            try:
                result = invoke(runner, "segment", "--in", tmp_path / f"map{h}.hdr",
                                "--image", tmp_path / f"img{h}.hdr",
                                "--out-prefix", tmp_path / f"out{h}", "--stream", 16)
                peaks[h] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.exit_code == 0, result.output
        assert (peaks[1024] - peaks[256]) / (768 * w) < 1

    def test_memory_per_pixel_on_noisy_runs(self, runner, tmp_path):
        """Segment's traced peak per pixel on a per-pixel noisy map.

        Two labels at random give about one run per two pixels and two
        large components, so the planes and the run graph set the peak,
        not the table.  Whole-plane temporaries in labeling, the table and
        the RMSE stats peaked at ~82 bytes per pixel here, an int64 run
        graph at ~49; block-sized temporaries and an int32 run graph at ~28
        with the u16 labels, fed run starts and validity, segment ids, aura
        and RMSE plane held whole; strip-painted ids and strip-written
        planes at ~24, where the run graph and its edges set the peak.
        """
        rng = np.random.default_rng(23)
        h, w = 512, 512
        labels = rng.integers(1, 3, size=(h, w)).astype(np.uint16)
        labels[rng.random((h, w)) < 0.05] = 0
        write_map(CategoricalMap(labels, legend(2)), tmp_path / "map.hdr")
        bands = tuple(BandMetadata(i + 1, 0.4 + 0.1 * i, nodata_value=-1.0)
                      for i in range(2))
        write_image(MultiSpectralImage(bands, rng.random((2, h, w)),
                                       np.ones((h, w), dtype=bool)), tmp_path / "img.hdr")
        tracemalloc.start()
        try:
            result = invoke(runner, "segment", "--in", tmp_path / "map.hdr",
                            "--image", tmp_path / "img.hdr",
                            "--out-prefix", tmp_path / "out", "--stream", 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        assert peak / (h * w) < 36

    @pytest.mark.parametrize("height, width", [(19, 12), (21, 12), (20, 11)])
    def test_image_of_other_shape_exits_1(self, runner, tmp_path, height, width):
        image = write_scene(tmp_path / "scene.hdr", 20, 12, seed=1, block=4)
        write_map(classify(image, load_specl()), tmp_path / "map.hdr")
        write_scene(tmp_path / "other.hdr", height, width, seed=1, block=4)
        result = runner.invoke(main, [
            "segment", "--in", str(tmp_path / "map.hdr"),
            "--image", str(tmp_path / "other.hdr"),
            "--out-prefix", str(tmp_path / "out"), "--stream", "4",
        ])
        assert result.exit_code == 1
        assert "image shape differs from map shape" in result.output
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("fault", ["unlabelled_without_nodata", "mean_is_nodata"])
    def test_refusal_after_pass_a_leaves_no_output(self, runner, tmp_path, fault):
        """Pass B refuses a mean view it cannot encode; the segmentation and
        aura that pass A wrote go too, so no output lacks its manifest."""
        if fault == "unlabelled_without_nodata":
            labels = np.array([[1, 0], [1, 1]])
            plane, dtype_name, encoding = np.full((2, 2), 0.25), "f64", {}
            message = ("band 1: invalid pixels present but no nodata value to "
                       "encode them with")
        else:  # raw 999 and 1001 average to the bands' nodata value
            labels = np.array([[1, 1]])
            plane, dtype_name = np.array([[999, 1001]]) / 2000, "u16"
            encoding = {"gain": 1 / 2000, "nodata_value": 1000}
            message = "band 1: valid sample at row 0, col 0 encodes to the nodata value 1000.0"
        bands = (BandMetadata(1, 0.48, **encoding), BandMetadata(2, 0.56, **encoding))
        write_map(CategoricalMap(labels, legend(1)), tmp_path / "map.hdr")
        write_image(MultiSpectralImage(bands, np.stack([plane, plane]),
                                       np.ones(labels.shape, dtype=bool), dtype_name),
                    tmp_path / "img.hdr")
        result = runner.invoke(main, [
            "segment", "--in", str(tmp_path / "map.hdr"),
            "--image", str(tmp_path / "img.hdr"), "--out-prefix", str(tmp_path / "out"),
        ])
        assert result.exit_code == 1
        assert result.output == f"error: {message}\n"
        assert not list(tmp_path.glob("out*"))

    def test_failed_csv_write_leaves_no_output_and_no_thread(self, runner, tmp_path,
                                                            monkeypatch):
        """The CSV's third chunk after the header fails to write: the error
        reaches the command, which reports it, removes every output, writes
        no manifest and leaves no thread behind."""
        _write_per_pixel_scene(tmp_path / "map.hdr", tmp_path / "img.hdr", 160, 256)

        class FailingFile:
            def __init__(self, f):
                self.f, self.writes = f, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 4:  # the header, two chunks, then the third
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.f.write(data)

        monkeypatch.setattr(segmentation, "open",
                            lambda path, mode: FailingFile(open(path, mode)), raising=False)
        threads = threading.active_count()
        result = runner.invoke(main, [
            "segment", "--in", str(tmp_path / "map.hdr"),
            "--image", str(tmp_path / "img.hdr"), "--out-prefix", str(tmp_path / "out"),
        ])
        assert result.exit_code == 1
        assert result.output == f"error: [Errno {errno.ENOSPC}] No space left on device\n"
        assert not list(tmp_path.glob("out*"))
        assert threading.active_count() == threads

    def test_failed_rerun_leaves_no_manifest_and_no_output(self, runner, tmp_path):
        """Pass A of a rerun into the same prefix refuses a labelled pixel the
        image marks nodata: the last run's CSV, reconstruction, RMSE and
        manifest go with this run's segmentation and aura."""
        image = write_scene(tmp_path / "scene.hdr", 20, 12, seed=1, block=4)
        write_map(classify(image, load_specl()), tmp_path / "map.hdr")
        image.validity[3, 5] = False
        write_image(image, tmp_path / "holed.hdr")
        out = tmp_path / "out"
        args = ["segment", "--in", tmp_path / "map.hdr", "--out-prefix", out / "seg"]
        run_into_empty_dir(runner, out, *args, "--image", tmp_path / "scene.hdr")
        assert len(list(out.iterdir())) == 10
        assert_failure_leaves_nothing(
            runner, out, "error: the map labels row 3, col 5, which the image marks nodata",
            *args, "--image", tmp_path / "holed.hdr")

    def test_lost_pixel_violates_conservation(self, runner, tmp_path, monkeypatch):
        """A table that misses a labelled pixel is refused, and the run leaves
        neither the last run's files nor its own."""
        image = write_scene(tmp_path / "scene.hdr", 20, 12, seed=1, block=4)
        write_map(classify(image, load_specl()), tmp_path / "map.hdr")
        out = tmp_path / "out"
        args = ["segment", "--in", tmp_path / "map.hdr", "--image", tmp_path / "scene.hdr",
                "--out-prefix", out / "seg"]
        run_into_empty_dir(runner, out, *args)
        counted = segmentation.SegmentPainter.labelled_pixels
        monkeypatch.setattr(segmentation.SegmentPainter, "labelled_pixels",
                            property(lambda painter: counted.fget(painter) + 1))
        assert_failure_leaves_nothing(
            runner, out, "error: pixel-count conservation violated\n", *args)

    def test_superpixel_csv_header(self, runner, tmp_path):
        self._write_map_and_image(tmp_path, NINE_SEGMENT_MAP)
        invoke(runner, "segment", "--in", tmp_path / "map.hdr",
               "--image", tmp_path / "img.hdr", "--out-prefix", tmp_path / "out")
        with open(tmp_path / "out.superpixels.csv") as f:
            header = f.readline().strip()
        assert header == (
            "segment_id,label,pixel_count,min_row,min_col,max_row,max_col,"
            "perimeter,compactness,sum_b1,sum_b2"
        )


def _write_per_pixel_scene(map_path, image_path, height, width):
    """A random 39-label map, mostly one-pixel segments, and a 2-band image."""
    rng = np.random.default_rng(29)
    labels = rng.integers(1, 40, size=(height, width)).astype(np.int32)
    write_map(CategoricalMap(labels, legend(39)), map_path)
    write_image(image_from_planes({"b1": rng.random((height, width)),
                                   "b2": rng.random((height, width))}), image_path)


def read_image_payload(header_path):
    from specmap.raster import read_raster

    _, raw = read_raster(header_path)
    return raw[0]


class TestCompareCommand:
    def test_counts_fixture_reports_golden_cvpai2(self, runner, tmp_path):
        out = tmp_path / "cmp"
        result = invoke(runner, "compare", "--counts", COUNTS_PATH,
                        "--th1", 0.09, "--th2", 0.06,
                        "--overrides", OVERRIDES_PATH,
                        "--out-dir", out, "--json")
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert abs(report["cvpai2"] - 0.8558) <= 5e-4
        assert report["correct_pairs"] == 5
        text = (out / "report.txt").read_text()
        assert "0.8558" in text
        for note in ("clouds are not evergreen forest",
                     "unknowns carry no forest meaning"):
            assert note in text

    def test_audit_in_json_report(self, runner, tmp_path):
        out = tmp_path / "cmp"
        invoke(runner, "compare", "--counts", COUNTS_PATH,
               "--overrides", OVERRIDES_PATH, "--out-dir", out)
        report = json.loads((out / "report.json").read_text())
        assert len(report["audit"]) == 2
        assert all(entry["note"] for entry in report["audit"])

    def test_identical_maps_diagonal(self, runner, tmp_path):
        rng = np.random.default_rng(4)
        labels = rng.integers(1, 4, size=(12, 12)).astype(np.int32)
        cmap = CategoricalMap(labels, legend(3))
        write_map(cmap, tmp_path / "m.hdr")
        out = tmp_path / "cmp"
        result = invoke(runner, "compare", "--test", tmp_path / "m.hdr",
                        "--ref", tmp_path / "m.hdr", "--out-dir", out)
        assert result.exit_code == 0
        with open(out / "contingency.csv") as f:
            rows = list(csv.reader(f))
        counts = np.array([[int(v) for v in row[1:]] for row in rows[1:]])
        assert (counts[~np.eye(3, dtype=bool)] == 0).all()
        assert counts.trace() == 144

    def test_step_matrices_written(self, runner, tmp_path):
        out = tmp_path / "cmp"
        invoke(runner, "compare", "--counts", COUNTS_PATH, "--out-dir", out)
        for name in ("contingency", "step2_joint", "step3_ref_given_test",
                     "step4_kept_by_row", "step5_test_given_ref",
                     "step6_kept_by_col", "step7_temporary", "step8_final"):
            assert (out / f"{name}.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["th1"] == 0.09

    def test_requires_counts_or_map_pair(self, runner, tmp_path):
        result = runner.invoke(main, ["compare", "--out-dir", str(tmp_path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("maps", [["--test"], ["--ref"], ["--test", "--ref"]],
                             ids=" ".join)
    def test_counts_with_a_map_is_refused(self, runner, tmp_path, maps):
        """The maps would be hashed as inputs the run never reads."""
        write_map(CategoricalMap(np.ones((4, 4), dtype=np.uint16), legend(1)),
                  tmp_path / "m.hdr")
        args = ["compare", "--counts", COUNTS_PATH, "--out-dir", str(tmp_path / "cmp")]
        for option in maps:
            args += [option, str(tmp_path / "m.hdr")]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.output == "error: give either --counts or both --test and --ref\n"
        assert not (tmp_path / "cmp").exists()

    def test_failed_rerun_leaves_no_manifest_and_no_output(self, runner, tmp_path,
                                                           monkeypatch):
        """A rerun into the same directory finds the disk full at step 8,
        after the contingency table and step matrices are written."""
        out = tmp_path / "out"
        args = ["compare", "--counts", COUNTS_PATH, "--out-dir", out]
        run_into_empty_dir(runner, out, *args)
        monkeypatch.setattr(specmap.cli, "write_relation_csv", full_disk)
        assert_failure_leaves_nothing(runner, out, FULL_DISK, *args)

    def test_failed_run_keeps_an_output_it_read(self, runner, tmp_path, monkeypatch):
        """A run from the last run's contingency table into the same
        directory fails: its other outputs go, the table it read stays."""
        out = tmp_path / "out"
        run_into_empty_dir(runner, out, "compare", "--counts", COUNTS_PATH, "--out-dir", out)
        counts = (out / "contingency.csv").read_bytes()
        monkeypatch.setattr(specmap.cli, "write_relation_csv", full_disk)
        result = runner.invoke(main, ["compare", "--counts", str(out / "contingency.csv"),
                                      "--out-dir", str(out)])
        assert result.exit_code == 1
        assert result.output == FULL_DISK
        assert [p.name for p in out.iterdir()] == ["contingency.csv"]
        assert (out / "contingency.csv").read_bytes() == counts

    @pytest.mark.parametrize("option, what", [("--test", "test map"),
                                              ("--ref", "reference map")])
    def test_missing_map_payload_exits_2(self, runner, tmp_path, option, what):
        labels = np.ones((4, 4), dtype=np.uint16)
        maps = {"--test": tmp_path / "a.hdr", "--ref": tmp_path / "b.hdr"}
        for path in maps.values():
            write_map(CategoricalMap(labels, legend(1)), path)
        payload = tmp_path / f"{maps[option].stem}.bin"
        payload.unlink()
        result = runner.invoke(main, [
            "compare", "--test", str(maps["--test"]), "--ref", str(maps["--ref"]),
            "--out-dir", str(tmp_path / "cmp"),
        ])
        assert result.exit_code == 2
        assert f"error: {what} payload not found: {payload}" in result.output
        assert not (tmp_path / "cmp").exists()

    def test_translate_test_map_through_fixture(self, runner, tmp_path):
        codes = np.array([[11, 41], [90, 31]], dtype=np.int32)
        nlcd_legend = tuple(
            LegendEntry(c, f"code-{c}", (c % 256, 0, 0)) for c in (11, 31, 41, 90)
        )
        write_map(CategoricalMap(codes, nlcd_legend), tmp_path / "nlcd.hdr")
        # reference already speaks the parent legend: A1=1, A2=2, B3=3, B4=4
        ref_labels = np.array([[4, 1], [2, 3]], dtype=np.int32)
        ref_legend = tuple(
            LegendEntry(i, name, (0, i * 60 % 256, 0))
            for i, name in ((1, "A1"), (2, "A2"), (3, "B3"), (4, "B4"))
        )
        write_map(CategoricalMap(ref_labels, ref_legend), tmp_path / "ref.hdr")
        mapping = files("specmap").joinpath("data/nlcd_to_lccsdp.csv")
        resolution = files("specmap").joinpath(
            "data/nlcd_resolution_first_listed.csv"
        )
        out = tmp_path / "cmp"
        result = invoke(runner, "compare", "--test", tmp_path / "nlcd.hdr",
                        "--ref", tmp_path / "ref.hdr",
                        "--translate-test", mapping, "--resolution", resolution,
                        "--out-dir", out, "--json")
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        # every pixel translated onto the matching reference class
        assert report["cvpai2"] == 1.0


    @staticmethod
    def _three_parents(path):
        """A mapping CSV of children 1..19 onto parents 1..3."""
        path.write_text("child_label,child_name,parent_label,parent_name\n" + "".join(
            f"{i},c{i},{i % 3 + 1},P{i % 3 + 1}\n" for i in range(1, 20)))
        return path

    def _map_pair(self, tmp_path, translate=False, height=37, width=24):
        """Compare arguments for a classified test map and an NLCD reference,
        both with nodata; with ``translate``, both legends are translated."""
        image = write_scene(tmp_path / "scene.hdr", height, width, seed=21, block=4,
                            nodata_fraction=0.05)
        write_map(classify(image, load_specl()), tmp_path / "test.hdr")
        rng = np.random.default_rng(21)
        ref = NLCD_CODES[rng.integers(0, len(NLCD_CODES), size=(height, width))]
        ref[rng.random((height, width)) < 0.05] = 0
        write_map(CategoricalMap(ref, NLCD_LEGEND), tmp_path / "ref.hdr")
        args = ["--test", tmp_path / "test.hdr", "--ref", tmp_path / "ref.hdr"]
        if translate:
            mapping = self._three_parents(tmp_path / "specl_to_3.csv")
            args += ["--translate-test", mapping, "--translate-ref", NLCD_MAPPING,
                     "--resolution", NLCD_RESOLUTION]
        return args

    @pytest.mark.parametrize("translate", [False, True])
    def test_strip_height_cannot_change_outputs(self, runner, tmp_path, translate):
        from specmap.compare import (
            build_translation,
            read_legend_mapping,
            read_resolution,
            translate_legend,
        )

        args = self._map_pair(tmp_path, translate)
        out = tmp_path / "cmp"
        runs = {}
        for stream in (1, 3, None):
            result = invoke(runner, "compare", *args, "--out-dir", out, "--json",
                            *(["--stream", stream] if stream else []))
            assert result.exit_code == 0, result.output
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            manifest = json.loads(files.pop("manifest.json"))
            assert manifest["config"].pop("stream") == stream
            runs[stream] = (result.output, files, manifest)
        assert len(runs[None][1]) == 10
        assert runs[1] == runs[None] and runs[3] == runs[None]
        # The reference: whole maps in memory, translated there, tallied per pixel.
        test, ref = read_map(tmp_path / "test.hdr"), read_map(tmp_path / "ref.hdr")
        if translate:
            resolution = read_resolution(NLCD_RESOLUTION)
            test = translate_legend(test, build_translation(
                read_legend_mapping(tmp_path / "specl_to_3.csv"), resolution))
            ref = translate_legend(ref, build_translation(
                read_legend_mapping(NLCD_MAPPING), resolution))
        expected = tally_contingency(test.labels, ref.labels,
                                     [e.label for e in test.legend],
                                     [e.label for e in ref.legend])
        with open(out / "contingency.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0][1:] == [e.name for e in ref.legend]
        assert [row[0] for row in rows[1:]] == [e.name for e in test.legend]
        assert np.array_equal(np.array([[int(v) for v in row[1:]] for row in rows[1:]]),
                              expected)

    def test_memory_stays_below_one_int32_map(self, runner, tmp_path):
        h, w = 2048, 1024
        rng = np.random.default_rng(22)
        write_map(CategoricalMap(rng.integers(0, 20, size=(h, w), dtype=np.uint16),
                                 legend(19)), tmp_path / "test.hdr")
        write_map(CategoricalMap(rng.integers(0, 6, size=(h, w), dtype=np.uint16),
                                 legend(5)), tmp_path / "ref.hdr")
        mapping = self._three_parents(tmp_path / "to_3.csv")
        tracemalloc.start()
        try:
            result = invoke(runner, "compare", "--test", tmp_path / "test.hdr",
                            "--ref", tmp_path / "ref.hdr", "--translate-test", mapping,
                            "--out-dir", tmp_path / "cmp", "--stream", 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        assert peak < h * w * 4  # one whole int32 map, 8 MiB

    @staticmethod
    def _drop_from_legend(header_path, labels):
        header = read_header(header_path)
        for n in labels:
            del header[f"legend.{n}.name"], header[f"legend.{n}.color"]
        write_header(header_path, list(header.items()))

    @pytest.mark.parametrize("stream", [[], ["--stream", "1"]])
    @pytest.mark.parametrize("fault, message", [
        ("test label", "error: labels missing from legend: [7, 9]\n"),
        ("reference label", "error: labels missing from legend: [60000]\n"),
        ("shape", "error: test and reference maps differ in shape\n"),
        ("overlap", "error: empty overlap: no pixel is valid in both maps\n"),
    ])
    def test_refusals_keep_their_exit_code_and_message(self, runner, tmp_path, fault,
                                                       message, stream):
        rng = np.random.default_rng(23)
        test = rng.integers(0, 4, size=(30, 5))
        ref = rng.integers(1, 4, size=(30, 5))
        test_legend, ref_legend = legend(9), legend(3)
        if fault == "test label":
            test[1, 2], test[28, 0] = 7, 9
        elif fault == "reference label":
            # Above every child of the mapping's lookup table.
            ref[17, 3] = 60000
            ref_legend += (LegendEntry(60000, "high", (0, 0, 0)),)
        elif fault == "shape":
            ref = ref[:-1]
        else:
            test[:] = 0
        write_map(CategoricalMap(test, test_legend), tmp_path / "test.hdr")
        write_map(CategoricalMap(ref, ref_legend), tmp_path / "ref.hdr")
        self._drop_from_legend(tmp_path / "test.hdr", range(4, 10))
        if fault == "reference label":
            self._drop_from_legend(tmp_path / "ref.hdr", [60000])
        mapping = tmp_path / "to_2.csv"
        mapping.write_text("child_label,child_name,parent_label,parent_name\n"
                           "1,a,1,P1\n2,b,2,P2\n3,c,2,P2\n")
        result = runner.invoke(main, [str(a) for a in [
            "compare", "--test", tmp_path / "test.hdr", "--ref", tmp_path / "ref.hdr",
            "--translate-ref", mapping, "--out-dir", tmp_path / "cmp", *stream]])
        assert result.exit_code == 1
        assert result.output == message
        assert isinstance(result.exception, SystemExit)
        assert not list((tmp_path / "cmp").iterdir())

    def test_malformed_resolution_exits_1_without_traceback(self, runner, tmp_path):
        """A resolution is read with a legend mapping; its bad line is named."""
        for name in ("test", "ref"):
            write_map(CategoricalMap(np.ones((4, 4), dtype=np.uint16), legend(1)),
                      tmp_path / f"{name}.hdr")
        mapping = tmp_path / "to_1.csv"
        mapping.write_text("child_label,child_name,parent_label,parent_name\n1,a,1,P\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("child_label,parent_label\n21\n")
        result = runner.invoke(main, [str(a) for a in [
            "compare", "--test", tmp_path / "test.hdr", "--ref", tmp_path / "ref.hdr",
            "--translate-ref", mapping, "--resolution", bad, "--out-dir", tmp_path / "cmp"]])
        assert result.exit_code == 1
        assert "error:" in result.output and "line 2" in result.output
        assert str(bad) in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)
        assert not list((tmp_path / "cmp").iterdir())

    @pytest.mark.parametrize("option", ["--translate-test", "--translate-ref",
                                        "--resolution", "--stream"])
    def test_counts_refuses_an_option_it_does_not_read(self, runner, tmp_path, option):
        """The run would hash the file as an input it never reads."""
        value = {"--resolution": NLCD_RESOLUTION, "--stream": "1"}.get(option, NLCD_MAPPING)
        result = runner.invoke(main, ["compare", "--counts", COUNTS_PATH, option, value,
                                      "--out-dir", str(tmp_path / "cmp")])
        assert result.exit_code == 2
        assert result.output == f"error: {option} is not read with --counts\n"
        assert not (tmp_path / "cmp").exists()

    def test_resolution_without_a_mapping_is_refused(self, runner, tmp_path):
        """A resolution only settles the ambiguous children of a mapping."""
        args = self._map_pair(tmp_path)
        result = runner.invoke(main, [str(a) for a in [
            "compare", *args, "--resolution", NLCD_RESOLUTION, "--out-dir", tmp_path / "cmp"]])
        assert result.exit_code == 2
        assert result.output == ("error: --resolution is read only with --translate-test "
                                 "or --translate-ref\n")
        assert not (tmp_path / "cmp").exists()


class TestEvidenceCommand:
    def test_round_trip(self, runner, tmp_path):
        rel = tmp_path / "rel.csv"
        rel.write_text(",forest,water\ngreen,1,0\nblue,0,1\n")
        vectors = tmp_path / "ev.csv"
        vectors.write_text(
            "id,color_name,class_name,shape,texture,spatial\n"
            "v1,green,forest,0.6,0.9,0.7\n"
            "v1,green,water,1.0,1.0,1.0\n"
        )
        out = tmp_path / "scores.csv"
        result = invoke(runner, "evidence", "--relation", rel,
                        "--in", vectors, "--out", out, "--json")
        assert result.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "v1,forest,0.6"
        assert lines[2] == "v1,water,0.0"

    def test_output_directory_is_made(self, runner, tmp_path):
        rel = tmp_path / "rel.csv"
        rel.write_text(",forest\ngreen,1\n")
        vectors = tmp_path / "ev.csv"
        vectors.write_text("id,color_name,class_name,shape,texture,spatial\n"
                           "v1,green,forest,0.6,0.9,0.7\n")
        out = tmp_path / "no_such_dir" / "scores.csv"
        result = invoke(runner, "evidence", "--relation", rel, "--in", vectors,
                        "--out", out)
        assert result.exit_code == 0, result.output
        assert out.read_text().strip().splitlines()[1] == "v1,forest,0.6"
        assert (out.parent / "scores.manifest.json").exists()

    def test_failed_rerun_leaves_no_manifest_and_no_output(self, runner, tmp_path,
                                                           monkeypatch):
        """A rerun into the same scores file finds the disk full while writing it."""
        rel = tmp_path / "rel.csv"
        rel.write_text(",forest\ngreen,1\n")
        vectors = tmp_path / "ev.csv"
        vectors.write_text("id,color_name,class_name,shape,texture,spatial\n"
                           "v1,green,forest,0.6,0.9,0.7\n")
        out = tmp_path / "out"
        args = ["evidence", "--relation", rel, "--in", vectors, "--out", out / "scores.csv"]
        run_into_empty_dir(runner, out, *args)
        monkeypatch.setattr(specmap.cli, "write_scores_csv", full_disk)
        assert_failure_leaves_nothing(runner, out, FULL_DISK, *args)

    def test_packaged_color_relation_loads(self, runner, tmp_path):
        rel_path = str(files("specmap").joinpath(
            "data/color_class_relation_example.csv"
        ))
        from specmap.compare import read_relation_csv

        rel = read_relation_csv(rel_path)
        assert rel.matrix.shape == (11, 3)
