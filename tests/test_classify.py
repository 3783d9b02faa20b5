import importlib
import re

import numpy as np
import pytest

from specmap.classify import PixelVisitCounter, classify, classify_streamed, classify_strip
from specmap.compare import LegendAggregation, translate_legend
from specmap.errors import (
    ConfigError,
    DataError,
    FormatError,
    MappingError,
    TruncatedFileError,
)
from specmap.raster import (
    STRIP_PIXELS,
    CategoricalMap,
    LegendEntry,
    Strip,
    open_image,
    open_map,
    read_header,
    read_map,
    stream_strips,
    strip_ledger,
    write_header,
    write_image,
    write_map,
    write_raster,
)
from specmap.rules import parse_rules

from helpers import (
    image_from_pixels,
    image_from_planes,
    legend,
    random_map,
    synth_scene,
    write_scene,
)
from oracles import specl_reference

FIXTURE_PIXELS = [
    dict(b1=0.01, b2=0.01, b3=0.01, b4=0.01, b5=0.01, b7=0.01),
    dict(b1=0.0, b2=0.08, b3=0.05, b4=0.50, b5=0.20, b7=0.0),
    dict(b1=0.3, b2=0.3, b3=0.25, b4=0.12, b5=0.30, b7=0.3),
]


class TestClassify:
    def test_fixture_pixels_last_match(self, specl):
        cmap = classify(image_from_pixels(FIXTURE_PIXELS), specl)
        assert cmap.labels.tolist() == [[16, 6, 19]]

    def test_clear_water_policy_flip(self, specl):
        image = image_from_pixels([FIXTURE_PIXELS[0]])
        assert classify(image, specl).labels[0, 0] == 16
        assert classify(image, specl, policy="first-match").labels[0, 0] == 15

    def test_matches_reference_interpreter(self, specl, rng):
        n = 2000
        vectors = rng.random((n, 6))
        planes = {
            s: vectors[:, i].reshape(1, n)
            for i, s in enumerate(("b1", "b2", "b3", "b4", "b5", "b7"))
        }
        cmap = classify(image_from_planes(planes), specl)
        for policy in ("last-match", "first-match"):
            got = classify(image_from_planes(planes), specl, policy=policy)
            expected = [specl_reference(v, policy) for v in vectors]
            assert got.labels[0].tolist() == expected
        assert len(cmap.legend) == 19

    def test_unknown_policy_rejected_by_every_entry_point(self, specl, tmp_path):
        image = write_scene(tmp_path / "scene.hdr", 8, 6, seed=2, block=3)
        source = open_image(tmp_path / "scene.hdr")
        strip = next(stream_strips(source, 4))
        calls = (
            lambda: classify(image, specl, policy="bogus"),
            lambda: classify_streamed(source, specl, 4, policy="bogus"),
            lambda: classify_strip(strip, specl, "bogus"),
        )
        for call in calls:
            with pytest.raises(ConfigError, match="bogus"):
                call()

    def test_one_pass_visit_counter(self, specl):
        image = synth_scene(24, 16, seed=3, block=6)
        counter = PixelVisitCounter()
        strip = Strip(0, image.bands, image.samples, image.validity)
        labels = classify_strip(strip, specl, specl.match_policy, counter)
        assert np.array_equal(labels, classify(image, specl).labels)
        assert counter.visits == 24 * 16

    def test_streamed_visits_sum_to_pixels(self, specl, tmp_path):
        write_scene(tmp_path / "scene.hdr", 30, 10, seed=4, block=5)
        counter = PixelVisitCounter()
        classify_streamed(open_image(tmp_path / "scene.hdr"), specl,
                          strip_height=7, counter=counter)
        assert counter.visits == 30 * 10

    def test_streamed_equals_whole(self, specl, tmp_path):
        image = write_scene(tmp_path / "scene.hdr", 40, 12, seed=5, block=8,
                            nodata_fraction=0.02)
        whole = classify(image, specl)
        for workers in (1, 3):
            streamed = classify_streamed(
                open_image(tmp_path / "scene.hdr"), specl, strip_height=9,
                workers=workers
            )
            assert np.array_equal(streamed.labels, whole.labels)

    def test_threaded_file_streaming_stays_bounded(self, specl, tmp_path):
        image = synth_scene(120, 16, seed=9, block=8)
        write_image(image, tmp_path / "scene.hdr")
        whole = classify(image, specl)
        strip_ledger.reset()
        streamed = classify_streamed(
            open_image(tmp_path / "scene.hdr"), specl, strip_height=8, workers=3
        )
        assert np.array_equal(streamed.labels, whole.labels)
        strip_bytes = 6 * 8 * 16 * 8 + 8 * 16
        # bounded submission: the ledger never holds anything close to the
        # 15 strips the image is made of
        assert strip_ledger.peak <= 3 * strip_bytes

    def test_threaded_streaming_ledgers_each_strip_until_stored(self, specl, tmp_path):
        image = synth_scene(120, 16, seed=9, block=8)
        write_image(image, tmp_path / "scene.hdr")
        strip_bytes = 6 * 8 * 16 * 8 + 8 * 16
        for workers in (1, 2):
            strip_ledger.reset()
            streamed = classify_streamed(
                open_image(tmp_path / "scene.hdr"), specl, strip_height=8,
                workers=workers,
            )
            assert np.array_equal(streamed.labels, classify(image, specl).labels)
            # with 2 workers, one strip is labeled while the next is read,
            # never a third; with 1, a strip is stored before the next read
            assert strip_ledger.peak == workers * strip_bytes
            assert strip_ledger.current == 0

    @pytest.mark.parametrize("workers", [0, -1])
    def test_streaming_needs_a_worker(self, specl, tmp_path, workers):
        write_scene(tmp_path / "scene.hdr", 8, 4, seed=3, block=2)
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            classify_streamed(open_image(tmp_path / "scene.hdr"), specl,
                              strip_height=4, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_read_releases_every_strip(self, specl, tmp_path, workers):
        write_scene(tmp_path / "scene.hdr", 64, 16, seed=6, block=4)
        source = open_image(tmp_path / "scene.hdr")
        with open(tmp_path / "scene.bin", "r+b") as f:
            f.truncate((5 * 64 + 40) * 16 * 2)  # last band cut at row 40
        strip_ledger.reset()
        with pytest.raises(TruncatedFileError):
            classify_streamed(source, specl, strip_height=8, workers=workers)
        assert strip_ledger.current == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_label_releases_every_strip(self, specl, tmp_path, monkeypatch,
                                               workers):
        # The package's ``classify`` function hides the module attribute.
        module = importlib.import_module("specmap.classify")
        write_scene(tmp_path / "scene.hdr", 64, 16, seed=6, block=4)
        label, calls = module._label, []

        def fail_third_call(*args):
            calls.append(args)
            if len(calls) == 3:
                raise DataError("labeling failed")
            return label(*args)

        monkeypatch.setattr(module, "_label", fail_third_call)
        strip_ledger.reset()
        with pytest.raises(DataError, match="labeling failed"):
            classify_streamed(open_image(tmp_path / "scene.hdr"), specl,
                              strip_height=8, workers=workers)
        assert strip_ledger.current == 0

    def test_invalid_pixels_get_nodata(self, specl):
        validity = np.ones((1, 3), dtype=bool)
        validity[0, 1] = False
        planes = {s: np.full((1, 3), 0.01) for s in ("b1", "b2", "b3", "b4", "b5", "b7")}
        cmap = classify(image_from_planes(planes, validity=validity), specl)
        assert cmap.labels.tolist() == [[16, 0, 16]]

    def test_missing_required_band_names_it(self, specl):
        planes = {s: np.full((1, 1), 0.1) for s in ("b1", "b2", "b3", "b4")}
        with pytest.raises(ConfigError, match="b5"):
            classify(image_from_planes(planes), specl)

    def test_optional_band_absence_widens_guarded_rules(self, specl):
        # ratio 1.8 with b4 < 0.25 and b7/b5 > 0.83: rule 13 needs its
        # guarded clauses, so it fires only when b7 is absent.
        pixel = dict(b1=0.1, b2=0.1, b3=0.1, b4=0.18, b5=0.18, b7=0.18)
        with_b7 = classify(image_from_pixels([pixel]), specl)
        without = dict(pixel)
        without.pop("b7")
        without_b7 = classify(image_from_pixels([without]), specl)
        assert with_b7.labels[0, 0] != without_b7.labels[0, 0]
        assert without_b7.labels[0, 0] == 14  # widened rules 13 then 14 fire

    def test_rule_text_order_irrelevant_indices_decide(self):
        header = "bands: b4@0.83, b5@1.6\n"
        body = (
            'rule 15 "broad" color #111111 { b4 <= 0.11 }\n'
            'rule 16 "narrow" color #222222 { b4 <= 0.02 }\n'
            'fallback 19 "rest"\n'
        )
        swapped = (
            'rule 16 "narrow" color #222222 { b4 <= 0.02 }\n'
            'rule 15 "broad" color #111111 { b4 <= 0.11 }\n'
            'fallback 19 "rest"\n'
        )
        image = image_from_pixels([dict(b4=0.01, b5=0.01)])
        a = classify(image, parse_rules(header + body))
        b = classify(image, parse_rules(header + swapped))
        assert np.array_equal(a.labels, b.labels)

    def test_permuting_indices_changes_output(self):
        header = "bands: b4@0.83, b5@1.6\n"
        overlapping = (
            'rule 1 "broad" color #111111 { b4 <= 0.11 }\n'
            'rule 2 "narrow" color #222222 { b4 <= 0.02 }\n'
            'fallback 9 "rest"\n'
        )
        permuted = (
            'rule 2 "broad" color #111111 { b4 <= 0.11 }\n'
            'rule 1 "narrow" color #222222 { b4 <= 0.02 }\n'
            'fallback 9 "rest"\n'
        )
        image = image_from_pixels([dict(b4=0.01, b5=0.01)])
        a = classify(image, parse_rules(header + overlapping))
        b = classify(image, parse_rules(header + permuted))
        assert a.labels[0, 0] == 2 and b.labels[0, 0] == 2
        # same text order, different indices -> different winning name
        assert parse_rules(header + overlapping).rules[1].name == "narrow"
        assert parse_rules(header + permuted).rules[1].name == "broad"


class TestAggregate:
    """Legend aggregation of a classified map, applied by translate_legend."""

    def test_identity(self, rng):
        cmap = random_map(rng, 8, 8, 4)
        agg = LegendAggregation({i: i for i in range(1, 5)}, cmap.legend)
        assert np.array_equal(translate_legend(cmap, agg).labels, cmap.labels)

    def test_lookup_oracle(self, rng):
        cmap = random_map(rng, 16, 16, 6, nodata_fraction=0.05)
        mapping = {i: int(rng.integers(1, 4)) for i in range(1, 7)}
        agg = LegendAggregation(mapping, legend(3))
        out = translate_legend(cmap, agg)
        for r in range(16):
            for c in range(16):
                child = int(cmap.labels[r, c])
                expected = 0 if child == 0 else mapping[child]
                assert out.labels[r, c] == expected

    def test_partial_mapping_rejected(self, rng):
        cmap = random_map(rng, 4, 4, 3)
        agg = LegendAggregation({1: 1, 2: 1}, legend(1))
        with pytest.raises(MappingError):
            translate_legend(cmap, agg)


class TestCategoricalMap:
    def test_labels_must_be_in_legend(self):
        with pytest.raises(DataError):
            CategoricalMap(np.array([[5]]), legend(3))

    def test_label_zero_reserved(self):
        with pytest.raises(ConfigError):
            CategoricalMap(np.array([[1]]), (LegendEntry(0, "x", (0, 0, 0)),))

    def test_round_trip_file(self, tmp_path, specl, rng):
        cmap = random_map(rng, 9, 7, 5, nodata_fraction=0.1)
        write_map(cmap, tmp_path / "m.hdr")
        back = read_map(tmp_path / "m.hdr")
        assert np.array_equal(back.labels, cmap.labels)
        assert back.legend == cmap.legend

    def test_labels_outside_u16_rejected_at_write(self, tmp_path):
        for label in (70000, 65536, -1):
            with pytest.raises(DataError):
                cmap = CategoricalMap(
                    np.array([[1, label]]),
                    (LegendEntry(1, "a", (0, 0, 0)), LegendEntry(label, "b", (0, 0, 0))),
                )
                write_map(cmap, tmp_path / "m.hdr")
        edge = CategoricalMap(np.array([[65535]]), (LegendEntry(65535, "top", (1, 2, 3)),))
        write_map(edge, tmp_path / "m.hdr")
        assert read_map(tmp_path / "m.hdr").labels.tolist() == [[65535]]

    def test_legend_label_outside_u16_rejected_without_pixels(self):
        for label in (-1, 65536):
            with pytest.raises(DataError, match=str(label)):
                CategoricalMap(np.array([[1]]), legend(1) + (LegendEntry(label, "b", (0, 0, 0)),))

    @pytest.mark.parametrize("old, new, key", [
        ("legend.2.name", "legend.x.name", "legend.x.name"),
        ("legend.2.name", "legend.-2.name", "legend.-2.name"),
        ("#4A76A6", "#zz", "legend.2.color"),
        ("#4A76A6", "#4A76A", "legend.2.color"),
    ])
    def test_malformed_legend_entry_is_format_error(self, tmp_path, old, new, key):
        path = tmp_path / "m.hdr"
        write_map(CategoricalMap(np.array([[1, 2]]), legend(2)), path)
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        with pytest.raises(FormatError, match=f"m.hdr: {key}"):
            read_map(path)

    def test_colour_header_refusals_keep_their_message(self, tmp_path):
        path = tmp_path / "m.hdr"
        write_map(CategoricalMap(np.array([[1]]), legend(1)), path)
        header = read_header(path)
        header["legend.1.color"] = "#zz"
        write_header(path, list(header.items()))
        with pytest.raises(FormatError, match=re.escape(
                f"{path}: legend.1.color: color '#zz' is not #RRGGBB")):
            read_map(path)

    @pytest.mark.parametrize("color", [(256, 0, 0), (-1, 0, 0), (0.5, 0, 0)])
    def test_colour_the_header_cannot_carry_rejected_at_write(self, tmp_path, color):
        cmap = CategoricalMap(np.array([[1]]), (LegendEntry(1, "a", color),))
        with pytest.raises(ConfigError, match="is not three integers in 0..255"):
            write_map(cmap, tmp_path / "m.hdr")
        assert list(tmp_path.iterdir()) == []

    def test_repeated_legend_label_rejected_at_write(self, tmp_path):
        twice = (LegendEntry(1, "a", (0, 0, 0)), LegendEntry(1, "b", (0, 0, 0)))
        with pytest.raises(FormatError, match="header key 'legend.1.name' is repeated"):
            write_map(CategoricalMap(np.array([[1]]), twice), tmp_path / "m.hdr")
        assert list(tmp_path.iterdir()) == []

    def test_legend_name_with_comment_marker_rejected_at_write(self, tmp_path):
        cmap = CategoricalMap(np.array([[1]]), (LegendEntry(1, "Water // deep", (0, 0, 0)),))
        with pytest.raises(FormatError):
            write_map(cmap, tmp_path / "m.hdr")


class TestU16Labels:
    def test_every_map_holds_u16_labels(self, specl, tmp_path):
        image = write_scene(tmp_path / "scene.hdr", 12, 8, seed=7, block=4)
        maps = (
            CategoricalMap(np.array([[1, 2]], dtype=np.int64), legend(2)),
            classify(image, specl),
            classify_streamed(open_image(tmp_path / "scene.hdr"), specl, strip_height=5),
        )
        for cmap in maps:
            assert cmap.labels.dtype == np.uint16
        write_map(maps[1], tmp_path / "m.hdr")
        back = read_map(tmp_path / "m.hdr")
        assert back.labels.dtype == np.uint16
        assert np.array_equal(back.labels, maps[2].labels)

    @pytest.mark.parametrize("label", [-1, 65536, 70000])
    def test_pixel_label_u16_cannot_hold_is_refused_not_wrapped(self, label):
        for dtype in (np.int32, np.int64):
            with pytest.raises(DataError, match=rf"outside 0\.\.65535: \[{label}\]"):
                CategoricalMap(np.array([[1, label]], dtype=dtype), legend(1))

    def test_non_integer_labels_refused(self):
        with pytest.raises(DataError, match="integers"):
            CategoricalMap(np.array([[1.5]]), legend(1))

    @pytest.mark.parametrize("index", [0, 70000])
    def test_rule_legend_u16_cannot_hold_is_refused_before_labelling(
            self, tmp_path, monkeypatch, index):
        module = importlib.import_module("specmap.classify")
        rules = parse_rules(
            "bands: b1@0.48, b2@0.56, b3@0.66, b4@0.83, b5@1.6, b7@2.2\n"
            f'rule {index} "x" color #000000 {{ b1 >= 0.5 }}\nfallback 9 "f"\n'
        )
        image = write_scene(tmp_path / "scene.hdr", 8, 4, seed=3, block=2)

        def never(*args):
            raise AssertionError("labelled before the legend was checked")

        monkeypatch.setattr(module, "_label", never)
        error = ConfigError if index == 0 else DataError
        for call in (lambda: classify(image, rules),
                     lambda: classify_streamed(open_image(tmp_path / "scene.hdr"),
                                               rules, strip_height=4)):
            with pytest.raises(error, match=str(index)):
                call()

    def test_counts_fold_equals_one_bincount(self, rng):
        # Taller than one chunk of STRIP_PIXELS, with a short last chunk.
        width = 512
        height = 2 * STRIP_PIXELS // width + 37
        cmap = random_map(rng, height, width, 7, nodata_fraction=0.1)
        expected = np.bincount(cmap.labels.ravel(), minlength=65536)
        assert np.array_equal(cmap.counts, expected)


class TestMapSource:
    def _map(self, tmp_path, rng, height=23, width=9):
        cmap = random_map(rng, height, width, 5, nodata_fraction=0.1)
        write_map(cmap, tmp_path / "m.hdr")
        return cmap

    def test_rows_equal_the_whole_read(self, tmp_path, rng):
        cmap = self._map(tmp_path, rng)
        source = open_map(tmp_path / "m.hdr")
        assert (source.height, source.width, source.legend) == (23, 9, cmap.legend)
        parts = [source.rows(r0, min(r0 + 4, 23)) for r0 in range(0, 23, 4)]
        assert all(p.dtype == np.uint16 for p in parts)
        assert np.array_equal(np.concatenate(parts), cmap.labels)
        assert np.array_equal(cmap.rows(4, 8), cmap.labels[4:8])

    def test_unlisted_label_names_every_unlisted_label_of_the_map(self, tmp_path, rng):
        labels = rng.integers(1, 4, size=(40, 3))
        labels[2, 1], labels[35, 0] = 7, 9
        write_map(CategoricalMap(labels, legend(9)), tmp_path / "m.hdr")
        header = read_header(tmp_path / "m.hdr")
        for n in range(4, 10):
            del header[f"legend.{n}.name"], header[f"legend.{n}.color"]
        write_header(tmp_path / "m.hdr", list(header.items()))
        source = open_map(tmp_path / "m.hdr")
        assert source.rows(10, 30).shape == (20, 3)  # no unlisted label there
        for row0, row1 in ((0, 4), (32, 40)):
            with pytest.raises(DataError, match=r"labels missing from legend: \[7, 9\]$"):
                source.rows(row0, row1)
        with pytest.raises(DataError, match=r"labels missing from legend: \[7, 9\]$"):
            read_map(tmp_path / "m.hdr")

    @pytest.mark.parametrize("planes, dtype_name", [
        (np.ones((1, 2, 2), dtype=np.uint8), "u8"),
        (np.ones((1, 2, 2), dtype=np.uint32), "u32"),
        (np.ones((2, 2, 2), dtype=np.uint16), "u16"),
    ])
    def test_map_other_than_one_u16_band_refused(self, tmp_path, planes, dtype_name):
        extra = [("maptype", "categorical"), ("legend.1.name", "a")]
        write_raster(tmp_path / "m.hdr", extra, planes, dtype_name)
        for read in (open_map, read_map):
            with pytest.raises(FormatError, match="m.hdr: a categorical map is one band"):
                read(tmp_path / "m.hdr")

    @pytest.mark.parametrize("label, error, message", [
        ("70000", DataError, "legend labels outside 1..65535: [70000]"),
        ("0", ConfigError, "label 0 is reserved for nodata"),
        ("03", FormatError, "legend.3.name and legend.03.name both name legend label 3"),
    ])
    def test_legend_refusal_names_the_header(self, tmp_path, rng, label, error, message):
        self._map(tmp_path, rng)
        path = tmp_path / "m.hdr"
        header = read_header(path)
        header[f"legend.{label}.name"] = "odd"
        write_header(path, list(header.items()))
        for read in (open_map, read_map):
            with pytest.raises(error, match=re.escape(f"{path}: {message}")) as excinfo:
                read(path)
            assert type(excinfo.value) is error

    @pytest.mark.parametrize("label", ["02", "9", None])
    def test_colour_key_must_sit_beside_its_name_key(self, tmp_path, rng, label):
        """Label 2's colour key moved to ``legend.<label>.color``: with no name
        key of that text it is refused, and left out it reads as black."""
        self._map(tmp_path, rng)
        path = tmp_path / "m.hdr"
        header = read_header(path)
        color = header.pop("legend.2.color")
        if label is not None:
            header[f"legend.{label}.color"] = color
        write_header(path, list(header.items()))
        if label is None:
            assert read_map(path).legend[1] == LegendEntry(2, "class-2", (0, 0, 0))
            return
        message = f"{path}: legend.{label}.color has no legend.{label}.name key"
        for read in (open_map, read_map):
            with pytest.raises(FormatError, match=re.escape(message)):
                read(path)
