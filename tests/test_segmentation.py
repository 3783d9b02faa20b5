import csv
import dataclasses
import hashlib
import math
import re
import threading
import tracemalloc

import numpy as np
import pytest

from specmap import raster, segmentation
from specmap.classify import PixelVisitCounter
from specmap.errors import ConfigError, DataError, DimensionMismatchError, FormatError
from specmap.raster import CategoricalMap, RunStats, Strip
from specmap.segmentation import (
    _CSV_CHUNK_ROWS,
    _TableFold,
    _compactness_keys,
    _encode_column,
    _float_fields,
    _float_keys,
    _int_dtype,
    _mean_rows,
    _tree_sum,
    OpStats,
    RmseMap,
    SegmentationMap,
    SuperpixelTable,
    TwoPassLabeler,
    build_superpixel_table,
    connected_components,
    cross_aura,
    pixel_rmse,
    read_segmentation,
    reconstruct,
    rmse_map,
    strip_rmse_stats,
    write_segmentation,
    write_superpixel_csv,
)

from helpers import image_from_planes, legend, random_image, random_map
from oracles import (
    flood_fill_segments,
    group_by_means,
    scalar_rmse_stats,
    segmentations_bijective,
)

# Three-level map shaped after the nine-segment workflow illustration:
# stratum 2 (vegetation analog) is two disjoint segments, and isolated
# single-pixel segments sit inside larger strata.
NINE_SEGMENT_MAP = np.array(
    [
        [3, 2, 2, 2, 1, 1, 1, 3],
        [2, 2, 2, 2, 1, 1, 1, 1],
        [2, 2, 3, 3, 3, 3, 1, 1],
        [2, 2, 3, 1, 1, 3, 1, 1],
        [1, 1, 3, 1, 1, 3, 2, 2],
        [1, 1, 3, 3, 3, 3, 2, 2],
        [1, 1, 1, 1, 3, 3, 2, 2],
        [1, 1, 1, 1, 3, 3, 1, 2],
    ],
    dtype=np.int32,
)


def cat(labels, n_labels=None):
    labels = np.asarray(labels, dtype=np.int32)
    n = n_labels or int(labels.max())
    return CategoricalMap(labels, legend(n))


class TestConnectedComponents:
    def test_constant_map_single_segment(self):
        for adjacency in (4, 8):
            seg = connected_components(cat(np.ones((8, 8))), adjacency)
            assert seg.segment_count == 1
            assert (seg.segment_ids == 1).all()

    def test_checkerboard_adjacency_split(self):
        board = np.array([[1, 2], [2, 1]])
        assert connected_components(cat(board), 4).segment_count == 4
        assert connected_components(cat(board), 8).segment_count == 2

    def test_matches_flood_fill_oracle(self, rng):
        for _ in range(200):
            labels = rng.integers(1, 6, size=(32, 32)).astype(np.int32)
            for adjacency in (4, 8):
                seg = connected_components(cat(labels, 5), adjacency)
                oracle, count = flood_fill_segments(labels, adjacency)
                assert seg.segment_count == count
                assert segmentations_bijective(seg.segment_ids, oracle)

    def test_u16_labels_give_the_int32_segment_ids(self, rng):
        labels = rng.integers(65530, 65536, size=(24, 24))
        labels[rng.random(labels.shape) < 0.1] = 0
        for adjacency in (4, 8):
            ids = []
            for dtype in (np.uint16, np.int32):
                labeler = TwoPassLabeler(24, adjacency)
                for r0 in range(0, 24, 5):
                    labeler.feed(labels[r0 : r0 + 5].astype(dtype))
                ids.append(labeler.finalize().segment_ids)
            assert np.array_equal(ids[0], ids[1])
            oracle, _ = flood_fill_segments(labels, adjacency)
            assert segmentations_bijective(ids[0], oracle)

    def test_nodata_forms_no_segment(self):
        labels = np.array([[1, 0, 1]])
        seg = connected_components(cat(labels, 1), 4)
        assert seg.segment_count == 2
        assert seg.segment_ids[0, 1] == 0

    def test_dense_ids_in_first_encounter_order(self, rng):
        labels = rng.integers(1, 4, size=(16, 16)).astype(np.int32)
        seg = connected_components(cat(labels, 3), 8)
        flat = seg.segment_ids.ravel()
        first = {}
        for pos, sid in enumerate(flat):
            if sid and sid not in first:
                first[sid] = pos
        assert sorted(first) == list(range(1, seg.segment_count + 1))
        positions = [first[sid] for sid in sorted(first)]
        assert positions == sorted(positions)

    def test_eight_adjacency_never_splits_more(self, rng):
        for _ in range(100):
            labels = rng.integers(1, 5, size=(24, 24)).astype(np.int32)
            c8 = connected_components(cat(labels, 4), 8).segment_count
            c4 = connected_components(cat(labels, 4), 4).segment_count
            assert c8 <= c4

    def test_legend_permutation_invariance(self, rng):
        labels = rng.integers(1, 5, size=(20, 20)).astype(np.int32)
        perm = {1: 3, 2: 4, 3: 1, 4: 2}
        relabeled = np.vectorize(perm.get)(labels).astype(np.int32)
        for adjacency in (4, 8):
            a = connected_components(cat(labels, 4), adjacency)
            b = connected_components(cat(relabeled, 4), adjacency)
            assert np.array_equal(a.segment_ids, b.segment_ids)
            assert a.segment_count == b.segment_count

    def test_nine_segment_fixture(self):
        for adjacency in (4, 8):
            seg = connected_components(cat(NINE_SEGMENT_MAP, 3), adjacency)
            assert seg.segment_count == 9
            veg_ids = np.unique(seg.segment_ids[NINE_SEGMENT_MAP == 2])
            assert len(veg_ids) == 2  # the vegetation stratum splits in two

    def test_streamed_equals_whole(self, rng):
        for trial in range(500):
            h = int(rng.integers(4, 20))
            w = int(rng.integers(4, 20))
            labels = rng.integers(1, 5, size=(h, w)).astype(np.int32)
            labels[rng.random((h, w)) < 0.05] = 0
            adjacency = 4 if trial % 2 else 8
            whole = connected_components(cat(labels, 4), adjacency)
            chunked = TwoPassLabeler(w, adjacency)
            step = int(rng.integers(1, 6))
            for r0 in range(0, h, step):
                chunked.feed(labels[r0 : r0 + step])
            tiled = chunked.finalize()
            assert tiled.segment_count == whole.segment_count
            assert segmentations_bijective(tiled.segment_ids, whole.segment_ids)

    def test_strip_fed_ids_identical_for_every_strip_height(self, rng):
        for trial in range(8):
            h = int(rng.integers(1, 14))
            w = int(rng.integers(1, 14))
            labels = rng.integers(1, 4, size=(h, w)).astype(np.int32)
            labels[rng.random((h, w)) < 0.1] = 0
            if trial == 0:
                labels[0] = 0  # no run before the second row
            for adjacency in (4, 8):
                whole = connected_components(cat(labels, 3), adjacency)
                for step in range(1, h + 1):
                    labeler = TwoPassLabeler(w, adjacency)
                    for r0 in range(0, h, step):
                        labeler.feed(labels[r0 : r0 + step])
                    strips = labeler.finalize()
                    assert strips.segment_count == whole.segment_count
                    assert np.array_equal(strips.segment_ids, whole.segment_ids)

    @pytest.mark.parametrize("feeds", [
        "block_starts_with_nodata", "first_block_all_nodata", "one_row_blocks",
    ])
    def test_block_fed_ids_equal_one_whole_feed(self, rng, feeds):
        for trial in range(30):
            h = int(rng.integers(6, 16))
            w = int(rng.integers(1, 16))
            labels = rng.integers(1, 4, size=(h, w)).astype(np.int32)
            labels[rng.random((h, w)) < 0.1] = 0
            if feeds == "block_starts_with_nodata":
                cuts = [0, 2, 5, h]
                labels[2, : max(1, w // 2)] = 0  # a whole row when w is 1
                labels[5, 0] = 0
            elif feeds == "first_block_all_nodata":
                cuts = [0, 3, 4, h]
                labels[:3] = 0
                if trial == 0:
                    labels[:] = 0  # no run at all
            else:
                cuts = list(range(h + 1))
            for adjacency in (4, 8):
                whole = TwoPassLabeler(w, adjacency)
                whole.feed(labels)
                want = whole.finalize()
                fed = TwoPassLabeler(w, adjacency)
                for r0, r1 in zip(cuts, cuts[1:]):
                    fed.feed(labels[r0:r1])
                got = fed.finalize()
                assert got.segment_count == want.segment_count
                assert np.array_equal(got.segment_ids, want.segment_ids)
                oracle, count = flood_fill_segments(labels, adjacency)
                assert got.segment_count == count
                assert segmentations_bijective(got.segment_ids, oracle)

    def test_strip_painted_ids_equal_finalize_and_the_oracle(self, rng):
        for trial in range(40):
            h = int(rng.integers(1, 24))
            w = int(rng.integers(1, 24))
            labels = rng.integers(1, 4, size=(h, w)).astype(np.int32)
            labels[rng.random((h, w)) < 0.1] = 0
            if trial == 0:
                labels[:] = 0  # no run at all
            cuts = sorted({0, h, *rng.integers(0, h + 1, size=3).tolist()})
            for adjacency in (4, 8):
                whole = TwoPassLabeler(w, adjacency)
                whole.feed(labels)
                want = whole.finalize()
                stats = OpStats()
                fed = TwoPassLabeler(w, adjacency, stats)
                for r0, r1 in zip(cuts, cuts[1:]):
                    fed.feed(labels[r0:r1])
                painter = fed.resolve()
                assert painter.segment_count == want.segment_count
                assert painter.labelled_pixels == np.count_nonzero(labels)
                # Strips of another height than the feeds, in any order.
                step = int(rng.integers(1, h + 1))
                bounds = [(r0, min(r0 + step, h)) for r0 in range(0, h, step)]
                painted = np.empty((h, w), dtype=np.int32)
                for r0, r1 in reversed(bounds):
                    painted[r0:r1] = painter.paint(r0, r1)
                assert np.array_equal(painted, want.segment_ids)
                assert stats.pixel_visits == 2 * h * w
                assert painter.paint(h, h).shape == (0, w)
                oracle, count = flood_fill_segments(labels, adjacency)
                assert painter.segment_count == count
                assert segmentations_bijective(painted, oracle)

    def test_painting_outside_the_map_refused(self):
        labeler = TwoPassLabeler(3, 8)
        labeler.feed(np.ones((2, 3), dtype=np.int32))
        painter = labeler.resolve()
        for r0, r1 in ((-1, 1), (1, 3), (2, 1)):
            with pytest.raises(ConfigError, match="cannot paint rows"):
                painter.paint(r0, r1)

    def test_visit_and_union_accounting(self, rng):
        labels = rng.integers(1, 4, size=(30, 30)).astype(np.int32)
        stats = OpStats()
        labeler = TwoPassLabeler(30, 8, stats)
        labeler.feed(labels)
        labeler.finalize()
        assert stats.pixel_visits == 2 * 30 * 30  # two passes, nothing more
        assert stats.union_find_ops > 0

    def test_one_run_stats_type(self, rng):
        """The three counting names are one type; ``reset`` zeroes every
        field; a labeler given no counter counts into one of its own."""
        assert PixelVisitCounter is OpStats is RunStats
        assert type(raster.strip_ledger) is RunStats
        stats = RunStats(1, 2, 3, 4)
        stats.allocate(5)
        stats.reset()
        assert dataclasses.astuple(stats) == (0, 0, 0, 0, 0)
        labeler = TwoPassLabeler(5, 8)
        labeler.feed(rng.integers(1, 4, size=(4, 5)).astype(np.int32))
        painter = labeler.resolve()
        painter.paint(0, 4)
        assert type(labeler.stats) is RunStats and painter.stats is labeler.stats
        assert labeler.stats.pixel_visits == 2 * 4 * 5
        assert labeler.stats.union_find_ops > 0

    def test_empty_map_rejected(self):
        labeler = TwoPassLabeler(4, 8)
        with pytest.raises(DataError):
            labeler.finalize()
        labeler = TwoPassLabeler(0, 8)
        labeler.feed(np.zeros((3, 0), dtype=np.int32))  # rows without pixels
        with pytest.raises(DataError):
            labeler.finalize()
        with pytest.raises(DataError, match="cannot segment an empty map"):
            connected_components(cat(np.zeros((0, 4)), 1))  # the labeler refuses it

    def test_finalize_hands_over_the_fed_rows(self, rng):
        labels = rng.integers(1, 4, size=(9, 7)).astype(np.int32)
        labeler = TwoPassLabeler(7, 8)
        labeler.feed(labels)
        first = labeler.finalize()
        with pytest.raises(DataError, match="no pixels fed"):
            labeler.finalize()
        labeler.feed(labels)  # starts afresh, not after the first image
        again = labeler.finalize()
        assert again.segment_count == first.segment_count
        assert np.array_equal(again.segment_ids, first.segment_ids)

    def test_segmentation_file_round_trip(self, tmp_path, rng):
        labels = rng.integers(1, 4, size=(9, 9)).astype(np.int32)
        seg = connected_components(cat(labels, 3), 8)
        write_segmentation(seg, tmp_path / "s.hdr")
        back = read_segmentation(tmp_path / "s.hdr")
        assert np.array_equal(back.segment_ids, seg.segment_ids)
        assert back.segment_count == seg.segment_count

    def test_dense_id_invariant_enforced(self):
        with pytest.raises(DataError):
            SegmentationMap(np.array([[1, 3]]), 3)

    def test_negative_id_or_count_refused(self):
        with pytest.raises(DataError, match="segment id -1 is negative"):
            SegmentationMap(np.array([[1, -1]]), 1)
        with pytest.raises(DataError, match="segment count -1 is negative"):
            SegmentationMap(np.zeros((2, 2)), -1)

    @staticmethod
    def _write_seg_file(path, ids, segments):
        extra = [("maptype", "segmentation")]
        if segments is not None:
            extra.append(("segments", segments))
        raster.write_raster(path, extra, np.asarray(ids, dtype="<u4")[np.newaxis], "u32")

    def test_reader_refuses_id_int32_cannot_hold(self, tmp_path):
        path = tmp_path / "s.hdr"
        self._write_seg_file(path, [[1, 2**31]], "2")
        message = re.escape(f"{path}: segment id 2147483648") + ".*'segments'"
        with pytest.raises(FormatError, match=message):
            read_segmentation(path)

    @pytest.mark.parametrize("ids, segments", [([[1, 3]], "3"), ([[1, 2]], "1")])
    def test_reader_names_the_header_on_sparse_ids(self, tmp_path, ids, segments):
        path = tmp_path / "s.hdr"
        self._write_seg_file(path, ids, segments)
        with pytest.raises(DataError, match=re.escape(f"{path}: segment ids are not dense")):
            read_segmentation(path)

    def test_reader_refuses_other_payload_types(self, tmp_path):
        path = tmp_path / "s.hdr"
        raster.write_raster(path, [("maptype", "segmentation"), ("segments", "2")],
                            np.array([[[1, 2]]], dtype="<u2"), "u16")
        message = re.escape(f"{path}: a segmentation is one band of u32")
        with pytest.raises(FormatError, match=message):
            read_segmentation(path)

    @pytest.mark.parametrize("segments, message", [
        ("2.5", "'segments' is not an integer"),
        ("two", "'segments' is not an integer"),
        (None, "missing header key 'segments'"),
        ("-1", "'segments' must be in"),
    ])
    def test_reader_refuses_segment_count_it_cannot_read(self, tmp_path, segments,
                                                         message):
        path = tmp_path / "s.hdr"
        self._write_seg_file(path, [[1, 2]], segments)
        with pytest.raises(FormatError, match=re.escape(f"{path}: ") + f".*{message}"):
            read_segmentation(path)


class TestCrossAura:
    def test_constant_map_all_zero(self):
        aura = cross_aura(cat(np.ones((6, 6))), 8)
        assert (aura.counts == 0).all()

    def test_center_pixel_enumeration(self):
        labels = np.ones((3, 3), dtype=np.int32)
        labels[1, 1] = 2
        aura = cross_aura(cat(labels, 2), 4)
        expected = np.array([[0, 1, 0], [1, 4, 1], [0, 1, 0]])
        assert np.array_equal(aura.counts, expected)

    def test_sum_is_even(self, rng):
        for adjacency in (4, 8):
            for _ in range(50):
                cmap = random_map(rng, 12, 12, 4, nodata_fraction=0.1)
                aura = cross_aura(cmap, adjacency)
                assert int(aura.counts.sum()) % 2 == 0

    def test_pairwise_count_oracle(self, rng):
        labels = rng.integers(0, 4, size=(10, 10)).astype(np.int32)
        for adjacency, offsets in (
            (4, ((-1, 0), (1, 0), (0, -1), (0, 1))),
            (8, ((-1, 0), (1, 0), (0, -1), (0, 1),
                 (-1, -1), (-1, 1), (1, -1), (1, 1))),
        ):
            aura = cross_aura(cat(labels, 3), adjacency)
            for r in range(10):
                for c in range(10):
                    n = 0
                    for dr, dc in offsets:
                        rr, cc = r + dr, c + dc
                        if 0 <= rr < 10 and 0 <= cc < 10 \
                                and labels[rr, cc] != labels[r, c]:
                            n += 1
                    assert aura.counts[r, c] == n

    def test_values_bounded_by_adjacency(self, rng):
        cmap = random_map(rng, 16, 16, 5)
        assert cross_aura(cmap, 4).counts.max() <= 4
        assert cross_aura(cmap, 8).counts.max() <= 8

    def test_permutation_invariance(self, rng):
        labels = rng.integers(1, 5, size=(12, 12)).astype(np.int32)
        perm = {1: 4, 2: 1, 3: 2, 4: 3}
        relabeled = np.vectorize(perm.get)(labels).astype(np.int32)
        a = cross_aura(cat(labels, 4), 8)
        b = cross_aura(cat(relabeled, 4), 8)
        assert np.array_equal(a.counts, b.counts)


def _table_inputs(rng, h=12, w=12, n_labels=4, n_bands=3, nodata=0.0):
    cmap = random_map(rng, h, w, n_labels, nodata_fraction=nodata)
    image = random_image(rng, n_bands, h, w)
    image.validity[:] = cmap.labels != 0
    image.samples[:, ~image.validity] = 0.0
    seg = connected_components(cmap, 8)
    aura = cross_aura(cmap, 8)
    return cmap, seg, image, aura


def _fold_strips(cmap, seg, image, aura, rows):
    """The table folded ``rows`` rows at a time, as pass A folds it."""
    h, w = cmap.labels.shape
    fold = _TableFold(seg.segment_count, h * w, len(image.bands))
    for r0, r1 in raster.strip_bounds(h, rows):
        fold.add(seg.segment_ids[r0:r1], cmap.labels[r0:r1], aura.counts[r0:r1],
                 Strip(r0, image.bands, image.samples[:, r0:r1], image.validity[r0:r1]))
    return fold.table()


class TestSuperpixelTable:
    def test_single_segment_constant(self):
        cmap = cat(np.ones((4, 5)))
        seg = connected_components(cmap, 8)
        aura = cross_aura(cmap, 8)
        planes = {"b1": np.full((4, 5), 0.25), "b2": np.full((4, 5), 0.5)}
        image = image_from_planes(planes)
        table = build_superpixel_table(cmap, seg, image, aura)
        assert len(table) == 1
        assert table.counts.tolist() == [20]
        assert table.labels.tolist() == [1]
        bbox = (table.min_row[0], table.min_col[0], table.max_row[0], table.max_col[0])
        assert bbox == (0, 0, 3, 4)
        assert table.perimeter[0] == 0 and table.compactness[0] == 1.0
        assert tuple(table.sums[:, 0].tolist()) == (pytest.approx(5.0), pytest.approx(10.0))

    def test_two_segment_sums(self):
        labels = np.array([[1, 1, 2, 2]])
        cmap = cat(labels, 2)
        seg = connected_components(cmap, 8)
        aura = cross_aura(cmap, 8)
        # band values 10 and 20 vs 30 and 30, on a 0-255 encoding
        b = np.array([[10.0, 20.0, 30.0, 30.0]]) / 255.0
        image = image_from_planes({"b1": b, "b2": b})
        table = build_superpixel_table(cmap, seg, image, aura)
        sums = (table.sums[0] * 255.0).tolist()
        assert sums == [pytest.approx(30.0), pytest.approx(60.0)]

    def test_pixel_count_histogram_oracle(self, rng):
        cmap, seg, image, aura = _table_inputs(rng, nodata=0.08)
        table = build_superpixel_table(cmap, seg, image, aura)
        histogram = np.bincount(
            seg.segment_ids[seg.segment_ids > 0], minlength=seg.segment_count + 1
        )
        assert len(table) == seg.segment_count
        for sid in range(1, seg.segment_count + 1):
            assert table.counts[sid - 1] == histogram[sid]
        assert int(table.counts.sum()) == int(np.count_nonzero(cmap.labels))

    def test_perimeter_is_member_aura_sum(self, rng):
        cmap, seg, image, aura = _table_inputs(rng)
        table = build_superpixel_table(cmap, seg, image, aura)
        for sid in range(1, seg.segment_count + 1):
            member = seg.segment_ids == sid
            assert table.perimeter[sid - 1] == int(aura.counts[member].sum())

    def test_bbox_and_label_per_segment_oracle(self, rng):
        cmap, seg, image, aura = _table_inputs(rng, nodata=0.08)
        table = build_superpixel_table(cmap, seg, image, aura)
        for sid in range(1, seg.segment_count + 1):
            rr, cc = np.nonzero(seg.segment_ids == sid)
            i = sid - 1
            assert table.labels[i] == cmap.labels[rr[0], cc[0]]
            got = (table.min_row[i], table.min_col[i], table.max_row[i], table.max_col[i])
            assert got == (rr.min(), cc.min(), rr.max(), cc.max())

    def test_compactness_in_unit_interval(self, rng):
        cmap, seg, image, aura = _table_inputs(rng)
        table = build_superpixel_table(cmap, seg, image, aura)
        assert len(table) == seg.segment_count
        for compactness in table.compactness:
            assert 0.0 < compactness <= 1.0

    def test_dimension_mismatch_rejected(self, rng):
        cmap, seg, image, aura = _table_inputs(rng)
        other = random_image(rng, 3, 5, 5)
        with pytest.raises(DimensionMismatchError):
            build_superpixel_table(cmap, seg, other, aura)

    def test_heterogeneous_segmentation_rejected(self, rng):
        cmap, seg, image, aura = _table_inputs(rng)
        counts = np.bincount(seg.segment_ids[seg.segment_ids > 0])
        sid = int(np.argmax(counts))
        assert counts[sid] >= 2
        rr, cc = np.nonzero(seg.segment_ids == sid)
        labels = cmap.labels.copy()
        labels[rr[0], cc[0]] = labels[rr[0], cc[0]] % 4 + 1  # break one member
        wrong = CategoricalMap(labels, legend(5))
        with pytest.raises(DataError):
            build_superpixel_table(wrong, seg, image, aura)


    def test_label_change_across_strips_rejected(self):
        cmap = cat(np.ones((4, 3)))
        seg = connected_components(cmap, 8)
        image = image_from_planes({"b1": np.full((4, 3), 0.5), "b2": np.zeros((4, 3))})
        labels = cmap.labels.copy()
        labels[3] = 2  # one segment, two labels, in different strips
        wrong = CategoricalMap(labels, legend(2))
        with pytest.raises(DataError, match="label-homogeneous"):
            _fold_strips(wrong, seg, image, cross_aura(wrong, 8), 1)

    def test_strip_fed_table_equals_whole_image_table(self, rng):
        cmap, seg, image, aura = _table_inputs(rng, h=13, w=9, nodata=0.1)
        whole = build_superpixel_table(cmap, seg, image, aura)
        for rows in (1, 4):
            table = _fold_strips(cmap, seg, image, aura, rows)
            for f in dataclasses.fields(table):
                assert np.array_equal(getattr(table, f.name), getattr(whole, f.name))

    def test_int_dtype_at_the_int32_boundary(self):
        assert _int_dtype(np.iinfo(np.int32).max) is np.int32
        assert _int_dtype(np.iinfo(np.int32).max + 1) is np.int64

    @pytest.mark.parametrize("pixels, ints, perimeter", [
        ((2**31 - 1) // 8, np.int32, np.int32),
        ((2**31 - 1) // 8 + 1, np.int32, np.int64),
        (2**31 - 1, np.int32, np.int64),
        (2**31, np.int64, np.int64),
    ])
    def test_integer_columns_widen_past_their_bound(self, pixels, ints, perimeter):
        """A count or bbox coordinate is below the image's pixel count and a
        perimeter at most 8 times it: each column is int32 while its bound
        fits.  Only the fold's (segments + 1)-entry columns are allocated."""
        fold = _TableFold(3, pixels, 2)
        for column in (fold.counts, fold.min_row, fold.min_col, fold.max_row, fold.max_col):
            assert column.dtype == ints
        assert fold.perim.dtype == perimeter
        assert fold.label_of.dtype == np.int32

    def test_int64_columns_hold_the_same_table(self, rng, tmp_path):
        cmap, seg, image, aura = _table_inputs(rng, h=13, w=9, nodata=0.1)
        narrow = build_superpixel_table(cmap, seg, image, aura)
        fold = _TableFold(seg.segment_count, 2**31, len(image.bands))
        fold.add(seg.segment_ids, cmap.labels, aura.counts,
                 Strip(0, image.bands, image.samples, image.validity))
        wide = fold.table()
        assert narrow.counts.dtype == np.int32 and wide.counts.dtype == np.int64
        for f in dataclasses.fields(wide):
            assert np.array_equal(getattr(wide, f.name), getattr(narrow, f.name))
        write_superpixel_csv(narrow, tmp_path / "narrow.csv")
        write_superpixel_csv(wide, tmp_path / "wide.csv")
        assert (tmp_path / "narrow.csv").read_bytes() == (tmp_path / "wide.csv").read_bytes()

    @pytest.mark.parametrize("column", ["counts", "perimeter"])
    def test_count_below_one_or_negative_perimeter_refused(self, rng, column):
        """The fold makes neither, and compactness is keyed on both."""
        table = _pair_table(rng, 50)
        bad = getattr(table, column).copy()
        bad[5] = {"counts": 0, "perimeter": -1}[column]
        message = {"counts": "pixel count 0 is below 1",
                   "perimeter": "perimeter -1 is negative"}[column]
        with pytest.raises(DataError, match=message):
            dataclasses.replace(table, **{column: bad})

    def test_compactness_is_derived_and_read_only(self, rng):
        """A write to the derived column fails instead of being lost."""
        table = _pair_table(rng, 50)
        with pytest.raises(ValueError, match="read-only"):
            table.compactness[0] = 0.5
        with pytest.raises(AttributeError):
            table.compactness = np.ones(50)
        with pytest.raises(TypeError):
            dataclasses.replace(table, compactness=np.ones(50))

    @pytest.mark.parametrize("column", [f.name for f in dataclasses.fields(SuperpixelTable)])
    def test_columns_are_read_only(self, rng, column):
        """A write after the table's checks, such as a negative perimeter,
        would reach the CSV unchecked; it fails instead."""
        cmap, seg, image, aura = _table_inputs(rng, h=13, w=9, nodata=0.1)
        for table in (build_superpixel_table(cmap, seg, image, aura), _pair_table(rng, 50)):
            values = getattr(table, column)
            before = values.copy()
            with pytest.raises(ValueError, match="read-only"):
                values[..., 5] = -1
            assert np.array_equal(values, before)

    def test_table_bytes_per_row(self):
        """What the per-pixel table keeps: 7 int64 columns and 7 float64
        ones kept 112 bytes per row; with int32 integer columns, 84."""
        inputs = _per_pixel_table_inputs()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            table = build_superpixel_table(*inputs)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(table) > 190_000
        assert kept / len(table) < 98


def _per_pixel_table_inputs():
    """The ~200 k-segment, 6-band per-pixel scene of the memory tests."""
    rng = np.random.default_rng(12)
    cmap = random_map(rng, 240, 1024, 20)
    image = random_image(rng, 6, 240, 1024)
    image.samples[:] = np.round(image.samples * 10000) / 10000
    return cmap, connected_components(cmap, 8), image, cross_aura(cmap, 8)


def _reference_csv(table, path):
    """The superpixel CSV written row by row with ``csv.writer`` and ``repr``."""
    n_bands = table.sums.shape[0]
    int_columns = (table.labels, table.counts, table.min_row, table.min_col,
                   table.max_row, table.max_col, table.perimeter)
    compactness = table.compactness  # derived anew on each access
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["segment_id", "label", "pixel_count", "min_row", "min_col",
             "max_row", "max_col", "perimeter", "compactness"]
            + [f"sum_b{b + 1}" for b in range(n_bands)]
        )
        for i in range(len(table)):
            writer.writerow(
                [i + 1] + [int(c[i]) for c in int_columns]
                + [repr(float(compactness[i]))]
                + [repr(float(v)) for v in table.sums[:, i]]
            )


def _random_table(rng, n, n_bands):
    def ints(high):
        return rng.integers(0, high, n)

    sums = rng.random((n_bands, n)) * 10.0 ** rng.integers(-9, 7, (n_bands, n))
    sums[:, ::5] = 0.0
    return SuperpixelTable(
        counts=ints(10**6) + 1, labels=ints(65536), min_row=ints(5000),
        min_col=ints(5000), max_row=ints(5000), max_col=ints(5000),
        perimeter=ints(10**7), sums=sums,
    )


def _pair_table(rng, n, n_bands=2):
    """A random table over few (pixel count, perimeter) pairs: the
    pair-keyed path's input."""
    return dataclasses.replace(_random_table(rng, n, n_bands), counts=rng.integers(1, 9, n),
                               perimeter=rng.integers(0, 33, n))


def _special_values_table(rng):
    """Values a per-value string table could mix up, across a chunk boundary."""
    table = _random_table(rng, _CSV_CHUNK_ROWS + 300, 3)
    sums, counts, perimeter = table.sums.copy(), table.counts.copy(), table.perimeter.copy()
    # -0.0 and 0.0 share a value but not a repr
    sums[0, ::2] = -0.0
    sums[0, 1::2] = 0.0
    # two NaN payloads and both infinities
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000000],
                    dtype=np.uint64).view(np.float64)
    sums[1, 0::4] = nans[0]
    sums[1, 1::4] = nans[1]
    sums[1, 2::4] = np.inf
    sums[1, 3::4] = -np.inf
    # one float value on both sides of a chunk boundary
    edge = slice(_CSV_CHUNK_ROWS - 5, _CSV_CHUNK_ROWS + 5)
    counts[edge], perimeter[edge] = 5, 12
    sums[2, edge] = 1.0 / 3.0
    # an int column holding a single repeated value
    labels = np.full(len(table), 7)
    return dataclasses.replace(table, counts=counts, labels=labels,
                               perimeter=perimeter, sums=sums)


class TestSuperpixelCsv:
    def test_bytes_match_csv_writer_reference(self, rng, tmp_path):
        cmap, seg, image, aura = _table_inputs(rng, nodata=0.1)
        constant = cat(np.ones((5, 6)))
        whole = connected_components(constant, 8)
        nodata = cat(np.zeros((3, 4)), 1)
        tables = [
            build_superpixel_table(cmap, seg, image, aura),
            # one image-filling segment: perimeter 0, compactness 1.0
            build_superpixel_table(constant, whole, random_image(rng, 2, 5, 6),
                                   cross_aura(constant, 8)),
            # an all-nodata map: no segments, header only
            build_superpixel_table(nodata, connected_components(nodata, 8),
                                   random_image(rng, 2, 3, 4), cross_aura(nodata, 8)),
            _random_table(rng, _CSV_CHUNK_ROWS + 1234, 4),
            _special_values_table(rng),
        ]
        assert tables[1].compactness.tolist() == [1.0]
        for table in tables:
            digest = write_superpixel_csv(table, tmp_path / "got.csv")
            _reference_csv(table, tmp_path / "want.csv")
            got = (tmp_path / "got.csv").read_bytes()
            assert got == (tmp_path / "want.csv").read_bytes()
            assert got.count(b"\r\n") == len(table) + 1
            assert digest == hashlib.sha256(got).hexdigest()
        # the all-nodata table still names its two bands
        write_superpixel_csv(tables[2], tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == (
            b"segment_id,label,pixel_count,min_row,min_col,max_row,max_col,"
            b"perimeter,compactness,sum_b1,sum_b2\r\n")

    def _assert_matches_reference(self, table, tmp_path):
        digest = write_superpixel_csv(table, tmp_path / "got.csv")
        _reference_csv(table, tmp_path / "want.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert got.count(b"\r\n") == len(table) + 1
        assert digest == hashlib.sha256(got).hexdigest()

    @staticmethod
    def _compactness_path(table, monkeypatch):
        """"pair" or "sorted": how ``_compactness_keys`` codes ``table``."""
        calls = []

        def spy(values):
            calls.append(values)
            return sorted_codes(values)

        sorted_codes = segmentation._sorted_codes
        monkeypatch.setattr(segmentation, "_sorted_codes", spy)
        _compactness_keys(table)
        monkeypatch.setattr(segmentation, "_sorted_codes", sorted_codes)
        return "sorted" if calls else "pair"

    def test_pair_keyed_compactness_on_a_per_pixel_table(self, monkeypatch, tmp_path):
        table = build_superpixel_table(*_per_pixel_table_inputs())
        assert self._compactness_path(table, monkeypatch) == "pair"
        keys, codes = _compactness_keys(table)
        pairs = np.unique(np.stack([table.counts, table.perimeter]), axis=1).shape[1]
        assert len(keys) == pairs < 2000
        assert np.array_equal(keys[codes], table.compactness.view(np.uint64))
        self._assert_matches_reference(table, tmp_path)

    @pytest.mark.parametrize("case", ["table_past_2n"])
    def test_compactness_falls_back_to_sorting(self, rng, monkeypatch, tmp_path, case):
        n = 1000
        table = _pair_table(rng, n)
        assert self._compactness_path(table, monkeypatch) == "pair"
        # (max count + 1) * (max perimeter + 1) = 2n + 1 entries
        counts = rng.integers(1, 7, n)
        counts[0] = 28
        perimeter = rng.integers(0, 69, n)
        perimeter[0] = 68
        table = dataclasses.replace(table, counts=counts, perimeter=perimeter)
        assert 29 * 69 == 2 * n + 1
        assert self._compactness_path(table, monkeypatch) == "sorted"
        self._assert_matches_reference(table, tmp_path)

    def test_compactness_bits_equal_the_formula_per_row(self, rng, monkeypatch):
        """On the pair path and the sorted path, the table's column and the
        CSV's keys equal ((4 pi) area) / (p p), capped at 1.0 and 1.0 where
        p is 0, evaluated row by row in Python floats."""
        cmap = random_map(rng, 128, 512, 20)
        tables = {
            "pair": build_superpixel_table(cmap, connected_components(cmap, 8),
                                           random_image(rng, 2, 128, 512),
                                           cross_aura(cmap, 8)),
            "sorted": _random_table(rng, 5000, 1),
        }
        for path, table in tables.items():
            want = np.array([
                1.0 if p == 0 else min(1.0, 4.0 * math.pi * area / (float(p) * float(p)))
                for area, p in zip(table.counts.tolist(), table.perimeter.tolist())
            ]).view(np.uint64)
            assert np.array_equal(table.compactness.view(np.uint64), want)
            assert self._compactness_path(table, monkeypatch) == path
            keys, codes = _compactness_keys(table)
            assert np.array_equal(keys[codes], want)

    @pytest.mark.parametrize("shape", [(1, 1), (5, 6)])
    def test_image_filling_segment(self, rng, monkeypatch, tmp_path, shape):
        """Perimeter 0, compactness 1.0: a 1-pixel image's pair table has
        2 = 2n entries and is keyed on the pair; a 30-pixel one sorts."""
        constant = cat(np.ones(shape))
        table = build_superpixel_table(constant, connected_components(constant, 8),
                                       random_image(rng, 2, *shape), cross_aura(constant, 8))
        assert table.perimeter.tolist() == [0] and table.compactness.tolist() == [1.0]
        want = "pair" if shape == (1, 1) else "sorted"
        assert self._compactness_path(table, monkeypatch) == want
        self._assert_matches_reference(table, tmp_path)

    @pytest.mark.parametrize("n", [
        1000, _CSV_CHUNK_ROWS, 2 * _CSV_CHUNK_ROWS, 2 * _CSV_CHUNK_ROWS + 1,
        3 * _CSV_CHUNK_ROWS + 1,
    ])
    def test_pair_keyed_rows_around_chunk_boundaries(self, rng, monkeypatch, tmp_path, n):
        """The one record buffer refilled over one to three full chunks, with
        and without a short last chunk after them, and a short chunk alone."""
        table = _pair_table(rng, n)
        assert self._compactness_path(table, monkeypatch) == "pair"
        self._assert_matches_reference(table, tmp_path)

    def test_writer_starts_no_thread(self, rng, monkeypatch, tmp_path):
        """Sorts, ``repr``s, fills, hashing and writes all run in the calling
        thread: with ``Thread.start`` refused, the bytes are the reference's."""
        def refuse(thread):
            raise AssertionError(f"the writer started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        self._assert_matches_reference(_pair_table(rng, 6 * _CSV_CHUNK_ROWS + 7, 3), tmp_path)

    @pytest.mark.parametrize("n", [
        0, 1, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1,
        # around a later chunk boundary (65 536 is a multiple of the chunk)
        65_535, 65_536, 65_537,
        # ids cross 99 999 -> 100 000 inside a chunk
        100_001,
    ])
    def test_row_counts_around_chunk_and_digit_boundaries(self, rng, tmp_path, n):
        self._assert_matches_reference(_random_table(rng, n, 1), tmp_path)

    def test_int_columns_on_both_sides_of_the_direct_table_rule(self, rng, tmp_path):
        n = 1000
        table = _random_table(rng, n, 2)
        min_row = rng.integers(0, 2 * n, n)
        min_row[17] = 2 * n - 1   # direct: decimals of 0..2n-1
        max_row = rng.integers(0, 2 * n, n)
        max_row[17] = 2 * n       # one past the rule: distinct values
        table = dataclasses.replace(table, min_row=min_row, max_row=max_row)
        assert len(_encode_column(table.min_row)[0]) == 2 * n
        assert len(_encode_column(table.max_row)[0]) == len(np.unique(table.max_row))
        self._assert_matches_reference(table, tmp_path)

    def test_negative_int_column(self, rng, tmp_path):
        n = 500
        table = _random_table(rng, n, 2)
        labels, max_col = table.labels.copy(), table.max_col.copy()
        labels[3] = -3
        max_col[::9] = -(10**12)  # the table refuses a negative perimeter
        min_row = rng.integers(0, n, n)
        min_row[5] = -1  # below the direct table's range, within its max
        table = dataclasses.replace(table, labels=labels, max_col=max_col, min_row=min_row)
        self._assert_matches_reference(table, tmp_path)

    def test_writer_memory_per_row(self, tmp_path):
        """The writer's traced peak above entry on a per-pixel table.

        At ~200 k rows, 6 bands, dictionary-encoded string rows peaked at
        ~223 bytes per row; byte records at ~196 in 65 536-row chunks and
        at ~81 in 8 192-row chunks.
        """
        rng = np.random.default_rng(12)
        cmap = random_map(rng, 240, 1024, 20)
        image = random_image(rng, 6, 240, 1024)
        image.samples[:] = np.round(image.samples * 10000) / 10000
        table = build_superpixel_table(cmap, connected_components(cmap, 8),
                                       image, cross_aura(cmap, 8))
        del cmap, image
        assert len(table) > 190_000
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_superpixel_csv(table, tmp_path / "table.csv")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / len(table) < 120

    def test_writer_codes_memory_per_row(self, tmp_path):
        """The writer's traced peak above entry on the per-pixel table:
        80.5 bytes per row with int64 inverses narrowed afterwards and int
        columns copied to codes; 56.8 with narrow codes written in place, a
        full-length int64 sort order and two record buffers; 44.2 with the
        order narrowed to u32, the mask and ranks made in blocks and one
        record buffer refilled in the calling thread."""
        table = build_superpixel_table(*_per_pixel_table_inputs())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_superpixel_csv(table, tmp_path / "table.csv")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / len(table) < 54

    def test_direct_int_column_memory_per_row(self, rng):
        """The direct path's traced peak on a 200 000-row int32 column whose
        max is 2n - 1: 60 bytes per row with int64 ``arange`` and ``rest``
        temporaries and a leading-zero mask; about 20 with a u32 range and
        leading positions blanked by slicing."""
        n = 200_000
        column = rng.integers(0, 2 * n, n).astype(np.int32)
        column[0] = 2 * n - 1
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fields, codes = _encode_column(column)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert codes is column and len(fields) == 2 * n
        assert peak / n < 45
        assert fields.tolist() == [str(v).encode().rjust(6, b"\0") for v in range(2 * n)]

    @pytest.mark.parametrize("distinct", [1, 12, 65_536, 65_537])
    def test_float_codes_equal_np_unique(self, rng, distinct):
        """Fields are the ``repr`` of ``np.unique``'s bit-pattern keys and
        codes its inverse, u16 up to 65 536 keys and u32 past them."""
        special = np.array([-0.0, 0.0, 5e-324, -5e-324, np.nextafter(2.0**-1022, 0),
                            2.0**-1022, np.inf, -np.inf, np.nan, 1.0 / 3.0])
        values = np.concatenate([special, 1.0 + np.arange(distinct) / 1024])[:distinct]
        column = np.concatenate([values, rng.choice(values, 2 * distinct)])
        rng.shuffle(column)
        keys, inverse = np.unique(column.view(np.uint64), return_inverse=True)
        assert len(keys) == distinct
        bits, codes = _float_keys(column)
        fields = _float_fields(bits)
        assert fields.tolist() == [repr(v).encode() for v in keys.view(np.float64).tolist()]
        assert codes.dtype == (np.uint16 if distinct <= 1 << 16 else np.uint32)
        assert np.array_equal(codes, inverse)

    @pytest.mark.parametrize("n, run", [
        # runs of three equal values straddle sorted rows 65 536 and 131 072;
        # runs of four start a new value at each
        (200_000, 3), (200_000, 4),
        # 65 536 distinct values keep u16 codes, 65 537 take u32; 65 537
        # rows leave a last block of one row
        (65_536, 1), (65_537, 1), (65_537, 2),
    ])
    def test_sorted_codes_across_blocks_equal_np_unique(self, rng, n, run):
        """The new-key mask and the ranks are made one block of sorted rows
        at a time; keys and codes still equal ``np.unique``'s."""
        assert segmentation._SORT_BLOCK_ROWS == 65_536
        values = rng.permutation(np.arange(n, dtype=np.int64) // run * 7 - 1000)
        keys, inverse = np.unique(values, return_inverse=True)
        got, codes = segmentation._sorted_codes(values)
        assert np.array_equal(got, keys)
        assert codes.dtype == (np.uint16 if len(keys) <= 1 << 16 else np.uint32)
        assert np.array_equal(codes, inverse)

    def test_direct_int_column_is_its_own_codes(self, rng):
        column = rng.integers(0, 2000, 1000).astype(np.int32)
        column[0] = 1999  # the direct rule's largest value, 2n - 1
        fields, codes = _encode_column(column)
        assert codes is column
        # digits are right-aligned after NUL padding, which the writer drops
        got = [f.lstrip(b"\0") for f in fields[codes].tolist()]
        assert got == [str(v).encode() for v in column.tolist()]

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("low, high", [(-5, 100), (0, 5000)])
    def test_other_int_column_codes_equal_np_unique(self, rng, dtype, low, high):
        """A negative value, or one at least 2n, leaves the direct rule."""
        column = rng.integers(low, high, 1000).astype(dtype)
        column[0] = low if low < 0 else 2000
        keys, inverse = np.unique(column, return_inverse=True)
        fields, codes = _encode_column(column)
        assert fields.tolist() == [str(v).encode() for v in keys.tolist()]
        assert codes.dtype == np.uint16
        assert np.array_equal(codes, inverse)


class TestReconstructAndRmse:
    def test_piecewise_constant_fixed_point(self, rng):
        cmap = random_map(rng, 10, 10, 3)
        seg = connected_components(cmap, 8)
        aura = cross_aura(cmap, 8)
        # image constant within every segment; dyadic values keep the
        # sum/count arithmetic exact, so the fixed point is bit-exact
        per_segment = rng.integers(0, 257, (seg.segment_count + 1, 2)) / 256.0
        samples = np.moveaxis(per_segment[seg.segment_ids], -1, 0)
        image = image_from_planes({"b1": samples[0], "b2": samples[1]})
        table = build_superpixel_table(cmap, seg, image, aura)
        recon = reconstruct(seg, table, image)
        assert np.array_equal(recon.samples, image.samples)
        rmse = rmse_map(image, recon)
        assert (rmse.values == 0).all()
        stats = rmse.stats()
        assert stats.minimum == stats.maximum == stats.mean == 0.0

    def test_mean_of_two_pixels(self):
        labels = np.array([[1, 1]])
        cmap = cat(labels, 1)
        seg = connected_components(cmap, 8)
        aura = cross_aura(cmap, 8)
        b = np.array([[10.0, 20.0]]) / 255.0
        image = image_from_planes({"b1": b, "b2": b})
        table = build_superpixel_table(cmap, seg, image, aura)
        recon = reconstruct(seg, table, image)
        assert np.allclose(recon.samples, 15.0 / 255.0)

    def test_group_by_oracle(self, rng):
        cmap, seg, image, aura = _table_inputs(rng, nodata=0.05)
        table = build_superpixel_table(cmap, seg, image, aura)
        recon = reconstruct(seg, table, image)
        means = group_by_means(seg.segment_ids, image.samples)
        for sid, mean in means.items():
            member = seg.segment_ids == sid
            for b in range(image.samples.shape[0]):
                got = np.unique(recon.samples[b][member])
                assert len(got) == 1
                assert got[0] == pytest.approx(mean[b], abs=1e-9)

    def test_rmse_identical_inputs_zero(self, rng):
        image = random_image(rng, 3, 6, 6)
        rmse = rmse_map(image, image)
        assert (rmse.values == 0).all()

    def test_rmse_single_band_absolute_difference(self):
        values = pixel_rmse(np.array([[[10.0]]]), np.array([[[15.0]]]))
        assert values[0, 0] == pytest.approx(5.0)

    def test_rmse_two_band_hand_value(self):
        a = np.array([[[3.0]], [[0.0]]])
        b = np.array([[[0.0]], [[4.0]]])
        # sqrt((9 + 16) / 2) computed by hand
        assert pixel_rmse(a, b)[0, 0] == pytest.approx(3.5355339059327378, abs=1e-12)

    def test_rmse_stats_match_scalar_reference(self, rng):
        cmap, seg, image, aura = _table_inputs(rng, nodata=0.05)
        table = build_superpixel_table(cmap, seg, image, aura)
        recon = reconstruct(seg, table, image)
        rmse = rmse_map(image, recon)
        stats = rmse.stats()
        lo, hi, mean, stdev = scalar_rmse_stats(
            image.samples, recon.samples, rmse.validity
        )
        assert stats.minimum == pytest.approx(lo, abs=1e-12)
        assert stats.maximum == pytest.approx(hi, abs=1e-12)
        assert stats.mean == pytest.approx(mean, abs=1e-12)
        assert stats.stdev == pytest.approx(stdev, abs=1e-12)

    @pytest.mark.parametrize("valid", ["all", "some", "one", "none"])
    def test_rmse_stats_equal_numpy_bit_for_bit(self, rng, valid):
        for trial in range(20):
            shape = (int(rng.integers(1, 40)), int(rng.integers(1, 40)))
            values = rng.random(shape) * 10.0 ** int(rng.integers(-6, 6))
            validity = {
                "all": np.ones(shape, dtype=bool),
                "some": rng.random(shape) < 0.7,
                "one": np.zeros(shape, dtype=bool),
                "none": np.zeros(shape, dtype=bool),
            }[valid]
            if valid == "one":
                validity.flat[int(rng.integers(validity.size))] = True
            values[~validity] = 0.0
            kept = values.copy()
            stats = RmseMap(values, validity).stats()
            assert values.tobytes() == kept.tobytes()
            v = kept[validity]
            want = (v.min(), v.max(), v.mean(), v.std()) if v.size else (0.0,) * 4
            got = (stats.minimum, stats.maximum, stats.mean, stats.stdev)
            assert np.array(got).tobytes() == np.array(want, dtype=np.float64).tobytes()

    def test_strip_means_equal_the_mean_view_bit_for_bit(self, rng):
        cmap, seg, image, aura = _table_inputs(rng)
        table = build_superpixel_table(cmap, seg, image, aura)
        ids = seg.segment_ids
        got = _mean_rows(table, ids, ids > 0)
        means = np.zeros((table.sums.shape[0], len(table) + 1))
        np.divide(table.sums, table.counts, out=means[:, 1:])
        assert got.tobytes() == means[:, ids].tobytes()

    def test_rmse_stats_hold_one_copy_of_the_valid_values(self, rng):
        values = rng.random((256, 256))
        validity = rng.random(values.shape) < 0.9
        rmse = RmseMap(values, validity)
        tracemalloc.start()
        try:
            rmse.stats()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * np.count_nonzero(validity) * 8

    def test_rmse_zero_iff_reconstruction_fixed_point(self, rng):
        cmap, seg, image, aura = _table_inputs(rng)
        table = build_superpixel_table(cmap, seg, image, aura)
        recon = reconstruct(seg, table, image)
        rmse = rmse_map(image, recon)
        fixed_point = np.allclose(recon.samples, image.samples, atol=1e-15)
        assert ((rmse.values == 0).all()) == fixed_point

    def test_table_mismatch_rejected(self, rng):
        cmap, seg, image, aura = _table_inputs(rng)
        table = build_superpixel_table(cmap, seg, image, aura)
        short = SuperpixelTable(**{
            f.name: getattr(table, f.name)[..., :-1] for f in dataclasses.fields(table)
        })
        with pytest.raises(DataError):
            reconstruct(seg, short, image)
        with pytest.raises(DataError):  # one column shorter than the rest
            dataclasses.replace(table, perimeter=table.perimeter[:-1])

    def test_rmse_dimension_mismatch(self, rng):
        a = random_image(rng, 2, 4, 4)
        b = random_image(rng, 2, 5, 4)
        with pytest.raises(DimensionMismatchError):
            rmse_map(a, b)


#: Lengths around the pairwise tree's 8-wide blocks, its 128-value leaves,
#: numpy's 8 192-element buffer and odd splits far up the tree.
SUM_LENGTHS = [*range(1, 300), 1000, 4097, 8191, 8192, 8193, 65537, 100003, 300001,
               1048577, 4194304]


def _chunked(values, rng):
    """``values`` as consecutive views of random lengths, some empty."""
    cuts = np.sort(rng.integers(0, len(values) + 1, size=int(rng.integers(0, 12))))
    return np.split(values, cuts)


def _rmse_like(rng, n):
    values = rng.random(n) * 10.0 ** rng.uniform(-4, 1, n)
    values[rng.random(n) < 0.1] = 0.0  # single-pixel segments score exactly 0.0
    return values


class TestStripRmseStats:
    """The strip summary's bits rest on numpy's pairwise summation tree.

    If numpy changes that tree, these tests fail: ``_tree_sum`` must then
    follow the new tree, or ``segment`` reports other RMSE bits than
    ``RmseMap.stats``.
    """

    @pytest.mark.parametrize("leaf", [128, 1000, 8192, 131072])
    def test_tree_sum_equals_add_reduce(self, rng, leaf):
        for n in [n for n in SUM_LENGTHS if n <= 300001]:
            values = _rmse_like(rng, n)
            got = _tree_sum(n, _chunked(values, rng), leaf)
            assert got.tobytes() == np.add.reduce(values).tobytes(), (n, leaf)

    def test_equals_rmse_map_stats_bit_for_bit(self, rng):
        for n in SUM_LENGTHS:
            values = _rmse_like(rng, n)
            want = RmseMap(values.copy(), np.ones(n, dtype=bool)).stats()
            got = strip_rmse_stats(n, _chunked(values, rng), _chunked(values, rng))
            assert np.array(dataclasses.astuple(got)).tobytes() == \
                np.array(dataclasses.astuple(want)).tobytes(), f"numpy's sum tree moved, n={n}"

    def test_valid_values_of_a_plane(self, rng):
        values = _rmse_like(rng, 37 * 23).reshape(37, 23)
        for validity in (rng.random(values.shape) < 0.6, np.zeros(values.shape, bool)):
            want = RmseMap(np.where(validity, values, 0.0), validity).stats()
            strips = [values[r0:r0 + 5][validity[r0:r0 + 5]] for r0 in range(0, 37, 5)]
            got = strip_rmse_stats(int(validity.sum()), iter(strips), iter(strips))
            assert np.array(dataclasses.astuple(got)).tobytes() == \
                np.array(dataclasses.astuple(want)).tobytes()
        assert dataclasses.astuple(want) == (0.0, 0.0, 0.0, 0.0)

    def test_runs_the_first_pass_to_its_end(self):
        seen = []

        def first():
            for chunk in ([2.0], [], [4.0], []):
                seen.append(chunk)
                yield np.array(chunk)

        stats = strip_rmse_stats(2, first(), iter([np.array([2.0, 4.0])]))
        assert len(seen) == 4
        assert dataclasses.astuple(stats) == (2.0, 4.0, 3.0, 1.0)

    @pytest.mark.parametrize("count, message", [(3, "fewer"), (1, "1 more")])
    def test_other_count_refused(self, count, message):
        with pytest.raises(DataError, match=message):
            strip_rmse_stats(count, iter([np.array([1.0]), np.array([2.0])]), iter([]))
