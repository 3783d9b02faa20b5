import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmap.compare import (
    ContingencyTable,
    LegendAggregation,
    LegendRelation,
    MappingRow,
    Override,
    apply_overrides,
    build_contingency,
    build_translation,
    cvpai2,
    harmonize,
    read_aggregation,
    read_contingency_csv,
    read_legend_mapping,
    read_overrides_csv,
    read_relation_csv,
    read_resolution,
    translate_legend,
    write_contingency_csv,
    write_relation_csv,
)
from specmap.errors import (
    AmbiguousMappingError,
    ConfigError,
    DataError,
    DimensionMismatchError,
    FormatError,
    MappingError,
)
from specmap.raster import CategoricalMap, LegendEntry, open_map, read_map, write_map

from helpers import legend, random_map
from oracles import tally_contingency

TEST_NAMES = ("Vegetation", "Cloud", "Unknowns")
REF_NAMES = ("EvergreenF", "DeciduousF", "Others")
EXAMPLE_COUNTS = np.array([[10, 30, 60], [2, 0, 10], [0, 5, 100]])


def example_table():
    return ContingencyTable(TEST_NAMES, REF_NAMES, EXAMPLE_COUNTS)


class TestContingency:
    def test_identical_maps_diagonal(self, rng):
        cmap = random_map(rng, 8, 8, 2)
        table = build_contingency(cmap, cmap)
        off_diagonal = table.counts[~np.eye(2, dtype=bool)]
        assert (off_diagonal == 0).all()
        assert table.total == 64

    @pytest.mark.parametrize("side", ["test", "reference"])
    def test_repeated_name_refused(self, side):
        names = ("Water", "Forest", "Water")
        other = ("a", "b")
        args = (names, other, np.zeros((3, 2))) if side == "test" \
            else (other, names, np.zeros((2, 3)))
        with pytest.raises(DataError, match=f"repeated {side} name 'Water'"):
            ContingencyTable(*args)

    def test_legend_with_a_repeated_name_refused(self):
        water = (LegendEntry(1, "Water", (0, 0, 0)), LegendEntry(2, "Water", (0, 0, 9)))
        a = CategoricalMap(np.array([[1, 2]]), water)
        b = CategoricalMap(np.array([[1, 1]]), legend(1))
        with pytest.raises(DataError, match="repeated test name 'Water'"):
            build_contingency(a, b)

    def test_constant_maps_single_cell(self):
        a = CategoricalMap(np.full((4, 4), 2, dtype=np.int32), legend(3))
        b = CategoricalMap(np.full((4, 4), 1, dtype=np.int32), legend(2))
        table = build_contingency(a, b)
        assert table.counts[1, 0] == 16
        assert table.total == 16

    def test_tally_oracle(self, rng):
        a = random_map(rng, 16, 16, 4, nodata_fraction=0.1)
        b = random_map(rng, 16, 16, 3, nodata_fraction=0.1)
        table = build_contingency(a, b)
        expected = tally_contingency(
            a.labels, b.labels, [e.label for e in a.legend],
            [e.label for e in b.legend],
        )
        assert np.array_equal(table.counts, expected)

    def test_transpose_symmetry(self, rng):
        a = random_map(rng, 10, 10, 4)
        b = random_map(rng, 10, 10, 5)
        assert np.array_equal(
            build_contingency(a, b).counts, build_contingency(b, a).counts.T
        )

    def test_dimension_mismatch(self, rng):
        a = random_map(rng, 4, 4, 2)
        b = random_map(rng, 5, 4, 2)
        with pytest.raises(DimensionMismatchError):
            build_contingency(a, b)

    def test_negative_label_never_reaches_the_tally(self):
        # a legend label of -1 would index the lookup tables from their end
        ref = CategoricalMap(np.ones((1, 2), dtype=np.int32), legend(1))
        with pytest.raises(DataError, match="-1"):
            test = CategoricalMap(
                np.array([[-1, 2]]), (LegendEntry(-1, "neg", (0, 0, 0)),) + legend(2)[1:]
            )
            build_contingency(test, ref)

    def test_empty_overlap_rejected(self):
        a = CategoricalMap(np.zeros((3, 3), dtype=np.int32), legend(2))
        b = CategoricalMap(np.ones((3, 3), dtype=np.int32), legend(2))
        with pytest.raises(DataError):
            build_contingency(a, b)


class TestStripFold:
    """``build_contingency`` over map sources read strip by strip."""

    def _write(self, tmp_path, rng):
        a = random_map(rng, 23, 7, 4, nodata_fraction=0.1)
        b = random_map(rng, 23, 7, 3, nodata_fraction=0.1)
        write_map(a, tmp_path / "a.hdr")
        write_map(b, tmp_path / "b.hdr")
        return a, b

    def test_every_strip_height_gives_the_whole_map_table(self, tmp_path, rng):
        a, b = self._write(tmp_path, rng)
        expected = tally_contingency(a.labels, b.labels, [e.label for e in a.legend],
                                     [e.label for e in b.legend])
        for strip_height in (1, 2, 5, 23, 100, None):
            for test, ref in ((a, b), (open_map(tmp_path / "a.hdr"), b),
                              (open_map(tmp_path / "a.hdr"), open_map(tmp_path / "b.hdr"))):
                table = build_contingency(test, ref, strip_height)
                assert np.array_equal(table.counts, expected)
                assert table.test_names == tuple(e.name for e in a.legend)

    def test_translated_source_relabels_each_strip(self, tmp_path, rng):
        a, _ = self._write(tmp_path, rng)
        agg = LegendAggregation({1: 2, 2: 1, 3: 2, 4: 1}, legend(2))
        whole = translate_legend(a, agg)
        source = translate_legend(open_map(tmp_path / "a.hdr"), agg)
        assert not isinstance(source, CategoricalMap)
        assert source.legend == whole.legend
        rows = [source.rows(r0, min(r0 + 5, 23)) for r0 in range(0, 23, 5)]
        assert np.array_equal(np.concatenate(rows), whole.labels)

    def test_unlisted_label_above_every_lut_child_is_data_error(self, tmp_path):
        labels = np.array([[1, 2], [60000, 1]])
        write_map(CategoricalMap(labels, legend(2) + (LegendEntry(60000, "x", (0, 0, 0)),)),
                  tmp_path / "m.hdr")
        text = (tmp_path / "m.hdr").read_text()
        (tmp_path / "m.hdr").write_text(
            "".join(line for line in text.splitlines(True) if "60000" not in line))
        agg = LegendAggregation({1: 1, 2: 1}, legend(1))
        ref = CategoricalMap(np.ones((2, 2), dtype=np.uint16), legend(1))
        for strip_height in (1, None):
            source = translate_legend(open_map(tmp_path / "m.hdr"), agg)
            with pytest.raises(DataError, match=r"missing from legend: \[60000\]"):
                build_contingency(source, ref, strip_height)
        with pytest.raises(DataError, match=r"missing from legend: \[60000\]"):
            read_map(tmp_path / "m.hdr")

    def test_parent_legend_checked_for_a_source_too(self, tmp_path, rng):
        self._write(tmp_path, rng)
        agg = LegendAggregation({1: 70000, 2: 1, 3: 1, 4: 1},
                                legend(1) + (LegendEntry(70000, "x", (0, 0, 0)),))
        for cmap in (read_map(tmp_path / "a.hdr"), open_map(tmp_path / "a.hdr")):
            with pytest.raises(DataError, match=r"legend labels outside 1\.\.65535: \[70000\]"):
                translate_legend(cmap, agg)


class TestHarmonize:
    def test_worked_example_step2(self):
        trace = harmonize(example_table(), 0.09, 0.06)
        printed = np.array([
            [0.046082949, 0.138248848, 0.276498],
            [0.00921659, 0.0, 0.046083],
            [0.0, 0.023041475, 0.460829],
        ])
        assert np.abs(trace.joint - printed).max() <= 1e-6
        assert trace.joint.sum() == pytest.approx(1.0, abs=1e-12)

    def test_worked_example_step3(self):
        trace = harmonize(example_table(), 0.09, 0.06)
        printed = np.array([
            [0.1, 0.3, 0.6],
            [0.166666667, 0.0, 0.833333],
            [0.0, 0.047619048, 0.952381],
        ])
        assert np.abs(trace.ref_given_test - printed).max() <= 1e-6

    def test_worked_example_step5(self):
        trace = harmonize(example_table(), 0.09, 0.06)
        printed = np.array([
            [0.833333333, 0.857142857, 0.352941],
            [0.166666667, 0.0, 0.058824],
            [0.0, 0.142857143, 0.588235],
        ])
        assert np.abs(trace.test_given_ref - printed).max() <= 1e-6
        assert np.allclose(trace.test_given_ref.sum(axis=0), 1.0)

    def test_worked_example_binary_steps(self):
        trace = harmonize(example_table(), 0.09, 0.06)
        assert trace.kept_by_row.tolist() == [[1, 1, 1], [1, 0, 1], [0, 0, 1]]
        assert trace.kept_by_col.tolist() == [[1, 1, 1], [1, 0, 0], [0, 1, 1]]
        assert trace.temporary.tolist() == [[1, 1, 1], [1, 0, 1], [0, 1, 1]]

    def test_threshold_is_inclusive(self):
        # the 0.1 cell survives TH1 = 0.09 and also exactly TH1 = 0.1
        trace = harmonize(example_table(), 0.1, 0.06)
        assert trace.kept_by_row[0, 0] == 1

    def test_degenerate_thresholds_zero(self):
        trace = harmonize(example_table(), 0.0, 0.0)
        positive = (EXAMPLE_COUNTS > 0)
        # with zero thresholds every cell survives, including zero-count
        # cells, because 0 >= 0
        assert (trace.temporary == 1).all()
        assert positive.all() == False  # sanity: zeros exist in the example

    def test_strict_thresholds_keep_only_certain_cells(self):
        table = ContingencyTable(("a", "b"), ("x", "y"),
                                 np.array([[5, 0], [2, 2]]))
        trace = harmonize(table, 1.0, 1.0)
        # only cells with conditional probability exactly 1 survive
        assert trace.kept_by_row.tolist() == [[1, 0], [0, 0]]
        assert trace.kept_by_col.tolist() == [[0, 0], [0, 1]]

    def test_zero_marginals_yield_zero_rows(self):
        table = ContingencyTable(("a", "b"), ("x", "y"),
                                 np.array([[0, 0], [1, 3]]))
        trace = harmonize(table, 0.5, 0.5)
        assert (trace.ref_given_test[0] == 0).all()
        assert np.isfinite(trace.test_given_ref).all()

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ConfigError):
            harmonize(example_table(), 0.05, 0.06)
        with pytest.raises(ConfigError):
            harmonize(example_table(), 1.5, 0.0)

    def test_empty_table_rejected(self):
        table = ContingencyTable(("a",), ("x",), np.array([[0]]))
        with pytest.raises(DataError):
            harmonize(table, 0.5, 0.5)

    @given(
        seed=st.integers(0, 10_000),
        th=st.tuples(st.floats(0, 1), st.floats(0, 1)),
    )
    @settings(max_examples=60, deadline=None)
    def test_joint_sums_to_one_and_monotonicity(self, seed, th):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 40, (3, 4))
        if counts.sum() == 0:
            counts[0, 0] = 1
        table = ContingencyTable(("a", "b", "c"), ("w", "x", "y", "z"), counts)
        lo, hi = sorted(th)
        trace_lo = harmonize(table, lo, lo)
        trace_hi = harmonize(table, hi, hi)
        assert trace_lo.joint.sum() == pytest.approx(1.0, abs=1e-12)
        # raising a threshold never adds a surviving cell
        assert (trace_hi.kept_by_row <= trace_lo.kept_by_row).all()
        assert (trace_hi.kept_by_col <= trace_lo.kept_by_col).all()
        assert (trace_hi.temporary <= trace_lo.temporary).all()


WORKED_OVERRIDES = [
    Override("Cloud", "EvergreenF", 0, "clouds are not evergreen forest"),
    Override("Unknowns", "DeciduousF", 0, "unknowns carry no forest meaning"),
]


class TestOverrides:
    def test_worked_example_final(self):
        trace = harmonize(example_table(), 0.09, 0.06)
        rel = apply_overrides(trace, WORKED_OVERRIDES)
        assert rel.matrix.tolist() == [[1, 1, 1], [0, 0, 1], [0, 0, 1]]
        assert len(rel.audit) == 2
        assert rel.audit[0].note

    def test_empty_overrides_identity(self):
        trace = harmonize(example_table(), 0.09, 0.06)
        rel = apply_overrides(trace, [])
        assert np.array_equal(rel.matrix, trace.temporary)

    def test_overrides_return_the_relation_and_leave_the_trace(self):
        trace = harmonize(example_table(), 0.09, 0.06)
        steps = {f.name: getattr(trace, f.name).copy() for f in dataclasses.fields(trace)
                 if isinstance(getattr(trace, f.name), np.ndarray)}
        rel = apply_overrides(trace, WORKED_OVERRIDES)
        assert isinstance(rel, LegendRelation)
        assert rel.matrix.tolist() == [[1, 1, 1], [0, 0, 1], [0, 0, 1]]
        assert len(steps) == 6 and not hasattr(trace, "final")
        for name, matrix in steps.items():
            assert np.array_equal(getattr(trace, name), matrix), name
            assert getattr(trace, name).dtype == matrix.dtype, name

    def test_override_to_current_value_logged(self):
        trace = harmonize(example_table(), 0.09, 0.06)
        keep = Override("Vegetation", "Others", 1, "confirmed by inspection")
        rel = apply_overrides(trace, [keep])
        assert np.array_equal(rel.matrix, trace.temporary)
        assert rel.audit == (keep,)

    def test_duplicate_override_rejected(self):
        trace = harmonize(example_table(), 0.09, 0.06)
        ov = Override("Cloud", "Others", 0, "x")
        with pytest.raises(MappingError):
            apply_overrides(trace, [ov, ov])

    def test_unknown_labels_rejected(self):
        trace = harmonize(example_table(), 0.09, 0.06)
        with pytest.raises(MappingError):
            apply_overrides(trace, [Override("Fog", "Others", 0, "x")])
        with pytest.raises(MappingError):
            apply_overrides(trace, [Override("Cloud", "Sea", 0, "x")])

    def test_note_is_mandatory(self):
        with pytest.raises(ConfigError):
            Override("Cloud", "Others", 0, "   ")

    def test_value_must_be_binary(self):
        with pytest.raises(ConfigError):
            Override("Cloud", "Others", 2, "x")


def worked_relation():
    trace = harmonize(example_table(), 0.09, 0.06)
    return apply_overrides(trace, WORKED_OVERRIDES)


class TestCvpai2:
    def test_worked_example_value(self):
        value = cvpai2(worked_relation())
        assert value == pytest.approx(0.8558, abs=5e-4)
        assert value == pytest.approx((5 + math.exp(-2)) / 6, abs=1e-12)

    def test_zero_relation_scores_zero(self):
        rel = LegendRelation(TEST_NAMES, REF_NAMES, np.zeros((3, 3), dtype=np.int8))
        assert cvpai2(rel) == 0.0

    def test_identity_relation_scores_one(self):
        rel = LegendRelation(TEST_NAMES, REF_NAMES, np.eye(3, dtype=np.int8))
        assert cvpai2(rel) == 1.0

    def test_single_cell_relations_follow_formulas(self):
        assert cvpai2(LegendRelation(("a",), ("x",), np.array([[1]]))) == 1.0
        assert cvpai2(LegendRelation(("a",), ("x",), np.array([[0]]))) == 0.0

    def test_one_to_many_reference_fanout_still_one(self):
        # several test classes onto one reference class: rows stay unit,
        # columns stay covered, so the index stays maximal
        rel = LegendRelation(
            ("t1", "t2", "t3", "t4"), ("r1", "r2"),
            np.array([[1, 0], [1, 0], [0, 1], [0, 1]]),
        )
        assert cvpai2(rel) == 1.0

    def test_row_fanout_penalized_by_gaussian(self):
        rel = LegendRelation(
            ("t1", "t2"), ("r1", "r2"), np.array([[1, 1], [0, 1]])
        )
        value = cvpai2(rel)
        assert value < 1.0
        expected = (2 + 1 + math.exp(-1 / (2 * (2 / 3) ** 2))) / 4
        assert value == pytest.approx(expected, abs=1e-12)

    def test_square_injective_functions_score_one(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 9))
            perm = rng.permutation(n)
            matrix = np.zeros((n, n), dtype=np.int8)
            matrix[np.arange(n), perm] = 1
            rel = LegendRelation(
                tuple(f"t{i}" for i in range(n)),
                tuple(f"r{i}" for i in range(n)),
                matrix,
            )
            assert cvpai2(rel) == 1.0

    def test_permutation_invariance(self, rng):
        for _ in range(50):
            tc = int(rng.integers(1, 7))
            rc = int(rng.integers(1, 7))
            matrix = (rng.random((tc, rc)) < 0.4).astype(np.int8)
            rel = LegendRelation(
                tuple(f"t{i}" for i in range(tc)),
                tuple(f"r{i}" for i in range(rc)),
                matrix,
            )
            rp = rng.permutation(tc)
            cp = rng.permutation(rc)
            permuted = LegendRelation(
                tuple(f"t{i}" for i in rp),
                tuple(f"r{i}" for i in cp),
                matrix[np.ix_(rp, cp)],
            )
            assert cvpai2(permuted) == pytest.approx(cvpai2(rel), abs=1e-15)

    def test_output_in_unit_interval(self, rng):
        for _ in range(200):
            tc = int(rng.integers(1, 9))
            rc = int(rng.integers(1, 9))
            matrix = (rng.random((tc, rc)) < rng.random()).astype(np.int8)
            rel = LegendRelation(
                tuple(f"t{i}" for i in range(tc)),
                tuple(f"r{i}" for i in range(rc)),
                matrix,
            )
            assert 0.0 <= cvpai2(rel) <= 1.0

    def test_non_binary_matrix_rejected(self):
        with pytest.raises(DataError):
            LegendRelation(("a",), ("x",), np.array([[2]]))

    @pytest.mark.parametrize("side", ["test", "reference"])
    def test_repeated_name_refused(self, side):
        # Accepted, ("green", "green") let ``evidence.combine`` read the
        # first row and ``evidence.score_table`` the last.
        names, other = ("green", "green"), ("forest", "water")
        args = (names, other) if side == "test" else (other, names)
        with pytest.raises(DataError, match=f"repeated {side} name 'green'"):
            LegendRelation(*args, np.eye(2))


class TestTranslateLegend:
    def _nlcd_rows(self):
        from importlib.resources import files

        return read_legend_mapping(
            files("specmap").joinpath("data/nlcd_to_lccsdp.csv")
        )

    def test_ambiguous_codes_refused_without_resolution(self):
        with pytest.raises(AmbiguousMappingError) as err:
            build_translation(self._nlcd_rows())
        assert set(err.value.codes) == {21, 22, 23, 24, 51, 52, 71, 72, 73, 74}

    def test_unambiguous_codes_map_as_printed(self):
        from importlib.resources import files

        resolution = read_resolution(
            files("specmap").joinpath("data/nlcd_resolution_first_listed.csv")
        )
        translation = build_translation(self._nlcd_rows(), resolution)
        names = {e.label: e.name for e in translation.parent_legend}
        printed = {
            11: "B4", 12: "B4", 31: "B3", 41: "A1", 42: "A1", 43: "A1",
            81: "A1", 82: "A1", 90: "A2", 95: "A2",
        }
        for code, prefix in printed.items():
            assert names[translation.mapping[code]].startswith(prefix)

    def test_resolution_must_pick_a_candidate(self):
        rows = self._nlcd_rows()
        resolution = {c: 2 for c in (21, 22, 23, 24, 51, 52, 71, 72, 73, 74)}
        with pytest.raises(MappingError):
            build_translation(rows, resolution)

    def test_identity_translation(self, rng):
        cmap = random_map(rng, 6, 6, 3)
        agg = LegendAggregation({1: 1, 2: 2, 3: 3}, cmap.legend)
        out = translate_legend(cmap, agg)
        assert np.array_equal(out.labels, cmap.labels)

    def test_constant_collapse(self, rng):
        cmap = random_map(rng, 8, 8, 4)
        agg = LegendAggregation({i: 1 for i in range(1, 5)}, legend(1))
        out = translate_legend(cmap, agg)
        assert (out.labels == 1).all()

    def test_lookup_oracle(self, rng):
        cmap = random_map(rng, 12, 12, 5, nodata_fraction=0.1)
        mapping = {i: int(rng.integers(1, 4)) for i in range(1, 6)}
        agg = LegendAggregation(mapping, legend(3))
        out = translate_legend(cmap, agg)
        for r in range(12):
            for c in range(12):
                child = int(cmap.labels[r, c])
                assert out.labels[r, c] == (0 if child == 0 else mapping[child])

    def test_unmapped_label_rejected(self, rng):
        cmap = random_map(rng, 4, 4, 3)
        agg = LegendAggregation({1: 1, 2: 1}, legend(1))
        with pytest.raises(MappingError):
            translate_legend(cmap, agg)

    def test_legend_entry_without_pixels_still_needs_a_parent(self):
        cmap = CategoricalMap(np.array([[1, 2], [2, 0]]), legend(3))
        agg = LegendAggregation({1: 1, 2: 1}, legend(1))
        with pytest.raises(MappingError, match=r"\[3\]"):
            translate_legend(cmap, agg)

    def test_children_outside_the_legend_are_ignored(self):
        cmap = CategoricalMap(np.array([[1, 2]]), legend(2))
        agg = LegendAggregation({1: 1, 2: 2, -1: 1}, legend(2))
        assert translate_legend(cmap, agg).labels.tolist() == [[1, 2]]

    def test_mapping_target_outside_parent_legend_rejected(self):
        with pytest.raises(ConfigError):
            LegendAggregation({1: 1, 2: 3}, legend(2))

    def test_parent_label_with_two_names_rejected(self):
        rows = [MappingRow(1, "a", 1, "Forest"), MappingRow(2, "b", 1, "Woods")]
        with pytest.raises(MappingError, match="Forest"):
            build_translation(rows)

    def test_read_aggregation_csv(self, tmp_path):
        p = tmp_path / "agg.csv"
        p.write_text("child_label,parent_label\n1,1\n2,1\n3,2\n")
        agg = read_aggregation(p)
        assert agg.mapping == {1: 1, 2: 1, 3: 2}
        assert [e.label for e in agg.parent_legend] == [1, 2]

    @pytest.mark.parametrize("reader", [read_resolution, read_aggregation])
    def test_repeated_child_rejected(self, tmp_path, reader):
        p = tmp_path / "res.csv"
        p.write_text("child_label,parent_label\n1,1\n2,1\n1,2\n")
        with pytest.raises(FormatError, match="line 4"):
            reader(p)


#: (reader, header, one good row, an integer column) for each row reader.
ROW_READERS = [
    (read_resolution, ["child_label", "parent_label"], ["1", "2"], "parent_label"),
    (read_aggregation, ["child_label", "parent_label"], ["1", "2"], "child_label"),
    (read_legend_mapping, ["child_label", "child_name", "parent_label", "parent_name"],
     ["1", "a", "2", "b"], "child_label"),
    (read_overrides_csv, ["test_label", "reference_label", "value", "note"],
     ["t", "r", "1", "why"], "value"),
]


@pytest.mark.parametrize("fault", ["short", "long", "not_integer"])
@pytest.mark.parametrize("reader, header, good, int_column", ROW_READERS,
                         ids=[r[0].__name__ for r in ROW_READERS])
def test_malformed_row_is_format_error_naming_line(tmp_path, reader, header, good,
                                                   int_column, fault):
    bad = list(good)
    if fault == "short":
        bad.pop()
    elif fault == "long":
        bad.append("extra")
    else:
        bad[header.index(int_column)] = "1.5"
    p = tmp_path / "in.csv"
    p.write_text("\n".join(",".join(r) for r in (header, good, bad)) + "\n")
    with pytest.raises(FormatError, match=r"in\.csv: line 3"):
        reader(p)


@pytest.mark.parametrize("fault", ["not_utf8", "oversized_field", "repeated_column"])
@pytest.mark.parametrize("reader, header, good, int_column", ROW_READERS,
                         ids=[r[0].__name__ for r in ROW_READERS])
def test_csv_rule_breach_is_format_error_naming_line(tmp_path, reader, header, good,
                                                     int_column, fault):
    header, good = list(header), list(good)
    if fault == "repeated_column":
        header.append(int_column)
        good.append("0")
    elif fault == "oversized_field":
        good[0] = "a" * (128 * 1024 + 1)
    text = "\n".join(",".join(r) for r in (header, good)) + "\n"
    p = tmp_path / "in.csv"
    p.write_bytes(text.encode("utf-8") + (b"\xff\n" if fault == "not_utf8" else b""))
    message = {
        "not_utf8": r"in\.csv: line 3: not UTF-8 text",
        "oversized_field": r"in\.csv: line 2: field larger than field limit",
        "repeated_column": rf"in\.csv: line 1: header names '{int_column}' 2 times",
    }[fault]
    with pytest.raises(FormatError, match=message):
        reader(p)


@pytest.mark.parametrize("reader, header, good, int_column", ROW_READERS,
                         ids=[r[0].__name__ for r in ROW_READERS])
def test_blank_lines_before_the_header_are_skipped(tmp_path, reader, header, good,
                                                   int_column):
    plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
    plain.write_text(",".join(header) + "\n" + ",".join(good) + "\n")
    blank.write_text("\n\n" + ",".join(header) + "\n\n" + ",".join(good) + "\n\n")
    assert reader(blank) == reader(plain)


@pytest.mark.parametrize("reader, header, good, int_column", ROW_READERS,
                         ids=[r[0].__name__ for r in ROW_READERS])
def test_csv_of_blank_lines_is_refused_for_its_missing_header(tmp_path, reader, header,
                                                              good, int_column):
    p = tmp_path / "in.csv"
    p.write_text("\n\r\n\n")
    with pytest.raises(FormatError) as err:
        reader(p)
    assert str(err.value) == f"{p}: no header line"


@pytest.mark.parametrize("text, line", [
    ("test_label,reference_label,value,note\nx,a,0,\"why\ny,b,1,because\n", 2),
    ("test_label,reference_label,value,note\nx,a,0,why\ny,b,1,\"because", 3),
    ("test_label,reference_label,value,note\n\nx,\"a\nb\",0,\"why\r\n\r\ny,b,1,no\n", 4),
    ("test_label,reference_label,value,\"note\nx,a,0,why\n", 1),
], ids=["swallows_later_lines", "last_line", "after_a_quoted_line_break", "header"])
def test_quote_open_at_the_end_is_refused_naming_its_line(tmp_path, text, line):
    # The csv module's default dialect used to end the field at the end of
    # the text, so an open quote swallowed every later line silently.
    p = tmp_path / "in.csv"
    p.write_bytes(text.encode("utf-8"))
    with pytest.raises(FormatError, match=rf"in\.csv: line {line}: quoted field is never "
                                          "closed"):
        read_overrides_csv(p)


def test_text_after_a_closing_quote_joins_the_field(tmp_path):
    p = tmp_path / "in.csv"
    p.write_text('test_label,reference_label,value,note\nx,a,0,"b"c\n"y",b,1,"d\ne"\n')
    assert [(o.test_label, o.note) for o in read_overrides_csv(p)] == [
        ("x", "bc"), ("y", "d\ne")]


class TestCsvIO:
    @pytest.mark.parametrize("text, fault", [
        (",a,b\nx,1,0\ny,0\n", "line 3: ragged"),
        (",a,b\nx,1,0\ny,0,1,1\n", "line 3: ragged"),
        (",a,b\nx,1,zero\n", "line 2: non-numeric"),
        (",a,b\nx,1,0\nx,0,1\n", "line 3: repeated test name 'x'"),
        (",a,a\nx,1,0\ny,0,1\n", "line 1: repeated reference names"),
    ])
    def test_malformed_matrix_rejected(self, tmp_path, text, fault):
        p = tmp_path / "m.csv"
        p.write_text(text)
        with pytest.raises(FormatError, match=fault):
            read_relation_csv(p)

    def test_contingency_round_trip(self, tmp_path):
        table = example_table()
        write_contingency_csv(tmp_path / "t.csv", table)
        back = read_contingency_csv(tmp_path / "t.csv")
        assert back.test_names == table.test_names
        assert back.ref_names == table.ref_names
        assert np.array_equal(back.counts, table.counts)

    def test_packaged_example_counts(self):
        from importlib.resources import files

        table = read_contingency_csv(
            files("specmap").joinpath("data/harmonization_example_counts.csv")
        )
        assert np.array_equal(table.counts, EXAMPLE_COUNTS)

    def test_relation_round_trip(self, tmp_path):
        rel = worked_relation()
        write_relation_csv(tmp_path / "r.csv", rel)
        back = read_relation_csv(tmp_path / "r.csv")
        assert np.array_equal(back.matrix, rel.matrix)

    def test_overrides_round_trip(self, tmp_path):
        p = tmp_path / "ov.csv"
        p.write_text(
            "test_label,reference_label,value,note\n"
            "Cloud,EvergreenF,0,clouds are not forest\n"
        )
        out = read_overrides_csv(p)
        assert out == [Override("Cloud", "EvergreenF", 0, "clouds are not forest")]

    def test_packaged_overrides_reproduce_worked_final(self):
        from importlib.resources import files

        overrides = read_overrides_csv(
            files("specmap").joinpath("data/harmonization_example_overrides.csv")
        )
        trace = harmonize(example_table(), 0.09, 0.06)
        rel = apply_overrides(trace, overrides)
        assert rel.matrix.tolist() == [[1, 1, 1], [0, 0, 1], [0, 0, 1]]
