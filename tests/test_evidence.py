import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmap.compare import LegendRelation
from specmap.errors import ConfigError, DataError, FormatError
from specmap.evidence import (
    EvidenceVector,
    combine,
    read_evidence_csv,
    score_table,
    write_scores_csv,
)


def relation():
    return LegendRelation(
        ("green", "white", "unknown"),
        ("forest", "water", "roof"),
        np.array([[1, 0, 0], [0, 0, 1], [1, 1, 1]], dtype=np.int8),
    )


def vector(color, shape, texture, spatial):
    return EvidenceVector(color, np.array(shape), np.array(texture), np.array(spatial))


class TestCombine:
    def test_barred_class_scores_zero_regardless(self):
        ev = vector("green", [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        scores = combine(ev, relation())
        assert scores.values.tolist() == [1.0, 0.0, 0.0]

    def test_all_ones_scores_one(self):
        ev = vector("unknown", [1, 1, 1], [1, 1, 1], [1, 1, 1])
        assert combine(ev, relation()).values.tolist() == [1.0, 1.0, 1.0]

    def test_min_arithmetic(self):
        ev = vector("green", [0.6, 1, 1], [0.9, 1, 1], [0.7, 1, 1])
        assert combine(ev, relation()).values[0] == pytest.approx(0.6)

    def test_unknown_color_rejected(self):
        ev = vector("purple", [1, 1, 1], [1, 1, 1], [1, 1, 1])
        with pytest.raises(ConfigError):
            combine(ev, relation())

    def test_membership_out_of_range_rejected(self):
        with pytest.raises(DataError):
            vector("green", [1.5, 0, 0], [1, 1, 1], [1, 1, 1])

    def test_nan_membership_rejected(self):
        with pytest.raises(DataError):
            vector("green", [1, 1, 1], [1, np.nan, 1], [1, 1, 1])

    def test_wrong_length_rejected(self):
        ev = vector("green", [1, 1], [1, 1], [1, 1])
        with pytest.raises(DataError):
            combine(ev, relation())

    _memberships = st.lists(
        st.floats(0, 1, allow_nan=False), min_size=3, max_size=3
    )

    @given(color=st.sampled_from(("green", "white", "unknown")),
           shape=_memberships, texture=_memberships, spatial=_memberships)
    @settings(max_examples=100, deadline=None)
    def test_selectivity_and_stratification(self, color, shape, texture, spatial):
        ev = vector(color, shape, texture, spatial)
        rel = relation()
        scores = combine(ev, rel).values
        assert (scores >= 0).all() and (scores <= 1).all()
        row = rel.matrix[rel.test_names.index(color)]
        for c in range(3):
            assert scores[c] <= shape[c]
            assert scores[c] <= texture[c]
            assert scores[c] <= spatial[c]
            if row[c] == 0:
                assert scores[c] == 0.0

    @given(shape=_memberships, texture=_memberships, spatial=_memberships,
           bump=st.floats(0, 1, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_monotonicity(self, shape, texture, spatial, bump):
        rel = relation()
        low = combine(vector("unknown", shape, texture, spatial), rel).values
        raised = np.minimum(1.0, np.asarray(shape) + bump)
        high = combine(vector("unknown", raised, texture, spatial), rel).values
        assert (high >= low).all()


class TestEvidenceCsv:
    def test_round_trip(self, tmp_path):
        rel = relation()
        p = tmp_path / "ev.csv"
        p.write_text(
            "id,color_name,class_name,shape,texture,spatial\n"
            "v1,green,forest,0.6,0.9,0.7\n"
            "v1,green,water,1.0,1.0,1.0\n"
            "v1,green,roof,1.0,1.0,1.0\n"
        )
        table = read_evidence_csv(p, rel)
        assert len(table) == 1
        out = tmp_path / "scores.csv"
        write_scores_csv(out, table.ids, rel.ref_names, score_table(table, rel))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "id,class_name,score"
        assert lines[1] == "v1,forest,0.6"

    def test_missing_class_rejected(self, tmp_path):
        p = tmp_path / "ev.csv"
        p.write_text(
            "id,color_name,class_name,shape,texture,spatial\n"
            "v1,green,forest,0.6,0.9,0.7\n"
        )
        with pytest.raises(DataError):
            read_evidence_csv(p, relation())


HEADER = "id,color_name,class_name,shape,texture,spatial\n"


def _reference_scores(vectors_path, rel, out_path):
    """scores.csv from per-vector ``EvidenceVector``s, a row-by-row fuzzy AND
    in ``np.minimum.reduce`` operand order, and ``csv.writer``."""
    groups, colors = {}, {}
    with open(vectors_path, newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            groups.setdefault(row["id"], {})[row["class_name"]] = (
                float(row["shape"]), float(row["texture"]), float(row["spatial"]))
            colors.setdefault(row["id"], row["color_name"])
    with open(out_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["id", "class_name", "score"])
        for vid, rows in groups.items():
            shape, texture, spatial = (
                [rows[c][k] for c in rel.ref_names] for k in range(3))
            ev = EvidenceVector(colors[vid], shape, texture, spatial)
            gate = rel.matrix[rel.test_names.index(ev.color_name)].astype(np.float64)
            values = np.minimum.reduce([gate, ev.shape, ev.texture, ev.spatial])
            for name, value in zip(rel.ref_names, values):
                writer.writerow([vid, name, repr(float(value))])


def _quoting_relation():
    return LegendRelation(
        ("green", "white, bright", 'say "grey"'),
        ("forest", "water, deep", 'roof "flat"', "multi\nline\rname"),
        np.array([[1, 0, 0, 1], [0, 1, 1, 0], [1, 1, 1, 1]], dtype=np.int8),
    )


def _write_vectors(path, rows):
    """Vectors CSV of ``(id, color, class, s, t, p)`` rows, after a ``note`` column."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["note"] + HEADER.strip().split(","))
        for vid, color, cls, *memberships in rows:
            writer.writerow([f"n{vid}", vid, color, cls]
                            + [repr(float(m)) for m in memberships])


def _shuffled_rows(rng, rel, ids):
    """One row per (id, class), rows of different ids interleaved at random."""
    rows = []
    for vid in ids:
        color = rel.test_names[rng.integers(len(rel.test_names))]
        for cls in rel.ref_names:
            pick = rng.integers(0, 4, 3)
            values = np.where(pick == 0, -0.0, np.where(pick == 1, 1.0, rng.random(3)))
            values[pick == 2] = 0.0
            rows.append((vid, color, cls, *values.tolist()))
    return [rows[i] for i in rng.permutation(len(rows))]


class TestScoresCsvReference:
    def _check(self, tmp_path, rel, rows):
        src = tmp_path / "ev.csv"
        _write_vectors(src, rows)
        table = read_evidence_csv(src, rel)
        write_scores_csv(tmp_path / "got.csv", table.ids, rel.ref_names,
                         score_table(table, rel))
        _reference_scores(src, rel, tmp_path / "want.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        return got

    def test_quoted_names_signed_zeros_and_barred_classes(self, rng, tmp_path):
        rel = _quoting_relation()
        ids = ["v1", "v,2", 'v"3"', "v\n4", "v\r5", "", " v6 "]
        got = self._check(tmp_path, rel, _shuffled_rows(rng, rel, ids))
        assert b'"water, deep"' in got and b'"roof ""flat"""' in got
        assert b'"v""3"""' in got and b"-0.0" in got
        # a barred class with all memberships 1.0 scores exactly zero
        rows = [("b", "green", c, 1.0, 1.0, 1.0) for c in rel.ref_names]
        got = self._check(tmp_path, rel, rows)
        assert got.split(b"\r\n")[2] == b'b,"water, deep",0.0'

    def test_random_table_of_thousands(self, rng, tmp_path):
        rel = LegendRelation(
            tuple(f"color{i}" for i in range(7)), tuple(f"class{j}" for j in range(5)),
            (rng.random((7, 5)) < 0.5).astype(np.int8))
        ids = [f"id{i}" for i in rng.permutation(3000)]
        self._check(tmp_path, rel, _shuffled_rows(rng, rel, ids))

    def test_empty_input_writes_header_only(self, tmp_path):
        rel = relation()
        got = self._check(tmp_path, rel, [])
        assert got == b"id,class_name,score\r\n"


class TestEvidenceInputFaults:
    GOOD = ("v1,green,forest,0.6,0.9,0.7\n"
            "v1,green,water,1.0,1.0,1.0\n"
            "v1,green,roof,1.0,1.0,1.0\n")

    def _read(self, tmp_path, text, header=HEADER):
        p = tmp_path / "ev.csv"
        p.write_text(header + text, encoding="utf-8")
        return read_evidence_csv(p, relation())

    @pytest.mark.parametrize("text, error, line", [
        ("v1,green,forest,0.6,0.9\n", FormatError, 2),                 # short row
        ("v1,green,forest,0.6,0.9,0.7,0.1\n", FormatError, 2),         # long row
        ("v1,green,forest,0.6,high,0.7\n", FormatError, 2),            # not a number
        ("v1,green,forest,0.2,0.9,0.7\n", DataError, 6),               # repeated class
        ("v1,green,shed,0.6,0.9,0.7\n", DataError, 6),                 # unknown class
        ("v1,green,barn,7,1,1\n", DataError, 6),                       # unknown class
        ("v2,white,forest,nan,1,1\n", DataError, 6),                   # NaN membership
        ("v2,white,forest,1,1,1.5\n", DataError, 6),                   # out of range
        ("v1,white,forest,0.6,0.9,0.7\n", DataError, 6),               # two colors
    ])
    def test_fault_names_its_line(self, tmp_path, text, error, line):
        faulty = text if line == 2 else self.GOOD + "\n" + text
        with pytest.raises(error, match=f"line {line}:"):
            self._read(tmp_path, faulty)

    def test_missing_column_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            self._read(tmp_path, "v1,green,forest,0.6,0.9\n",
                       header="id,color_name,class_name,shape,texture\n")

    def test_unknown_color_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            self._read(tmp_path, self.GOOD.replace("green", "purple"))

    def test_blank_lines_skipped_and_extra_columns_ignored(self, tmp_path):
        text = "".join(line.rstrip("\n") + ",x\n\n" for line in self.GOOD.splitlines())
        table = self._read(tmp_path, text, header=HEADER.rstrip("\n") + ",note\n")
        assert table.ids == ["v1"]
        assert table.shape.tolist() == [[0.6, 1.0, 1.0]]
