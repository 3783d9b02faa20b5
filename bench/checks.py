"""Output checks for each pipeline step; a failed check is a failed operation.

Each ``check_*`` function returns a list of problems (empty when the
output is right).  The checks read the files the CLI wrote with their own
parsers and recompute what they compare against; classify labels are
compared with the hand-written SPECL oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np

import scenes

CLASSIFY_SAMPLES = 20_000


def load_oracle(root: Path):
    """``specl_reference`` from the repository's test oracles."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("specmap_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.specl_reference


def read_header(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def read_plane(header_path: Path, dtype: str) -> tuple[dict, np.ndarray]:
    """Header and (height, width) payload of a one-band raster."""
    header = read_header(header_path)
    height, width = int(header["height"]), int(header["width"])
    data = np.fromfile(scenes.payload_path(header_path), dtype=dtype)
    return header, data.reshape(height, width)


def read_scene_raw(header_path: Path) -> np.ndarray:
    header = read_header(header_path)
    shape = (int(header["bands"]), int(header["height"]), int(header["width"]))
    return np.fromfile(scenes.payload_path(header_path), dtype="<u2").reshape(shape)


def check_classify(colors: Path, scene: Path, seed: int, oracle) -> list[str]:
    problems = []
    header, labels = read_plane(colors, "<u2")
    if header.get("maptype") != "categorical":
        problems.append("classify: output is not a categorical map")
    raw = read_scene_raw(scene)
    nodata = raw[0] == 0
    if labels.shape != nodata.shape:
        return problems + [f"classify: map shape {labels.shape} != scene {nodata.shape}"]
    if (labels[nodata] != 0).any():
        problems.append("classify: a nodata pixel has a nonzero label")
    if (labels[~nodata] == 0).any():
        problems.append("classify: a valid pixel has label 0")
    rng = np.random.default_rng([seed, 20])
    flat = rng.choice(labels.size, size=min(CLASSIFY_SAMPLES, labels.size),
                      replace=False)
    rows, cols = np.unravel_index(flat, labels.shape)
    values = np.clip(raw[:, rows, cols].astype(np.float64) * scenes.GAIN, 0.0, 1.0)
    wrong = 0
    for k in range(flat.size):
        expected = 0 if nodata[rows[k], cols[k]] else oracle(tuple(values[:, k]))
        wrong += int(labels[rows[k], cols[k]]) != expected
    if wrong:
        problems.append(f"classify: {wrong} of {flat.size} sampled labels differ "
                        "from the SPECL oracle")
    return problems


def check_segment(prefix: Path) -> list[str]:
    problems = []
    header, ids = read_plane(Path(f"{prefix}.seg.hdr"), "<u4")
    segments = int(header["segments"])
    csv_path = Path(f"{prefix}.superpixels.csv")
    with open(csv_path, "rb") as f:
        f.readline()
        body = f.read()
    table = np.loadtxt(body.splitlines(), delimiter=",", usecols=(0, 2),
                       dtype=np.int64, ndmin=2)
    if table.shape[0] != segments:
        problems.append(f"segment: header says {segments} segments, CSV has "
                        f"{table.shape[0]} rows")
    if not np.array_equal(table[:, 0], np.arange(1, table.shape[0] + 1)):
        problems.append("segment: CSV segment ids are not 1..n in order")
    counts = np.bincount(ids.ravel(), minlength=segments + 1)
    if int(ids.max(initial=0)) != segments or (counts[1:] == 0).any():
        problems.append("segment: segmentation ids are not dense 1..segments")
    nonzero = int(np.count_nonzero(ids))
    if int(table[:, 1].sum()) != nonzero:
        problems.append(f"segment: pixel_count sums to {int(table[:, 1].sum())}, "
                        f"segmentation has {nonzero} nonzero pixels")
    return problems


def read_matrix(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = [row for row in csv.reader(f) if row]
    values = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    return [row[0] for row in rows[1:]], rows[0][1:], values


def cvpai2(matrix: np.ndarray) -> float:
    """CVPAI2 of a binary relation, written out from its definition."""
    tc, rc = matrix.shape
    covered = sum(1.0 for c in range(rc) if matrix[:, c].sum() > 0)
    spread = rc / 3.0
    rows = 0.0
    for t in range(tc):
        s = matrix[t].sum()
        if s > 0:
            rows += math.exp(-((s - 1.0) ** 2) / (2.0 * spread * spread))
    return (covered + rows) / (rc + tc)


def check_compare(out_dir: Path, colors: Path, reference: Path) -> list[str]:
    problems = []
    _, test = read_plane(colors, "<u2")
    _, ref = read_plane(reference, "<u2")
    both = int(np.count_nonzero((test != 0) & (ref != 0)))
    _, _, counts = read_matrix(out_dir / "contingency.csv")
    if int(counts.sum()) != both:
        problems.append(f"compare: contingency total {int(counts.sum())} != "
                        f"{both} pixels valid in both maps")
    _, _, relation = read_matrix(out_dir / "step8_final.csv")
    reported = json.loads((out_dir / "report.json").read_text())["cvpai2"]
    expected = cvpai2(relation)
    if not 0.0 <= reported <= 1.0:
        problems.append(f"compare: CVPAI2 {reported} outside [0, 1]")
    if not math.isclose(reported, expected, rel_tol=1e-12, abs_tol=1e-15):
        problems.append(f"compare: reported CVPAI2 {reported} != {expected} "
                        "recomputed from step8_final.csv")
    return problems


def check_evidence(scores: Path, vectors: Path, relation_csv: Path) -> list[str]:
    test_names, ref_names, relation = read_matrix(relation_csv)
    gate = {(t, r): relation[i, j] for i, t in enumerate(test_names)
            for j, r in enumerate(ref_names)}
    color, member = {}, {}
    with open(vectors, newline="", encoding="utf-8") as f:
        rows = csv.reader(f)
        next(rows)
        for vid, color_name, class_name, shape, texture, spatial in rows:
            color[vid] = color_name
            member[vid, class_name] = min(float(shape), float(texture), float(spatial))
    count = over = wrong = 0
    with open(scores, newline="", encoding="utf-8") as f:
        rows = csv.reader(f)
        next(rows)
        for vid, class_name, text in rows:
            count += 1
            g = gate[color[vid], class_name]
            score = float(text)
            over += score > g
            wrong += score != min(g, member[vid, class_name])
    problems = []
    expected = len(color) * len(ref_names)
    if count != expected:
        problems.append(f"evidence: {count} score rows, expected {expected}")
    if over:
        problems.append(f"evidence: {over} scores exceed their relation gate")
    if wrong:
        problems.append(f"evidence: {wrong} scores differ from the fuzzy-AND")
    return problems


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file under ``out_dir``, keyed by relative path."""
    out = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
        out[path.relative_to(out_dir).as_posix()] = h.hexdigest()
    return out
