"""Command-line pipeline: classify, segment, compare, evidence.

Every run writes a ``*.manifest.json`` recording the exact configuration
plus content hashes of all inputs and outputs, enough to reproduce the run
bit for bit.  Each subcommand declares its files once, for both the
manifest and the check that a missing input exits with status 2 before
any processing starts; processing failures exit with status 1.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import click
import numpy as np

from . import __version__, raster
# ``classify``, ``read_map``, ``write_map``, ``connected_components``,
# ``cross_aura``, ``build_superpixel_table``, ``reconstruct``, ``rmse_map``,
# ``combine`` and the whole-plane writers ``write_segmentation``,
# ``write_aura`` and ``write_rmse`` are not called here; the benchmark's
# span tracer (bench/traced.py) wraps them by name in this module.
from .classify import PixelVisitCounter, classify, classify_streamed  # noqa: F401
from .compare import (
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
    relabel_table,
    translate_legend,
    write_contingency_csv,
    write_matrix_csv,
    write_relation_csv,
)
from .errors import SpecmapError
from .evidence import combine, read_evidence_csv, score_table, write_scores_csv  # noqa: F401
from .raster import (  # noqa: F401
    MAX_LABEL, map_writer, open_map, read_map, refuse_unlisted, write_map,
)
from .rules import parse_rules
from .segmentation import (  # noqa: F401
    build_superpixel_table,
    connected_components,
    cross_aura,
    describe_segments,
    reconstruct,
    rmse_map,
    write_aura,
    write_mean_view,
    write_rmse,
    write_segmentation,
    write_superpixel_csv,
)


@dataclass(frozen=True)
class _File:
    """A file a run reads or writes, or none when ``path`` is None.

    A raster stands for its header and the payload ``raster.payload_path``
    names, whatever the header's suffix.
    """

    what: str
    path: Path | None
    is_raster: bool = False

    def parts(self) -> list[tuple[str, Path]]:
        """(description, path) of each file on disk."""
        if self.path is None:
            return []
        if not self.is_raster:
            return [(self.what, self.path)]
        return [(f"{self.what} header", self.path),
                (f"{self.what} payload", raster.payload_path(self.path))]


def _parts(files: list[_File]) -> list[tuple[str, Path]]:
    return [part for f in files for part in f.parts()]


def _run(config: dict, inputs: list[_File], outputs: list[_File], manifest_path: Path,
         work: Callable[[], dict], as_json: bool,
         digests: dict[Path, str] | None = None) -> None:
    """Run a subcommand over the files it declares.

    A missing input exits 2 before any file or directory is touched.  Then
    the outputs' directories are made, the last run's manifest is removed
    and ``work`` runs; only then is the manifest of every declared file
    written and ``work``'s report printed.  If either fails, every declared
    output that is not also an input is removed; a ``SpecmapError`` or
    ``OSError`` (say, a full disk) exits 1 with its message.  ``work`` may
    fill ``digests`` with the SHA-256 of files it hashed as it wrote them.
    """
    for what, path in _parts(inputs):
        if not path.exists():
            _refuse(f"{what} not found: {path}")
    for directory in {path.parent for _, path in _parts(outputs)}:
        directory.mkdir(parents=True, exist_ok=True)
    manifest_path.unlink(missing_ok=True)
    try:
        report = work()
        _write_manifest(manifest_path, config, inputs, outputs, digests)
    except BaseException as exc:
        read = {path.resolve() for _, path in _parts(inputs)}
        for _, path in [*_parts(outputs), ("manifest", manifest_path)]:
            if path.resolve() not in read:
                path.unlink(missing_ok=True)
        if not isinstance(exc, (SpecmapError, OSError)):
            raise
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    _emit(report, as_json)


def _refuse(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(manifest_path: Path, config: dict, inputs: list[_File],
                    outputs: list[_File], digests: dict[Path, str] | None = None) -> None:
    """Write the manifest: every file's SHA-256, read back unless ``digests``
    already holds it."""
    known = digests or {}

    def hashed(files):
        return [{"path": str(p), "sha256": known.get(p) or _sha256(p)}
                for _, p in _parts(files)]

    manifest = {
        "tool": f"specmap {__version__}",
        "config": config,
        "inputs": hashed(inputs),
        "outputs": hashed(outputs),
    }
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        click.echo(json.dumps(report, indent=2))
    else:
        for key, value in report.items():
            click.echo(f"{key}: {value}")


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Spectral-rule color naming, segmentation and map comparison."""


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


@main.command("classify")
@click.option("--rules", "rules_path", required=True, type=click.Path(path_type=Path))
@click.option("--in", "input_path", required=True, type=click.Path(path_type=Path))
@click.option("--out", "output_path", required=True, type=click.Path(path_type=Path))
@click.option("--policy", type=click.Choice(["last-match", "first-match"]), default=None,
              help="Override the rule file's match policy.")
@click.option("--stream", "strip_height", type=click.IntRange(min=1), default=None,
              help="Rows per strip (default: about 131 072 pixels per strip). "
                   "Every run reads the image and writes the map one strip at a "
                   "time, so memory stays fixed whatever the image size.")
@click.option("--aggregate", "aggregate_path", type=click.Path(path_type=Path),
              default=None, help="child_label,parent_label CSV applied to each strip's labels.")
@click.option("--workers", type=click.IntRange(min=1), default=os.cpu_count() or 1,
              show_default=True, help="Threads labeling strips, in every run.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable report.")
def cmd_classify(rules_path, input_path, output_path, policy, strip_height,
                 aggregate_path, workers, as_json) -> None:
    """Apply an ordered rule set to a calibrated image."""
    def work() -> dict:
        ruleset = parse_rules(raster.read_text(rules_path))
        counter = PixelVisitCounter()
        source = raster.open_image(input_path)
        # The header carries the legend, so the aggregation is checked
        # before any strip is labelled.
        legend, lut = ruleset.legend(), None
        if aggregate_path is not None:
            aggregation = read_aggregation(aggregate_path)
            legend, lut = aggregation.parent_legend, relabel_table(legend, aggregation)
        counts = np.zeros(MAX_LABEL + 1, dtype=np.int64)

        def write(row0: int, rows: np.ndarray) -> None:
            if lut is not None:
                rows = lut[rows]
            hist = np.bincount(rows.ravel())
            counts[: hist.size] += hist
            writer.write(rows[np.newaxis])

        pixels = source.height * source.width
        with map_writer(output_path, legend, source.height, source.width) as writer:
            classify_streamed(source, ruleset, _strip_rows(strip_height, source.width),
                              policy=policy, counter=counter, workers=workers, sink=write)
            if counter.visits != pixels:
                raise SpecmapError(
                    f"one-pass contract violated: {counter.visits} visits "
                    f"for {pixels} pixels"
                )
            refuse_unlisted(counts, legend)
        return {
            "out": str(output_path),
            "pixels": pixels,
            "classes_present": int(np.count_nonzero(counts[1:])),
            "histogram": {int(v): int(counts[v]) for v in np.flatnonzero(counts)},
        }

    _run({"command": "classify", "rules": str(rules_path), "in": str(input_path),
          "out": str(output_path), "policy": policy, "stream": strip_height,
          "aggregate": _s(aggregate_path)},
         [_File("rule file", rules_path), _File("input image", input_path, is_raster=True),
          _File("aggregation file", aggregate_path)],
         [_File("output map", output_path, is_raster=True)],
         output_path.with_suffix(".manifest.json"), work, as_json)


# ---------------------------------------------------------------------------
# segment
# ---------------------------------------------------------------------------


@main.command("segment")
@click.option("--in", "map_path", required=True, type=click.Path(path_type=Path),
              help="Categorical map header.")
@click.option("--image", "image_path", required=True, type=click.Path(path_type=Path),
              help="Calibrated image the map was classified from.")
@click.option("--out-prefix", "out_prefix", required=True, type=click.Path(path_type=Path))
@click.option("--adjacency", type=click.Choice(["4", "8"]), default="8")
@click.option("--stream", "strip_height", type=click.IntRange(min=1), default=None,
              help="Rows per strip (default: about 131 072 pixels per strip). "
                   "The map and the image are each read twice, one strip at a "
                   "time, and every output is written a strip at a time, so "
                   "memory holds strips plus per-run labeling state and the "
                   "per-segment table, never a whole plane.")
@click.option("--json", "as_json", is_flag=True)
def cmd_segment(map_path, image_path, out_prefix, adjacency, strip_height, as_json):
    """Segment a categorical map and describe, rebuild and score it."""
    adjacency = int(adjacency)
    outputs = [
        _File("segmentation", Path(f"{out_prefix}.seg.hdr"), is_raster=True),
        _File("aura", Path(f"{out_prefix}.aura.hdr"), is_raster=True),
        _File("superpixels", Path(f"{out_prefix}.superpixels.csv")),
        _File("reconstruction", Path(f"{out_prefix}.recon.hdr"), is_raster=True),
        _File("rmse", Path(f"{out_prefix}.rmse.hdr"), is_raster=True),
    ]
    paths = {f.what: f.path for f in outputs}
    digests: dict[Path, str] = {}

    def work() -> dict:
        labels = open_map(map_path)
        source = raster.open_image(image_path)
        rows = _strip_rows(strip_height, labels.width)
        # Pass A: ids, aura and the table.  Pass B: mean view and RMSE.
        table, painter = describe_segments(labels, source, rows, adjacency,
                                           paths["segmentation"], paths["aura"])
        stats = write_mean_view(table, painter, source, rows,
                                paths["reconstruction"], paths["rmse"])
        del painter  # free the run records before the CSV writer's peak
        csv_path = paths["superpixels"]
        digests[csv_path] = write_superpixel_csv(table, csv_path)
        return {
            "segments": len(table),
            "rmse_min": stats.minimum,
            "rmse_max": stats.maximum,
            "rmse_mean": stats.mean,
            "rmse_stdev": stats.stdev,
            **{k: str(v) for k, v in paths.items()},
        }

    _run({"command": "segment", "in": str(map_path), "image": str(image_path),
          "out_prefix": str(out_prefix), "adjacency": adjacency, "stream": strip_height},
         [_File("map", map_path, is_raster=True), _File("image", image_path, is_raster=True)],
         outputs, Path(f"{out_prefix}.manifest.json"), work, as_json, digests)


def _strip_rows(strip_height: int | None, width: int) -> int:
    """``--stream`` if given, else the rows of about ``STRIP_PIXELS`` pixels."""
    return strip_height or raster.default_strip_height(width)


# Not called here: ``bench/traced.py`` wraps it by name.
def _read_image_streamed(image_path: Path, strip_height: int) -> raster.MultiSpectralImage:
    """The whole image, equal to what its strips would assemble."""
    return raster.read_image(image_path)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


#: (file stem, ``HarmonizationTrace`` field) of each step matrix ``compare`` writes.
_STEP_MATRICES = (
    ("step2_joint", "joint"), ("step3_ref_given_test", "ref_given_test"),
    ("step4_kept_by_row", "kept_by_row"), ("step5_test_given_ref", "test_given_ref"),
    ("step6_kept_by_col", "kept_by_col"), ("step7_temporary", "temporary"),
)


@main.command("compare")
@click.option("--test", "test_path", type=click.Path(path_type=Path), default=None)
@click.option("--ref", "ref_path", type=click.Path(path_type=Path), default=None)
@click.option("--counts", "counts_path", type=click.Path(path_type=Path), default=None,
              help="Contingency CSV; alternative to --test/--ref map pair.")
@click.option("--th1", type=float, default=0.09, show_default=True)
@click.option("--th2", type=float, default=0.06, show_default=True)
@click.option("--overrides", "overrides_path", type=click.Path(path_type=Path),
              default=None, help="Step-8 expert override CSV.")
@click.option("--translate-test", "translate_test", type=click.Path(path_type=Path),
              default=None, help="Legend mapping CSV for the test map (--test/--ref only).")
@click.option("--translate-ref", "translate_ref", type=click.Path(path_type=Path),
              default=None, help="Legend mapping CSV for the reference map (--test/--ref only).")
@click.option("--resolution", "resolution_path", type=click.Path(path_type=Path),
              default=None, help="Per-code picks for ambiguous mappings (--translate-* only).")
@click.option("--out-dir", "out_dir", required=True, type=click.Path(path_type=Path))
@click.option("--stream", "strip_height", type=click.IntRange(min=1), default=None,
              help="Rows per strip (default: about 131 072 pixels per strip; --test/--ref "
                   "only). Both maps are read one strip at a time, as u16 labels, so "
                   "memory stays fixed whatever the map size.")
@click.option("--json", "as_json", is_flag=True)
def cmd_compare(test_path, ref_path, counts_path, th1, th2, overrides_path,
                translate_test, translate_ref, resolution_path, out_dir,
                strip_height, as_json):
    """Harmonize two legends and report the CVPAI2 association index."""
    given = (counts_path is not None, test_path is not None, ref_path is not None)
    if given not in ((True, False, False), (False, True, True)):
        _refuse("give either --counts or both --test and --ref")
    for option, value in (("--translate-test", translate_test),
                          ("--translate-ref", translate_ref),
                          ("--resolution", resolution_path), ("--stream", strip_height)):
        if counts_path is not None and value is not None:
            _refuse(f"{option} is not read with --counts")
    if resolution_path is not None and translate_test is None and translate_ref is None:
        _refuse("--resolution is read only with --translate-test or --translate-ref")
    names = ["contingency.csv", *(f"{stem}.csv" for stem, _ in _STEP_MATRICES),
             "step8_final.csv", "report.json", "report.txt"]
    paths = {name: out_dir / name for name in names}

    def work() -> dict:
        resolution = read_resolution(resolution_path) if resolution_path else None
        if counts_path is not None:
            table = read_contingency_csv(counts_path)
        else:
            maps = []
            for path, mapping in ((test_path, translate_test), (ref_path, translate_ref)):
                cmap = open_map(path)
                if mapping is not None:
                    translation = build_translation(read_legend_mapping(mapping), resolution)
                    cmap = translate_legend(cmap, translation)
                maps.append(cmap)
            table = build_contingency(*maps, strip_height)
        trace = harmonize(table, th1, th2)
        overrides = read_overrides_csv(overrides_path) if overrides_path else []
        relation = apply_overrides(trace, overrides)
        index = cvpai2(relation)
        t, r = table.test_names, table.ref_names
        write_contingency_csv(paths["contingency.csv"], table)
        for stem, field in _STEP_MATRICES:
            write_matrix_csv(paths[f"{stem}.csv"], t, r, getattr(trace, field))
        write_relation_csv(paths["step8_final.csv"], relation)
        report = {
            "cvpai2": index,
            "correct_pairs": relation.correct_pairs,
            "th1": th1,
            "th2": th2,
            "total_count": table.total,
            "test_cardinality": len(t),
            "reference_cardinality": len(r),
            "audit": [dataclasses.asdict(ov) for ov in relation.audit],
        }
        paths["report.json"].write_text(json.dumps(report, indent=2) + "\n",
                                        encoding="utf-8")
        text_lines = [
            f"CVPAI2 = {index:.6f}",
            f"correct pairs CE = {relation.correct_pairs}",
            f"TH1 = {th1}, TH2 = {th2}",
            "audit:",
        ] + [
            f"  ({ov.test_label}, {ov.ref_label}) -> {ov.value}: {ov.note}"
            for ov in relation.audit
        ]
        paths["report.txt"].write_text("\n".join(text_lines) + "\n", encoding="utf-8")
        return report

    _run({"command": "compare", "test": _s(test_path), "ref": _s(ref_path),
          "counts": _s(counts_path), "th1": th1, "th2": th2,
          "overrides": _s(overrides_path), "translate_test": _s(translate_test),
          "translate_ref": _s(translate_ref), "resolution": _s(resolution_path),
          "stream": strip_height},
         [_File("counts CSV", counts_path), _File("test map", test_path, is_raster=True),
          _File("reference map", ref_path, is_raster=True),
          _File("overrides CSV", overrides_path),
          _File("test mapping CSV", translate_test),
          _File("reference mapping CSV", translate_ref),
          _File("resolution CSV", resolution_path)],
         [_File(name, path) for name, path in paths.items()],
         out_dir / "manifest.json", work, as_json)


def _s(p: Path | None) -> str | None:
    return None if p is None else str(p)


# ---------------------------------------------------------------------------
# evidence
# ---------------------------------------------------------------------------


@main.command("evidence")
@click.option("--relation", "relation_path", required=True,
              type=click.Path(path_type=Path), help="Binary relation CSV.")
@click.option("--in", "vectors_path", required=True, type=click.Path(path_type=Path),
              help="Evidence vectors CSV (id,color_name,class_name,shape,texture,spatial).")
@click.option("--out", "output_path", required=True, type=click.Path(path_type=Path))
@click.option("--json", "as_json", is_flag=True)
def cmd_evidence(relation_path, vectors_path, output_path, as_json):
    """Combine evidence memberships with a legend relation (fuzzy min)."""
    def work() -> dict:
        rel = read_relation_csv(relation_path)
        table = read_evidence_csv(vectors_path, rel)
        write_scores_csv(output_path, table.ids, rel.ref_names, score_table(table, rel))
        return {"out": str(output_path), "vectors": len(table)}

    _run({"command": "evidence", "relation": str(relation_path), "in": str(vectors_path),
          "out": str(output_path)},
         [_File("relation CSV", relation_path), _File("evidence CSV", vectors_path)],
         [_File("scores CSV", output_path)],
         output_path.with_suffix(".manifest.json"), work, as_json)


if __name__ == "__main__":
    main()
