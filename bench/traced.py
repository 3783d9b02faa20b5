"""Traced in-process pipeline and the per-layer metrics read from its spans.

The traced run calls ``specmap.cli.main`` with the same arguments the
untraced child processes get.  ``instrument`` wraps the public functions
of each layer where the caller looks them up (``specmap.cli`` re-binds
most of them at import, ``specmap.classify`` re-binds ``eval_expr``) and
adds counters for work the package computes but does not report.  Byte
counts are computed from array sizes and file sizes, not measured traffic.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import time
from pathlib import Path

from tracer import Recorder

#: Sample size in bytes of each raster dtype name of the file format.
ITEMSIZE = {"u8": 1, "u16": 2, "u32": 4, "i16": 2, "f32": 4, "f64": 8}

#: Spans whose peak resident growth is reported.
MEMORY_SPANS = frozenset({
    "raster.read_image", "classify.classify", "classify.classify_streamed",
    "segmentation.build_superpixel_table",
})

#: Spans of functions called once per evidence vector, recorded cheaply.
HOT_SPANS = frozenset({"evidence.combine"})

#: (module, attribute, span name) for every function wrapped in a span.
SPANS = (
    ("raster", "read_image", "raster.read_image"),
    ("raster", "write_image", "raster.write_image"),
    ("raster", "read_raster", "raster.read_raster"),
    ("raster", "write_raster", "raster.write_raster"),
    ("raster.ImageSource", "read_rows", "raster.read_rows"),
    ("cli", "parse_rules", "rules.parse_rules"),
    ("classify", "eval_expr", "rules.eval_expr"),
    ("cli", "classify", "classify.classify"),
    ("cli", "classify_streamed", "classify.classify_streamed"),
    ("classify", "classify_strip", "classify.classify_strip"),
    ("cli", "write_map", "classify.write_map"),
    ("cli", "read_map", "classify.read_map"),
    ("cli", "connected_components", "segmentation.connected_components"),
    ("segmentation.TwoPassLabeler", "feed", "segmentation.ccl_feed"),
    ("segmentation.TwoPassLabeler", "finalize", "segmentation.ccl_finalize"),
    ("cli", "cross_aura", "segmentation.cross_aura"),
    ("cli", "build_superpixel_table", "segmentation.build_superpixel_table"),
    ("cli", "reconstruct", "segmentation.reconstruct"),
    ("cli", "rmse_map", "segmentation.rmse_map"),
    ("cli", "write_superpixel_csv", "segmentation.write_superpixel_csv"),
    ("cli", "write_segmentation", "segmentation.write_segmentation"),
    ("cli", "write_aura", "segmentation.write_aura"),
    ("cli", "write_rmse", "segmentation.write_rmse"),
    ("cli", "build_contingency", "compare.build_contingency"),
    ("cli", "read_legend_mapping", "compare.read_legend_mapping"),
    ("cli", "read_resolution", "compare.read_resolution"),
    ("cli", "build_translation", "compare.build_translation"),
    ("cli", "translate_legend", "compare.translate_legend"),
    ("cli", "harmonize", "compare.harmonize"),
    ("cli", "apply_overrides", "compare.apply_overrides"),
    ("cli", "cvpai2", "compare.cvpai2"),
    ("cli", "write_contingency_csv", "compare.write_matrix"),
    ("cli", "write_matrix_csv", "compare.write_matrix"),
    ("cli", "write_relation_csv", "compare.write_matrix"),
    ("cli", "read_relation_csv", "compare.read_relation_csv"),
    ("cli", "read_evidence_csv", "evidence.read_evidence_csv"),
    ("cli", "combine", "evidence.combine"),
    ("cli", "write_scores_csv", "evidence.write_scores_csv"),
    ("cli", "_write_manifest", "cli.manifest"),
    ("cli", "_read_image_streamed", "cli.read_image_streamed"),
)


def _after(func, record):
    """``func`` that passes (result, args) to ``record`` after each call."""
    @functools.wraps(func)
    def counted(*args, **kwargs):
        out = func(*args, **kwargs)
        record(out, args)
        return out

    return counted


def instrument(rec: Recorder) -> dict:
    """Wrap the package for tracing; returns probes read after each command."""
    # The package re-exports a function named ``classify``, which hides the
    # submodule attribute, so fetch modules by name.
    raster, classify, seg, cli = (importlib.import_module(f"specmap.{name}") for name in
                                  ("raster", "classify", "segmentation", "cli"))
    modules = {
        "raster": raster,
        "classify": classify,
        "segmentation": seg,
        "cli": cli,
        "raster.ImageSource": raster.ImageSource,
        "segmentation.TwoPassLabeler": seg.TwoPassLabeler,
    }
    probes = {"counters": [], "opstats": seg.OpStats(), "ledger": raster.strip_ledger}

    # Counters first, so the spans below wrap the counting versions.
    rec.replace(raster, "apply_calibration", _after(
        raster.apply_calibration,
        lambda out, a: rec.count("raster.clamped_samples", out.clamped)))
    rec.replace(raster, "read_raster", _after(
        raster.read_raster,
        lambda out, a: rec.count("raster.bytes_read", out[1].nbytes)))
    rec.replace(raster.ImageSource, "read_rows", _after(
        raster.ImageSource.read_rows,
        lambda out, a: rec.count("raster.bytes_read",
                                 out[0].size * ITEMSIZE[a[0].dtype_name])))
    rec.replace(raster, "write_raster", _after(
        raster.write_raster,
        lambda out, a: rec.count("raster.bytes_written",
                                 a[2].size * ITEMSIZE[a[3]])))
    rec.replace(cli, "write_superpixel_csv", _after(
        cli.write_superpixel_csv,
        lambda out, a: rec.count("segmentation.csv_bytes", Path(a[1]).stat().st_size)))
    rec.replace(cli, "_sha256", _after(
        cli._sha256,
        lambda out, a: rec.count("cli.hashed_bytes", Path(a[0]).stat().st_size)))

    def visit_counter():
        counter = classify.PixelVisitCounter()
        probes["counters"].append(counter)
        return counter

    rec.replace(cli, "PixelVisitCounter", visit_counter)
    labeler_init = seg.TwoPassLabeler.__init__

    def init_with_stats(self, width, adjacency=8, stats=None):
        labeler_init(self, width, adjacency, probes["opstats"] if stats is None else stats)

    rec.replace(seg.TwoPassLabeler, "__init__", init_with_stats)

    for owner, attr, name in SPANS:
        rec.patch(modules[owner], attr, name, hot=name in HOT_SPANS)
    rec.follow_threads()
    return probes


def run_plain(steps: list[tuple[str, list[str]]]) -> dict:
    """Run the subcommands in-process without tracing: the overhead baseline."""
    cli = importlib.import_module("specmap.cli")
    exit_codes = {}
    start = time.perf_counter()
    for name, argv in steps:
        with contextlib.redirect_stdout(io.StringIO()):
            exit_codes[name] = _invoke(cli.main, argv)
    return {"wall_s": time.perf_counter() - start, "exit_codes": exit_codes}


def run_traced(steps: list[tuple[str, list[str]]], pixels: int,
               spans_path: Path) -> dict:
    """Run the subcommands in-process under tracing; returns layer metrics."""
    cli = importlib.import_module("specmap.cli")
    rec = Recorder(MEMORY_SPANS)
    probes = instrument(rec)
    exit_codes = {}
    strip_peak = 0
    try:
        with rec.sample_memory():
            start = time.perf_counter()
            for name, argv in steps:
                probes["ledger"].reset()
                with rec.span(f"cli.{name}"), contextlib.redirect_stdout(io.StringIO()):
                    exit_codes[name] = _invoke(cli.main, argv)
                strip_peak = max(strip_peak, probes["ledger"].peak)
            wall = time.perf_counter() - start
    finally:
        rec.restore()
    rec.write(spans_path)
    roots = [i for i, s in enumerate(rec.spans) if s.parent is None]
    return {"metrics": layer_metrics(rec, roots, probes, strip_peak, pixels),
            "wall_s": wall, "exit_codes": exit_codes, "coverage": coverage(rec, roots)}


def _invoke(main, argv: list[str]) -> int | str:
    """Exit code of one subcommand run in-process, or the error it raised."""
    try:
        main.main(argv, standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a failed op, reported and counted
        return f"{type(exc).__name__}: {exc}"
    return 0


def coverage(rec: Recorder, roots: list[int]) -> dict[str, float]:
    """Share of each subcommand's wall time its direct child spans cover."""
    kids = rec.children()
    return {rec.spans[r].name: rec.covered(r, kids.get(r, [])) / rec.spans[r].duration
            for r in roots}


def layer_metrics(rec: Recorder, roots: list[int], probes: dict,
                  strip_peak: int, pixels: int) -> dict[str, float]:
    selfs = rec.self_times()
    duration: dict[str, float] = {}
    self_time: dict[str, float] = {}
    ncalls: dict[str, int] = {}
    peak_mb: dict[str, float] = {}
    for s, own in zip(rec.spans, selfs):
        duration[s.name] = duration.get(s.name, 0.0) + s.duration
        self_time[s.name] = self_time.get(s.name, 0.0) + own
        ncalls[s.name] = ncalls.get(s.name, 0) + 1
        peak_mb[s.name] = max(peak_mb.get(s.name, 0.0), s.peak_mb)

    def total(*names):
        return sum(duration.get(n, 0.0) for n in names)

    def calls(name):
        return ncalls.get(name, 0)

    def peak(*names):
        return max(peak_mb.get(n, 0.0) for n in names)

    def self_of(*names):
        return sum(self_time.get(n, 0.0) for n in names)

    root_of = {}
    for i, s in enumerate(rec.spans):
        root_of[i] = i if s.parent is None else root_of[s.parent]
    cli_self = {rec.spans[r].name: 0.0 for r in roots}
    for i, s in enumerate(rec.spans):
        if s.layer == "cli":
            cli_self[rec.spans[root_of[i]].name] += selfs[i]

    visits = sum(c.visits for c in probes["counters"])
    counters = rec.counters
    opstats = probes["opstats"]
    m = {
        "raster.read_s": total("raster.read_image", "raster.read_rows"),
        "raster.read_image_s": total("raster.read_image"),
        "raster.read_rows_s": total("raster.read_rows"),
        "raster.read_image_peak_mb": peak("raster.read_image"),
        "raster.write_image_s": total("raster.write_image"),
        "raster.write_raster_s": total("raster.write_raster"),
        "raster.bytes_read": counters.get("raster.bytes_read", 0),
        "raster.bytes_written": counters.get("raster.bytes_written", 0),
        "raster.clamped_samples": counters.get("raster.clamped_samples", 0),
        "raster.strip_peak_bytes": strip_peak,
        "rules.parse_s": total("rules.parse_rules"),
        "rules.eval_expr_s": total("rules.eval_expr"),
        "rules.eval_expr_calls": calls("rules.eval_expr"),
        "classify.classify_s": total("classify.classify", "classify.classify_streamed"),
        "classify.self_s": self_of("classify.classify", "classify.classify_streamed",
                                   "classify.classify_strip"),
        "classify.strip_s": total("classify.classify_strip"),
        "classify.visits_per_pixel": visits / pixels,
        "classify.peak_mb": peak("classify.classify", "classify.classify_streamed"),
        "classify.write_map_s": total("classify.write_map"),
        "classify.read_map_s": total("classify.read_map"),
        "segmentation.ccl_s": total("segmentation.ccl_feed", "segmentation.ccl_finalize"),
        "segmentation.ccl_feed_s": total("segmentation.ccl_feed"),
        "segmentation.ccl_finalize_s": total("segmentation.ccl_finalize"),
        "segmentation.union_find_ops": opstats.union_find_ops,
        "segmentation.pixel_visits": opstats.pixel_visits,
        "segmentation.table_s": total("segmentation.build_superpixel_table"),
        "segmentation.table_peak_mb": peak("segmentation.build_superpixel_table"),
        "segmentation.reconstruct_s": total("segmentation.reconstruct"),
        "segmentation.rmse_s": total("segmentation.rmse_map"),
        "segmentation.csv_write_s": total("segmentation.write_superpixel_csv"),
        "segmentation.csv_bytes": counters.get("segmentation.csv_bytes", 0),
        "segmentation.cross_aura_s": total("segmentation.cross_aura"),
        "segmentation.write_maps_s": total(
            "segmentation.write_segmentation", "segmentation.write_aura",
            "segmentation.write_rmse"),
        "compare.contingency_s": total("compare.build_contingency"),
        "compare.translate_s": total(
            "compare.read_legend_mapping", "compare.read_resolution",
            "compare.build_translation", "compare.translate_legend"),
        "compare.harmonize_s": total("compare.harmonize", "compare.apply_overrides"),
        "compare.cvpai2_s": total("compare.cvpai2"),
        "compare.matrix_write_s": total("compare.write_matrix"),
        "compare.read_relation_s": total("compare.read_relation_csv"),
        "evidence.read_s": total("evidence.read_evidence_csv"),
        "evidence.combine_s": total("evidence.combine"),
        "evidence.write_s": total("evidence.write_scores_csv"),
        "evidence.vectors": calls("evidence.combine"),
        "cli.hashed_bytes": counters.get("cli.hashed_bytes", 0),
    }
    for name, value in cli_self.items():
        m[f"{name}.self_s"] = value
    return m
