"""The package names the benchmark's span tracer looks up must resolve.

``bench/traced.py`` wraps package functions by name for
``bench/run.py --trace 1``.  A rename that drops one of those names would
only show as failed traced runs, so this reads the tracer's span table
(without importing the benchmark) and checks every name here.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

TRACED = Path(__file__).resolve().parents[1] / "bench" / "traced.py"


def _spans() -> tuple[tuple[str, str, str], ...]:
    tree = ast.parse(TRACED.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACED} defines no SPANS table")


def _owner(path: str):
    """``raster`` -> specmap.raster; ``raster.ImageSource`` -> its class."""
    module, *attrs = path.split(".")
    obj = importlib.import_module(f"specmap.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("owner, attr", [(o, a) for o, a, _ in _spans()])
def test_traced_span_resolves(owner, attr):
    assert callable(getattr(_owner(owner), attr))


@pytest.mark.parametrize("owner, attr", [
    ("cli", "PixelVisitCounter"),
    ("cli", "_sha256"),
    ("raster", "apply_calibration"),
    ("raster", "strip_ledger"),
    ("segmentation", "OpStats"),
])
def test_probed_name_resolves(owner, attr):
    getattr(_owner(owner), attr)


def test_probes_carry_the_fields_the_tracer_reads():
    from specmap.cli import PixelVisitCounter
    from specmap.raster import BandMetadata, apply_calibration, strip_ledger
    from specmap.segmentation import OpStats, TwoPassLabeler

    assert PixelVisitCounter().visits == 0
    assert apply_calibration(np.zeros((1, 1)), BandMetadata(1, 0.5)).clamped == 0
    assert callable(strip_ledger.reset) and strip_ledger.peak >= 0
    stats = OpStats()
    labeler = TwoPassLabeler(3, 8, stats)  # positional, as the tracer calls it
    labeler.feed(np.array([[1, 1, 2]], dtype=np.int32))
    assert labeler.finalize().segment_count == 2
    assert stats.pixel_visits > 0
    assert stats.union_find_ops >= 0
