"""The demo scripts run end to end as a user would start them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_make_demo_scene_runs_streamed_pipeline(tmp_path):
    out = tmp_path / "demo"
    result = run_script("make_demo_scene.py", "--height", 64, "--width", 64,
                        "--stream", 16, "--out", out)
    assert result.returncode == 0, result.stderr
    assert (out / "colors.hdr").is_file() and (out / "colors.bin").is_file()
    seg_outputs = {p.name for p in out.glob("seg.*")}
    expected = {f"seg.{kind}.{ext}" for kind in ("seg", "aura", "recon", "rmse")
                for ext in ("hdr", "bin")}
    expected |= {"seg.superpixels.csv", "seg.manifest.json"}
    assert expected <= seg_outputs, seg_outputs


def test_harmonization_demo_reports_cvpai2():
    result = run_script("harmonization_demo.py")
    assert result.returncode == 0, result.stderr
    assert any(line.startswith("CVPAI2 = ") for line in result.stdout.splitlines())
