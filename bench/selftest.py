"""Self-test: the output checks must count injected corruptions as failed ops.

Runs the pipeline in-process on a tiny seeded scene, confirms that every
check passes, then corrupts one classify label and drops one superpixel
CSV row in turn.  Each corruption must be counted as exactly one failed
operation.  Run from the repository root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np

import run
import scenes


def corrupt_label(work: Path) -> None:
    """Change the label of the first valid pixel of the classify output."""
    path = scenes.payload_path(work / "out" / "classify" / "colors.hdr")
    labels = np.fromfile(path, dtype="<u2")
    first = int(np.flatnonzero(labels)[0])
    labels[first] = 1 if labels[first] != 1 else 2
    labels.tofile(path)


def drop_csv_row(work: Path) -> None:
    path = work / "out" / "segment" / "seg.superpixels.csv"
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1]))


def selftest(work: Path, seed: int = 0) -> list[str]:
    """Problems found with the checks themselves; empty when they bite."""
    import traced

    shutil.rmtree(work, ignore_errors=True)
    scenes.generate("blocky", 96, 128, seed, 40, work / "inputs")
    steps = run.step_argv(work, None)
    plain = traced.run_plain(steps)
    oracle = run.checks.load_oracle(run.ROOT)
    clean = run.step_digests(work)
    problems = []
    for label, corrupt in (("clean outputs", None), ("one classify label", corrupt_label),
                           ("one superpixel CSV row", drop_csv_row)):
        if corrupt is not None:
            corrupt(work)
        ledger = run.Ledger()
        run.judge(ledger, work, plain["exit_codes"], run.check_outputs(work, seed, oracle),
                  clean, clean, "self-test")
        expected = 0 if corrupt is None else 1
        if ledger.failed != expected:
            problems.append(f"{label}: {ledger.failed} failed ops counted, expected "
                            f"{expected} ({ledger.problems})")
        if corrupt is not None:
            traced.run_plain(steps)  # restore clean outputs for the next fault
    shutil.rmtree(work, ignore_errors=True)
    return problems


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    problems = selftest(run.ROOT / ".bench_work" / "selftest")
    for line in problems:
        print(f"SELF-TEST FAILED: {line}")
    if not problems:
        print("self-test passed: a corrupted classify label and a dropped CSV row "
              "each count as one failed op")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
