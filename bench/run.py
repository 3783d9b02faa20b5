"""specmap benchmark: the four-subcommand CLI pipeline on seeded synthetic scenes.

Usage (from the repository root):

    python3 bench/run.py --workload streamed --seed 1 --seconds 40 --trace 0

Generates the workload's inputs from the seed, then drives the real
``specmap`` subcommands as child processes in a closed loop with one
client: classify, segment, compare, evidence, each started after the
previous one exited.  Rounds of them repeat until every step has its
samples and ``--seconds`` of step time has been measured.  Every output is
checked; a non-zero exit or a failed check is a failed operation.

With ``--trace 1`` the same subcommands run in-process instead, once
plain and once traced, and the per-layer metrics come from the traced
run's spans.

Human-readable tables go to stdout first; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import scenes

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Why each workload exists is in README.md next to this file.
WORKLOADS = {
    "blocky": {"kind": "blocky", "height": 2048, "width": 2048, "stream": None},
    # Half of 4 MP: a 4 MP noisy chain takes about a minute on a 2-core box,
    # more than the per-run time budget holds.
    "noisy": {"kind": "noisy", "height": 1024, "width": 2048, "stream": None},
    "streamed": {"kind": "blocky", "height": 2048, "width": 2048, "stream": 64},
}
STREAM_WORKERS = 2
EVIDENCE_VECTORS = 50_000
#: Samples of each step in one run, each in its own round, so that the
#: samples of every step are spread over the whole run: enough for about
#: STEP_TARGET_S of the step's own time, within MIN_SAMPLES..MAX_SAMPLES.
#: The host's speed swings by up to 2x for seconds at a time, and a run's
#: figure settles with the time its samples cover, not with their count.
#: A step whose first sample takes longer than LONG_STEP_S (``segment`` on
#: ``noisy``) runs once; one such sample already spans many swings.
STEP_TARGET_S = 6.0
MIN_SAMPLES = 3
MAX_SAMPLES = 8
LONG_STEP_S = 15.0
SETUP_PROBES = 5
SETUP_PROBE = "import specmap; specmap.load_specl()"
STEPS = ("classify", "segment", "compare", "evidence")

END_TO_END = (
    ("pipeline_mpix_s", "MP/s"),
    ("classify_s", "s"),
    ("segment_s", "s"),
    ("compare_s", "s"),
    ("evidence_s", "s"),
    ("classify_peak_rss_mb", "MB"),
    ("segment_peak_rss_mb", "MB"),
    ("compare_peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def summary(name: str, values: list[float]) -> float:
    """One run's figure for a metric: the median of peak RSS, else the mean.

    Peak RSS takes a few discrete levels, which a median picks out.  The
    host's speed switches between two levels about 30 % apart for seconds
    at a time, so the median of a run's times lands on either level, while
    their mean moves only in proportion to the time spent on each.
    """
    if name.endswith("_rss_mb"):
        return statistics.median(values)
    return statistics.fmean(values)


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems


def step_argv(work: Path, stream: int | None) -> list[tuple[str, list[str]]]:
    data = ROOT / "src" / "specmap" / "data"
    inp, out = work / "inputs", work / "out"
    for sub in STEPS:
        (out / sub).mkdir(parents=True, exist_ok=True)
    colors = out / "classify" / "colors.hdr"
    streamed = ["--stream", str(stream)] if stream else []
    workers = ["--workers", str(STREAM_WORKERS)] if stream else []
    return [
        ("classify", ["classify", "--rules", str(data / "specl.rules"),
                      "--in", str(inp / "scene.hdr"), "--out", str(colors)]
         + streamed + workers),
        ("segment", ["segment", "--in", str(colors), "--image", str(inp / "scene.hdr"),
                     "--out-prefix", str(out / "segment" / "seg"), "--adjacency", "8",
                     "--json"] + streamed),
        ("compare", ["compare", "--test", str(colors), "--ref", str(inp / "reference.hdr"),
                     "--translate-ref", str(data / "nlcd_to_lccsdp.csv"),
                     "--resolution", str(data / "nlcd_resolution_first_listed.csv"),
                     "--out-dir", str(out / "compare")]),
        ("evidence", ["evidence", "--relation", str(out / "compare" / "step8_final.csv"),
                      "--in", str(inp / "vectors.csv"),
                      "--out", str(out / "evidence" / "scores.csv")]),
    ]


def spawn(steps: list[tuple[str, list[str]]], logs: Path) -> dict:
    """Run ``steps`` one after another through the small launcher process."""
    env = {k: v for k, v in os.environ.items() if k != "SPECMAP_WORKERS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    logs.mkdir(parents=True, exist_ok=True)
    job = {"env": env, "steps": [
        {"name": name, "argv": argv,
         "stdout": str(logs / f"{name}.out"), "stderr": str(logs / f"{name}.err")}
        for name, argv in steps]}
    proc = subprocess.run([sys.executable, str(BENCH / "spawn.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout)


def check_outputs(work: Path, seed: int, oracle) -> dict[str, list[str]]:
    """Problems per step; an exception inside a check is a problem too."""
    inp, out = work / "inputs", work / "out"
    colors = out / "classify" / "colors.hdr"
    calls = {
        "classify": lambda: checks.check_classify(colors, inp / "scene.hdr", seed, oracle),
        "segment": lambda: checks.check_segment(out / "segment" / "seg"),
        "compare": lambda: checks.check_compare(out / "compare", colors,
                                                inp / "reference.hdr"),
        "evidence": lambda: checks.check_evidence(
            out / "evidence" / "scores.csv", inp / "vectors.csv",
            out / "compare" / "step8_final.csv"),
    }
    problems = {}
    for name, call in calls.items():
        try:
            problems[name] = call()
        except Exception as exc:  # a broken output is a failed op, not a crash
            problems[name] = [f"{name}: check raised {type(exc).__name__}: {exc}"]
    return problems


def step_digests(work: Path, names=STEPS) -> dict[str, dict[str, str]]:
    return {sub: checks.digests(work / "out" / sub) for sub in names}


def judge(ledger: Ledger, work: Path, exit_codes: dict, problems: dict | None,
          digests: dict, reference: dict, label: str) -> None:
    """Record each invocation in ``exit_codes`` as passed or failed."""
    for name in exit_codes:
        bad = list(problems[name]) if problems else []
        if exit_codes[name] != 0:
            err = work / "logs" / f"{name}.err"
            detail = err.read_text()[-500:] if err.exists() else ""
            bad.insert(0, f"{name} ({label}): exit {exit_codes[name]} {detail}")
        if digests[name] != reference[name]:
            bad.append(f"{name} ({label}): output digests differ from the first "
                       "run on these inputs")
        ledger.record(bad)


def wanted(first_s: float) -> int:
    """Samples one run takes of a step whose first sample took ``first_s``."""
    if first_s > LONG_STEP_S:
        return 1
    return max(MIN_SAMPLES, min(MAX_SAMPLES, math.ceil(STEP_TARGET_S / first_s)))


def measure(work: Path, wl: dict, args, oracle, ledger: Ledger,
            reference: dict | None) -> tuple[dict, dict]:
    """Untraced child-process rounds for ``args.seconds``; samples and digests.

    The first round runs the whole chain and its outputs are checked.  Later
    rounds repeat each step until it has the samples ``wanted`` gives it, so
    the samples of every step are spread over the whole run and the host's
    speed swings reach every step alike.  Outputs must match ``reference``,
    or the first round when it is None.
    """
    cli = [sys.executable, "-m", "specmap.cli"]
    steps = [(name, cli + argv) for name, argv in step_argv(work, wl["stream"])]
    probe = ("setup", [sys.executable, "-c", SETUP_PROBE])
    # Untimed warm-up.  The first probe compiles the package's bytecode, so
    # every later interpreter finds it compiled; the first process to touch
    # the scene after it was written runs markedly slower than later ones.
    spawn([probe, steps[0]], work / "logs")
    rounds, need, first, measured = [], None, None, 0.0
    todo = steps
    while todo:
        done = spawn([probe] + todo, work / "logs")
        runs = done["steps"][1:]
        measured += sum(r["wall_s"] for r in runs)
        ran = [r["name"] for r in runs]
        digests = step_digests(work, ran)
        first = first or digests
        reference = reference or digests
        # Later rounds must reproduce the checked first round byte for byte.
        problems = None if need else check_outputs(work, args.seed, oracle)
        judge(ledger, work, {r["name"]: r["exit_code"] for r in runs},
              problems, digests, reference, "round")
        rounds.append(done)
        if need is None:
            need = {r["name"]: ([], wanted(r["wall_s"])) for r in runs}
        for r in runs:
            need[r["name"]][0].append(r)
        todo = [step for step in steps if len(need[step[0]][0]) < need[step[0]][1]]
        if not todo and measured < args.seconds:
            todo = [step for step in steps if need[step[0]][1] > 1]
    setup = [r for d in rounds for r in d["steps"][:1]]
    if len(setup) < SETUP_PROBES:
        setup += spawn([probe] * (SETUP_PROBES - len(setup)), work / "logs")["steps"]
    by_step = {name: need[name][0] for name in STEPS}
    walls = {name: [r["wall_s"] for r in by_step[name]] for name in STEPS}
    chain_s = sum(statistics.fmean(walls[name]) for name in STEPS)
    samples = {
        "pipeline_mpix_s": [wl["height"] * wl["width"] / 1e6 / chain_s],
        **{f"{name}_s": walls[name] for name in STEPS},
        **{f"{s}_peak_rss_mb": [r["maxrss_mb"] for r in by_step[s]]
           for s in ("classify", "segment", "compare")},
        "setup_s": [r["wall_s"] for r in setup],
    }
    return samples, first


def trace(work: Path, wl: dict, args, oracle, ledger: Ledger,
          reference: dict | None) -> tuple[dict, dict]:
    """Plain then traced in-process chains; layer metrics and digests."""
    import traced

    steps = step_argv(work, wl["stream"])
    plain = traced.run_plain(steps)
    digests = step_digests(work)
    reference = reference or digests
    judge(ledger, work, plain["exit_codes"], check_outputs(work, args.seed, oracle),
          digests, reference, "in-process")
    run = traced.run_traced(steps, wl["height"] * wl["width"], work / "spans.json")
    judge(ledger, work, run["exit_codes"], None, step_digests(work), reference, "traced")
    layer = dict(run["metrics"])
    layer["trace.overhead_frac"] = (run["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    layer["trace.coverage_min"] = min(run["coverage"].values())
    return {"layer": layer, "coverage": run["coverage"],
            "plain_wall_s": plain["wall_s"], "traced_wall_s": run["wall_s"]}, digests


def describe(desc: dict, work: Path) -> dict:
    """Complete the input descriptor with what the first outputs show."""
    import numpy as np

    out = dict(desc)
    try:
        _, labels = checks.read_plane(work / "out" / "classify" / "colors.hdr", "<u2")
        header = checks.read_header(work / "out" / "segment" / "seg.seg.hdr")
    except (OSError, KeyError, ValueError):
        return out  # the failed step is already counted
    values, counts = np.unique(labels, return_counts=True)
    out["segments"] = int(header["segments"])
    out["class_histogram"] = {int(v): int(c) for v, c in zip(values, counts)}
    return out


def environment() -> dict:
    import importlib.metadata

    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
        "nproc": os.cpu_count(),
        "note": "wall-clock figures come from a shared 2-core box; byte counts "
                "are computed from array and file sizes, not measured traffic",
    }
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True).stdout
    except OSError:
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            env[key.strip()] = value.strip()
    return env


def digest_store(workload: str, seed: int, work: Path) -> Path:
    """Where the output digests of the first run on these inputs are kept."""
    inputs = json.dumps(checks.digests(work / "inputs"), sort_keys=True)
    key = hashlib.sha256(inputs.encode()).hexdigest()[:16]
    return ROOT / ".bench_work" / "digests" / f"{workload}-s{seed}-{key}.json"


def tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"n/a (needs 11 samples, have {n})"
    k = n - 10
    return f"p{100.0 * k / n:.1f}={sorted(values)[k - 1]:.6g}"


def report(args, record: dict, ledger: Ledger) -> None:
    d = record["descriptor"]
    print(f"workload {args.workload}, seed {args.seed}: {d['height']}x{d['width']} "
          f"({d['megapixels']:.2f} MP), {d['bands']} bands {d['dtype']}, "
          f"nodata {100 * d['nodata_share']:.3f}%, {d.get('segments')} segments, "
          f"{d['evidence_vectors']} evidence vectors")
    print(f"  inputs on disk (bytes): {d['bytes_on_disk']}")
    print(f"  class histogram: {d.get('class_histogram')}")
    print(f"  environment: {record['environment']}")
    print(f"  calibrated float64 scene {d['calibrated_f64_mb']:.0f} MB against an L3 "
          f"of {record['environment'].get('L3 cache')}")
    print(f"  output digests kept in .bench_work/digests/{record['digest_store']}")
    samples = record["samples"]
    if samples:
        print("end-to-end (figure: mean of times, median of peak RSS; median; "
              "tail percentile; sample count):")
        for name, unit in END_TO_END:
            vals = samples[name]
            print(f"  {name:24s} {summary(name, vals):12.6g} {unit:5s} "
                  f"median {statistics.median(vals):.6g} "
                  f"tail {tail(vals)}  n={len(vals)}")
    print(f"  {'failed_ops_frac':24s} {ledger.failed / ledger.attempted:12.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} invocations)")
    for line in ledger.problems:
        print(f"  FAILED: {line}")
    for line in record["selftest_problems"]:
        print(f"  CHECKS DO NOT BITE: {line}")
    traced = record["traced"]
    if traced:
        print(f"per-layer (in-process: plain {traced['plain_wall_s']:.3f} s, "
              f"traced {traced['traced_wall_s']:.3f} s):")
        for name, value in traced["layer"].items():
            print(f"  {name:36s} {value:14.6g}")
        for name, share in traced["coverage"].items():
            print(f"  child-span coverage of {name:14s} {100 * share:6.2f}%")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for need in (ROOT / "src" / "specmap" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not need.is_file():
            print(f"error: {need.relative_to(ROOT)} not found; run from a "
                  "checkout of the repository", file=sys.stderr)
            return 2
    oracle = checks.load_oracle(ROOT)
    wl = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    desc = scenes.generate(wl["kind"], wl["height"], wl["width"], args.seed,
                           EVIDENCE_VECTORS, work / "inputs")
    for path in (work / "inputs").iterdir():
        # Warm-up: the inputs sit in the page cache and are already on disk,
        # so no write-back of them competes with the measured chains.
        with open(path, "rb") as f:
            f.read()
            os.fsync(f.fileno())

    import selftest

    sys.path.insert(0, str(ROOT / "src"))
    broken_checks = selftest.selftest(ROOT / ".bench_work" / "selftest")
    store = digest_store(args.workload, args.seed, work)
    earlier = json.loads(store.read_text()) if store.exists() else None
    ledger = Ledger()
    if args.trace:
        traced, digests = trace(work, wl, args, oracle, ledger, earlier)
        samples = {}
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: {"value": traced["layer"][m["name"]], "unit": m["unit"]}
                   for m in per_layer}
    else:
        traced = None
        samples, digests = measure(work, wl, args, oracle, ledger, earlier)
        metrics = {k: {"value": summary(k, samples[k]), "unit": u}
                   for k, u in END_TO_END}

    if earlier is None and ledger.failed == 0:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(digests, indent=1) + "\n")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "descriptor": describe(desc, work),
        "environment": environment(),
        "digest_store": store.name,
        "output_sha256": digests,
        "samples": samples,
        "traced": traced,
        "failures": ledger.problems,
        "selftest_problems": broken_checks,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    report(args, record, ledger)
    for sub in ("inputs", "out"):
        shutil.rmtree(work / sub, ignore_errors=True)
    print(json.dumps({"correct": ledger.failed == 0 and not broken_checks,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
