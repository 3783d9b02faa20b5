"""Run child processes one after another and report wall time and peak RSS.

Reads a JSON job from stdin: ``{"env": {...}, "steps": [{"name", "argv",
"stdout", "stderr"}]}``.  Each step starts only after the previous child
has exited (a closed loop with one client).  Prints one JSON object with,
per step, the wall time, exit code and ``ru_maxrss`` taken from
``os.wait4`` on that child's pid, plus the wall time of the whole job.

This launcher imports nothing but the standard library on purpose.  On
Linux a child's ``ru_maxrss`` starts from the resident size of the process
that forked it, so the launcher must stay small for the figures to
describe the child alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def run_step(step: dict, env: dict) -> dict:
    with open(step["stdout"], "wb") as out, open(step["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(step["argv"], env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "name": step["name"],
        "wall_s": wall,
        "exit_code": proc.returncode,
        "maxrss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
    }


def main() -> None:
    job = json.load(sys.stdin)
    env = job["env"]
    start = time.perf_counter()
    results = [run_step(step, env) for step in job["steps"]]
    json.dump({"steps": results, "wall_s": time.perf_counter() - start},
              sys.stdout)


if __name__ == "__main__":
    main()
