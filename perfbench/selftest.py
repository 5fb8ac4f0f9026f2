#!/usr/bin/env python3
"""Self-test of the benchmark's traced run.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (default: flat-bicomplex and geometry-bpst) it makes two
traced runs of run.py at one seed, each in a fresh interpreter, and checks:

  * both runs are correct and report every per-layer metric;
  * the probe reproduces the ROADMAP per-point baseline on the bpst total
    space: 128 potential and 613 Connection.coeff evaluations per
    del del_J Psi evaluation;
  * every count, and the dconj numpy share, is identical in the two runs;
  * every per-layer metric has a prediction in predictions.json.

Exit code 0 when all hold, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
BASELINE = {"fields.deldelj_psi.potential_evals": 128,
            "fields.deldelj_psi.coeff_evals": 613}


def traced_run(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv) -> int:
    workloads = argv or ["flat-bicomplex", "geometry-bpst"]
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    predictions = json.loads((HERE / "predictions.json").read_text())
    problems = [f"{m['name']}: no prediction" for m in per_layer
                if not any(m["name"].startswith(p) for p in predictions)]
    repeatable = [m["name"] for m in per_layer
                  if m["unit"] == "count" or m["name"].endswith("_share")]
    for workload in workloads:
        first, second = traced_run(workload), traced_run(workload)
        for run in (first, second):
            if not run["correct"]:
                problems.append(f"{workload}: {run['failed']} of "
                                f"{run['attempted']} records failed")
            if set(run["metrics"]) != {m["name"] for m in per_layer}:
                problems.append(f"{workload}: metric names differ from "
                                "BENCHMARK.json per_layer")
        for name, want in BASELINE.items():
            got = first["metrics"][name]["value"]
            if got != want:
                problems.append(f"{workload}: {name} = {got}, want {want}")
        for name in repeatable:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} {a} then {b}")
        print(f"{workload}: checked {len(repeatable)} counts", flush=True)
    for line in problems:
        print("FAIL", line)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
