#!/usr/bin/env python3
"""Time-to-verdict benchmark for hktlab.

    python3 perfbench/run.py --workload geometry-bpst --seed 1 \
        --seconds 30 --trace 0

Run it from the root of a checkout; it imports hktlab from `src/` there and
refuses to run (exit 2) when that is missing.  Workloads are listed in
workloads.py and BENCHMARK.json.  `--seed` draws the workload's fixed list
of scenario seeds, so the same seed gives the same inputs; passes go in
rounds over that list, and only the number of rounds depends on speed.

Each pass is a fresh interpreter (onepass.py) that imports hktlab and runs
the workload's suites through `run_suite`, as one `hktlab` run does, so any
one-time work is paid by every pass.

--trace 0  runs rounds of passes for `--seconds` seconds (at least one) and
           reports the end-to-end metrics of BENCHMARK.json.  Set-up is the
           median import time over the passes and SETUP_SAMPLES import-only
           interpreters, plus the median time the passes spent in the
           program's constructors (spans.BUILDERS).
--trace 1  runs the same untraced rounds as the reference, one traced pass
           in this process (spans.py) at the first scenario seed, and the
           per-point probe on the bpst total space, and reports the
           per-layer metrics.

Every record of every pass is graded against expected_records.json: it must
exist, pass, have a finite value and a threshold no looser than the seed's.
Every time is reported at reference machine speed (speed.py).  The last
line of stdout is the result JSON; the line before it carries the samples,
raw wall times, the full span table and the machine notes.  BLAS runs on one
thread in this process and in every child, whatever the caller's
environment, so both sides of a comparison match.
"""

import os

from workloads import BLAS_THREADS, WORKLOADS, Workload

os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS  # read when numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from onepass import expected_records, import_hktlab, timed_pass  # noqa: E402
from speed import SpeedProbe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
PROBE_POINTS = 10
PROBE_COUNT_POINTS = 3


def child(*args) -> dict:
    """Runs onepass.py in a fresh interpreter; its last stdout line."""
    done = subprocess.run(
        [sys.executable, str(HERE / "onepass.py"), *map(str, args)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        env={**os.environ, "OPENBLAS_NUM_THREADS": BLAS_THREADS})
    sys.stderr.write(done.stderr)
    if done.returncode:
        raise RuntimeError(f"onepass.py {args} exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def scenario_seeds(workload: Workload, seed: int) -> list[int]:
    draw = random.Random(seed)
    return [draw.randrange(2 ** 32) for _ in range(workload.seeds)]


def run_rounds(name: str, seed: int, seconds: float) -> list[dict]:
    """Rounds of passes over the run's scenario seeds, one pass per seed
    each, until another round would likely end after `seconds`; at least
    one round."""
    seeds = scenario_seeds(WORKLOADS[name], seed)
    start = time.perf_counter()
    passes, rounds = [], []
    while True:
        t0 = time.perf_counter()
        passes += [child(name, s) for s in seeds]
        rounds.append(time.perf_counter() - t0)
        if (time.perf_counter() - start
                + statistics.median(rounds)) > seconds:
            return passes


def tail_percentile(values: list[float]):
    """Highest of p50..p99 with at least ten samples above it, or None."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * n)  # nearest-rank
        if n - rank >= 10:
            return {"p": p, "value": ordered[rank - 1]}
    return None


def probe_fields() -> tuple[int, dict]:
    """The ROADMAP baseline operators on the bpst total space potential,
    evaluated as the totspace records evaluate them (d Psi in real labels,
    the rest in frame labels).  Built from module attributes so that
    installed spans apply."""
    from hktlab import bundles, fields, total_space as tsm

    ts = tsm.total_space(bundles.get_connection("bpst"))
    psi = fields.scalar_field(ts.chart, lambda pt: tsm.psi(ts, pt))
    return ts.dim, {
        "d_psi": fields.exterior_d(psi).at,
        "del_psi": fields.del_hol(psi).frame_at,
        "delj_psi": fields.del_j(psi).frame_at,
        "deldbar_psi": fields.del_hol(fields.del_bar(psi)).frame_at,
        "deldelj_psi": fields.del_hol(fields.del_j(psi)).frame_at}


def probe(seed: int) -> dict:
    """Per-point seconds of each baseline operator (mean over the probe
    points, untraced) and the potential and coeff evaluations per
    del del_J Psi evaluation (traced)."""
    from hktlab import ScenarioConfig
    from hktlab.fields import sample_points
    from spans import Tracer

    dim, ops = probe_fields()
    pts = sample_points(ScenarioConfig(seed=seed).rng(), dim, PROBE_POINTS)
    out = {}
    for name, evaluate in ops.items():
        with SpeedProbe() as speed:
            t0 = time.perf_counter()
            for pt in pts:
                evaluate(pt)
            seconds = time.perf_counter() - t0
        out[f"fields.{name}.point_s"] = speed.normalise(seconds) / len(pts)
    tracer = Tracer()
    with tracer.installed():
        evaluate = probe_fields()[1]["deldelj_psi"]
        for pt in pts[:PROBE_COUNT_POINTS]:
            evaluate(pt)
    out["fields.deldelj_psi.potential_evals"] = (
        tracer.calls("total_space.psi") / PROBE_COUNT_POINTS)
    out["fields.deldelj_psi.coeff_evals"] = (
        tracer.calls("bundles.coeff") / PROBE_COUNT_POINTS)
    return out


def machine_notes(seed: int) -> dict:
    import numpy as np

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": f"OPENBLAS_NUM_THREADS={BLAS_THREADS}",
            "seed": seed}


def end_to_end(args, details) -> tuple[dict, list]:
    passes = run_rounds(args.workload, args.seed, args.seconds)
    imports = ([p["import_s"] for p in passes]
               + [child("--import-only")["import_s"]
                  for _ in range(max(0, SETUP_SAMPLES - len(passes)))])
    builds = [p["build_s"] for p in passes]
    verdicts = [p["verdict_s"] for p in passes]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    details.update(
        import_s=imports, build_s=builds, verdict_s=verdicts,
        wall_s=[p["wall_s"] for p in passes],
        pass_seeds=[p["seed"] for p in passes],
        speed=[p["speed"] for p in passes],
        verdict_tail=tail_percentile(verdicts),
        suite_s={s: statistics.median(p["suite_s"][s] for p in passes)
                 for s in WORKLOADS[args.workload].suites})
    values = {
        "verdict_s": statistics.median(verdicts),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(imports) + statistics.median(builds),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "pass_share": 1.0 - failed / attempted,
    }
    return values, passes


def per_layer(args, details) -> tuple[dict, list]:
    from hktlab.suites import SUITES
    from spans import Tracer

    workload = WORKLOADS[args.workload]
    passes = run_rounds(args.workload, args.seed, args.seconds)
    first = passes[0]
    tracer = Tracer()
    with tracer.installed():
        traced = timed_pass(workload, first["seed"],
                            expected_records(args.workload))
    calls = tracer.calls("duals.dconj")
    values = {
        "duals.levels": tracer.calls("duals.fresh_level"),
        "duals.dual_new": tracer.counters["duals.dual_new"],
        "duals.dconj.numpy_share":
            tracer.counters["duals.dconj.numpy"] / calls if calls else 0.0,
        "trace.overhead": traced["verdict_s"] / statistics.median(
            p["verdict_s"] for p in passes if p["seed"] == first["seed"]),
    }
    # Calibration slices land in whichever span is open (about 1% in all).
    for name, (n, self_s) in tracer.stats.items():
        values[name + ".calls"] = n
        values[name + ".self_s"] = self_s * traced["scale"]
    for suite in SUITES:
        values[f"suite_s.{suite}"] = (
            statistics.median(p["suite_s"][suite] for p in passes)
            if suite in workload.suites else 0.0)
    values.update(probe(args.seed))
    details.update(untraced_verdict_s=[p["verdict_s"] for p in passes],
                   pass_seeds=[p["seed"] for p in passes],
                   traced_verdict_s=traced["verdict_s"],
                   spans={k: v for k, v in sorted(tracer.stats.items())
                          if v[0]},
                   counters=tracer.counters)
    return values, passes + [traced]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hktlab" / "__init__.py").is_file():
        print(f"perfbench: no hktlab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        import_hktlab()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    details = {"workload": args.workload, "trace": args.trace,
               "scenario": workload.scenario,
               "scenario_seeds": scenario_seeds(workload, args.seed),
               "machine": machine_notes(args.seed)}
    if args.trace:
        values, passes = per_layer(args, details)
        listed = bench["per_layer"]
    else:
        values, passes = end_to_end(args, details)
        listed = bench["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    details["passes"] = len(passes)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
