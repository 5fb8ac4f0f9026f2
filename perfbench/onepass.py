"""One pass of a workload in a fresh interpreter, as one `hktlab` run is.

    python3 perfbench/onepass.py <workload> <scenario-seed>
    python3 perfbench/onepass.py --import-only

Imports hktlab from `src/` of the checkout, runs the workload's suites
through `run_suite` and prints one JSON line: the import seconds, the
pass's verdict, CPU, per-suite and constructor seconds (all at reference
speed, speed.py), its peak RSS and its graded records.  Any memo the program
fills on first use is paid inside the pass, as in a real run.  With
`--import-only` it prints only the import seconds.

The constructors of spans.BUILDERS are spanned during the pass, so their
time (charts, StructureContexts, connections, total spaces, Hopf data) is
measured where the suites call them, not rebuilt from a list.
"""

from __future__ import annotations

import os

from workloads import BLAS_THREADS, WORKLOADS, Workload

os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS  # read when numpy loads

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedProbe  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def expected_records(name: str) -> dict:
    return json.loads((HERE / "expected_records.json").read_text())[name]


def grade(report, expected: dict) -> tuple[int, int]:
    """(records attempted, records failed) for one suite call.

    A call that raised counts every expected record as failed; so does a
    missing record, a failing or non-finite one, or one whose threshold is
    looser than the seed's.  Records the seed did not have count as failed.
    """
    if report is None:
        return len(expected), len(expected)
    seen = Counter(r.identity for r in report.records)
    extra = sum((seen - Counter(iter(expected))).values())
    good = set()
    for r in report.records:
        if r.identity not in expected:
            continue
        kind, threshold = expected[r.identity]
        no_looser = (r.threshold <= threshold if kind == "residual"
                     else r.threshold >= threshold)
        if (r.kind == kind and no_looser and r.passed
                and math.isfinite(r.value)):
            good.add(r.identity)
    failed = sum(1 for ident in expected if ident not in good) + extra
    return len(expected) + extra, failed


def import_hktlab() -> float:
    """Import hktlab from the checkout; seconds at reference speed."""
    with SpeedProbe() as speed:
        t0 = time.perf_counter()
        sys.path.insert(0, str(SRC))
        import hktlab
        seconds = time.perf_counter() - t0
    if Path(hktlab.__file__).resolve().parent != SRC / "hktlab":
        raise ImportError(f"imported hktlab from {hktlab.__file__}, "
                          f"not from {SRC}")
    return speed.normalise(seconds)


def timed_pass(workload: Workload, seed: int, expected: dict) -> dict:
    """Runs the workload's suites once at scenario seed `seed`.

    Times are at reference speed; `wall_s` is the raw wall time.  A suite
    call that raises is printed to stderr and graded as all failed.
    """
    from hktlab import ScenarioConfig, run_suite

    reports, suite_wall = {}, {}
    with SpeedProbe(workload.loop) as speed:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for suite in workload.suites:
            cfg = ScenarioConfig(seed=seed, **workload.scenario)
            ts = time.perf_counter()
            try:
                reports[suite] = run_suite(cfg, suite)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                reports[suite] = None
            suite_wall[suite] = time.perf_counter() - ts
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
    verdict_s = speed.normalise(wall_s)
    scale = verdict_s / wall_s
    attempted = failed = 0
    for suite in workload.suites:
        a, f = grade(reports[suite], expected[suite])
        attempted += a
        failed += f
    return {"seed": seed, "wall_s": wall_s, "verdict_s": verdict_s,
            "scale": scale, "cpu_s": speed.normalise(cpu_s),
            "suite_s": {s: t * scale for s, t in suite_wall.items()},
            "attempted": attempted, "failed": failed,
            "speed": speed.notes()}


def main(argv) -> int:
    if argv == ["--import-only"]:
        print(json.dumps({"import_s": import_hktlab()}))
        return 0
    name, seed = argv[0], int(argv[1])
    import_s = import_hktlab()
    from spans import BUILDERS, Tracer

    builders = Tracer(only=BUILDERS)
    with builders.installed():
        result = timed_pass(WORKLOADS[name], seed, expected_records(name))
    result["import_s"] = import_s
    result["build_s"] = result["scale"] * sum(
        self_s for _, self_s in builders.stats.values())
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
