"""The benchmark's workloads: a fixed scenario, the suites one pass runs,
and how many scenario seeds one run cycles through.

Sample counts follow the suites' own floors.  At 20 samples the bpst sweep
of totspace (22 points, 20 Nijenhuis points) matches its flat control
(22 points, 20 Nijenhuis points); on a 2-vCPU Xeon the bpst half took 75% of
the suite's time.  flat-bicomplex at 20 samples spends about 8% of a pass in
the fixed part (the three-point moment check at n=1 and the three-point n=2
ladder).  algebra-n3 does not scale with `samples`; its pass is about 30 s
on one BLAS thread.

A bicomplex pass's work depends on its random polynomials, so flat-bicomplex
times several scenario seeds per run; geometry and algebra passes do the
same work at any seed.  `loop` names the calibration loop of speed.py whose
speed follows the workload's own.
"""

from __future__ import annotations

from dataclasses import dataclass

# BLAS threads of every process the benchmark runs; set before numpy loads.
BLAS_THREADS = "1"


@dataclass(frozen=True)
class Workload:
    scenario: dict
    suites: tuple
    seeds: int  # scenario seeds per run; each round runs one pass of each
    loop: str  # speed.LOOPS key


WORKLOADS = {
    "geometry-bpst": Workload(dict(n=1, bundle="bpst", q=2.0, samples=20),
                              ("bundle", "totspace", "hopf"), 1, "dual"),
    "flat-bicomplex": Workload(dict(n=1, samples=20), ("bicomplex",), 5,
                               "dual"),
    "algebra-n3": Workload(dict(n=3, samples=1), ("algebra", "qpos"), 1,
                           "dense"),
}
