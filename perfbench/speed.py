"""Machine-speed normalisation for timings taken on a shared host.

On a small shared VM the interpreter's speed drifts by tens of percent from
one second to the next: the per-second median of a fixed pure-Python loop
ranged over about 1.6x in half a minute.  Every time the benchmark reports
is therefore taken under a `SpeedProbe`, which times a fixed calibration
loop from a SIGALRM handler every `PERIOD_S` of wall time, so the samples
are spread over the measured interval itself.  A measured interval becomes

    sum over windows of (window seconds outside calibration)
                        * reference seconds / median sample of the window

that is, seconds at the speed at which the loop takes its reference
seconds (LOOPS).  A slower program still reads slower; a slower machine
does not.  Windows of about half a second follow the machine's speed as it
changes within a long pass; the median, not the mean, so that one long
stall inside a sample (a garbage-collection pass, a preempted vCPU) does not
move the scale.  Each workload names the loop whose speed tracks its own
(workloads.py).  The calibration loops never touch hktlab.
"""

from __future__ import annotations

import functools
import signal
import statistics
import time

LOOP = 150
DENSE_N = 16
PERIOD_S = 0.02
WINDOW = 25  # samples per scaling window, about half a second


class _Pair:
    """A first-order dual number over complex values."""

    __slots__ = ("val", "dot")

    def __init__(self, val, dot):
        self.val = val
        self.dot = dot

    def __mul__(self, other):
        return _Pair(self.val * other.val,
                     self.val * other.dot + self.dot * other.val)

    def __add__(self, other):
        return _Pair(self.val + other.val, self.dot + other.dot)


def dual_loop() -> _Pair:
    """Allocation-heavy object arithmetic, like the program's Dual paths.

    Of the loops tried (float arithmetic, tuple sorting into a dict, a walk
    over a 20 MB object list, this one), this one tracked a fixed bicomplex
    pass most closely across machine-speed swings.
    """
    x = _Pair(0.999 + 0.001j, 1.0)
    acc = _Pair(1.0 + 0j, 0.0)
    for _ in range(LOOP):
        acc = acc * x + x
    return acc


@functools.cache
def _dense_matrix():
    import numpy as np  # lazily: onepass.py times importing hktlab and numpy

    k = np.arange(DENSE_N)
    return np.exp(0.7j * np.outer(k, k)) + np.diag(k)


def dense_loop():
    """Eigenvalues of a fixed 16x16 complex matrix, through numpy.

    The algebra workload (sparse exterior work on large dicts plus dense
    eigvals) sped up and slowed down only about half as much as dual_loop
    did; in alternating timings on a 2-vCPU Xeon this loop tracked both its
    Python and its eigvals share most closely.
    """
    import numpy as np

    return np.linalg.eigvals(_dense_matrix())


# name -> (calibration loop, its seconds at reference speed); the reference
# seconds are fixed once for all comparisons.
LOOPS = {"dual": (dual_loop, 150e-6), "dense": (dense_loop, 180e-6)}


class SpeedProbe:
    """Samples the calibration loop every PERIOD_S while the block runs.

    Signal handlers run only in the main thread, between bytecodes, so a
    sample waits for a long native call (an eigensolver) to return.
    """

    def __init__(self, loop: str = "dual"):
        self._loop, self.reference_s = LOOPS[loop]
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.spent = 0.0
        self.factor = 1.0
        self._previous = None
        self._start = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._loop()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "SpeedProbe":
        self._loop()  # first call outside the block: lazy set-up, warm-up
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.samples = [s for s in self.samples if s[0] < end]
        self.spent = sum(d for _, d in self.samples)
        if self.samples:
            self.factor = self._factor(end)
        else:  # block shorter than one period: one sample after it
            self._sample(None, None)
            self.factor = self.reference_s / self.samples[0][1]

    def _factor(self, end: float) -> float:
        """Reference seconds per measured second, over the whole block.

        The block is cut into windows of WINDOW samples (the last takes the
        remainder); each window's time outside calibration is scaled by the
        median of its own samples, so a block whose speed changed part way
        through is scaled piece by piece.
        """
        durations = [d for _, d in self.samples]
        cuts = list(range(0, len(durations), WINDOW))
        if len(cuts) > 1 and len(durations) - cuts[-1] < WINDOW:
            cuts.pop()
        cuts.append(len(durations))
        bounds = ([self._start] + [self.samples[i][0] for i in cuts[1:-1]]
                  + [end])
        work = scaled = 0.0
        for k in range(len(cuts) - 1):
            chunk = durations[cuts[k]:cuts[k + 1]]
            own = bounds[k + 1] - bounds[k] - sum(chunk)
            work += own
            scaled += own * self.reference_s / statistics.median(chunk)
        if work <= 0:  # calibration filled the block
            return self.reference_s / statistics.median(durations)
        return scaled / work

    def normalise(self, seconds: float) -> float:
        """`seconds` measured over the block, minus calibration, at
        reference speed."""
        return (seconds - self.spent) * self.factor

    def notes(self) -> dict:
        """Sample count, scale factor and median and largest sample in
        microseconds."""
        durations = [d for _, d in self.samples]
        return {"samples": len(durations), "factor": self.factor,
                "median_us": statistics.median(durations) * 1e6,
                "max_us": max(durations) * 1e6}
