"""The algebra suite at n=3, and its reduction of non-finite residuals."""

import math

from hktlab import suites
from hktlab.charts import flat_chart
from hktlab.suites import ScenarioConfig, Tolerances, algebra_records

# points and threshold of every n=3 record, as the sparse per-monomial
# suite reported them before the su(2) operators were cached as blocks;
# unit-spectra has since been bounded by the eigenvalue tolerance tol.casimir
# in place of a hard-coded 1e-5
N3_RECORDS = {
    "sl2-brackets": (4096, 1e-12),
    "su2-brackets": (12288, 1e-12),
    "unit-weight": (4096, 1e-12),
    "unit-spectra": (4096, 1e-9),
    "casimir-spectrum": (4096, 1e-9),
    "weight-projectors": (4096, 1e-12),
    "positive-dimension": (7, 1e-12),
    "r-omega": (1, 1e-12),
    "invariant-annihilated": (100, 1e-12),
    "noninvariant-detected": (100, 1.0),
    "r-kernel-invariant": (36, 1e-12),
    "ladder-normalization": (192, 1e-12),
    "antilinear-structure": (1, 1e-12),
    "cov-squares": (12288, 1e-12),
}


def test_algebra_n3_passes_with_unchanged_records():
    records = algebra_records(ScenarioConfig(n=3))
    assert [r.identity for r in records] == [
        f"{name}(n={n})" for n in (1, 2, 3) for name in N3_RECORDS]
    for r in records:
        assert r.passed and math.isfinite(r.value), r.identity
    for r in records[-len(N3_RECORDS):]:
        assert (r.points, r.threshold) == N3_RECORDS[r.identity[:-5]]


def test_nan_in_a_cached_block_fails_sl2(monkeypatch):
    def poisoned(n, unit="I"):
        chart = flat_chart(n, unit)
        chart.ctx.su2_blocks(2)[0].ops["R"][0, 0] = math.nan
        return chart

    monkeypatch.setattr(suites, "flat_chart", poisoned)
    records = {r.identity: r
               for r in algebra_records(ScenarioConfig(samples=1))}
    for n in (1, 2):
        r = records[f"sl2-brackets(n={n})"]
        assert math.isnan(r.value) and not r.passed
        assert records[f"su2-brackets(n={n})"].passed


def test_no_noninvariant_draw_fails_detection(monkeypatch):
    # every draw is the zero form: nothing to detect, so the margin sweep
    # is empty, reduces to inf, and must not pass
    monkeypatch.setattr(suites, "_rand_element", lambda monos, rng: {})
    records = {r.identity: r
               for r in algebra_records(ScenarioConfig(samples=1))}
    r = records["noninvariant-detected(n=1)"]
    assert r.value == math.inf and not r.passed
    assert r.points == 0
    assert records["invariant-annihilated(n=1)"].passed


def test_unit_spectra_bound_is_the_casimir_tolerance():
    # the spectra are compared unrounded, so their gap is a few ulps
    # (about 1e-15), and a casimir tolerance below it fails the record
    cfg = ScenarioConfig(samples=1, tol=Tolerances(casimir=1e-20))
    records = {r.identity: r for r in algebra_records(cfg)}
    for n in (1, 2):
        r = records[f"unit-spectra(n={n})"]
        assert r.threshold == 1e-20 and r.value < 1e-13
        assert not r.passed
