"""FAIL witnesses: a record claims something only if some fault can fail it.

Each entry names a record, one mathematically meaningful fault and a record
that does not depend on that fault.  The owning suite runs at 3 samples,
first as it is, where both records pass, then with the fault monkeypatched
in, where the record must FAIL with a finite value on the wrong side of
its bound (above it for a residual, below it for a margin) while the
unrelated record still passes.
"""

import math

import numpy as np
import pytest

from hktlab import bundles, exterior, fields, hopf, suites
from hktlab.exterior import eadd, element_from_antisym, escale, esub, wedge
from hktlab.fields import FormField
from hktlab.suites import (ScenarioConfig, algebra_records,
                           bicomplex_records, bundle_records, hopf_records,
                           qpos_records, totspace_records)
from hktlab.total_space import (del_j_psi_expr, del_psi_expr,
                                omega_hor_expr, omega_ver_canonical, psi)


def base_fiber_term(real):
    """The quotient form with a (2, 0) term pairing a base and a fiber
    direction, which the horizontal/vertical splitting forbids."""
    def faulty(h, pt):
        return eadd(real(h, pt), {(0, 2 * h.ts.n): 0.5})
    return faulty


def negated_log_part(real):
    """Omega_hor - del del_J log Psi: the log-potential term with the wrong
    sign, so the form is negative on the fiber."""
    def faulty(h, pt):
        omh = omega_hor_expr(h.ts)
        return eadd(omh, esub(omh, real(h, pt)))
    return faulty


def vertical_term(real):
    """The quotient form with its vertical term 2.2/Psi in place of 2/Psi."""
    def faulty(h, pt):
        return eadd(real(h, pt), escale(omega_ver_canonical(h.ts),
                                        0.2 / psi(h.ts, pt)))
    return faulty


def cross_term(real):
    """The quotient form with its cross term del Psi ^ del_J Psi / Psi^2
    times 1.1."""
    def faulty(h, pt):
        ts, p = h.ts, psi(h.ts, pt)
        cross = wedge(del_psi_expr(ts, pt), del_j_psi_expr(ts, pt))
        return esub(real(h, pt), escale(cross, 0.1 / (p * p)))
    return faulty


def times(value, k):
    """value, a number, an element, a field or nested lists of elements,
    times k."""
    if isinstance(value, list):
        return [times(x, k) for x in value]
    if isinstance(value, FormField):
        return FormField(value.chart, value.degree,
                         lambda pt: escale(value.frame_at(pt), k))
    return escale(value, k) if isinstance(value, dict) else k * value


def negated(real):
    """real with the wrong sign: the probe pairing eta(x, J conj y), the
    curvature correction of del dbar of the fiber norm, or the candidate HKT
    form's horizontal part, which makes the form negative on the base."""
    return lambda *args: times(real(*args), -1)


def scaled(real):
    """real off by 1%.  The natural metric so scaled is not the euclidean one
    on the flat bundle, though still invariant under I, J and K, and its
    norm of d Psi is off by 1%; frame coefficients so scaled no longer
    convert back to the real ones; the vertical canonical form no longer
    matches del del_J of the fiber norm; the quaternionic conjugation
    squares to 1.0201 and no longer symmetrizes to a q-real form; the Gram
    matrix no longer matches the pairing; the
    hyperhermitian projection is no longer idempotent; the closed forms of
    del and del_J of the fiber norm no longer match it; the curvature
    element no longer matches d of the covariant fiber coframe, and the
    curvature that Bianchi reads no longer matches its derivatives.  A field
    operator so scaled breaks del del_J = R del dbar (dbar), the moment
    potential's del del_J |x|^2 = 2 omega (del_J) and d_plus = del on
    (p, 0) fields (d_plus)."""
    return lambda *args: times(real(*args), 1.01)


def unconjugated_del_j(real):
    """del_J as (-1)^p dbar, without its cov_J conjugation: it lands in
    (p, 1) in place of (p + 1, 0), so del no longer anticommutes with it."""
    return lambda field: times(fields.del_bar(field), (-1) ** field.degree)


def unnormalized_ladder(real):
    """The ladder constant divided by p + q + 1, so R^q / c_{p,q} no longer
    inverts Rbar^q and the refined differentials miss their factors."""
    return lambda p, q: real(p, q) / (p + q + 1)


def dropped_m(real):
    """omega_from_gram without its M factor: the antisymmetric part of G
    itself, whose Gram matrix is not Hermitian."""
    return lambda ctx, G: element_from_antisym(G)


def quartic_part(real):
    """The curvature correction times 1 + Psi/100: a quartic part in the
    fiber beside the quadratic one."""
    return lambda ts, pt: escale(real(ts, pt), 1.0 + 0.01 * psi(ts, pt))


def constant_term(real):
    """The curvature correction plus the constant real 2-form
    dx0 ^ dx4 / 100, which pairs a base with a fiber direction: R does not
    kill it, and it is not its own invariant part."""
    return lambda ts, pt: eadd(real(ts, pt), {(0, 4): 0.01})


def plus_a_wedge(label, coord):
    """A field operator D plus A ^ (its argument), where the 1-form A is
    x_coord times the frame covector of `label`.  D squares to 0 and obeys
    the Leibniz rule, so the faulty operator squares to D(A) ^, not to 0,
    wherever D(A) is not 0.  For del_J that needs x0 with theta0: its
    del_J(x2 theta0) is 0."""
    def patch(real):
        def faulty(field):
            op = real(field)
            return FormField(op.chart, op.degree, lambda pt: eadd(
                op.frame_at(pt), wedge({(label,): pt[coord]},
                                       field.frame_at(pt))))
        return faulty
    return patch


def plus(term):
    """real plus the constant element term: on the candidate HKT form's
    horizontal part, 0.5i dx0 ^ dx1 breaks q-reality and the base-fiber
    0.5 theta0 ^ theta2 breaks del-closedness."""
    return lambda real: lambda *args: eadd(real(*args), term)


def bumped(real):
    """The natural metric plus 0.01 in its dx0 dx0 entry: still symmetric
    and positive, but no longer invariant under I, J and K."""
    def faulty(ts, pt):
        g = real(ts, pt)
        g[..., 0, 0] += 0.01
        return g
    return faulty


def stretched(real):
    """The horizontal lift of 1.01 u in place of u's: no longer orthonormal
    for orthonormal u."""
    return lambda ts, pt, u: real(ts, pt, 1.01 * np.asarray(u))


def scaled_structure(real):
    """Each lifted structure L times 1.01, its derivative left as it is: L
    then squares to -1.0201."""
    def faulty(ts, unit):
        field = real(ts, unit)

        def scaled_field(pt):
            L, dL = field(pt)
            return 1.01 * L, dL
        return scaled_field
    return faulty


def matrix_fault(name, k):
    """_one_form_matrices with the 1-form matrix of the generator `name`
    multiplied by k, so every structure context built under the patch
    reads the fault in its dense blocks and in its sparse tables alike."""
    def patch(real):
        def faulty(M):
            A = real(M)
            A[exterior._GENERATORS.index(name)] *= k
            return A
        return faulty
    return patch


# identity -> (runner, bundle, unrelated identity, module, name, fault); an
# identity that two suites report is keyed identity@suite for the second one
WITNESSES = {
    "d-squared": (
        bicomplex_records, "bpst", "del-squared", suites, "exterior_d",
        plus_a_wedge(0, 2)),
    "del-squared": (
        bicomplex_records, "bpst", "d-squared", suites, "del_hol",
        plus_a_wedge(0, 2)),
    "dbar-squared": (
        bicomplex_records, "bpst", "d-squared", suites, "del_bar",
        plus_a_wedge(2, 2)),
    "delj-squared": (
        bicomplex_records, "bpst", "d-squared", suites, "del_j",
        plus_a_wedge(0, 0)),
    "ddj-r-transfer": (
        bicomplex_records, "bpst", "d-squared", suites, "del_bar", scaled),
    "moment-potential": (
        bicomplex_records, "bpst", "d-squared", suites, "del_j", scaled),
    "dplus-is-del": (
        bicomplex_records, "bpst", "d-squared", suites, "d_plus", scaled),
    "del-delj-anticommute": (
        bicomplex_records, "bpst", "d-squared", suites, "del_j",
        unconjugated_del_j),
    "ladder-correspondence-prime": (
        bicomplex_records, "bpst", "d-squared", fields, "ladder_constant",
        unnormalized_ladder),
    "ladder-correspondence-second": (
        bicomplex_records, "bpst", "d-squared", fields, "ladder_constant",
        unnormalized_ladder),
    "horizontal-vertical-orthogonal": (
        hopf_records, "bpst", "potential-homogeneity", hopf,
        "omega_tilde_expr", base_fiber_term),
    "cauchy-orthogonal-probe": (
        hopf_records, "direct-sum", "omega-qreal", suites, "hermitian_pair",
        negated),
    "positivity-agreement": (
        hopf_records, "bpst", "omega-qreal", hopf, "omega_tilde_expr",
        negated_log_part),
    "log-potential-identity": (
        hopf_records, "bpst", "potential-homogeneity", hopf,
        "omega_tilde_expr", vertical_term),
    "cauchy-tight-rank2": (
        hopf_records, "bpst", "potential-homogeneity", hopf,
        "omega_tilde_expr", vertical_term),
    "del-closed": (
        hopf_records, "direct-sum", "potential-homogeneity", hopf,
        "omega_tilde_expr", vertical_term),
    "vertical-blowup-rate": (
        hopf_records, "bpst", "potential-homogeneity", hopf,
        "omega_tilde_expr", cross_term),
    "cauchy-lower": (
        hopf_records, "bpst", "potential-homogeneity", hopf,
        "omega_tilde_expr", cross_term),
    "bianchi(bpst)": (
        bundle_records, "bpst", "curvature-invariance(bpst)", bundles,
        "curvature", scaled),
    "structure-equation": (
        totspace_records, "bpst", "deldelj-potential", suites,
        "_curvature_element", scaled),
    "deldbar-potential": (
        totspace_records, "bpst", "deldelj-potential", suites,
        "xi_curv_expr", negated),
    "del-potential": (
        totspace_records, "bpst", "deldelj-potential", suites,
        "del_psi_expr", scaled),
    "delj-potential": (
        totspace_records, "bpst", "deldelj-potential", suites,
        "del_j_psi_expr", scaled),
    "r-omega-ver": (
        totspace_records, "bpst", "deldelj-potential", suites,
        "omega_ver_expr", scaled),
    "curvature-term-quadratic": (
        totspace_records, "bpst", "deldelj-potential", suites,
        "xi_curv_expr", quartic_part),
    "curvature-term-weightless": (
        totspace_records, "bpst", "deldelj-potential", suites,
        "xi_curv_expr", constant_term),
    "curvature-term-invariant": (
        totspace_records, "bpst", "deldelj-potential", suites,
        "xi_curv_expr", constant_term),
    "frame-roundtrip": (
        totspace_records, "bpst", "deldelj-potential", suites, "to_frame",
        scaled),
    "deldelj-potential": (
        totspace_records, "bpst", "del-potential", suites,
        "omega_ver_canonical", scaled),
    "r-transfer": (
        totspace_records, "bpst", "deldelj-potential", suites, "del_bar",
        scaled),
    "del-closed@totspace": (
        totspace_records, "bpst", "deldelj-potential", suites,
        "omega_hor_expr", plus({(0, 2): 0.5})),
    "omega-qreal": (
        totspace_records, "bpst", "deldelj-potential", suites,
        "omega_hor_expr", plus({(0, 1): 0.5j})),
    "omega-qpositive": (
        totspace_records, "bpst", "deldelj-potential", suites,
        "omega_hor_expr", negated),
    "metric-invariance": (
        totspace_records, "bpst", "quaternion-relations", suites,
        "natural_metric", bumped),
    "quaternion-relations": (
        totspace_records, "bpst", "metric-splitting", suites,
        "structure_matrix_field", scaled_structure),
    "metric-splitting": (
        totspace_records, "bpst", "quaternion-relations", suites,
        "horizontal_lift", stretched),
    "potential-gradient-norm": (
        totspace_records, "bpst", "quaternion-relations", suites,
        "natural_metric", scaled),
    "metric-flat-identity": (
        totspace_records, "flat", "quaternion-relations", suites,
        "natural_metric", scaled),
    "unit-weight(n=1)": (
        algebra_records, "bpst", "sl2-brackets(n=1)", exterior,
        "_one_form_matrices", matrix_fault("L_I", 1.01)),
    "cov-squares(n=1)": (
        algebra_records, "bpst", "sl2-brackets(n=1)", exterior,
        "_one_form_matrices", matrix_fault("cov_J", 1.01)),
    "su2-brackets(n=1)": (
        algebra_records, "bpst", "sl2-brackets(n=1)", exterior,
        "_one_form_matrices", matrix_fault("L_K", -1)),
    "unit-spectra(n=1)": (
        algebra_records, "bpst", "sl2-brackets(n=1)", exterior,
        "_one_form_matrices", matrix_fault("L_J", 1.01)),
    "casimir-spectrum(n=1)": (
        algebra_records, "bpst", "su2-brackets(n=1)", exterior,
        "_one_form_matrices", matrix_fault("Rb", 1.01)),
    "weight-projectors(n=1)": (
        algebra_records, "bpst", "su2-brackets(n=1)", exterior,
        "_one_form_matrices", matrix_fault("Rb", 1.01)),
    "positive-dimension(n=1)": (
        algebra_records, "bpst", "su2-brackets(n=1)", exterior,
        "_one_form_matrices", matrix_fault("Rb", 1.01)),
    "ladder-normalization(n=1)": (
        algebra_records, "bpst", "su2-brackets(n=1)", exterior,
        "_one_form_matrices", matrix_fault("Rb", 1.01)),
    "conj-involution(m=2)": (
        qpos_records, "bpst", "roundtrip-metric(m=2)", suites,
        "quaternionic_conj", scaled),
    "qreal-gram-hermitian(m=2)": (
        qpos_records, "bpst", "hermitian-gram-qreal(m=2)", suites,
        "quaternionic_conj", scaled),
    "hermitian-gram-qreal(m=2)": (
        qpos_records, "bpst", "conj-involution(m=2)", suites,
        "omega_from_gram", dropped_m),
    "hyperhermitian-structure(m=2)": (
        qpos_records, "bpst", "conj-involution(m=2)", suites,
        "hyperhermitian_project", scaled),
    "pairing-gram(m=2)": (
        qpos_records, "bpst", "conj-involution(m=2)", suites, "gram",
        scaled),
}


@pytest.mark.parametrize("key", sorted(WITNESSES))
def test_fault_fails_its_record(monkeypatch, key):
    runner, bundle, unrelated, module, name, fault = WITNESSES[key]
    identity = key.partition("@")[0]
    cfg = ScenarioConfig(bundle=bundle, samples=3, probes=3)

    def run():
        return {r.identity: r for r in runner(cfg)}

    clean = run()
    assert clean[identity].passed and clean[unrelated].passed
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    records = run()
    record = records[identity]
    assert math.isfinite(record.value) and not record.passed, record
    if record.kind == "margin":
        assert record.value < record.threshold, record
    else:
        assert record.value > record.threshold, record
    assert records[unrelated].passed
