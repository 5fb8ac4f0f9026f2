import collections
import dataclasses

import numpy as np
import pytest

from hktlab.bundles import get_connection
from hktlab.charts import Chart, to_frame, to_real
from hktlab.duals import Point
from hktlab.exterior import eadd, enorm, escale, esub
from hktlab.fields import (FormField, del_bar, del_hol, del_j,
                           nijenhuis_residual, sample_points, scalar_field)
from hktlab.total_space import (del_j_psi_expr, del_psi_expr, horizontal_lift,
                                natural_metric, omega_hor_expr,
                                omega_ver_canonical, omega_ver_expr, psi,
                                structure_matrix_field, total_space,
                                xi_curv_expr)


@pytest.fixture(scope="module")
def ts():
    return total_space(get_connection("bpst"))


@pytest.fixture(scope="module")
def flat_ts():
    return total_space(get_connection("flat"))


def test_dimensions(ts):
    assert ts.dim == 8
    assert ts.ctx.m == 4
    assert ts.fiber_values([0.0] * 4 + [1.0, 2.0, 3.0, 4.0]) == [1 + 2j, 3 + 4j]


def test_frame_roundtrip(ts, rng):
    for pt in sample_points(rng, 8, 5):
        el = {(i,): complex(rng.standard_normal(), rng.standard_normal())
              for i in range(8)}
        back = to_real(ts.chart, to_frame(ts.chart, el, pt), pt)
        assert enorm(esub(back, el)) < 1e-12


def test_potential_first_derivatives(ts, rng):
    psi_f = scalar_field(ts.chart, lambda pt: psi(ts, pt))
    dp = del_hol(psi_f)
    dj = del_j(psi_f)
    for pt in sample_points(rng, 8, 4):
        assert enorm(esub(dp.frame_at(pt), del_psi_expr(ts, pt))) < 1e-12
        assert enorm(esub(dj.frame_at(pt), del_j_psi_expr(ts, pt))) < 1e-12


def test_potential_second_derivatives(ts, rng):
    psi_f = scalar_field(ts.chart, lambda pt: psi(ts, pt))
    ddbar = del_hol(del_bar(psi_f))
    ddj = del_hol(del_j(psi_f))
    target = escale(omega_ver_canonical(ts), 2.0)
    for pt in sample_points(rng, 8, 4):
        rhs = eadd(omega_ver_expr(ts), to_frame(ts.chart, xi_curv_expr(ts, pt), pt))
        assert enorm(esub(ddbar.frame_at(pt), rhs)) < 1e-10
        assert enorm(esub(ddj.frame_at(pt), target)) < 1e-10
        # and the raising operator carries one identity to the other
        assert enorm(esub(ddj.frame_at(pt),
                          ts.ctx.raising(ddbar.frame_at(pt)))) < 1e-10


def counted_total_space(calls):
    """bpst total space whose chart tables, coeff and potential count their
    calls into `calls`; returns (chart, potential field)."""
    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    conn = get_connection("bpst")
    cts = total_space(dataclasses.replace(conn,
                                          coeff=counted("coeff", conn.coeff)))
    ch = cts.chart
    chart = Chart(ch.dim, ch.ctx, counted("frame", ch.frame_table),
                  counted("inverse", ch.inverse_table), ch.name)
    return chart, scalar_field(chart, counted("psi", lambda pt: psi(cts, pt)))


def test_scalar_conversions_build_no_table(rng):
    calls = collections.Counter()
    chart, _ = counted_total_space(calls)
    pt = Point(sample_points(rng, 8, 1)[0])
    for el in ({(): 2.5 - 1j}, {}):
        assert to_frame(chart, el, pt) == el
        assert to_real(chart, el, pt) == el
    assert calls == {}


def test_one_form_conversions_build_each_table_once_per_point(rng):
    calls = collections.Counter()
    chart, _ = counted_total_space(calls)
    el = {(0,): 1.5, (5,): 2j}
    for k, coords in enumerate(sample_points(rng, 8, 2), start=1):
        pt = Point(coords)
        for _ in range(2):
            to_frame(chart, el, pt)
            to_real(chart, el, pt)
        assert calls == {"frame": k, "inverse": k, "coeff": k}


def check_second_order_counts(rng, inner):
    # one seeded pass per direction and level: 8 x 8 potential runs; the 64
    # innermost values are scalars, which need no table; the inverse table
    # (dx_i in frame labels) is built at each of the 1 + 8 points above them,
    # the frame table only at the 8 seeds, whose values are 1-forms whose
    # coframe moves, and coeff once per point for both
    calls = collections.Counter()
    _, psi_f = counted_total_space(calls)
    op = del_hol(inner(psi_f))
    for pt in sample_points(rng, 8, 2):
        calls.clear()
        op.frame_at(pt)
        assert calls == {"psi": 64, "coeff": 9, "frame": 8, "inverse": 9}


def test_deldelj_potential_evaluation_counts(rng):
    check_second_order_counts(rng, del_j)


def test_deldbar_potential_evaluation_counts(rng):
    check_second_order_counts(rng, del_bar)


def test_point_memo_does_not_leak_between_points(ts, rng):
    psi_f = scalar_field(ts.chart, lambda pt: psi(ts, pt))
    ddj = del_hol(del_j(psi_f))
    a, b = sample_points(rng, 8, 2)
    first = ddj.frame_at(a)
    other = ddj.frame_at(b)
    again = ddj.frame_at(a)
    assert repr(again) == repr(first)
    assert repr(other) != repr(first)


def test_curvature_term_vanishes_on_zero_section(ts, rng):
    pt = list(rng.standard_normal(4)) + [0.0] * 4
    assert enorm(xi_curv_expr(ts, pt)) == 0.0
    psi_f = scalar_field(ts.chart, lambda p: psi(ts, p))
    ddbar = del_hol(del_bar(psi_f))
    assert enorm(esub(ddbar.frame_at(pt), omega_ver_expr(ts))) < 1e-10


def test_curvature_term_nonzero_and_quadratic(ts, rng):
    pt = [0.4, -0.2, 0.5, 0.1, 1.0, 0.5, -0.3, 0.8]
    xi = xi_curv_expr(ts, pt)
    assert enorm(xi) > 1e-3
    doubled = list(pt)
    doubled[4:] = [2.0 * x for x in doubled[4:]]
    assert enorm(esub(xi_curv_expr(ts, doubled), escale(xi, 4.0))) < 1e-12
    fr = to_frame(ts.chart, xi, pt)
    assert enorm(ts.ctx.raising(fr)) < 1e-12
    assert enorm(esub(fr, ts.ctx.invariant_part(fr))) < 1e-12


def test_flat_total_space_has_no_curvature_term(flat_ts, rng):
    for pt in sample_points(rng, 8, 3):
        assert enorm(xi_curv_expr(flat_ts, pt)) == 0.0


def test_candidate_form_is_del_closed(ts, rng):
    omega_el = eadd(omega_hor_expr(ts), escale(omega_ver_canonical(ts), 2.0))
    om_f = FormField(ts.chart, 2, lambda pt: omega_el)
    dom = del_hol(om_f)
    for pt in sample_points(rng, 8, 3):
        assert enorm(dom.at(pt)) < 1e-10


def test_natural_metric_flat_case(flat_ts, rng):
    for pt in sample_points(rng, 8, 3):
        g = natural_metric(flat_ts, pt)
        assert np.max(np.abs(g - np.eye(8))) < 1e-14


def test_natural_metric_splitting(ts, rng):
    for pt in sample_points(rng, 8, 3):
        g = natural_metric(ts, pt)
        # vertical coordinate vectors stay orthonormal
        assert np.max(np.abs(g[4:, 4:] - np.eye(4))) < 1e-12
        # horizontal lifts are g-orthogonal to them and carry the base metric
        u = rng.standard_normal(4)
        w = rng.standard_normal(4)
        hu = np.array(horizontal_lift(ts, pt, list(u)))
        hw = np.array(horizontal_lift(ts, pt, list(w)))
        assert np.max(np.abs(g[4:, :] @ hu)) < 1e-12
        assert hu @ g @ hw == pytest.approx(float(u @ w), abs=1e-12)


def test_structure_quaternion_relations(ts, rng):
    mats = {u: structure_matrix_field(ts, u) for u in ("I", "J", "K")}
    for pt in sample_points(rng, 8, 3):
        L = {u: np.array(mats[u](pt), dtype=float) for u in mats}
        for u in mats:
            assert np.max(np.abs(L[u] @ L[u] + np.eye(8))) < 1e-12
        assert np.max(np.abs(L["I"] @ L["J"] - L["K"])) < 1e-12
        assert np.max(np.abs(L["J"] @ L["I"] + L["K"])) < 1e-12


def test_structures_preserve_metric_and_lifts(ts, rng):
    mats = {u: structure_matrix_field(ts, u) for u in ("I", "J", "K")}
    from hktlab.quaternions import hypercomplex_matrices

    base = hypercomplex_matrices(1)
    for pt in sample_points(rng, 8, 2):
        g = natural_metric(ts, pt)
        for u in mats:
            L = np.array(mats[u](pt), dtype=float)
            assert np.max(np.abs(L.T @ g @ L - g)) < 1e-12
            v = rng.standard_normal(4)
            lifted = np.array(horizontal_lift(ts, pt, list(v)))
            rotated = np.array(horizontal_lift(ts, pt, list(base[u] @ v)))
            assert np.max(np.abs(L @ lifted - rotated)) < 1e-12


def test_lifted_structures_are_integrable(ts, rng):
    mats = {u: structure_matrix_field(ts, u) for u in ("I", "J", "K")}
    for pt in sample_points(rng, 8, 2):
        for u in mats:
            assert nijenhuis_residual(mats[u], pt, 8) < 1e-8


def test_potential_gradient_norm(ts, rng):
    # |d Psi|^2 in the inverse natural metric is 4 Psi
    for pt in sample_points(rng, 8, 4):
        g = natural_metric(ts, pt)
        w = np.zeros(8)
        w[4:] = 2.0 * np.array(pt[4:])
        val = w @ np.linalg.solve(g, w)
        assert val == pytest.approx(4.0 * psi(ts, pt), rel=1e-10)


def test_totspace_builds_each_curvature_once_per_sample(monkeypatch):
    # per sweep of 20 samples: one build at each sample (shared by the
    # structure equation, the potential family and the curvature term), one
    # at each of the 2 zero-fiber copies and one at each of the 20
    # fiber-doubled twins
    from hktlab import bundles
    from hktlab.suites import ScenarioConfig, totspace_records

    builds = collections.Counter()
    real = bundles.curvature

    def counted(conn, pt):
        builds[conn.name] += 1
        return real(conn, pt)

    monkeypatch.setattr(bundles, "curvature", counted)
    records = totspace_records(ScenarioConfig(samples=20))
    assert all(r.passed for r in records)
    assert builds == {"bpst": 42, "flat": 42}
