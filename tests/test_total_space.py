import collections
import dataclasses

import numpy as np
import pytest

from hktlab import bundles, duals, suites
from hktlab.bundles import catalog_names, get_connection
from hktlab.charts import Chart, to_frame, to_real
from conftest import dre
from hktlab.duals import Point, dconj, dot_part, fresh_level, seed_unit
from hktlab.exterior import eadd, enorm, escale, esub
from hktlab.fields import (FormField, del_bar, del_hol, del_j,
                           nijenhuis_residual, sample_points, scalar_field,
                           stack_points)
from hktlab.total_space import (del_j_psi_expr, del_psi_expr, horizontal_lift,
                                natural_metric, omega_hor_expr,
                                omega_ver_canonical, omega_ver_expr, psi,
                                real_coframe_matrix,
                                structure_matrix_field, total_space,
                                xi_curv_expr)
from hktlab.quaternions import hypercomplex_matrices
from hktlab.suites import ScenarioConfig, totspace_records


# ----- reference: the lifted structures on nested dual numbers -----
#
# The structure column by column from conn.coeff, in plain Python arithmetic
# that dual numbers flow through, and d_l of any such matrix field from one
# seeded evaluation per direction.  It shares no code with the numpy jet of
# total_space.structure_matrix_field.

def reference_structure_field(ts, unit, correction=True):
    """pt -> L as nested lists; correction=False drops the A(L u) v term."""
    n, r, dim = ts.n, ts.rank, ts.dim
    Lbase = hypercomplex_matrices(n)[unit].tolist()
    Mf = np.asarray(ts.conn.mfib, dtype=complex).tolist()

    def fiber_action(w):
        if unit == "I":
            return [1j * x for x in w]
        jw = [sum(Mf[a][b] * dconj(w[b]) for b in range(r)) for a in range(r)]
        return jw if unit == "J" else [1j * x for x in jw]

    def field(pt):
        A = ts.conn.coeff(pt)
        v = ts.fiber_values(pt)
        av = [[sum(A[mu][a][b] * v[b] for b in range(r))
               for mu in range(4 * n)] for a in range(r)]
        cols = []
        for c in range(dim):
            u = [0.0] * (4 * n)
            w = [0.0] * r
            if c < 4 * n:
                u[c] = 1.0
                w = [w[a] + av[a][c] for a in range(r)]
            else:
                a, par = divmod(c - 4 * n, 2)
                w[a] = 1.0 if par == 0 else 1j
            lu = [sum(Lbase[i][j] * u[j] for j in range(4 * n))
                  for i in range(4 * n)]
            wl = fiber_action(w)
            if correction:
                for a in range(r):
                    corr = 0.0
                    for mu in range(4 * n):
                        if lu[mu] != 0.0:
                            corr = corr + av[a][mu] * lu[mu]
                    wl[a] = wl[a] - corr
            col = list(lu)
            for a in range(r):
                col.extend((dre(wl[a]), dre(-1j * wl[a])))
            cols.append(col)
        return [[cols[c][k] for c in range(dim)] for k in range(dim)]

    return field


def seeded_jet(mat_field, pt):
    """(L, dL) of a nested-list matrix field at pt, dL[k, j, l] = d_l L[k, j]
    from one dual seed per coordinate direction."""
    dim = len(pt)
    L = np.array([[float(x) for x in row] for row in mat_field(pt)])
    dL = np.zeros((dim, dim, dim))
    for l in range(dim):
        lev = fresh_level()
        Ld = mat_field(seed_unit(pt, l, lev))
        for k in range(dim):
            for j in range(dim):
                dL[k, j, l] = dot_part(Ld[k][j], lev)
    return L, dL


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


@pytest.mark.parametrize("first, second", [(del_bar, del_j),
                                           (del_j, del_bar)])
def test_second_order_potentials_share_the_seeded_passes(rng, first, second):
    # at one stacked Point, the first of del dbar Psi and del del_J Psi runs
    # the potential once at each of the Point's 8 x 8 seeded grandchildren
    # (duals.seeded) and builds the tables as a single evaluation does; the
    # second reads the same children, grandchildren and tables, whose memos
    # hold the potential's values, and runs nothing: 64 + 0 potential runs
    # (64 + 64 when each operator seeded its own children)
    calls = collections.Counter()
    _, psi_f = counted_total_space(calls)
    pt = stack_points(sample_points(rng, 8, 3))
    del_hol(first(psi_f)).frame_at(pt)
    assert calls == {"psi": 64, "coeff": 9, "frame": 8, "inverse": 9}
    calls.clear()
    del_hol(second(psi_f)).frame_at(pt)
    assert calls == {}


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
        L = {u: mats[u](pt)[0] for u in mats}
        for u in mats:
            assert np.max(np.abs(L[u] @ L[u] + np.eye(8))) < 1e-12
        assert np.max(np.abs(L["I"] @ L["J"] - L["K"])) < 1e-12
        assert np.max(np.abs(L["J"] @ L["I"] + L["K"])) < 1e-12


def test_structures_preserve_metric_and_lifts(ts, rng):
    mats = {u: structure_matrix_field(ts, u) for u in ("I", "J", "K")}
    base = hypercomplex_matrices(1)
    for pt in sample_points(rng, 8, 2):
        g = natural_metric(ts, pt)
        for u in mats:
            L, _ = mats[u](pt)
            assert np.max(np.abs(L.T @ g @ L - g)) < 1e-12
            v = rng.standard_normal(4)
            lifted = np.array(horizontal_lift(ts, pt, list(v)))
            rotated = np.array(horizontal_lift(ts, pt, list(base[u] @ v)))
            assert np.max(np.abs(L @ lifted - rotated)) < 1e-12


def test_lifted_structures_are_integrable(ts, rng):
    mats = {u: structure_matrix_field(ts, u) for u in ("I", "J", "K")}
    for pt in sample_points(rng, 8, 2):
        for u in mats:
            assert nijenhuis_residual(*mats[u](pt)) < 1e-8


@pytest.mark.parametrize("name", catalog_names())
def test_structure_jet_matches_nested_dual_reference(name, rng):
    ts = total_space(get_connection(name))
    coords = sample_points(rng, ts.dim, 4)
    for pt in [Point(c) for c in coords[:2]] + coords[2:]:
        for u in ("I", "J", "K"):
            L, dL = structure_matrix_field(ts, u)(pt)
            ref_L, ref_dL = seeded_jet(reference_structure_field(ts, u), pt)
            assert np.array_equal(L, ref_L), (name, u)
            assert np.max(np.abs(dL - ref_dL)) < 1e-12, (name, u)


def test_nijenhuis_sees_dropped_lift_correction(ts, rng):
    # without the A(L u) v term the lifted J and K are not integrable
    worst = max(nijenhuis_residual(*seeded_jet(
        reference_structure_field(ts, u, correction=False), pt))
        for pt in sample_points(rng, 8, 3) for u in ("I", "J", "K"))
    assert worst > 1e-3


def test_nijenhuis_at_memoised_jet_builds_no_dual(ts, rng, monkeypatch):
    pt = Point(sample_points(rng, 8, 1)[0])
    field = structure_matrix_field(ts, "J")
    field(pt)  # memoises the jet on pt
    made = [0]
    real_init = duals.Dual.__init__

    def counted(self, *args, **kwargs):
        made[0] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(duals.Dual, "__init__", counted)
    assert nijenhuis_residual(*field(pt)) < 1e-8
    assert made[0] == 0


def test_potential_gradient_norm(ts, rng):
    # |d Psi|^2 in the inverse natural metric is 4 Psi
    for pt in sample_points(rng, 8, 4):
        g = natural_metric(ts, pt)
        w = np.zeros(8)
        w[4:] = 2.0 * np.array(pt[4:])
        val = w @ np.linalg.solve(g, w)
        assert val == pytest.approx(4.0 * psi(ts, pt), rel=1e-10)


def test_totspace_builds_each_curvature_once_per_sample(monkeypatch):
    # per sweep of 20 samples, one build at each stacked Point whose sweep
    # reads the curvature: the structure equation (its first 10 samples),
    # the potential family (the 20 samples and 2 zero-fiber copies), and
    # the curvature term with its fiber-doubled twin (20 each); was 42, one
    # per sample, copy and twin
    builds = collections.Counter()
    shapes = collections.defaultdict(list)
    real = bundles.curvature

    def counted(conn, pt):
        builds[conn.name] += 1
        shapes[conn.name].append(duals.sample_shape(pt))
        return real(conn, pt)

    monkeypatch.setattr(bundles, "curvature", counted)
    records = totspace_records(ScenarioConfig(samples=20))
    assert all(r.passed for r in records)
    assert builds == {"bpst": 4, "flat": 4}
    assert shapes["bpst"] == shapes["flat"] == [(10,), (22,), (20,), (20,)]


def test_totspace_coeff_calls(monkeypatch):
    # per sweep of 20 samples (was 189, then 70 and 69):
    # - frame-roundtrip 1: A for both tables at the stacked Point of all 20
    #   samples, which the metric and Nijenhuis sweeps share;
    # - the structure equation 14, at the stacked Point of its 10 samples:
    #   1 + 4 for the jet, 1 for the tables, and 8 seeded frame tables, one
    #   per direction's child of the Point (duals.seeded), which the 2
    #   fields d Dv_a share (16 before the children were shared);
    # - the potential family 14, at its stacked Point: the same 1 + 4 + 1,
    #   and 8 seeded frame tables that del dbar Psi and del del_J Psi share
    #   (16 before), each memoised on the Point for the records that share
    #   them;
    # - the curvature term 11: 1 + 4 for the jet, 1 for the inverse table
    #   and 1 + 4 for the fiber-doubled twin's jet (10 for flat, whose
    #   curvature term is empty and needs no table);
    # - del-closed 9: 1 + 8 seeds;
    # - the metric sweeps 5: 1 for A (the tables' own call does not share
    #   its memo) and 4 for dA, once at the shared stacked Point;
    # - Nijenhuis 0: it reads the first samples of the same stacked jet.
    calls = collections.Counter()
    real = suites.get_connection

    def counted_connection(name):
        conn = real(name)

        def coeff(pt):
            calls[conn.name] += 1
            return conn.coeff(pt)

        return dataclasses.replace(conn, coeff=coeff)

    monkeypatch.setattr(suites, "get_connection", counted_connection)
    totspace_records(ScenarioConfig(samples=20))
    assert calls == {"bpst": 54, "flat": 53}


def test_flat_tables_keep_no_zero_terms_at_a_stacked_point(rng):
    # the flat connection's A is all plain zeros, so no A_mu v term enters
    # its tables, at a plain Point or at the stacked Point of 4 samples
    ts = total_space(get_connection("flat"))
    pts = sample_points(rng, ts.dim, 4)
    for pt in (Point(pts[0]), stack_points(pts)):
        for table in (ts.chart.frame_table(pt), ts.chart.inverse_table(pt)):
            assert sum(map(len, table.values())) == 16


def test_plain_point_reads_coefficients_once():
    # at a plain list nothing is memoised, and A alone needs one coeff call:
    # none of the four seeded first derivatives of the jet
    calls = []
    conn = get_connection("bpst")

    def coeff(pt):
        calls.append(pt)
        return conn.coeff(pt)

    ts = total_space(dataclasses.replace(conn, coeff=coeff))
    pt = [0.3, -0.2, 0.5, 0.1, 0.7, -0.4, 0.2, 0.6]
    for fn in (lambda: natural_metric(ts, pt),
               lambda: horizontal_lift(ts, pt, [1.0, 0.0, -0.5, 2.0]),
               lambda: real_coframe_matrix(ts, pt)):
        calls.clear()
        fn()
        assert len(calls) == 1


def test_totspace_nijenhuis_rejects_nonholomorphic_lift():
    bad = {r.identity: r for r in
           totspace_records(ScenarioConfig(bundle="nonholo-demo", samples=4))}
    assert not bad["nijenhuis"].passed and bad["nijenhuis"].value > 1.0
    good = {r.identity: r for r in
            totspace_records(ScenarioConfig(bundle="direct-sum", samples=4))}
    assert good["nijenhuis"].passed
