import dataclasses
import math

import numpy as np
import pytest

from conftest import vertical_probe
from hktlab import hermitian, suites
from hktlab.bundles import get_connection
from hktlab.duals import Dual, sample_shape
from hktlab.exterior import eadd, enorm, esub
from hktlab.fields import del_hol, del_j, stack_points
from hktlab.hermitian import gram, hermitian_pair, qpos_margin, qreal_residual
from hktlab.hopf import (MIN_PSI, fiber_norm2, fundamental_domain_points,
                         hopf_data, log_psi_field, omega_tilde_expr,
                         omega_tilde_field, radial_probe, rho_apply,
                         rho_pullback)
from hktlab.suites import ScenarioConfig, hopf_records
from hktlab.total_space import omega_hor_expr, psi, total_space


@pytest.fixture(scope="module")
def hopf():
    return hopf_data(total_space(get_connection("bpst")), 2.0)


@pytest.mark.parametrize("bad", [0.0, 1.0, -1.0, 1.0 + 1e-14])
def test_degenerate_scales_rejected(bad):
    ts = total_space(get_connection("flat"))
    with pytest.raises(ValueError, match="not 0 or 1"):
        hopf_data(ts, bad)


@pytest.mark.parametrize("good", [2.0, -1.6, 0.37])
def test_valid_scales_accepted(good):
    ts = total_space(get_connection("flat"))
    assert hopf_data(ts, good).q == good


def test_zero_section_rejected(hopf):
    pt = [0.5, 0.1, -0.3, 0.2] + [0.0] * 4
    with pytest.raises(ValueError, match="zero section"):
        omega_tilde_expr(hopf, pt)
    tiny = [0.5, 0.1, -0.3, 0.2] + [1e-6, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        omega_tilde_expr(hopf, tiny)


def test_zero_section_guard_refuses_a_nan_sample(hopf, rng):
    # nan < MIN_PSI is false, so a guard that tests for a small norm would
    # let a nan fiber norm through
    pts = fundamental_domain_points(hopf, rng, 3)
    pts[1][5] = math.nan
    for pt in (stack_points(pts), pts[1]):
        with pytest.raises(ValueError, match="zero section"):
            omega_tilde_expr(hopf, pt)
    omega_tilde_expr(hopf, stack_points([pts[0], pts[2]]))


def test_fundamental_domain_geometry(hopf, rng):
    pts = fundamental_domain_points(hopf, rng, 40)
    assert len(pts) == 40
    for pt in pts:
        radius = float(np.sqrt(psi(hopf.ts, pt)))
        assert 0.5 - 1e-12 <= radius <= 1.0 + 1e-12
        assert all(abs(c) <= 1.0 for c in pt[:4])
        assert psi(hopf.ts, pt) >= MIN_PSI


def test_rho_pullback_counts_fiber_labels(hopf):
    # one base label, one unbarred fiber label, one barred fiber label
    el = {(0, 2): 1.0, (2, 6): 1.0, (0, 4): 1.0}
    out = rho_pullback(hopf, el, scale=3.0)
    assert out[(0, 2)] == 3.0
    assert out[(2, 6)] == 9.0
    assert out[(0, 4)] == 1.0


def test_log_potential_identity(hopf, rng):
    ddj = del_hol(del_j(log_psi_field(hopf)))
    omh = omega_hor_expr(hopf.ts)
    for pt in fundamental_domain_points(hopf, rng, 5):
        lhs = omega_tilde_expr(hopf, pt)
        rhs = eadd(omh, ddj.frame_at(pt))
        assert enorm(esub(lhs, rhs)) < 1e-8


@pytest.mark.parametrize("q", [2.0, -1.6, 0.37])
def test_dilation_invariance(rng, q):
    h = hopf_data(total_space(get_connection("bpst")), q)
    otf = omega_tilde_field(h)
    for pt in fundamental_domain_points(h, rng, 5):
        fr = otf.frame_at(pt)
        img = otf.frame_at(rho_apply(h, pt))
        assert enorm(esub(rho_pullback(h, img), fr)) < 1e-10
        lam = float(rng.uniform(0.3, 3.0))
        img2 = otf.frame_at(rho_apply(h, pt, scale=lam))
        assert enorm(esub(rho_pullback(h, img2, scale=lam), fr)) < 1e-10


def test_quotient_form_is_del_closed(hopf, rng):
    dot = del_hol(omega_tilde_field(hopf))
    for pt in fundamental_domain_points(hopf, rng, 4):
        assert enorm(dot.at(pt)) < 1e-8


def test_quotient_form_is_qreal_and_positive(hopf, rng):
    ctx = hopf.ts.ctx
    for pt in fundamental_domain_points(hopf, rng, 10):
        fr = omega_tilde_expr(hopf, pt)
        assert qreal_residual(ctx, fr) < 1e-10
        assert qpos_margin(ctx, fr) > 0.0


def test_vertical_cauchy_bounds(hopf, rng):
    # the vertical pairing sits between n(x)/Psi and 2 n(x)/Psi, and on a
    # rank-2 fiber the lower end is exact for every probe
    ctx = hopf.ts.ctx
    for pt in fundamental_domain_points(hopf, rng, 5):
        p = float(psi(hopf.ts, pt))
        fr = omega_tilde_expr(hopf, pt)
        probes = [vertical_probe(hopf.ts, rng) for _ in range(8)]
        probes.append(radial_probe(hopf, pt))
        for x in probes:
            pair = float(complex(hermitian_pair(ctx, fr, x, x)).real)
            nx = fiber_norm2(hopf, x)
            assert pair >= nx / p - 1e-10 * nx / p
            assert pair <= 2.0 * nx / p + 1e-10 * nx / p
            assert abs(pair - nx / p) < 1e-10 * nx / p


def test_orthogonal_probe_saturates_upper_bound(rng):
    h = hopf_data(total_space(get_connection("direct-sum")), 2.0)
    ts = h.ts
    ctx = ts.ctx
    mb, m = 2 * ts.n, ctx.m
    mfib = ctx.mmat[mb:, mb:]
    for pt in fundamental_domain_points(h, rng, 5):
        p = float(psi(ts, pt))
        fr = omega_tilde_expr(h, pt)
        v = np.asarray(ts.fiber_values(pt), dtype=complex)
        w = -(mfib.T @ np.conj(v))
        u = np.zeros(m, dtype=complex)
        u[mb:] = rng.standard_normal(ts.rank) + 1j * rng.standard_normal(ts.rank)
        for r in (v, w):
            rr = np.zeros(m, dtype=complex)
            rr[mb:] = r
            u = u - (np.vdot(rr, u) / np.vdot(rr, rr)) * rr
        pair = float(complex(hermitian_pair(ctx, fr, u, u)).real)
        nx = fiber_norm2(h, u)
        assert abs(pair - 2.0 * nx / p) < 1e-8 * nx / p


def test_horizontal_vertical_orthogonality(hopf, rng):
    ctx = hopf.ts.ctx
    m, mb = ctx.m, 2 * hopf.ts.n
    for pt in fundamental_domain_points(hopf, rng, 5):
        fr = omega_tilde_expr(hopf, pt)
        G = gram(ctx, fr)
        assert np.max(np.abs(G[:mb, mb:])) < 1e-12
        assert np.max(np.abs(G[mb:, :mb])) < 1e-12


def test_vertical_margin_blows_up_inversely(hopf, rng):
    ctx = hopf.ts.ctx
    mb = 2 * hopf.ts.n
    pt = fundamental_domain_points(hopf, rng, 1)[0]
    for eps in (1.0, 0.3, 0.1, 0.03):
        pe = list(pt)
        pe[4:] = [eps * x for x in pe[4:]]
        Gv = gram(ctx, omega_tilde_expr(hopf, pe))[mb:, mb:]
        lam = float(np.linalg.eigvalsh(0.5 * (Gv + Gv.conj().T))[0])
        assert lam * float(psi(hopf.ts, pe)) == pytest.approx(1.0, abs=1e-10)


def test_homogeneity_of_log_potential(hopf, rng):
    for pt in fundamental_domain_points(hopf, rng, 5):
        a = float(np.log(float(psi(hopf.ts, rho_apply(hopf, pt)))))
        b = float(np.log(float(psi(hopf.ts, pt))))
        assert a - b == pytest.approx(2.0 * np.log(2.0), abs=1e-12)


def test_hopf_builds_inverse_table_once_per_sample(monkeypatch):
    # the log-potential identity and del-closedness both need dx_i in frame
    # labels at each sample; the form sweep evaluates both at the stacked
    # Point of its 4 samples, which builds the table once for the two (the
    # dilated images and the blow-up points read no chart table)
    builds = []
    real = suites.total_space

    def counted_total_space(conn):
        ts = real(conn)

        def inverse_table(pt):
            if not any(isinstance(c, Dual) for c in pt):
                builds.append(sample_shape(pt))
            return ts.chart.inverse_table(pt)

        chart = dataclasses.replace(ts.chart, inverse_table=inverse_table)
        return dataclasses.replace(ts, chart=chart)

    monkeypatch.setattr(suites, "total_space", counted_total_space)
    hopf_records(ScenarioConfig(samples=4, probes=2))
    assert builds == [(4,)]


@pytest.mark.parametrize("bundle", ["bpst", "direct-sum"])
def test_hopf_builds_the_form_gram_once_per_point(monkeypatch, bundle):
    # one Gram matrix per sample list: the form's own, which q-reality,
    # J-compatibility, the margin and its scale share, and the blow-up
    # rate's at the 40 dilated points (was [20, 20, 20, 40], when
    # q-reality and the margin each built their own inside a hermitian
    # function)
    built = []
    real = hermitian.gram

    def counted(ctx, el):
        G = real(ctx, el)
        built.append(len(G))
        return G

    monkeypatch.setattr(hermitian, "gram", counted)
    monkeypatch.setattr(suites, "gram", counted)
    hopf_records(ScenarioConfig(bundle=bundle, samples=20))
    assert built == [20, 40]
