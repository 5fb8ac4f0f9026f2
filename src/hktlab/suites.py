"""Verification suites.

Each suite builds its objects fresh from the config, sweeps the identities
it owns over seeded random samples, and returns one CheckRecord per
identity.  Residual records bound a max residual from above; margin
records bound a min (positivity gaps, detection ratios) from below.
Everything downstream of the config is deterministic.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from .bundles import (bianchi_residual, catalog_names, curvature_entry_forms,
                      get_connection, invariance_residual, structure_charts,
                      type11_residual)
from .charts import flat_chart, to_frame, to_real
from .duals import Point
from .exterior import (eadd, enorm, escale, esub, positive_dimension, wedge)
from .fields import (d_plus, del_bar, del_hol, del_j, exterior_d,
                     frame_form_field, ladder_constant, ladder_map,
                     nijenhuis_residual, random_form_field, random_polynomial,
                     random_pq_field, sample_points, scalar_field)
from .hermitian import (gram, hermitian_pair, hyperhermitian_project,
                        hyperhermitian_residual, omega_from_gram, qpos_margin,
                        qreal_residual, quaternionic_conj,
                        random_hyperhermitian_metric, random_qreal_positive)
from .hopf import (fiber_norm2, fundamental_domain_points, hopf_data,
                   log_psi_field, omega_tilde_field, radial_probe, rho_apply,
                   rho_pullback, vertical_probe)
from .report import (VerificationReport, margin_record, max_keep_nan,
                     residual_record)
from .total_space import (del_j_psi_expr, del_psi_expr, horizontal_lift,
                          natural_metric, omega_hor_expr, omega_ver_canonical,
                          omega_ver_expr, psi, structure_matrix_field,
                          total_space, xi_curv_expr)

SUITES = ("algebra", "bicomplex", "qpos", "bundle", "totspace", "hopf")


@dataclass
class Tolerances:
    linear: float = 1e-12
    sl2: float = 1e-12
    casimir: float = 1e-9
    bicomplex: float = 1e-9
    correspondence: float = 1e-8
    roundtrip: float = 1e-10
    bundle: float = 1e-9
    secondderiv: float = 1e-8
    flat_control: float = 1e-12
    nijenhuis: float = 1e-8
    positivity_floor: float = 1e-10

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}


@dataclass
class ScenarioConfig:
    n: int = 1
    bundle: str = "bpst"
    q: float = 2.0
    samples: int = 100
    probes: int = 20
    seed: int = 42
    tol: Tolerances = field(default_factory=Tolerances)

    def validate(self) -> None:
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.samples < 1:
            raise ValueError("samples must be a positive integer")
        if self.probes < 1:
            raise ValueError("probes must be a positive integer")
        if self.q == 0.0 or abs(abs(self.q) - 1.0) < 1e-12:
            raise ValueError("q must be real with |q| neither 0 nor 1")
        try:
            get_connection(self.bundle)
        except KeyError as exc:
            raise ValueError(f"bundle: {exc.args[0]}") from None

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def echo(self) -> dict:
        return {"n": self.n, "bundle": self.bundle, "q": self.q,
                "samples": self.samples, "probes": self.probes,
                "seed": self.seed, "tolerances": self.tol.as_dict()}


def _rand_element(monos, rng) -> dict:
    return {mono: complex(rng.standard_normal(), rng.standard_normal())
            for mono in monos}


def _max_abs(arrays) -> float:
    """Largest entry modulus over all arrays; nan as soon as any entry is
    nan (the builtin max(0.0, nan) is 0.0, which would let nan pass)."""
    return max_keep_nan(float(np.max(np.abs(a), initial=0.0)) for a in arrays)


# ----- algebra -----

def algebra_records(cfg: ScenarioConfig) -> list:
    tol = cfg.tol
    rng = cfg.rng()
    out = []
    for n in sorted({1, 2, cfg.n}):
        ctx = flat_chart(n).ctx
        m = ctx.m
        tag = f"(n={n})"
        bases = [ctx.basis(k) for k in range(2 * m + 1)]
        npts = sum(len(b) for b in bases)

        blocks = [ctx.su2_blocks(k) for k in range(2 * m + 1)]
        every = [blk for per_degree in blocks for blk in per_degree]

        def brackets(blk):
            R, Rb, H = blk.ops["R"], blk.ops["Rb"], blk.ops["H"]
            yield H @ R - R @ H - 2.0 * R
            yield H @ Rb - Rb @ H + 2.0 * Rb
            yield R @ Rb - Rb @ R - H

        out.append(residual_record(
            f"sl2-brackets{tag}",
            "[H,R]=2R, [H,Rbar]=-2Rbar, [R,Rbar]=H on every degree",
            npts, _max_abs(r for blk in every for r in brackets(blk)),
            tol.sl2))

        def cyclic(blk):
            for x, y, z in (("I", "J", "K"), ("J", "K", "I"),
                            ("K", "I", "J")):
                lx, ly = blk.ops["L_" + x], blk.ops["L_" + y]
                yield lx @ ly - ly @ lx + 2.0 * blk.ops["L_" + z]

        out.append(residual_record(
            f"su2-brackets{tag}",
            "[L_I,L_J]=-2L_K and cyclic permutations",
            3 * npts, _max_abs(r for blk in every for r in cyclic(blk)),
            tol.sl2))

        worst = 0.0
        count = 0
        for p in range(m + 1):
            for q in range(m + 1):
                for mono in ctx.basis_pq(p, q):
                    el = {mono: 1.0}
                    r = esub(ctx.lie("I", el), escale(el, 1j * (p - q)))
                    worst = max(worst, enorm(r))
                    count += 1
        out.append(residual_record(
            f"unit-weight{tag}",
            "L_I acts as i(p-q) on (p,q)-forms",
            count, worst, tol.sl2))

        def spectrum(per_degree, name):
            return np.concatenate([np.linalg.eigvals(blk.ops[name])
                                   for blk in per_degree])

        def spectrum_gaps():
            for per_degree in blocks:
                si = np.sort(np.round(spectrum(per_degree, "L_I").imag, 6))
                for u in ("L_J", "L_K"):
                    ev = spectrum(per_degree, u)
                    yield ev.real
                    yield np.sort(np.round(ev.imag, 6)) - si

        out.append(residual_record(
            f"unit-spectra{tag}",
            "L_J and L_K have the same spectrum as L_I on each degree",
            npts, _max_abs(spectrum_gaps()), 1e-5))

        def casimir_gaps():
            for k, per_degree in enumerate(blocks):
                targets = np.array([w * (w + 2) for w in ctx.weight_list(k)])
                lam = spectrum(per_degree, "C")
                yield np.min(np.abs(lam[:, None] - targets[None, :]), axis=1)

        out.append(residual_record(
            f"casimir-spectrum{tag}",
            "Casimir eigenvalues sit on w(w+2) for admissible weights",
            npts, _max_abs(casimir_gaps()), tol.casimir))

        def projector_residuals():
            for k, per_degree in enumerate(blocks):
                ws = ctx.weight_list(k)
                for blk in per_degree:
                    ps = [blk.projectors[w] for w in ws]
                    yield sum(ps) - np.eye(len(blk.monos))
                    for i, pw in enumerate(ps):
                        yield pw @ pw - pw
                        for pw2 in ps[i + 1:]:
                            yield pw2 @ pw

        out.append(residual_record(
            f"weight-projectors{tag}",
            "weight projectors are idempotent, orthogonal, and sum to 1",
            npts, _max_abs(projector_residuals()), tol.sl2))

        out.append(residual_record(
            f"positive-dimension{tag}",
            "top-weight subspace of degree p has dimension (p+1) C(m,p)",
            m + 1, _max_abs(
                sum(np.trace(blk.projectors[p]).real for blk in blocks[p])
                - positive_dimension(m, p) for p in range(m + 1)),
            tol.sl2))

        out.append(residual_record(
            f"r-omega{tag}",
            "R sends the fundamental (1,1)-form to the canonical (2,0)-form",
            1, enorm(esub(ctx.raising(ctx.omega_hat()),
                          ctx.omega_canonical())), tol.sl2))

        b11 = ctx.basis_pq(1, 1)
        count = max(100, cfg.samples)
        worst = 0.0
        ratio = float("inf")
        for _ in range(count):
            el = _rand_element(b11, rng)
            inv = ctx.invariant_part(el)
            worst = max(worst, enorm(ctx.raising(inv)))
            beta = esub(el, inv)
            nb = enorm(beta)
            if nb > 1e-8:
                ratio = min(ratio, enorm(ctx.raising(beta)) / nb)
        out.append(residual_record(
            f"invariant-annihilated{tag}",
            "R kills the invariant part of every (1,1)-form",
            count, worst, tol.sl2))
        # R is sqrt(2) times an isometry on the non-invariant part, so any
        # floor below that certifies detection with a wide gap
        out.append(margin_record(
            f"noninvariant-detected{tag}",
            "R is bounded below on non-invariant (1,1)-forms",
            count, ratio, 1.0))

        rmat = ctx.operator_matrix(ctx.raising, b11, ctx.basis_pq(2, 0))
        dimker = len(b11) - int(np.linalg.matrix_rank(rmat, tol=1e-8))
        dim_inv = 0.0
        for mono in b11:
            dim_inv += complex(ctx.invariant_part({mono: 1.0})
                               .get(mono, 0.0)).real
        out.append(residual_record(
            f"r-kernel-invariant{tag}",
            "kernel of R on (1,1)-forms is exactly the invariant subspace",
            len(b11), abs(dimker - dim_inv), tol.sl2))

        worst = 0.0
        count = 0
        for k in range(1, m + 1):
            for q in range(1, k + 1):
                c = ladder_constant(k - q, q)
                for mono in ctx.basis_pq(k, 0):
                    el = {mono: 1.0}
                    low = el
                    for _ in range(q):
                        low = ctx.lowering(low)
                    up = low
                    for _ in range(q):
                        up = ctx.raising(up)
                    worst = max(worst, enorm(esub(up, escale(el, c))))
                    count += 1
        out.append(residual_record(
            f"ladder-normalization{tag}",
            "R^q Rbar^q multiplies (k,0)-forms by the ladder constant",
            count, worst, tol.sl2))

        M = ctx.mmat
        worst = max(float(np.max(np.abs(M @ M.conj().T - np.eye(m)))),
                    float(np.max(np.abs(M @ np.conj(M) + np.eye(m)))),
                    float(np.max(np.abs(M + M.T))))
        out.append(residual_record(
            f"antilinear-structure{tag}",
            "M is unitary, antisymmetric, and squares to -1 with conj",
            1, worst, tol.linear))

        worst = 0.0
        for k in range(2 * m + 1):
            for mono in bases[k]:
                el = {mono: 1.0}
                for u in ("I", "J", "K"):
                    r = esub(ctx.cov_mult(u, ctx.cov_mult(u, el)),
                             escale(el, (-1.0) ** k))
                    worst = max(worst, enorm(r))
        out.append(residual_record(
            f"cov-squares{tag}",
            "each multiplicative unit action squares to (-1)^degree",
            3 * npts, worst, tol.sl2))
    return out


# ----- bicomplex -----

def bicomplex_records(cfg: ScenarioConfig) -> list:
    tol = cfg.tol
    rng = cfg.rng()
    out = []
    ch = flat_chart(cfg.n)
    pts = sample_points(rng, ch.dim, cfg.samples)

    scalars = [random_polynomial(ch, rng, real=False) for _ in range(2)]
    scalars.append(random_polynomial(ch, rng))
    f10 = random_pq_field(ch, 1, 0, rng)
    f01 = random_pq_field(ch, 0, 1, rng)
    f11 = random_pq_field(ch, 1, 1, rng)
    f20 = random_pq_field(ch, 2, 0, rng) if ch.ctx.m >= 2 else f10
    one = random_form_field(ch, 1, rng)

    def sweep(fields, op):
        worst, cnt = 0.0, 0
        for f in fields:
            g = op(f)
            for pt in pts:
                worst = max(worst, enorm(g.at(pt)))
                cnt += 1
        return worst, cnt

    worst, cnt = sweep(scalars + [one], lambda f: exterior_d(exterior_d(f)))
    out.append(residual_record(
        "d-squared", "d of d vanishes on scalars and 1-form fields",
        cnt, worst, tol.bicomplex))

    worst, cnt = sweep(scalars + [f10, f11],
                       lambda f: del_hol(del_hol(f)))
    out.append(residual_record(
        "del-squared", "del of del vanishes", cnt, worst, tol.bicomplex))

    worst, cnt = sweep(scalars + [f01, f11],
                       lambda f: del_bar(del_bar(f)))
    out.append(residual_record(
        "dbar-squared", "dbar of dbar vanishes", cnt, worst, tol.bicomplex))

    worst, cnt = sweep(scalars + [f10, f20],
                       lambda f: del_j(del_j(f)))
    out.append(residual_record(
        "delj-squared", "del_J of del_J vanishes on (p,0) fields",
        cnt, worst, tol.bicomplex))

    def anti(f):
        a = del_hol(del_j(f))
        b = del_j(del_hol(f))
        return frame_form_field(a.chart, a.degree,
                                lambda pt: eadd(a.frame_at(pt),
                                                b.frame_at(pt)))

    worst, cnt = sweep(scalars + [f10], anti)
    out.append(residual_record(
        "del-delj-anticommute",
        "del and del_J anticommute on (p,0) fields",
        cnt, worst, tol.bicomplex))

    worst, cnt = 0.0, 0
    for f in scalars:
        ddj = del_hol(del_j(f))
        ddb = del_hol(del_bar(f))
        for pt in pts:
            r = esub(ddj.frame_at(pt), ch.ctx.raising(ddb.frame_at(pt)))
            worst = max(worst, enorm(r))
            cnt += 1
    out.append(residual_record(
        "ddj-r-transfer",
        "del del_J equals R applied to del dbar on scalars",
        cnt, worst, tol.bicomplex))

    sq = scalar_field(ch, lambda pt: sum(x * x for x in pt))
    dd = del_hol(del_j(sq))
    target = escale(ch.ctx.omega_canonical(), 2.0)
    worst = max(enorm(esub(dd.frame_at(pt), target)) for pt in pts[:3])
    out.append(residual_record(
        "moment-potential",
        "del del_J of the squared radius is twice the canonical form",
        3, worst, tol.bicomplex))

    chx = flat_chart(max(2, cfg.n))
    cpts = sample_points(rng, chx.dim, max(3, cfg.samples // 30))
    worst_p, worst_s, cnt = 0.0, 0.0, 0
    for p, q in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
        eta = random_pq_field(chx, p, q, rng, top_weight=True)
        phi_eta = ladder_map(eta, p, q)
        lhs_p = ladder_map(d_plus(eta, p, q, "prime"), p + 1, q)
        rhs_p = del_hol(phi_eta)
        kp = (p + 1) / (p + q + 1)
        lhs_s = ladder_map(d_plus(eta, p, q, "second"), p, q + 1)
        rhs_s = del_j(phi_eta)
        ks = 1.0 / (p + q + 1)
        for pt in cpts:
            worst_p = max(worst_p, enorm(esub(
                lhs_p.at(pt), {k: kp * v for k, v in rhs_p.at(pt).items()})))
            worst_s = max(worst_s, enorm(esub(
                lhs_s.at(pt), {k: ks * v for k, v in rhs_s.at(pt).items()})))
            cnt += 1
    out.append(residual_record(
        "ladder-correspondence-prime",
        "normalized R-ladder intertwines the first refined differential "
        "with (p+1)/(p+q+1) del",
        cnt, worst_p, tol.correspondence))
    out.append(residual_record(
        "ladder-correspondence-second",
        "normalized R-ladder intertwines the second refined differential "
        "with 1/(p+q+1) del_J",
        cnt, worst_s, tol.correspondence))

    worst, cnt = 0.0, 0
    for p in range(3):
        f = random_pq_field(chx, p, 0, rng)
        dp = d_plus(f, p, 0, "prime")
        dh = del_hol(f)
        for pt in cpts:
            worst = max(worst, enorm(esub(dp.at(pt), dh.at(pt))))
            cnt += 1
    out.append(residual_record(
        "dplus-is-del",
        "the first refined differential reduces to del on (p,0) fields",
        cnt, worst, tol.correspondence))
    return out


# ----- q-positivity layer -----

def qpos_records(cfg: ScenarioConfig) -> list:
    tol = cfg.tol
    rng = cfg.rng()
    out = []
    count = max(50, cfg.samples // 2)
    for n in (1, 2):
        ctx = flat_chart(n).ctx
        m = ctx.m
        tag = f"(m={m})"

        worst = 0.0
        for _ in range(count):
            el = _rand_element(ctx.basis_pq(2, 0), rng)
            worst = max(worst, enorm(esub(
                quaternionic_conj(ctx, quaternionic_conj(ctx, el)), el)))
        out.append(residual_record(
            f"conj-involution{tag}",
            "the quaternionic conjugation of (2,0)-forms is an involution",
            count, worst, tol.linear))

        worst = 0.0
        for _ in range(count):
            el = _rand_element(ctx.basis_pq(2, 0), rng)
            sym = escale(eadd(el, quaternionic_conj(ctx, el)), 0.5)
            G = gram(ctx, sym)
            worst = max(worst, qreal_residual(ctx, sym),
                        float(np.max(np.abs(G - G.conj().T))))
        out.append(residual_record(
            f"qreal-gram-hermitian{tag}",
            "symmetrized forms are q-real with Hermitian Gram matrix",
            count, worst, tol.linear))

        worst = 0.0
        for _ in range(count):
            G0 = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            G0 = (G0 + G0.conj().T) / 2
            worst = max(worst, qreal_residual(ctx, omega_from_gram(ctx, G0)))
        out.append(residual_record(
            f"hermitian-gram-qreal{tag}",
            "every Hermitian Gram matrix produces a q-real form",
            count, worst, tol.linear))

        worst = 0.0
        for _ in range(count):
            el = random_qreal_positive(ctx, rng)
            worst = max(worst, enorm(esub(
                omega_from_gram(ctx, gram(ctx, el)), el)))
        out.append(residual_record(
            f"roundtrip-form{tag}",
            "form to Gram matrix and back is the identity",
            count, worst, tol.roundtrip))

        worst = 0.0
        for _ in range(count):
            G = random_hyperhermitian_metric(ctx, rng)
            worst = max(worst, float(np.max(np.abs(
                gram(ctx, omega_from_gram(ctx, G)) - G))))
        out.append(residual_record(
            f"roundtrip-metric{tag}",
            "Gram matrix to form and back is the identity",
            count, worst, tol.roundtrip))

        worst = 0.0
        for _ in range(count):
            G = random_hyperhermitian_metric(ctx, rng)
            G0 = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            P = hyperhermitian_project(ctx, G0)
            worst = max(worst, hyperhermitian_residual(ctx, G),
                        float(np.max(np.abs(
                            hyperhermitian_project(ctx, P) - P))))
        out.append(residual_record(
            f"hyperhermitian-structure{tag}",
            "generated metrics are J-compatible and the projector is "
            "idempotent",
            count, worst, tol.linear))

        low = float("inf")
        for _ in range(count):
            el = random_qreal_positive(ctx, rng)
            low = min(low, qpos_margin(ctx, el))
        out.append(margin_record(
            f"positivity-margin{tag}",
            "generated q-positive forms have a strictly positive Gram floor",
            count, low, tol.positivity_floor))

        worst = 0.0
        for _ in range(count):
            el = _rand_element(ctx.basis_pq(2, 0), rng)
            G = gram(ctx, el)
            x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            worst = max(worst, abs(hermitian_pair(ctx, el, x, y)
                                   - x @ G @ np.conj(y)))
        out.append(residual_record(
            f"pairing-gram{tag}",
            "the Hermitian pairing of a form matches its Gram matrix",
            count, worst, tol.linear))

        G = gram(ctx, ctx.omega_canonical())
        worst = max(float(np.max(np.abs(G - np.eye(m)))),
                    abs(qpos_margin(ctx, ctx.omega_canonical()) - 1.0))
        out.append(residual_record(
            f"canonical-form{tag}",
            "the canonical (2,0)-form has identity Gram matrix",
            1, worst, tol.linear))
    return out


# ----- bundle criteria -----

def bundle_records(cfg: ScenarioConfig) -> list:
    """Curvature criteria over the catalog.

    Samples go one at a time, each as a Point: every criterion of every
    connection there shares one curvature (duals.point_memo), freed with
    the sample.  criteria-agreement reads the residuals of the first
    samples, and each connection's I/J/K charts are built once.
    """
    tol = cfg.tol
    rng = cfg.rng()
    requested = get_connection(cfg.bundle)
    conns = [get_connection(nm) for nm in catalog_names()]
    charts = {conn.name: structure_charts(conn.base_n) for conn in conns}
    if requested.hyperholomorphic:
        checked = {conn.name for conn in conns if conn.hyperholomorphic}
    else:
        checked = {requested.name}
    pts = sample_points(rng, 4, cfg.samples)
    n_agree = min(len(pts), max(10, cfg.samples // 10))
    # per connection: invariance, type11 and bianchi residual of each sample
    res = {conn.name: ([], [], []) for conn in conns}
    for k, coords in enumerate(pts):
        pt = Point(coords)
        for conn in conns:
            inv, t11, bia = res[conn.name]
            if conn.name in checked or k < n_agree:
                inv.append(invariance_residual(conn, pt, charts[conn.name]))
                t11.append(type11_residual(conn, pt, charts[conn.name]))
            if conn.name in checked:
                bia.append(bianchi_residual(conn, pt))

    out = []
    for conn in conns:
        if conn.name not in checked:
            continue
        nm = conn.name
        inv, t11, bia = res[nm]
        out.append(residual_record(
            f"curvature-invariance({nm})",
            "curvature 2-forms have no weight-2 component",
            len(pts), max_keep_nan(inv), tol.bundle))
        out.append(residual_record(
            f"curvature-type11({nm})",
            "curvature is (1,1) for each of the three complex structures",
            len(pts), max_keep_nan(t11), tol.bundle))
        out.append(residual_record(
            f"bianchi({nm})",
            "covariant exterior derivative of the curvature vanishes",
            len(pts), max_keep_nan(bia), tol.bundle))

    bad = 0.0
    for conn in conns:
        inv, t11, _ = res[conn.name]
        inv_ok = max_keep_nan(inv[:n_agree]) <= tol.bundle
        t11_ok = max_keep_nan(t11[:n_agree]) <= tol.bundle
        if inv_ok != t11_ok or inv_ok != conn.hyperholomorphic:
            bad = 1.0
    out.append(residual_record(
        "criteria-agreement",
        "invariance and (1,1)-type accept and reject the same catalog "
        "entries, matching each entry's flag",
        n_agree * len(conns), bad, 0.5))
    return out


# ----- total space -----

def _totspace_records(cfg: ScenarioConfig, bundle_name: str, tolv: float,
                      nij_tol: float, samples: int, rng) -> list:
    tol = cfg.tol
    out = []
    conn = get_connection(bundle_name)
    ts = total_space(conn)
    ch = ts.chart
    ctx = ts.ctx
    dim = ts.dim
    nb = 4 * ts.n
    mb = 2 * ts.n
    m = ctx.m
    pts = sample_points(rng, dim, samples)
    zf = [list(pt) for pt in pts[:2]]
    for pt in zf:
        pt[nb:] = [0.0] * (dim - nb)

    worst = 0.0
    for pt in pts:
        el = {(i,): complex(rng.standard_normal(), rng.standard_normal())
              for i in range(dim)}
        worst = max(worst, enorm(esub(
            to_real(ch, to_frame(ch, el, pt), pt), el)))
    out.append(residual_record(
        "frame-roundtrip",
        "real to frame coefficients and back is the identity",
        len(pts), worst, tolv))

    fiber_fields = [frame_form_field(ch, 1,
                                     (lambda a: lambda pt: {(mb + a,): 1.0})(a))
                    for a in range(ts.rank)]
    d_fields = [exterior_d(f) for f in fiber_fields]
    worst = 0.0
    for pt in pts[:max(10, samples // 10)]:
        base = list(pt[:nb])
        v = ts.fiber_values(pt)
        A = conn.coeff(base)
        grid = curvature_entry_forms(conn, base)
        for a in range(ts.rank):
            rhs: dict = {}
            for b in range(ts.rank):
                rhs = eadd(rhs, escale(grid[a][b], complex(v[b])))
                aform = {(mu,): A[mu][a][b] for mu in range(nb)
                         if A[mu][a][b] != 0}
                rhs = esub(rhs, wedge(aform,
                                      to_real(ch, {(mb + b,): 1.0}, pt)))
            worst = max(worst, enorm(esub(d_fields[a].at(pt), rhs)))
    out.append(residual_record(
        "structure-equation",
        "d of the covariant fiber coframe is curvature times the fiber "
        "minus connection wedge coframe",
        max(10, samples // 10), worst, tolv))

    psi_f = scalar_field(ch, lambda pt: psi(ts, pt))
    dpsi = del_hol(psi_f)
    djpsi = del_j(psi_f)
    ddbar = del_hol(del_bar(psi_f))
    ddj = del_hol(del_j(psi_f))
    two_over = escale(omega_ver_canonical(ts), 2.0)

    w_dp = w_dj = w_db = w_ddj = w_rt = 0.0
    for pt in pts + zf:
        fr_db = ddbar.frame_at(pt)
        fr_dj = ddj.frame_at(pt)
        w_dp = max(w_dp, enorm(esub(dpsi.frame_at(pt),
                                    del_psi_expr(ts, pt))))
        w_dj = max(w_dj, enorm(esub(djpsi.frame_at(pt),
                                    del_j_psi_expr(ts, pt))))
        rhs = eadd(omega_ver_expr(ts),
                   to_frame(ch, xi_curv_expr(ts, pt), pt))
        w_db = max(w_db, enorm(esub(fr_db, rhs)))
        w_ddj = max(w_ddj, enorm(esub(fr_dj, two_over)))
        w_rt = max(w_rt, enorm(esub(fr_dj, ctx.raising(fr_db))))
    npts = len(pts) + len(zf)
    out.append(residual_record(
        "del-potential", "del of the fiber norm matches its closed form",
        npts, w_dp, tolv))
    out.append(residual_record(
        "delj-potential", "del_J of the fiber norm matches its closed form",
        npts, w_dj, tolv))
    out.append(residual_record(
        "deldbar-potential",
        "del dbar of the fiber norm is the vertical (1,1)-form plus the "
        "curvature correction",
        npts, w_db, tolv))
    out.append(residual_record(
        "deldelj-potential",
        "del del_J of the fiber norm is the vertical canonical (2,0)-form",
        npts, w_ddj, tolv))
    out.append(residual_record(
        "r-transfer",
        "del del_J of the potential equals R of del dbar of it",
        npts, w_rt, tolv))

    w_wt = w_inv = w_sc = 0.0
    for pt in pts:
        fr_xi = to_frame(ch, xi_curv_expr(ts, pt), pt)
        w_wt = max(w_wt, enorm(ctx.raising(fr_xi)))
        w_inv = max(w_inv, enorm(esub(fr_xi, ctx.invariant_part(fr_xi))))
        pt2 = list(pt)
        pt2[nb:] = [2.0 * x for x in pt2[nb:]]
        w_sc = max(w_sc, enorm(esub(xi_curv_expr(ts, pt2),
                                    escale(xi_curv_expr(ts, pt), 4.0))))
    out.append(residual_record(
        "curvature-term-weightless",
        "the curvature correction is killed by R", len(pts), w_wt, tolv))
    out.append(residual_record(
        "curvature-term-invariant",
        "the curvature correction is its own invariant part",
        len(pts), w_inv, tolv))
    out.append(residual_record(
        "curvature-term-quadratic",
        "the curvature correction is quadratic in the fiber",
        len(pts), w_sc, tolv))

    out.append(residual_record(
        "r-omega-ver",
        "R of the vertical (1,1)-form is the vertical (2,0)-form",
        1, enorm(esub(ctx.raising(omega_ver_expr(ts)), two_over)), tolv))

    omega_el = eadd(omega_hor_expr(ts), two_over)
    om_f = frame_form_field(ch, 2, lambda pt: omega_el)
    dom = del_hol(om_f)
    worst = max(enorm(dom.at(pt)) for pt in pts)
    out.append(residual_record(
        "del-closed",
        "del of the candidate HKT form vanishes", len(pts), worst, tolv))

    low = float("inf")
    w_qr = 0.0
    for pt in pts:
        low = min(low, qpos_margin(ctx, omega_el))
        w_qr = max(w_qr, qreal_residual(ctx, omega_el))
    out.append(residual_record(
        "omega-qreal", "the candidate HKT form is q-real",
        len(pts), w_qr, tolv))
    out.append(margin_record(
        "omega-qpositive",
        "the candidate HKT form has a strictly positive Gram floor",
        len(pts), low, tol.positivity_floor))

    mats = {u: structure_matrix_field(ts, u) for u in ("I", "J", "K")}
    gs = [natural_metric(ts, pt) for pt in pts]
    if bundle_name == "flat":
        worst = max(float(np.max(np.abs(g - np.eye(dim)))) for g in gs)
        out.append(residual_record(
            "metric-flat-identity",
            "the natural metric of the flat bundle is the euclidean one",
            len(pts), worst, tolv))

    w_minv = w_quat = 0.0
    for pt, g in zip(pts, gs):
        L = {u: np.array(mats[u](pt), dtype=float) for u in mats}
        for u in mats:
            w_minv = max(w_minv, float(np.max(np.abs(
                L[u].T @ g @ L[u] - g))))
            w_quat = max(w_quat, float(np.max(np.abs(
                L[u] @ L[u] + np.eye(dim)))))
        w_quat = max(w_quat,
                     float(np.max(np.abs(L["I"] @ L["J"] - L["K"]))),
                     float(np.max(np.abs(L["I"] @ L["J"]
                                         + L["J"] @ L["I"]))))
    out.append(residual_record(
        "metric-invariance",
        "the natural metric is invariant under all three structures",
        len(pts), w_minv, tolv))
    out.append(residual_record(
        "quaternion-relations",
        "the lifted structures square to -1 and multiply like i, j, k",
        len(pts), w_quat, tolv))

    w_split = 0.0
    for pt, g in zip(pts, gs):
        H = np.array([horizontal_lift(ts, pt, row)
                      for row in np.eye(nb)], dtype=float).T
        V = np.zeros((dim, dim - nb))
        V[nb:, :] = np.eye(dim - nb)
        w_split = max(w_split,
                      float(np.max(np.abs(H.T @ g @ H - np.eye(nb)))),
                      float(np.max(np.abs(H.T @ g @ V))),
                      float(np.max(np.abs(V.T @ g @ V
                                          - np.eye(dim - nb)))))
    out.append(residual_record(
        "metric-splitting",
        "horizontal lifts are orthonormal and orthogonal to the fibres",
        len(pts), w_split, tolv))

    dpsi_real = exterior_d(psi_f)
    worst = 0.0
    for pt, g in zip(pts, gs):
        el = dpsi_real.at(pt)
        w = np.zeros(dim)
        for mono, c in el.items():
            w[mono[0]] = float(complex(c).real)
        val = float(w @ np.linalg.solve(g, w))
        p = float(psi(ts, pt))
        worst = max(worst, abs(val - 4.0 * p) / (1.0 + 4.0 * p))
    out.append(residual_record(
        "potential-gradient-norm",
        "the metric norm of d of the potential is twice its square root",
        len(pts), worst, tolv))

    npts_nij = pts[:max(50, samples // 2)]
    worst = 0.0
    for pt in npts_nij:
        for u in mats:
            worst = max(worst, nijenhuis_residual(mats[u], pt, dim))
    out.append(residual_record(
        "nijenhuis",
        "all three lifted structures have vanishing Nijenhuis tensor",
        len(npts_nij), worst, nij_tol))
    return out


def totspace_records(cfg: ScenarioConfig) -> list:
    tol = cfg.tol
    rng = cfg.rng()
    main_tol = tol.flat_control if cfg.bundle == "flat" else tol.secondderiv
    nij_tol = tol.flat_control if cfg.bundle == "flat" else tol.nijenhuis
    out = _totspace_records(cfg, cfg.bundle, main_tol, nij_tol,
                            cfg.samples, rng)
    if cfg.bundle != "flat":
        ctrl = _totspace_records(cfg, "flat", tol.flat_control,
                                 tol.flat_control,
                                 max(20, cfg.samples // 5), rng)
        for r in ctrl:
            r.identity = "flat-control:" + r.identity
        out.extend(ctrl)
    return out


# ----- quotient -----

def hopf_records(cfg: ScenarioConfig) -> list:
    tol = cfg.tol
    rng = cfg.rng()
    out = []
    conn = get_connection(cfg.bundle)
    ts = total_space(conn)
    h = hopf_data(ts, cfg.q)
    ch = ts.chart
    ctx = ts.ctx
    mb = 2 * ts.n
    m = ctx.m
    pts = fundamental_domain_points(h, rng, cfg.samples)
    otf = omega_tilde_field(h)
    omh = omega_hor_expr(ts)
    frames = [otf.frame_at(pt) for pt in pts]

    worst = 0.0
    for pt in pts:
        a = float(np.log(float(psi(ts, rho_apply(h, pt)))))
        b = float(np.log(float(psi(ts, pt))))
        worst = max(worst, abs(a - b - 2.0 * np.log(abs(h.q))))
    out.append(residual_record(
        "potential-homogeneity",
        "log of the fiber norm shifts by 2 log|q| under the dilation",
        len(pts), worst, tol.secondderiv))

    ddj_log = del_hol(del_j(log_psi_field(h)))
    worst = 0.0
    for pt, fr in zip(pts, frames):
        worst = max(worst, enorm(esub(fr, eadd(omh, ddj_log.frame_at(pt)))))
    out.append(residual_record(
        "log-potential-identity",
        "the quotient form is the horizontal form plus del del_J of the "
        "log potential",
        len(pts), worst, tol.secondderiv))

    w_inv = w_hom = 0.0
    for pt, fr in zip(pts, frames):
        img = otf.frame_at(rho_apply(h, pt))
        w_inv = max(w_inv, enorm(esub(rho_pullback(h, img), fr)))
        lam = float(rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0]))
        img2 = otf.frame_at(rho_apply(h, pt, scale=lam))
        w_hom = max(w_hom, enorm(esub(rho_pullback(h, img2, scale=lam), fr)))
    out.append(residual_record(
        "dilation-invariance",
        "the quotient form pulls back to itself under the dilation",
        len(pts), w_inv, tol.secondderiv))
    out.append(residual_record(
        "dilation-homogeneity",
        "invariance holds for arbitrary nonzero real fiber scalings",
        len(pts), w_hom, tol.secondderiv))

    dot = del_hol(otf)
    worst = max(enorm(dot.at(pt)) for pt in pts)
    out.append(residual_record(
        "del-closed", "del of the quotient form vanishes",
        len(pts), worst, tol.secondderiv))

    w_qr = w_hh = 0.0
    low = float("inf")
    agree = 0.0
    for pt, fr in zip(pts, frames):
        w_qr = max(w_qr, qreal_residual(ctx, fr))
        G = gram(ctx, fr)
        w_hh = max(w_hh, hyperhermitian_residual(ctx, G))
        scale = max(1.0, float(np.linalg.norm(G, 2)))
        mg = qpos_margin(ctx, fr)
        low = min(low, mg / scale)
        if mg <= 0.0:
            agree = 1.0
    out.append(residual_record(
        "omega-qreal", "the quotient form is q-real",
        len(pts), w_qr, tol.secondderiv))
    out.append(residual_record(
        "omega-hyperhermitian",
        "the Gram matrix of the quotient form is J-compatible",
        len(pts), w_hh, tol.secondderiv))
    out.append(margin_record(
        "positivity-margin",
        "the quotient form has a strictly positive scale-relative Gram "
        "floor",
        len(pts), low, tol.positivity_floor))

    mfib = ctx.mmat[mb:, mb:]
    low_lo = low_up = float("inf")
    w_tight = 0.0
    w_orth = 0.0
    cnt = 0
    for pt, fr in zip(pts, frames):
        p = float(psi(ts, pt))
        v = np.asarray(ts.fiber_values(pt), dtype=complex)
        w = -(mfib.T @ np.conj(v))
        probes = [vertical_probe(h, rng) for _ in range(cfg.probes - 1)]
        probes.append(radial_probe(h, pt))
        for x in probes:
            pair = float(complex(hermitian_pair(ctx, fr, x, x)).real)
            nx = fiber_norm2(h, x)
            low_lo = min(low_lo, (pair - nx / p) / (nx / p))
            low_up = min(low_up, (2.0 * nx / p - pair) / (nx / p))
            if ts.rank == 2:
                w_tight = max(w_tight, abs(pair - nx / p) / (nx / p))
            if pair <= 0.0:
                agree = 1.0
            cnt += 1
        if ts.rank >= 3:
            u = np.zeros(m, dtype=complex)
            u[mb:] = rng.standard_normal(ts.rank) \
                + 1j * rng.standard_normal(ts.rank)
            for r in (v, w):
                rr = np.zeros(m, dtype=complex)
                rr[mb:] = r
                u = u - (np.vdot(rr, u) / np.vdot(rr, rr)) * rr
            pair = float(complex(hermitian_pair(ctx, fr, u, u)).real)
            nx = fiber_norm2(h, u)
            w_orth = max(w_orth, abs(pair - 2.0 * nx / p) / (nx / p))
    out.append(margin_record(
        "cauchy-lower",
        "vertical values are at least the fiber norm over the potential",
        cnt, low_lo, -tol.positivity_floor))
    out.append(margin_record(
        "cauchy-upper",
        "vertical values are at most twice the fiber norm over the "
        "potential",
        cnt, low_up, -tol.positivity_floor))
    if ts.rank == 2:
        out.append(residual_record(
            "cauchy-tight-rank2",
            "on a rank-2 fiber the lower bound is an equality for every "
            "vertical probe",
            cnt, w_tight, tol.secondderiv))
    else:
        out.append(residual_record(
            "cauchy-orthogonal-probe",
            "probes orthogonal to the fiber value and its conjugate "
            "partner attain the upper bound",
            len(pts), w_orth, tol.secondderiv))

    worst = 0.0
    for pt, fr in zip(pts, frames):
        xb = np.zeros(m, dtype=complex)
        xb[:mb] = rng.standard_normal(mb) + 1j * rng.standard_normal(mb)
        xv = vertical_probe(h, rng)
        sc = float(np.linalg.norm(xb) * np.linalg.norm(xv))
        worst = max(worst, abs(hermitian_pair(ctx, fr, xb, xv)) / sc)
    out.append(residual_record(
        "horizontal-vertical-orthogonal",
        "base directions pair to zero with fiber directions",
        len(pts), worst, tol.secondderiv))

    worst = 0.0
    cnt = 0
    for pt in pts[:10]:
        for eps in (1.0, 0.3, 0.1, 0.03):
            pe = list(pt)
            pe[4 * ts.n:] = [eps * x for x in pe[4 * ts.n:]]
            fr = otf.frame_at(pe)
            Gv = gram(ctx, fr)[mb:, mb:]
            lam = float(np.linalg.eigvalsh((Gv + Gv.conj().T) / 2)[0])
            worst = max(worst, abs(lam * float(psi(ts, pe)) - 1.0))
            cnt += 1
    out.append(residual_record(
        "vertical-blowup-rate",
        "the smallest vertical Gram eigenvalue scales as one over the "
        "potential",
        cnt, worst, tol.secondderiv))

    out.append(residual_record(
        "positivity-agreement",
        "matrix margin and probe values certify positivity together",
        len(pts), agree, 0.5))
    return out


# ----- dispatch -----

_RUNNERS = {
    "algebra": algebra_records,
    "bicomplex": bicomplex_records,
    "qpos": qpos_records,
    "bundle": bundle_records,
    "totspace": totspace_records,
    "hopf": hopf_records,
}


def run_suite(cfg: ScenarioConfig, name: str) -> VerificationReport:
    cfg.validate()
    t0 = time.perf_counter()
    if name == "all":
        report = VerificationReport("all", cfg.echo())
        for sub in SUITES:
            report.extend(_RUNNERS[sub](cfg), prefix=sub + ":")
    elif name in _RUNNERS:
        report = VerificationReport(name, cfg.echo())
        report.extend(_RUNNERS[name](cfg))
    else:
        raise KeyError(f"unknown suite {name!r}; have {list(_RUNNERS) + ['all']}")
    report.wall_time = time.perf_counter() - t0
    return report
