"""Verification suites.

Each suite builds its objects fresh from the config, sweeps the identities
it owns over seeded random samples, and returns one CheckRecord per
identity.  Residual records bound a max residual from above; margin
records bound a min (positivity gaps, detection ratios) from below.  A
suite hands each record its per-sample values, often as a lazy generator
over the random draws, and the record constructors in report.py reduce
them with one NaN-keeping rule; a loop that serves several records builds
one tuple per sample and gives each record its column.  Generators are
consumed record by record, so the draws keep their order.  Everything
downstream of the config is deterministic.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bundles import (bianchi_residual, catalog_names, curvature_entry_forms,
                      get_connection, invariance_residual, structure_charts,
                      type11_residual)
from .charts import flat_chart, to_frame, to_real
from .duals import Point
from .exterior import (eadd, enorm, escale, esub, positive_dimension, wedge)
from .fields import (FormField, d_plus, del_bar, del_hol, del_j, exterior_d,
                     ladder_constant, ladder_map, nijenhuis_residual,
                     random_form_field, random_polynomial, random_pq_field,
                     sample_points, scalar_field)
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
        if (not math.isfinite(self.q) or self.q == 0.0
                or abs(abs(self.q) - 1.0) < 1e-12):
            raise ValueError("q must be finite with |q| neither 0 nor 1")
        for name, value in self.tol.as_dict().items():
            if not value >= 0.0:
                raise ValueError(f"tolerance {name} must be a non-negative "
                                 "number")
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
    """Largest entry modulus over all arrays, reduced by max_keep_nan."""
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

        gaps = [enorm(esub(ctx.lie("I", {mono: 1.0}),
                           escale({mono: 1.0}, 1j * (p - q))))
                for p in range(m + 1) for q in range(m + 1)
                for mono in ctx.basis_pq(p, q)]
        out.append(residual_record(
            f"unit-weight{tag}",
            "L_I acts as i(p-q) on (p,q)-forms",
            len(gaps), gaps, tol.sl2))

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

        def split_draw():
            el = _rand_element(b11, rng)
            inv = ctx.invariant_part(el)
            beta = esub(el, inv)
            return (enorm(ctx.raising(inv)), enorm(ctx.raising(beta)),
                    enorm(beta))

        rows = [split_draw() for _ in range(count)]
        out.append(residual_record(
            f"invariant-annihilated{tag}",
            "R kills the invariant part of every (1,1)-form",
            count, (r_inv for r_inv, _, _ in rows), tol.sl2))
        # R is sqrt(2) times an isometry on the non-invariant part, so any
        # floor below that certifies detection with a wide gap; a sweep
        # with no non-invariant draw reduces to inf and fails
        ratios = [r_beta / nb for _, r_beta, nb in rows if nb > 1e-8]
        out.append(margin_record(
            f"noninvariant-detected{tag}",
            "R is bounded below on non-invariant (1,1)-forms",
            len(ratios), ratios, 1.0))

        rmat = ctx.operator_matrix(ctx.raising, b11, ctx.basis_pq(2, 0))
        dimker = len(b11) - int(np.linalg.matrix_rank(rmat, tol=1e-8))
        dim_inv = sum(complex(ctx.invariant_part({mono: 1.0})
                              .get(mono, 0.0)).real for mono in b11)
        out.append(residual_record(
            f"r-kernel-invariant{tag}",
            "kernel of R on (1,1)-forms is exactly the invariant subspace",
            len(b11), abs(dimker - dim_inv), tol.sl2))

        def ladder_gap(mono, q, c):
            el = {mono: 1.0}
            for op in [ctx.lowering] * q + [ctx.raising] * q:
                el = op(el)
            return enorm(esub(el, escale({mono: 1.0}, c)))

        gaps = [ladder_gap(mono, q, ladder_constant(k - q, q))
                for k in range(1, m + 1) for q in range(1, k + 1)
                for mono in ctx.basis_pq(k, 0)]
        out.append(residual_record(
            f"ladder-normalization{tag}",
            "R^q Rbar^q multiplies (k,0)-forms by the ladder constant",
            len(gaps), gaps, tol.sl2))

        M = ctx.mmat
        out.append(residual_record(
            f"antilinear-structure{tag}",
            "M is unitary, antisymmetric, and squares to -1 with conj",
            1, _max_abs([M @ M.conj().T - np.eye(m),
                         M @ np.conj(M) + np.eye(m), M + M.T]), tol.linear))

        def cov_square_gap(k, mono, u):
            el = {mono: 1.0}
            return enorm(esub(ctx.cov_mult(u, ctx.cov_mult(u, el)),
                              escale(el, (-1.0) ** k)))

        out.append(residual_record(
            f"cov-squares{tag}",
            "each multiplicative unit action squares to (-1)^degree",
            3 * npts, (cov_square_gap(k, mono, u) for k in range(2 * m + 1)
                       for mono in bases[k] for u in ("I", "J", "K")),
            tol.sl2))
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

    def anti(f):
        a = del_hol(del_j(f))
        b = del_j(del_hol(f))
        return FormField(a.chart, a.degree,
                         lambda pt: eadd(a.eval_real(pt), b.eval_real(pt)))

    for identity, detail, zeros in (
            ("d-squared", "d of d vanishes on scalars and 1-form fields",
             [exterior_d(exterior_d(f)) for f in scalars + [one]]),
            ("del-squared", "del of del vanishes",
             [del_hol(del_hol(f)) for f in scalars + [f10, f11]]),
            ("dbar-squared", "dbar of dbar vanishes",
             [del_bar(del_bar(f)) for f in scalars + [f01, f11]]),
            ("delj-squared", "del_J of del_J vanishes on (p,0) fields",
             [del_j(del_j(f)) for f in scalars + [f10, f20]]),
            ("del-delj-anticommute",
             "del and del_J anticommute on (p,0) fields",
             [anti(f) for f in scalars + [f10]])):
        out.append(residual_record(
            identity, detail, len(zeros) * len(pts),
            (enorm(g.at(pt)) for g in zeros for pt in pts), tol.bicomplex))

    pairs = [(del_hol(del_j(f)), del_hol(del_bar(f))) for f in scalars]
    out.append(residual_record(
        "ddj-r-transfer",
        "del del_J equals R applied to del dbar on scalars",
        len(pairs) * len(pts),
        (enorm(esub(ddj.frame_at(pt), ch.ctx.raising(ddb.frame_at(pt))))
         for ddj, ddb in pairs for pt in pts), tol.bicomplex))

    sq = scalar_field(ch, lambda pt: sum(x * x for x in pt))
    dd = del_hol(del_j(sq))
    target = escale(ch.ctx.omega_canonical(), 2.0)
    out.append(residual_record(
        "moment-potential",
        "del del_J of the squared radius is twice the canonical form",
        len(pts[:3]), (enorm(esub(dd.frame_at(pt), target)) for pt in pts[:3]),
        tol.bicomplex))

    chx = flat_chart(max(2, cfg.n))
    cpts = sample_points(rng, chx.dim, max(3, cfg.samples // 30))
    rows = []
    for p, q in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
        eta = random_pq_field(chx, p, q, rng, top_weight=True)
        phi_eta = ladder_map(eta, p, q)
        lhs_p = ladder_map(d_plus(eta, p, q, "prime"), p + 1, q)
        rhs_p = del_hol(phi_eta)
        kp = (p + 1) / (p + q + 1)
        lhs_s = ladder_map(d_plus(eta, p, q, "second"), p, q + 1)
        rhs_s = del_j(phi_eta)
        ks = 1.0 / (p + q + 1)
        rows += [(enorm(esub(lhs_p.at(pt),
                             {k: kp * v for k, v in rhs_p.at(pt).items()})),
                  enorm(esub(lhs_s.at(pt),
                             {k: ks * v for k, v in rhs_s.at(pt).items()})))
                 for pt in cpts]
    prime, second = zip(*rows)
    out.append(residual_record(
        "ladder-correspondence-prime",
        "normalized R-ladder intertwines the first refined differential "
        "with (p+1)/(p+q+1) del",
        len(rows), prime, tol.correspondence))
    out.append(residual_record(
        "ladder-correspondence-second",
        "normalized R-ladder intertwines the second refined differential "
        "with 1/(p+q+1) del_J",
        len(rows), second, tol.correspondence))

    fields = [random_pq_field(chx, p, 0, rng) for p in range(3)]
    pairs = [(d_plus(f, p, 0, "prime"), del_hol(f))
             for p, f in enumerate(fields)]
    out.append(residual_record(
        "dplus-is-del",
        "the first refined differential reduces to del on (p,0) fields",
        len(pairs) * len(cpts),
        (enorm(esub(dp.at(pt), dh.at(pt))) for dp, dh in pairs for pt in cpts),
        tol.correspondence))
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

        def form20():
            return _rand_element(ctx.basis_pq(2, 0), rng)

        def complex_draw(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        def involution_gaps():
            for _ in range(count):
                el = form20()
                yield enorm(esub(
                    quaternionic_conj(ctx, quaternionic_conj(ctx, el)), el))

        out.append(residual_record(
            f"conj-involution{tag}",
            "the quaternionic conjugation of (2,0)-forms is an involution",
            count, involution_gaps(), tol.linear))

        def symmetrized_gaps():
            for _ in range(count):
                el = form20()
                sym = escale(eadd(el, quaternionic_conj(ctx, el)), 0.5)
                G = gram(ctx, sym)
                yield qreal_residual(ctx, sym)
                yield float(np.max(np.abs(G - G.conj().T)))

        out.append(residual_record(
            f"qreal-gram-hermitian{tag}",
            "symmetrized forms are q-real with Hermitian Gram matrix",
            count, symmetrized_gaps(), tol.linear))

        def hermitian_gram_gaps():
            for _ in range(count):
                G0 = complex_draw((m, m))
                yield qreal_residual(ctx, omega_from_gram(
                    ctx, (G0 + G0.conj().T) / 2))

        out.append(residual_record(
            f"hermitian-gram-qreal{tag}",
            "every Hermitian Gram matrix produces a q-real form",
            count, hermitian_gram_gaps(), tol.linear))

        def form_roundtrip_gaps():
            for _ in range(count):
                el = random_qreal_positive(ctx, rng)
                yield enorm(esub(omega_from_gram(ctx, gram(ctx, el)), el))

        out.append(residual_record(
            f"roundtrip-form{tag}",
            "form to Gram matrix and back is the identity",
            count, form_roundtrip_gaps(), tol.roundtrip))

        def metric_roundtrip_gaps():
            for _ in range(count):
                G = random_hyperhermitian_metric(ctx, rng)
                yield gram(ctx, omega_from_gram(ctx, G)) - G

        out.append(residual_record(
            f"roundtrip-metric{tag}",
            "Gram matrix to form and back is the identity",
            count, _max_abs(metric_roundtrip_gaps()), tol.roundtrip))

        def hyperhermitian_gaps():
            for _ in range(count):
                G = random_hyperhermitian_metric(ctx, rng)
                P = hyperhermitian_project(ctx, complex_draw((m, m)))
                yield hyperhermitian_residual(ctx, G)
                yield float(np.max(np.abs(
                    hyperhermitian_project(ctx, P) - P)))

        out.append(residual_record(
            f"hyperhermitian-structure{tag}",
            "generated metrics are J-compatible and the projector is "
            "idempotent",
            count, hyperhermitian_gaps(), tol.linear))

        out.append(margin_record(
            f"positivity-margin{tag}",
            "generated q-positive forms have a strictly positive Gram floor",
            count, (qpos_margin(ctx, random_qreal_positive(ctx, rng))
                    for _ in range(count)), tol.positivity_floor))

        def pairing_gaps():
            for _ in range(count):
                el = form20()
                G = gram(ctx, el)
                x = complex_draw(m)
                y = complex_draw(m)
                yield abs(hermitian_pair(ctx, el, x, y) - x @ G @ np.conj(y))

        out.append(residual_record(
            f"pairing-gram{tag}",
            "the Hermitian pairing of a form matches its Gram matrix",
            count, pairing_gaps(), tol.linear))

        G = gram(ctx, ctx.omega_canonical())
        out.append(residual_record(
            f"canonical-form{tag}",
            "the canonical (2,0)-form has identity Gram matrix",
            1, (float(np.max(np.abs(G - np.eye(m)))),
                abs(qpos_margin(ctx, ctx.omega_canonical()) - 1.0)),
            tol.linear))
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
            len(pts), inv, tol.bundle))
        out.append(residual_record(
            f"curvature-type11({nm})",
            "curvature is (1,1) for each of the three complex structures",
            len(pts), t11, tol.bundle))
        out.append(residual_record(
            f"bianchi({nm})",
            "covariant exterior derivative of the curvature vanishes",
            len(pts), bia, tol.bundle))

    def disagreement(conn):
        inv, t11, _ = res[conn.name]
        inv_ok = max_keep_nan(inv[:n_agree]) <= tol.bundle
        t11_ok = max_keep_nan(t11[:n_agree]) <= tol.bundle
        return float(inv_ok != t11_ok or inv_ok != conn.hyperholomorphic)

    out.append(residual_record(
        "criteria-agreement",
        "invariance and (1,1)-type accept and reject the same catalog "
        "entries, matching each entry's flag",
        n_agree * len(conns), map(disagreement, conns), 0.5))
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
    # Points, so each sample builds its tables and curvature once
    pts = [Point(pt) for pt in sample_points(rng, dim, samples)]
    zf = [Point(pt[:nb] + [0.0] * (dim - nb)) for pt in pts[:2]]

    def roundtrip_gaps():
        for pt in pts:
            el = {(i,): complex(rng.standard_normal(), rng.standard_normal())
                  for i in range(dim)}
            yield enorm(esub(to_real(ch, to_frame(ch, el, pt), pt), el))

    out.append(residual_record(
        "frame-roundtrip",
        "real to frame coefficients and back is the identity",
        len(pts), roundtrip_gaps(), tolv))

    fiber_fields = [FormField(ch, 1, (lambda a: lambda pt: {(mb + a,): 1.0})(a))
                    for a in range(ts.rank)]
    d_fields = [exterior_d(f) for f in fiber_fields]

    spts = pts[:max(10, samples // 10)]

    def structure_gaps():
        for pt in spts:
            v = ts.fiber_values(pt)
            A = conn.coeff(pt)
            grid = curvature_entry_forms(conn, pt)
            for a in range(ts.rank):
                rhs: dict = {}
                for b in range(ts.rank):
                    rhs = eadd(rhs, escale(grid[a][b], complex(v[b])))
                    aform = {(mu,): A[mu][a][b] for mu in range(nb)
                             if A[mu][a][b] != 0}
                    rhs = esub(rhs, wedge(aform,
                                          to_real(ch, {(mb + b,): 1.0}, pt)))
                yield enorm(esub(d_fields[a].at(pt), rhs))

    out.append(residual_record(
        "structure-equation",
        "d of the covariant fiber coframe is curvature times the fiber "
        "minus connection wedge coframe",
        len(spts), structure_gaps(), tolv))

    psi_f = scalar_field(ch, lambda pt: psi(ts, pt))
    dpsi = del_hol(psi_f)
    djpsi = del_j(psi_f)
    ddbar = del_hol(del_bar(psi_f))
    ddj = del_hol(del_j(psi_f))
    two_over = escale(omega_ver_canonical(ts), 2.0)

    def potential_gaps(pt):
        fr_db = ddbar.frame_at(pt)
        fr_dj = ddj.frame_at(pt)
        rhs = eadd(omega_ver_expr(ts), to_frame(ch, xi_curv_expr(ts, pt), pt))
        return (enorm(esub(dpsi.frame_at(pt), del_psi_expr(ts, pt))),
                enorm(esub(djpsi.frame_at(pt), del_j_psi_expr(ts, pt))),
                enorm(esub(fr_db, rhs)),
                enorm(esub(fr_dj, two_over)),
                enorm(esub(fr_dj, ctx.raising(fr_db))))

    w_dp, w_dj, w_db, w_ddj, w_rt = zip(*map(potential_gaps, pts + zf))
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

    def curvature_term_gaps(pt):
        xi = xi_curv_expr(ts, pt)
        fr_xi = to_frame(ch, xi, pt)
        pt2 = Point(pt[:nb] + [2.0 * x for x in pt[nb:]])
        return (enorm(ctx.raising(fr_xi)),
                enorm(esub(fr_xi, ctx.invariant_part(fr_xi))),
                enorm(esub(xi_curv_expr(ts, pt2), escale(xi, 4.0))))

    w_wt, w_inv, w_sc = zip(*map(curvature_term_gaps, pts))
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
    om_f = FormField(ch, 2, lambda pt: omega_el)
    dom = del_hol(om_f)
    out.append(residual_record(
        "del-closed", "del of the candidate HKT form vanishes", len(pts),
        (enorm(dom.at(pt)) for pt in pts), tolv))

    # the candidate form has constant frame coefficients: one evaluation
    out.append(residual_record(
        "omega-qreal", "the candidate HKT form is q-real",
        1, qreal_residual(ctx, omega_el), tolv))
    out.append(margin_record(
        "omega-qpositive",
        "the candidate HKT form has a strictly positive Gram floor",
        1, qpos_margin(ctx, omega_el), tol.positivity_floor))

    mats = {u: structure_matrix_field(ts, u) for u in ("I", "J", "K")}
    gs = [natural_metric(ts, pt) for pt in pts]
    if bundle_name == "flat":
        out.append(residual_record(
            "metric-flat-identity",
            "the natural metric of the flat bundle is the euclidean one",
            len(pts), _max_abs(g - np.eye(dim) for g in gs), tolv))

    def structure_matrix_gaps(pt, g):
        L = {u: np.array(mats[u](pt), dtype=float) for u in mats}
        quat = [L[u] @ L[u] + np.eye(dim) for u in L]
        quat += [L["I"] @ L["J"] - L["K"], L["I"] @ L["J"] + L["J"] @ L["I"]]
        return _max_abs(L[u].T @ g @ L[u] - g for u in L), _max_abs(quat)

    w_minv, w_quat = zip(*map(structure_matrix_gaps, pts, gs))
    out.append(residual_record(
        "metric-invariance",
        "the natural metric is invariant under all three structures",
        len(pts), w_minv, tolv))
    out.append(residual_record(
        "quaternion-relations",
        "the lifted structures square to -1 and multiply like i, j, k",
        len(pts), w_quat, tolv))

    V = np.zeros((dim, dim - nb))
    V[nb:, :] = np.eye(dim - nb)

    def splitting_gaps(pt, g):
        H = np.array([horizontal_lift(ts, pt, row)
                      for row in np.eye(nb)], dtype=float).T
        yield H.T @ g @ H - np.eye(nb)
        yield H.T @ g @ V
        yield V.T @ g @ V - np.eye(dim - nb)

    out.append(residual_record(
        "metric-splitting",
        "horizontal lifts are orthonormal and orthogonal to the fibres",
        len(pts), (_max_abs(splitting_gaps(pt, g)) for pt, g in zip(pts, gs)),
        tolv))

    dpsi_real = exterior_d(psi_f)

    def gradient_norm_gap(pt, g):
        w = np.zeros(dim)
        for mono, c in dpsi_real.at(pt).items():
            w[mono[0]] = float(complex(c).real)
        val = float(w @ np.linalg.solve(g, w))
        p = float(psi(ts, pt))
        return abs(val - 4.0 * p) / (1.0 + 4.0 * p)

    out.append(residual_record(
        "potential-gradient-norm",
        "the metric norm of d of the potential is twice its square root",
        len(pts), map(gradient_norm_gap, pts, gs), tolv))

    npts_nij = pts[:max(50, samples // 2)]
    out.append(residual_record(
        "nijenhuis",
        "all three lifted structures have vanishing Nijenhuis tensor",
        len(npts_nij), (nijenhuis_residual(mats[u], pt, dim)
                        for pt in npts_nij for u in mats), nij_tol))
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
    ctx = ts.ctx
    mb = 2 * ts.n
    m = ctx.m
    pts = fundamental_domain_points(h, rng, cfg.samples)
    otf = omega_tilde_field(h)
    omh = omega_hor_expr(ts)
    frames = [otf.frame_at(pt) for pt in pts]

    def log_shift_gap(pt):
        a = float(np.log(float(psi(ts, rho_apply(h, pt)))))
        b = float(np.log(float(psi(ts, pt))))
        return abs(a - b - 2.0 * np.log(abs(h.q)))

    out.append(residual_record(
        "potential-homogeneity",
        "log of the fiber norm shifts by 2 log|q| under the dilation",
        len(pts), map(log_shift_gap, pts), tol.secondderiv))

    ddj_log = del_hol(del_j(log_psi_field(h)))
    out.append(residual_record(
        "log-potential-identity",
        "the quotient form is the horizontal form plus del del_J of the "
        "log potential",
        len(pts), (enorm(esub(fr, eadd(omh, ddj_log.frame_at(pt))))
                   for pt, fr in zip(pts, frames)), tol.secondderiv))

    def dilation_gaps(pt, fr):
        img = otf.frame_at(rho_apply(h, pt))
        lam = float(rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0]))
        img2 = otf.frame_at(rho_apply(h, pt, scale=lam))
        return (enorm(esub(rho_pullback(h, img), fr)),
                enorm(esub(rho_pullback(h, img2, scale=lam), fr)))

    w_inv, w_hom = zip(*map(dilation_gaps, pts, frames))
    out.append(residual_record(
        "dilation-invariance",
        "the quotient form pulls back to itself under the dilation",
        len(pts), w_inv, tol.secondderiv))
    out.append(residual_record(
        "dilation-homogeneity",
        "invariance holds for arbitrary nonzero real fiber scalings",
        len(pts), w_hom, tol.secondderiv))

    dot = del_hol(otf)
    out.append(residual_record(
        "del-closed", "del of the quotient form vanishes",
        len(pts), (enorm(dot.at(pt)) for pt in pts), tol.secondderiv))

    def gram_values(fr):
        G = gram(ctx, fr)
        scale = max(1.0, float(np.linalg.norm(G, 2)))
        mg = qpos_margin(ctx, fr)
        return (qreal_residual(ctx, fr), hyperhermitian_residual(ctx, G),
                mg / scale, mg)

    w_qr, w_hh, relative, margins = zip(*map(gram_values, frames))
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
        len(pts), relative, tol.positivity_floor))

    mfib = ctx.mmat[mb:, mb:]
    probe_rows, w_orth = [], []
    for pt, fr in zip(pts, frames):
        p = float(psi(ts, pt))
        v = np.asarray(ts.fiber_values(pt), dtype=complex)
        w = -(mfib.T @ np.conj(v))
        probes = [vertical_probe(h, rng) for _ in range(cfg.probes - 1)]
        probes.append(radial_probe(h, pt))
        for x in probes:
            pair = float(complex(hermitian_pair(ctx, fr, x, x)).real)
            nx = fiber_norm2(h, x)
            probe_rows.append(((pair - nx / p) / (nx / p),
                               (2.0 * nx / p - pair) / (nx / p),
                               abs(pair - nx / p) / (nx / p), pair))
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
            w_orth.append(abs(pair - 2.0 * nx / p) / (nx / p))
    lower, upper, tight, pairs = zip(*probe_rows)
    out.append(margin_record(
        "cauchy-lower",
        "vertical values are at least the fiber norm over the potential",
        len(probe_rows), lower, -tol.positivity_floor))
    out.append(margin_record(
        "cauchy-upper",
        "vertical values are at most twice the fiber norm over the "
        "potential",
        len(probe_rows), upper, -tol.positivity_floor))
    if ts.rank == 2:
        out.append(residual_record(
            "cauchy-tight-rank2",
            "on a rank-2 fiber the lower bound is an equality for every "
            "vertical probe",
            len(probe_rows), tight, tol.secondderiv))
    else:
        out.append(residual_record(
            "cauchy-orthogonal-probe",
            "probes orthogonal to the fiber value and its conjugate "
            "partner attain the upper bound",
            len(pts), w_orth, tol.secondderiv))

    def orthogonality_gaps():
        for fr in frames:
            xb = np.zeros(m, dtype=complex)
            xb[:mb] = rng.standard_normal(mb) + 1j * rng.standard_normal(mb)
            xv = vertical_probe(h, rng)
            sc = float(np.linalg.norm(xb) * np.linalg.norm(xv))
            yield abs(hermitian_pair(ctx, fr, xb, xv)) / sc

    out.append(residual_record(
        "horizontal-vertical-orthogonal",
        "base directions pair to zero with fiber directions",
        len(pts), orthogonality_gaps(), tol.secondderiv))

    def blowup_gap(pt, eps):
        pe = list(pt)
        pe[4 * ts.n:] = [eps * x for x in pe[4 * ts.n:]]
        Gv = gram(ctx, otf.frame_at(pe))[mb:, mb:]
        lam = float(np.linalg.eigvalsh((Gv + Gv.conj().T) / 2)[0])
        return abs(lam * float(psi(ts, pe)) - 1.0)

    near = [(pt, eps) for pt in pts[:10] for eps in (1.0, 0.3, 0.1, 0.03)]
    out.append(residual_record(
        "vertical-blowup-rate",
        "the smallest vertical Gram eigenvalue scales as one over the "
        "potential",
        len(near), (blowup_gap(pt, eps) for pt, eps in near),
        tol.secondderiv))

    out.append(residual_record(
        "positivity-agreement",
        "matrix margin and probe values certify positivity together",
        len(pts), [float(x <= 0.0) for x in margins + pairs], 0.5))
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
