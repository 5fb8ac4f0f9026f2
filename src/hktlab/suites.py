"""Verification suites.

Each suite builds its objects fresh from the config, sweeps the identities
it owns over seeded random samples, and returns one CheckRecord per
identity.  Residual records bound a max residual from above; margin
records bound a min (positivity gaps, detection ratios) from below.

A sweep yields one column per record it serves: an array of the record's
values with one row per evaluated sample, and trailing axes where a sample
has several values.  report.record reduces every record's values by one
rule, and a swept record counts its column's rows as its `points`; only
records of whole operator blocks or of one value (the algebra block checks,
r-omega, r-kernel-invariant, antilinear-structure, canonical-form,
criteria-agreement and the totspace records of constant forms) state their
count.  A suite's records share one cfg.rng() stream.  Each sweep makes
all its draws first, in the order that fixes every value of the report,
then evaluates them once: the bicomplex, bundle, totspace and hopf fields
at the stacked Point of all their samples (fields.stack_points).  Every
per-sample normal draw of a sweep is one block, read in the order of a
per-sample loop: the sample points (fields.sample_points), and through
_draw a qpos record's forms and matrices, the algebra (1,1) forms, the
totspace frame-roundtrip elements and the hopf probes and base and fiber
vectors.  Two draws stay per sample, as _draw draws normals only: the
hopf dilation scales (a uniform times a random sign) and
hopf.fundamental_domain_points (rejection sampling).  The
algebra block checks broadcast over exterior.py's stacks of same-size
su(2) blocks.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bundles import (_curvature_element, _max_per_sample, _point_coeff,
                      bianchi_residual, catalog_names, get_connection,
                      invariance_residual, structure_charts, type11_residual)
from .charts import flat_chart, to_frame, to_real
from .duals import Point, sample_shape
from .exterior import (eadd, enorm, escale, esub, positive_dimension, wedge)
from .fields import (FormField, d_plus, del_bar, del_hol, del_j, exterior_d,
                     ladder_constant, ladder_map, nijenhuis_residual,
                     random_form_field, random_polynomial, random_pq_field,
                     sample_points, scalar_field, stack_points)
from .hermitian import (_adjoint, _eigenvalues, gram, hermitian_pair,
                        hyperhermitian_project, hyperhermitian_residual,
                        hyperhermitian_metric, omega_from_gram,
                        qpos_margin, qpositive_form, qreal_residual,
                        quaternionic_conj)
from .hopf import (fiber_norm2, fundamental_domain_points, hopf_data,
                   log_psi_field, omega_tilde_field, radial_probe, rho_apply,
                   rho_pullback)
from .report import Spec, VerificationReport, record, sweep_records
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
        return dataclasses.asdict(self)


# the hopf suite evaluates fiber radii down to |q| (dilated samples) and
# 0.03 / max(1, |q|) (blow-up probes), which in this range of |q| stay above
# sqrt(hopf.MIN_PSI) = 1e-4; beyond it the zero section or overflow is reached
HOPF_Q_RANGE = (1e-3, 1e2)

# the algebra suite holds one degree's su(2) blocks at a time; the largest,
# degree 2n, holds 6.6 MB per square operator at n=4 and 212 MB at n=5, and
# six of them, built before any check runs, take about 1.3 GB there
ALGEBRA_MAX_N = 4


@dataclass
class ScenarioConfig:
    n: int = 1
    bundle: str = "bpst"
    q: float = 2.0
    samples: int = 100
    probes: int = 20
    seed: int = 42
    tol: Tolerances = field(default_factory=Tolerances)

    def validate(self, suite: str) -> None:
        """Raise ValueError for a config that `suite` cannot run."""
        for name in ("n", "samples", "probes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        lo, hi = HOPF_Q_RANGE
        if not lo <= abs(self.q) <= hi or abs(abs(self.q) - 1.0) < 1e-12:
            raise ValueError(f"q must satisfy {lo:g} <= |q| <= {hi:g} and "
                             "|q| != 1")
        for name, value in self.tol.as_dict().items():
            if not value >= 0.0:
                raise ValueError(f"tolerance {name} must be a non-negative "
                                 "number")
        try:
            get_connection(self.bundle)
        except KeyError as exc:
            raise ValueError(f"bundle: {exc.args[0]}") from None
        if self.n != 1 and suite in ("bundle", "totspace", "hopf"):
            raise ValueError(f"n must be 1 for {suite}: every catalog "
                             "connection lives over H^1")
        if self.n > ALGEBRA_MAX_N and suite in ("algebra", "all"):
            raise ValueError(f"n must be at most {ALGEBRA_MAX_N} for {suite}: "
                             "the su(2) blocks of its largest degree take "
                             "about 1.3 GB at n=5 (40 MB at n=4)")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def echo(self) -> dict:
        return {"n": self.n, "bundle": self.bundle, "q": self.q,
                "samples": self.samples, "probes": self.probes,
                "seed": self.seed, "tolerances": self.tol.as_dict()}


def _draw(rng, count: int, *parts) -> list:
    """`count` samples read from rng as one block of normals, each sample's
    values contiguous and in the order of a loop drawing one sample at a
    time, split into `parts`: a list of monomials gives an element whose
    coefficients, each drawn as a real and imaginary pair, are arrays over
    the samples; a shape gives a complex (count, *shape) array, its real
    parts drawn before its imaginary parts."""
    sizes = [2 * (len(p) if isinstance(p, list) else math.prod(p))
             for p in parts]
    block = rng.standard_normal((count, sum(sizes)))
    out = []
    for part, vals in zip(parts, np.split(block, np.cumsum(sizes)[:-1], 1)):
        if isinstance(part, list):
            out.append(dict(zip(part, vals.copy().view(complex).T)))
        else:
            re, im = np.split(vals, 2, 1)
            out.append((re + 1j * im).reshape(count, *part))
    return out


def _stacked_records(specs, stacked, columns) -> list:
    """Records of a sweep whose fields each evaluate once, at the stacked Point
    `stacked` of its samples: column j lists the Point -> element maps whose
    enorm, an array over the samples or one value they share, gives spec j's
    values, field after field."""
    shape = sample_shape(stacked)
    return sweep_records(specs, [
        np.concatenate([np.broadcast_to(enorm(f(stacked)), shape)
                        for f in fields]) for fields in columns])


# ----- algebra -----

def _top_trace(stacks) -> float:
    """Trace of a projector over the block stacks of one degree, given as
    (monos, (B, s, s) projector stack) pairs: the blocks' traces summed one
    at a time in the order of their smallest member, whatever stack holds
    them, so that the last bit does not depend on how the blocks group by
    size."""
    traces = sorted((mem[0], t) for monos, P in stacks for mem, t in zip(
        monos, np.trace(P, 0, 1, 2).real))
    return sum(t for _, t in traces)


def _degree_values(ctx, k: int) -> dict:
    """The values of every per-degree block check on degree k, keyed by
    record name: the degree's blocks and cov_blocks are built here and
    dropped on return, so one degree's stacks are alive at a time.  Each
    record's values keep their order within the degree."""
    m = ctx.m
    blocks = ctx.su2_blocks(k)
    ws = ctx.weight_list(k)
    out = {name: [] for name in (
        "sl2-brackets", "su2-brackets", "unit-weight", "unit-spectra",
        "casimir-spectrum", "weight-projectors", "positive-dimension",
        "ladder-normalization", "cov-squares")}
    tops = []
    for blk in blocks:
        R, Rb, h = blk.ops["R"], blk.ops["Rb"], blk.ops["H"]
        hr, hc = h[..., :, None], h[..., None, :]  # hr * X = H X, X * hc = X H
        out["sl2-brackets"] += [np.abs(r).max() for r in (
            hr * R - R * hc - 2.0 * R, hr * Rb - Rb * hc + 2.0 * Rb,
            R @ Rb - Rb @ R - h[..., None] * np.eye(h.shape[-1]))]
        for x, y, z in (("I", "J", "K"), ("J", "K", "I"), ("K", "I", "J")):
            lx, ly = blk.ops["L_" + x], blk.ops["L_" + y]
            out["su2-brackets"].append(
                np.abs(lx @ ly - ly @ lx + 2.0 * blk.ops["L_" + z]).max())
        # per monomial, its L_I column's distance from i(p-q) e_mono
        labels = np.array(blk.monos, dtype=int)  # (B, s, k)
        pq = 1j * (2 * (labels < m).sum(axis=-1) - k)
        gap = blk.ops["L_I"] - pq[:, None, :] * np.eye(pq.shape[1])
        out["unit-weight"].append(np.max(np.abs(gap), axis=1).ravel())

        ps = [blk.projector(w) for w in ws]
        out["weight-projectors"].append(np.abs(sum(ps) - np.eye(
            ps[0].shape[-1])).max())
        for i, pw in enumerate(ps):
            out["weight-projectors"].append(np.abs(pw @ pw - pw).max())
            out["weight-projectors"] += [np.abs(pw2 @ pw).max()
                                         for pw2 in ps[i + 1:]]
        if k <= m:  # the top weight is k
            tops.append((blk.monos, ps[0]))
        if 1 <= k <= m:
            # per (k,0) monomial and q, the column of R^q Rbar^q - c Id
            top = labels.max(axis=-1) < m
            prod = eye = np.eye(top.shape[1])
            for q in range(1, k + 1):
                prod = R @ prod @ Rb
                gap = prod - ladder_constant(k - q, q) * eye
                out["ladder-normalization"].append(
                    np.max(np.abs(gap), axis=1)[top])
    if k <= m:
        out["positive-dimension"].append(
            abs(_top_trace(tops) - positive_dimension(m, k)))

    def spectrum(name):
        return np.concatenate([_eigenvalues(blk.ops[name], False).ravel()
                               for blk in blocks])

    si = np.sort(spectrum("L_I").imag)
    for u in ("L_J", "L_K"):
        ev = spectrum(u)
        out["unit-spectra"] += [np.abs(ev.real).max(),
                                np.abs(np.sort(ev.imag) - si).max()]
    targets = np.array([w * (w + 2) for w in ws])
    lam = spectrum("C")
    out["casimir-spectrum"].append(
        np.min(np.abs(lam[:, None] - targets[None, :]), axis=1))

    for mats in ctx.cov_blocks(blocks).values():
        out["cov-squares"] += [
            np.abs(c @ c - (-1.0) ** k * np.eye(c.shape[-1])).max()
            for c in mats]
    return out


def _split_norms(ctx, el) -> tuple:
    """The enorms of R of the invariant part of the (1,1)-form el, of R of
    the rest, and of the rest."""
    inv = ctx.invariant_part(el)
    beta = esub(el, inv)
    return enorm(ctx.raising(inv)), enorm(ctx.raising(beta)), enorm(beta)


def algebra_records(cfg: ScenarioConfig) -> list:
    tol = cfg.tol
    rng = cfg.rng()
    out = []
    for n in sorted({1, 2, cfg.n}):
        ctx = flat_chart(n).ctx
        m = ctx.m
        tag = f"(n={n})"
        values = {}
        for k in range(2 * m + 1):
            for name, vals in _degree_values(ctx, k).items():
                values.setdefault(name, []).extend(vals)
        npts = 4 ** m  # the monomials of every degree

        out.append(record(Spec(
            f"sl2-brackets{tag}",
            "[H,R]=2R, [H,Rbar]=-2Rbar, [R,Rbar]=H on every degree", tol.sl2),
            npts, values["sl2-brackets"]))
        out.append(record(Spec(
            f"su2-brackets{tag}", "[L_I,L_J]=-2L_K and cyclic permutations",
            tol.sl2), 3 * npts, values["su2-brackets"]))
        out += sweep_records([Spec(
            f"unit-weight{tag}", "L_I acts as i(p-q) on (p,q)-forms",
            tol.sl2)], [np.concatenate(values["unit-weight"])])
        out.append(record(Spec(
            f"unit-spectra{tag}",
            "L_J and L_K have the same spectrum as L_I on each degree",
            tol.casimir), npts, values["unit-spectra"]))
        out.append(record(Spec(
            f"casimir-spectrum{tag}",
            "Casimir eigenvalues sit on w(w+2) for admissible weights",
            tol.casimir), npts, np.concatenate(values["casimir-spectrum"])))
        out.append(record(Spec(
            f"weight-projectors{tag}",
            "weight projectors are idempotent, orthogonal, and sum to 1",
            tol.sl2), npts, values["weight-projectors"]))
        out += sweep_records([Spec(
            f"positive-dimension{tag}",
            "top-weight subspace of degree p has dimension (p+1) C(m,p)",
            tol.sl2)], [values["positive-dimension"]])

        out.append(record(Spec(
            f"r-omega{tag}",
            "R sends the fundamental (1,1)-form to the canonical (2,0)-form",
            tol.sl2), 1, enorm(esub(ctx.raising(ctx.omega_hat()),
                                    ctx.omega_canonical()))))

        b11 = ctx.basis_pq(1, 1)
        count = max(100, cfg.samples)
        r_inv, r_beta, nb = (np.broadcast_to(v, count) for v in _split_norms(
            ctx, *_draw(rng, count, b11)))
        detected = ~(nb <= 1e-8)  # a nan draw stays in, and fails
        # R is sqrt(2) times an isometry on the non-invariant part, so any
        # floor below that certifies detection with a wide gap; a sweep
        # with no non-invariant draw reduces to inf and fails
        out += sweep_records([
            Spec(f"invariant-annihilated{tag}",
                 "R kills the invariant part of every (1,1)-form", tol.sl2),
            Spec(f"noninvariant-detected{tag}",
                 "R is bounded below on non-invariant (1,1)-forms", 1.0,
                 "margin")],
            [r_inv, r_beta[detected] / nb[detected]])

        rmat = ctx.operator_matrix(ctx.raising, b11, ctx.basis_pq(2, 0))
        dimker = len(b11) - int(np.linalg.matrix_rank(rmat, tol=1e-8))
        dim_inv = sum(complex(ctx.invariant_part({mono: 1.0})
                              .get(mono, 0.0)).real for mono in b11)
        out.append(record(Spec(
            f"r-kernel-invariant{tag}",
            "kernel of R on (1,1)-forms is exactly the invariant subspace",
            tol.sl2), len(b11), abs(dimker - dim_inv)))

        out += sweep_records([Spec(
            f"ladder-normalization{tag}",
            "R^q Rbar^q multiplies (k,0)-forms by the ladder constant",
            tol.sl2)], [np.concatenate(values["ladder-normalization"])])

        M = ctx.mmat
        out.append(record(Spec(
            f"antilinear-structure{tag}",
            "M is unitary, antisymmetric, and squares to -1 with conj",
            tol.linear), 1, np.abs([M @ M.conj().T - np.eye(m),
                                    M @ np.conj(M) + np.eye(m), M + M.T])))

        out.append(record(Spec(
            f"cov-squares{tag}",
            "each multiplicative unit action squares to (-1)^degree",
            tol.sl2), 3 * npts, values["cov-squares"]))
    return out


# ----- bicomplex -----

def _bicomplex_sweeps(cfg: ScenarioConfig) -> list:
    """The bicomplex sweeps as (specs, samples, columns), drawn in report
    order: column j lists the fields, as Point -> element maps, whose enorm
    at each sample is a value of the record of spec j."""
    tol = cfg.tol
    rng = cfg.rng()
    ch = flat_chart(cfg.n)
    pts = sample_points(rng, ch.dim, cfg.samples)

    scalars = [random_polynomial(ch, rng, real=False) for _ in range(2)]
    scalars.append(random_polynomial(ch, rng))
    f10 = random_pq_field(ch, 1, 0, rng)
    f01 = random_pq_field(ch, 0, 1, rng)
    f11 = random_pq_field(ch, 1, 1, rng)
    f20 = random_pq_field(ch, 2, 0, rng) if ch.ctx.m >= 2 else f10
    one = random_form_field(ch, 1, rng)

    def gap(lhs, rhs, k=1.0):
        return lambda pt: esub(lhs.at(pt), escale(rhs.at(pt), k))

    def transfer(f):
        ddj, ddb = del_hol(del_j(f)), del_hol(del_bar(f))
        return lambda pt: esub(ddj.frame_at(pt),
                               ch.ctx.raising(ddb.frame_at(pt)))

    sweeps = [([Spec(identity, detail, tol.bicomplex)], pts, [fields])
              for identity, detail, fields in (
        ("d-squared", "d of d vanishes on scalars and 1-form fields",
         [exterior_d(exterior_d(f)).at for f in scalars + [one]]),
        ("del-squared", "del of del vanishes",
         [del_hol(del_hol(f)).at for f in scalars + [f10, f11]]),
        ("dbar-squared", "dbar of dbar vanishes",
         [del_bar(del_bar(f)).at for f in scalars + [f01, f11]]),
        ("delj-squared", "del_J of del_J vanishes on (p,0) fields",
         [del_j(del_j(f)).at for f in scalars + [f10, f20]]),
        ("del-delj-anticommute", "del and del_J anticommute on (p,0) fields",
         [gap(del_hol(del_j(f)), del_j(del_hol(f)), -1.0)
          for f in scalars + [f10]]),
        ("ddj-r-transfer", "del del_J equals R applied to del dbar on "
         "scalars", [transfer(f) for f in scalars]))]

    sq = scalar_field(ch, lambda pt: sum(x * x for x in pt))
    dd = del_hol(del_j(sq))
    target = escale(ch.ctx.omega_canonical(), 2.0)
    sweeps.append(([Spec(
        "moment-potential",
        "del del_J of the squared radius is twice the canonical form",
        tol.bicomplex)], pts[:3],
        [[lambda pt: esub(dd.frame_at(pt), target)]]))

    chx = flat_chart(max(2, cfg.n))
    cpts = sample_points(rng, chx.dim, max(3, cfg.samples // 30))
    prime, second = [], []
    for p, q in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
        eta = random_pq_field(chx, p, q, rng, top_weight=True)
        phi_eta = ladder_map(eta, p, q)
        prime.append(gap(ladder_map(d_plus(eta, p, q, "prime"), p + 1, q),
                         del_hol(phi_eta), (p + 1) / (p + q + 1)))
        second.append(gap(ladder_map(d_plus(eta, p, q, "second"), p, q + 1),
                          del_j(phi_eta), 1.0 / (p + q + 1)))
    sweeps.append(([
        Spec("ladder-correspondence-prime",
             "normalized R-ladder intertwines the first refined "
             "differential with (p+1)/(p+q+1) del", tol.correspondence),
        Spec("ladder-correspondence-second",
             "normalized R-ladder intertwines the second refined "
             "differential with 1/(p+q+1) del_J", tol.correspondence)],
        cpts, [prime, second]))

    fields = [random_pq_field(chx, p, 0, rng) for p in range(3)]
    sweeps.append(([Spec(
        "dplus-is-del",
        "the first refined differential reduces to del on (p,0) fields",
        tol.correspondence)], cpts,
        [[gap(d_plus(f, p, 0, "prime"), del_hol(f))
          for p, f in enumerate(fields)]]))
    return sweeps


def bicomplex_records(cfg: ScenarioConfig) -> list:
    sweeps = _bicomplex_sweeps(cfg)
    # one stacked Point per sample list: the sweeps over it share its seeded
    # child and grandchild and the field values memoised on them
    stacked = {id(pts): stack_points(pts) for _, pts, _ in sweeps}
    return [r for specs, pts, columns in sweeps
            for r in _stacked_records(specs, stacked[id(pts)], columns)]


# ----- q-positivity layer -----

def _qpos_sweeps(ctx, tol: Tolerances) -> list:
    """The drawn qpos records of ctx, in report order, as (spec, parts,
    evaluate): evaluate maps a record's draws _draw(rng, count, *parts), or
    one sample's, to its values, two per sample on a trailing axis."""
    m = ctx.m
    tag = f"(m={m})"
    b20 = ctx.basis_pq(2, 0)

    def form_roundtrip_gap(raw):
        el = qpositive_form(ctx, raw)
        return enorm(esub(omega_from_gram(ctx, gram(ctx, el)), el))

    def metric_roundtrip_gap(B):
        G = hyperhermitian_metric(ctx, B)
        return np.abs(gram(ctx, omega_from_gram(ctx, G)) - G).max((-2, -1))

    def hyperhermitian_gaps(B, P0):
        P = hyperhermitian_project(ctx, P0)
        return np.stack([
            hyperhermitian_residual(ctx, hyperhermitian_metric(ctx, B)),
            np.abs(hyperhermitian_project(ctx, P) - P).max((-2, -1))], -1)

    def pairing_gap(el, x, y):
        xgy = x[..., None, :] @ gram(ctx, el) @ np.conj(y)[..., :, None]
        return abs(hermitian_pair(ctx, el, x, y) - xgy[..., 0, 0])

    return [
        (Spec(f"conj-involution{tag}", "the quaternionic conjugation of "
              "(2,0)-forms is an involution", tol.linear), [b20],
         lambda el: enorm(esub(quaternionic_conj(
             ctx, quaternionic_conj(ctx, el)), el))),
        (Spec(f"qreal-gram-hermitian{tag}", "symmetrized forms are q-real "
              "with Hermitian Gram matrix", tol.linear), [b20],
         lambda el: qreal_residual(
             ctx, escale(eadd(el, quaternionic_conj(ctx, el)), 0.5))),
        (Spec(f"hermitian-gram-qreal{tag}", "every Hermitian Gram matrix "
              "produces a q-real form", tol.linear), [(m, m)],
         lambda G0: qreal_residual(
             ctx, omega_from_gram(ctx, (G0 + _adjoint(G0)) / 2))),
        (Spec(f"roundtrip-form{tag}", "form to Gram matrix and back is the "
              "identity", tol.roundtrip), [b20], form_roundtrip_gap),
        (Spec(f"roundtrip-metric{tag}", "Gram matrix to form and back is the "
              "identity", tol.roundtrip), [(m, m)], metric_roundtrip_gap),
        (Spec(f"hyperhermitian-structure{tag}", "generated metrics are "
              "J-compatible and the projector is idempotent", tol.linear),
         [(m, m), (m, m)], hyperhermitian_gaps),
        (Spec(f"positivity-margin{tag}", "generated q-positive forms have a "
              "strictly positive Gram floor", tol.positivity_floor,
              "margin"), [b20],
         lambda raw: qpos_margin(ctx, qpositive_form(ctx, raw))),
        (Spec(f"pairing-gram{tag}", "the Hermitian pairing of a form "
              "matches its Gram matrix", tol.linear), [b20, (m,), (m,)],
         pairing_gap)]


def qpos_records(cfg: ScenarioConfig) -> list:
    rng = cfg.rng()
    out = []
    count = max(50, cfg.samples // 2)
    for n in (1, 2):
        ctx = flat_chart(n).ctx
        # each record draws its `count` samples as one block, evaluated once
        for spec, parts, evaluate in _qpos_sweeps(ctx, cfg.tol):
            out += sweep_records([spec],
                                 [evaluate(*_draw(rng, count, *parts))])
        G = gram(ctx, ctx.omega_canonical())
        out.append(record(Spec(
            f"canonical-form(m={ctx.m})",
            "the canonical (2,0)-form has identity Gram matrix",
            cfg.tol.linear), 1, [np.abs(G - np.eye(ctx.m)).max(), abs(
                qpos_margin(ctx, ctx.omega_canonical()) - 1.0)]))
    return out


# ----- bundle criteria -----

def bundle_records(cfg: ScenarioConfig) -> list:
    """Curvature criteria over the catalog.

    Each connection evaluates its criteria once, at the stacked Point of its
    samples (all of them for a checked connection, the first n_agree for
    the others), where they share one curvature (duals.point_memo) and
    each residual is an array over the samples.  criteria-agreement reads
    the residuals of the first samples.  Every catalog entry lives over H
    (base_n 1), so the suite builds the I/J/K charts once for all of them.
    """
    tol = cfg.tol
    requested = get_connection(cfg.bundle)
    conns = [get_connection(nm) for nm in catalog_names()]
    checked = ({conn.name for conn in conns if conn.hyperholomorphic}
               if requested.hyperholomorphic else {requested.name})
    pts = sample_points(cfg.rng(), 4, cfg.samples)
    n_agree = min(len(pts), max(10, cfg.samples // 10))
    # per connection: its records if it is checked, and whether its two
    # criteria agree, with each other and its flag, on the first n_agree
    out, disagree, charts = [], [], structure_charts(1)
    for conn in conns:
        nm, full = conn.name, conn.name in checked
        pt = stack_points(pts if full else pts[:n_agree])
        inv, t11 = (invariance_residual(conn, pt, charts),
                    type11_residual(conn, pt, charts))
        if full:
            out += sweep_records([
                Spec(f"curvature-invariance({nm})",
                     "curvature 2-forms have no weight-2 component",
                     tol.bundle),
                Spec(f"curvature-type11({nm})",
                     "curvature is (1,1) for each of the three complex "
                     "structures", tol.bundle),
                Spec(f"bianchi({nm})",
                     "covariant exterior derivative of the curvature "
                     "vanishes", tol.bundle)],
                [inv, t11, bianchi_residual(conn, pt)])
        inv_ok, t11_ok = (record(Spec(nm, "", tol.bundle), n_agree,
                                 r[:n_agree]).passed for r in (inv, t11))
        disagree.append(float(inv_ok != t11_ok
                              or inv_ok != conn.hyperholomorphic))

    out.append(record(Spec(
        "criteria-agreement",
        "invariance and (1,1)-type accept and reject the same catalog "
        "entries, matching each entry's flag", 0.5),
        n_agree * len(conns), disagree))
    return out


# ----- total space -----

def _totspace_sweeps(ts, pts, stacked, tol: float):
    """Yields the structure-equation, potential and curvature-term sweeps of
    the total space ts as (specs, stacked Point, columns), in report order,
    for _stacked_records: the structure equation at the first
    max(10, len(pts) // 10) samples, the potential at pts and the zero-fiber
    copies of the first two, and the curvature term at `stacked`, the
    stacked Point of pts that the total space's other sweeps share.  A
    sweep's own Point is stacked when it is reached, so its memo (the
    seeded children's lane-wide dx among it) is dropped before the next."""
    ch, ctx = ts.chart, ts.ctx
    nb, mb = 4 * ts.n, 2 * ts.n
    zf = [pt[:nb] + [0.0] * (ts.dim - nb) for pt in pts[:2]]

    # d of the fiber coframe Dv_a, whose frame coefficients are constant
    d_fields = [exterior_d(FormField(ch, 1, lambda pt, a=a: {(mb + a,): 1.0}))
                for a in range(ts.rank)]

    def structure_gap(pt):
        """The gaps of every fiber index a as one element keyed (a, mono)."""
        v = ts.fiber_values(pt)
        A = _point_coeff(ts.conn, pt)
        F = _curvature_element(ts.conn, pt)
        coframe = [to_real(ch, {(mb + b,): 1.0}, pt) for b in range(ts.rank)]
        gap: dict = {}
        for a in range(ts.rank):
            rhs: dict = {}
            for b in range(ts.rank):
                rhs = eadd(rhs, {mono: c[..., a, b] * v[b]
                                 for mono, c in F.items()})
                aform = {(mu,): A[..., mu, a, b] for mu in range(nb)}
                rhs = esub(rhs, wedge(aform, coframe[b]))
            gap |= {(a, mono): c for mono, c
                    in esub(d_fields[a].at(pt), rhs).items()}
        return gap

    psi_f = scalar_field(ch, lambda pt: psi(ts, pt))
    dpsi = del_hol(psi_f)
    djpsi = del_j(psi_f)
    fr_db = del_hol(del_bar(psi_f)).value
    fr_dj = del_hol(del_j(psi_f)).value
    two_over = escale(omega_ver_canonical(ts), 2.0)
    # the curvature correction in frame labels
    fr_xi = FormField(ch, 2, lambda pt: to_frame(ch, xi_curv_expr(ts, pt),
                                                 pt)).value

    def quadratic_gap(pt):
        pt2 = Point(pt[:nb] + [2.0 * x for x in pt[nb:]])
        return esub(xi_curv_expr(ts, pt2), escale(xi_curv_expr(ts, pt), 4.0))

    yield ([Spec("structure-equation",
                 "d of the covariant fiber coframe is curvature times the "
                 "fiber minus connection wedge coframe", tol)],
           stack_points(pts[:max(10, len(pts) // 10)]), [[structure_gap]])
    yield (
        [Spec("del-potential",
              "del of the fiber norm matches its closed form", tol),
         Spec("delj-potential",
              "del_J of the fiber norm matches its closed form", tol),
         Spec("deldbar-potential",
              "del dbar of the fiber norm is the vertical (1,1)-form plus "
              "the curvature correction", tol),
         Spec("deldelj-potential",
              "del del_J of the fiber norm is the vertical canonical "
              "(2,0)-form", tol),
         Spec("r-transfer",
              "del del_J of the potential equals R of del dbar of it", tol)],
        stack_points(pts + zf),
        [[lambda pt: esub(dpsi.frame_at(pt), del_psi_expr(ts, pt))],
         [lambda pt: esub(djpsi.frame_at(pt), del_j_psi_expr(ts, pt))],
         [lambda pt: esub(fr_db(pt), eadd(omega_ver_expr(ts), fr_xi(pt)))],
         [lambda pt: esub(fr_dj(pt), two_over)],
         [lambda pt: esub(fr_dj(pt), ctx.raising(fr_db(pt)))]])
    yield ([Spec("curvature-term-weightless",
                 "the curvature correction is killed by R", tol),
            Spec("curvature-term-invariant",
                 "the curvature correction is its own invariant part", tol),
            Spec("curvature-term-quadratic",
                 "the curvature correction is quadratic in the fiber", tol)],
           stacked,
           [[lambda pt: ctx.raising(fr_xi(pt))],
            [lambda pt: esub(fr_xi(pt), ctx.invariant_part(fr_xi(pt)))],
            [quadratic_gap]])


def _metric_gaps(ts, mats, pt) -> list:
    """At each sample of pt: the natural metric's gap to the euclidean one,
    then the metric-invariance, quaternion-relations, metric-splitting and
    potential-gradient-norm values; mats are the lifted structure fields."""
    nb, dim = 4 * ts.n, ts.dim
    g = natural_metric(ts, pt)
    L = {u: mats[u](pt)[0] for u in mats}
    quat = [L[u] @ L[u] + np.eye(dim) for u in L]
    quat += [L["I"] @ L["J"] - L["K"], L["I"] @ L["J"] + L["J"] @ L["I"]]
    # columns: the horizontal lifts of the base coordinate vectors
    H = np.stack([horizontal_lift(ts, pt, row) for row in np.eye(nb)], -1)
    V = np.eye(dim)[:, nb:]
    w = np.zeros(sample_shape(pt) + (dim,))
    dpsi = exterior_d(scalar_field(ts.chart, lambda p: psi(ts, p)))
    for mono, c in dpsi.at(pt).items():
        w[..., mono[0]] = np.real(c)
    val = np.einsum("...i,...i->...", w,
                    np.linalg.solve(g, w[..., None])[..., 0])
    p = psi(ts, pt)

    def t(X):
        return np.swapaxes(X, -1, -2)

    def worst(arrays):
        """Largest entry modulus of each sample's matrices over arrays."""
        return _max_per_sample(pt, map(np.abs, arrays))

    return [worst([g - np.eye(dim)]),
            worst(t(L[u]) @ g @ L[u] - g for u in L), worst(quat),
            worst([t(H) @ g @ H - np.eye(nb), t(H) @ g @ V,
                   V.T @ g @ V - np.eye(dim - nb)]),
            abs(val - 4.0 * p) / (1.0 + 4.0 * p)]


def _totspace_records(cfg: ScenarioConfig, bundle_name: str, samples: int,
                      rng) -> list:
    tol = cfg.tol
    flat = bundle_name == "flat"
    tolv = tol.flat_control if flat else tol.secondderiv
    nij_tol = tol.flat_control if flat else tol.nijenhuis
    out = []
    ts = total_space(get_connection(bundle_name))
    ch, ctx, dim = ts.chart, ts.ctx, ts.dim
    pts = sample_points(rng, dim, samples)
    # the sweeps below share one stacked Point, so its tables and jet are
    # built once
    stacked = stack_points(pts)

    el, = _draw(rng, samples, [(i,) for i in range(dim)])
    out += sweep_records([Spec(
        "frame-roundtrip",
        "real to frame coefficients and back is the identity", tolv)],
        [np.broadcast_to(enorm(esub(to_real(ch, to_frame(ch, el, stacked),
                                            stacked), el)), samples)])

    out += [r for specs, pt, columns in _totspace_sweeps(ts, pts, stacked,
                                                          tolv)
            for r in _stacked_records(specs, pt, columns)]

    two_over = escale(omega_ver_canonical(ts), 2.0)
    out.append(record(Spec(
        "r-omega-ver",
        "R of the vertical (1,1)-form is the vertical (2,0)-form", tolv),
        1, enorm(esub(ctx.raising(omega_ver_expr(ts)), two_over))))

    omega_el = eadd(omega_hor_expr(ts), two_over)
    dom = del_hol(FormField(ch, 2, lambda pt: omega_el))
    out += _stacked_records([Spec(
        "del-closed", "del of the candidate HKT form vanishes", tolv)],
        stacked, [[dom.at]])

    # the candidate form has constant frame coefficients: one evaluation
    out.append(record(Spec(
        "omega-qreal", "the candidate HKT form is q-real", tolv),
        1, qreal_residual(ctx, omega_el)))
    out.append(record(Spec(
        "omega-qpositive",
        "the candidate HKT form has a strictly positive Gram floor",
        tol.positivity_floor, "margin"), 1, qpos_margin(ctx, omega_el)))

    mats = {u: structure_matrix_field(ts, u) for u in ("I", "J", "K")}
    flat_gap, *gaps = [np.broadcast_to(c, samples)
                       for c in _metric_gaps(ts, mats, stacked)]
    if flat:
        out += sweep_records([Spec(
            "metric-flat-identity",
            "the natural metric of the flat bundle is the euclidean one",
            tolv)], [flat_gap])
    out += sweep_records([
        Spec("metric-invariance",
             "the natural metric is invariant under all three structures",
             tolv),
        Spec("quaternion-relations",
             "the lifted structures square to -1 and multiply like i, j, k",
             tolv),
        Spec("metric-splitting",
             "horizontal lifts are orthonormal and orthogonal to the fibres",
             tolv),
        Spec("potential-gradient-norm",
             "the metric norm of d of the potential is twice its square root",
             tolv)], gaps)

    # the first max(50, samples // 2) samples of the stacked structures
    k = max(50, samples // 2)
    out += sweep_records([Spec(
        "nijenhuis",
        "all three lifted structures have vanishing Nijenhuis tensor",
        nij_tol)], [np.stack([nijenhuis_residual(L[:k], dL[:k])
                              for L, dL in (mats[u](stacked) for u in mats)],
                             axis=-1)])
    return out


def totspace_records(cfg: ScenarioConfig) -> list:
    rng = cfg.rng()
    out = _totspace_records(cfg, cfg.bundle, cfg.samples, rng)
    if cfg.bundle != "flat":
        ctrl = _totspace_records(cfg, "flat", max(20, cfg.samples // 5), rng)
        out += [dataclasses.replace(r, identity="flat-control:" + r.identity)
                for r in ctrl]
    return out


# ----- quotient -----

def _hopf_form(h, pt, lam):
    """(frame value, Gram margin, fields) of the quotient form at pt, where
    the fields are those of the hopf form sweep's records, in report order:
    an element whose enorm is the record's value, or the value itself.  lam
    is the arbitrary fiber scaling: an array over the samples of a stacked
    Point, or a float at a plain one."""
    ts, ctx = h.ts, h.ts.ctx
    otf = omega_tilde_field(h)
    fr = otf.frame_at(pt)
    G = gram(ctx, fr)
    mg = qpos_margin(ctx, fr)
    scale = np.maximum(1.0, np.linalg.norm(G, 2, axis=(-2, -1)))
    ddj_log = del_hol(del_j(log_psi_field(h)))
    return fr, mg, [
        abs(np.log(psi(ts, rho_apply(h, pt))) - np.log(psi(ts, pt))
            - 2.0 * np.log(abs(h.q))),
        esub(fr, eadd(omega_hor_expr(ts), ddj_log.frame_at(pt))),
        esub(rho_pullback(h, otf.frame_at(rho_apply(h, pt))), fr),
        esub(rho_pullback(h, otf.frame_at(rho_apply(h, pt, lam)), lam), fr),
        del_hol(otf).at(pt), qreal_residual(ctx, fr),
        hyperhermitian_residual(ctx, G), mg / scale]


def hopf_records(cfg: ScenarioConfig) -> list:
    """Each sweep draws what it needs for all its samples first, in the
    order the samples come, then evaluates once at the stacked Point of its
    samples; a probe is an (S, m) array, one row per sample."""
    tol = cfg.tol
    rng = cfg.rng()
    out = []
    conn = get_connection(cfg.bundle)
    ts = total_space(conn)
    h = hopf_data(ts, cfg.q)
    ctx, mb, m = ts.ctx, 2 * ts.n, ts.ctx.m
    pts = fundamental_domain_points(h, rng, cfg.samples)
    count = len(pts)
    stacked = stack_points(pts)
    p = psi(ts, stacked)

    # the dilation draws, two numbers per sample
    lams = np.array([rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
                     for _ in pts])
    fr, margins, fields = _hopf_form(h, stacked, lams)
    out += sweep_records([
        Spec("potential-homogeneity",
             "log of the fiber norm shifts by 2 log|q| under the dilation",
             tol.secondderiv),
        Spec("log-potential-identity",
             "the quotient form is the horizontal form plus del del_J of the "
             "log potential", tol.secondderiv),
        Spec("dilation-invariance",
             "the quotient form pulls back to itself under the dilation",
             tol.secondderiv),
        Spec("dilation-homogeneity",
             "invariance holds for arbitrary nonzero real fiber scalings",
             tol.secondderiv),
        Spec("del-closed", "del of the quotient form vanishes",
             tol.secondderiv),
        Spec("omega-qreal", "the quotient form is q-real", tol.secondderiv),
        Spec("omega-hyperhermitian",
             "the Gram matrix of the quotient form is J-compatible",
             tol.secondderiv),
        Spec("positivity-margin",
             "the quotient form has a strictly positive scale-relative Gram "
             "floor", tol.positivity_floor, "margin")],
        [np.broadcast_to(enorm(f) if isinstance(f, dict) else f, count)
         for f in fields])

    # per sample: cfg.probes - 1 vertical probes and, on a fiber of rank
    # above 2, one more to make orthogonal to the fiber value and its
    # conjugate partner; the radial probe comes last among the probes
    k = cfg.probes - 1 + (ts.rank > 2)
    drawn = np.zeros((count, k, m), dtype=complex)
    for j, x in enumerate(_draw(rng, count, *[(ts.rank,)] * k)):
        drawn[:, j, mb:] = x
    probes = np.concatenate((drawn[:, :cfg.probes - 1],
                             radial_probe(h, stacked)[:, None]), axis=1)
    # (S, probes): each probe's value, its lower bound n(x)/Psi and its
    # (lower, upper) ratio to that bound
    pairs = np.stack([np.real(hermitian_pair(ctx, fr, x, x))
                      for x in np.moveaxis(probes, 1, 0)], axis=1)
    bound = fiber_norm2(h, probes) / p[:, None]
    lower = ((pairs - bound) / bound).ravel()
    out += sweep_records([
        Spec("cauchy-lower",
             "vertical values are at least the fiber norm over the potential",
             -tol.positivity_floor, "margin"),
        Spec("cauchy-upper",
             "vertical values are at most twice the fiber norm over the "
             "potential", -tol.positivity_floor, "margin")],
        [lower, ((2.0 * bound - pairs) / bound).ravel()])
    if ts.rank == 2:
        # the gap |pair - nx/p| / (nx/p) is the modulus of the lower ratio
        out += sweep_records([Spec(
            "cauchy-tight-rank2",
            "on a rank-2 fiber the lower bound is an equality for every "
            "vertical probe", tol.secondderiv)],
            [np.abs(lower)])
    else:
        u, v = drawn[:, -1], probes[:, -1]
        partner = np.zeros_like(v)
        partner[:, mb:] = -(np.conj(v[:, mb:]) @ ctx.mmat[mb:, mb:])
        for r in (v, partner):
            coef = (np.sum(np.conj(r) * u, axis=-1)
                    / np.sum(np.conj(r) * r, axis=-1))
            u = u - coef[:, None] * r
        bound = fiber_norm2(h, u) / p
        out += sweep_records([Spec(
            "cauchy-orthogonal-probe",
            "probes orthogonal to the fiber value and its conjugate "
            "partner attain the upper bound", tol.secondderiv)],
            [np.abs(np.real(hermitian_pair(ctx, fr, u, u)) - 2.0 * bound)
             / bound])

    xb, xv = np.zeros((2, count, m), dtype=complex)
    xb[:, :mb], xv[:, mb:] = _draw(rng, count, (mb,), (ts.rank,))
    sc = np.linalg.norm(xb, axis=-1) * np.linalg.norm(xv, axis=-1)
    out += sweep_records([Spec(
        "horizontal-vertical-orthogonal",
        "base directions pair to zero with fiber directions",
        tol.secondderiv)],
        [np.abs(hermitian_pair(ctx, fr, xb, xv)) / sc])

    # the first 10 samples, each dilated towards the zero section
    dilated = stack_points([rho_apply(h, pt, eps) for pt in pts[:10]
                            for eps in (1.0, 0.3, 0.1, 0.03)])
    Gv = gram(ctx, omega_tilde_field(h).frame_at(dilated))[:, mb:, mb:]
    low = _eigenvalues((Gv + np.conj(np.swapaxes(Gv, -1, -2))) / 2)[:, 0]
    out += sweep_records([Spec(
        "vertical-blowup-rate",
        "the smallest vertical Gram eigenvalue scales as one over the "
        "potential", tol.secondderiv)],
        [np.abs(low * psi(ts, dilated) - 1.0)])

    # one row per sample: its matrix margin and its probe values
    out += sweep_records([Spec(
        "positivity-agreement",
        "matrix margin and probe values certify positivity together", 0.5)],
        [np.concatenate((margins[:, None], pairs), axis=1) <= 0.0])
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
    if name not in _RUNNERS and name != "all":
        raise KeyError(f"unknown suite {name!r}; have {list(_RUNNERS) + ['all']}")
    cfg.validate(name)
    t0 = time.perf_counter()
    report = VerificationReport(name, cfg.echo())
    if name == "all":
        for sub in SUITES:
            report.extend(_RUNNERS[sub](cfg), prefix=sub + ":")
    else:
        report.extend(_RUNNERS[name](cfg))
    report.wall_time = time.perf_counter() - t0
    return report
