"""Total space of a quaternionic bundle with its natural hypercomplex data.

Coordinates: 4n base reals then 2r fiber reals, v_a = y_{2a} + sqrt(-1) y_{2a+1}.
The frame consists of the flat base covectors together with

    Dv_a = dv_a + sum_b A_ab v_b

which are (1, 0) for the lifted complex structure and vanish on horizontal
lifts.  In this frame the structure matrix is block diagonal, so the whole
pointwise su(2) machinery applies with M = diag(M_base, M_fib).

The fiber-norm potential Psi = |v|^2 ties the calculus together:

    del Psi        = sum_a conj(v_a) Dv_a
    del_J Psi      = -sum_ab conj(M_fib)_ab v_a Dv_b
    del dbar Psi   = sum_a Dv_a ^ conj(Dv_a)  -  <Theta v, v>
    del del_J Psi  = 2 Omega_ver

where Omega_ver is the canonical vertical (2, 0)-form of the fiber metric and
the curvature pairing ksi = -sum_ab conj(v_a) Theta_ab v_b.  The suites verify
all four against dual-number differentiation, plus del-closedness of
Omega_hor + Omega_ver and integrability of the lifted structures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundles import Connection, _point_curvature
from .charts import Chart, flat_chart
from .duals import dconj, dre, point_memo
from .exterior import StructureContext, Element, eadd, escale, esub, standard_m


@dataclass
class TotalSpace:
    conn: Connection
    chart: Chart
    ctx: StructureContext
    n: int
    rank: int

    @property
    def dim(self):
        return self.chart.dim

    def fiber_values(self, pt):
        base = 4 * self.n
        return [pt[base + 2 * a] + 1j * pt[base + 2 * a + 1]
                for a in range(self.rank)]


def total_space(conn: Connection) -> TotalSpace:
    n = conn.base_n
    r = conn.rank
    mb = 2 * n
    m = mb + r
    dim = 4 * n + 2 * r
    M = np.zeros((m, m), dtype=complex)
    M[:mb, :mb] = standard_m(mb)
    M[mb:, mb:] = conn.mfib
    ctx = StructureContext(m, M)

    base_chart = flat_chart(n, "I")
    base_frame = base_chart.frame_table(None)
    base_inv = base_chart.inverse_table(None)
    # flat rows of both tables; base frame labels keep their positions and
    # the barred block shifts by m
    frame_rows = {}
    for a in range(mb):
        frame_rows[a] = base_frame[a]
        frame_rows[m + a] = base_frame[mb + a]
    inv_rows = {j: {((l if l < mb else m + (l - mb)),): c
                    for (l,), c in base_inv[j].items()}
                for j in range(4 * n)}

    def shift(pt):
        """[a][mu] -> sum_b A^mu_ab v_b, shared by both tables of a Point."""
        v = [pt[4 * n + 2 * a] + 1j * pt[4 * n + 2 * a + 1] for a in range(r)]
        A = conn.coeff(pt)
        out = []
        for a in range(r):
            row = []
            for mu in range(4 * n):
                acc = 0.0
                for b in range(r):
                    acc = acc + A[mu][a][b] * v[b]
                row.append(acc)
            out.append(row)
        return out

    def frame_table(pt):
        table = dict(frame_rows)
        av = point_memo(pt, shift, shift)
        for a in range(r):
            row = {(4 * n + 2 * a,): 1.0, (4 * n + 2 * a + 1,): 1j}
            for mu, acc in enumerate(av[a]):
                if not (isinstance(acc, (int, float, complex)) and acc == 0):
                    row = eadd(row, {(mu,): acc})
            table[mb + a] = row
            table[m + mb + a] = {k: dconj(c) for k, c in row.items()}
        return table

    def inverse_table(pt):
        table = dict(inv_rows)
        av = point_memo(pt, shift, shift)
        for a in range(r):
            # dv_a = Dv_a - sum_{b,mu} A^mu_ab v_b dx_mu, dx_mu in frame labels
            dv: Element = {(mb + a,): 1.0}
            for mu, acc in enumerate(av[a]):
                if isinstance(acc, (int, float, complex)) and acc == 0:
                    continue
                dv = eadd(dv, escale(table[mu], -acc))
            dvbar = {tuple((l + m) % (2 * m) for l in k): dconj(c)
                     for k, c in dv.items()}
            table[4 * n + 2 * a] = escale(eadd(dv, dvbar), 0.5)
            table[4 * n + 2 * a + 1] = escale(esub(dv, dvbar), -0.5j)
        return table

    chart = Chart(dim, ctx, frame_table, inverse_table,
                  name=f"total-space-{conn.name}")
    return TotalSpace(conn, chart, ctx, n, r)


# ----- scalar potential and canonical frame elements -----

def psi(ts: TotalSpace, pt):
    base = 4 * ts.n
    total = 0.0
    for k in range(base, ts.dim):
        total = total + pt[k] * pt[k]
    return total


def del_psi_expr(ts: TotalSpace, pt) -> Element:
    mb = 2 * ts.n
    v = ts.fiber_values(pt)
    return {(mb + a,): dconj(v[a]) for a in range(ts.rank)}


def del_j_psi_expr(ts: TotalSpace, pt) -> Element:
    mb = 2 * ts.n
    v = ts.fiber_values(pt)
    Mf_bar = np.asarray(ts.conn.mfib, dtype=complex).conj().tolist()
    out: Element = {}
    for b in range(ts.rank):
        acc = 0.0
        for a in range(ts.rank):
            acc = acc - Mf_bar[a][b] * v[a]
        if acc != 0:
            out[(mb + b,)] = acc
    return out


def omega_ver_expr(ts: TotalSpace) -> Element:
    """sum_a Dv_a ^ conj(Dv_a); equals del dbar Psi for the flat connection."""
    mb, m = 2 * ts.n, ts.ctx.m
    return {(mb + a, m + mb + a): 1.0 for a in range(ts.rank)}


def omega_ver_canonical(ts: TotalSpace) -> Element:
    """Vertical (2, 0)-form with Gram = Id on the fiber block."""
    mb = 2 * ts.n
    MH = np.asarray(ts.conn.mfib).conj().T
    out: Element = {}
    for a in range(ts.rank):
        for b in range(a + 1, ts.rank):
            if MH[a, b] != 0:
                out[(mb + a, mb + b)] = MH[a, b]
    return out


def omega_hor_expr(ts: TotalSpace) -> Element:
    """Pullback of the flat base HKT form."""
    out: Element = {}
    for t in range(ts.n):
        out[(2 * t, 2 * t + 1)] = 1.0
    return out


def xi_curv_expr(ts: TotalSpace, pt) -> Element:
    """-<Theta v, v> as a real-label 2-form: -sum conj(v_a) Theta_ab v_b."""
    v = np.array(ts.fiber_values(pt), dtype=complex)
    F = _point_curvature(ts.conn, pt)
    xi = -np.einsum("a,mnab,b->mn", v.conj(), F, v)
    dim_base = 4 * ts.n
    return {(mu, nu): complex(xi[mu, nu]) for mu in range(dim_base)
            for nu in range(mu + 1, dim_base) if xi[mu, nu] != 0}


def real_coframe_matrix(ts: TotalSpace, pt) -> np.ndarray:
    """Rows dx_mu, Re(Dv_a), Im(Dv_a) over the coordinate differentials."""
    n, r = ts.n, ts.rank
    A = ts.conn.coeff(pt)
    v = ts.fiber_values(pt)
    E = np.eye(ts.dim)
    for a in range(r):
        for mu in range(4 * n):
            c = complex(sum(A[mu][a][b] * v[b] for b in range(r)))
            E[4 * n + 2 * a, mu] += c.real
            E[4 * n + 2 * a + 1, mu] += c.imag
    return E


def natural_metric(ts: TotalSpace, pt) -> np.ndarray:
    """Riemannian metric making {dx_mu, Re Dv_a, Im Dv_a} orthonormal.

    Horizontal and vertical subspaces come out orthogonal, the vertical
    block is the flat fiber metric, and the horizontal block pulls back
    the flat base metric.
    """
    E = real_coframe_matrix(ts, pt)
    return E.T @ E


def horizontal_lift(ts: TotalSpace, pt, u) -> list:
    """Tangent coordinates of the connection lift (u, -A(u) v) at pt."""
    n, r = ts.n, ts.rank
    A = ts.conn.coeff(pt)
    v = ts.fiber_values(pt)
    out = list(u)
    for a in range(r):
        w = -sum(A[mu][a][b] * v[b] * u[mu]
                 for mu in range(4 * n) for b in range(r))
        w = complex(w)
        out.extend((w.real, w.imag))
    return out


def structure_matrix_field(ts: TotalSpace, unit: str):
    """The lifted structure as a real matrix field on total-space coordinates.

    Horizontal part: the flat tangent action on the base.  Vertical part of a
    tangent (u, wdot) is w = wdot + A(u) v; the lift maps it by the fiber
    action of the unit and subtracts A(L u) v to return to coordinates.
    """
    from .quaternions import hypercomplex_matrices

    n, r = ts.n, ts.rank
    dim = ts.dim
    Lbase = hypercomplex_matrices(n)[unit].tolist()
    Mf = np.asarray(ts.conn.mfib, dtype=complex).tolist()

    def fiber_action(w):
        if unit == "I":
            return [1j * x for x in w]
        jw = [sum(Mf[a][b] * dconj(w[b]) for b in range(r)) for a in range(r)]
        if unit == "J":
            return jw
        return [1j * x for x in jw]  # K = I . J

    def field(pt):
        A = ts.conn.coeff(pt)
        v = ts.fiber_values(pt)
        # av[a][mu] = (A_mu v)_a, shared by every column
        av = [[sum(A[mu][a][b] * v[b] for b in range(r))
               for mu in range(4 * n)] for a in range(r)]
        cols = []
        for c in range(dim):
            u = [0.0] * (4 * n)
            wdot = [0.0] * r
            if c < 4 * n:
                u[c] = 1.0
            else:
                a, par = divmod(c - 4 * n, 2)
                wdot[a] = 1.0 if par == 0 else 1j
            w = list(wdot)
            for mu in range(4 * n):
                if u[mu] == 0.0:
                    continue
                for a in range(r):
                    w[a] = w[a] + av[a][mu] * u[mu]
            lu = [sum(Lbase[i][j] * u[j] for j in range(4 * n))
                  for i in range(4 * n)]
            wl = fiber_action(w)
            for a in range(r):
                corr = 0.0
                for mu in range(4 * n):
                    if lu[mu] == 0.0:
                        continue
                    corr = corr + av[a][mu] * lu[mu]
                wl[a] = wl[a] - corr
            col = list(lu)
            for a in range(r):
                col.append(dre(wl[a]))
                col.append(dre(-1j * wl[a]))
            cols.append(col)
        return [[cols[c][k] for c in range(dim)] for k in range(dim)]

    return field
