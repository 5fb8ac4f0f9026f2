"""Total space of a quaternionic bundle with its natural hypercomplex data.

Coordinates: 4n base reals then 2r fiber reals, v_a = y_{2a} + sqrt(-1) y_{2a+1}.
The frame consists of the flat base covectors together with

    Dv_a = dv_a + sum_b A_ab v_b

which are (1, 0) for the lifted complex structure and vanish on horizontal
lifts.  In this frame the structure matrix is block diagonal, so the whole
pointwise su(2) machinery applies with M = diag(M_base, M_fib).  Both chart
tables sum A^mu_ab v_b over the entries that Connection.coeff gives, which
are nonzero by construction in the catalog (bundles), so no zero term enters
a table and no table tests for one.

The fiber-norm potential Psi = |v|^2 ties the calculus together:

    del Psi        = sum_a conj(v_a) Dv_a
    del_J Psi      = -sum_ab conj(M_fib)_ab v_a Dv_b
    del dbar Psi   = sum_a Dv_a ^ conj(Dv_a)  -  <Theta v, v>
    del del_J Psi  = 2 Omega_ver

where Omega_ver is the canonical vertical (2, 0)-form of the fiber metric and
the curvature pairing ksi = -sum_ab conj(v_a) Theta_ab v_b.  The suites verify
all four against dual-number differentiation, plus del-closedness of
Omega_hor + Omega_ver and integrability of the lifted structures I, J, K.
Those, the natural metric's coframe and the horizontal lifts are numpy
matrices that read one shift per Point, X[a, mu] = (A_mu v)_a with its first
derivative dX, built by _shift from the connection jet of bundles._jet exactly
by the chain rule: no dual number enters the Nijenhuis tensor, which reads L
and the one nonzero block B of dL.  At a stacked Point (fields.stack_points)
both have the sample axis leading, shapes (S, dim, dim) and (S, 2r, 4n, dim).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundles import Connection, _jet, curvature
from .charts import Chart, flat_chart
from .duals import dconj, point_memo
from .exterior import (StructureContext, Element, eadd, element_from_antisym,
                       escale, esub, standard_m)
from .quaternions import hypercomplex_matrices


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
        """rows[a] = {(mu,): sum_b A^mu_ab v_b} over the entries of A, summed
        in (mu, a, b) order, shared by both tables of a Point."""
        v = [pt[4 * n + 2 * a] + 1j * pt[4 * n + 2 * a + 1] for a in range(r)]
        A = conn.coeff(pt)
        rows = [{} for _ in range(r)]
        for mu, a, b in sorted(A):
            rows[a][(mu,)] = rows[a].get((mu,), 0.0) + A[mu, a, b] * v[b]
        return rows

    def frame_table(pt):
        table = dict(frame_rows)
        av = point_memo(pt, shift, shift)
        for a in range(r):
            row = {(4 * n + 2 * a,): 1.0, (4 * n + 2 * a + 1,): 1j, **av[a]}
            table[mb + a] = row
            table[m + mb + a] = {k: dconj(c) for k, c in row.items()}
        return table

    def inverse_table(pt):
        table = dict(inv_rows)
        av = point_memo(pt, shift, shift)
        for a in range(r):
            # dv_a = Dv_a - sum_{b,mu} A^mu_ab v_b dx_mu, dx_mu in frame labels
            dv: Element = {(mb + a,): 1.0}
            for (mu,), acc in av[a].items():
                dv = eadd(dv, escale(table[mu], -acc))
            dvbar = ctx.conj(dv)
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
    Mf_bar = np.asarray(ts.conn.mfib, dtype=complex).conj()
    out: Element = {}
    # the nonzero entries of conj(M_fib), column b by column
    for b, a in np.argwhere(Mf_bar.T).tolist():
        key = (mb + b,)
        out[key] = out.get(key, 0.0) - complex(Mf_bar[a, b]) * v[a]
    return out


def omega_ver_expr(ts: TotalSpace) -> Element:
    """sum_a Dv_a ^ conj(Dv_a); equals del dbar Psi for the flat connection."""
    mb, m = 2 * ts.n, ts.ctx.m
    return {(mb + a, m + mb + a): 1.0 for a in range(ts.rank)}


def omega_ver_canonical(ts: TotalSpace) -> Element:
    """Vertical (2, 0)-form with Gram = Id on the fiber block."""
    mb, m = 2 * ts.n, ts.ctx.m
    MH = np.zeros((m, m), dtype=complex)
    MH[mb:, mb:] = np.asarray(ts.conn.mfib).conj().T
    return element_from_antisym(MH)


def omega_hor_expr(ts: TotalSpace) -> Element:
    """Pullback of the flat base HKT form."""
    return {(2 * t, 2 * t + 1): 1.0 for t in range(ts.n)}


def _fiber_vector(ts: TotalSpace, pt) -> np.ndarray:
    """v as a complex array, the fiber axis behind the sample axes."""
    return np.moveaxis(np.array(ts.fiber_values(pt), dtype=complex), 0, -1)


def xi_curv_expr(ts: TotalSpace, pt) -> Element:
    """-<Theta v, v> as a real-label 2-form: -sum conj(v_a) Theta_ab v_b."""
    v = _fiber_vector(ts, pt)
    F = curvature(ts.conn, pt)
    return element_from_antisym(
        -np.einsum("...a,...mnab,...b->...mn", v.conj(), F, v))


def _realify(W) -> np.ndarray:
    """Rows Re w_a, Im w_a of W's fiber axis (-2), in fiber coordinate
    order."""
    return np.stack((W.real, W.imag), axis=-2).reshape(
        *W.shape[:-2], 2 * W.shape[-2], W.shape[-1])


def _fiber_jacobian(ts: TotalSpace) -> np.ndarray:
    """dv[b, l] = d v_b / d y_l over the 2r fiber coordinates y_l."""
    return np.kron(np.eye(ts.rank), [1.0, 1j])


def _shift(ts: TotalSpace, pt):
    """(X, dX) with X[a, mu] = (A_mu v)_a and dX[l, a, mu] = d_l X[a, mu]
    over every coordinate l, behind the sample axes of a stacked Point, built
    once per Point and coefficient function from the jet (A, dA) of
    bundles._jet: d_l X is (d_l A_mu) v on the base, A_mu d_l v on the
    fiber."""
    def build(p):
        A, dA = _jet(ts.conn, p)
        v = _fiber_vector(ts, p)
        return (np.einsum("...mab,...b->...am", A, v),
                np.concatenate((np.einsum("...lmab,...b->...lam", dA, v),
                                np.einsum("...mab,bl->...lam", A,
                                          _fiber_jacobian(ts))), axis=-3))

    return point_memo(pt, ("shift", ts.conn.coeff), build)


def real_coframe_matrix(ts: TotalSpace, pt) -> np.ndarray:
    """Rows dx_mu, Re(Dv_a), Im(Dv_a) over the coordinate differentials."""
    X = _shift(ts, pt)[0]
    E = np.broadcast_to(np.eye(ts.dim), X.shape[:-2] + (ts.dim,) * 2).copy()
    E[..., 4 * ts.n:, :4 * ts.n] += _realify(X)
    return E


def natural_metric(ts: TotalSpace, pt) -> np.ndarray:
    """Riemannian metric making {dx_mu, Re Dv_a, Im Dv_a} orthonormal.

    Horizontal and vertical subspaces come out orthogonal, the vertical
    block is the flat fiber metric, and the horizontal block pulls back
    the flat base metric.
    """
    E = real_coframe_matrix(ts, pt)
    return np.swapaxes(E, -1, -2) @ E


def horizontal_lift(ts: TotalSpace, pt, u) -> np.ndarray:
    """Tangent coordinates of the connection lift (u, -A(u) v) at pt, behind
    the sample axes of a stacked Point; for an (nb, k) matrix u, those of the
    lifts of its columns, as columns."""
    U = np.asarray(u, dtype=float).reshape(4 * ts.n, -1)
    W = _realify(-np.einsum("...am,mk->...ak", _shift(ts, pt)[0], U))
    H = np.concatenate((np.broadcast_to(U, W.shape[:-2] + U.shape), W), -2)
    return H.reshape(H.shape[:-1] + np.shape(u)[1:])


def structure_matrix_field(ts: TotalSpace, unit: str):
    """The lifted structure L and its derivative as a pt -> (L, B) field, B
    the block B[k, j, l] = d_l L[nb + k, j] outside which dL vanishes, both
    real arrays behind the sample axis of a stacked Point; field(pt, k) reads
    its first k samples alone, field(pt, jet=False) gives (L, None).

    Horizontal part: the flat tangent action on the base.  Vertical part of a
    tangent (u, wdot) is w = wdot + A(u) v; the lift maps it by the fiber
    action F of the unit (i, Mf conj or i Mf conj) and subtracts A(L u) v to
    return to coordinates.  So L is a constant L0 plus, in the vertical rows
    and base columns, realify(F(X) - X Lbase), built once per Point and unit
    from _shift's X.  That block is real-linear in X, so B is that of dX.
    """
    nb, dim = 4 * ts.n, ts.dim
    Lbase = hypercomplex_matrices(ts.n)[unit]
    Mf = np.asarray(ts.conn.mfib, dtype=complex)

    def act(W):
        """F on the fiber axis (-2) of W, broadcast over leading axes."""
        if unit != "I":
            W = Mf @ W.conj()
        return W if unit == "J" else 1j * W  # K = I . J

    def block(X):
        return _realify(act(X) - X @ Lbase)

    L0 = np.zeros((dim, dim))
    L0[:nb, :nb] = Lbase
    L0[nb:, nb:] = _realify(act(_fiber_jacobian(ts)))

    def field(pt, k=None, jet=True):
        X, dX = _shift(ts, pt)

        def build(_):
            L = np.broadcast_to(L0, X.shape[:-2] + L0.shape).copy()
            L[..., nb:, :nb] = block(X)
            return L

        L = point_memo(pt, ("structure", unit, ts.conn.coeff), build)[:k]
        return L, np.moveaxis(block(dX[:k]), -3, -1) if jet else None

    return field
