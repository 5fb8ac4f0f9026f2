"""Connections on quaternionic vector bundles over a flat chart.

A Connection holds matrix-valued coefficient functions A_mu(x) (nested lists so
dual numbers flow through), the complex fiber rank, and the fiber structure
matrix M_fib of the antilinear quaternionic map.  Curvature comes from one
forward-mode pass per direction:

    F_mu_nu = d_mu A_nu - d_nu A_mu + [A_mu, A_nu]

Two pointwise criteria for compatibility with the whole 2-sphere of complex
structures are implemented and compared against each other:

  * invariance: the curvature 2-form has no weight-2 part under the su(2)
    action on forms;
  * type: the curvature is (1, 1) with respect to each of I, J, K.

The residuals read the curvature through the memo of a Point
(duals.point_memo), so the criteria evaluated at one sample share one
curvature, and accept the flat I/J/K charts prebuilt (structure_charts).
Their maxima keep a nan (report.max_keep_nan), so a nan curvature fails.

The catalog ships the flat connection, the standard 1-instanton on H (fiber H,
acting by right quaternion multiplication), its direct sum with the dual
bundle, and a connection holomorphic for I alone that both criteria reject.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charts import flat_chart, to_frame
from .duals import dot_part, fresh_level, numeric, point_memo, seed_unit
from .exterior import Element, eadd, enorm
from .quaternions import fiber_j_matrix, quat_abs2, right_mult_c2
from .report import max_keep_nan


def mat_zero(r):
    return [[0.0 for _ in range(r)] for _ in range(r)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a, b):
    r = len(a)
    n = len(b[0])
    k = len(b)
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)]
            for i in range(r)]


def mat_comm(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


@dataclass
class Connection:
    name: str
    rank: int
    base_n: int
    mfib: np.ndarray
    coeff: Callable  # pt -> list of 4*base_n matrices (nested lists)
    hyperholomorphic: bool


def flat_coeff(pt):
    return [mat_zero(2) for _ in range(4)]


def instanton_coeff(pt):
    """Right multiplication by Im(d conj(q) q) / (1 + |q|^2).

    Right-multiplication matrices reverse quaternion brackets, so this sign
    (the conjugate of the usual Im(conj(q) dq) potential) is the one whose
    matrix curvature has anti-self-dual 2-form coefficients.
    """
    q = pt[:4]
    s = 1.0 / (1.0 + quat_abs2(q))
    p0, p1, p2, p3 = (x * s for x in q)
    # Im(conj(e_mu) q) is a signed permutation of q, here already scaled
    ims = ((p1, p2, p3), (-p0, p3, -p2), (-p3, -p0, p1), (p2, -p1, -p0))
    return [right_mult_c2((0.0, *im)) for im in ims]


def _dual_pair_coeff(pt):
    """A + (-A^T) on F + F*, F the instanton bundle."""
    A = instanton_coeff(pt)
    out = []
    for Amu in A:
        big = mat_zero(4)
        for i in range(2):
            for j in range(2):
                big[i][j] = Amu[i][j]
                big[2 + i][2 + j] = -Amu[j][i]
        out.append(big)
    return out


def _dual_pair_mfib():
    # J(u, phi) = (conj(phi), -conj(u)); commutes with A + (-A^T) since A is
    # skew-Hermitian
    M = np.zeros((4, 4), dtype=complex)
    M[0:2, 2:4] = np.eye(2)
    M[2:4, 0:2] = -np.eye(2)
    return M


def _nonholo_coeff(pt):
    """sp(1)-valued but holomorphic only for I; rejected by both criteria."""
    x1 = pt[1]
    D = [[1j * x1, 0.0], [0.0, -1j * x1]]
    return [D, mat_zero(2), mat_zero(2), mat_zero(2)]


_CATALOG = {
    "flat": lambda: Connection("flat", 2, 1, fiber_j_matrix(), flat_coeff, True),
    "bpst": lambda: Connection("bpst", 2, 1, fiber_j_matrix(), instanton_coeff, True),
    "direct-sum": lambda: Connection("direct-sum", 4, 1, _dual_pair_mfib(),
                                     _dual_pair_coeff, True),
    "nonholo-demo": lambda: Connection("nonholo-demo", 2, 1, fiber_j_matrix(),
                                       _nonholo_coeff, False),
}

_ALIASES = {"direct-sum(F,F*)": "direct-sum", "instanton": "bpst"}


def catalog_names() -> list[str]:
    return list(_CATALOG)


def get_connection(name: str) -> Connection:
    key = _ALIASES.get(name, name)
    if key not in _CATALOG:
        raise KeyError(f"unknown bundle {name!r}; have {sorted(_CATALOG)}")
    return _CATALOG[key]()


def curvature(conn: Connection, pt) -> list:
    """F[mu][nu] as r x r nested lists at the given point."""
    dim = 4 * conn.base_n
    A = conn.coeff(pt)
    dA = []
    for mu in range(dim):
        lev = fresh_level()
        Ad = conn.coeff(seed_unit(pt, mu, lev))
        dA.append([[[dot_part(x, lev) for x in row] for row in Anu]
                   for Anu in Ad])
    F = [[None] * dim for _ in range(dim)]
    for mu in range(dim):
        for nu in range(dim):
            F[mu][nu] = mat_add(mat_sub(dA[mu][nu], dA[nu][mu]),
                                mat_comm(A[mu], A[nu]))
    return F


def _point_curvature(conn: Connection, pt) -> list:
    """curvature(conn, pt), built once per Point and coefficient function."""
    return point_memo(pt, ("curvature", conn.coeff),
                      lambda p: curvature(conn, p))


def structure_charts(n: int) -> dict:
    """The flat charts of H^n for I, J and K."""
    return {unit: flat_chart(n, unit) for unit in ("I", "J", "K")}


def curvature_entry_forms(conn: Connection, pt) -> list[list[Element]]:
    """Curvature as an r x r grid of real-label 2-form elements."""
    dim = 4 * conn.base_n
    F = _point_curvature(conn, pt)
    r = conn.rank
    grid = [[{} for _ in range(r)] for _ in range(r)]
    for mu in range(dim):
        for nu in range(mu + 1, dim):
            for a in range(r):
                for b in range(r):
                    c = numeric(F[mu][nu][a][b])
                    if c != 0:
                        grid[a][b] = eadd(grid[a][b], {(mu, nu): c})
    return grid


def invariance_residual(conn: Connection, pt, charts=None) -> float:
    """Max weight-2 component of the curvature over all fiber entries."""
    ch = (charts or structure_charts(conn.base_n))["I"]
    grid = curvature_entry_forms(conn, pt)
    return max_keep_nan(enorm(ch.ctx.weight_project(to_frame(ch, el, pt), 2))
                        for row in grid for el in row)


def type11_residual(conn: Connection, pt, charts=None) -> float:
    """Max (2,0) + (0,2) component w.r.t. each of I, J, K."""
    charts = charts or structure_charts(conn.base_n)
    grid = curvature_entry_forms(conn, pt)

    def parts():
        for ch in charts.values():
            for row in grid:
                for el in row:
                    fr = to_frame(ch, el, pt)
                    yield enorm(ch.ctx.component(fr, 2, 0))
                    yield enorm(ch.ctx.component(fr, 0, 2))

    return max_keep_nan(parts())


def bianchi_residual(conn: Connection, pt) -> float:
    """Max entry of the cyclic sum of (d/dx_lam) F_{mu nu} + [A_lam, F_{mu nu}]."""
    dim = 4 * conn.base_n
    A = conn.coeff(pt)
    F = _point_curvature(conn, pt)
    dF = []
    for lam in range(dim):
        lev = fresh_level()
        Fd = curvature(conn, seed_unit(pt, lam, lev))
        dF.append([[[[dot_part(x, lev) for x in row] for row in mat]
                    for mat in Fnu] for Fnu in Fd])

    def entries():
        for lam, mu, nu in itertools.combinations(range(dim), 3):
            acc = mat_zero(conn.rank)
            for a, b, c in ((lam, mu, nu), (mu, nu, lam), (nu, lam, mu)):
                acc = mat_add(acc, mat_add(dF[a][b][c],
                                           mat_comm(A[a], F[b][c])))
            yield from (abs(complex(x)) for row in acc for x in row)

    return max_keep_nan(entries())


def curvature_scale(conn: Connection, pt) -> float:
    grid = curvature_entry_forms(conn, pt)
    return max_keep_nan(enorm(el) for row in grid for el in row)
