"""Connections on quaternionic vector bundles over a flat chart.

A Connection holds coefficient functions A_mu(x), the complex fiber rank, and
the fiber structure matrix M_fib of the antilinear quaternionic map.  coeff
returns the nonzero entries {(mu, a, b): A^mu_ab} of A, as exterior's
elements hold their terms: an exact zero is left out where the catalog writes
the connection, so no consumer tests for one.  The dual numbers of
total_space's tables flow through the entries; every plain value built here
is a numpy array, into which _derivative scatters them, from one coeff call
per derivative order that seeds every direction at once, on an axis of the
dot parts.  The jet of A at a point (A, and dA[lam, nu] = d_lam A_nu) gives
the curvature as one (dim, dim, r, r) array

    F_mu_nu = d_mu A_nu - d_nu A_mu + [A_mu, A_nu].

At a stacked Point (fields.stack_points), whose coordinates are arrays over
a sweep's S samples, each of these arrays gains a leading sample axis: A is
(S, dim, r, r), dA and F are (S, dim, dim, r, r), and one coeff call serves
every sample.

The Bianchi residual is the cyclic sum of d_lam F_mu_nu + [A_lam, F_mu_nu],
with d_lam F_mu_nu = d_lam d_mu A_nu - d_lam d_nu A_mu + [d_lam A_mu, A_nu]
+ [A_mu, d_lam A_nu] from one two-level coeff call per lam (lam seeded
below every mu).  The one field-strength helper builds F on the whole
(mu, nu) grid and dF only at the pairs that the rotations starting at lam
read (three at dim 4), given as index arrays: by the Jacobi identity, a dF written out apart
from F could not see a term missing from F.

Two pointwise criteria for compatibility with the whole 2-sphere of complex
structures are implemented and compared against each other:

  * invariance: the curvature 2-form has no weight-2 part under the su(2)
    action on forms;
  * type: the curvature is (1, 1) with respect to each of I, J, K.

The residuals read the jet and the curvature through the memo of a Point
(duals.point_memo), so the criteria evaluated at one Point share one
curvature, and take the flat I/J/K charts prebuilt (structure_charts).
The criteria, and the total space's structure equation, read the r x r
curvature grid as one element (_curvature_element, memoised beside it),
the fiber entry (a, b) on its coefficients' trailing axes.  Each residual
is a maximum per sample: a float at a plain point, an array over the
samples at a stacked one.  A nan stays in its own sample, so a nan
curvature fails the records of that sample's sweep.

The catalog ships the flat connection, the standard 1-instanton on H (fiber H,
acting by right quaternion multiplication), its direct sum with the dual
bundle, and a connection holomorphic for I alone that both criteria reject.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charts import flat_chart, to_frame
from .duals import (Dual, Point, dot_part, fresh_level, point_memo,
                    sample_shape, seed_unit)
from .exterior import Element, element_from_antisym, enorm, standard_m
from .quaternions import quat_abs2


@dataclass
class Connection:
    name: str
    rank: int
    base_n: int
    mfib: np.ndarray
    coeff: Callable  # pt -> {(mu, a, b): A^mu_ab}, nonzero entries only
    hyperholomorphic: bool


def flat_coeff(pt):
    return {}


def instanton_coeff(pt):
    """Right multiplication by Im(d conj(q) q) / (1 + |q|^2).

    Right-multiplication matrices reverse quaternion brackets, so this sign
    (the conjugate of the usual Im(conj(q) dq) potential) is the one whose
    matrix curvature has anti-self-dual 2-form coefficients.  On H = C^2,
    b = v0 + v1 j, right multiplication by a1 i + a2 j + a3 k is
    [[i a1, -a2 + i a3], [a2 + i a3, -i a1]], and Im(conj(e_mu) q) is a
    signed permutation of q, here already scaled: (p1, p2, p3),
    (-p0, p3, -p2), (-p3, -p0, p1) and (p2, -p1, -p0).
    """
    q = pt[:4]
    s = 1.0 / (1.0 + quat_abs2(q))
    p = [x * s for x in q]
    ip = [1j * x for x in p]
    return {(0, 0, 0): 0.0 + ip[1], (0, 0, 1): -p[2] + ip[3],
            (0, 1, 0): p[2] + ip[3], (0, 1, 1): 0.0 - ip[1],
            (1, 0, 0): 0.0 - ip[0], (1, 0, 1): -p[3] - ip[2],
            (1, 1, 0): p[3] - ip[2], (1, 1, 1): 0.0 + ip[0],
            (2, 0, 0): 0.0 - ip[3], (2, 0, 1): p[0] + ip[1],
            (2, 1, 0): -p[0] + ip[1], (2, 1, 1): 0.0 + ip[3],
            (3, 0, 0): 0.0 + ip[2], (3, 0, 1): p[1] - ip[0],
            (3, 1, 0): -p[1] - ip[0], (3, 1, 1): 0.0 - ip[2]}


def _dual_pair_coeff(pt):
    """A + (-A^T) on F + F*, F the instanton bundle."""
    A = instanton_coeff(pt)
    return A | {(mu, 2 + b, 2 + a): -x for (mu, a, b), x in A.items()}


def _dual_pair_mfib():
    # J(u, phi) = (conj(phi), -conj(u)); commutes with A + (-A^T) since A is
    # skew-Hermitian
    M = np.zeros((4, 4), dtype=complex)
    M[0:2, 2:4], M[2:4, 0:2] = np.eye(2), -np.eye(2)
    return M


def _nonholo_coeff(pt):
    """sp(1)-valued but holomorphic only for I; rejected by both criteria."""
    x1 = pt[1]
    return {(0, 0, 0): 1j * x1, (0, 1, 1): -1j * x1}


_CATALOG = {
    "flat": lambda: Connection("flat", 2, 1, standard_m(2), flat_coeff, True),
    "bpst": lambda: Connection("bpst", 2, 1, standard_m(2), instanton_coeff, True),
    "direct-sum": lambda: Connection("direct-sum", 4, 1, _dual_pair_mfib(),
                                     _dual_pair_coeff, True),
    "nonholo-demo": lambda: Connection("nonholo-demo", 2, 1, standard_m(2),
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


def _derivative(conn: Connection, pt, order=0, lower=()) -> np.ndarray:
    """d^order A at pt from one coeff call, shape (..., dim, ..., dim, dim, r,
    r) with the sample axis first and one direction axis per order, lowest
    level first: [..., lam, mu, nu] is d_lam d_mu A_nu.  Each fresh level
    seeds x_i, i < dim, with dot part eye(dim)[i] on its own axis ahead of the
    sample axis; dot parts at pt's own seed levels (lower) are taken last."""
    dim, samples, pt = 4 * conn.base_n, sample_shape(pt), Point(pt)
    levels, ns = [fresh_level() for _ in range(order)], len(samples)
    for j, lev in enumerate(levels):
        eye = np.eye(dim).reshape((dim, dim) + (1,) * (order + ns - j - 1))
        pt[:dim] = [Dual(x, e, lev) for x, e in zip(pt, eye)]
    out = np.zeros(samples + (dim,) * (order + 1) + (conn.rank,) * 2, complex)
    lanes = np.moveaxis(out, range(ns, ns + order), range(order))
    for (mu, a, b), x in conn.coeff(pt).items():
        for lev in reversed([*lower, *levels]):
            x = dot_part(x, lev)
        lanes[..., mu, a, b] = x
    return out


def _point_coeff(conn: Connection, pt) -> np.ndarray:
    """A, shape (..., dim, r, r), built once per Point and coefficient."""
    return point_memo(pt, ("coeff", conn.coeff), lambda p: _derivative(conn, p))


def _jet(conn: Connection, pt):
    """(A, dA), built once per Point and coefficient function."""
    return point_memo(pt, ("jet", conn.coeff), lambda p: (
        _point_coeff(conn, p), _derivative(conn, p, 1)))


# batched a @ b summed in index order like a plain Python sum (matmul may
# reorder or fuse the products), so curvature values keep their bits
_mul = functools.partial(np.einsum, "...ij,...jk->...ik")


def _field_strength(D, X, Y, mu, nu) -> np.ndarray:
    """D[mu, nu] - D[nu, mu] + X_mu Y_nu - Y_nu X_mu at the index pairs
    (mu, nu), on pair axes ahead of the trailing (row, col) axes and
    broadcast over leading ones; D may be 0."""
    Xm, Yn = X[..., mu, :, :], Y[..., nu, :, :]
    anti = D[..., mu, nu, :, :] - D[..., nu, mu, :, :] if np.ndim(D) else D
    return anti + (_mul(Xm, Yn) - _mul(Yn, Xm))


def curvature(conn: Connection, pt) -> np.ndarray:
    """F[..., mu, nu] as an array of shape (..., dim, dim, r, r)."""
    A, dA = _jet(conn, pt)
    return _field_strength(dA, A, A, *np.ix_(*[range(4 * conn.base_n)] * 2))


def _point_curvature(conn: Connection, pt) -> np.ndarray:
    """curvature(conn, pt), built once per Point and coefficient function."""
    return point_memo(pt, ("curvature", conn.coeff),
                      lambda p: curvature(conn, p))


def structure_charts(n: int) -> dict:
    """The flat charts of H^n for I, J and K."""
    return {unit: flat_chart(n, unit) for unit in ("I", "J", "K")}


def _max_per_sample(pt, values):
    """Largest of values and 0.0 at each sample of pt, nan where one is nan,
    over any axes a value has behind the sample axes: a float at a plain
    point, an array over the samples at a stacked one."""
    ns = len(sample_shape(pt))
    return functools.reduce(np.maximum, (
        np.max(v, axis=tuple(range(ns, np.ndim(v)))) for v in values),
        np.zeros(sample_shape(pt)))


def _curvature_element(conn: Connection, pt) -> Element:
    """The curvature grid as one 2-form, each coefficient an array with the
    fiber entry (a, b) on its trailing axes; built once per Point and
    coefficient function."""
    return point_memo(pt, ("element", conn.coeff), lambda p: (
        element_from_antisym(np.moveaxis(_point_curvature(conn, p),
                                         (-4, -3), (-2, -1)))))


def invariance_residual(conn: Connection, pt, charts):
    """Max weight-2 component of the curvature over all fiber entries."""
    ch = charts["I"]
    fr = to_frame(ch, _curvature_element(conn, pt), pt)
    return _max_per_sample(pt, [enorm(ch.ctx.weight_project(fr, 2))])


def type11_residual(conn: Connection, pt, charts):
    """Max (2,0) + (0,2) component w.r.t. each of I, J, K."""
    el = _curvature_element(conn, pt)
    return _max_per_sample(pt, (
        enorm(ch.ctx.component(fr, p, 2 - p))
        for ch in charts.values()
        for fr in [to_frame(ch, el, pt)] for p in (2, 0)))


def bianchi_residual(conn: Connection, pt):
    """Max entry of the cyclic sum over lam < mu < nu of
    d_lam F_mu_nu + [A_lam, F_mu_nu], per sample.

    The covariant derivative is built one lam at a time, from one coeff
    call that seeds lam alone and, a level above it, every mu on an array
    axis, and only at the (mu, nu) pairs of the rotations starting at lam:
    each triple's sum runs (lam, mu, nu), (mu, nu, lam), (nu, lam, mu), so
    every lam adds to the sums of the triples it belongs to, and only one
    lam's arrays are held at once.  dF comes from the helper that builds F."""
    dim = 4 * conn.base_n
    (A, dA), F = _jet(conn, pt), _point_curvature(conn, pt)
    triples = list(itertools.combinations(range(dim), 3))
    rotations = [(t, rot) for t, (l, m, n) in enumerate(triples)
                 for rot in ((l, m, n), (m, n, l), (n, l, m))]
    cyc = np.zeros(A.shape[:-3] + (len(triples),) + A.shape[-2:], complex)
    for lam in range(dim):
        lev = fresh_level()
        d2A = _derivative(conn, seed_unit(pt, lam, lev), 1, [lev])
        dA_lam, A_lam = dA[..., lam, :, :, :], A[..., lam, None, :, :]
        t, mu, nu = zip(*[(t, b, c) for t, (a, b, c) in rotations if a == lam])
        F_mn = F[..., mu, nu, :, :]
        cyc[..., t, :, :] += (_field_strength(d2A, dA_lam, A, mu, nu)
                              + _field_strength(0, A, dA_lam, mu, nu)
                              + (_mul(A_lam, F_mn) - _mul(F_mn, A_lam)))
    return np.max(np.abs(cyc), axis=(-3, -2, -1))
