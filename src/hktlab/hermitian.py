"""Quaternionic Hermitian algebra: Gram matrices, q-positivity, metric bridge.

For a (2, 0)-form eta in frame labels, the Gram matrix is

    G[a, b] = eta(t_a, J conj(t_b))        J conj(t_b) = -sum_c M_bc t_c

with t_a the frame-dual (1, 0) tangent vectors.  eta is q-real iff G is
Hermitian and strictly q-positive iff G is additionally positive definite.
The induced metric pairing h(x, y) = eta(x^{1,0}, J y^{0,1}) has the same
matrix, so the metric <-> form correspondence is

    G = -A M^T        A = G M^H        A[a, b] = eta(t_a, t_b)

both directions exact.  A metric matrix G comes from a (2, 0)-form iff it
satisfies the quaternionic compatibility conj(G) = M G M^H.

An element with array coefficients (a stacked Point's, fields.stack_points)
has one matrix per sample: the sample axes lead, shape (S, m, m), and the
residuals and margins are arrays over the samples, each reduced within its
own sample so that a nan stays there.  A plain element gives a plain matrix
and numpy scalar values.  The module draws nothing: qpositive_form and
hyperhermitian_metric build from values the caller drew.
"""

from __future__ import annotations

import numpy as np

from .exterior import (StructureContext, Element, eadd, element_from_antisym,
                       enorm, escale, eval2)
from .duals import numeric


def _adjoint(G: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(G, -1, -2))


def _eigenvalues(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each Hermitian matrix of H, from its lower
    triangle, by the real symmetric solver when every imaginary part is
    exactly 0; nan for one with a non-finite entry, which LAPACK refuses."""
    if np.iscomplexobj(H) and not H.imag.any():
        H = H.real
    ok = np.all(np.isfinite(H), axis=(-2, -1))
    if ok.all():
        return np.linalg.eigvalsh(H)
    out = np.full(H.shape[:-1], np.nan)
    out[ok] = np.linalg.eigvalsh(H[ok])
    return out


def antisym_matrix(ctx: StructureContext, el: Element) -> np.ndarray:
    """Coefficient matrix A[a, b] = eta(t_a, t_b) of the (2, 0) part."""
    m = ctx.m
    terms = [(labels, numeric(c)) for labels, c in el.items()
             if len(labels) == 2 and max(labels) < m]
    shapes = [c.shape for _, c in terms if isinstance(c, np.ndarray)]
    shape = np.broadcast_shapes(*shapes) if shapes else ()
    # filled with the sample axes last, so a plain element pays no
    # broadcasting index
    A = np.zeros((m, m) + shape, dtype=complex)
    for (a, b), c in terms:
        A[a, b] += c
        A[b, a] -= c
    return np.moveaxis(A, (0, 1), (-2, -1)) if shape else A


def gram(ctx: StructureContext, el: Element) -> np.ndarray:
    return -antisym_matrix(ctx, el) @ ctx.mmat.T


def omega_from_gram(ctx: StructureContext, G: np.ndarray) -> Element:
    return element_from_antisym(np.asarray(G, dtype=complex) @ ctx.mmat.conj().T)


def hermitian_pair(ctx: StructureContext, el: Element, x, y):
    """eta(x, J conj(y)) evaluated directly; equals x . Gram . conj(y).
    x and y hold the components on their last axis; leading axes are
    samples, matching the coefficients of el."""
    m = ctx.m
    jy = -(np.conj(np.asarray(y, dtype=complex)) @ ctx.mmat)
    return eval2(el, [*np.moveaxis(np.asarray(x), -1, 0)] + [0.0] * m,
                 [*np.moveaxis(jy, -1, 0)] + [0.0] * m)


def _hermitian_gap(G: np.ndarray):
    """Largest entry of G - G^H, per matrix of a Gram stack."""
    return np.max(np.abs(G - _adjoint(G)), axis=(-2, -1))


def _gram_floor(G: np.ndarray):
    """Smallest eigenvalue of the Hermitian part, per matrix of a Gram
    stack."""
    return np.min(_eigenvalues(0.5 * (G + _adjoint(G))), axis=-1)


def qreal_residual(ctx: StructureContext, el: Element):
    return _hermitian_gap(gram(ctx, el))


def qpos_margin(ctx: StructureContext, el: Element):
    """Smallest eigenvalue of the (Hermitian part of the) Gram matrix."""
    return _gram_floor(gram(ctx, el))


def hyperhermitian_residual(ctx: StructureContext, G: np.ndarray):
    """How far a Hermitian matrix is from quaternionic compatibility."""
    M = ctx.mmat
    return np.max(np.abs(np.conj(G) - M @ G @ M.conj().T), axis=(-2, -1))


def hyperhermitian_project(ctx: StructureContext, G: np.ndarray) -> np.ndarray:
    """Average a Hermitian matrix with its structure twist."""
    M = ctx.mmat
    return 0.5 * (G + np.conj(M.conj().T @ G @ M))


def quaternionic_conj(ctx: StructureContext, el: Element) -> Element:
    """Antilinear involution on (2, 0)-forms; fixed points are the q-real ones."""
    return ctx.component(ctx.cov_mult("J", ctx.conj(el)), 2, 0)


def qpositive_form(ctx: StructureContext, raw: Element) -> Element:
    """Strictly q-positive q-real (2, 0)-form made from the (2, 0)-form raw:
    its q-real part, shifted per sample by a multiple of the canonical form
    past the Gershgorin bound."""
    sym = escale(eadd(raw, quaternionic_conj(ctx, raw)), 0.5)
    shift = 2 * ctx.m * enorm(sym) + 1.0
    return eadd(sym, escale(ctx.omega_canonical(), shift))


def hyperhermitian_metric(ctx: StructureContext, B: np.ndarray) -> np.ndarray:
    """Positive-definite Hermitian matrix with quaternionic symmetry made from
    the square matrix B, or one per matrix of a (S, m, m) stack."""
    return hyperhermitian_project(
        ctx, B @ _adjoint(B) + ctx.m * np.eye(ctx.m))
