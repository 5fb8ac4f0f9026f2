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
"""

from __future__ import annotations

import numpy as np

from .exterior import (StructureContext, Element, eadd, element_from_antisym,
                       escale, eval2)
from .duals import numeric


def antisym_matrix(ctx: StructureContext, el: Element) -> np.ndarray:
    """Coefficient matrix A[a, b] = eta(t_a, t_b) of the (2, 0) part."""
    m = ctx.m
    A = np.zeros((m, m), dtype=complex)
    for labels, c in el.items():
        if len(labels) != 2:
            continue
        a, b = labels
        if a < m and b < m:
            A[a, b] += numeric(c)
            A[b, a] -= numeric(c)
    return A


def gram(ctx: StructureContext, el: Element) -> np.ndarray:
    return -antisym_matrix(ctx, el) @ ctx.mmat.T


def omega_from_gram(ctx: StructureContext, G: np.ndarray) -> Element:
    return element_from_antisym(np.asarray(G, dtype=complex) @ ctx.mmat.conj().T)


def hermitian_pair(ctx: StructureContext, el: Element, x, y):
    """eta(x, J conj(y)) evaluated directly; equals x . Gram . conj(y)."""
    m = ctx.m
    jy = -(ctx.mmat.T @ np.conj(np.asarray(y, dtype=complex)))
    return eval2(el, list(x) + [0.0] * m, list(jy) + [0.0] * m)


def qreal_residual(ctx: StructureContext, el: Element) -> float:
    G = gram(ctx, el)
    return float(np.max(np.abs(G - G.conj().T)))


def qpos_margin(ctx: StructureContext, el: Element) -> float:
    """Smallest eigenvalue of the (Hermitian part of the) Gram matrix."""
    G = gram(ctx, el)
    H = 0.5 * (G + G.conj().T)
    return float(np.min(np.linalg.eigvalsh(H)))


def hyperhermitian_residual(ctx: StructureContext, G: np.ndarray) -> float:
    """How far a Hermitian matrix is from quaternionic compatibility."""
    M = ctx.mmat
    return float(np.max(np.abs(np.conj(G) - M @ G @ M.conj().T)))


def hyperhermitian_project(ctx: StructureContext, G: np.ndarray) -> np.ndarray:
    """Average a Hermitian matrix with its structure twist."""
    M = ctx.mmat
    return 0.5 * (G + np.conj(M.conj().T @ G @ M))


def quaternionic_conj(ctx: StructureContext, el: Element) -> Element:
    """Antilinear involution on (2, 0)-forms; fixed points are the q-real ones."""
    return ctx.component(ctx.cov_mult("J", ctx.conj(el)), 2, 0)


def random_qreal_positive(ctx: StructureContext, rng) -> Element:
    """Random strictly q-positive q-real (2, 0)-form (Gershgorin shift)."""
    m = ctx.m
    raw: Element = {}
    for a in range(m):
        for b in range(a + 1, m):
            raw[(a, b)] = complex(rng.standard_normal(), rng.standard_normal())
    sym = escale(eadd(raw, quaternionic_conj(ctx, raw)), 0.5)
    shift = float(2 * m * max(abs(c) for c in sym.values()) + 1.0)
    return eadd(sym, escale(ctx.omega_canonical(), shift))


def random_hyperhermitian_metric(ctx: StructureContext, rng) -> np.ndarray:
    """Random positive-definite Hermitian matrix with quaternionic symmetry."""
    m = ctx.m
    B = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    G = B @ B.conj().T + m * np.eye(m)
    return hyperhermitian_project(ctx, G)
