"""Quaternion arithmetic and the flat hypercomplex structure on R^{4n}.

Coordinates come in blocks of four, (x0, x1, x2, x3) ~ x0 + x1 i + x2 j + x3 k.
The three complex structures act on tangent vectors by LEFT multiplication by
i, j, k; holomorphic coordinates for the first one are z0 = x0 + sqrt(-1) x1,
z1 = x2 + sqrt(-1) x3 per block.

Component formulas work with any scalar type supporting ring arithmetic, so
connection coefficients built from them stay differentiable through duals.
"""

from __future__ import annotations

import numpy as np

# basis quaternions as component 4-tuples
UNITS = {
    "1": (1, 0, 0, 0),
    "i": (0, 1, 0, 0),
    "j": (0, 0, 1, 0),
    "k": (0, 0, 0, 1),
}
_BASIS = [UNITS[u] for u in "1ijk"]


def quat_mul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def quat_abs2(a):
    a0, a1, a2, a3 = a
    return a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3


def left_mult_matrix(unit: str) -> np.ndarray:
    """4x4 real matrix of b -> unit * b on components."""
    return np.array([quat_mul(UNITS[unit], e) for e in _BASIS], dtype=float).T


def hypercomplex_matrices(n: int) -> dict[str, np.ndarray]:
    """Block-diagonal tangent actions of I, J, K on R^{4n}."""
    out = {}
    for name, unit in (("I", "i"), ("J", "j"), ("K", "k")):
        blk = left_mult_matrix(unit)
        out[name] = np.zeros((4 * n, 4 * n))
        for t in range(0, 4 * n, 4):
            out[name][t:t + 4, t:t + 4] = blk
    return out
