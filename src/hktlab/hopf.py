"""Dilation quotient of the punctured total space.

rho_q scales the fiber by a real q with |q| neither 0 nor 1.  On the
complement of the zero section the form

    Omega~ = Omega_hor + del del_J log Psi
           = Omega_hor + (del del_J Psi)/Psi - (del Psi ^ del_J Psi)/Psi^2

has fiber-degree-0 homogeneous coefficients, so it descends to the
quotient; it stays del-closed and strictly q-positive, which is what the
hopf suite certifies point by point on one fundamental domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duals import dlog, numeric
from .exterior import Element, eadd, escale, esub, wedge
from .fields import FormField, scalar_field
from .total_space import (TotalSpace, del_j_psi_expr, del_psi_expr,
                          omega_hor_expr, omega_ver_canonical, psi)

MIN_PSI = 1e-8


@dataclass
class HopfData:
    ts: TotalSpace
    q: float


def hopf_data(ts: TotalSpace, q: float) -> HopfData:
    q = float(q)
    if q == 0.0 or abs(abs(q) - 1.0) < 1e-12:
        raise ValueError("scale must be a real number with |q| not 0 or 1")
    return HopfData(ts, q)


def log_psi_field(h: HopfData) -> FormField:
    ts = h.ts
    return scalar_field(ts.chart, lambda pt: dlog(psi(ts, pt)))


def omega_tilde_expr(h: HopfData, pt) -> Element:
    """Frame coefficients at pt; needs the fiber away from zero."""
    ts = h.ts
    p = psi(ts, pt)
    if numeric(p) < MIN_PSI:
        raise ValueError("point too close to the zero section")
    vert = escale(omega_ver_canonical(ts), 2.0 / p)
    cross = wedge(del_psi_expr(ts, pt), del_j_psi_expr(ts, pt))
    return eadd(omega_hor_expr(ts), esub(vert, escale(cross, 1.0 / (p * p))))


def omega_tilde_field(h: HopfData) -> FormField:
    return FormField(h.ts.chart, 2, lambda pt: omega_tilde_expr(h, pt))


def rho_apply(h: HopfData, pt, scale: float | None = None) -> list:
    s = h.q if scale is None else scale
    base = 4 * h.ts.n
    return list(pt[:base]) + [s * c for c in pt[base:]]


def rho_pullback(h: HopfData, el: Element, scale: float | None = None) -> Element:
    """Pullback of a frame-label form through the fiber dilation v -> s v.

    Base covectors are untouched while every fiber frame covector (barred
    or not; s is real) scales by s, so a monomial picks up one factor of s
    per fiber label it contains.
    """
    s = h.q if scale is None else scale
    ts = h.ts
    mb, m = 2 * ts.n, ts.ctx.m
    out: Element = {}
    for mono, c in el.items():
        k = sum(1 for lab in mono if (lab % m) >= mb)
        out[mono] = c * s ** k
    return out


def fundamental_domain_points(h: HopfData, rng, count: int,
                              base_scale: float = 1.0) -> list:
    """Base uniform in a box, log fiber radius uniform over one period."""
    ts = h.ts
    lo, hi = sorted((0.0, -np.log(abs(h.q))))
    pts = []
    while len(pts) < count:
        base = rng.uniform(-base_scale, base_scale, 4 * ts.n).tolist()
        direction = rng.standard_normal(2 * ts.rank)
        direction = direction / np.linalg.norm(direction)
        radius = float(np.exp(rng.uniform(lo, hi)))
        pt = base + (radius * direction).tolist()
        if psi(ts, pt) >= MIN_PSI:
            pts.append(pt)
    return pts


def vertical_probe(h: HopfData, rng) -> np.ndarray:
    """Random vertical (1, 0) tangent vector in frame components."""
    ts = h.ts
    mb, m = 2 * ts.n, ts.ctx.m
    x = np.zeros(m, dtype=complex)
    x[mb:] = rng.standard_normal(ts.rank) + 1j * rng.standard_normal(ts.rank)
    return x


def radial_probe(h: HopfData, pt) -> np.ndarray:
    """The vertical probe pointing along the fiber vector itself."""
    ts = h.ts
    mb, m = 2 * ts.n, ts.ctx.m
    x = np.zeros(m, dtype=complex)
    x[mb:] = ts.fiber_values(pt)
    return x


def fiber_norm2(h: HopfData, x) -> float:
    """(x, x) in the flat fiber metric, over the vertical slots."""
    mb = 2 * h.ts.n
    return float(np.sum(np.abs(np.asarray(x)[mb:]) ** 2))
