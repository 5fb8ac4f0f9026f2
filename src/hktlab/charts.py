"""Charts: real coordinates plus a pointwise holomorphic coframe.

A chart packages the real dimension, the structure context acting on frame
labels, and two substitution tables:

    frame_table(pt)[frame label]  = that covector as a real-coordinate 1-form
    inverse_table(pt)[real label] = dx_label expanded in the frame covectors

Both tables may depend on the point (the total-space frame does); closures must
be pure in the point argument so dual seeding nests correctly.  Fields live in
frame labels (fields.py), which read the tables 1-form by 1-form.  to_frame
and to_real convert whole k-forms, and only at the boundary: FormField.at,
the real-label random_form_field, the bundle criteria and the
frame-roundtrip record.  They build a table only for an element with a
labelled monomial: a scalar or empty element is its own conversion.  Tables
are built at most once per Point (duals.point_memo); a plain list gets a fresh
table on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .duals import point_memo
from .exterior import StructureContext, apply_multiplicative, standard_m


@dataclass
class Chart:
    dim: int
    ctx: StructureContext
    frame_table: Callable
    inverse_table: Callable
    name: str = ""


def constant_chart(rows: list[dict], ctx: StructureContext, name: str = "") -> Chart:
    """Chart with a constant coframe; rows give theta_a over real labels."""
    m = ctx.m
    dim = 2 * m
    table = {}
    for a, row in enumerate(rows):
        table[a] = dict(row)
        table[m + a] = {k: complex(c).conjugate() for k, c in row.items()}
    B = np.zeros((2 * m, dim), dtype=complex)
    for l, row in table.items():
        for (j,), c in row.items():
            B[l, j] = c
    C = np.linalg.inv(B)
    inv = {j: {(l,): complex(C[j, l]) for l in range(2 * m)
               if abs(C[j, l]) > 1e-15}
           for j in range(dim)}
    return Chart(dim, ctx, lambda pt: table, lambda pt: inv, name)


# holomorphic coordinate pairs per quaternionic block, for each structure:
# I: (x0 + i x1, x2 + i x3); J: (x0 + i x2, x3 + i x1); K: (x0 + i x3, x1 + i x2)
_BLOCK_ROWS = {
    "I": [((0, 1.0), (1, 1j)), ((2, 1.0), (3, 1j))],
    "J": [((0, 1.0), (2, 1j)), ((3, 1.0), (1, 1j))],
    "K": [((0, 1.0), (3, 1j)), ((1, 1.0), (2, 1j))],
}


def flat_chart(n: int, unit: str = "I") -> Chart:
    m = 2 * n
    rows = []
    for t in range(n):
        for spec in _BLOCK_ROWS[unit]:
            rows.append({(4 * t + off,): c for off, c in spec})
    ctx = StructureContext(m, standard_m(m))
    return constant_chart(rows, ctx, name=f"flat-H{n}-{unit}")


def _convert(table, el, pt):
    if not any(el):  # a scalar or empty element needs no table
        return dict(el)
    return apply_multiplicative(point_memo(pt, table, table), el)


def to_frame(chart: Chart, el, pt):
    return _convert(chart.inverse_table, el, pt)


def to_real(chart: Chart, el, pt):
    return _convert(chart.frame_table, el, pt)
