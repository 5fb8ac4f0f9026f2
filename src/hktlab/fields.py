"""Form-valued fields and the Dolbeault-type operators acting on them.

A FormField evaluates to a sparse element over the frame labels of its chart,
the labels in which del, dbar, del_J, the ladder and R act, so no operator
converts a k-form.  Real-coordinate labels appear only at the boundary:
FormField.at, the real-label random_form_field, and the callers that compare
with real-label data (charts.to_frame / to_real).

exterior_d follows Cartan's rule

    d(f_I theta_I) = sum_i dx_i ^ d_i(f_I theta_I)

in one dual pass at the Point's seeded child (duals.seeded), whose
coordinate i carries eye(dim)[i] on a lane axis: every value there holds d_i
in lane i.  d acts on the coefficients through the seed, and on the coframe
as a derivation whose table d theta_a is the dot part of the frame table at
the child, converted by the inverse table at the Point.  sum_i dx_i e_i (lane
i of its theta_l coefficient is inv[i][l]) is wedged with that d, and each
coefficient summed over the lanes in lane order, dropping the leading size-1
axes the lanes leave, never a sample axis, and an exact plain-number zero.
Only 1-forms are converted, and a constant coframe has no derivative rows, so
flat charts take the same path.  del and dbar split the seeded value into its
bidegrees, apply that d to each part and keep the (p+1, q) or (p, q+1) piece,
so del, dbar and del_J compose by nesting closures (and dual levels, each
lane axis left of the one below) without re-running the inner field per
bidegree.

Each Point memoises the chart tables, its seeded child, sum_i dx_i e_i per
chart, and per field the value (FormField.value), the pass that every d of
it shares and the bidegree-split pass that del and dbar share, so a
second-order operator runs its field once, at the grandchild.  Values are
pure in the Point, so sharing changes no number.  The memo lives as long as
the Point; the lane-wide coframe is built per call.
A stacked Point (stack_points) covers a sweep's samples in one evaluation.

del_J is the twisted holomorphic differential: on functions del_J f equals the
multiplicative J applied to dbar f, and on (p, 0)-forms

    del_J = (-1)^p cov_J . dbar . cov_J

which lands in (p+1, 0).  Together with del it forms the anticommuting pair
del^2 = del_J^2 = del del_J + del_J del = 0 verified by the suites.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charts import Chart, to_frame, to_real
from .duals import (Dual, Point, as_point, dot_part, point_memo, sample_shape,
                    seeded, val_part)
from .exterior import _is_zero, apply_derivation, eadd, escale, wedge


@dataclass
class FormField:
    """A degree-`degree` form on `chart`.  eval_real maps a Point to the value
    in frame labels; perfbench/spans.py rebinds the attribute by that name,
    once per field, so it stays the key of the field's value memo."""
    chart: Chart
    degree: int
    eval_real: Callable[[Point], dict]

    def value(self, pt):
        """The value at pt in frame labels, built once per Point."""
        return point_memo(pt, self.eval_real, self.eval_real)

    def at(self, pt):
        """The value at pt in real-coordinate labels."""
        pt = as_point(pt)
        return to_real(self.chart, self.eval_real(pt), pt)

    def frame_at(self, pt):
        return self.eval_real(as_point(pt))


def scalar_field(chart: Chart, fn: Callable) -> FormField:
    return FormField(chart, 0, lambda pt: {(): fn(pt)})


def _dot(el: dict, lev: int) -> dict:
    """Derivative of el's coefficients along the seed of level lev."""
    return {mono: dc for mono, c in el.items()
            if not _is_zero(dc := dot_part(c, lev))}


def _lane_sum(c, ns: int):
    """c summed over its leading lane axis in lane order (numpy sums a lone
    run of numbers pairwise, so that run takes accumulate), then stripped of
    leading size-1 axes while it has more than ns, the sample axes."""
    if isinstance(c, Dual):
        return Dual(_lane_sum(c.val, ns), _lane_sum(c.dot, ns), c.level)
    s = np.add.reduce(c) if c.size > len(c) else np.add.accumulate(c)[-1]
    while s.ndim > ns and s.shape[0] == 1:
        s = s[0]
    return s


def _cartan_d(field: FormField, pt: Point, split: Callable) -> dict:
    """{key: d of that part at pt} for the parts {key: part} that `split`
    cuts from the field's value, in one pass at pt's seeded child."""
    ch = field.chart
    inv = point_memo(pt, ch.inverse_table, ch.inverse_table)
    sp = seeded(pt)
    lev, ns = sp[0].level, len(sample_shape(pt))
    dx = point_memo(pt, ("dx", ch.inverse_table), lambda at: functools.reduce(
        eadd, (escale(inv[i], sp[i].dot) for i in range(ch.dim))))
    coframe = None  # a -> d theta_a on every lane, built for a k-form part
    acc: dict = {}
    for key, part in split(field.value(sp)).items():
        d = _dot(part, lev)
        if any(part):
            if coframe is None:
                frame = point_memo(sp, ch.frame_table, ch.frame_table)
                coframe = {a: apply_derivation(inv, _dot(row, lev))
                           for a, row in frame.items()}
            values = {mono: val_part(c, lev) for mono, c in part.items()}
            d = eadd(d, apply_derivation(coframe, values))
        lanes = {mono: _lane_sum(c, ns) for mono, c in wedge(dx, d).items()}
        acc[key] = {mono: c for mono, c in lanes.items() if not _is_zero(c)}
    return acc


def exterior_d(field: FormField) -> FormField:
    def ev(pt):
        # the pass of one field at one Point, shared by every d of it
        return point_memo(pt, ("d", field.eval_real), lambda at: _cartan_d(
            field, at, lambda el: {None: el})[None])

    return FormField(field.chart, field.degree + 1, ev)


def dolbeault(field: FormField, kind: str) -> FormField:
    """The (p+1, q) ("del") or (p, q+1) ("dbar") graded piece of d: d of
    each (p, q) part of the value, of which the piece `kind` names is kept."""
    ctx = field.chart.ctx
    dp, dq = (1, 0) if kind == "del" else (0, 1)

    def ev(pt):
        out: dict = {}
        # the split pass of one field at one Point, shared by del and dbar
        split = point_memo(pt, ("hodge", field.eval_real),
                           lambda at: _cartan_d(field, at, ctx.hodge))
        for (p, q), d_part in split.items():
            out = eadd(out, ctx.component(d_part, p + dp, q + dq))
        return out

    return FormField(field.chart, field.degree + 1, ev)


def del_bar(field: FormField) -> FormField:
    return dolbeault(field, "dbar")


def del_hol(field: FormField) -> FormField:
    return dolbeault(field, "del")


def del_j(field: FormField) -> FormField:
    """Twisted differential on a purely (p, 0) field."""
    ch = field.chart
    p = field.degree
    sign = (-1) ** p
    conjugated = FormField(
        ch, p, lambda pt: ch.ctx.cov_mult("J", field.value(pt)))
    db = dolbeault(conjugated, "dbar")
    return FormField(
        ch, p + 1, lambda pt: escale(ch.ctx.cov_mult("J", db.value(pt)), sign))


# ----- ladder between top-weight (p, q) fields and (p+q, 0) fields -----

def ladder_constant(p: int, q: int) -> float:
    """Scalar by which R^q Rbar^q acts on (p+q, 0)-forms."""
    out = 1.0
    for s in range(1, q + 1):
        out *= s * (p + q - s + 1)
    return out


def ladder_map(field: FormField, p: int, q: int) -> FormField:
    """R^q / c_{p,q}: top-weight (p, q) values to (p+q, 0) values."""
    ch = field.chart
    c = ladder_constant(p, q)

    def ev(pt):
        el = field.value(pt)
        for _ in range(q):
            el = ch.ctx.raising(el)
        return escale(el, 1.0 / c)

    return FormField(ch, p + q, ev)


def d_plus(field: FormField, p: int, q: int, kind: str) -> FormField:
    """Top-weight part of the (p+1, q) ("prime") or (p, q+1) ("second")
    piece of d on a top-weight (p, q) field."""
    tp, tq = (p + 1, q) if kind == "prime" else (p, q + 1)
    df = exterior_d(field)
    ch = field.chart

    def ev(pt):
        el = ch.ctx.component(df.value(pt), tp, tq)
        return ch.ctx.weight_project(el, p + q + 1)

    return FormField(ch, p + q + 1, ev)


# ----- random test fields -----

def _poly_closure(spec):
    def fn(pt):
        total = 0.0
        for c, idx in spec:
            term = c
            for i in idx:
                term = term * pt[i]
            total = total + term
        return total
    return fn


def random_polynomial(chart: Chart, rng, real: bool = True) -> FormField:
    """Sum of six monomials of degree 1 to 3 with normal coefficients."""
    spec = []
    for _ in range(6):
        k = int(rng.integers(1, 4))
        idx = tuple(int(rng.integers(0, chart.dim)) for _ in range(k))
        c = float(rng.standard_normal())
        if not real:
            c = complex(c, float(rng.standard_normal()))
        spec.append((c, idx))
    return scalar_field(chart, _poly_closure(spec))


def _random_element(chart: Chart, monos: list, rng) -> Callable:
    """pt -> sum of four monomials drawn from monos, each with a random
    complex polynomial coefficient of degree at most 2."""
    picks = []
    for _ in range(4):
        mono = monos[int(rng.integers(0, len(monos)))]
        spec = [(complex(rng.standard_normal(), rng.standard_normal()),
                 tuple(int(rng.integers(0, chart.dim))
                       for _ in range(int(rng.integers(0, 3)))))
                for _ in range(2)]
        picks.append((mono, _poly_closure(spec)))

    def el(pt):
        out: dict = {}
        for mono, fn in picks:
            out = eadd(out, {mono: fn(pt)})
        return out

    return el


def random_form_field(chart: Chart, degree: int, rng) -> FormField:
    """Random field given on real-label monomials."""
    el = _random_element(chart,
                         list(itertools.combinations(range(chart.dim), degree)),
                         rng)
    return FormField(chart, degree, lambda pt: to_frame(chart, el(pt), pt))


def random_pq_field(chart: Chart, p: int, q: int, rng,
                    top_weight: bool = False) -> FormField:
    """Random (p, q) field in frame labels, optionally weight-projected."""
    ctx = chart.ctx
    el = _random_element(chart, ctx.basis_pq(p, q), rng)
    if top_weight:
        return FormField(chart, p + q,
                         lambda pt: ctx.weight_project(el(pt), p + q))
    return FormField(chart, p + q, el)


def sample_points(rng, dim: int, count: int) -> list:
    """`count` standard normal points of R^dim, one block of draws."""
    return rng.standard_normal((count, dim)).tolist()


def stack_points(pts) -> Point:
    """One Point for a whole sweep: coordinate i is the float array of every
    sample's i-th coordinate, in sample order."""
    return Point(np.array(pts, dtype=float).T.copy())


# ----- Nijenhuis tensor of an almost complex structure and its derivative -----

def nijenhuis_residual(L: np.ndarray, dL: np.ndarray):
    """Max component of N_L(e_i, e_j) for the real matrix L at a point and
    its exact first derivative dL[k, j, l] = d_l L[k, j] there
    (total_space.structure_matrix_field builds both by the chain rule).
    Leading axes are samples: the maximum is taken per sample, and a nan
    stays in its own sample."""
    # summed in place, in the order term1 - term2 - term3 + term4
    N = np.einsum('...li,...kjl->...kij', L, dL)
    N -= np.einsum('...lj,...kil->...kij', L, dL)
    N -= np.einsum('...kl,...lji->...kij', L, dL)
    N += np.einsum('...kl,...lij->...kij', L, dL)
    return np.max(np.abs(N), axis=(-3, -2, -1))
