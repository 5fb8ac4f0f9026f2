"""Form-valued fields and the Dolbeault-type operators acting on them.

A FormField evaluates to a sparse element over real-coordinate labels.  Every
operator differentiates with one forward-mode dual pass per coordinate
direction and is exact to rounding: at each level the inner field is
evaluated once at each seeded point (duals.seed_unit), and del / dbar split
that one value into all of its bidegrees in frame labels, so del, dbar and
del_J compose by nesting closures (and nesting dual levels) without
re-running the inner field per bidegree.  Frame and inverse tables are
memoised on each seeded Point, so the conversions of one evaluation at one
point share a single build of each table.

del_J is the twisted holomorphic differential: on functions del_J f equals the
multiplicative J applied to dbar f, and on (p, 0)-forms

    del_J = (-1)^p cov_J . dbar . cov_J

which lands in (p+1, 0).  Together with del it forms the anticommuting pair
del^2 = del_J^2 = del del_J + del_J del = 0 verified by the suites.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charts import Chart, to_frame, to_real
from .duals import Point, as_point, dot_part, fresh_level, seed_unit
from .exterior import eadd, escale, wedge


@dataclass
class FormField:
    chart: Chart
    degree: int
    eval_real: Callable[[Point], dict]

    def at(self, pt):
        return self.eval_real(as_point(pt))

    def frame_at(self, pt):
        pt = as_point(pt)
        return to_frame(self.chart, self.eval_real(pt), pt)


def scalar_field(chart: Chart, fn: Callable) -> FormField:
    return FormField(chart, 0, lambda pt: {(): fn(pt)})


def frame_form_field(chart: Chart, degree: int, expr: Callable) -> FormField:
    """Field given by a frame-label element expression pt -> element."""
    return FormField(chart, degree, lambda pt: to_real(chart, expr(pt), pt))


def _d_along(el: dict, i: int, lev: int) -> dict:
    """dx_i ^ (derivative of el's coefficients along the seed of level lev)."""
    dcoef = {}
    for mono, c in el.items():
        dc = dot_part(c, lev)
        if not (isinstance(dc, (int, float, complex)) and dc == 0):
            dcoef[mono] = dc
    return wedge({(i,): 1.0}, dcoef)


def exterior_d(field: FormField) -> FormField:
    ch = field.chart

    def ev(pt):
        out: dict = {}
        for i in range(ch.dim):
            lev = fresh_level()
            out = eadd(out, _d_along(field.eval_real(seed_unit(pt, i, lev)),
                                     i, lev))
        return out

    return FormField(ch, field.degree + 1, ev)


def hodge_field(field: FormField, p: int, q: int) -> FormField:
    ch = field.chart

    def ev(pt):
        fr = to_frame(ch, field.eval_real(pt), pt)
        return to_real(ch, ch.ctx.component(fr, p, q), pt)

    return FormField(ch, field.degree, ev)


def dolbeault(field: FormField, kind: str) -> FormField:
    """The (p+1, q) ("del") or (p, q+1) ("dbar") graded piece of d.

    One pass per direction i: the field's value at the seeded point is split
    into its (p, q) parts, and dx_i ^ d_i of each part (in real labels) joins
    that bidegree's accumulator.  Each accumulator is then d of one (p, q)
    part, of which the unseeded point keeps the piece `kind` names.
    """
    ch = field.chart
    ctx = ch.ctx
    dp, dq = (1, 0) if kind == "del" else (0, 1)

    def ev(pt):
        acc: dict = {}
        for i in range(ch.dim):
            lev = fresh_level()
            sp = seed_unit(pt, i, lev)
            fr = to_frame(ch, field.eval_real(sp), sp)
            for pq, part in ctx.hodge(fr).items():
                acc[pq] = eadd(acc.get(pq, {}),
                               _d_along(to_real(ch, part, sp), i, lev))
        out: dict = {}
        for (p, q), d_part in acc.items():
            fr = to_frame(ch, d_part, pt)
            out = eadd(out, ctx.component(fr, p + dp, q + dq))
        return to_real(ch, out, pt)

    return FormField(ch, field.degree + 1, ev)


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
        ch, p,
        lambda pt: to_real(ch, ch.ctx.cov_mult("J", to_frame(ch, field.eval_real(pt), pt)), pt))
    db = dolbeault(conjugated, "dbar")

    def ev(pt):
        fr = to_frame(ch, db.eval_real(pt), pt)
        return to_real(ch, escale(ch.ctx.cov_mult("J", fr), sign), pt)

    return FormField(ch, p + 1, ev)


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
        el = to_frame(ch, field.eval_real(pt), pt)
        for _ in range(q):
            el = ch.ctx.raising(el)
        return to_real(ch, escale(el, 1.0 / c), pt)

    return FormField(ch, p + q, ev)


def d_plus(field: FormField, p: int, q: int, kind: str) -> FormField:
    """Top-weight part of the (p+1, q) ("prime") or (p, q+1) ("second")
    piece of d on a top-weight (p, q) field."""
    tp, tq = (p + 1, q) if kind == "prime" else (p, q + 1)
    df = exterior_d(field)
    ch = field.chart

    def ev(pt):
        fr = to_frame(ch, df.eval_real(pt), pt)
        el = ch.ctx.weight_project(ch.ctx.component(fr, tp, tq), p + q + 1)
        return to_real(ch, el, pt)

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


def random_polynomial(chart: Chart, rng, degree: int = 3, terms: int = 6,
                      real: bool = True) -> FormField:
    spec = []
    for _ in range(terms):
        k = int(rng.integers(1, degree + 1))
        idx = tuple(int(rng.integers(0, chart.dim)) for _ in range(k))
        c = float(rng.standard_normal())
        if not real:
            c = complex(c, float(rng.standard_normal()))
        spec.append((c, idx))
    return scalar_field(chart, _poly_closure(spec))


def random_form_field(chart: Chart, degree: int, rng, terms: int = 4,
                      coeff_degree: int = 2) -> FormField:
    monos = list(itertools.combinations(range(chart.dim), degree))
    picks = []
    for _ in range(terms):
        mono = monos[int(rng.integers(0, len(monos)))]
        spec = [(complex(rng.standard_normal(), rng.standard_normal()),
                 tuple(int(rng.integers(0, chart.dim))
                       for _ in range(int(rng.integers(0, coeff_degree + 1)))))
                for _ in range(2)]
        picks.append((mono, _poly_closure(spec)))

    def ev(pt):
        out: dict = {}
        for mono, fn in picks:
            out = eadd(out, {mono: fn(pt)})
        return out

    return FormField(chart, degree, ev)


def random_pq_field(chart: Chart, p: int, q: int, rng, terms: int = 4,
                    coeff_degree: int = 2, top_weight: bool = False) -> FormField:
    """Random (p, q) field in frame labels, optionally weight-projected."""
    ctx = chart.ctx
    monos = ctx.basis_pq(p, q)
    picks = []
    for _ in range(terms):
        mono = monos[int(rng.integers(0, len(monos)))]
        spec = [(complex(rng.standard_normal(), rng.standard_normal()),
                 tuple(int(rng.integers(0, chart.dim))
                       for _ in range(int(rng.integers(0, coeff_degree + 1)))))
                for _ in range(2)]
        picks.append((mono, _poly_closure(spec)))

    def expr(pt):
        el: dict = {}
        for mono, fn in picks:
            el = eadd(el, {mono: fn(pt)})
        if top_weight:
            el = ctx.weight_project(el, p + q)
        return el

    return frame_form_field(chart, p + q, expr)


def sample_points(rng, dim: int, count: int, scale: float = 1.0) -> list:
    return [(scale * rng.standard_normal(dim)).tolist() for _ in range(count)]


# ----- Nijenhuis tensor of an almost complex structure given as a matrix field -----

def nijenhuis_residual(mat_field: Callable, pt, dim: int) -> float:
    """Max component of N_L(e_i, e_j) for the real matrix field L."""
    L = np.array([[float(x) for x in row] for row in mat_field(pt)])
    Jc = np.zeros((dim, dim, dim))
    for l in range(dim):
        lev = fresh_level()
        Ld = mat_field(seed_unit(pt, l, lev))
        for k in range(dim):
            row = Ld[k]
            for j in range(dim):
                Jc[k, j, l] = dot_part(row[j], lev)
    term1 = np.einsum('li,kjl->kij', L, Jc)
    term2 = np.einsum('lj,kil->kij', L, Jc)
    term3 = np.einsum('kl,lji->kij', L, Jc)
    term4 = np.einsum('kl,lij->kij', L, Jc)
    return float(np.max(np.abs(term1 - term2 - term3 + term4)))
