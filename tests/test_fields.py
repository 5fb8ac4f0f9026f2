import dataclasses

import numpy as np
import pytest

from hktlab import suites
from hktlab.bundles import get_connection
from hktlab.charts import flat_chart, to_frame, to_real
from hktlab.duals import (Dual, Point, dot_part, fresh_level, sample_shape,
                          seed_unit, seeded)
from hktlab.exterior import eadd, enorm, escale, esub, wedge
from hktlab.fields import (FormField, d_plus, del_bar, del_hol, del_j,
                           dolbeault, exterior_d, ladder_constant, ladder_map,
                           nijenhuis_residual, random_form_field,
                           random_polynomial, random_pq_field, sample_points,
                           scalar_field, stack_points)
from hktlab.quaternions import hypercomplex_matrices
from hktlab.suites import ScenarioConfig
from hktlab.total_space import psi, total_space
from test_total_space import seeded_jet


# ----- reference: the real-label path -----
#
# Fields as real-label evaluators (FormField.at); d is sum_i dx_i ^ d_i of the
# value at the seeded point, and every frame-label step is a round trip
# through to_frame / to_real at the point it runs at.  It shares no code with
# fields.py's Cartan rule in frame labels, so it sees a dropped or wrong
# coframe-derivative term.

def ref_d(ch, ev):
    def out(pt):
        acc = {}
        for i in range(ch.dim):
            lev = fresh_level()
            val = ev(seed_unit(pt, i, lev))
            dcoef = {mono: dot_part(c, lev) for mono, c in val.items()}
            acc = eadd(acc, wedge({(i,): 1.0}, dcoef))
        return acc
    return out


def ref_in_frame(ch, ev, fn):
    """The real-label evaluator of fn applied to ev's value in frame labels."""
    return lambda pt: to_real(ch, fn(to_frame(ch, ev(pt), pt)), pt)


def ref_hodge(ch, ev, p, q):
    return ref_in_frame(ch, ev, lambda fr: ch.ctx.component(fr, p, q))


def ref_dolbeault(ch, ev, degree, kind):
    """d of each (p, q) part on its own, one run of ev per part."""
    dp, dq = (1, 0) if kind == "del" else (0, 1)
    pieces = [ref_hodge(ch, ref_d(ch, ref_hodge(ch, ev, p, degree - p)),
                        p + dp, degree - p + dq)
              for p in range(degree + 1)
              if p <= ch.ctx.m and degree - p <= ch.ctx.m]

    def out(pt):
        acc = {}
        for piece in pieces:
            acc = eadd(acc, piece(pt))
        return acc
    return out


def ref_del_j(ch, ev, degree):
    def cov_j(fr):
        return ch.ctx.cov_mult("J", fr)

    db = ref_dolbeault(ch, ref_in_frame(ch, ev, cov_j), degree, "dbar")
    return ref_in_frame(ch, db,
                        lambda fr: escale(cov_j(fr), (-1) ** degree))


def hodge_field(field, p, q):
    ctx = field.chart.ctx
    return FormField(field.chart, field.degree,
                     lambda pt: ctx.component(field.eval_real(pt), p, q))


def assert_close(value, reference, rel=1e-12):
    assert enorm(esub(value, reference)) <= rel * max(1.0, enorm(reference))


def fd_exterior_d(field, pt, h=1e-5):
    # central differences on each coefficient function
    out = {}
    for mu in range(field.chart.dim):
        up = list(pt)
        dn = list(pt)
        up[mu] += h
        dn[mu] -= h
        plus = field.at(up)
        minus = field.at(dn)
        for mono in set(plus) | set(minus):
            dc = (plus.get(mono, 0.0) - minus.get(mono, 0.0)) / (2 * h)
            out = eadd(out, wedge({(mu,): 1.0}, {mono: dc}))
    return out


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_exterior_d_matches_finite_differences(rng, degree):
    ch = flat_chart(1)
    if degree == 0:
        field = random_polynomial(ch, rng, degree=3, real=False)
    else:
        field = random_form_field(ch, degree, rng)
    for pt in sample_points(rng, 4, 3):
        exact = exterior_d(field).at(pt)
        approx = fd_exterior_d(field, pt)
        assert enorm(esub(exact, approx)) < 1e-6


@pytest.fixture(scope="module")
def bpst_chart():
    # the frame of the instanton total space depends on the point
    return total_space(get_connection("bpst")).chart


def bpst_fields(chart, rng):
    return [random_polynomial(chart, rng, degree=3, real=False),
            random_form_field(chart, 1, rng),
            random_pq_field(chart, 1, 0, rng)]


def test_exterior_d_matches_finite_differences_on_bpst(bpst_chart, rng):
    # random_pq_field goes through the point-dependent frame table
    for field in bpst_fields(bpst_chart, rng):
        for pt in sample_points(rng, 8, 2):
            exact = exterior_d(field).at(pt)
            approx = fd_exterior_d(field, pt)
            assert enorm(esub(exact, approx)) < 1e-6 * max(1.0, enorm(exact))


def test_d_splits_into_del_and_dbar_on_bpst(bpst_chart, rng):
    for field in bpst_fields(bpst_chart, rng):
        df, dl, db = exterior_d(field), del_hol(field), del_bar(field)
        for pt in sample_points(rng, 8, 3):
            total = eadd(dl.at(pt), db.at(pt))
            assert enorm(esub(df.at(pt), total)) < 1e-10


@pytest.mark.parametrize("kind", ["del", "dbar"])
def test_one_pass_dolbeault_matches_per_bidegree_reference(bpst_chart, rng,
                                                           kind):
    for field in bpst_fields(bpst_chart, rng):
        fast = dolbeault(field, kind)
        ref = ref_dolbeault(bpst_chart, field.at, field.degree, kind)
        for pt in sample_points(rng, 8, 2):
            assert_close(fast.at(pt), ref(Point(pt)))


def reference_cases(ch, rng):
    """(operator field, real-label reference) pairs on chart ch: d, del and
    dbar of a scalar, a real-label 1-form and a frame (1, 0)-form; del_J of
    the scalar and the (1, 0)-form; del del_J and del dbar of the scalar."""
    f = random_polynomial(ch, rng, degree=3, real=False)
    one = random_form_field(ch, 1, rng)
    f10 = random_pq_field(ch, 1, 0, rng)
    cases = []
    for field in (f, one, f10):
        k = field.degree
        cases += [(exterior_d(field), ref_d(ch, field.at)),
                  (del_hol(field), ref_dolbeault(ch, field.at, k, "del")),
                  (del_bar(field), ref_dolbeault(ch, field.at, k, "dbar"))]
    for field in (f, f10):
        cases.append((del_j(field), ref_del_j(ch, field.at, field.degree)))
    cases += [(del_hol(del_j(f)),
               ref_dolbeault(ch, ref_del_j(ch, f.at, 0), 1, "del")),
              (del_hol(del_bar(f)),
               ref_dolbeault(ch, ref_dolbeault(ch, f.at, 0, "dbar"), 1,
                             "del"))]
    return cases


@pytest.mark.parametrize("where", ["bpst", "flat"])
def test_frame_operators_match_real_label_reference(bpst_chart, rng, where):
    ch = bpst_chart if where == "bpst" else flat_chart(2)
    pts = sample_points(rng, ch.dim, 2)
    for op, ref in reference_cases(ch, rng):
        for pt in pts:
            assert_close(op.at(pt), ref(Point(pt)))


def test_d_squared_is_zero(rng):
    ch = flat_chart(1)
    field = random_form_field(ch, 1, rng)
    dd = exterior_d(exterior_d(field))
    for pt in sample_points(rng, 4, 3):
        assert enorm(dd.at(pt)) < 1e-12


def test_d_splits_into_del_and_dbar(rng):
    ch = flat_chart(2)
    f = random_polynomial(ch, rng, real=False)
    df = exterior_d(f)
    split = del_hol(f)
    dbf = del_bar(f)
    for pt in sample_points(rng, 8, 3):
        total = eadd(split.at(pt), dbf.at(pt))
        assert enorm(esub(df.at(pt), total)) < 1e-10


def test_dolbeault_lands_in_expected_type(rng):
    ch = flat_chart(1)
    field = random_pq_field(ch, 1, 0, rng)
    dl = del_hol(field)
    db = del_bar(field)
    for pt in sample_points(rng, 4, 2):
        fr = dl.frame_at(pt)
        assert enorm(esub(ch.ctx.component(fr, 2, 0), fr)) < 1e-12
        fr = db.frame_at(pt)
        assert enorm(esub(ch.ctx.component(fr, 1, 1), fr)) < 1e-12


def test_del_j_on_functions_is_j_of_dbar(rng):
    ch = flat_chart(1)
    f = random_polynomial(ch, rng, real=False)
    dj = del_j(f)
    db = del_bar(f)
    for pt in sample_points(rng, 4, 3):
        lhs = dj.frame_at(pt)
        rhs = ch.ctx.cov_mult("J", db.frame_at(pt))
        assert enorm(esub(lhs, rhs)) < 1e-12


def test_del_j_anticommutes_with_del(rng):
    ch = flat_chart(1)
    f = random_polynomial(ch, rng, real=False)
    mixed = eadd(del_hol(del_j(f)).at([0.3, -0.2, 0.7, 0.1]),
                 del_j(del_hol(f)).at([0.3, -0.2, 0.7, 0.1]))
    assert enorm(mixed) < 1e-10


def test_ladder_constant_table():
    assert ladder_constant(0, 0) == 1.0
    assert ladder_constant(3, 0) == 1.0
    assert ladder_constant(0, 1) == 1.0
    assert ladder_constant(1, 1) == 2.0
    assert ladder_constant(2, 1) == 3.0
    assert ladder_constant(0, 2) == 4.0
    assert ladder_constant(1, 2) == 12.0
    assert ladder_constant(2, 2) == 24.0


@pytest.mark.parametrize("p,q", [(0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2)])
def test_ladder_scalar_action(rng, p, q):
    # lowering q times then raising q times multiplies (p+q, 0)-forms by c_{p,q}
    ch = flat_chart(2)
    ctx = ch.ctx
    monos = ctx.basis_pq(p + q, 0)
    el = {monos[int(rng.integers(0, len(monos)))]: 1.0 + 0.5j}
    down = el
    for _ in range(q):
        down = ctx.lowering(down)
    up = down
    for _ in range(q):
        up = ctx.raising(up)
    assert enorm(esub(up, escale(el, ladder_constant(p, q)))) < 1e-12


@pytest.mark.parametrize("kind", ["prime", "second"])
def test_ladder_correspondence_spot(rng, kind):
    p, q = 1, 1
    ch = flat_chart(2)
    field = random_pq_field(ch, p, q, rng, top_weight=True)
    tp, tq = (p + 1, q) if kind == "prime" else (p, q + 1)
    kappa = (p + 1) / (p + q + 1) if kind == "prime" else 1.0 / (p + q + 1)
    lhs = ladder_map(d_plus(field, p, q, kind), tp, tq)
    phi = ladder_map(field, p, q)
    rhs = del_hol(phi) if kind == "prime" else del_j(phi)
    for pt in sample_points(rng, 8, 2):
        a = lhs.at(pt)
        b = escale(rhs.at(pt), kappa)
        assert enorm(esub(a, b)) < 1e-8 * max(1.0, enorm(a))


def test_d_plus_is_del_on_p0(rng):
    ch = flat_chart(1)
    field = random_pq_field(ch, 1, 0, rng)
    dp = d_plus(field, 1, 0, "prime")
    dl = del_hol(field)
    for pt in sample_points(rng, 4, 2):
        assert enorm(esub(dp.at(pt), dl.at(pt))) < 1e-10


def test_hodge_field_projects(rng):
    ch = flat_chart(1)
    field = random_form_field(ch, 2, rng)
    parts = [hodge_field(field, p, 2 - p) for p in range(3)]
    pt = [0.2, -0.4, 0.9, 0.3]
    total = {}
    for part in parts:
        total = eadd(total, part.at(pt))
    assert enorm(esub(total, field.at(pt))) < 1e-12


def test_top_weight_fields_are_weight_fixed(rng):
    ch = flat_chart(2)
    field = random_pq_field(ch, 1, 1, rng, top_weight=True)
    pt = list(rng.standard_normal(8))
    fr = field.frame_at(pt)
    assert enorm(esub(ch.ctx.weight_project(fr, 2), fr)) < 1e-12


def test_sample_points_shape(rng):
    pts = sample_points(rng, 8, 5, scale=2.0)
    assert len(pts) == 5
    assert all(len(p) == 8 for p in pts)


def test_nijenhuis_zero_for_constant_structure(rng):
    I4 = hypercomplex_matrices(1)["I"]

    def const_field(pt):
        return [[I4[i, j] for j in range(4)] for i in range(4)]

    for pt in sample_points(rng, 4, 5):
        assert nijenhuis_residual(*seeded_jet(const_field, pt)) == 0.0


def test_nijenhuis_detects_twisted_structure(rng):
    # coordinate-dependent rescaling of one rotation block breaks closure
    # of the (1, 0) distribution; the tensor must see it
    def twisted(pt):
        c = 1.0 + pt[1] * pt[1]
        return [[0.0, -1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, -c],
                [0.0, 0.0, 1.0 / c, 0.0]]

    for pt in sample_points(rng, 4, 3):
        L = np.array(twisted(pt))
        assert np.allclose(L @ L, -np.eye(4))
    worst = max(nijenhuis_residual(*seeded_jet(twisted, pt))
                for pt in sample_points(rng, 4, 10))
    assert worst > 0.05


# ----- what operators at one Point share -----

def test_seeded_child_is_made_once_per_point_and_direction():
    pt = stack_points([[0.5, -1.0, 2.0], [3.0, 0.25, -0.75]])
    first, second = seeded(pt, 0), seeded(pt, 1)
    assert seeded(pt, 0) is first and seeded(pt, 1) is second
    assert first is not second and first.memo is not pt.memo
    assert [type(c) for c in first] == [Dual, np.ndarray, np.ndarray]
    assert first[0].level != second[1].level
    # a grandchild's level is above every level in its parent's coordinates
    grand = seeded(first, 0)
    assert isinstance(grand[0].val, Dual)
    assert grand[0].level > grand[0].val.level == first[0].level
    # a plain list keeps no memo: a fresh child at a fresh level each time
    a, b = seeded([1.0, 2.0], 0), seeded([1.0, 2.0], 0)
    assert a is not b and a[0].level != b[0].level


def assert_bitwise_equal(got, want):
    assert got.keys() == want.keys()
    for key in want:
        g, w = np.asarray(got[key]), np.asarray(want[key])
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape,
                                                   w.tobytes()), key


@pytest.mark.parametrize("where", ["flat", "bpst"])
def test_shared_values_do_not_depend_on_evaluation_order(rng, where):
    # every operator is evaluated at one stacked Point after the others
    # have filled its memo, in both orders, and must equal, bit for bit,
    # the same operator alone at a fresh stacked Point of the same samples
    if where == "flat":
        ch = flat_chart(1)
        f = random_polynomial(ch, rng, real=False)
    else:
        ts = total_space(get_connection("bpst"))
        ch = ts.chart
        f = scalar_field(ch, lambda pt: psi(ts, pt))
    f10 = random_pq_field(ch, 1, 0, rng)
    ops = [del_hol(del_j(f)), del_j(del_hol(f)), del_hol(del_bar(f)),
           del_bar(del_bar(f)), exterior_d(exterior_d(f)), del_j(f),
           del_bar(f), exterior_d(del_j(f)), del_j(del_j(f10)),
           del_hol(f10)]
    pts = sample_points(rng, ch.dim, 3)
    forward, backward = stack_points(pts), stack_points(pts)
    in_order = [op.frame_at(forward) for op in ops]
    reversed_order = [op.frame_at(backward) for op in reversed(ops)][::-1]
    assert max(np.max(enorm(el)) for el in in_order) > 1e-3
    for op, one, other in zip(ops, in_order, reversed_order):
        alone = op.frame_at(stack_points(pts))
        assert_bitwise_equal(one, alone)
        assert_bitwise_equal(other, alone)


@pytest.mark.parametrize("n, runs", [(1, 16), (2, 64)])
def test_bicomplex_scalar_runs_at_the_shared_stacked_point(monkeypatch, n,
                                                           runs):
    # the six sweeps over the samples share one stacked Point, and every
    # field they evaluate is second order in each of their three random
    # scalars f: a del_J reads its field only at the children its dbar
    # pass seeds.  So f runs once at each of the Point's dim^2 seeded
    # grandchildren, dim = 4n, and nowhere else: 16 at n=1 and 64 at n=2
    # (was 128 and 512, when each operator seeded its own children).  The
    # moment and ladder sweeps use no random scalar.
    calls = []
    real = suites.random_polynomial

    def counted(*args, **kwargs):
        field = real(*args, **kwargs)
        k = len(calls)
        calls.append([])

        def ev(pt):
            calls[k].append(pt)
            return field.eval_real(pt)

        return dataclasses.replace(field, eval_real=ev)

    monkeypatch.setattr(suites, "random_polynomial", counted)
    records = suites.bicomplex_records(ScenarioConfig(n=n, samples=5))
    assert all(r.passed for r in records)
    assert [len(pts) for pts in calls] == [runs] * 3
    # each run at its own seeded Point of all 5 samples
    for pts in calls:
        assert len({id(pt) for pt in pts}) == runs
        assert all(sample_shape(pt) == (5,) for pt in pts)
