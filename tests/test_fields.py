import collections
import dataclasses

import numpy as np
import pytest

from hktlab import fields, suites
from hktlab.bundles import get_connection
from hktlab.charts import flat_chart, to_frame, to_real
from hktlab.duals import (Dual, Point, dot_part, fresh_level, sample_shape,
                          seed_unit, seeded, val_part)
from hktlab.exterior import (_is_zero, apply_derivation, eadd, enorm, escale,
                             esub, wedge)
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
        field = random_polynomial(ch, rng, real=False)
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
    return [random_polynomial(chart, rng, real=False),
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
    f = random_polynomial(ch, rng, real=False)
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
    pts = [[2.0 * x for x in p] for p in sample_points(rng, 8, 5)]
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

def test_frame_at_builds_once_per_point_and_afresh_on_a_plain_list(rng):
    # frame_at and at read one build per Point; a plain list becomes a
    # fresh Point on every call, so each call builds
    builds = []
    ch = flat_chart(1)
    field = FormField(ch, 1, lambda pt: builds.append(pt) or {
        (0,): pt[0] * pt[1]})
    coords = sample_points(rng, ch.dim, 1)[0]
    pt = Point(coords)
    first = field.frame_at(pt)
    assert field.frame_at(pt) is first
    assert field.at(pt) == to_real(ch, first, pt)
    assert builds == [pt]
    builds.clear()
    for read in (field.frame_at, field.frame_at, field.at):
        read(coords)
    assert len(builds) == 3
    assert all(type(b) is Point and b == coords for b in builds)
    assert len({id(b) for b in builds}) == 3


def test_seeded_child_is_made_once_per_point():
    pt = stack_points([[0.5, -1.0, 2.0], [3.0, 0.25, -0.75]])
    child = seeded(pt)
    assert seeded(pt) is child and child.memo is not pt.memo
    assert all(type(c) is Dual for c in child)
    # one level for every slot; slot i carries eye(3)[i] on a lane axis
    # left of the sample axis
    assert len({c.level for c in child}) == 1
    for i, c in enumerate(child):
        assert c.val is pt[i]
        assert c.dot.shape == (3, 1)
        assert np.array_equal(c.dot[:, 0], np.eye(3)[i])
    # a grandchild's level is above every level in its parent's coordinates,
    # and its lane axis sits left of its parent's
    grand = seeded(child)
    assert seeded(child) is grand
    assert all(g.val is c for g, c in zip(grand, child))
    assert grand[0].level > child[0].level
    assert grand[2].dot.shape == (3, 1, 1)
    assert np.array_equal(grand[2].dot[:, 0, 0], np.eye(3)[2])
    # so d_k d_j of x_0 x_2 sits at [k, j] ahead of the sample axis
    hess = (grand[0] * grand[2]).dot.dot
    want = np.zeros((3, 3, 1))
    want[0, 2] = want[2, 0] = 1.0
    assert hess.shape == (3, 3, 1) and np.array_equal(hess, want)
    # a plain list keeps no memo: a fresh child at a fresh level each time
    a, b = seeded([1.0, 2.0]), seeded([1.0, 2.0])
    assert a is not b and a[0].level != b[0].level
    assert a[1].dot.shape == (2,)


# ----- reference: the frame-label Cartan rule one direction at a time -----
#
# What fields._cartan_d computes, without its lane axis or memo: the field
# runs at seed_unit(pt, i) for each direction i, d_i acts on its value and on
# the coframe there, and dx_i ^ d_i is summed over i, direction after
# direction, as the rule ran before every direction shared one child.

def per_direction_d(ch, ev, split):
    """pt -> {key: d of that part}, for the parts that split cuts from the
    frame-label value ev(pt)."""
    def at_level(el, lev):
        return {mono: dc for mono, c in el.items()
                if not _is_zero(dc := dot_part(c, lev))}

    def out(pt):
        inv = ch.inverse_table(pt)
        acc = {}
        for i in range(ch.dim):
            lev = fresh_level()
            sp = seed_unit(pt, i, lev)
            coframe = {a: apply_derivation(inv, at_level(row, lev))
                       for a, row in ch.frame_table(sp).items()}
            for key, part in split(ev(sp)).items():
                values = {mono: val_part(c, lev) for mono, c in part.items()}
                d_i = eadd(at_level(part, lev),
                           apply_derivation(coframe, values))
                acc[key] = eadd(acc.get(key, {}), wedge(inv[i], d_i))
        return acc
    return out


def per_direction_ops(ch):
    """d, del/dbar and del_J on frame-label evaluators, per direction."""
    ctx = ch.ctx

    def d(ev):
        whole = per_direction_d(ch, ev, lambda el: {None: el})
        return lambda pt: whole(pt)[None]

    def dolbeault(ev, kind):
        dp, dq = (1, 0) if kind == "del" else (0, 1)
        parts = per_direction_d(ch, ev, ctx.hodge)

        def out(pt):
            acc = {}
            for (p, q), part in parts(pt).items():
                acc = eadd(acc, ctx.component(part, p + dp, q + dq))
            return acc
        return out

    def dj(ev, p):
        db = dolbeault(lambda pt: ctx.cov_mult("J", ev(pt)), "dbar")
        return lambda pt: escale(ctx.cov_mult("J", db(pt)), (-1) ** p)

    return d, dolbeault, dj


@pytest.mark.parametrize("case", ["del-del_J-psi", "del-dbar-psi", "d-d-f"])
def test_lane_pass_matches_per_direction_reference(rng, case):
    # the lane pass against the per-direction rule, to a few ulps, at a
    # plain point, a stacked Point of 3 samples and a stacked Point of 1;
    # the lane sums keep every sample axis and leave no other: a number at
    # the plain point, an array over the one sample at the 1-sample Point
    if case == "d-d-f":
        ch = flat_chart(1)
        f = random_polynomial(ch, rng, real=False)
        d, _, _ = per_direction_ops(ch)
        op, ref = exterior_d(exterior_d(f)), d(d(f.eval_real))
    else:
        ts = total_space(get_connection("bpst"))
        ch = ts.chart
        f = scalar_field(ch, lambda pt: psi(ts, pt))
        _, dolbeault, dj = per_direction_ops(ch)
        inner, ref_inner = ((del_j(f), dj(f.eval_real, 0))
                            if case == "del-del_J-psi" else
                            (del_bar(f), dolbeault(f.eval_real, "dbar")))
        op, ref = del_hol(inner), dolbeault(ref_inner, "del")
    pts = sample_points(rng, ch.dim, 3)
    for make, shapes in ((lambda: Point(pts[0]), {()}),
                         (lambda: stack_points(pts), {(3,), (1,)}),
                         (lambda: stack_points(pts[:1]), {(1,)})):
        got, want = op.frame_at(make()), ref(make())
        assert {np.shape(c) for c in got.values()} <= shapes
        assert not any(isinstance(c, Dual) for c in got.values())
        scale = max(1.0, np.max(enorm(want)))
        for mono in got.keys() | want.keys():
            gap = np.abs(got.get(mono, 0.0) - want.get(mono, 0.0))
            assert np.all(gap <= 4 * np.finfo(float).eps * scale), mono
    if case != "d-d-f":
        assert np.max(enorm(got)) > 0.5


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


@pytest.mark.parametrize("n", [1, 2])
def test_bicomplex_scalar_runs_at_the_shared_stacked_point(monkeypatch, n):
    # the six sweeps over the samples share one stacked Point, and every
    # field they evaluate is second order in each of their three random
    # scalars f: a del_J reads its field only at the child its dbar pass
    # seeds.  So f runs once, at the Point's one seeded grandchild
    # (duals.seeded), whose coordinates carry every direction of both levels
    # on lane axes, and nowhere else: was 16 at n=1 and 64 at n=2, one run
    # per grandchild of a direction pair, and 128 and 512 when each operator
    # seeded its own children.  The moment and ladder sweeps use no random
    # scalar.
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
    assert [len(pts) for pts in calls] == [1] * 3
    # each run at the grandchild of the stacked Point of all 5 samples
    for pts in calls:
        assert isinstance(pts[0][0].val, Dual)
        assert all(sample_shape(pt) == (5,) for pt in pts)


# ----- what a Cartan pass reads from the Point's memo -----

def dx_memo(pt):
    """{chart's inverse table: the lane-wide sum_i dx_i e_i} on pt."""
    return {key[1]: el for key, el in pt.memo.items()
            if isinstance(key, tuple) and key[0] == "dx"}


@pytest.mark.parametrize("n", [1, 2])
def test_dx_is_built_once_per_point_and_chart(monkeypatch, n):
    # every Cartan pass at a Point reads the lane-wide sum_i dx_i e_i of its
    # chart from the Point's memo: in a bicomplex run the 81 passes build it
    # 5 times (was once per pass), once at each stacked Point a pass runs at
    # and at its seeded child: the shared Point of all samples (33 passes
    # there, 22 at its child), the moment Point (1 and 1) and the ladder
    # Point (24, none at its child)
    builds, passes, held = collections.Counter(), collections.Counter(), []
    real_memo, real_pass = fields.point_memo, fields._cartan_d

    def memo(pt, key, build):
        if not (isinstance(key, tuple) and key[0] == "dx"):
            return real_memo(pt, key, build)

        def counted(at):
            builds[id(at), key] += 1
            held.append(at)
            return build(at)

        return real_memo(pt, key, counted)

    def counted_pass(field, pt, split):
        passes[id(pt)] += 1
        held.append(pt)
        return real_pass(field, pt, split)

    monkeypatch.setattr(fields, "point_memo", memo)
    monkeypatch.setattr(fields, "_cartan_d", counted_pass)
    records = suites.bicomplex_records(ScenarioConfig(n=n, samples=5))
    assert all(r.passed for r in records)
    assert set(builds.values()) == {1}
    assert sum(passes.values()) == 81 and len(builds) == 5
    # every pass ran at a stacked Point or its child, each with its dx
    tops = [pt for pt in held if isinstance(pt[0], np.ndarray)]
    per_top = {(passes[id(pt)], passes[id(seeded(pt))],
                len(dx_memo(pt)), len(dx_memo(seeded(pt)))) for pt in tops}
    assert per_top == {(33, 22, 1, 1), (1, 1, 1, 1), (24, 0, 1, 0)}


def test_two_charts_at_one_point_each_read_their_own_dx(rng):
    # the flat I and J charts at one stacked Point: d of the same function
    # on each reads its own chart's dx (keyed by the chart), so both give
    # its gradient in real labels, and each is bit for bit its d alone at a
    # fresh Point of the same samples
    charts = [flat_chart(1, unit) for unit in ("I", "J")]
    poly = random_polynomial(charts[0], rng, real=False)
    fs = [scalar_field(ch, lambda pt: poly.eval_real(pt)[()]) for ch in charts]
    pts = sample_points(rng, 4, 3)
    pt = stack_points(pts)
    got = [exterior_d(f).frame_at(pt) for f in fs]
    dx = dx_memo(pt)
    assert set(dx) == {ch.inverse_table for ch in charts}
    dxI, dxJ = (dx[ch.inverse_table] for ch in charts)
    assert dxI.keys() == dxJ.keys()
    assert any(not np.array_equal(dxI[k], dxJ[k]) for k in dxI)
    want = ref_d(charts[0], poly.at)(stack_points(pts))
    scale = np.max(enorm(want))
    assert scale > 1e-3
    for ch, f, el in zip(charts, fs, got):
        assert_bitwise_equal(el, exterior_d(f).frame_at(stack_points(pts)))
        gap = enorm(esub(to_real(ch, el, pt), want))
        assert np.all(gap <= 8 * np.finfo(float).eps * scale)


def test_d_plus_prime_and_second_run_eta_once_at_a_point(monkeypatch, rng):
    # d_plus "prime" and "second" of one eta read eta's d through the Point's
    # memo: one Cartan pass of eta at the Point (was one per d_plus), and
    # each value is bit for bit its d_plus alone at a fresh Point
    ch = flat_chart(2)
    eta = random_pq_field(ch, 1, 1, rng, top_weight=True)
    pts = sample_points(rng, ch.dim, 3)
    alone = {kind: d_plus(eta, 1, 1, kind).frame_at(stack_points(pts))
             for kind in ("prime", "second")}
    runs = []
    real = fields._cartan_d

    def counted(field, at, split):
        runs.append((field, at))
        return real(field, at, split)

    monkeypatch.setattr(fields, "_cartan_d", counted)
    pt = stack_points(pts)
    for kind in ("prime", "second"):
        got = d_plus(eta, 1, 1, kind).frame_at(pt)
        assert np.max(enorm(got)) > 1e-3
        assert_bitwise_equal(got, alone[kind])
    assert len(runs) == 1 and runs[0][0] is eta and runs[0][1] is pt
