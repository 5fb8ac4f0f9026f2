"""A sweep evaluated at the stacked Point of its samples agrees with the same
fields evaluated at each sample's own plain-float Point.

The plain-float Point runs the same operator code with float coordinates,
so it is the oracle: entry by entry, each sample's coefficients (or array
entries, or residuals) must match to 1e-12 relative to that sample's
largest one (at least 1).  The qpos records and the algebra (1,1) draws are
held the same way to their code run at each draw alone.
"""

import weakref

import numpy as np
import pytest

from conftest import vertical_probe
from hktlab import suites
from hktlab.bundles import (_jet, bianchi_residual, catalog_names, curvature,
                            get_connection, invariance_residual,
                            structure_charts, type11_residual)
from hktlab.charts import flat_chart, to_frame, to_real
from hktlab.duals import Point, numeric
from hktlab.exterior import StructureContext, eadd, enorm, escale, standard_m
from hktlab.fields import (FormField, d_plus, del_bar, del_hol, del_j,
                           exterior_d, ladder_map, random_form_field,
                           random_polynomial, random_pq_field, sample_points,
                           scalar_field, stack_points)
from hktlab.hermitian import (gram, hermitian_pair, hyperhermitian_metric,
                              hyperhermitian_residual, omega_from_gram,
                              qpos_margin, qpositive_form, qreal_residual,
                              quaternionic_conj)
from hktlab.hopf import fundamental_domain_points, hopf_data
from hktlab.suites import ScenarioConfig
from hktlab.total_space import (horizontal_lift, natural_metric,
                                omega_hor_expr, omega_ver_canonical,
                                omega_ver_expr, psi, structure_matrix_field,
                                total_space, xi_curv_expr)


def assert_sample_agrees(stacked, k, count, el):
    """Sample k of an element over `count` stacked samples against the
    element at that sample's own Point; a value stands for the element
    {(): value}."""
    stacked, el = (x if isinstance(x, dict) else {(): x}
                   for x in (stacked, el))
    scale = max(1.0, enorm(el))
    for key in stacked.keys() | el.keys():
        got = np.broadcast_to(numeric(stacked.get(key, 0.0)), (count,))[k]
        assert abs(got - el.get(key, 0.0)) <= 1e-12 * scale, (key, k)


def assert_agrees(evaluate, pts):
    stacked = evaluate(stack_points(pts))
    for k, pt in enumerate(pts):
        assert_sample_agrees(stacked, k, len(pts), evaluate(Point(pt)))


def assert_arrays_agree(stacked, per_sample):
    """stacked[k] against the array of sample k, for every sample."""
    assert np.shape(stacked) == (len(per_sample),) + np.shape(per_sample[0])
    for k, want in enumerate(per_sample):
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(stacked[k] - want)) <= 1e-12 * scale, k


def test_stack_points_keeps_the_samples():
    pts = [[0.5, -1.0, 2.0], [3.0, 0.25, -0.75]]
    stacked = stack_points(pts)
    assert isinstance(stacked, Point) and len(stacked) == 3
    assert [list(map(float, c)) for c in zip(*stacked)] == pts


@pytest.mark.parametrize("n", [1, 2])
def test_bicomplex_sweeps_agree_with_each_sample(n):
    sweeps = suites._bicomplex_sweeps(ScenarioConfig(n=n, samples=3))
    assert len(sweeps) == 9
    for _, pts, columns in sweeps:
        for fields in columns:
            for f in fields:
                assert_agrees(f, pts)


@pytest.mark.parametrize("records, cfg, lengths", [
    (suites.bicomplex_records, ScenarioConfig(n=1, samples=5), [5, 3, 3]),
    (suites.bicomplex_records, ScenarioConfig(n=2, samples=5), [5, 3, 3]),
    (suites.totspace_records, ScenarioConfig(samples=5),
     [5, 5, 7, 20, 10, 22]),
    (suites.hopf_records, ScenarioConfig(samples=5), [5, 20])],
    ids=["1", "2", "totspace", "hopf"])
def test_bicomplex_stacks_each_sample_list_once(monkeypatch, records, cfg,
                                                lengths):
    # the length of every sample list a suite stacks, in order, each once:
    # - bicomplex, nine sweeps over three lists: the samples (six sweeps),
    #   their first three (moment-potential) and the ladder samples (two);
    # - totspace, per bundle: the samples (the frame-roundtrip,
    #   curvature-term, del-closed, metric and Nijenhuis sweeps), the
    #   structure equation's first max(10, samples // 10) and the
    #   potential's samples with two zero-fiber copies; bpst at 5 samples,
    #   then its flat control at 20;
    # - hopf: the samples (five sweeps) and 4 dilations of each of them
    stacked = []
    monkeypatch.setattr(suites, "stack_points",
                        lambda pts: stacked.append(pts) or stack_points(pts))
    assert all(r.passed for r in records(cfg))
    assert [len(pts) for pts in stacked] == lengths
    assert len({id(pts) for pts in stacked}) == len(lengths)


def test_a_point_is_dropped_after_its_last_sweep(monkeypatch, rng):
    # the potential sweep's Point is gone when the curvature-term sweep runs,
    # and the samples' Point, which the curvature term shares with the
    # first sweep, is alive then
    sweeps = suites._totspace_sweeps(ScenarioConfig(), "bpst", 4, rng)
    made = []

    class Tracked(Point):  # a Point with a weakref slot
        pass

    def stack(pts):
        pt = Tracked(stack_points(pts))
        made.append(weakref.ref(pt))
        return pt

    seen = []
    specs, pts, (first, *rest) = sweeps[3]
    assert specs[0].identity == "curvature-term-weightless"
    sweeps[3] = (specs, pts, [[lambda pt: seen.append(
        [ref() is not None for ref in made]) or first[0](pt)], *rest])
    monkeypatch.setattr(suites, "stack_points", stack)
    assert all(r.passed for r in suites._run_sweeps(sweeps))
    # alive: the samples' Point; gone: the structure equation's and the
    # potential's
    assert seen == [[True, False, False]]
    assert all(ref() is None for ref in made)


@pytest.mark.parametrize("n", [1, 2])
def test_operators_agree_with_each_sample(rng, n):
    # the sweeps' fields are residuals near zero; their operands are not
    ch = flat_chart(n)
    pts = sample_points(rng, ch.dim, 3)
    f = random_polynomial(ch, rng, real=False)
    one = random_form_field(ch, 1, rng)
    f10 = random_pq_field(ch, 1, 0, rng)
    eta = random_pq_field(ch, 1, 1, rng, top_weight=True)
    e10 = random_pq_field(ch, 1, 0, rng, top_weight=True)
    for field in (exterior_d(one), del_bar(f), del_j(f), del_hol(del_j(f)),
                  del_bar(f10), ladder_map(eta, 1, 1),
                  d_plus(e10, 1, 0, "prime"),
                  ladder_map(d_plus(e10, 1, 0, "second"), 1, 1)):
        assert enorm(field.at(pts[0])) > 1e-3
        assert_agrees(field.at, pts)


@pytest.mark.parametrize("bundle", ["bpst", "direct-sum", "flat"])
def test_del_closed_agrees_with_each_sample(rng, bundle):
    ts = total_space(get_connection(bundle))
    ch = ts.chart
    pts = [Point(pt) for pt in sample_points(rng, ts.dim, 3)]
    omega = eadd(omega_hor_expr(ts), escale(omega_ver_canonical(ts), 2.0))
    assert_agrees(del_hol(FormField(ch, 2, lambda pt: omega)).at, pts)
    # a field that does not vanish, through the same point-dependent tables
    psi_f = scalar_field(ch, lambda pt: psi(ts, pt))
    assert_agrees(del_hol(del_bar(psi_f)).frame_at, pts)
    assert_agrees(exterior_d(del_j(psi_f)).at, pts)


@pytest.mark.parametrize("bundle", catalog_names())
def test_jet_and_curvature_stack_the_samples(rng, bundle):
    conn = get_connection(bundle)
    pts = sample_points(rng, 4, 3)
    stacked = stack_points(pts)
    A, dA = _jet(conn, stacked)
    jets = [_jet(conn, Point(pt)) for pt in pts]
    assert_arrays_agree(A, [a for a, _ in jets])
    assert_arrays_agree(dA, [da for _, da in jets])
    assert_arrays_agree(curvature(conn, stacked),
                        [curvature(conn, Point(pt)) for pt in pts])


@pytest.mark.parametrize("bundle", catalog_names())
def test_bundle_criteria_agree_with_each_sample(rng, bundle):
    conn = get_connection(bundle)
    charts = structure_charts(conn.base_n)
    pts = sample_points(rng, 4, 3)
    for residual in (lambda pt: invariance_residual(conn, pt, charts),
                     lambda pt: type11_residual(conn, pt, charts),
                     lambda pt: bianchi_residual(conn, pt)):
        assert_arrays_agree(residual(stack_points(pts)),
                            [residual(Point(pt)) for pt in pts])


@pytest.mark.parametrize("bundle", ["bpst", "direct-sum", "flat"])
def test_totspace_sweeps_agree_with_each_sample(rng, bundle):
    ts = total_space(get_connection(bundle))
    ch = ts.chart
    sweeps = suites._totspace_sweeps(ScenarioConfig(), bundle, 3, rng)
    metric = 4 + (bundle == "flat")  # with metric-flat-identity on flat
    assert [len(specs) for specs, _, _ in sweeps] == [
        1, 1, 5, 3, 1, 1, 2, metric, 1]
    # the curvature-term, del-closed, metric and Nijenhuis sweeps read the
    # frame roundtrip's samples; the constant form's records have none
    pts = sweeps[0][1]
    assert [i for i, (_, s, _) in enumerate(sweeps) if s is pts] == [
        0, 3, 5, 7, 8]
    assert [i for i, (_, s, _) in enumerate(sweeps) if s is None] == [4, 6]
    for specs, samples, columns in sweeps:
        if samples is None:
            continue
        for f in (f for fields in columns for f in fields):
            got = f(stack_points(samples))
            per_sample = [f(Point(pt)) for pt in samples]
            if specs[0].identity == "frame-roundtrip":
                # the draws are arrays over the samples: sample k's is draw k
                per_sample = [{key: c[k] for key, c in el.items()}
                              for k, el in enumerate(per_sample)]
            if np.ndim(got) == 2:  # Nijenhuis: one value per structure
                assert_arrays_agree(got, per_sample)
            else:
                for k, want in enumerate(per_sample):
                    assert_sample_agrees(got, k, len(samples), want)
    # fields that do not vanish: the right side of the del dbar identity,
    # with the curvature correction in frame labels, and the vertical form
    # in real labels, both through the point-dependent tables
    for field in (lambda pt: eadd(omega_ver_expr(ts),
                                  to_frame(ch, xi_curv_expr(ts, pt), pt)),
                  lambda pt: to_real(ch, omega_ver_expr(ts), pt)):
        assert enorm(field(Point(pts[0]))) > 1e-3
        assert_agrees(field, pts)


@pytest.mark.parametrize("bundle", ["bpst", "direct-sum", "nonholo-demo"])
def test_structure_matrices_agree_with_each_sample(rng, bundle):
    ts = total_space(get_connection(bundle))
    pts = sample_points(rng, ts.dim, 3)
    for unit in ("I", "J", "K"):
        field = structure_matrix_field(ts, unit)
        L, B = field(stack_points(pts))
        per_sample = [field(Point(pt)) for pt in pts]
        assert_arrays_agree(L, [l for l, _ in per_sample])
        assert_arrays_agree(B, [b for _, b in per_sample])
        assert max(np.max(np.abs(b)) for _, b in per_sample) > 1e-3


@pytest.mark.parametrize("bundle", ["bpst", "direct-sum"])
def test_hopf_form_sweep_agrees_with_each_sample(rng, bundle):
    # the frame value, the Gram margin and matrix and every field of the
    # form sweep, with an arbitrary fiber scaling of either sign per sample
    h = hopf_data(total_space(get_connection(bundle)), 2.0)
    pts = fundamental_domain_points(h, rng, 3)
    lams = rng.uniform(0.3, 3.0, 3) * np.array([1.0, -1.0, 1.0])
    form, margin, form_gram, fields = suites._hopf_form(h, lams)
    stacked = stack_points(pts)
    got = [f(stacked) for f in [form, margin, *fields]]
    assert len(fields) == 8 and got[1].shape == (3,)
    # the form, its margin and its Gram matrix, which later sweeps read,
    # are memoised
    assert form(stacked) is got[0] and margin(stacked) is got[1]
    G = form_gram(stacked)
    assert form_gram(stacked) is G
    per_sample = []
    for k, pt in enumerate(pts):
        form_k, margin_k, gram_k, fields_k = suites._hopf_form(
            h, float(lams[k]))
        want = [f(Point(pt)) for f in [form_k, margin_k, *fields_k]]
        assert enorm(want[0]) > 1e-3 and want[1] > 1e-3
        for g, w in zip(got, want, strict=True):
            assert_sample_agrees(g, k, 3, w)
        per_sample.append(gram_k(Point(pt)))
    assert_arrays_agree(G, per_sample)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_hermitian_algebra_agrees_with_each_sample(rng, m):
    # a (2, 0)-form whose coefficients are arrays over 3 samples: it is
    # neither q-real nor q-positive, so every value is far from zero
    ctx = StructureContext(m, standard_m(m))
    el = {(a, b): rng.standard_normal(3) + 1j * rng.standard_normal(3)
          for a in range(m) for b in range(a + 1, m)}
    per_sample = [{key: c[k] for key, c in el.items()} for k in range(3)]
    x, y = (rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
            for _ in range(2))
    G = gram(ctx, el)
    assert_arrays_agree(G, [gram(ctx, e) for e in per_sample])
    for fn in (lambda e: qpos_margin(ctx, e), lambda e: qreal_residual(ctx, e),
               lambda e: hyperhermitian_residual(ctx, gram(ctx, e))):
        value = fn(el)
        assert value.shape == (3,)
        for k, e in enumerate(per_sample):
            assert abs(fn(e)) > 1e-3
            assert_sample_agrees(value, k, 3, fn(e))
    pair = hermitian_pair(ctx, el, x, y)
    for k, e in enumerate(per_sample):
        assert_sample_agrees(pair, k, 3, hermitian_pair(ctx, e, x[k], y[k]))


def test_stacked_margin_and_residual_keep_a_nan_in_its_sample(rng):
    ctx = StructureContext(4, standard_m(4))
    el = {(a, b): rng.standard_normal(3) + 1j * rng.standard_normal(3)
          for a in range(4) for b in range(a + 1, 4)}
    el[(0, 1)][1] = np.nan
    for fn in (qpos_margin, qreal_residual):
        value = fn(ctx, el)
        assert np.isnan(value[1]) and np.all(np.isfinite(value[[0, 2]]))
        for k in (0, 2):
            assert_sample_agrees(value, k, 3,
                                 fn(ctx, {key: c[k] for key, c in el.items()}))


def one_draw(drawn, k):
    """Draw k of stacked draws: plain complex coefficients, or arrays."""
    return [{key: complex(c[k]) for key, c in part.items()}
            if isinstance(part, dict) else part[k] for part in drawn]


def test_draw_reads_the_stream_as_a_per_sample_loop():
    # one block of normals against a loop that draws one sample at a time,
    # its parts in order: an element's coefficients as (real, imaginary)
    # pairs, an array's real parts before its imaginary parts
    b20 = StructureContext(4, standard_m(4)).basis_pq(2, 0)
    drawn = suites._draw(np.random.default_rng(7), 3, b20, (4,), (4, 4))
    rng = np.random.default_rng(7)
    for k in range(3):
        el, x, G = one_draw(drawn, k)
        assert el == {mono: complex(rng.standard_normal(),
                                    rng.standard_normal()) for mono in b20}
        for got in (x, G):
            want = (rng.standard_normal(got.shape)
                    + 1j * rng.standard_normal(got.shape))
            assert np.array_equal(got, want)


def recorded(monkeypatch, name) -> list:
    """suites.<name> wrapped to keep each call's (arguments, result)."""
    calls, real = [], getattr(suites, name)

    def wrapped(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(suites, name, wrapped)
    return calls


def test_sample_points_read_the_stream_as_a_per_sample_loop():
    rng = np.random.default_rng(7)
    want = [rng.standard_normal(8).tolist() for _ in range(5)]
    assert np.array_equal(sample_points(np.random.default_rng(7), 8, 5), want)


@pytest.mark.parametrize("bundle", ["bpst", "direct-sum"])
def test_frame_roundtrip_draws_read_the_stream_as_a_per_sample_loop(
        monkeypatch, bundle):
    # each totspace sweep (the bundle's, then the flat control's) draws its
    # points and then one complex pair per coordinate and sample
    calls = recorded(monkeypatch, "_draw")
    cfg = ScenarioConfig(bundle=bundle, samples=3)
    suites.totspace_records(cfg)
    rng = cfg.rng()
    for (_, (el,)), name, count in zip(calls, [bundle, "flat"], [3, 20],
                                       strict=True):
        dim = total_space(get_connection(name)).dim
        for _ in range(count):
            rng.standard_normal(dim)
        want = np.array([[complex(rng.standard_normal(), rng.standard_normal())
                          for _ in range(dim)] for _ in range(count)])
        assert list(el) == [(i,) for i in range(dim)]
        assert np.array_equal(np.array(list(el.values())).T, want)


@pytest.mark.parametrize("bundle, probes", [
    ("bpst", 3), ("direct-sum", 3), ("bpst", 1), ("direct-sum", 1)])
def test_hopf_draws_read_the_stream_as_a_per_sample_loop(
        monkeypatch, bundle, probes):
    # per sample, after the domain points and the dilations: probes - 1
    # vertical probes and, on the rank-4 fiber, the extra one; then per
    # sample a base vector and one more vertical probe.  The pairings show
    # where the suite puts each draw.
    draws = recorded(monkeypatch, "_draw")
    pairs = recorded(monkeypatch, "hermitian_pair")
    cfg = ScenarioConfig(bundle=bundle, samples=4, probes=probes)
    suites.hopf_records(cfg)
    h = hopf_data(total_space(get_connection(bundle)), cfg.q)
    ts, rng = h.ts, cfg.rng()
    mb, m, extra = 2 * ts.n, ts.ctx.m, ts.rank > 2
    pts = fundamental_domain_points(h, rng, cfg.samples)
    for _ in pts:
        rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
    k = probes - 1 + extra
    want = np.array([[vertical_probe(ts, rng) for _ in range(k)]
                     for _ in pts]).reshape(len(pts), k, m)
    xb, xv = np.zeros((2, len(pts), m), dtype=complex)
    for s in range(len(pts)):
        xb[s, :mb] = rng.standard_normal(mb) + 1j * rng.standard_normal(mb)
        xv[s] = vertical_probe(ts, rng)

    (_, drawn), _ = draws
    assert len(drawn) == k
    for j, x in enumerate(drawn):
        assert np.array_equal(x, want[:, j, mb:])
    args = [a[2:] for a, _ in pairs]
    assert len(args) == probes + extra + 1
    for j in range(probes - 1):
        assert np.array_equal(args[j][0], want[:, j])
    if extra:
        # the extra probe less its parts along the fiber value and its
        # conjugate partner: what it lost is orthogonal to what is left
        u, w = args[probes][0], want[:, -1]
        assert np.all(np.abs(np.sum(np.conj(u) * (w - u), axis=-1))
                      <= 1e-12 * np.sum(np.abs(w) ** 2, axis=-1))
    assert np.array_equal(args[-1][0], xb) and np.array_equal(args[-1][1], xv)


@pytest.mark.parametrize("n", [1, 2])
def test_qpos_draws_agree_with_each_draw(rng, n):
    # every record's values, evaluated once on its stacked draws and on
    # each draw alone, and the operands that do not vanish
    ctx = flat_chart(n).ctx
    sweeps = suites._qpos_sweeps(ctx, suites.Tolerances())
    assert len(sweeps) == 8
    for _, parts, evaluate in sweeps:
        drawn = suites._draw(rng, 3, *parts)
        assert_arrays_agree(evaluate(*drawn),
                            [evaluate(*one_draw(drawn, k)) for k in range(3)])
    drawn = suites._draw(rng, 3, ctx.basis_pq(2, 0), (ctx.m, ctx.m))
    maps = (lambda raw, B: qpositive_form(ctx, raw),
            lambda raw, B: quaternionic_conj(ctx, raw),
            lambda raw, B: omega_from_gram(ctx, hyperhermitian_metric(ctx, B)))
    for k in range(3):
        for fn in maps:
            assert_sample_agrees(fn(*drawn), k, 3, fn(*one_draw(drawn, k)))
    assert_arrays_agree(hyperhermitian_metric(ctx, drawn[1]),
                        [hyperhermitian_metric(ctx, B) for B in drawn[1]])


@pytest.mark.parametrize("n", [1, 2])
def test_split_draws_agree_with_each_draw(rng, n):
    # the algebra suite's (1,1) draws: the invariant part, and the norms of
    # R of it, of R of the rest and of the rest
    ctx = flat_chart(n).ctx
    el, = suites._draw(rng, 3, ctx.basis_pq(1, 1))
    norms = suites._split_norms(ctx, el)
    for k in range(3):
        one, = one_draw([el], k)
        assert_sample_agrees(ctx.invariant_part(el), k, 3,
                             ctx.invariant_part(one))
        for got, want in zip(norms, suites._split_norms(ctx, one),
                             strict=True):
            assert_sample_agrees(got, k, 3, want)


@pytest.mark.parametrize("bundle", ["bpst", "direct-sum", "flat"])
def test_metric_sweeps_agree_with_each_sample(rng, bundle):
    ts = total_space(get_connection(bundle))
    mats = {u: structure_matrix_field(ts, u) for u in ("I", "J", "K")}
    pts = sample_points(rng, ts.dim, 3)
    gaps = suites._metric_gaps(ts, mats, stack_points(pts))
    assert len(gaps) == 5
    for k, pt in enumerate(pts):
        for got, want in zip(gaps, suites._metric_gaps(ts, mats, Point(pt))):
            assert_sample_agrees(got, k, 3, want)
    # the operands, which do not vanish: the metric and the horizontal lifts
    u = rng.standard_normal(4)
    for fn in (lambda pt: natural_metric(ts, pt),
               lambda pt: horizontal_lift(ts, pt, u)):
        assert_arrays_agree(fn(stack_points(pts)),
                            [fn(Point(pt)) for pt in pts])

