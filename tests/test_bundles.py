import collections
import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hktlab import bundles, suites
from conftest import nested_coeff, quat_conj, quat_im, right_mult_c2
from hktlab.bundles import (_curvature_element, bianchi_residual,
                            catalog_names, curvature, get_connection,
                            instanton_coeff, invariance_residual,
                            structure_charts, type11_residual)
from hktlab.charts import flat_chart
from hktlab.duals import (dot_part, fresh_level, numeric, sample_shape,
                          seed_unit, val_part)
from hktlab.fields import sample_points, stack_points
from hktlab.exterior import _is_zero, enorm
from hktlab.quaternions import quat_abs2, quat_mul
from hktlab.report import Spec, record
from hktlab.suites import ScenarioConfig, bundle_records

# star pairs on 2-forms of R^4, orientation dx0 dx1 dx2 dx3
STAR_PAIRS = [((0, 1), (2, 3)), ((0, 2), (3, 1)), ((0, 3), (1, 2))]


def curvature_scale(conn, pt) -> float:
    return record(Spec("scale", "", 0.0), 1,
                  enorm(_curvature_element(conn, pt))).value


def entry(F, a, b):
    mu, nu = (a, b) if a < b else (b, a)
    sgn = 1.0 if a < b else -1.0
    return sgn * np.array(F[mu][nu], dtype=complex)


def test_catalog_and_aliases():
    names = catalog_names()
    assert set(names) == {"flat", "bpst", "direct-sum", "nonholo-demo"}
    assert get_connection("instanton").name == "bpst"
    assert get_connection("direct-sum(F,F*)").name == "direct-sum"
    with pytest.raises(KeyError, match="unknown bundle"):
        get_connection("mystery")


def test_flat_curvature_vanishes(rng):
    conn = get_connection("flat")
    for pt in sample_points(rng, 4, 5):
        F = curvature(conn, pt)
        assert max(np.max(np.abs(entry(F, mu, nu)))
                   for mu in range(4) for nu in range(4)) == 0.0


def test_instanton_coefficients_are_antihermitian(rng):
    conn = get_connection("bpst")
    for pt in sample_points(rng, 4, 5):
        for Amu in nested_coeff(conn, pt):
            A = np.array(Amu, dtype=complex)
            assert np.max(np.abs(A + A.conj().T)) < 1e-14


def test_curvature_is_antisymmetric(rng):
    conn = get_connection("bpst")
    pt = list(rng.standard_normal(4))
    F = curvature(conn, pt)
    for mu in range(4):
        for nu in range(4):
            assert np.allclose(np.array(F[mu][nu], dtype=complex),
                               -np.array(F[nu][mu], dtype=complex))


def test_instanton_curvature_is_anti_self_dual(rng):
    # the self-dual part (F + *F)/2 must vanish while F itself does not
    conn = get_connection("bpst")
    for pt in sample_points(rng, 4, 10):
        F = curvature(conn, pt)
        assert curvature_scale(conn, pt) > 1e-3
        for (a, b), (c, d) in STAR_PAIRS:
            sd = entry(F, a, b) + entry(F, c, d)
            assert np.max(np.abs(sd)) < 1e-12


def test_direct_sum_blocks(rng):
    conn = get_connection("direct-sum")
    small = get_connection("bpst")
    pt = list(rng.standard_normal(4))
    F = curvature(conn, pt)
    f = curvature(small, pt)
    for mu in range(4):
        for nu in range(4):
            big = np.array(F[mu][nu], dtype=complex)
            blk = np.array(f[mu][nu], dtype=complex)
            assert np.allclose(big[:2, :2], blk)
            assert np.allclose(big[2:, 2:], -blk.T)
            assert np.max(np.abs(big[:2, 2:])) == 0.0
            assert np.max(np.abs(big[2:, :2])) == 0.0


def test_entry_forms_match_curvature(rng):
    conn = get_connection("bpst")
    pt = list(rng.standard_normal(4))
    F = curvature(conn, pt)
    el = _curvature_element(conn, pt)
    assert len(el) == 6
    for (mu, nu), c in el.items():
        assert c.shape == (2, 2)
        for a in range(2):
            for b in range(2):
                assert c[a, b] == pytest.approx(complex(F[mu][nu][a][b]))


@pytest.mark.parametrize("name", ["flat", "bpst", "direct-sum", "nonholo-demo"])
def test_bianchi_identity(rng, name):
    conn = get_connection(name)
    for pt in sample_points(rng, 4, 3):
        assert bianchi_residual(conn, pt) < 1e-12


# ----- reference: nested-list curvature, Bianchi through the whole curvature

def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_comm(a, b):
    def mul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(len(b)))
                 for j in range(len(b[0]))] for i in range(len(a))]
    return mat_sub(mul(a, b), mul(b, a))


def seeded_derivative(f, pt, lam):
    """d_lam of every entry of the nested lists f(pt), by one seeding."""
    lev = fresh_level()

    def strip(x):
        return ([strip(y) for y in x] if isinstance(x, list)
                else dot_part(x, lev))

    return strip(f(seed_unit(pt, lam, lev)))


def reference_curvature(conn, pt):
    """F[mu][nu] as r x r nested lists, the commutator on nested Duals."""
    dim = 4 * conn.base_n
    A = nested_coeff(conn, pt)
    dA = [seeded_derivative(lambda p: nested_coeff(conn, p), pt, mu)
          for mu in range(dim)]
    return [[mat_add(mat_sub(dA[mu][nu], dA[nu][mu]), mat_comm(A[mu], A[nu]))
             for nu in range(dim)] for mu in range(dim)]


def reference_bianchi_residual(conn, pt):
    """Max entry of the cyclic sum of d_lam F_mu_nu + [A_lam, F_mu_nu], with
    d_lam F from seeding the whole reference curvature."""
    dim = 4 * conn.base_n
    A = nested_coeff(conn, pt)
    F = reference_curvature(conn, pt)
    dF = [seeded_derivative(lambda p: reference_curvature(conn, p), pt, lam)
          for lam in range(dim)]
    worst = 0.0
    for lam, mu, nu in itertools.combinations(range(dim), 3):
        acc = [[0.0] * conn.rank for _ in range(conn.rank)]
        for a, b, c in ((lam, mu, nu), (mu, nu, lam), (nu, lam, mu)):
            acc = mat_add(acc, mat_add(dF[a][b][c], mat_comm(A[a], F[b][c])))
        worst = max([worst] + [abs(complex(x)) for row in acc for x in row])
    return worst


@pytest.mark.parametrize("name", ["flat", "bpst", "direct-sum", "nonholo-demo"])
def test_curvature_and_bianchi_match_nested_reference(rng, name):
    conn = get_connection(name)
    for pt in sample_points(rng, 4, 3):
        F = curvature(conn, pt)
        assert isinstance(F, np.ndarray) and F.shape == (4, 4) + (conn.rank,) * 2
        assert np.max(np.abs(F - np.array(reference_curvature(conn, pt),
                                          dtype=complex))) < 1e-12
        assert abs(bianchi_residual(conn, pt)
                   - reference_bianchi_residual(conn, pt)) < 1e-12


_FIELD_STRENGTH = bundles._field_strength
FIELD_STRENGTH_MUTANTS = {
    "commutator-dropped":
        lambda D, X, Y, mu, nu: _FIELD_STRENGTH(D, 0 * X, Y, mu, nu),
    "derivative-sign-flipped":
        lambda D, X, Y, mu, nu: _FIELD_STRENGTH(-D, X, Y, mu, nu),
    # X_mu Y_nu without - Y_nu X_mu: half of the commutator
    "only-x-y": lambda D, X, Y, mu, nu: (
        _FIELD_STRENGTH(D, 0 * X, Y, mu, nu)
        + X[..., mu, :, :] @ Y[..., nu, :, :]),
    # [X_nu, Y_mu] in place of [X_mu, Y_nu]: the commutator reads the pairs
    # swapped while the derivative term reads them right
    "commutator-pairs-swapped": lambda D, X, Y, mu, nu: (
        _FIELD_STRENGTH(D, 0 * X, Y, mu, nu)
        + _FIELD_STRENGTH(0, X, Y, nu, mu)),
}


def broadcast_curvature(A, dA):
    """F over the whole (mu, nu) grid, A_mu broadcast against A_nu, summed
    by the einsum bundles._mul uses: the bit-for-bit reference for the
    pair-indexed field strength."""
    mul = functools.partial(np.einsum, "...ij,...jk->...ik")
    Am, An = A[..., :, None, :, :], A[..., None, :, :, :]
    return dA - np.swapaxes(dA, -4, -3) + (mul(Am, An) - mul(An, Am))


@pytest.mark.parametrize("name", ["flat", "bpst", "direct-sum", "nonholo-demo"])
def test_curvature_equals_broadcast_grid_bit_for_bit(rng, name):
    conn = get_connection(name)
    pts = sample_points(rng, 4, 5)
    for pt in (pts[0], stack_points(pts)):
        A, dA = bundles._derivative(conn, pt), bundles._derivative(conn, pt, 1)
        assert np.array_equal(curvature(conn, pt), broadcast_curvature(A, dA))


@pytest.mark.parametrize("mutant", sorted(FIELD_STRENGTH_MUTANTS))
def test_bianchi_catches_field_strength_mutants(rng, monkeypatch, mutant):
    # curvature and the Bianchi check share the helper, so a fault in it
    # cannot cancel between F and dF
    conn = get_connection("bpst")
    pts = sample_points(rng, 4, 3)
    assert max(bianchi_residual(conn, pt) for pt in pts) < 1e-12
    monkeypatch.setattr(bundles, "_field_strength",
                        FIELD_STRENGTH_MUTANTS[mutant])
    assert max(bianchi_residual(conn, pt) for pt in pts) > 1e-3


@pytest.mark.parametrize("name", ["flat", "bpst", "direct-sum"])
def test_invariance_and_type_criteria_pass(rng, name):
    conn = get_connection(name)
    assert conn.hyperholomorphic
    charts = structure_charts(1)
    for pt in sample_points(rng, 4, 5):
        assert invariance_residual(conn, pt, charts) < 1e-12
        assert type11_residual(conn, pt, charts) < 1e-12


def test_nonholo_demo_fails_both_criteria(rng):
    conn = get_connection("nonholo-demo")
    assert not conn.hyperholomorphic
    worst_inv = 0.0
    worst_type = 0.0
    charts = structure_charts(1)
    for pt in sample_points(rng, 4, 10):
        worst_inv = max(worst_inv, invariance_residual(conn, pt, charts))
        worst_type = max(worst_type, type11_residual(conn, pt, charts))
    assert worst_inv > 0.1
    assert worst_type > 0.1


def test_criteria_agree_across_catalog(rng):
    # curvature of type (1,1) for I, J, K exactly when its weight-2 part dies
    pts, charts = sample_points(rng, 4, 5), structure_charts(1)
    for name in catalog_names():
        conn = get_connection(name)
        inv = max(invariance_residual(conn, pt, charts) for pt in pts)
        typ = max(type11_residual(conn, pt, charts) for pt in pts)
        assert (inv < 1e-9) == (typ < 1e-9) == conn.hyperholomorphic


def test_fresh_connection_objects():
    a = get_connection("bpst")
    b = get_connection("bpst")
    assert a is not b


def quaternion_product_instanton_coeff(pt):
    """The instanton potential written with quaternion products and one
    division per entry: the reference for instanton_coeff."""
    q = tuple(pt[:4])
    denom = 1.0 + quat_abs2(q)
    out = []
    for mu in range(4):
        e = [0, 0, 0, 0]
        e[mu] = 1
        a = quat_im(quat_mul(quat_conj(tuple(e)), q))
        out.append([[x / denom for x in row] for row in right_mult_c2(a)])
    return out


def as_array(nested):
    return np.array(nested, dtype=complex)


@pytest.mark.parametrize("name", ["flat", "bpst", "direct-sum", "nonholo-demo"])
def test_coeff_entries_hold_no_exact_zero_and_scatter_to_nested(rng, name):
    # at a plain point, at the stacked Point of 3 samples and at a point
    # seeded at two levels, coeff gives no plain zero entry, and _derivative
    # scatters the entries (or their second dot parts) to the nested lists
    conn = get_connection(name)
    pts = sample_points(rng, 4, 3)
    stacked = stack_points(pts)
    li, lj = fresh_level(), fresh_level()
    seeded = seed_unit(seed_unit(pts[0], 1, li), 2, lj)
    for pt in (pts[0], stacked, seeded):
        assert not any(_is_zero(x) for x in conn.coeff(pt).values()), pt
    assert np.array_equal(bundles._derivative(conn, pts[0]),
                          as_array(nested_coeff(conn, pts[0])))
    A = bundles._derivative(conn, stacked)
    assert A.shape == (3, 4) + (conn.rank,) * 2
    for k, pt in enumerate(pts):
        assert np.array_equal(A[k], as_array(nested_coeff(conn, pt)))
    d2 = [[[numeric(dot_part(dot_part(x, lj), li)) for x in row]
           for row in Amu] for Amu in nested_coeff(conn, seeded)]
    assert np.array_equal(bundles._derivative(conn, pts[0], 2)[1, 2],
                          as_array(d2))


def seeded_nest(conn, pt, dirs):
    """d_{dirs[0]} d_{dirs[1]} ... A, shape (..., dim, r, r), from nested
    coefficients at pt seeded by seed_unit in one direction per level, the
    first direction at the lowest level."""
    levels = [fresh_level() for _ in dirs]
    for i, lev in zip(dirs, levels):
        pt = seed_unit(pt, i, lev)

    def part(x):
        for lev in reversed(levels):
            x = dot_part(x, lev)
        return np.broadcast_to(x, sample_shape(pt))

    nested = [[[part(x) for x in row] for row in Amu]
              for Amu in nested_coeff(conn, pt)]
    return np.moveaxis(as_array(nested), (0, 1, 2), (-3, -2, -1))


@pytest.mark.parametrize("name", ["flat", "bpst", "direct-sum", "nonholo-demo"])
def test_derivative_matches_seeding_one_direction_per_level(rng, name):
    # one coeff call per order, every direction on an axis, against one
    # seed_unit nest per direction (lam below mu): at a plain point, a
    # stacked Point of 3 samples and an 8-coordinate total-space Point,
    # whose fiber coordinates are not seeded
    conn = get_connection(name)
    pts = sample_points(rng, 4, 3)
    for pt in (pts[0], stack_points(pts), sample_points(rng, 8, 1)[0]):
        dirs = range(4)
        want = [seeded_nest(conn, pt, ()),
                np.stack([seeded_nest(conn, pt, (lam,)) for lam in dirs],
                         axis=-4),
                np.stack([np.stack([seeded_nest(conn, pt, (lam, mu))
                                    for mu in dirs], axis=-4)
                          for lam in dirs], axis=-5)]
        for k in range(3):
            got = bundles._derivative(conn, pt, k)
            assert got.shape == want[k].shape, (k, got.shape)
            assert np.array_equal(got, want[k]), k


def test_direct_sum_entries_are_instanton_plus_negative_transpose(rng):
    # A + (-A^T) of bpst's entries, and no entry off the two diagonal blocks
    bpst, dsum = get_connection("bpst"), get_connection("direct-sum")
    pts = sample_points(rng, 4, 3)
    for pt in pts[:1] + [stack_points(pts)]:
        assert all((a < 2) == (b < 2) for _, a, b in dsum.coeff(pt))
        for big, small in zip(nested_coeff(dsum, pt), nested_coeff(bpst, pt)):
            for a in range(2):
                for b in range(2):
                    assert np.array_equal(big[a][b], small[a][b])
                    assert np.array_equal(big[2 + a][2 + b], -small[b][a])


def test_instanton_coeff_matches_quaternion_products(rng):
    bpst = get_connection("bpst")
    assert bpst.coeff is instanton_coeff

    def entries(A):
        return [x for Amu in A for row in Amu for x in row]

    for pt in sample_points(rng, 4, 3):
        for x, y in zip(entries(nested_coeff(bpst, pt)),
                        entries(quaternion_product_instanton_coeff(pt))):
            assert abs(complex(x) - complex(y)) < 1e-15
        for i in range(4):
            for j in range(4):
                li, lj = fresh_level(), fresh_level()
                sp = seed_unit(seed_unit(pt, i, li), j, lj)
                for x, y in zip(entries(nested_coeff(bpst, sp)),
                                entries(quaternion_product_instanton_coeff(sp))):
                    for part in (
                            lambda z: numeric(z),
                            lambda z: numeric(dot_part(val_part(z, lj), li)),
                            lambda z: numeric(dot_part(z, lj)),
                            lambda z: numeric(dot_part(dot_part(z, lj), li))):
                        assert abs(complex(part(x)) - complex(part(y))) < 1e-15


def right_mult_instanton_coeff(pt):
    """instanton_coeff's entries as right_mult_c2 of each Im(conj(e_mu) q),
    a signed permutation of the scaled q: the bit-for-bit oracle."""
    q = pt[:4]
    s = 1.0 / (1.0 + quat_abs2(q))
    p0, p1, p2, p3 = (x * s for x in q)
    ims = ((p1, p2, p3), (-p0, p3, -p2), (-p3, -p0, p1), (p2, -p1, -p0))
    return {(mu, a, b): x for mu, im in enumerate(ims)
            for a, row in enumerate(right_mult_c2((0.0, *im)))
            for b, x in enumerate(row)}


def test_instanton_coeff_equals_right_mult_formula_bit_for_bit(rng):
    # signed zeros included: the values at a plain and a stacked Point, and
    # every value and dot part at Points seeded at one and two levels (the
    # second level in the same direction or another)
    pts = sample_points(rng, 4, 3)
    li, lj = fresh_level(), fresh_level()
    one = [lambda z: val_part(z, li), lambda z: dot_part(z, li)]
    two = [lambda z, f=f, g=g: f(g(z, lj), li)
           for f in (val_part, dot_part) for g in (val_part, dot_part)]
    cases = []
    for pt in (pts[0], stack_points(pts)):
        cases.append((pt, [numeric]))
        for i, j in ((0, 0), (1, 3)):
            cases.append((seed_unit(pt, i, li), one))
            cases.append((seed_unit(seed_unit(pt, i, li), j, lj), two))
    for pt, parts in cases:
        got, want = instanton_coeff(pt), right_mult_instanton_coeff(pt)
        assert list(got) == list(want)
        for key, x in got.items():
            for part in parts:
                assert (np.asarray(numeric(part(x)), complex).tobytes()
                        == np.asarray(numeric(part(want[key])),
                                      complex).tobytes()), (key, pt)


def test_bundle_records_build_flat_charts_once_per_suite(monkeypatch):
    # every catalog entry lives over H, so all share one set of I/J/K charts
    assert {get_connection(nm).base_n for nm in catalog_names()} == {1}
    calls = collections.Counter()

    def counted(n, unit="I"):
        calls[unit] += 1
        return flat_chart(n, unit)

    monkeypatch.setattr(bundles, "flat_chart", counted)
    bundle_records(ScenarioConfig(samples=10))
    assert calls == {"I": 1, "J": 1, "K": 1}


def test_bundle_records_convert_the_curvature_once_per_chart(monkeypatch):
    # the r x r curvature grid is one element: per connection one to_frame
    # for invariance (I) and one per chart for type11 (I, J, K), 16 in all
    # (112 with one element per fiber entry: 16 per rank-2 connection, 64
    # for direct-sum)
    calls = collections.Counter()
    real = bundles.to_frame

    def counted(ch, el, pt):
        calls[ch.name] += 1
        return real(ch, el, pt)

    monkeypatch.setattr(bundles, "to_frame", counted)
    bundle_records(ScenarioConfig(samples=10))
    assert calls == {"flat-H1-I": 8, "flat-H1-J": 4, "flat-H1-K": 4}


def test_bundle_records_build_curvature_once_per_sample(monkeypatch):
    # each connection builds one curvature, at the stacked Point of its
    # samples, shared by all its criteria: all 10 samples for flat, bpst and
    # direct-sum, and the 10 agreement samples for nonholo-demo
    calls = collections.Counter()
    shapes = set()

    def counted(conn, pt):
        calls[conn.name] += 1
        shapes.add(sample_shape(pt))
        return curvature(conn, pt)

    monkeypatch.setattr(bundles, "curvature", counted)
    bundle_records(ScenarioConfig(samples=10))
    assert calls == {"flat": 1, "bpst": 1, "direct-sum": 1,
                     "nonholo-demo": 1}
    assert shapes == {(10,)}


def test_bundle_criteria_build_the_curvature_element_once(monkeypatch):
    # invariance_residual and type11_residual read the curvature element
    # memoised on each connection's stacked Point: 2 reads and 1 build per
    # connection (was 2 builds, one per criterion)
    reads, builds, reading = (collections.Counter(), collections.Counter(),
                              [])
    real_read, real_build = (bundles._curvature_element,
                             bundles.element_from_antisym)

    def read(conn, pt):
        reads[conn.name] += 1
        reading.append(conn.name)
        return real_read(conn, pt)

    def build(A):
        builds[reading[-1]] += 1
        return real_build(A)

    monkeypatch.setattr(bundles, "_curvature_element", read)
    monkeypatch.setattr(bundles, "element_from_antisym", build)
    records = bundle_records(ScenarioConfig(samples=10))
    assert all(r.passed for r in records)
    assert reads == {nm: 2 for nm in catalog_names()}
    assert builds == {nm: 1 for nm in catalog_names()}


def test_bundle_records_coeff_calls_per_sample(monkeypatch):
    # a checked connection, once at the stacked Point of its 10 samples: 1
    # call for A, 1 for dA with every direction on an axis, and 1 per lam
    # for Bianchi's second derivatives, every mu on an axis (21 with one
    # call per seed, 210 when each sample was its own Point); nonholo-demo
    # only needs the jet of its curvature, at its 10 agreement samples (5
    # with one call per seed, 50 per sample)
    calls = collections.Counter()
    real = suites.get_connection

    def counted(name):
        conn = real(name)

        def coeff(pt):
            calls[conn.name] += 1
            return conn.coeff(pt)

        return dataclasses.replace(conn, coeff=coeff)

    monkeypatch.setattr(suites, "get_connection", counted)
    bundle_records(ScenarioConfig(samples=10))
    assert calls == {"flat": 6, "bpst": 6, "direct-sum": 6,
                     "nonholo-demo": 2}


def test_bianchi_memory_per_lam():
    # only one lam's second derivatives are live at once, and only the 3
    # (mu, nu) pairs a lam reads are built: 3.1 MB at 200 samples on
    # direct-sum (5.1 MB with all 16 pairs per lam, over 7 MB when one call
    # builds every lam's second derivatives first)
    conn = get_connection("direct-sum")
    pt = stack_points(sample_points(np.random.default_rng(0), 4, 200))
    bundles._point_curvature(conn, pt)
    tracemalloc.start()
    try:
        bianchi_residual(conn, pt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6, peak


def test_nan_coefficient_fails_bundle_criteria(monkeypatch):
    # bpst's coefficients are nan in sample 5 of the 12 its criteria are
    # evaluated at, all at once: each of its records fails with value nan,
    # flat's pass, and the residuals are nan in that sample alone
    cfg = ScenarioConfig(samples=12)
    poison = np.ones(cfg.samples)
    poison[5] = math.nan
    bpst = get_connection("bpst")

    def coeff(pt):
        assert sample_shape(pt) == poison.shape
        return {key: x * poison for key, x in bpst.coeff(pt).items()}

    poisoned = dataclasses.replace(bpst, coeff=coeff)
    real = suites.get_connection
    monkeypatch.setattr(
        suites, "get_connection",
        lambda name: poisoned if real(name).name == "bpst" else real(name))
    records = {r.identity: r for r in bundle_records(cfg)}
    for stem in ("curvature-invariance", "curvature-type11", "bianchi"):
        r = records[f"{stem}(bpst)"]
        assert math.isnan(r.value) and not r.passed, stem
        assert r.points == cfg.samples, stem
        assert records[f"{stem}(flat)"].passed
    pt = stack_points(sample_points(cfg.rng(), 4, cfg.samples))
    charts = structure_charts(1)
    for residual in (functools.partial(invariance_residual, charts=charts),
                     functools.partial(type11_residual, charts=charts),
                     bianchi_residual):
        values = residual(poisoned, pt)
        assert list(np.isnan(values)) == [k == 5 for k in range(12)]
        assert np.max(values[~np.isnan(values)]) < 1e-9
