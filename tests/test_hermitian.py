import numpy as np
import pytest

from hktlab.exterior import StructureContext, enorm, esub, eval2, standard_m
from hktlab.hermitian import (antisym_matrix, element_from_antisym, gram,
                              hermitian_pair, hyperhermitian_metric,
                              hyperhermitian_project, hyperhermitian_residual,
                              omega_from_gram, qpos_margin, qpositive_form,
                              qreal_residual, quaternionic_conj)


@pytest.fixture(params=[2, 4])
def ctx(request):
    m = request.param
    return StructureContext(m, standard_m(m))


def random_20(ctx, rng):
    m = ctx.m
    return {(a, b): complex(rng.standard_normal(), rng.standard_normal())
            for a in range(m) for b in range(a + 1, m)}


def random_qreal_positive(ctx, rng):
    return qpositive_form(ctx, random_20(ctx, rng))


def random_hyperhermitian_metric(ctx, rng):
    shape = (ctx.m, ctx.m)
    return hyperhermitian_metric(
        ctx, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_antisym_roundtrip(ctx, rng):
    el = random_20(ctx, rng)
    A = antisym_matrix(ctx, el)
    assert np.allclose(A, -A.T)
    assert enorm(esub(element_from_antisym(A), el)) < 1e-14


def test_gram_omega_roundtrips(ctx, rng):
    el = random_20(ctx, rng)
    G = gram(ctx, el)
    assert enorm(esub(omega_from_gram(ctx, G), el)) < 1e-13
    H = random_hyperhermitian_metric(ctx, rng)
    assert np.max(np.abs(gram(ctx, omega_from_gram(ctx, H)) - H)) < 1e-13


def test_hermitian_pair_is_gram_quadratic_form(ctx, rng):
    el = random_20(ctx, rng)
    G = gram(ctx, el)
    for _ in range(5):
        x = rng.standard_normal(ctx.m) + 1j * rng.standard_normal(ctx.m)
        y = rng.standard_normal(ctx.m) + 1j * rng.standard_normal(ctx.m)
        direct = hermitian_pair(ctx, el, x, y)
        assert abs(direct - x @ G @ np.conj(y)) < 1e-12


def test_conj_is_involution_on_20(ctx, rng):
    el = random_20(ctx, rng)
    twice = quaternionic_conj(ctx, quaternionic_conj(ctx, el))
    assert enorm(esub(twice, el)) < 1e-13


def test_conj_conjugates_gram(ctx, rng):
    el = random_20(ctx, rng)
    G = gram(ctx, el)
    Gc = gram(ctx, quaternionic_conj(ctx, el))
    assert np.max(np.abs(Gc - G.conj().T)) < 1e-13


def test_qreal_iff_hermitian_gram(ctx, rng):
    el = random_qreal_positive(ctx, rng)
    assert qreal_residual(ctx, el) < 1e-12
    fixed = quaternionic_conj(ctx, el)
    assert enorm(esub(fixed, el)) < 1e-12
    # conversely a Hermitian hyperhermitian Gram gives a q-real form
    H = random_hyperhermitian_metric(ctx, rng)
    back = omega_from_gram(ctx, H)
    assert qreal_residual(ctx, back) < 1e-12
    assert enorm(esub(quaternionic_conj(ctx, back), back)) < 1e-12
    # and a generic form is not fixed
    raw = random_20(ctx, rng)
    assert enorm(esub(quaternionic_conj(ctx, raw), raw)) > 1e-3


def test_positive_margin_is_min_eigenvalue(ctx, rng):
    el = random_qreal_positive(ctx, rng)
    G = gram(ctx, el)
    margin = qpos_margin(ctx, el)
    assert margin > 0
    assert margin == pytest.approx(np.min(np.linalg.eigvalsh(0.5 * (G + G.conj().T))))
    # the margin really bounds the pairing from below on unit vectors
    for _ in range(10):
        x = rng.standard_normal(ctx.m) + 1j * rng.standard_normal(ctx.m)
        x = x / np.linalg.norm(x)
        assert hermitian_pair(ctx, el, x, x).real >= margin - 1e-10


def test_canonical_form_has_identity_gram(ctx):
    om = ctx.omega_canonical()
    G = gram(ctx, om)
    assert np.max(np.abs(G - np.eye(ctx.m))) < 1e-14
    assert qpos_margin(ctx, om) == pytest.approx(1.0)


def test_hyperhermitian_project_idempotent(ctx, rng):
    B = rng.standard_normal((ctx.m, ctx.m)) + 1j * rng.standard_normal((ctx.m, ctx.m))
    G = B @ B.conj().T
    P = hyperhermitian_project(ctx, G)
    assert hyperhermitian_residual(ctx, P) < 1e-12
    assert np.max(np.abs(hyperhermitian_project(ctx, P) - P)) < 1e-12
    assert np.max(np.abs(P - P.conj().T)) < 1e-12


def test_random_metric_satisfies_structure(ctx, rng):
    H = random_hyperhermitian_metric(ctx, rng)
    assert hyperhermitian_residual(ctx, H) < 1e-12
    assert np.min(np.linalg.eigvalsh(H)) > 0


def test_pairing_antisymmetry_in_form_slots(ctx, rng):
    el = random_20(ctx, rng)
    m = ctx.m
    x = list(rng.standard_normal(m)) + [0.0] * m
    y = list(rng.standard_normal(m)) + [0.0] * m
    assert abs(eval2(el, x, y) + eval2(el, y, x)) < 1e-13
