import numpy as np
import pytest

from conftest import quat_conj, quat_im, right_mult_c2
from hktlab.exterior import standard_m
from hktlab.quaternions import (UNITS, hypercomplex_matrices, left_mult_matrix,
                                quat_abs2, quat_mul)


def right_mult_matrix(q) -> np.ndarray:
    """4x4 real matrix of b -> b * q on components."""
    return np.array([quat_mul(UNITS[u], q) for u in "1ijk"], dtype=float).T


def test_quaternion_table():
    i, j, k = UNITS["i"], UNITS["j"], UNITS["k"]
    assert quat_mul(i, i) == (-1, 0, 0, 0)
    assert quat_mul(i, j) == k
    assert quat_mul(j, i) == tuple(-x for x in k)
    assert quat_mul(j, k) == i
    assert quat_mul(k, i) == j


def test_mul_associative(rng):
    a, b, c = (tuple(rng.standard_normal(4)) for _ in range(3))
    lhs = quat_mul(quat_mul(a, b), c)
    rhs = quat_mul(a, quat_mul(b, c))
    assert np.allclose(lhs, rhs)


def test_conj_and_norm(rng):
    a = tuple(rng.standard_normal(4))
    n = quat_mul(a, quat_conj(a))
    assert n[0] == pytest.approx(quat_abs2(a))
    assert np.allclose(n[1:], 0.0)
    assert quat_im(a) == (0,) + a[1:]


@pytest.mark.parametrize("unit", ["i", "j", "k"])
def test_left_mult_squares_to_minus_one(unit):
    L = left_mult_matrix(unit)
    assert np.allclose(L @ L, -np.eye(4))


def test_left_mult_composition():
    I, J, K = (left_mult_matrix(u) for u in "ijk")
    assert np.allclose(I @ J, K)
    assert np.allclose(I @ J + J @ I, 0.0)


def test_left_mult_matches_quat_mul(rng):
    v = tuple(rng.standard_normal(4))
    for u in "ijk":
        assert np.allclose(left_mult_matrix(u) @ v, quat_mul(UNITS[u], v))


def test_right_mult_reverses_order(rng):
    p = tuple(rng.standard_normal(4))
    q = tuple(rng.standard_normal(4))
    # R_p R_q = R_{q p}
    lhs = right_mult_matrix(p) @ right_mult_matrix(q)
    rhs = right_mult_matrix(quat_mul(q, p))
    assert np.allclose(lhs, rhs)


def test_left_and_right_mult_commute(rng):
    p = tuple(rng.standard_normal(4))
    for u in "ijk":
        L, R = left_mult_matrix(u), right_mult_matrix(p)
        assert np.allclose(L @ R, R @ L)


def test_hypercomplex_blocks():
    mats = hypercomplex_matrices(2)
    for u in "IJK":
        assert mats[u].shape == (8, 8)
        assert np.allclose(mats[u] @ mats[u], -np.eye(8))
        assert np.allclose(mats[u][:4, 4:], 0.0)
    assert np.allclose(mats["I"] @ mats["J"], mats["K"])


def test_right_mult_c2_is_complex_form(rng):
    # b = v0 + v1 j identifies H with C^2; right multiplication is C-linear
    # for the left-i complex structure and matches the 2x2 complex matrix
    q = tuple(rng.standard_normal(4))
    b = tuple(rng.standard_normal(4))
    prod = quat_mul(b, q)
    v = (complex(b[0], b[1]), complex(b[2], b[3]))
    w_expect = (complex(prod[0], prod[1]), complex(prod[2], prod[3]))
    Rc = right_mult_c2(q)
    w = (Rc[0][0] * v[0] + Rc[0][1] * v[1], Rc[1][0] * v[0] + Rc[1][1] * v[1])
    assert np.allclose(w, w_expect)


def test_fiber_j_matrix(rng):
    # the rank-2 fiber structure standard_m(2) is left j on H = C^2 in the
    # coordinates b = v0 + v1 j, written as v -> M conj(v)
    M = standard_m(2)
    assert np.allclose(M, [[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(M @ np.conj(M), -np.eye(2))
    b = tuple(rng.standard_normal(4))
    jb = quat_mul(UNITS["j"], b)
    v = np.array([complex(b[0], b[1]), complex(b[2], b[3])])
    assert np.allclose(M @ np.conj(v), [complex(jb[0], jb[1]), complex(jb[2], jb[3])])
