"""Forward-mode duals, including the nesting rules that make second
derivatives through point-dependent coefficients come out right."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import dre
from hktlab.duals import (Dual, dconj, dlog, dot_part, fresh_level, numeric,
                          seed_unit, val_part)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@given(finite, finite, finite, finite)
def test_product_rule(a, da, b, db):
    lev = fresh_level()
    x = Dual(a, da, lev)
    y = Dual(b, db, lev)
    p = x * y
    assert numeric(p) == pytest.approx(a * b, rel=1e-12, abs=1e-12)
    assert dot_part(p, lev) == pytest.approx(a * db + b * da,
                                             rel=1e-12, abs=1e-12)


@given(finite, finite)
def test_quotient_rule(a, da):
    lev = fresh_level()
    x = Dual(a, da, lev)
    q = 1.0 / (x * x + 1.0)
    expect = -2.0 * a * da / (a * a + 1.0) ** 2
    assert dot_part(q, lev) == pytest.approx(expect, rel=1e-9, abs=1e-9)


def test_second_derivative_nested():
    # f(x) = x^3: f''(2) = 12
    lev1 = fresh_level()
    lev2 = fresh_level()
    x = Dual(Dual(2.0, 1.0, lev1), Dual(1.0, 0.0, lev1), lev2)
    f = x * x * x
    assert numeric(f) == 8.0
    assert dot_part(dot_part(f, lev2), lev1) == pytest.approx(12.0)


def test_levels_do_not_alias():
    # the outer seed must survive extraction of the inner dot even when
    # the inner expression multiplies by an outer-seeded value
    lev1 = fresh_level()
    x = Dual(2.0, 1.0, lev1)
    lev2 = fresh_level()
    y = Dual(3.0, 1.0, lev2)
    prod = x * y
    inner = dot_part(prod, lev2)          # d/dy (x y) = x
    assert numeric(inner) == 2.0
    assert dot_part(inner, lev1) == 1.0
    held = val_part(prod, lev2)           # value at y, still x-seeded
    assert numeric(held) == 6.0
    assert dot_part(held, lev1) == 3.0


def test_lower_level_is_constant_for_higher():
    lev1 = fresh_level()
    lev2 = fresh_level()
    x = Dual(5.0, 1.0, lev1)
    y = Dual(7.0, 1.0, lev2)
    # w.r.t. the inner level, x is a constant factor
    assert numeric(dot_part(x * y, lev2)) == 5.0
    # a lower-level seed hides inside the value slot of the higher level
    assert numeric(dot_part(y + x, lev1)) == 0.0
    assert numeric(dot_part(val_part(y + x, lev2), lev1)) == 1.0


def test_subtraction_across_levels():
    # x - y is x + (-y) at every pair of levels, with a number and with an
    # array: the value and each level's derivative
    lev1 = fresh_level()
    lev2 = fresh_level()
    x = Dual(5.0, 2.0, lev1)
    y = Dual(Dual(7.0, 3.0, lev1), 0.5, lev2)
    for lhs, rhs, want in [
            (x, y, {"val": -2.0, lev1: -1.0, lev2: -0.5}),
            (y, x, {"val": 2.0, lev1: 1.0, lev2: 0.5}),
            (y, y, {"val": 0.0, lev1: 0.0, lev2: 0.0}),
            (x, 1.5, {"val": 3.5, lev1: 2.0, lev2: 0.0}),
            (1.5, y, {"val": -5.5, lev1: -3.0, lev2: -0.5})]:
        diff = lhs - rhs
        assert numeric(diff) == want["val"]
        assert numeric(dot_part(val_part(diff, lev2), lev1)) == want[lev1]
        assert numeric(dot_part(diff, lev2)) == want[lev2]
    arr = Dual(np.array([1.0, 4.0]), np.array([1.0, -1.0]), lev2)
    diff = arr - x
    assert diff.level == lev2
    assert list(numeric(diff)) == [-4.0, -1.0]
    assert list(dot_part(diff, lev2)) == [1.0, -1.0]
    assert numeric(dot_part(val_part(diff, lev2), lev1)) == -2.0


def test_mixed_partial_through_coefficient():
    # g(u, w) = sin-free polynomial with coefficient depending on u:
    # g = (u^2) * w, d2g/du dw = 2u
    lev_u = fresh_level()
    u = Dual(1.5, 1.0, lev_u)
    coeff = u * u
    lev_w = fresh_level()
    w = Dual(0.25, 1.0, lev_w)
    g = coeff * w
    dw = dot_part(g, lev_w)
    assert numeric(dw) == pytest.approx(2.25)
    assert dot_part(dw, lev_u) == pytest.approx(3.0)


def test_log_exp():
    lev = fresh_level()
    x = Dual(2.0, 1.0, lev)
    assert dot_part(dlog(x), lev) == pytest.approx(0.5)
    z = Dual(1.0 + 1.0j, 1.0, lev)
    assert dot_part(dlog(z), lev) == pytest.approx(1.0 / (1.0 + 1.0j))
    assert dlog(3.0) == pytest.approx(math.log(3.0))


def test_conj_re_im_slotwise():
    lev = fresh_level()
    z = Dual(1.0 + 2.0j, 3.0 - 1.0j, lev)
    c = dconj(z)
    assert numeric(c) == 1.0 - 2.0j
    assert dot_part(c, lev) == 3.0 + 1.0j
    assert numeric(dre(z)) == 1.0
    assert dot_part(dre(z), lev) == 3.0


def test_seed_unit():
    lev = fresh_level()
    pt = seed_unit([1.0, 2.0, 3.0], 1, lev)
    assert numeric(pt[1]) == 2.0
    assert dot_part(pt[1], lev) == 1.0
    assert pt[0] == 1.0 and pt[2] == 3.0


def test_fresh_levels_increase():
    a, b = fresh_level(), fresh_level()
    assert b > a


def test_ndarray_times_dual_is_a_dual():
    # without Dual.__array_ufunc__ = None numpy builds an object array
    lev = fresh_level()
    for out in (np.ones(3) * Dual(1.0, 1.0, lev),
                np.arange(3.0) + Dual(2.0, 1.0, lev),
                np.arange(3.0) - Dual(2.0, 1.0, lev),
                np.arange(1.0, 4.0) / Dual(2.0, 1.0, lev)):
        assert isinstance(out, Dual) and out.level == lev
    out = np.arange(1.0, 4.0) * Dual(np.array([2.0, 3.0, 4.0]), 1.0, lev)
    assert list(out.val) == [2.0, 6.0, 12.0]
    assert list(out.dot) == [1.0, 2.0, 3.0]
    out = np.arange(1.0, 4.0) / Dual(2.0, 1.0, lev)
    assert list(out.val) == [0.5, 1.0, 1.5]
    assert list(out.dot) == [-0.25, -0.5, -0.75]
