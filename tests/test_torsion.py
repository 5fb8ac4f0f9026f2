"""An independent oracle for the paper's main claim, that the total space T
of a hyperholomorphic bundle is HKT.

A hyperhermitian manifold is HKT if and only if the torsions of the Bismut
connections of I, J and K agree (Grantcharov & Poon, "Geometry of
hyper-Kähler connections with torsion", Comm. Math. Phys. 213 (2000)):

    I.d omega_I = J.d omega_J = K.d omega_K

with omega_X = L_X^T g, (d omega)_ijk = d_i omega_jk + d_j omega_ki +
d_k omega_ij and (X.alpha)_ijk = alpha_abc (L_X)_ai (L_X)_bj (L_X)_ck.  The
test reads only total_space.natural_metric and structure_matrix_field, and
takes d omega by central differences: no frame label, no del and no dual
number, so a fault shared by the suites' del path and its closed forms
still shows here.
"""

import functools

import numpy as np
import pytest

from hktlab.bundles import get_connection
from hktlab.duals import Point
from hktlab.fields import sample_points, stack_points
from hktlab.total_space import (natural_metric, structure_matrix_field,
                                total_space)

H = 1e-5  # the central-difference step


def structures_at(ts, pts, stacked: bool) -> dict:
    """{unit: (L, omega)} at each of pts, an (N, dim, dim) array each,
    evaluated at one stacked Point of them all or at each one's plain
    Point."""
    def at(pt):
        g = natural_metric(ts, pt)
        out = {}
        for unit in "IJK":
            L, _ = structure_matrix_field(ts, unit)(pt)
            out[unit] = L, np.swapaxes(L, -1, -2) @ g
        return out

    if stacked:
        return at(stack_points(pts))
    each = [at(Point(pt)) for pt in pts]
    return {unit: tuple(np.stack([e[unit][t] for e in each]) for t in (0, 1))
            for unit in "IJK"}


def torsions(ts, x, stacked: bool) -> dict:
    """{unit X: X.d omega_X} at each of the points x, (S, dim, dim, dim)."""
    count, dim = x.shape
    steps = H * np.eye(dim)
    pts = np.concatenate([x, (x[:, None] + steps).reshape(-1, dim),
                          (x[:, None] - steps).reshape(-1, dim)])
    out = {}
    for unit, (L, omega) in structures_at(ts, pts.tolist(), stacked).items():
        plus, minus = omega[count:].reshape(2, count, dim, dim, dim)
        D = (plus - minus) / (2 * H)  # D[s, i, j, k] = d_i omega_jk
        dw = D + np.einsum("sjki->sijk", D) + np.einsum("skij->sijk", D)
        L = L[:count]
        out[unit] = np.einsum("sabc,sai,sbj,sck->sijk", dw, L, L, L)
    return out


@functools.cache
def plain_and_stacked(bundle: str) -> tuple:
    """The torsions of bundle's total space at one point, each shifted point
    evaluated at its own plain Point, then all at one stacked Point."""
    ts = total_space(get_connection(bundle))
    x = np.array(sample_points(np.random.default_rng(0), ts.dim, 1))
    return torsions(ts, x, False), torsions(ts, x, True)


def size_and_gap(t) -> tuple:
    """The largest torsion entry, and the largest disagreement of the
    three torsions."""
    return (max(np.abs(t[u]).max() for u in "IJK"),
            max(np.abs(t["I"] - t[u]).max() for u in "JK"))


@pytest.mark.parametrize("bundle", ["bpst", "direct-sum"])
def test_torsions_agree_on_a_hyperholomorphic_bundle(bundle):
    # the torsion is far from zero, so the natural metric is HKT but not
    # hyperkaehler; central differences leave about 1e-10 of disagreement
    for t in plain_and_stacked(bundle):
        size, gap = size_and_gap(t)
        assert size > 0.5 and gap <= 1e-8 * size


def test_torsions_vanish_on_the_flat_bundle():
    for t in plain_and_stacked("flat"):
        assert size_and_gap(t) == (0.0, 0.0)


def test_torsions_disagree_where_the_lift_is_not_integrable():
    # nonholo-demo's lifted J and K are not integrable
    for t in plain_and_stacked("nonholo-demo"):
        size, gap = size_and_gap(t)
        assert gap > 0.1 * size > 0.0


@pytest.mark.parametrize("bundle", ["flat", "bpst", "direct-sum",
                                    "nonholo-demo"])
def test_stacked_torsions_equal_the_plain_ones(bundle):
    plain, stacked = plain_and_stacked(bundle)
    size, _ = size_and_gap(plain)
    for unit in "IJK":
        assert stacked[unit].shape == plain[unit].shape
        assert np.abs(stacked[unit] - plain[unit]).max() <= 1e-9 * max(
            1.0, size)
