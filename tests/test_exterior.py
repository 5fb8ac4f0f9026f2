"""Exterior algebra over frame labels and the structure operators.

Oracles here are independent of the implementation: permutation parity by
brute force, operator matrices against hand-built ones on small spaces,
weight projectors against a numpy eigendecomposition of the Casimir.
"""

import itertools
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hktlab import exterior
from hktlab.duals import Dual, fresh_level
from hktlab.exterior import (StructureContext, apply_derivation, eadd, enorm,
                             escale, esub, eval2, positive_dimension,
                             sort_sign, standard_m, wedge)


def _ctx(m=2):
    return StructureContext(m, standard_m(m))


def _parity_brute(labels):
    perm = sorted(range(len(labels)), key=lambda i: labels[i])
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, cycle = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            cycle += 1
        if cycle % 2 == 0:
            sign = -sign
    return sign


@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1,
                max_size=5))
def test_sort_sign_matches_brute_parity(labels):
    sorted_labels, sign = sort_sign(tuple(labels))
    if len(set(labels)) < len(labels):
        assert sign == 0
    else:
        assert sorted_labels == tuple(sorted(labels))
        assert sign == _parity_brute(labels)


# every label tuple over range(6) of degree at most 3, repeats and any order
LABEL_TUPLES = [t for k in range(4) for t in itertools.product(range(6),
                                                               repeat=k)]


def test_label_products_match_sort_sign():
    # wedge's cached products against sort_sign of the joined tuple, for
    # every pair; the cache is cleared after, so no other test reads it
    try:
        for ka, kb in itertools.product(LABEL_TUPLES, repeat=2):
            assert exterior._product(ka, kb) == sort_sign(ka + kb), (ka, kb)
    finally:
        exterior._product.cache_clear()


def test_apply_derivation_signs_match_sort_sign():
    # apply_derivation puts the new label first and flips the sign for an
    # odd place p; at every (labels, p, new) with distinct labels (so only
    # place p is mapped) that must be the sign sort_sign gives the new label
    # in place p
    for labels in LABEL_TUPLES:
        if len(set(labels)) < len(labels):
            continue
        for p, new in itertools.product(range(len(labels)), range(6)):
            key, sgn = sort_sign(labels[:p] + (new,) + labels[p + 1:])
            want = {} if key is None else {key: float(sgn)}
            got = apply_derivation({labels[p]: {(new,): 1.0}}, {labels: 1.0})
            assert got == want, (labels, p, new)


coeff = st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                           allow_infinity=False)


@settings(max_examples=50)
@given(coeff, coeff, st.integers(0, 3), st.integers(0, 3))
def test_wedge_of_basis_covectors(ca, cb, a, b):
    w = wedge({(a,): ca}, {(b,): cb})
    if a == b:
        assert w == {} or enorm(w) == 0.0
    else:
        key = (min(a, b), max(a, b))
        sign = 1.0 if a < b else -1.0
        assert enorm(esub(w, {key: sign * ca * cb})) < 1e-12 * (
            1 + abs(ca * cb))


def test_wedge_graded_commutativity(rng):
    labels = list(range(6))
    a = {tuple(sorted(rng.choice(labels, 2, replace=False))): 1.3 + 0.2j}
    b = {(int(rng.integers(0, 6)),): -0.7j}
    # (2-form) ^ (1-form) = (1-form) ^ (2-form)
    assert enorm(esub(wedge(a, b), wedge(b, a))) < 1e-14
    c = {(int(rng.integers(0, 6)),): 2.0}
    assert enorm(eadd(wedge(c, b), wedge(b, c))) < 1e-14


def test_wedge_associative(rng):
    els = []
    for _ in range(3):
        els.append({(int(rng.integers(0, 8)),): complex(*rng.standard_normal(2))})
    a, b, c = els
    lhs = wedge(wedge(a, b), c)
    rhs = wedge(a, wedge(b, c))
    assert enorm(esub(lhs, rhs)) < 1e-13


def test_standard_m():
    for m in (2, 4, 6):
        M = standard_m(m)
        assert np.allclose(M @ np.conj(M), -np.eye(m))
        assert np.allclose(M, -M.T)
        assert np.allclose(M @ M.conj().T, np.eye(m))


def test_basis_counts():
    ctx = _ctx(4)
    for k in range(9):
        assert len(ctx.basis(k)) == math.comb(8, k)
    for p in range(5):
        for q in range(5):
            assert len(ctx.basis_pq(p, q)) == math.comb(4, p) * math.comb(4, q)


def test_h_operator_bidegree():
    ctx = _ctx(2)
    for p in range(3):
        for q in range(3):
            for mono in ctx.basis_pq(p, q):
                out = ctx.h_op({mono: 1.0})
                expect = {mono: float(p - q)} if p != q else {}
                assert enorm(esub(out, expect)) == 0.0


def test_raising_lowering_explicit_m2():
    # m = 2, std M = [[0,-1],[1,0]]: R thetabar_0 = -conj(M)_{0b} theta_b
    ctx = _ctx(2)
    r0 = ctx.raising({(2,): 1.0})
    l0 = ctx.lowering({(0,): 1.0})
    M = ctx.mmat
    expect_r = {(b,): -np.conj(M[0, b]) for b in range(2)
                if M[0, b] != 0}
    expect_l = {(2 + b,): M[0, b] for b in range(2) if M[0, b] != 0}
    assert enorm(esub(r0, expect_r)) == 0.0
    assert enorm(esub(l0, expect_l)) == 0.0
    assert enorm(ctx.raising({(0,): 1.0})) == 0.0
    assert enorm(ctx.lowering({(2,): 1.0})) == 0.0


@pytest.mark.parametrize("m", [2, 4])
def test_sl2_on_every_degree(m):
    ctx = _ctx(m)
    for k in range(2 * m + 1):
        for mono in ctx.basis(k):
            el = {mono: 1.0}
            hr = esub(ctx.h_op(ctx.raising(el)), ctx.raising(ctx.h_op(el)))
            assert enorm(esub(hr, escale(ctx.raising(el), 2.0))) < 1e-14
            rl = esub(ctx.raising(ctx.lowering(el)),
                      ctx.lowering(ctx.raising(el)))
            assert enorm(esub(rl, ctx.h_op(el))) < 1e-14


def test_weight_projectors_against_eigendecomposition():
    ctx = _ctx(2)
    for k in (1, 2, 3):
        basis = ctx.basis(k)
        C = ctx.operator_matrix(ctx.casimir, basis, basis)
        assert np.max(np.abs(C - C.conj().T)) < 1e-12
        lam, V = np.linalg.eigh(C)
        for w in ctx.weight_list(k):
            P = ctx.operator_matrix(
                lambda el, w=w: ctx.weight_project(el, w), basis, basis)
            # orthogonal projector onto the w(w+2) eigenspace
            Vw = V[:, np.abs(lam - w * (w + 2)) < 1e-8]
            Q = Vw @ Vw.conj().T
            assert np.max(np.abs(P - Q)) < 1e-8


def test_positive_dimension_formula():
    for m in (2, 4):
        ctx = _ctx(m)
        for p in range(m + 1):
            assert positive_dimension(m, p) == (p + 1) * math.comb(m, p)
            basis = ctx.basis(p)
            P = ctx.operator_matrix(
                lambda el: ctx.weight_project(el, p), basis, basis)
            assert round(np.trace(P).real) == positive_dimension(m, p)


def test_canonical_forms():
    for m in (2, 4):
        ctx = _ctx(m)
        om_hat = ctx.omega_hat()
        om = ctx.omega_canonical()
        assert enorm(esub(ctx.raising(om_hat), om)) < 1e-14
        assert enorm(ctx.raising(om)) == 0.0
        # omega_hat has H-weight zero but sits in the weight-2 triple
        assert enorm(ctx.h_op(om_hat)) == 0.0
        assert enorm(ctx.invariant_part(om_hat)) == 0.0
        assert enorm(esub(ctx.weight_project(om_hat, 2), om_hat)) < 1e-14


def test_cov_mult_tables_m2():
    ctx = _ctx(2)
    # theta_a -> -i theta_a, thetabar_a -> +i thetabar_a
    assert enorm(esub(ctx.cov_mult("I", {(0,): 1.0}), {(0,): -1j})) == 0.0
    assert enorm(esub(ctx.cov_mult("I", {(2,): 1.0}), {(2,): 1j})) == 0.0
    M = ctx.mmat
    expect = {(2 + b,): -M[0, b] for b in range(2) if M[0, b] != 0}
    assert enorm(esub(ctx.cov_mult("J", {(0,): 1.0}), expect)) == 0.0
    for mono in ctx.basis(2):
        el = {mono: 1.0}
        lhs = ctx.cov_mult("K", el)
        rhs = ctx.cov_mult("I", ctx.cov_mult("J", el))
        assert enorm(esub(lhs, rhs)) < 1e-14


def test_conj_is_antilinear_involution():
    ctx = _ctx(2)
    el = {(0, 2): 1.0 + 2.0j, (1, 3): -0.5j}
    cc = ctx.conj(ctx.conj(el))
    assert enorm(esub(cc, el)) == 0.0
    assert enorm(esub(ctx.conj(escale(el, 1j)),
                      escale(ctx.conj(el), -1j))) == 0.0


def test_enorm_keeps_a_nan_in_its_own_sample():
    el = {(0,): np.array([1.0, math.nan, 2.0]),
          (1,): np.array([3.0 + 4.0j, 0.5, -4.0])}
    got = enorm(el)
    assert np.isnan(got[1]) and not np.isnan(got[[0, 2]]).any()
    assert got[0] == 5.0 and got[2] == 4.0
    # the same per sample whatever the dict order
    got = enorm(dict(reversed(list(el.items()))))
    assert np.isnan(got[1]) and list(got[[0, 2]]) == [5.0, 4.0]


def test_enorm_broadcasts_plain_and_array_coefficients():
    el = {(0,): 2.5, (1,): np.array([1.0, -3.0j, 0.5]), (2,): -1.0 + 0.0j}
    assert list(enorm(el)) == [2.5, 3.0, 2.5]
    assert list(enorm({(0,): np.array([0.5, 7.0]), (1,): 2.0})) == [2.0, 7.0]
    nan_plain = enorm({(0,): np.array([0.5, 7.0]), (1,): math.nan})
    assert np.isnan(np.broadcast_to(nan_plain, (2,))).all()


def test_enorm_of_plain_coefficients_is_a_float():
    assert type(enorm({(0,): 1.0 + 1.0j, (1,): -3.0})) is float
    assert enorm({(0,): 1.0 + 1.0j, (1,): -3.0}) == 3.0
    assert type(enorm({})) is float and enorm({}) == 0.0
    assert math.isnan(enorm({(0,): 1.0, (1,): math.nan, (2,): 5.0}))


@pytest.mark.parametrize("m", [2, 4, 6])
def test_conj_swaps_the_label_runs(m):
    # brute-force oracle: shift every label across the middle and sort it,
    # with the sign of the sorting permutation
    ctx = _ctx(m)
    for k in range(2 * m + 1):
        for mono in ctx.basis(k):
            key, sgn = sort_sign(tuple((l + m) % (2 * m) for l in mono))
            assert ctx.conj({mono: 1.0 + 2.0j}) == {key: sgn * (1.0 - 2.0j)}


def test_hodge_components_sum():
    ctx = _ctx(2)
    el = {mono: complex(i, -i) for i, mono in enumerate(ctx.basis(2), 1)}
    total = {}
    for (p, q), part in ctx.hodge(el).items():
        assert p + q == 2
        total = eadd(total, part)
    assert enorm(esub(total, el)) == 0.0


def test_eval2_antisymmetry(rng):
    ctx = _ctx(2)
    el = {mono: complex(*rng.standard_normal(2)) for mono in ctx.basis(2)}
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert eval2(el, x, y) == pytest.approx(-eval2(el, y, x))
    sx = eval2(el, 2.0 * x, y)
    assert sx == pytest.approx(2.0 * eval2(el, x, y))


def test_operator_matrix_roundtrip(rng):
    ctx = _ctx(2)
    basis = ctx.basis_pq(1, 1)
    A = ctx.operator_matrix(ctx.raising, basis, ctx.basis_pq(2, 0))
    vec = rng.standard_normal(len(basis))
    el = {mono: c for mono, c in zip(basis, vec)}
    out = ctx.raising(el)
    out_vec = np.array([complex(out.get(mono, 0.0))
                        for mono in ctx.basis_pq(2, 0)])
    assert np.allclose(out_vec, A @ vec)


@pytest.mark.parametrize("order", ["nan-first", "nan-last"])
def test_enorm_propagates_nan_in_any_order(order):
    items = [((0,), complex("nan")), ((1,), 2.0), ((2,), -3.0)]
    if order == "nan-last":
        items.reverse()
    assert math.isnan(enorm(dict(items)))


def test_enorm_is_largest_modulus():
    assert enorm({}) == 0.0
    assert enorm({(0,): 3 + 4j, (1,): -2.0}) == 5.0
    assert enorm({(0,): 1.0, (1,): float("inf")}) == float("inf")


# ----- per-degree su(2) blocks -----

def _generators(ctx):
    """The sparse rule of each su(2) generator, the oracle for its blocks;
    L_I, L_J and L_K are the derivations of their 1-form tables."""
    lie = {"L_" + u: partial(apply_derivation, ctx.tables["L_" + u])
           for u in "IJK"}
    return {"R": ctx.raising, "Rb": ctx.lowering, "H": ctx.h_op, **lie,
            "C": ctx.casimir}


def _members(blocks, stacks):
    """Each block member's monomials with its matrix, from one stack per
    size group in the groups' order."""
    for blk, stack in zip(blocks, stacks, strict=True):
        yield from zip(blk.monos, stack, strict=True)


def _assembled(ctx, k, name):
    """The blocks' matrices of one operator placed in a basis(k) matrix;
    H, held as its diagonals, as its diagonal matrices."""
    index = {mono: i for i, mono in enumerate(ctx.basis(k))}
    out = np.zeros((len(index), len(index)), dtype=complex)
    blocks = ctx.su2_blocks(k)
    stacks = [blk.ops[name] for blk in blocks]
    if name == "H":
        stacks = [h[..., None] * np.eye(h.shape[-1]) for h in stacks]
    for mem, mat in _members(blocks, stacks):
        ix = [index[mono] for mono in mem]
        out[np.ix_(ix, ix)] = mat
    return out


@pytest.mark.parametrize("m", [2, 4, 6])
def test_blocks_group_by_size(m):
    ctx = _ctx(m)
    for k in range(2 * m + 1):
        blocks = ctx.su2_blocks(k)
        monos = [mono for blk in blocks for mem in blk.monos for mono in mem]
        assert sorted(monos) == ctx.basis(k) and len(set(monos)) == len(monos)
        sizes = [blk.ops["H"].shape[-1] for blk in blocks]
        assert sizes == sorted(set(sizes)), k  # one group per size
        for blk, size in zip(blocks, sizes):
            shape = (len(blk.monos), size, size)
            assert {len(mem) for mem in blk.monos} == {size}
            # members by smallest monomial, each in basis order
            assert blk.monos == sorted(blk.monos)
            assert all(mem == sorted(mem) for mem in blk.monos)
            assert blk.weights == ctx.weight_list(k)
            assert sorted(blk.ops) == ["C", "H", "L_I", "L_J", "L_K", "R",
                                       "Rb"]
            assert blk.ops["H"].shape == shape[:2]  # its diagonals
            assert all(a.shape == shape for name, a in blk.ops.items()
                       if name != "H")
            assert all(blk.projector(w).shape == shape for w in blk.weights)
        for stacks in ctx.cov_blocks(blocks).values():
            assert [a.shape[:2] for a in stacks] == [
                (len(blk.monos), blk.ops["H"].shape[-1]) for blk in blocks]


@pytest.mark.parametrize("m,degrees", [(4, range(9)), (6, [6])])
def test_blocks_carry_every_generator_exactly(m, degrees):
    ctx = _ctx(m)
    for k in degrees:
        basis = ctx.basis(k)
        blocks = ctx.su2_blocks(k)
        assert sorted(mono for blk in blocks for mem in blk.monos
                      for mono in mem) == basis
        inside = np.zeros((len(basis), len(basis)), dtype=bool)
        index = {mono: i for i, mono in enumerate(basis)}
        for mem in (mem for blk in blocks for mem in blk.monos):
            ix = [index[mono] for mono in mem]
            inside[np.ix_(ix, ix)] = True
        for name, op in _generators(ctx).items():
            full = ctx.operator_matrix(op, basis, basis)
            assert np.all(full[~inside] == 0), (k, name)
            if name == "C":  # the blocks multiply dense matrices
                assert np.max(np.abs(full - _assembled(ctx, k, name)),
                              initial=0.0) < 1e-12
            else:
                assert np.array_equal(full, _assembled(ctx, k, name))
        # the multiplicative units, built per degree from the 1-form tables
        covs = ctx.cov_blocks(blocks)
        for u in "IJK":
            for mem, mat in _members(blocks, covs[u]):
                oracle = ctx.operator_matrix(partial(ctx.cov_mult, u),
                                             mem, mem)
                assert np.array_equal(mat, oracle), (k, u)


def _random_structure(m, rng):
    """U M U^T for the standard M and a random unitary U: still unitary
    with M conj(M) = -Id, but every 1-form table is dense."""
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    u, _ = np.linalg.qr(z)
    return StructureContext(m, u @ standard_m(m) @ u.T)


def test_blocks_of_a_dense_structure_match_the_sparse_operators(rng):
    ctx = _random_structure(4, rng)
    ops = _generators(ctx)
    for k in range(9):
        basis = ctx.basis(k)
        for name, op in ops.items():
            gap = ctx.operator_matrix(op, basis, basis) \
                - _assembled(ctx, k, name)
            assert np.max(np.abs(gap), initial=0.0) < 1e-12, (k, name)
        blocks = ctx.su2_blocks(k)
        covs = ctx.cov_blocks(blocks)
        for u in "IJK":
            for mem, mat in _members(blocks, covs[u]):
                oracle = ctx.operator_matrix(partial(ctx.cov_mult, u),
                                             mem, mem)
                assert np.max(np.abs(mat - oracle), initial=0.0) < 1e-12


def test_cov_image_leaving_its_block_raises():
    ctx = _ctx(2)
    # the degree-1 blocks, {theta_0, conj theta_1} and {theta_1, conj
    # theta_0}, form one group of size 2
    blocks = ctx.su2_blocks(1)
    assert [blk.monos for blk in blocks] == [[[(0,), (3,)], [(1,), (2,)]]]
    cov_i = ctx.tables["cov_I"]
    cov_i[0] = {(0,): -1j, (1,): 1e-14}  # dropped, as operator_matrix does
    mats = ctx.cov_blocks(blocks)["I"]
    assert np.array_equal(mats[0][0], np.diag([-1j, 1j]))
    cov_i[0] = {(0,): -1j, (1,): 1e-3}
    with pytest.raises(ValueError, match="leaves its su\\(2\\) block"):
        ctx.cov_blocks(blocks)
    with pytest.raises(ValueError):  # and in a product of two labels
        ctx.cov_blocks(ctx.su2_blocks(2))


def _spectrum(values):
    """Eigenvalues rounded and sorted, so two solvers' lists compare."""
    return np.sort_complex(np.round(np.asarray(values), 8) + 0.0)


def test_block_spectra_match_full_eigvals():
    ctx = _ctx(4)
    ops = _generators(ctx)
    for k in range(9):
        basis = ctx.basis(k)
        for name in ("L_J", "L_K", "C"):
            full = np.linalg.eigvals(ctx.operator_matrix(ops[name], basis,
                                                         basis))
            blocks = np.concatenate([np.linalg.eigvals(blk.ops[name]).ravel()
                                     for blk in ctx.su2_blocks(k)])
            assert np.array_equal(_spectrum(full), _spectrum(blocks)), \
                (k, name)


def _lagrange_project(ctx, el, w):
    """The sparse Lagrange product weight_project used before the block
    cache: prod over w2 != w of (C - w2(w2+2)) / (w(w+2) - w2(w2+2))."""
    by_deg = {}
    for labels, c in el.items():
        by_deg.setdefault(len(labels), {})[labels] = c
    out = {}
    for k, sub in by_deg.items():
        ws = ctx.weight_list(k)
        if w not in ws:
            continue
        acc = sub
        for w2 in ws:
            if w2 == w:
                continue
            num = esub(ctx.casimir(acc), escale(acc, w2 * (w2 + 2)))
            acc = escale(num, 1.0 / (w * (w + 2) - w2 * (w2 + 2)))
        out = eadd(out, acc)
    return out


def _leaves(x):
    """Every number inside a (nested) Dual, in a fixed order."""
    if isinstance(x, Dual):
        return _leaves(x.val) + _leaves(x.dot)
    return [complex(x)]


def _coeff_gap(a, b):
    worst = 0.0
    for key in set(a) | set(b):
        la, lb = _leaves(a.get(key, 0.0)), _leaves(b.get(key, 0.0))
        width = max(len(la), len(lb))
        la += [0.0] * (width - len(la))
        lb += [0.0] * (width - len(lb))
        worst = max([worst] + [abs(x - y) for x, y in zip(la, lb)])
    return worst


@pytest.mark.parametrize("m", [2, 4])
def test_weight_project_matches_sparse_lagrange(m, rng):
    ctx = _ctx(m)
    outer, inner = fresh_level(), fresh_level()

    def cnum():
        return complex(*rng.standard_normal(2))

    def dual():
        return Dual(Dual(cnum(), cnum(), outer), Dual(cnum(), cnum(), outer),
                    inner)

    for _ in range(3):
        for make in (cnum, dual):
            # every degree at once, so a mixed-degree element is covered
            el = {mono: make() for k in range(2 * m + 1)
                  for mono in ctx.basis(k) if rng.random() < 0.5}
            for w in range(m + 1):
                got = ctx.weight_project(el, w)
                assert _coeff_gap(got, _lagrange_project(ctx, el, w)) < 1e-12


def test_blocks_built_on_each_call_columns_once_per_context(monkeypatch):
    # su2_blocks builds on every call; weight_project builds degree k once
    # per context for each weight w it reads, and not at all when w is not
    # a weight of degree k (weight 0 is one only at even k here)
    built = []
    build = exterior._su2_blocks
    monkeypatch.setattr(exterior, "_su2_blocks",
                        lambda ctx, k: built.append(k) or build(ctx, k))
    ctx = _ctx(4)
    for _ in range(2):
        for k in range(9):
            ctx.su2_blocks(k)
            ctx.weight_project({ctx.basis(k)[0]: 1.0}, 0)
    first = [0, 0, 1, 2, 2, 3, 4, 4, 5, 6, 6, 7, 8, 8]
    assert built == first + list(range(9))
    ctx.weight_project({(0, 4): 1.0}, 2)
    _ctx(4).weight_project({(0, 4): 1.0}, 0)
    assert built == first + list(range(9)) + [2, 2]
