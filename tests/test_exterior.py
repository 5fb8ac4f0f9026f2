"""Exterior algebra over frame labels and the structure operators.

Oracles here are independent of the implementation: permutation parity by
brute force, operator matrices against hand-built ones on small spaces,
weight projectors against a numpy eigendecomposition of the Casimir.
"""

import itertools
import math
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hktlab import exterior
from hktlab.bundles import catalog_names, get_connection
from hktlab.duals import Dual, dconj, fresh_level
from hktlab.exterior import (StructureContext, apply_derivation,
                             apply_multiplicative, eadd, enorm, escale, esub,
                             eval2, positive_dimension, sort_sign, standard_m,
                             wedge)
from hktlab.hermitian import _eigenvalues
from hktlab.total_space import total_space


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


# Oracles of the sign rule: the kernels with every term multiplied once
# more by its sign, as a plain number.  Applying the sign by negation must
# give the same values, up to the sign of a zero part.

def _old_wedge(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key, sgn = sort_sign(ka + kb)
            if key is not None:
                exterior._accumulate(out, key, ca * cb * sgn)
    return out


def _old_apply_derivation(table, el):
    out = {}
    for labels, c in el.items():
        for p, lab in enumerate(labels):
            rest = labels[:p] + labels[p + 1:]
            for (new,), c2 in table.get(lab, {}).items():
                key, sgn = sort_sign((new,) + rest)
                if key is not None:
                    exterior._accumulate(out, key,
                                         c * c2 * (-sgn if p % 2 else sgn))
    return out


def _old_apply_multiplicative(table, el):
    out = {}
    for labels, c in el.items():
        term = {(): c}
        for lab in labels:
            term = _old_wedge(term, table.get(lab, {}))
        out = eadd(out, term)
    return out


def _old_escale(a, c):
    return {k: v * c for k, v in a.items()}


def _old_conj(ctx, el):
    out = {}
    for labels, c in el.items():
        p = sum(l < ctx.m for l in labels)
        key = (tuple(l - ctx.m for l in labels[p:])
               + tuple(l + ctx.m for l in labels[:p]))
        out[key] = dconj(c) * -1 if p * (len(labels) - p) % 2 else dconj(c)
    return out


def _coefficient(kind, rng, levels):
    """A random coefficient of one kind over 5 samples; the arrays hold an
    exact zero, so zero parts meet the sign too."""
    def array():
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        x[rng.integers(5)] = 0.0
        return x

    if kind == "complex":
        return complex(*rng.standard_normal(2))
    if kind == "float array":
        return array().real
    if kind == "complex array":
        return array()
    inner = Dual(array(), array().real, levels[0])
    if kind == "Dual":
        return inner
    return Dual(inner, Dual(array(), array(), levels[0]), levels[1])


KINDS = ["complex", "float array", "complex array", "Dual", "Dual of Duals"]


def _random_el(rng, levels, kinds=KINDS, labels=4, terms=5):
    """terms monomials over range(labels), of degree 0 to 3, each with a
    coefficient of a random kind."""
    out = {}
    for _ in range(terms):
        k = int(rng.integers(0, 4))
        mono = tuple(sorted(rng.choice(labels, k, replace=False).tolist()))
        out[mono] = _coefficient(kinds[rng.integers(len(kinds))], rng, levels)
    return out


def _same(x, y):
    """x and y equal part by part, each Dual level alike; -0.0 == 0.0."""
    if isinstance(x, Dual) or isinstance(y, Dual):
        return (isinstance(x, Dual) and isinstance(y, Dual)
                and x.level == y.level and _same(x.val, y.val)
                and _same(x.dot, y.dot))
    return np.array_equal(x, y)


def _same_el(a, b):
    return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)


@pytest.mark.parametrize("kind", KINDS + ["mixed"])
def test_sign_kernels_match_the_multiply_by_sign_formulas(kind, rng):
    levels = (fresh_level(), fresh_level())
    kinds = KINDS if kind == "mixed" else [kind]
    ctx = _ctx(2)
    for _ in range(20):
        a, b = (_random_el(rng, levels, kinds) for _ in range(2))
        assert _same_el(wedge(a, b), _old_wedge(a, b))
        assert _same_el(esub(a, b), eadd(a, _old_escale(b, -1)))
        assert _same_el(ctx.conj(a), _old_conj(ctx, a))
        for c in (1, -1, 1.0, -1.0, 1 + 0j, -1 + 0j, 2.5, -1j,
                  _coefficient(kind if kind != "mixed" else "Dual", rng,
                               levels)):
            assert _same_el(escale(a, c), _old_escale(a, c))
        # a table of 1-forms on every label: from the structure, and random
        tables = [ctx.tables[name] for name in ("R", "L_J", "cov_J")]
        tables.append({lab: {(new,): _coefficient(
                                 kinds[rng.integers(len(kinds))], rng, levels)
                             for new in rng.choice(4, 2, replace=False)
                             .tolist()} for lab in range(4)})
        for table in tables:
            assert _same_el(apply_derivation(table, a),
                            _old_apply_derivation(table, a))
            assert _same_el(apply_multiplicative(table, a),
                            _old_apply_multiplicative(table, a))


class _Counted:
    """A coefficient that logs each multiplication and negation in log."""

    def __init__(self, x, log):
        self.x, self.log = x, log

    def __mul__(self, other):
        self.log["mul"] += 1
        return _Counted(self.x * getattr(other, "x", other), self.log)

    def __rmul__(self, other):
        self.log["mul"] += 1
        return _Counted(other * self.x, self.log)

    def __neg__(self):
        self.log["neg"] += 1
        return _Counted(-self.x, self.log)

    def __add__(self, other):
        return _Counted(self.x + getattr(other, "x", other), self.log)


def test_sign_kernels_multiply_once_per_term_and_negate_odd_ones():
    log = Counter()
    monos = [(), (0,), (1,), (2,), (0, 2), (1, 3), (0, 1, 3)]
    a = {mono: _Counted(i + 1.0, log) for i, mono in enumerate(monos)}
    b = {mono: _Counted(2.0 - i, log) for i, mono in enumerate(monos[:5])}
    signs = [sort_sign(ka + kb)[1] for ka in a for kb in b]
    signs = [s for s in signs if s]
    assert -1 in signs and 1 in signs
    wedge(a, b)
    assert log == Counter(mul=len(signs), neg=signs.count(-1))

    table = {lab: {(new,): _Counted(1.5, log) for new in range(4)
                   if new != lab} for lab in range(4)}
    signs = []
    for labels in a:
        for p, lab in enumerate(labels):
            rest = labels[:p] + labels[p + 1:]
            for (new,) in table[lab]:
                sgn = sort_sign((new,) + rest)[1]
                if sgn:
                    signs.append(-sgn if p % 2 else sgn)
    assert -1 in signs and 1 in signs
    log.clear()
    apply_derivation(table, a)
    assert log == Counter(mul=len(signs), neg=signs.count(-1))

    for c, negated in ((1, 0), (-1, len(a)), (1.0, 0), (-1 + 0j, len(a))):
        log.clear()
        escale(a, c)
        assert log == Counter(neg=negated)
    log.clear()
    escale(a, 2.0)
    assert log == Counter(mul=len(a))


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


def _monos(blk):
    """A block stack's members as lists of basis tuples, read off its
    labels."""
    return [list(map(tuple, mem)) for mem in blk.labels.tolist()]


def _members(blocks, stacks):
    """Each block member's monomials with its matrix, from one stack per
    size group in the groups' order."""
    for blk, stack in zip(blocks, stacks, strict=True):
        yield from zip(_monos(blk), stack, strict=True)


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
        monos = [mono for blk in blocks for mem in _monos(blk) for mono in mem]
        assert sorted(monos) == ctx.basis(k) and len(set(monos)) == len(monos)
        sizes = [blk.ops["H"].shape[-1] for blk in blocks]
        assert sizes == sorted(set(sizes)), k  # one group per size
        # one layout per degree: its rows are the stacks' members in order,
        # each block's labels a view of them, and rank finds each row
        layout = blocks[0].layout
        assert all(blk.layout is layout for blk in blocks)
        rows = layout.labels
        assert np.array_equal(rows, np.array(monos, dtype=np.int64).reshape(
            len(monos), k))
        masks = exterior._BIT[rows].sum(axis=1)
        assert np.array_equal(layout.rank[masks], np.arange(len(rows)))
        assert np.count_nonzero(layout.rank >= 0) == len(rows)
        for blk, size in zip(blocks, sizes):
            shape = (len(blk.labels), size, size)
            mems = _monos(blk)
            assert {len(mem) for mem in mems} == {size}
            # members by smallest monomial, each in basis order
            assert mems == sorted(mems)
            assert all(mem == sorted(mem) for mem in mems)
            assert blk.labels.dtype == np.int64
            assert blk.labels.shape == shape[:2] + (k,)
            assert np.shares_memory(blk.labels, rows) or not k
            assert blk.weights == ctx.weight_list(k)
            assert sorted(blk.ops) == ["C", "H", "L_I", "L_J", "L_K", "R",
                                       "Rb"]
            assert blk.ops["H"].shape == shape[:2]  # its diagonals
            assert all(a.shape == shape for name, a in blk.ops.items()
                       if name != "H")
            assert all(blk.projector(w).shape == shape for w in blk.weights)
        for stacks in ctx.cov_blocks(blocks).values():
            assert [a.shape[:2] for a in stacks] == [
                blk.ops["H"].shape for blk in blocks]


@pytest.mark.parametrize("m,degrees", [(4, range(9)), (6, [6])])
def test_blocks_carry_every_generator_exactly(m, degrees):
    ctx = _ctx(m)
    for k in degrees:
        basis = ctx.basis(k)
        blocks = ctx.su2_blocks(k)
        assert sorted(mono for blk in blocks for mem in _monos(blk)
                      for mono in mem) == basis
        inside = np.zeros((len(basis), len(basis)), dtype=bool)
        index = {mono: i for i, mono in enumerate(basis)}
        for mem in (mem for blk in blocks for mem in _monos(blk)):
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


def test_structure_matrix_checks_are_absolute():
    # every catalog fiber M and every total-space M passes at 1e-12
    for name in catalog_names():
        conn = get_connection(name)
        StructureContext(conn.rank, conn.mfib)
        ctx = total_space(conn).ctx
        StructureContext(ctx.m, ctx.mmat)
    # each fault is 4e-6 off and allclose's default rtol of 1e-5 let it by:
    # |M M^H - Id| = 8e-6, then a unitary M with |M conj(M) + Id| = 4e-6
    with pytest.raises(ValueError, match="unitary"):
        StructureContext(2, (1 + 4e-6) * standard_m(2))
    with pytest.raises(ValueError, match="M conj"):
        StructureContext(2, standard_m(2) @ np.diag([np.exp(4e-6j), 1.0]))


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


def _cov_i_fault(monkeypatch, c):
    """A fresh m=2 context whose cov_I sends theta_0 to -i theta_0 + c
    theta_1, planted in its 1-form matrix, which both rules read."""
    real = exterior._one_form_matrices

    def faulty(M):
        A = real(M)
        A[exterior._GENERATORS.index("cov_I"), 1, 0] = c
        return A

    monkeypatch.setattr(exterior, "_one_form_matrices", faulty)
    return _ctx(2)


def test_cov_image_leaving_its_block_raises(monkeypatch):
    ctx = _cov_i_fault(monkeypatch, 1e-14)  # dropped, as operator_matrix does
    # the degree-1 blocks, {theta_0, conj theta_1} and {theta_1, conj
    # theta_0}, form one group of size 2
    blocks = ctx.su2_blocks(1)
    assert [_monos(blk) for blk in blocks] == [[[(0,), (3,)], [(1,), (2,)]]]
    mats = ctx.cov_blocks(blocks)["I"]
    assert np.array_equal(mats[0][0], np.diag([-1j, 1j]))
    ctx = _cov_i_fault(monkeypatch, 1e-3)
    assert ctx.cov_mult("I", {(0,): 1.0}) == {(0,): -1j, (1,): 1e-3}
    with pytest.raises(ValueError, match="leaves its su\\(2\\) block"):
        ctx.cov_blocks(ctx.su2_blocks(1))
    with pytest.raises(ValueError):  # and in a product of two labels
        ctx.cov_blocks(ctx.su2_blocks(2))


def test_tables_are_read_once_per_context(monkeypatch):
    # a context builds its 1-form matrices once, reads its sparse tables
    # off them then, and keeps one _Tables per names, whose matrices are
    # the context's own
    calls = []
    real = exterior._one_form_matrices
    monkeypatch.setattr(exterior, "_one_form_matrices",
                        lambda M: calls.append(M) or real(M))
    ctx = _ctx(2)
    ctx.cov_blocks(ctx.su2_blocks(1))
    ctx.cov_blocks(ctx.su2_blocks(2))
    assert len(calls) == 1
    for names in (exterior._DERIVATIONS, ("cov_I",), ("cov_J", "cov_K")):
        tables = ctx._tables(names)
        assert ctx._tables(names) is tables
        assert all(A is ctx.matrices[name]
                   for A, name in zip(tables.mats, names, strict=True))


def _assert_tables_read_off(ctx):
    """Each sparse table of ctx is exactly its matrix's nonzero entries,
    with plain int labels and plain complex values, and the matrices obey
    cov_J^2 = -1, cov_K = cov_I cov_J and L_X = -cov_X on 1-forms."""
    mats = ctx.matrices
    assert list(mats) == list(ctx.tables) == list(exterior._GENERATORS)
    for name, A in mats.items():
        assert A.dtype == (np.complex128 if A.imag.any() else np.float64)
        entries = [(l, s, c) for s, img in ctx.tables[name].items()
                   for (l,), c in img.items()]
        assert all(type(l) is int and type(s) is int and type(c) is complex
                   for l, s, c in entries), name
        assert sorted(entries) == sorted(
            (l, s, complex(A[l, s])) for l, s in zip(*np.nonzero(A))), name
        for img in ctx.tables[name].values():  # images in increasing labels
            assert list(img) == sorted(img)
    eye = np.eye(2 * ctx.m)
    assert np.max(np.abs(mats["cov_J"] @ mats["cov_J"] + eye)) < 1e-14
    assert np.array_equal(mats["cov_K"], mats["cov_I"] @ mats["cov_J"])
    for u in "IJK":
        assert np.array_equal(mats["L_" + u], -mats["cov_" + u])


@pytest.mark.parametrize("structure", ["m=2", "m=4", "m=6", "dense m=4"])
def test_tables_are_read_off_the_matrices(structure, rng):
    ctx = (_random_structure(4, rng) if structure.startswith("dense")
           else _ctx(int(structure[2:])))
    _assert_tables_read_off(ctx)


@pytest.mark.parametrize("structure", ["m=4", "m=6", "dense m=4"])
def test_stacked_products_equal_each_table_alone(structure, rng):
    # cov_J and cov_K share one entry pattern (cov_K = cov_I cov_J with
    # cov_I diagonal), so one expansion serves both: each row of values is
    # bit for bit that table's expansion alone
    ctx = (_random_structure(4, rng) if structure.startswith("dense")
           else _ctx(int(structure[2:])))
    J, K = [ctx._tables((name,)) for name in ("cov_J", "cov_K")]
    assert np.array_equal(J.has, K.has)
    A = np.array(J.mats + K.mats)
    for k in range(2 * ctx.m + 1):
        basis = ctx.basis(k)
        labels = np.array(basis, dtype=np.int64).reshape(len(basis), k)
        rank = exterior._rank(exterior._BIT[labels].sum(axis=1), 2 * ctx.m)
        rows, cols, vals = exterior._products(labels, rank, A, J)
        assert vals.shape == (2, len(rows))
        for t in range(2):
            one = exterior._products(labels, rank, A[t:t + 1], J)
            assert np.array_equal(rows, one[0])
            assert np.array_equal(cols, one[1])
            assert vals[t].tobytes() == one[2][0].tobytes(), (k, t)


def test_cov_blocks_expand_once_per_pattern(monkeypatch):
    # cov_I alone, then cov_J with cov_K: two expansions per degree
    calls = []
    real = exterior._products

    def counted(labels, rank, A, tables):
        calls.append(len(A))
        return real(labels, rank, A, tables)

    monkeypatch.setattr(exterior, "_products", counted)
    ctx = _ctx(4)
    for k in range(9):
        calls.clear()
        assert list(ctx.cov_blocks(ctx.su2_blocks(k))) == ["I", "J", "K"]
        assert calls == [1, 2], k


@pytest.mark.parametrize("n", [1, 2, 3])
def test_replacements_match_sort_sign(n):
    # the brute-force parity oracle: each entry e_S -> e_T, T being S with
    # S[p] replaced by l, has sort_sign's row and sign for that tuple, and
    # the entries are every (S, p, l) of the derivations' joint pattern
    # with l = S[p] or l not in S, position by position, in basis order
    ctx = _ctx(2 * n)
    tables = ctx._tables(exterior._DERIVATIONS)
    for k in range(2 * ctx.m + 1):
        basis = ctx.basis(k)
        index = {mono: i for i, mono in enumerate(basis)}
        labels = np.array(basis, dtype=np.int64).reshape(len(basis), k)
        masks = exterior._BIT[labels].sum(axis=1)
        entries = exterior._replacements(labels, masks,
                                         exterior._rank(masks, 2 * ctx.m),
                                         tables)
        got = []
        for row, col, old, new, sign in zip(*(a.tolist() for a in entries)):
            S = basis[col]
            p = S.index(old)
            T, want = sort_sign(S[:p] + (new,) + S[p + 1:])
            assert (row, sign) == (index[T], want), (k, S, p, new)
            got.append((p, col, new))
        assert got == [(p, col, l) for p in range(k)
                       for col, S in enumerate(basis)
                       for l in range(2 * ctx.m)
                       if tables.has[l, S[p]] and (l == S[p] or l not in S)]


def test_weight_project_builds_no_cov(monkeypatch):
    # the field operators reach the blocks only through weight_project,
    # which reads the projectors and never expands cov
    def no_cov(*args):
        raise AssertionError("weight_project expanded cov")

    monkeypatch.setattr(exterior, "_products", no_cov)
    ctx = _ctx(4)
    for k in range(9):
        for w in ctx.weight_list(k):
            ctx.weight_project({ctx.basis(k)[0]: 1.0}, w)


def _identity_start_projector(blk, w):
    """The Lagrange product started from a tiled identity, with C @ P at
    every factor: the oracle for Su2Block.projector."""
    C, lam = blk.ops["C"], w * (w + 2)
    P = np.tile(np.eye(C.shape[-1], dtype=C.dtype), (len(C), 1, 1))
    for w2 in blk.weights:
        if w2 != w:
            lam2 = w2 * (w2 + 2)
            P = (C @ P - lam2 * P) * (1.0 / (lam - lam2))
    return P


@pytest.mark.parametrize("structure", ["m=2", "m=4", "dense m=4"])
def test_projector_equals_identity_start_product(structure, rng):
    ctx = (_random_structure(4, rng) if structure.startswith("dense")
           else _ctx(int(structure[2:])))
    for k in range(2 * ctx.m + 1):
        for blk in ctx.su2_blocks(k):
            for w in blk.weights:
                P, want = blk.projector(w), _identity_start_projector(blk, w)
                assert P.dtype == want.dtype and P.shape == want.shape
                assert P.tobytes() == want.tobytes(), (k, w)


F8, C16 = np.dtype(np.float64), np.dtype(np.complex128)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_flat_stacks_take_their_tables_dtype(m):
    # the standard structure's R, Rb and L_J tables are real and H and C
    # integer, so their stacks and every projector are real; L_I, L_K and
    # the cov units have imaginary entries
    ctx = _ctx(m)
    for k in range(2 * m + 1):
        blocks = ctx.su2_blocks(k)
        for blk in blocks:
            assert {name: a.dtype for name, a in blk.ops.items()} == {
                "R": F8, "Rb": F8, "L_J": F8, "H": F8, "C": F8,
                "L_I": C16, "L_K": C16}, k
            assert all(blk.projector(w).dtype == F8 for w in blk.weights)
        assert all(a.dtype == C16 for stacks in ctx.cov_blocks(blocks).values()
                   for a in stacks), k


def test_dense_structure_stacks_stay_complex(rng):
    # the same code on a dense complex M: every stack but H's real
    # diagonals is complex
    ctx = _random_structure(4, rng)
    for k in range(9):
        blocks = ctx.su2_blocks(k)
        for blk in blocks:
            assert blk.ops["H"].dtype == F8
            assert all(a.dtype == C16 for name, a in blk.ops.items()
                       if name != "H"), k
            assert all(blk.projector(w).dtype == C16 for w in blk.weights)
        assert all(a.dtype == C16 for stacks in ctx.cov_blocks(blocks).values()
                   for a in stacks), k


def test_eigenvalues_take_the_real_solver_when_imaginary_parts_are_zero():
    ctx = _ctx(4)
    for k in range(9):
        for blk in ctx.su2_blocks(k):
            # -i L_K and C held as complex with every imaginary part 0
            assert not (-1j * blk.ops["L_K"]).imag.any()
            for real in ((-1j * blk.ops["L_K"]).real, blk.ops["C"]):
                ev = _eigenvalues(real.astype(complex))
                assert ev.tobytes() == np.linalg.eigvalsh(real).tobytes(), k
            # -i L_J is purely imaginary: the complex solver
            herm = -1j * blk.ops["L_J"]
            assert herm.imag.any() or not blk.ops["L_J"].any()
            assert (_eigenvalues(herm).tobytes()
                    == np.linalg.eigvalsh(herm).tobytes()), k


@pytest.mark.parametrize("m", [2, 4, 6])
def test_l_i_spectrum_is_its_diagonal(m):
    # L_I is built diagonal, so unit-spectra reads its spectrum there
    ctx = _ctx(m)
    for k in range(2 * m + 1):
        for blk in ctx.su2_blocks(k):
            L = blk.ops["L_I"]
            diag = np.diagonal(L, 0, 1, 2)
            assert np.array_equal(L, diag[..., None] * np.eye(L.shape[-1]))
            ev = np.linalg.eigvals(L).ravel()
            assert np.array_equal(np.sort_complex(ev),
                                  np.sort_complex(diag.ravel())), k


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
    # columns filled from blocks already built read no further build
    given = _ctx(4)
    given._projector_columns(2, 0, given.su2_blocks(2))
    assert given.weight_project({(0, 4): 1.0}, 0) \
        == _ctx(4).weight_project({(0, 4): 1.0}, 0)
    assert built == first + list(range(9)) + [2, 2, 2, 2]
