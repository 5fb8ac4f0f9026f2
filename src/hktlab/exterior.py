"""Pointwise exterior algebra with the su(2) / sl(2) action on forms.

Elements are sparse dicts {sorted label tuple: coefficient}.  For a frame with
m holomorphic covectors theta_0..theta_{m-1}, labels 0..m-1 are the theta_a and
labels m..2m-1 their conjugates.  Coefficients may be complex numbers or dual
numbers; all maps here are linear or multilinear in the coefficients.

This module owns the element rules that the other modules call: one
accumulation rule, which drops a coefficient only when it is an exact
plain-number zero (a Dual never is); element_from_antisym for the 2-form of a
matrix; and StructureContext.conj for conjugating frame labels.

The quaternionic data is a single antilinear structure matrix M (unitary,
M conj(M) = -Id) describing J theta_a.  Everything else - the three Lie-type
operators with eigenvalue sqrt(-1)(p - q) each on its own bidegrees, the
raising/lowering pair, the Casimir and its weight decomposition - is generated
from M:

    cov_I theta_a = -sqrt(-1) theta_a          (pullback along I^{-1})
    cov_J theta_a = -sum_b M_ab conj(theta_b)
    cov_K        = cov_I . cov_J
    L_X          = derivation extension of -cov_X
    R  conj(theta_a) = -sum_b conj(M_ab) theta_b,   R  theta_a = 0
    Rb theta_a       = +sum_b M_ab conj(theta_b),   Rb conj(theta_a) = 0

R and Rb are derivations; H = (p - q) id; [H, R] = 2R, [H, Rb] = -2Rb,
[R, Rb] = H.  The Casimir H^2 + 2(R Rb + Rb R) has eigenvalue w(w + 2) on the
weight-w isotypic part, which is how weight projections are computed (exactly,
via Lagrange interpolation - no eigensolver in the hot path).

StructureContext.su2_blocks(k) builds the generators R, Rb, H, L_I, L_J,
L_K and the Casimir C of degree k as dense matrices on blocks: the connected
pieces of basis(k) under their joint sparsity pattern.  Every generator,
hence the Casimir and every weight projector, vanishes outside the blocks,
so block matrices carry the full operators exactly.  The blocks of one size
form one (B, s, s) stack (28 stacks for 729 blocks at n=3, at most 64x64),
H one (B, s) stack of its diagonals, so the algebra suite runs one batched
matmul or eigvals per stack, never a 924x924 matrix.  Nothing is cached
across calls: a caller holds one degree's blocks while it reads them, and a
weight's projector is built from C only when asked for.  weight_project
keeps, per context, the projector columns of each (degree, weight) it has
read, built from that degree's blocks.

The blocks are built from the 1-form tables with array operations over all
monomials of the degree at once, not through the sparse rules.  One
replacement table serves the five derivations: it lists every e_S -> e_T
where T is S with its label S[p] replaced by l (l = S[p], or a label S
lacks), its row found by ranking T's label bitmask.  Moving l to its sorted
place passes the labels of S strictly between S[p] and l, so the entry of
a derivation with 1-form matrix A is (-1)^(their number) A[l, S[p]].  H is
the diagonal p - q.  The blocks are the components of the entries' rows and
columns, found by min-label propagation: each monomial takes the smallest
label among its neighbours until none changes, so a block is labelled by
its smallest member.  The generators share the entries' places, found
once; each is scattered in turn into one buffer, size-major (blocks by size,
then by smallest member, monomials in basis order), so a size group is one
reshaped view.  cov_blocks expands cov_I, cov_J and cov_K on given blocks
the same way, multiplicatively: one image term per position, the product's
labels sorted with the sign of their inversions.
The tests hold every block matrix to operator_matrix of the sparse rule.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .duals import dconj, numeric

Element = dict  # {tuple[int, ...]: coeff}


def sort_sign(labels):
    """Insertion sort; returns (sorted tuple, sign) or (None, 0) on repeats."""
    lst = list(labels)
    sign = 1
    for i in range(1, len(lst)):
        x = lst[i]
        j = i - 1
        while j >= 0 and lst[j] > x:
            lst[j + 1] = lst[j]
            j -= 1
            sign = -sign
        lst[j + 1] = x
        if j >= 0 and lst[j] == x:
            return None, 0
    return tuple(lst), sign


@functools.cache
def _product(ka, kb):
    """sort_sign(ka + kb), once per pair of label tuples per process (a few
    hundred pairs per suite); sort_sign stays plain for perfbench/spans.py."""
    return sort_sign(ka + kb)


def _is_zero(c) -> bool:
    """An exact plain-number zero; a Dual never is, whatever its parts."""
    return isinstance(c, (int, float, complex)) and c == 0


def _accumulate(out: Element, key, c) -> None:
    """Add the term c at key, dropping the key when the sum is an exact zero."""
    if key in out:
        s = out[key] + c
        if _is_zero(s):
            del out[key]
        else:
            out[key] = s
    else:
        out[key] = c


def eadd(a: Element, b: Element) -> Element:
    out = dict(a)
    for k, c in b.items():
        _accumulate(out, k, c)
    return out


def escale(a: Element, c) -> Element:
    return {k: v * c for k, v in a.items()}


def esub(a: Element, b: Element) -> Element:
    return eadd(a, escale(b, -1))


def wedge(a: Element, b: Element) -> Element:
    out: Element = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key, sgn = _product(ka, kb)
            if key is None:
                continue
            _accumulate(out, key, ca * cb * sgn)
    return out


def enorm(a: Element):
    """Largest coefficient modulus, per sample for array coefficients; nan if
    a coefficient is nan, whatever the dict order (inf if one is inf)."""
    worst = 0.0
    for c in a.values():
        x = abs(numeric(c))
        if isinstance(x, np.ndarray) or isinstance(worst, np.ndarray):
            worst = np.maximum(worst, x)  # propagates nan entrywise
        elif math.isnan(x):
            return math.nan
        elif x > worst:
            worst = x
    return worst


def apply_derivation(table, el: Element) -> Element:
    """Extend the 1-form map `table` (label -> 1-form dict) as a derivation."""
    out: Element = {}
    for labels, c in el.items():
        for p, lab in enumerate(labels):
            img = table.get(lab)
            if not img:
                continue
            rest = labels[:p] + labels[p + 1:]
            for (new_lab,), c2 in img.items():
                # new_lab moved from place p to the front: p transpositions
                key, sgn = _product((new_lab,), rest)
                if key is None:
                    continue
                _accumulate(out, key, c * c2 * (-sgn if p % 2 else sgn))
    return out


def apply_multiplicative(table, el: Element) -> Element:
    """Extend the 1-form map `table` multiplicatively over wedge products."""
    out: Element = {}
    for labels, c in el.items():
        term: Element = {(): c}
        for lab in labels:
            term = wedge(term, table.get(lab, {}))
            if not term:
                break
        out = eadd(out, term)
    return out


def standard_m(m: int) -> np.ndarray:
    """Block-diagonal [[0,-1],[1,0]] structure matrix on C^m (m even)."""
    if m % 2:
        raise ValueError("standard structure needs even m")
    out = np.zeros((m, m), dtype=complex)
    even = np.arange(0, m, 2)
    out[even, even + 1], out[even + 1, even] = -1.0, 1.0
    return out


class Su2Block(NamedTuple):
    """The B connected pieces of size s of basis(k) under the su(2)
    generators, stacked.  monos lists the members' monomial lists (by
    smallest monomial, each in basis order); ops maps "R", "Rb", "L_I",
    "L_J", "L_K" and the Casimir "C" to (B, s, s) stacks of dense matrices,
    and "H" to the (B, s) stack of its diagonals; weights lists the
    degree's weights.
    """
    monos: list
    ops: dict
    weights: list

    def projector(self, w: int) -> np.ndarray:
        """The (B, s, s) Lagrange projector onto weight w: the product over
        the other weights w2 of (C - w2(w2+2)) / (w(w+2) - w2(w2+2)), built
        on each call."""
        C, lam = self.ops["C"], w * (w + 2)
        P = np.tile(np.eye(C.shape[-1], dtype=complex), (len(C), 1, 1))
        for w2 in self.weights:
            if w2 != w:
                lam2 = w2 * (w2 + 2)
                P = (C @ P - lam2 * P) * (1.0 / (lam - lam2))
        return P


# _BIT[l] is label l's bit in a label bitmask; bitmasks are built by indexing
# and sums, which load fewer numpy kernels than shifts (peak RSS counts them)
_BIT = np.array([1 << l for l in range(62)])


def _monomials(monos, n: int):
    """Degree-k monomials as an (N, k) label array, and the rank lookup
    that sends a label bitmask to the monomial's row (-1 for none)."""
    labels = np.array(monos, dtype=np.int64).reshape(len(monos), -1)
    rank = np.full(1 << n, -1)
    rank[_BIT[labels].sum(axis=1)] = np.arange(len(monos))
    return labels, rank


def _table_arrays(table, n: int):
    """A 1-form table as the matrix A[l, s], the coefficient of label l in
    the image of label s, and the pattern of the table's entries."""
    A = np.zeros((n, n), dtype=complex)
    has = np.zeros((n, n), dtype=bool)
    for s, img in table.items():
        for (l,), c in img.items():
            A[l, s] = c
            has[l, s] = True
    return A, has


def _replacements(labels, rank, has):
    """Every e_S -> e_T of a derivation whose 1-form images have the entry
    pattern has: T is S with its label S[p] replaced by a label l, where l
    is S[p] itself or a label S lacks.  Returns the rows, columns, replaced
    labels S[p], new labels l and signs (-1)^(labels of S strictly between
    S[p] and l), one entry per (S, p, l); the generator's value there is
    sign * A[l, S[p]]."""
    n = len(has)
    masks = _BIT[labels].sum(axis=1)
    free = np.ones((len(labels), n), dtype=bool)
    free[np.arange(len(labels))[:, None], labels] = False
    parts = [(np.zeros(0, dtype=np.int64),) * 5]
    for p in range(labels.shape[1]):
        old = labels[:, p]
        col, new = np.nonzero(has[:, old].T
                              & (free | (np.arange(n) == old[:, None])))
        old = old[col]
        lo, hi = np.minimum(old, new)[:, None], np.maximum(old, new)[:, None]
        between = ((labels[col] > lo) & (labels[col] < hi)).sum(axis=1)
        row = rank[masks[col] - _BIT[old] + _BIT[new]]
        parts.append((row, col, old, new,
                      (1 - 2 * (between % 2)).astype(complex)))
    return [np.concatenate(a) for a in zip(*parts)]


def _products(labels, rank, A, has):
    """Every term of the multiplicative images of the monomials, taking at
    each position p one term of the 1-form image of S[p]: the product's
    labels are sorted with the sign of their inversions, and a product with
    a repeated label is dropped.  Returns the rows, columns and values."""
    col = np.arange(len(labels))
    chosen = np.zeros((len(labels), 0), dtype=np.int64)
    coef = np.ones(len(labels))
    for p in range(labels.shape[1]):
        old = labels[col, p]
        term, new = np.nonzero(has[:, old].T)
        keep = (chosen[term] != new[:, None]).all(axis=1)
        term, new = term[keep], new[keep]
        inversions = (chosen[term] > new[:, None]).sum(axis=1)
        coef = coef[term] * A[new, old[term]] * (1 - 2 * (inversions % 2))
        col, chosen = col[term], np.column_stack([chosen[term], new])
    return rank[_BIT[chosen].sum(axis=1)], col, coef


def _group_views(buf, shapes) -> list:
    """buf cut into consecutive views of the given shapes, one per size
    group: (B, s, s) for matrices held block-major, (B, s) for diagonals."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
    return [part.reshape(shape)
            for shape, part in zip(shapes, np.split(buf, ends))]


def _block_matrices(sizes, rows, cols, values) -> dict:
    """Scatter operators that share their entries' rows and columns, over
    block-major positions of blocks in nondecreasing size: values yields
    each operator's (name, entry values), and each is scattered in turn
    into a buffer of its own, handed out as one (B, s, s) stack view per
    size group; values at a repeated position add.  Raises ValueError if
    an entry leaves its block with a coefficient above 1e-13; smaller ones
    are dropped."""
    sizes = np.asarray(sizes)
    start = np.cumsum(sizes) - sizes
    offset = np.cumsum(sizes * sizes) - sizes * sizes
    block = np.repeat(np.arange(len(sizes)), sizes)
    b = block[cols]
    inside = block[rows] == b
    b = b[inside]
    place = (offset[b] + (rows[inside] - start[b]) * sizes[b]
             + cols[inside] - start[b])
    # (B, s) per size group; np.unique's sort kernels would add their code
    # pages to the peak RSS of workloads that build only a few blocks
    first = np.flatnonzero(np.diff(sizes, prepend=0))  # each size's first
    groups = list(zip(np.diff(first, append=len(sizes)), sizes[first]))
    out = {}
    for name, vals in values:
        if not inside.all() and np.any(np.abs(vals[~inside]) > 1e-13):
            raise ValueError("image leaves its su(2) block")
        buf = np.zeros(int(sizes @ sizes), dtype=complex)
        np.add.at(buf, place, vals[inside])
        out[name] = _group_views(buf, [(n, s, s) for n, s in groups])
    return out


def _su2_blocks(ctx: "StructureContext", k: int) -> list[Su2Block]:
    """Blocks of basis(k): the generators' entries from one replacement
    table, grouped into min-label components, stacked per block size."""
    n = 2 * ctx.m
    basis = ctx.basis(k)
    labels, rank = _monomials(basis, n)
    tables = {name: _table_arrays(ctx.tables[name], n)
              for name in ("R", "Rb", "L_I", "L_J", "L_K")}
    row, col, old, new, sign = _replacements(
        labels, rank, np.any([has for _, has in tables.values()], axis=0))

    comp = np.arange(len(basis))  # each monomial's smallest connected one
    while True:
        low = np.minimum(comp[row], comp[col])
        nxt = comp.copy()
        np.minimum.at(nxt, row, low)
        np.minimum.at(nxt, col, low)
        nxt = nxt[nxt]
        if np.array_equal(nxt, comp):
            break
        comp = nxt
    # blocks by size, then by smallest member; monomials in basis order
    order = np.lexsort((comp, np.bincount(comp)[comp]))
    at = np.argsort(order, kind="stable")  # each monomial's place in it
    first = np.flatnonzero(np.diff(comp[order], prepend=-1))
    sizes = np.diff(first, append=len(order))

    ops = _block_matrices(sizes, at[row], at[col],
                          ((name, A[new, old] * sign)
                           for name, (A, _) in tables.items()))
    groups = [R.shape[:2] for R in ops["R"]]  # (B, s)
    pq = 2 * (labels[order] < ctx.m).sum(axis=1) - k
    ops["H"] = _group_views(pq.astype(complex), groups)
    ops["C"] = []
    for h, R, Rb in zip(ops["H"], ops["R"], ops["Rb"]):
        # H H + 2 (R Rb + Rb R), with H H added on the diagonal only
        C, i = 2 * (R @ Rb + Rb @ R), np.arange(h.shape[-1])
        C[:, i, i] += h * h
        ops["C"].append(C)
    weights = ctx.weight_list(k)
    return [Su2Block([[basis[i] for i in order[s0:s0 + size]]
                      for s0 in first[sizes == size]],
                     {name: stacks[g] for name, stacks in ops.items()},
                     weights)
            for g, (_, size) in enumerate(groups)]


@dataclass
class StructureContext:
    m: int
    mmat: np.ndarray
    tables: dict = field(default_factory=dict, repr=False)
    # per-instance cache, filled on first use: (degree, weight) ->
    # {monomial: projector column as (label, coeff) pairs}
    _columns: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        M = np.asarray(self.mmat, dtype=complex)
        if M.shape != (self.m, self.m):
            raise ValueError("structure matrix has wrong shape")
        if not np.allclose(M @ M.conj().T, np.eye(self.m), atol=1e-12):
            raise ValueError("structure matrix must be unitary")
        if not np.allclose(M @ M.conj(), -np.eye(self.m), atol=1e-12):
            raise ValueError("structure matrix must satisfy M conj(M) = -Id")
        self.mmat = M
        m = self.m
        Mc = M.tolist()  # plain complex entries, so no numpy scalar meets a Dual
        cov_i, cov_j, rais, lowr = {}, {}, {}, {}
        for a in range(m):
            nz = [b for b in range(m) if Mc[a][b] != 0]
            cov_i[a] = {(a,): -1j}
            cov_i[m + a] = {(m + a,): 1j}
            cov_j[a] = {(m + b,): -Mc[a][b] for b in nz}
            cov_j[m + a] = {(b,): -Mc[a][b].conjugate() for b in nz}
            rais[m + a] = dict(cov_j[m + a])
            rais[a] = {}
            lowr[a] = {(m + b,): Mc[a][b] for b in nz}
            lowr[m + a] = {}
        # on 1-forms the derivation extension is plain composition
        cov_k = {lab: apply_derivation(cov_i, img)
                 for lab, img in cov_j.items()}
        neg = lambda t: {lab: escale(img, -1) for lab, img in t.items()}
        self.tables = {
            "cov_I": cov_i, "cov_J": cov_j, "cov_K": cov_k,
            "L_I": neg(cov_i), "L_J": neg(cov_j), "L_K": neg(cov_k),
            "R": rais, "Rb": lowr,
        }

    # ----- basic structure maps -----

    def conj(self, el: Element) -> Element:
        """Swaps the run of p labels below m and the run of q at or above m,
        each shifted by m, with sign (-1)^(pq): no sort is needed."""
        m = self.m
        out: Element = {}
        for labels, c in el.items():
            p = bisect.bisect_left(labels, m)
            key = (tuple(l - m for l in labels[p:])
                   + tuple(l + m for l in labels[:p]))
            out[key] = dconj(c) * -1 if p * (len(labels) - p) % 2 else dconj(c)
        return out

    def bidegree_of(self, labels) -> tuple[int, int]:
        p = sum(1 for l in labels if l < self.m)
        return p, len(labels) - p

    def hodge(self, el: Element) -> dict[tuple[int, int], Element]:
        out: dict[tuple[int, int], Element] = {}
        for labels, c in el.items():
            out.setdefault(self.bidegree_of(labels), {})[labels] = c
        return out

    def component(self, el: Element, p: int, q: int) -> Element:
        return {k: c for k, c in el.items() if self.bidegree_of(k) == (p, q)}

    # ----- sl(2) / su(2) operators -----

    def h_op(self, el: Element) -> Element:
        out: Element = {}
        for labels, c in el.items():
            p, q = self.bidegree_of(labels)
            if p != q:
                out[labels] = c * (p - q)
        return out

    def raising(self, el: Element) -> Element:
        return apply_derivation(self.tables["R"], el)

    def lowering(self, el: Element) -> Element:
        return apply_derivation(self.tables["Rb"], el)

    def cov_mult(self, which: str, el: Element) -> Element:
        return apply_multiplicative(self.tables["cov_" + which], el)

    def cov_blocks(self, blocks: list[Su2Block]) -> dict:
        """cov_I, cov_J and cov_K ("I", "J", "K") as one stack per size group
        of one degree's su2_blocks, expanded multiplicatively from their
        1-form tables one at a time; built on each call, never cached.
        Raises ValueError if an image leaves its block."""
        n = 2 * self.m
        members = [mem for blk in blocks for mem in blk.monos]
        labels, rank = _monomials([mono for mem in members for mono in mem], n)
        out = {}
        for u in "IJK":
            rows, cols, vals = _products(
                labels, rank, *_table_arrays(self.tables["cov_" + u], n))
            out |= _block_matrices([len(mem) for mem in members], rows, cols,
                                   [(u, vals)])
        return out

    def casimir(self, el: Element) -> Element:
        h2 = self.h_op(self.h_op(el))
        rr = self.raising(self.lowering(el))
        rrb = self.lowering(self.raising(el))
        return eadd(h2, escale(eadd(rr, rrb), 2))

    # ----- weight decomposition -----

    def weight_list(self, k: int) -> list[int]:
        wmax = min(k, 2 * self.m - k)
        if wmax < 0:
            return []
        return list(range(wmax, -1 if wmax % 2 == 0 else 0, -2))

    def su2_blocks(self, k: int) -> list[Su2Block]:
        """The su(2) generators and Casimir on basis(k), as dense matrices on
        the blocks they leave invariant; built on each call, never cached."""
        return _su2_blocks(self, k)

    def _projector_columns(self, k: int, w: int) -> dict:
        key = (k, w)
        if key not in self._columns:
            cols = dict.fromkeys(self.basis(k), ())
            if w in self.weight_list(k):
                for blk in self.su2_blocks(k):  # P: plain complex entries
                    for mem, P in zip(blk.monos, blk.projector(w).tolist()):
                        for j, mono in enumerate(mem):
                            cols[mono] = tuple((row, P[i][j])
                                               for i, row in enumerate(mem)
                                               if P[i][j] != 0)
            self._columns[key] = cols
        return self._columns[key]

    def weight_project(self, el: Element, w: int) -> Element:
        """Weight-w isotypic part: sum of c_j times column j of the Lagrange
        projector, whose columns are cached per (degree, weight);
        coefficients may be numbers or Duals."""
        out: Element = {}
        for labels, c in el.items():
            for key, p in self._projector_columns(len(labels), w)[labels]:
                _accumulate(out, key, c * p)
        return out

    def invariant_part(self, el: Element) -> Element:
        return self.weight_project(el, 0)

    # ----- canonical elements -----

    def omega_hat(self) -> Element:
        """(1/2) sum theta_a ^ conj(theta_a), normalized so R(omega_hat) = Omega."""
        return {(a, self.m + a): 0.5 for a in range(self.m)}

    def omega_canonical(self) -> Element:
        """(1/2) sum (M^H)_ab theta_a ^ theta_b, Gram matrix = Id."""
        return element_from_antisym(self.mmat.conj().T)

    # ----- bases and matrices -----

    def basis(self, k: int) -> list[tuple[int, ...]]:
        return list(itertools.combinations(range(2 * self.m), k))

    def basis_pq(self, p: int, q: int) -> list[tuple[int, ...]]:
        return [holo + anti
                for holo in itertools.combinations(range(self.m), p)
                for anti in itertools.combinations(range(self.m, 2 * self.m), q)]

    def operator_matrix(self, op, basis_in, basis_out) -> np.ndarray:
        index = {mono: i for i, mono in enumerate(basis_out)}
        mat = np.zeros((len(basis_out), len(basis_in)), dtype=complex)
        for col, mono in enumerate(basis_in):
            img = op({mono: 1.0})
            for labels, c in img.items():
                row = index.get(labels)
                if row is None:
                    if abs(numeric(c)) > 1e-13:
                        raise ValueError("image leaves the target basis span")
                    continue
                mat[row, col] = numeric(c)
        return mat


def element_from_antisym(A) -> Element:
    """The 2-form sum_{a<b} (1/2)(A_ab - A_ba) theta_a ^ theta_b of a square
    matrix, with plain complex coefficients and no exact zeros.  An array of
    shape (..., m, m) gives each coefficient as its array over the leading
    (sample) axes, dropped only where it is zero at every sample."""
    if A.ndim > 2:
        half = {(a, b): 0.5 * (A[..., a, b] - A[..., b, a])
                for a, b in itertools.combinations(range(A.shape[-1]), 2)}
        return {key: c for key, c in half.items() if c.any()}
    coeffs = {(a, b): complex(0.5 * (A[a, b] - A[b, a]))
              for a, b in itertools.combinations(range(len(A)), 2)}
    return {key: c for key, c in coeffs.items() if c != 0}


def eval2(el: Element, x, y):
    """Evaluate a 2-form element on tangent vectors given in frame components.

    x, y are length-2m sequences: components along t_a then along conj(t_a).
    """
    acc = 0.0
    for (a, b), c in el.items():
        acc = acc + c * (x[a] * y[b] - x[b] * y[a])
    return acc


def positive_dimension(m: int, p: int) -> int:
    """Predicted dim of the top-weight part of Lambda^p: (p+1) C(m, p)."""
    return (p + 1) * math.comb(m, p)
