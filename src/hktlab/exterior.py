"""Pointwise exterior algebra with the su(2) / sl(2) action on forms.

Elements are sparse dicts {sorted label tuple: coefficient}.  For a frame with
m holomorphic covectors theta_0..theta_{m-1}, labels 0..m-1 are the theta_a and
labels m..2m-1 their conjugates.  Coefficients may be complex numbers or dual
numbers; all maps here are linear or multilinear in the coefficients.

This module owns the element rules that the other modules call: one
accumulation rule, which drops a coefficient only when it is an exact
plain-number zero (a Dual never is); element_from_antisym for the 2-form of a
matrix; and StructureContext.conj for conjugating frame labels.  A sign
(in wedge, apply_derivation and conj) or a plain +-1 scale (escale) is
applied by negating or copying, never by a second multiply of an array or
Dual coefficient.  That gives the value the product would give, up to the
sign of a zero part, which no record reads: report.record adds +0.0, and
enorm takes moduli.

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
matmul or eigvalsh per stack, never a 924x924 matrix.  A stack takes its
1-form matrix's dtype by numpy's promotion: a matrix is real when every
imaginary part is exactly 0, and H is always real.  On the standard
structure R, Rb, L_J, H, C and every projector are real and L_I, L_K and
the cov units complex; a dense complex M keeps the rest complex through the
same code.  Nothing is cached across calls: a caller holds one degree's
blocks while it reads them, and a weight's projector is built from C only
when asked for, its first factor from C itself.  weight_project keeps, per
context, the projector columns of each (degree, weight) it has read, built
from that degree's blocks; it never builds cov.  A context builds the
eight generators' 1-form matrices from M once (_one_form_matrices) and
reads the sparse tables of apply_derivation and apply_multiplicative off
them, so both rules read one definition.

The blocks are built from the 1-form matrices with array operations over
all monomials of the degree at once, not through the sparse rules.  The
matrices' entry pattern is held as an image list, each label's image labels
in order, so an expansion repeats its items over their labels' images and
never builds an (items, labels) mask.  One replacement table serves the
five derivations: it lists every e_S -> e_T where T is S with its label
S[p] replaced by l (l = S[p], or a label S lacks), its row found by ranking
T's label bitmask.  Moving l to its sorted place passes the labels of S
strictly between S[p] and l: the set bits of S's bitmask without S[p] in
the span of bits from the smaller of the two up to the larger, so the entry
of a derivation with 1-form matrix A is (-1)^(their number) A[l, S[p]].  H
is the diagonal p - q.  The blocks are the components of the entries' rows
and columns, found by min-label propagation: each monomial takes the
smallest label among its neighbours until none changes, so a block is
labelled by its smallest member.  The degree is ranked once and laid out
once, size-major (blocks by size, then by smallest member, monomials in
basis order), so a size group is one reshaped view of a buffer; the
generators share the entries' places, found once, and each is scattered in
turn into a buffer of its own.  Every block of the degree holds that
layout, whose rank then sends a label bitmask to its row in that order, and
a view of its labels.
cov_blocks expands cov_I, cov_J and cov_K on the layout multiplicatively,
each from its own 1-form matrix but in two passes, cov_I alone and cov_J
with cov_K, whose entry pattern is cov_J's: one image term per position,
each term's labels so far held as one int64 bitmask, so a repeated label is
a set bit, the sign counts the set bits above the new label, and the final
mask is the rank lookup's index.
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


def _signed(x, s):
    """x times the sign s = +1 or -1, as x itself or its exact negation."""
    return x if s > 0 else -x


def escale(a: Element, c) -> Element:
    """a times c.  A plain (int, float or complex) c of 1 gives a copy of a
    and one of -1 a negated copy, with no multiply; an array or Dual c, and
    any other plain c, multiplies every coefficient."""
    if isinstance(c, (int, float, complex)):
        if c == 1:
            return dict(a)
        if c == -1:
            return {k: -v for k, v in a.items()}
    return {k: v * c for k, v in a.items()}


def esub(a: Element, b: Element) -> Element:
    return eadd(a, escale(b, -1))


def wedge(a: Element, b: Element) -> Element:
    """a ^ b: one multiply per pair of terms, negated for an odd reordering
    of their labels."""
    out: Element = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key, sgn = _product(ka, kb)
            if key is None:
                continue
            _accumulate(out, key, _signed(ca * cb, sgn))
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
    """Extend the 1-form map `table` (label -> 1-form dict) as a derivation:
    one multiply per term, negated for an odd sign."""
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
                _accumulate(out, key,
                            _signed(c * c2, -sgn if p % 2 else sgn))
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


# the su(2) generators, in the order of _one_form_matrices' stack
_GENERATORS = ("cov_I", "cov_J", "cov_K", "L_I", "L_J", "L_K", "R", "Rb")


def _one_form_matrices(M: np.ndarray) -> np.ndarray:
    """The _GENERATORS' complex 1-form matrices A[l, s], the coefficient of
    label l in the image of label s, as one (8, 2m, 2m) stack made from the
    structure matrix M: cov_I is diagonal, cov_J holds -M^T and -M^H in its
    off-diagonal blocks, cov_K = cov_I cov_J scales cov_J's rows, L_X =
    -cov_X, and R and Rb are cov_J's two column halves, Rb's negated."""
    m = len(M)
    A = np.zeros((8, 2 * m, 2 * m), dtype=complex)
    cov_i, cov_j, cov_k, _, _, _, R, Rb = A  # views into the stack
    i = np.repeat([-1j, 1j], m)
    np.fill_diagonal(cov_i, i)
    cov_j[m:, :m], cov_j[:m, m:] = -M.T, -M.conj().T
    np.multiply(i[:, None], cov_j, out=cov_k)
    A[3:6] = -A[:3]
    R[:, m:], Rb[:, :m] = cov_j[:, m:], -cov_j[:, :m]
    return A


class _Layout(NamedTuple):
    """One degree's rows in stack order: blocks by size, then by smallest
    member, each block's monomials in basis order.  block holds each row's
    block, and an entry at (row, col) of one block takes the place
    row_place[row] + col_place[col] in the stacked buffer; groups lists
    the (B, s) of each size group, labels holds the rows' labels as one
    (N, k) array and rank sends a label bitmask to its row (_rank)."""
    block: np.ndarray
    row_place: np.ndarray
    col_place: np.ndarray
    groups: list
    labels: np.ndarray
    rank: np.ndarray


class Su2Block(NamedTuple):
    """The B connected pieces of size s of basis(k) under the su(2)
    generators, stacked.  labels holds the members' monomials as one
    (B, s, k) int array (members by smallest monomial, each in basis
    order), a view into layout.labels; ops maps "R", "Rb", "L_I", "L_J",
    "L_K" and the Casimir "C" to (B, s, s) stacks of dense matrices in their
    tables' dtype, and "H" to the (B, s) stack of its real diagonals;
    weights lists the degree's weights, and layout is the one _Layout that
    every block of the degree shares, from which cov_blocks builds.
    """
    labels: np.ndarray
    ops: dict
    weights: list
    layout: _Layout

    def projector(self, w: int) -> np.ndarray:
        """The (B, s, s) Lagrange projector onto weight w: the product over
        the other weights w2 of (C - w2(w2+2)) / (w(w+2) - w2(w2+2)), the
        first factor formed from C itself, built on each call."""
        C, lam = self.ops["C"], w * (w + 2)
        eye, P = np.eye(C.shape[-1], dtype=C.dtype), None
        for lam2 in [w2 * (w2 + 2) for w2 in self.weights if w2 != w]:
            P = (C - lam2 * eye if P is None else C @ P - lam2 * P) \
                * (1.0 / (lam - lam2))
        return np.tile(eye, (len(C), 1, 1)) if P is None else P


class _Tables(NamedTuple):
    """1-form matrices A[l, s] of a context, each in its own dtype, with
    has, the union of their entry patterns, as an image list: source label
    s has the image labels image[first[s]:first[s] + count[s]], the l with
    has[l, s], increasing."""
    mats: list
    has: np.ndarray
    first: np.ndarray
    count: np.ndarray
    image: np.ndarray


# the derivations whose entries one replacement table serves
_DERIVATIONS = ("R", "Rb", "L_I", "L_J", "L_K")

# _BIT[l] is label l's bit in a label bitmask; bitmasks are built by indexing,
# never by shifts, which load more numpy kernels (peak RSS counts them)
_BIT = np.array([1 << l for l in range(62)])


def _rank(masks, n: int) -> np.ndarray:
    """The lookup that sends a label bitmask to the index of that monomial
    in masks, the monomials' label bitmasks (-1 for none)."""
    rank = np.full(1 << n, -1)
    rank[masks] = np.arange(len(masks))
    return rank


def _expand(tables: _Tables, old):
    """For each item's label in old, one (item, image label) pair per image
    label of it in tables: items in order, each item's images increasing,
    as np.nonzero(tables.has[:, old].T) gives them."""
    count = tables.count[old]
    skip = np.repeat(tables.first[old] - np.cumsum(count) + count, count)
    return (np.repeat(np.arange(len(old)), count),
            tables.image[np.arange(len(skip)) + skip])


def _replacements(labels, masks, rank, tables: _Tables):
    """Every e_S -> e_T of a derivation whose 1-form images have the entry
    pattern tables.has: T is S with its label S[p] replaced by a label l,
    where l is S[p] itself or a label S lacks.  masks holds the monomials'
    label bitmasks and rank their _rank.  Returns the rows, columns,
    replaced labels S[p], new labels l and real signs (-1)^(labels of S
    strictly between S[p] and l), one entry per (S, p, l); the generator's
    value there is sign * A[l, S[p]], in A's dtype."""
    parts = [(np.zeros(0, dtype=np.int64),) * 5]
    for p in range(labels.shape[1]):
        col, new = _expand(tables, labels[:, p])
        rest = masks[col] - _BIT[labels[col, p]]  # S without S[p]
        keep = (rest & _BIT[new]) == 0
        col, new, rest = col[keep], new[keep], rest[keep]
        old, bit = labels[col, p], _BIT[new]
        # span: the bits from min(S[p], l) up to max(S[p], l), which rest
        # holds neither of, so rest & span are the labels between them
        # (no np.abs: its integer kernel's code pages count in peak RSS)
        span = np.maximum(bit, _BIT[old]) - np.minimum(bit, _BIT[old])
        sign = 1.0 - 2 * (np.bitwise_count(rest & span) % 2)
        parts.append((rank[rest | bit], col, old, new, sign))
    return [np.concatenate(a) for a in zip(*parts)]


def _products(labels, rank, A, tables: _Tables):
    """Every term of the multiplicative images of the monomials labels
    under a (T, n, n) stack A of 1-form matrices with the one entry pattern
    of tables, at each position p one term of the image of S[p]: the
    product's labels are sorted with the sign of their inversions, one with
    a repeated label is dropped.  Returns the rows (rank of the product's
    label bitmask), the columns and one row of values per A, in A's
    dtype."""
    col = np.arange(len(labels))
    chosen = np.zeros(len(labels), dtype=np.int64)  # each term's label bitmask
    coef = np.ones((len(A), len(labels)), dtype=A.dtype)
    for p in range(labels.shape[1]):
        old = labels[col, p]
        term, new = _expand(tables, old)
        bit = _BIT[new]
        keep = (chosen[term] & bit) == 0
        term, new, bit = term[keep], new[keep], bit[keep]
        mask = chosen[term]
        # the chosen labels above new: -2 * bit has every bit above new's set
        inversions = np.bitwise_count(mask & (-2 * bit)).astype(np.int64)
        coef = (coef[:, term] * A[:, new, old[term]]
                * (1 - 2 * (inversions % 2)))
        col, chosen = col[term], mask | bit
    return rank[chosen], col, coef


def _group_views(buf, shapes) -> list:
    """buf cut into consecutive views of the given shapes, one per size
    group: (B, s, s) matrices, (B, s) diagonals or (B, s, k) labels."""
    ends = itertools.accumulate(math.prod(shape) for shape in shapes)
    return [buf[end - math.prod(shape):end].reshape(shape)
            for shape, end in zip(shapes, ends)]


def _block_layout(start, labels, rank) -> _Layout:
    """The _Layout of blocks that start at the given rows of labels, in
    stack order."""
    sizes = np.diff(start, append=len(labels))
    block = np.repeat(np.arange(len(sizes)), sizes)
    col_place = np.arange(len(labels)) - start[block]  # place in its block
    row_place = ((np.cumsum(sizes * sizes) - sizes * sizes)[block]
                 + col_place * sizes[block])
    # (B, s) per size group; np.unique's sort kernels would add their code
    # pages to the peak RSS of workloads that build only a few blocks
    first = np.flatnonzero(np.diff(sizes, prepend=0))  # each size's first
    groups = list(zip(np.diff(first, append=len(sizes)).tolist(),
                      sizes[first].tolist()))
    return _Layout(block, row_place, col_place, groups, labels, rank)


def _block_matrices(layout: _Layout, rows, cols, values) -> dict:
    """Scatter operators that share their entries' rows and columns into
    the blocks of layout: values yields each operator's (name, entry
    values), and each is scattered in turn into a buffer of its own, handed
    out as one (B, s, s) stack view per size group; values at a repeated
    position add.  Raises ValueError if an entry leaves its block with a
    coefficient above 1e-13; smaller ones are dropped."""
    inside = layout.block[rows] == layout.block[cols]
    place = layout.row_place[rows[inside]] + layout.col_place[cols[inside]]
    shapes = [(n, s, s) for n, s in layout.groups]
    out = {}
    for name, vals in values:
        if not inside.all() and np.any(np.abs(vals[~inside]) > 1e-13):
            raise ValueError("image leaves its su(2) block")
        buf = np.zeros(sum(map(math.prod, shapes)), dtype=vals.dtype)
        np.add.at(buf, place, vals[inside])
        out[name] = _group_views(buf, shapes)
    return out


def _su2_blocks(ctx: "StructureContext", k: int) -> list[Su2Block]:
    """Blocks of basis(k): the generators' entries from one replacement
    table, grouped into min-label components, stacked per block size on
    one layout, the degree's one ranking turned to its rows."""
    n, size = 2 * ctx.m, math.comb(2 * ctx.m, k)
    labels = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(n), k)), np.int64, size * k)
    labels = labels.reshape(size, k)  # basis(k) in order, k = 0 too
    masks = _BIT[labels].sum(axis=1)
    rank = _rank(masks, n)
    tables = ctx._tables(_DERIVATIONS)
    row, col, old, new, sign = _replacements(labels, masks, rank, tables)

    comp = np.arange(size)  # each monomial's smallest connected one
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
    rank[masks] = at  # from here on, a bitmask's row in stack order
    layout = _block_layout(np.flatnonzero(np.diff(comp[order], prepend=-1)),
                           labels[order], rank)

    ops = _block_matrices(layout, at[row], at[col],
                          ((name, A[new, old] * sign)
                           for name, A in zip(_DERIVATIONS, tables.mats)))
    pq = 2 * (layout.labels < ctx.m).sum(axis=1) - k
    ops["H"] = _group_views(pq.astype(float), layout.groups)
    ops["C"] = []
    for h, R, Rb in zip(ops["H"], ops["R"], ops["Rb"]):
        # H H + 2 (R Rb + Rb R), with H H added on the diagonal only
        C, i = 2 * (R @ Rb + Rb @ R), np.arange(h.shape[-1])
        C[:, i, i] += h * h
        ops["C"].append(C)
    weights = ctx.weight_list(k)
    cuts = _group_views(layout.labels.ravel(),
                        [(b, s, k) for b, s in layout.groups])
    return [Su2Block(cut, {name: a[g] for name, a in ops.items()}, weights,
                     layout)
            for g, cut in enumerate(cuts)]


@dataclass
class StructureContext:
    m: int
    mmat: np.ndarray
    # set in __post_init__: the generators' 1-form matrices, each in its
    # own dtype, and the sparse tables read off them; per-instance caches,
    # filled on first use: (degree, weight) -> {monomial: projector column
    # as (label, coeff) pairs}, and matrix names -> _Tables
    matrices: dict = field(init=False, repr=False, compare=False)
    tables: dict = field(init=False, repr=False, compare=False)
    _columns: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    _arrays: dict = field(default_factory=dict, init=False, repr=False,
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
        A = _one_form_matrices(M)
        self.matrices = {name: a if imag else a.real for name, a, imag in
                         zip(_GENERATORS, A, A.imag.any(axis=(1, 2)).tolist())}
        # each table {s: {(l,): A[l, s]}} read off its matrix's nonzero
        # entries, images in increasing l, with plain int labels and plain
        # complex coefficients, so no numpy scalar meets a Dual
        self.tables = {name: {} for name in _GENERATORS}
        nz = np.nonzero(A)
        for g, l, s, c in zip(*(i.tolist() for i in nz), A[nz].tolist()):
            self.tables[_GENERATORS[g]].setdefault(s, {})[(l,)] = c

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
            out[key] = _signed(dconj(c), (-1) ** (p * (len(labels) - p)))
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
        of one degree's su2_blocks, expanded on the blocks' shared layout on
        each call: cov_I alone, then cov_J with cov_K, whose entry pattern
        is cov_J's.  Raises ValueError if an image leaves its block."""
        layout, out = blocks[0].layout, {}
        for units in ("I", "JK"):
            tables = self._tables(tuple("cov_" + u for u in units))
            rows, cols, vals = _products(layout.labels, layout.rank,
                                         np.array(tables.mats), tables)
            out |= _block_matrices(layout, rows, cols, zip(units, vals))
        return out

    def _tables(self, names: tuple) -> _Tables:
        """The 1-form matrices names as one _Tables, built at the first call
        per names and kept for the context's life."""
        if names not in self._arrays:
            mats = [self.matrices[name] for name in names]
            has = np.any([A != 0 for A in mats], axis=0)
            source, image = np.nonzero(has.T)
            count = np.bincount(source, minlength=len(has))
            self._arrays[names] = _Tables(mats, has, np.cumsum(count) - count,
                                          count, image)
        return self._arrays[names]

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

    def _projector_columns(self, k: int, w: int, blocks=None) -> dict:
        key = (k, w)
        if key not in self._columns:
            cols = dict.fromkeys(self.basis(k), ())
            if w in self.weight_list(k):
                for blk in blocks or self.su2_blocks(k):  # P: C's dtype
                    for mem, P in zip(blk.labels.tolist(),
                                      blk.projector(w).tolist()):
                        mem = list(map(tuple, mem))
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
