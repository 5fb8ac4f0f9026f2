"""The algebra suite at n=3, and its reduction of non-finite residuals."""

import math
import tracemalloc

import numpy as np
import pytest

from hktlab import exterior, suites
from hktlab.charts import flat_chart
from hktlab.exterior import enorm, esub, positive_dimension
from hktlab.fields import ladder_constant
from hktlab.hermitian import _eigenvalues
from hktlab.report import Spec, record
from hktlab.suites import ScenarioConfig, Tolerances, algebra_records

# points and threshold of every n=3 record, as the sparse per-monomial
# suite reported them before the su(2) operators were cached as blocks;
# unit-spectra has since been bounded by the eigenvalue tolerance tol.casimir
# in place of a hard-coded 1e-5, and both spectrum records, now read with
# eigvalsh and their (skew-)Hermitian gaps, keep their points and bounds
N3_RECORDS = {
    "sl2-brackets": (4096, 1e-12),
    "su2-brackets": (12288, 1e-12),
    "unit-weight": (4096, 1e-12),
    "unit-spectra": (4096, 1e-9),
    "casimir-spectrum": (4096, 1e-9),
    "weight-projectors": (4096, 1e-12),
    "positive-dimension": (7, 1e-12),
    "r-omega": (1, 1e-12),
    "invariant-annihilated": (100, 1e-12),
    "noninvariant-detected": (100, 1.0),
    "r-kernel-invariant": (36, 1e-12),
    "ladder-normalization": (192, 1e-12),
    "antilinear-structure": (1, 1e-12),
    "cov-squares": (12288, 1e-12),
}


def test_algebra_n3_passes_with_unchanged_records():
    records = algebra_records(ScenarioConfig(n=3))
    assert [r.identity for r in records] == [
        f"{name}(n={n})" for n in (1, 2, 3) for name in N3_RECORDS]
    for r in records:
        assert r.passed and math.isfinite(r.value), r.identity
    for r in records[-len(N3_RECORDS):]:
        assert (r.points, r.threshold) == N3_RECORDS[r.identity[:-5]]


def _poison(monkeypatch, name, degree=2, at=(0, 0, 0), value=math.nan):
    """Wraps exterior._su2_blocks so that every build of degree comes with
    value (a nan by default) added to entry at of operator name's first
    stack, after the Casimir is formed; returns the list of (clean copy,
    poisoned stack) pairs."""
    stacks = []
    build = exterior._su2_blocks

    def poisoned(ctx, k):
        blocks = build(ctx, k)
        if k == degree:
            stack = blocks[0].ops[name]
            clean = stack.copy()
            stack[at] += value
            stacks.append((clean, stack))
        return blocks

    monkeypatch.setattr(exterior, "_su2_blocks", poisoned)
    return stacks


def test_nan_in_a_block_fails_sl2(monkeypatch):
    _poison(monkeypatch, "R")
    records = {r.identity: r
               for r in algebra_records(ScenarioConfig(samples=1))}
    for n in (1, 2):
        r = records[f"sl2-brackets(n={n})"]
        assert math.isnan(r.value) and not r.passed
        assert records[f"su2-brackets(n={n})"].passed


def test_nan_in_one_member_fails_unit_spectra(monkeypatch):
    # degree 2 at n=1 opens with a group of two 1x1 members; the poisoned
    # member's eigenvalues are nan, its neighbour's are still computed
    stacks = _poison(monkeypatch, "L_J")
    records = {r.identity: r
               for r in algebra_records(ScenarioConfig(samples=1))}
    for n in (1, 2):
        r = records[f"unit-spectra(n={n})"]
        assert math.isnan(r.value) and not r.passed
        assert records[f"casimir-spectrum(n={n})"].passed
    stack = stacks[0][1]
    ev = _eigenvalues(-1j * stack)
    assert ev.shape == (2, 1) and math.isnan(ev[0, 0])
    assert np.array_equal(ev[1:], np.linalg.eigvalsh(-1j * stack[1:]))


@pytest.mark.parametrize("value", [1e-6, math.nan])
@pytest.mark.parametrize("name, identity, other", [
    ("L_J", "unit-spectra", "casimir-spectrum"),
    ("C", "casimir-spectrum", "unit-spectra")])
def test_upper_triangle_fault_fails_its_spectrum(monkeypatch, name, identity,
                                                 other, value):
    # the first member of degree 1 is 2x2; a fault in its strict upper
    # triangle leaves the spectrum eigvalsh reads from the lower one as it
    # was, so only the (skew-)Hermitian gap can see it
    stacks = _poison(monkeypatch, name, 1, (0, 0, 1), value)
    records = {r.identity: r
               for r in algebra_records(ScenarioConfig(samples=1))}
    scale = -1j if name == "L_J" else 1.0
    for n, (clean, stack) in zip((1, 2), stacks):
        assert stack.shape[-1] == 2
        r = records[f"{identity}(n={n})"]
        assert not r.passed and records[f"{other}(n={n})"].passed
        if math.isnan(value):
            assert math.isnan(r.value)
        else:
            assert np.array_equal(np.linalg.eigvalsh(scale * stack),
                                  np.linalg.eigvalsh(scale * clean))
            assert r.value == pytest.approx(value, rel=1e-9)


def test_algebra_memory_one_degree_at_a_time():
    # one degree's blocks, and a block's projectors, are alive at a time:
    # 4.0 MB traced at n=3 (10.4 MB when every degree's blocks and
    # projectors were cached on the context)
    tracemalloc.start()
    try:
        algebra_records(ScenarioConfig(n=3, samples=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7e6, peak


def test_algebra_builds_each_degree_once_per_n(monkeypatch):
    # the degree loop builds each degree once, in order, and fills the
    # weight-0 projector columns of degree 2, which the (1,1) checks'
    # invariant_part reads, from its degree-2 blocks (was one more build
    # of degree 2 per n)
    built = []
    build = exterior._su2_blocks

    def counted(ctx, k):
        built.append((ctx.m // 2, k))
        return build(ctx, k)

    monkeypatch.setattr(exterior, "_su2_blocks", counted)
    algebra_records(ScenarioConfig(n=3, samples=1))
    assert built == [(n, k) for n in (1, 2, 3) for k in range(4 * n + 1)]


def test_algebra_ranks_lays_out_and_converts_tables_once(monkeypatch):
    # per degree one ranking and one block layout, which su2_blocks builds
    # and cov_blocks reads; per context its 8 1-form matrices (R, Rb, L_I,
    # L_J, L_K, cov_I, cov_J, cov_K) built once, and each names' _Tables
    # (the derivations', cov_I's and cov_J with cov_K's) once
    calls = {"_rank": 0, "_block_layout": 0, "_one_form_matrices": 0}
    for name in calls:
        def counted(*args, name=name, real=getattr(exterior, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(exterior, name, counted)
    built = []  # held, so no two share an id
    real = exterior._Tables
    monkeypatch.setattr(exterior, "_Tables",
                        lambda *args: built.append(real(*args)) or built[-1])
    algebra_records(ScenarioConfig(n=3, samples=1))
    degrees = sum(4 * n + 1 for n in (1, 2, 3))
    assert calls == {"_rank": degrees, "_block_layout": degrees,
                     "_one_form_matrices": 3}
    assert len(built) == 3 * 3


def _member_blocks(ctx, k):
    """Degree k's blocks one member at a time, as 2-D slices of the stacks
    (ops, with H as its diagonal matrix and cov_I/J/K as "I", "J", "K", and
    projectors), in the order of their smallest member."""
    blocks = ctx.su2_blocks(k)
    covs = ctx.cov_blocks(blocks)
    out = []
    for g, blk in enumerate(blocks):
        projectors = {w: blk.projector(w) for w in blk.weights}
        for i, mem in enumerate(blk.labels.tolist()):
            mem = list(map(tuple, mem))
            ops = {name: a[i] for name, a in blk.ops.items()}
            ops["H"] = np.diag(ops["H"])
            ops.update({u: covs[u][g][i] for u in covs})
            out.append((mem, ops, {w: p[i] for w, p in projectors.items()}))
    return sorted(out, key=lambda t: t[0])


def _max_abs(arrays):
    """A residual record's value over the entry moduli of arrays."""
    return record(Spec("", "", 0.0), 1,
                  [np.abs(a).max() for a in arrays]).value


def _per_block_values(ctx):
    """Each block check's value by the loop over single blocks that the
    stacked checks replaced, and ladder-normalization by the sparse rule."""
    m = ctx.m
    blocks = [_member_blocks(ctx, k) for k in range(2 * m + 1)]
    every = [b for per_degree in blocks for b in per_degree]

    def spectrum(per_degree, name, scale=1.0):
        return np.concatenate([np.linalg.eigvalsh(scale * ops[name])
                               for _, ops, _ in per_degree])

    def unit_spectra():
        for per_degree in blocks:
            si = np.sort(np.concatenate(
                [np.diag(ops["L_I"]) for _, ops, _ in per_degree]).imag)
            for u in ("L_J", "L_K"):
                for _, ops, _ in per_degree:
                    yield ops[u] + ops[u].conj().T
                yield np.sort(spectrum(per_degree, u, -1j)) - si

    def casimir():
        for k, per_degree in enumerate(blocks):
            targets = np.array([w * (w + 2) for w in ctx.weight_list(k)])
            lam = spectrum(per_degree, "C")
            yield np.min(np.abs(lam[:, None] - targets[None, :]), axis=1)
            for _, ops, _ in per_degree:
                yield ops["C"] - ops["C"].conj().T

    def projectors():
        for k, per_degree in enumerate(blocks):
            for mem, _, proj in per_degree:
                ps = [proj[w] for w in ctx.weight_list(k)]
                yield sum(ps) - np.eye(len(mem))
                for i, pw in enumerate(ps):
                    yield pw @ pw - pw
                    for pw2 in ps[i + 1:]:
                        yield pw2 @ pw

    def ladder_gap(mono, q):
        el = {mono: 1.0}
        for op in [ctx.lowering] * q + [ctx.raising] * q:
            el = op(el)
        return enorm(esub(el, {mono: ladder_constant(len(mono) - q, q)}))

    def cyc(o):
        for x, y, z in (("I", "J", "K"), ("J", "K", "I"), ("K", "I", "J")):
            lx, ly = o["L_" + x], o["L_" + y]
            yield lx @ ly - ly @ lx + 2.0 * o["L_" + z]

    return {
        "sl2-brackets": _max_abs(
            r for _, o, _ in every
            for r in (o["H"] @ o["R"] - o["R"] @ o["H"] - 2.0 * o["R"],
                      o["H"] @ o["Rb"] - o["Rb"] @ o["H"] + 2.0 * o["Rb"],
                      o["R"] @ o["Rb"] - o["Rb"] @ o["R"] - o["H"])),
        "su2-brackets": _max_abs(r for _, o, _ in every for r in cyc(o)),
        "unit-weight": _max_abs(
            np.max(np.abs(o["L_I"] - np.diag(
                [1j * (p - q) for p, q in map(ctx.bidegree_of, mem)])),
                axis=0) for mem, o, _ in every),
        "unit-spectra": _max_abs(unit_spectra()),
        "casimir-spectrum": _max_abs(casimir()),
        "weight-projectors": _max_abs(projectors()),
        "positive-dimension": max(
            abs(sum(np.trace(proj[p]).real for _, _, proj in blocks[p])
                - positive_dimension(m, p)) for p in range(m + 1)),
        "ladder-normalization": max(
            ladder_gap(mono, q) for k in range(1, m + 1)
            for q in range(1, k + 1) for mono in ctx.basis_pq(k, 0)),
        "cov-squares": _max_abs(
            o[u] @ o[u] - (-1.0) ** len(mem[0]) * np.eye(len(mem))
            for mem, o, _ in every for u in "IJK"),
    }


def test_stacked_block_checks_match_per_block_loop():
    records = {r.identity: r.value
               for r in algebra_records(ScenarioConfig(n=2, samples=1))}
    expected = _per_block_values(flat_chart(2).ctx)
    for name, value in expected.items():
        assert records[f"{name}(n=2)"] == value, name


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hermitian_spectra_match_eigvals(n):
    # the eigendecomposition oracle: every block's spectrum of L_J and L_K
    # (i eigvalsh(-i L)) and of C (eigvalsh(C)) is the general eigvals',
    # and the (skew-)Hermitian gaps each degree adds to the records are 0
    ctx = flat_chart(n).ctx
    for k in range(2 * ctx.m + 1):
        for blk in ctx.su2_blocks(k):
            for name, scale in (("L_J", -1j), ("L_K", -1j), ("C", 1.0)):
                ev = scale * np.linalg.eigvals(blk.ops[name])
                assert np.abs(ev.imag).max() <= 1e-12, (k, name)
                assert np.abs(np.sort(ev.real, axis=-1) - _eigenvalues(
                    scale * blk.ops[name])).max() <= 1e-12, (k, name)
        values = suites._degree_values(ctx, k)
        assert values["unit-spectra"][0::2] == [0.0, 0.0], k
        assert values["casimir-spectrum"][-1] == [0.0], k


def test_no_noninvariant_draw_fails_detection(monkeypatch):
    # every draw is the zero form, whose enorms broadcast over the draws:
    # nothing to detect, so the margin sweep is empty, reduces to inf, and
    # must not pass
    monkeypatch.setattr(suites, "_draw",
                        lambda rng, count, *parts: [{} for _ in parts])
    records = {r.identity: r
               for r in algebra_records(ScenarioConfig(samples=1))}
    r = records["noninvariant-detected(n=1)"]
    assert r.value == math.inf and not r.passed
    assert r.points == 0
    assert records["invariant-annihilated(n=1)"].passed


def test_nan_draw_fails_both_split_records(monkeypatch):
    # a nan in one coefficient of draw 7 of the first (1,1) block, the one
    # at n=1: its three norms are nan, and both records of the draws keep
    # that draw, read nan and fail, with all 100 draws counted
    real = suites._draw
    seen = []

    def draw(rng, count, *parts):
        out = real(rng, count, *parts)
        if not seen:
            el = dict(out[0])
            mono = next(iter(el))
            el[mono] = el[mono].copy()
            el[mono][7] = complex(math.nan, 0.0)
            out[0] = el
        seen.append(count)
        return out

    monkeypatch.setattr(suites, "_draw", draw)
    records = {r.identity: r
               for r in algebra_records(ScenarioConfig(samples=1))}
    for name in ("invariant-annihilated(n=1)", "noninvariant-detected(n=1)"):
        r = records[name]
        assert math.isnan(r.value) and not r.passed, name
        assert r.points == 100, name
    for name in ("invariant-annihilated(n=2)", "noninvariant-detected(n=2)"):
        assert records[name].passed, name
    assert seen == [100, 100]


def test_unit_spectra_bound_is_the_casimir_tolerance():
    # the spectra are compared unrounded, so their gap is a few ulps
    # (about 1e-15), and a casimir tolerance below it fails the record
    cfg = ScenarioConfig(samples=1, tol=Tolerances(casimir=1e-20))
    records = {r.identity: r for r in algebra_records(cfg)}
    for n in (1, 2):
        r = records[f"unit-spectra(n={n})"]
        assert r.threshold == 1e-20 and r.value < 1e-13
        assert not r.passed


def test_top_trace_sums_in_member_order_across_stacks():
    # blocks led by [1] and [2] come from one stack, each of trace 2^-53;
    # the block led by [0] comes from another stack, of trace 1.  In member
    # order the sum is (1 + 2^-53) + 2^-53 = 1, each addition rounding to
    # even; summed per stack, or in the order [small, large], it is
    # 2^-52 + 1, one ulp above
    tiny = 2.0 ** -53
    small = [([1], tiny), ([2], tiny)]
    large = [([0], 1.0)]
    assert (tiny + tiny) + 1.0 == 1.0 + 2.0 ** -52 != 1.0
    for pairs in (small + large, large + small):
        assert suites._top_trace(pairs) == 1.0
