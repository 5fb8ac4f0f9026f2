"""The algebra suite at n=3, and its reduction of non-finite residuals."""

import math

import numpy as np

from hktlab import suites
from hktlab.charts import flat_chart
from hktlab.exterior import Su2Block, enorm, esub, positive_dimension
from hktlab.fields import ladder_constant
from hktlab.hermitian import _eigenvalues
from hktlab.report import Spec, record
from hktlab.suites import ScenarioConfig, Tolerances, algebra_records

# points and threshold of every n=3 record, as the sparse per-monomial
# suite reported them before the su(2) operators were cached as blocks;
# unit-spectra has since been bounded by the eigenvalue tolerance tol.casimir
# in place of a hard-coded 1e-5
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


def test_nan_in_a_cached_block_fails_sl2(monkeypatch):
    def poisoned(n, unit="I"):
        chart = flat_chart(n, unit)
        chart.ctx.su2_blocks(2)[0].ops["R"][0, 0, 0] = math.nan
        return chart

    monkeypatch.setattr(suites, "flat_chart", poisoned)
    records = {r.identity: r
               for r in algebra_records(ScenarioConfig(samples=1))}
    for n in (1, 2):
        r = records[f"sl2-brackets(n={n})"]
        assert math.isnan(r.value) and not r.passed
        assert records[f"su2-brackets(n={n})"].passed


def test_nan_in_one_member_fails_unit_spectra(monkeypatch):
    # degree 2 at n=1 opens with a group of two 1x1 members; the poisoned
    # member's eigenvalues are nan, its neighbour's are still computed
    stacks = []

    def poisoned(n, unit="I"):
        chart = flat_chart(n, unit)
        stack = chart.ctx.su2_blocks(2)[0].ops["L_J"]
        stack[0, 0, 0] = math.nan
        stacks.append(stack)
        return chart

    monkeypatch.setattr(suites, "flat_chart", poisoned)
    records = {r.identity: r
               for r in algebra_records(ScenarioConfig(samples=1))}
    for n in (1, 2):
        r = records[f"unit-spectra(n={n})"]
        assert math.isnan(r.value) and not r.passed
        assert records[f"casimir-spectrum(n={n})"].passed
    ev = _eigenvalues(stacks[0], False)
    assert ev.shape == (2, 1) and math.isnan(ev[0, 0].real)
    assert np.array_equal(ev[1:], np.linalg.eigvals(stacks[0][1:]))


def _member_blocks(ctx, k):
    """Degree k's blocks one member at a time, as 2-D slices of the stacks
    (ops, with cov_I/J/K as "I", "J", "K", and projectors), in the order of
    their smallest member."""
    covs = ctx.cov_blocks(k)
    out = []
    for g, blk in enumerate(ctx.su2_blocks(k)):
        for i, mem in enumerate(blk.monos):
            ops = {name: a[i] for name, a in blk.ops.items()}
            ops.update({u: covs[u][g][i] for u in covs})
            out.append((mem, ops, {w: p[i]
                                   for w, p in blk.projectors.items()}))
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

    def spectrum(per_degree, name):
        return np.concatenate([np.linalg.eigvals(ops[name])
                               for _, ops, _ in per_degree])

    def unit_spectra():
        for per_degree in blocks:
            si = np.sort(spectrum(per_degree, "L_I").imag)
            for u in ("L_J", "L_K"):
                ev = spectrum(per_degree, u)
                yield ev.real
                yield np.sort(ev.imag) - si

    def casimir():
        for k, per_degree in enumerate(blocks):
            targets = np.array([w * (w + 2) for w in ctx.weight_list(k)])
            lam = spectrum(per_degree, "C")
            yield np.min(np.abs(lam[:, None] - targets[None, :]), axis=1)

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
    # members (1,) and (2,) are two blocks of one stack, each of trace
    # 2^-53; member (0,) leads a block of another stack, of trace 1.  In
    # member order the sum is (1 + 2^-53) + 2^-53 = 1, each addition
    # rounding to even; summed per stack, or in the order [small, large],
    # it is 2^-52 + 1, one ulp above
    tiny = 2.0 ** -53
    small = Su2Block([[(1,)], [(2,)]], {}, {1: np.full((2, 1, 1), tiny)})
    large = Su2Block([[(0,), (3,)]], {}, {1: np.diag([1.0, 0.0])[None]})
    assert (tiny + tiny) + 1.0 == 1.0 + 2.0 ** -52 != 1.0
    for stacks in ([small, large], [large, small]):
        assert suites._top_trace(stacks, 1) == 1.0
