import numpy as np
import pytest

from hktlab.duals import Dual, sample_shape


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# quaternion helpers that only the tests use, as component 4-tuples

def quat_conj(a):
    a0, a1, a2, a3 = a
    return (a0, -a1, -a2, -a3)


def quat_im(a):
    a0, a1, a2, a3 = a
    return (0 * a0, a1, a2, a3)


def right_mult_c2(q):
    """b -> b * q on H = C^2, written in coordinates b = v0 + v1 j, as a 2x2
    row-major nested list, so dual-number components pass through: the
    oracle for bundles.instanton_coeff's entries."""
    q0, q1, q2, q3 = q
    return [
        [q0 + 1j * q1, -q2 + 1j * q3],
        [q2 + 1j * q3, q0 - 1j * q1],
    ]


def dre(x):
    """Real part of a dual, slotwise."""
    if isinstance(x, Dual):
        return Dual(dre(x.val), dre(x.dot), x.level)
    return x.real


def nested_coeff(conn, pt):
    """conn.coeff(pt) as 4 * base_n r x r nested lists, a plain 0.0 where it
    gives no entry: the form the nested-list reference oracles read."""
    A, r = conn.coeff(pt), conn.rank
    return [[[A.get((mu, a, b), 0.0) for b in range(r)] for a in range(r)]
            for mu in range(4 * conn.base_n)]


def vertical_probe(ts, rng):
    """A random vertical (1, 0) tangent vector of the total space ts in frame
    components, its fiber slots' real normals drawn before their imaginary
    ones: the per-sample loop whose stream the hopf suite's probe draws
    must read in the same order."""
    mb = 2 * ts.n
    x = np.zeros(ts.ctx.m, dtype=complex)
    x[mb:] = rng.standard_normal(ts.rank) + 1j * rng.standard_normal(ts.rank)
    return x


def memo_builds(monkeypatch, module, tag):
    """Patches module.point_memo to log every build of a key (tag, x) as
    (x, sample shape of the Point built at); a plain list, which has no
    memo, logs one build per call."""
    builds = []
    real = module.point_memo

    def logged(pt, key, build):
        if isinstance(key, tuple) and key[0] == tag:
            def counted(p):
                builds.append((key[1], sample_shape(p)))
                return build(p)
            return real(pt, key, counted)
        return real(pt, key, build)

    monkeypatch.setattr(module, "point_memo", logged)
    return builds


def nijenhuis_dense(L, dL):
    """Max component of N_L(e_i, e_j) per sample from a dense derivative
    dL[k, j, l] = d_l L[k, j], its four terms written out as four einsums
    and summed in the order term1 - term2 - term3 + term4: the oracle for
    fields.nijenhuis_residual, which reads dL's nonzero block and builds
    term2 and term3 as term1 and term4 with i and j swapped."""
    N = np.einsum('...li,...kjl->...kij', L, dL)
    N -= np.einsum('...lj,...kil->...kij', L, dL)
    N -= np.einsum('...kl,...lji->...kij', L, dL)
    N += np.einsum('...kl,...lij->...kij', L, dL)
    return np.max(np.abs(N), axis=(-3, -2, -1))


def dense_derivative(L, B):
    """The dense dL[k, j, l] = d_l L[k, j] whose only nonzero block is B,
    on the last B.shape[-3] rows and the first B.shape[-2] columns."""
    dim = L.shape[-1]
    dL = np.zeros(L.shape + (dim,))
    dL[..., dim - B.shape[-3]:, :B.shape[-2], :] = B
    return dL
