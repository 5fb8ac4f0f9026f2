import numpy as np
import pytest

from hktlab.duals import Dual


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


def dre(x):
    """Real part of a dual, slotwise."""
    if isinstance(x, Dual):
        return Dual(dre(x.val), dre(x.dot), x.level)
    return x.real
