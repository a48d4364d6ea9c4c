import threading

import numpy as np
import pytest

import hyperdecide as hd
from hyperdecide import equilibria


@pytest.fixture(scope="session")
def blas_threads():
    """numpy's OpenBLAS thread count at the start of the session, None where
    it cannot be pinned."""
    with equilibria._blas_pin as pinned:
        pass
    return equilibria._blas_pin._threads[0]() if pinned else None


@pytest.fixture(autouse=True)
def no_leaked_threads_or_pins(blas_threads):
    """After every test: no thread left running, the BLAS pin left at depth
    0, and the caller's OpenBLAS thread count restored."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before
    assert equilibria._blas_pin._depth == 0
    if blas_threads is not None:
        assert equilibria._blas_pin._threads[0]() == blas_threads


@pytest.fixture(scope="session")
def tanh():
    return hd.tanh_family()


@pytest.fixture(scope="session")
def k3():
    """Complete triangle, unit pairwise weights, every admissible triple at
    weight one. Degrees (4, 4, 4), shared ratio 1."""
    a2 = np.ones((3, 3)) - np.eye(3)
    b = np.zeros((3, 3, 3))
    for i in range(3):
        j, k = [x for x in range(3) if x != i]
        b[i, j, k] = b[i, k, j] = 1.0
    return hd.build(a2, b)


@pytest.fixture(scope="session")
def inst5():
    """The frozen 5-agent ratio-1 instance used across the suite."""
    return hd.random_instance(5, 0.8, 0.2, 1.0, 1)


@pytest.fixture(scope="session")
def c5():
    """Unit 5-cycle with no triples: degrees (2,...,2), ratio 0."""
    a2 = np.zeros((5, 5))
    for i in range(5):
        a2[i, (i + 1) % 5] = a2[(i + 1) % 5, i] = 1.0
    return hd.build(a2, np.zeros((5, 5, 5)))


@pytest.fixture(scope="session")
def mixed_ratio_arrays():
    """(a2, b) of ``mixed_ratio``; do not modify."""
    n = 4
    a2 = np.ones((n, n)) - np.eye(n)
    b = np.zeros((n, n, n))
    b[0, 1, 2] = b[0, 2, 1] = 0.5
    b[1, 0, 2] = b[1, 2, 0] = 1.0
    b[2, 0, 1] = b[2, 1, 0] = 0.5
    b[3, 0, 1] = b[3, 1, 0] = 0.5
    return a2, b


@pytest.fixture(scope="session")
def mixed_ratio(mixed_ratio_arrays):
    """Valid instance whose per-node triple/pair mass ratios differ, so no
    shared ratio is detected."""
    g = hd.build(*mixed_ratio_arrays)
    assert g.alpha is None
    return g
