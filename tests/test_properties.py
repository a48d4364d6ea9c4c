"""Properties of random valid instances, drawn with ``random_instance``.

Each test draws 2 to 8 agents, a pairwise density, a triple density, a
shared ratio (0 for two agents, which have no admissible triples) and a
seed, with a fixed example sequence so every run checks the same draws.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

import hyperdecide as hd
from hyperdecide.dynamics import SystemInstance, jacobian, vector_field
from hyperdecide.equilibria import ScalarReduced, consensus_roots, find_all, pi1_star
from hyperdecide.hypergraph import _pair_rows, _received_mass, _triple_term
from hyperdecide.spectra import thresholds

ORDER_TOL = 1e-12
# find_all merges states within 1e-6 of each other, so a consensus root
# closer than that to the origin is reported as the origin
ORIGIN_GAP = 1e-6


@st.composite
def instances(draw):
    n = draw(st.integers(2, 8))
    alpha = 0.0 if n == 2 else draw(st.floats(0.0, 3.0))
    return hd.random_instance(n, draw(st.floats(0.5, 1.0)), draw(st.floats(0.3, 1.0)),
                              alpha, draw(st.integers(0, 2**32 - 1)))


@st.composite
def triple_lists(draw):
    """A drawn instance as it is, without triples (alpha = 0), or with agent
    0's triples removed, so that agent has empty sums."""
    g = draw(instances())
    b = np.array(g.b)
    cut = draw(st.sampled_from(["none", "all", "agent 0"]))
    if cut == "all":
        b[:] = 0.0
    elif cut == "agent 0":
        b[0] = 0.0
    return hd.build(g.a2, b)


CONTRACTION_RTOL = 1e-13


@settings(max_examples=100, deadline=None, derandomize=True)
@given(g=triple_lists(), seed=st.integers(0, 2**32 - 1), m=st.integers(1, 9))
def test_triple_contractions_match_einsum(g, seed, m):
    # each sum is compared on the scale of its terms' magnitudes
    P = np.tanh(np.random.default_rng(seed).uniform(-3.0, 3.0, (m, g.n)))
    for p in (P, P[0]):
        term = np.einsum("ijk,...j,...k->...i", g.b, p, p)
        scale = np.einsum("ijk,...j,...k->...i", g.b, np.abs(p), np.abs(p))
        assert np.all(np.abs(_triple_term(g, p) - term) <= CONTRACTION_RTOL * scale)
        rows = np.einsum("ijk,...k->...ij", g.b, p)
        scale = np.einsum("ijk,...k->...ij", g.b, np.abs(p))
        assert np.all(np.abs(_pair_rows(g, p) - rows) <= CONTRACTION_RTOL * scale)
    mass = g.b.sum(axis=1)
    assert np.all(np.abs(_received_mass(g) - mass) <= CONTRACTION_RTOL * mass)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(g=triple_lists(), pi=st.floats(0.2, 5.0), seed=st.integers(0, 2**32 - 1),
       m=st.integers(1, 12))
def test_stacked_rows_equal_one_row_calls(g, pi, seed, m):
    # bitwise, for every stack height up to m: no row depends on the others
    s = SystemInstance(graph=g, psi=hd.tanh_family(), pi=pi)
    X = np.random.default_rng(seed).uniform(-(pi + 1.0), pi + 1.0, (m, g.n))
    P = np.tanh(X)
    calls = [(lambda x: _triple_term(g, x), P), (lambda x: _pair_rows(g, x), P),
             (lambda x: vector_field(s, x), X), (lambda x: jacobian(s, x), X)]
    for fn, rows in calls:
        alone = [fn(row) for row in rows]
        for height in range(1, m + 1):
            stacked = fn(rows[:height])
            assert all(np.array_equal(stacked[r], alone[r]) for r in range(height))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(g=instances())
def test_threshold_ordering(g):
    t = thresholds(g)
    star, _ = pi1_star(g.alpha)
    assert t.pi_tilde1 <= 1.0 + ORDER_TOL
    assert 1.0 <= t.pi1 + ORDER_TOL
    assert t.pi1 <= t.pi2
    assert 1.0 <= star + ORDER_TOL
    assert star <= t.pi1 + ORDER_TOL


@settings(max_examples=100, deadline=None, derandomize=True)
@given(g=instances(), pi=st.floats(0.2, 5.0), seed=st.integers(0, 2**32 - 1))
def test_jacobian_matches_central_differences(g, pi, seed):
    s = SystemInstance(graph=g, psi=hd.tanh_family(), pi=pi)
    x = np.random.default_rng(seed).uniform(-2.0, 2.0, g.n)
    h = 1e-6
    steps = h * np.eye(g.n)
    diff = (vector_field(s, x + steps) - vector_field(s, x - steps)).T / (2.0 * h)
    assert np.abs(jacobian(s, x) - diff).max() <= 1e-7 * max(1.0, np.abs(diff).max())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(g=instances(), pi=st.floats(0.2, 5.0))
def test_consensus_equilibria_are_the_consensus_roots(g, pi):
    psi = hd.tanh_family()
    found = sorted(float(eq.state.mean()) for eq in find_all(SystemInstance(g, psi, pi))
                   if eq.is_consensus and eq.state.mean() > ORIGIN_GAP)
    roots = [r for r in consensus_roots(ScalarReduced(alpha=g.alpha, pi=pi), psi)
             if r > ORIGIN_GAP]
    assert len(found) == len(roots)
    assert all(abs(c - r) <= 1e-9 for c, r in zip(found, roots))
