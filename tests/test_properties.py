"""Properties of random valid instances, drawn with ``random_instance``.

Each test draws 2 to 8 agents, a pairwise density, a triple density, a
shared ratio (0 for two agents, which have no admissible triples) and a
seed, with a fixed example sequence so every run checks the same draws.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hyperdecide as hd
from hyperdecide.dynamics import (RESIDUAL_TOL, SystemInstance, _rk4_rows, integrate, jacobian,
                                  vector_field)
from hyperdecide.errors import DivergenceError
from hyperdecide import equilibria
from hyperdecide.equilibria import (ScalarReduced, _search_grid, consensus_roots, find_all,
                                    pi1_star)
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


# transmission that turns NaN past |x| = 1: a row heading there blows up
NAN_TAIL = hd.SigmoidFamily(eval=lambda x: np.where(np.abs(x) < 1.0, np.tanh(x), np.nan),
                            deriv=hd.tanh_family().deriv, deriv2=hd.tanh_family().deriv2,
                            name="tanh-nan-tail")


def plain_rk4(s, x0, dt, t_max):
    """A plain one-state RK4 loop with the residual stop: times, states,
    converged, final residual."""
    x, times, states = x0, [0.0], [x0]
    for k in range(int(round(t_max / dt))):
        k1 = vector_field(s, x)
        residual = float(np.abs(k1).max())
        if residual < RESIDUAL_TOL:
            return np.array(times), np.array(states), True, residual
        k2 = vector_field(s, x + 0.5 * dt * k1)
        k3 = vector_field(s, x + 0.5 * dt * k2)
        k4 = vector_field(s, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        times.append((k + 1) * dt)
        states.append(x)
    residual = float(np.abs(vector_field(s, x)).max())
    return np.array(times), np.array(states), residual < RESIDUAL_TOL, residual


@settings(max_examples=60, deadline=None, derandomize=True)
@given(g=instances(), pi=st.floats(0.2, 3.0), seed=st.integers(0, 2**32 - 1),
       scales=st.lists(st.sampled_from([0.0, 1e-9, 1e-4, 0.05, 0.5, 3.0, 2e6]), min_size=1,
                       max_size=6),
       dt=st.sampled_from([0.1, 0.25]), t_max=st.floats(0.5, 20.0), nan_tail=st.booleans())
# rows that stop at steps 0, 24 and 143 and reach t_max at 200
@example(g=hd.random_instance(5, 0.8, 0.2, 1.0, 1), pi=0.5, seed=0,
         scales=[0.0, 1e-9, 1e-4, 0.05, 3.0, 2e6], dt=0.1, t_max=20.0, nan_tail=False)
# rows that stop at step 0, reach t_max and turn NaN at t = 0.1
@example(g=hd.random_instance(5, 0.8, 0.2, 1.0, 1), pi=1.7, seed=0, scales=[0.0, 0.05, 3.0],
         dt=0.1, t_max=20.0, nan_tail=True)
def test_rk4_rows_equal_one_state_runs(g, pi, seed, scales, dt, t_max, nan_tail):
    # bitwise against a plain loop, whether a row stops at step 0, stops
    # later or reaches t_max; a 2e6 start has a guard of its own (2e7); the
    # stack raises exactly when one of its rows alone does
    s = SystemInstance(graph=g, psi=NAN_TAIL if nan_tail else hd.tanh_family(), pi=pi)
    X0 = np.random.default_rng(seed).uniform(-1.0, 1.0, (len(scales), g.n))
    X0 *= np.array(scales)[:, None]
    try:
        alone = [integrate(s, x0, dt, t_max) for x0 in X0]
    except DivergenceError:
        with pytest.raises(DivergenceError):
            _rk4_rows(s, X0, dt, t_max)
        return
    stacked = _rk4_rows(s, X0, dt, t_max)
    assert len(stacked) == len(alone)
    for x0, a, b in zip(X0, alone, stacked):
        times, states, converged, residual = plain_rk4(s, x0, dt, t_max)
        for run in (a, b):
            assert run.times.tobytes() == times.tobytes()
            assert run.states.shape == states.shape
            assert run.states.tobytes() == states.tobytes()
            assert (run.converged, run.final_residual) == (converged, residual)


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


@st.composite
def ratio_instances(draw):
    """A drawn instance, or the same one with agent 0's triples scaled by 1.5,
    so that no ratio is shared when agent 0 has triples."""
    g = draw(instances())
    if g.n > 2 and draw(st.booleans()):
        b = np.array(g.b)
        b[0] *= 1.5
        g = hd.build(g.a2, b)
    return g


def _records(eqs):
    return [(eq.state.tobytes(), eq.pi, eq.residual, eq.max_real_eig, eq.classification,
             eq.is_consensus) for eq in eqs]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(g=ratio_instances(),
       grid=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=5, unique=True).map(sorted),
       budget=st.sampled_from([1, 2_000, 5_000, 100_000]))
def test_grid_search_levels_equal_find_all(g, grid, budget):
    # bitwise, whether the levels share one Newton stack or split into
    # chunks of one or more levels
    psi = hd.tanh_family()
    with mock.patch.object(equilibria, "_STACK_BUDGET", budget):
        per_level = _search_grid(g, psi, grid)
    assert len(per_level) == len(grid)
    for pi, eqs in zip(grid, per_level):
        assert _records(eqs) == _records(find_all(SystemInstance(g, psi, pi)))
