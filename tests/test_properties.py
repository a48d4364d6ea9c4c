"""Properties of random valid instances, drawn with ``random_instance``.

Each test draws 2 to 8 agents, a pairwise density, a triple density, a
shared ratio (0 for two agents, which have no admissible triples) and a
seed, with a fixed example sequence so every run checks the same draws.
"""
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hyperdecide as hd
from hyperdecide.dynamics import (RESIDUAL_TOL, SystemInstance, _check_state, _field_of,
                                  _jacobian, _rk4_rows, integrate, jacobian, vector_field)
from hyperdecide.errors import DivergenceError
from hyperdecide import bifurcation, equilibria
from hyperdecide.equilibria import (ScalarReduced, _newton_rows, _search_grid, consensus_gap,
                                    consensus_roots, equilibria_csv, find_all, pi1_star)
from hyperdecide.hypergraph import _pair_rows, _received_mass, _triple_term_of
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
        assert np.all(np.abs(_triple_term_of(g)(p) - term) <= CONTRACTION_RTOL * scale)
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
    calls = [(_triple_term_of(g), P), (lambda x: _pair_rows(g, x), P),
             (lambda x: vector_field(s, x), X), (lambda x: jacobian(s, x), X)]
    for fn, rows in calls:
        alone = [fn(row) for row in rows]
        for height in range(1, m + 1):
            stacked = fn(rows[:height])
            assert all(np.array_equal(stacked[r], alone[r]) for r in range(height))
    # the RK4 stages' call: a 0-d effort, and for one row the .dot branch,
    # against the public field's stacked matmul rows
    field = _field_of(g, s.psi)
    for height in range(1, m + 1):
        stacked = vector_field(s, X[:height])
        assert np.array_equal(field(X[:height], np.array(pi)), stacked)
        assert all(np.array_equal(field(X[r], np.array(pi)), stacked[r]) for r in range(height))


# transmission that turns NaN past |x| = 1: a row heading there blows up
NAN_TAIL = hd.SigmoidFamily(eval=lambda x: np.where(np.abs(x) < 1.0, np.tanh(x), np.nan),
                            deriv=hd.tanh_family().deriv, deriv2=hd.tanh_family().deriv2,
                            name="tanh-nan-tail")


def reference_rk4(g, pi, x0, dt, t_max, transmit):
    """A plain one-state RK4 loop in the integrator's arithmetic, written
    out: p = transmit(x), a2.dot(p), one reduceat segment sum per agent of
    p_j p_k w, 0-d effort and step factors, and the guard and the residual
    stop on abs-max tests. (times, states, converged, final residual),
    (step, DivergenceError message) of a run that passes its guard, or the
    ValueError message of a step count round(t_max / dt) of 0."""
    t = g.triples
    pi, half, full, sixth, two = (np.array(v) for v in (pi, 0.5 * dt, dt, dt / 6.0, 2.0))

    def field(x):
        p = transmit(x)
        triple = np.add.reduceat(p[t.term_j] * p[t.term_k] * t.term_w, t.term_starts)
        return pi * (g.a2.dot(p) + triple) - g.degrees * x

    limit = max(1e6, 10.0 * float(pi), 10.0 * float(np.abs(x0).max()))
    n_steps = int(round(t_max / dt))
    if not n_steps:
        return f"t_max / dt = {t_max:g} / {dt:g} gives no step; at least 1 is needed"
    x, states = x0, [x0]
    for k in range(n_steps):
        if not np.abs(x).max() <= limit:
            return k, f"state component exceeded {limit:g} at t={k * dt:.6g}"
        k1 = field(x)
        residual = np.abs(k1).max()
        if residual < RESIDUAL_TOL:
            return np.arange(k + 1) * dt, np.array(states), True, float(residual)
        k2 = field(x + half * k1)
        k3 = field(x + half * k2)
        k4 = field(x + full * k3)
        x = x + sixth * (k1 + two * k2 + two * k3 + k4)
        states.append(x)
    if not np.abs(x).max() <= limit:
        return n_steps, f"state component exceeded {limit:g} at t={t_max:.6g}"
    residual = float(np.abs(field(x)).max())
    return np.arange(n_steps + 1) * dt, np.array(states), residual < RESIDUAL_TOL, residual


def assert_rk4_matches_reference(s, X0, dt, t_max):
    """``integrate`` from every row of ``X0`` and every row of one
    ``_rk4_rows`` stack, bit for bit against ``reference_rk4``; a stack
    with a diverging row raises the message of the row that diverges first
    (the lowest row at that step); a step count of 0 is refused by both
    with the reference's message. The outcome of each row: "converged",
    "t_max", "diverged" or "refused"."""
    refs = [reference_rk4(s.graph, s.pi, x0, dt, t_max, s.psi.eval) for x0 in X0]
    if isinstance(refs[0], str):
        for x0 in X0:
            with pytest.raises(ValueError) as err:
                integrate(s, x0, dt, t_max)
            assert str(err.value) == refs[0]
        with pytest.raises(ValueError) as err:
            _rk4_rows(s, X0, dt, t_max)
        assert str(err.value) == refs[0]
        return ["refused"] * len(X0)

    def assert_same(run, ref):
        # repr: the same residual bits, NaN included
        assert (run.converged, repr(run.final_residual)) == (ref[2], repr(ref[3]))
        assert run.times.tobytes() == ref[0].tobytes()
        assert run.states.shape == ref[1].shape and run.states.tobytes() == ref[1].tobytes()

    for x0, ref in zip(X0, refs):
        if len(ref) == 2:
            with pytest.raises(DivergenceError) as err:
                integrate(s, x0, dt, t_max)
            assert str(err.value) == ref[1]
        else:
            assert_same(integrate(s, x0, dt, t_max), ref)
    diverged = [(ref[0], r) for r, ref in enumerate(refs) if len(ref) == 2]
    if diverged:
        with pytest.raises(DivergenceError) as err:
            _rk4_rows(s, X0, dt, t_max)
        assert str(err.value) == refs[min(diverged)[1]][1]
    else:
        for run, ref in zip(_rk4_rows(s, X0, dt, t_max), refs):
            assert_same(run, ref)
    return ["diverged" if len(ref) == 2 else "converged" if ref[2] else "t_max" for ref in refs]


INST5 = hd.random_instance(5, 0.8, 0.2, 1.0, 1)


@st.composite
def rk4_instances(draw):
    """An instance as ``instances`` draws it; the 5-agent example under a
    drawn relabelling, one term entry per agent; or 4 to 8 agents with dense
    triples, several entries per agent, as drawn or with agent 0's triples
    or all triples removed (an agent without triples keeps one zero-weight
    entry)."""
    kind = draw(st.sampled_from(["drawn", "relabelled", "dense", "agent 0 bare", "no triples"]))
    if kind == "drawn":
        return draw(instances())
    if kind == "relabelled":
        perm = np.array(draw(st.permutations(range(5))))
        g = hd.build(INST5.a2[np.ix_(perm, perm)], INST5.b[np.ix_(perm, perm, perm)])
    else:
        g = hd.random_instance(draw(st.integers(4, 8)), draw(st.floats(0.5, 1.0)),
                               draw(st.floats(0.6, 1.0)), draw(st.floats(0.1, 3.0)),
                               draw(st.integers(0, 2**32 - 1)))
        if kind != "dense":
            b = np.array(g.b)
            b[0 if kind == "agent 0 bare" else slice(None)] = 0.0
            g = hd.build(g.a2, b)
    t = g.triples
    assert (t.term_starts.size == t.term_j.size) == (kind in ("relabelled", "no triples"))
    return g


@settings(max_examples=60, deadline=None, derandomize=True)
@given(g=rk4_instances(), pi=st.floats(0.2, 3.0), seed=st.integers(0, 2**32 - 1),
       scales=st.lists(st.sampled_from([0.0, 1e-9, 1e-4, 0.05, 0.5, 3.0, 2e6]), min_size=1,
                       max_size=6),
       dt=st.sampled_from([0.1, 0.25, 1.0, 3.0]), t_max=st.floats(0.5, 40.0),
       nan_tail=st.booleans())
# rows that stop at steps 0, 24 and 143 and reach t_max at 200
@example(g=INST5, pi=0.5, seed=0, scales=[0.0, 1e-9, 1e-4, 0.05, 3.0, 2e6], dt=0.1,
         t_max=20.0, nan_tail=False)
# rows that stop at step 0, reach t_max and turn NaN at t = 0.1
@example(g=INST5, pi=1.7, seed=0, scales=[0.0, 0.05, 3.0], dt=0.1, t_max=20.0, nan_tail=True)
# dt > 2 t_max: round(t_max / dt) is 0 steps, refused by both paths
@example(g=INST5, pi=1.7, seed=0, scales=[0.0, 3.0], dt=3.0, t_max=1.0, nan_tail=True)
def test_rk4_rows_equal_one_state_runs(g, pi, seed, scales, dt, t_max, nan_tail):
    # bitwise against the reference loop, on instances with one term entry
    # per agent, several, or agents without triples, whether a row stops at
    # step 0, stops later, reaches t_max or, at the larger steps, leaves
    # RK4's stability region and passes its guard; a 2e6 start has a guard
    # of its own (2e7); the stack raises exactly when one of its rows alone
    # does, with that row's message; dt > 2 t_max gives no step, which both
    # refuse
    s = SystemInstance(graph=g, psi=NAN_TAIL if nan_tail else hd.tanh_family(), pi=pi)
    X0 = np.random.default_rng(seed).uniform(-1.0, 1.0, (len(scales), g.n))
    X0 *= np.array(scales)[:, None]
    assert_rk4_matches_reference(s, X0, dt, t_max)


@pytest.mark.parametrize("g, pi, scale, dt, t_max, outcome", [
    (INST5, 0.5, 0.5, 0.1, 40.0, "converged"),
    (INST5, 1.7, 0.5, 0.1, 3.0, "t_max"),
    (INST5, 1.7, 0.5, 3.0, 40.0, "diverged"),
    (hd.random_instance(6, 0.8, 1.0, 0.5, 4), 0.5, 0.5, 0.1, 40.0, "converged"),
    (hd.random_instance(6, 0.8, 1.0, 0.5, 4), 2.5, 3.0, 0.25, 5.0, "t_max"),
    (hd.random_instance(6, 0.8, 1.0, 0.5, 4), 2.5, 3.0, 3.0, 40.0, "diverged"),
])
def test_rk4_reference_outcomes(g, pi, scale, dt, t_max, outcome):
    # each instance kind with a start that converges, one that reaches t_max
    # and one that diverges, alone and stacked with a smaller start
    s = SystemInstance(graph=g, psi=hd.tanh_family(), pi=pi)
    x0 = scale * np.linspace(-1.0, 1.0, g.n) + 0.1
    assert assert_rk4_matches_reference(s, np.array([x0, 1e-3 * x0]), dt, t_max)[0] == outcome


# A lone row screens its guard and its stop by dot products; the cases
# below sit where a screen must not decide or must not run, and none may
# raise a RuntimeWarning.

def test_rk4_screens_stay_off_where_squares_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a start whose guard 10 |x0|_inf is near the float maximum
        s = SystemInstance(graph=INST5, psi=hd.tanh_family(), pi=1.0)
        assert assert_rk4_matches_reference(s, 1e307 * np.ones((1, 5)), 0.01, 1.0) == ["t_max"]
        # every weight times 1e150, on a time scale as short: degrees near
        # 1e150 put the field's squares past the float maximum
        big = hd.build(1e150 * INST5.a2, 1e150 * INST5.b)
        s = SystemInstance(graph=big, psi=hd.tanh_family(), pi=1.7)
        X0 = np.array([0.5 * np.ones(5), np.linspace(-3.0, 3.0, 5)])
        assert assert_rk4_matches_reference(s, X0, 1e-152, 1e-150) == ["t_max", "t_max"]


def test_rk4_stop_screen_leaves_the_threshold_to_the_exact_test(c5):
    # no transmission: the field is -2 x exactly, every component the same,
    # so the residual's dot sits at n times its square; a start at
    # -0.4995e-10 has every residual component at 0.999e-10 and stops at
    # step 0, one at -0.5e-10 has them at the tolerance and does not
    still = np.zeros_like
    s = SystemInstance(graph=c5, psi=hd.SigmoidFamily(still, still, still, "still"), pi=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c, steps in ((-0.4995e-10, 0), (-0.5e-10, 1), (-1e-9, None)):
            x0 = np.full((1, 5), c)
            assert assert_rk4_matches_reference(s, x0, 0.1, 20.0) == ["converged"]
            if steps is not None:
                assert integrate(s, x0[0], 0.1, 20.0).times.size == steps + 1


def test_rk4_nan_raises_at_the_reference_step():
    # NaN compares False under both screens, so the exact guard raises
    s = SystemInstance(graph=INST5, psi=NAN_TAIL, pi=1.7)
    X0 = np.array([0.5 * np.ones(5), 0.05 * np.ones(5)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert assert_rk4_matches_reference(s, X0, 0.01, 20.0)[0] == "diverged"



@settings(max_examples=100, deadline=None, derandomize=True)
@given(g=instances(), pi=st.floats(0.05, 5.0))
@example(g=INST5, pi=2.0)  # the origin's marginal level, pi1 = 1 + alpha
def test_origin_spectrum_by_the_symmetric_solver(g, pi):
    # J(0) = pi psi'(0) A2 - D is symmetric bit for bit, so the symmetric
    # solver's top eigenvalue is the general one's up to rounding on the
    # matrix's scale, with the same label; the grid search's origin record
    # is the symmetric one
    psi = hd.tanh_family()
    j = jacobian(SystemInstance(graph=g, psi=psi, pi=pi), np.zeros(g.n))
    assert np.array_equal(j, j.T)
    general, symmetric = (equilibria._classify_rows(g, psi, [pi], np.zeros((1, g.n)), [0.0],
                                                    symmetric=flag)[0] for flag in (False, True))
    scale = pi * g.a2.max() + g.degrees.max()
    assert abs(general.max_real_eig - symmetric.max_real_eig) <= 1e-12 * scale
    assert general.classification == symmetric.classification
    assert equilibria_csv(_search_grid(g, psi, [pi])[0][:1]) == equilibria_csv([symmetric])

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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(g=ratio_instances(),
       grid=st.lists(st.floats(0.05, 5.0), min_size=2, max_size=8, unique=True).map(sorted))
def test_threaded_grid_search_equals_the_serial_one(g, grid):
    # bitwise: one level per chunk, on three worker threads (where BLAS can
    # be pinned to one thread) against one CPU; the levels below the fold
    # floor are not searched, and a lone searched level runs on the caller's
    # thread
    psi = hd.tanh_family()
    searched = sum(pi >= equilibria._fold_floor(g, psi)[0] for pi in grid)
    search_chunk, off_main = equilibria._search_chunk, []
    with equilibria._blas_pin as pinned:
        pass

    def chunk(*args):
        off_main.append(threading.current_thread() is not threading.main_thread())
        return search_chunk(*args)

    with mock.patch.object(equilibria, "_STACK_BUDGET", 1), \
            mock.patch.object(equilibria, "_search_chunk", chunk):
        with mock.patch.object(equilibria, "_usable_cpus", lambda: 3):
            threaded = _search_grid(g, psi, grid)
        assert off_main == [pinned and searched > 1] * searched
        with mock.patch.object(equilibria, "_usable_cpus", lambda: 1):
            serial = _search_grid(g, psi, grid)
    assert not any(off_main[searched:])
    assert [_records(eqs) for eqs in threaded] == [_records(eqs) for eqs in serial]


def plain_bisect(fn, lo, hi, flo):
    """A plain scalar bisection to 1e-12 in at most 200 halvings."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def plain_pi1_star(alpha, psi):
    """The fold level and state of the consensus balance by plain scalar
    bisection of the tangency condition h(e) = e h'(e) on [1e-8, 50]."""
    def h(e):
        p = float(psi.eval(np.asarray(e)))
        return p + alpha * p * p

    def tangency(e):
        p, dp = float(psi.eval(np.asarray(e))), float(psi.deriv(np.asarray(e)))
        return h(e) - e * (dp * (1.0 + 2.0 * alpha * p))

    if alpha == 0.0:
        return 1.0, 0.0
    flo = tangency(1e-8)
    eps = 1e-8 if flo >= 0.0 else plain_bisect(tangency, 1e-8, 50.0, flo)
    return (1.0 + alpha) * eps / h(eps), eps


@st.composite
def floor_instances(draw):
    """A drawn instance as it is (a shared ratio), with each agent's triples
    scaled by a factor of its own (mixed ratios), or with agent 0's triples
    removed (a least ratio of 0)."""
    g = draw(instances())
    b = np.array(g.b)
    kind = draw(st.sampled_from(["shared", "mixed", "bare"]))
    if kind == "mixed":
        scale = draw(st.lists(st.floats(0.2, 3.0), min_size=g.n, max_size=g.n))
        b *= np.reshape(scale, (-1, 1, 1))
    elif kind == "bare":
        b[0] = 0.0
    return hd.build(g.a2, b)


def least_ratio_fold(g, psi):
    """The fold level of the least triple-to-pairwise mass ratio, from the
    dense tensor and a plain bisection."""
    return plain_pi1_star(float((g.b.sum(axis=(1, 2)) / g.a2.sum(axis=1)).min()), psi)[0]


# agent 0 of the paper's example with 4 times its triple mass: ratios 4 and 1
HEAVY0 = hd.build(INST5.a2, INST5.b * np.array([4.0, 1.0, 1.0, 1.0, 1.0])[:, None, None])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(g=floor_instances())
@example(g=HEAVY0)
def test_fold_floor_is_the_least_ratios_fold_level(g):
    psi = hd.tanh_family()
    star = max(1.0, least_ratio_fold(g, psi))
    assert star * (1.0 - 2e-9) <= equilibria._fold_floor(g, psi)[0] <= star


@settings(max_examples=100, deadline=None, derandomize=True)
@given(alphas=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=2).map(sorted))
@example(alphas=[0.0, 1e-9])
def test_pi1_star_is_nondecreasing_in_the_ratio(alphas):
    lo, hi = (pi1_star(alpha)[0] for alpha in alphas)
    assert lo <= hi * (1.0 + 1e-14)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(g=floor_instances(), seed=st.integers(0, 2**32 - 1))
@example(g=HEAVY0, seed=0)
def test_newton_below_the_fold_floor_finds_only_the_origin(g, seed):
    # 400 uniform seeds on [-(pi + 1), pi + 1]^n and 40 on the consensus
    # line: no row converges off the origin just below the floor
    psi = hd.tanh_family()
    floor = equilibria._fold_floor(g, psi)[0]
    for pi in (floor * (1.0 - 1e-3), floor * (1.0 - 1e-6)):
        bound = pi + 1.0
        c = np.linspace(0.0, bound, 21)[1:]
        X0 = np.vstack([np.random.default_rng(seed).uniform(-bound, bound, (400, g.n)),
                        np.outer(np.concatenate([c, -c]), np.ones(g.n))])
        x, _, cause = _newton_rows(g, psi, X0, np.full(len(X0), pi))
        off = (cause == "converged") & (np.abs(x).max(axis=1) >= ORIGIN_GAP)
        assert not off.any(), (pi, x[off][:3])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(g=instances())
@example(g=INST5)
@example(g=hd.random_instance(5, 0.8, 0.2, 1e-5, 1))
def test_fold_floor_is_tight_with_a_shared_ratio(g):
    # just above the floor the consensus balance has a positive root, the
    # pair of them where the fold lies off the origin, and each lifts to an
    # equilibrium of the full field
    psi = hd.tanh_family()
    floor, state = equilibria._fold_floor(g, psi)
    assert state == pi1_star(g.alpha, psi)[1]
    level = floor * (1.0 + 2e-9)
    roots = equilibria._consensus_roots(g.alpha, np.array([level]), psi, state)[0, :2]
    roots = roots[~np.isnan(roots)]
    assert roots.size >= 1
    if g.alpha >= 1e-3:  # a fold away from the origin: the pair
        assert roots.size == 2
    s = SystemInstance(g, psi, level)
    for c in roots.tolist():
        assert np.abs(vector_field(s, np.full(g.n, c))).max() < 1e-9


def plain_consensus_roots(alpha, pi, psi):
    """The positive consensus roots at one level: each piece of [1e-8,
    max(50, 2 pi)] split at the fold state, bisected by scalar calls."""
    r = ScalarReduced(alpha=alpha, pi=pi)
    gap = lambda e: float(consensus_gap(r, e, psi))
    split = max(plain_pi1_star(alpha, psi)[1], 1e-8)
    roots = []
    for lo, hi in ((1e-8, split), (split, max(50.0, 2.0 * pi))):
        flo = gap(lo)
        if flo * gap(hi) < 0.0:
            roots.append(plain_bisect(gap, lo, hi, flo))
    return roots


def plain_negative_root(alpha, pi, psi):
    """The negative consensus root at one level, or None: [-max(50, 2 pi),
    -1e-8] bisected by scalar calls."""
    r = ScalarReduced(alpha=alpha, pi=pi)
    gap = lambda e: float(consensus_gap(r, e, psi))
    lo, hi = -max(50.0, 2.0 * pi), -1e-8
    flo = gap(lo)
    return plain_bisect(gap, lo, hi, flo) if flo * gap(hi) < 0.0 else None


def consensus_grid(pi):
    """+c and -c for each c > 0 of linspace(0, pi + 1, 11), in that order."""
    return [x for c in np.linspace(0.0, pi + 1.0, 11)[1:] for x in (c, -c)]


def seed_rows(s, scales):
    """c * ones for each c of ``scales``, then six ``Generator.uniform``
    rows on [-(pi + 1), pi + 1] from rng seed 0."""
    bound = s.pi + 1.0
    uniform = np.random.default_rng(0).uniform(-bound, bound, (6, s.graph.n))
    return np.vstack([np.outer(scales, np.ones(s.graph.n)), uniform])


def plain_seeds(s):
    """The seed rule at one level, in seed order: with a shared ratio, the
    positive consensus roots and the negative one, or else the consensus
    grid; all times ones; then the uniform rows."""
    alpha = s.graph.alpha
    if alpha is None:
        return seed_rows(s, consensus_grid(s.pi))
    negative = plain_negative_root(alpha, s.pi, s.psi)
    return seed_rows(s, plain_consensus_roots(alpha, s.pi, s.psi)
                     + ([] if negative is None else [negative]))


def old_rule_seeds(s):
    """The seed rule that ignored the invariant consensus line: 0, the
    consensus grid, the positive consensus roots (each followed by its
    negative when alpha = 0), all times ones; then the uniform rows."""
    alpha = s.graph.alpha
    scales = [0.0] + consensus_grid(s.pi)
    if alpha is not None:
        for root in plain_consensus_roots(alpha, s.pi, s.psi):
            scales += [root, -root] if alpha == 0.0 else [root]
    return seed_rows(s, scales)


@st.composite
def ratios_and_levels(draw):
    """A shared ratio (0, tiny, moderate or large) and up to 12 effort
    levels: below the fold level, within a few ulps or a relative 1e-9 or
    1e-3 of it, on the sweep range or up to 1e13. A level tied to the fold
    level is drawn relative to it, ("below", u) or ("near", d), and
    ``fold_levels`` places it, so a draw needs no fold level of its own."""
    alpha = draw(st.one_of(st.just(0.0), st.floats(1e-12, 1e-6), st.floats(1e-6, 3.0),
                           st.floats(3.0, 1e3)))
    below = st.tuples(st.just("below"), st.floats(0.0, 1.0, exclude_max=True))
    near = st.tuples(st.just("near"),
                     st.sampled_from([-1e-3, -1e-9, -1e-15, 0.0, 1e-15, 1e-9, 1e-3]))
    level = st.one_of(below, near, st.floats(0.05, 5.0), st.floats(5.0, 1e13))
    return alpha, draw(st.lists(level, min_size=1, max_size=12))


def fold_levels(star, levels):
    """The drawn ``levels`` with the fold level ``star``: ("below", u) is
    1e-6 + u (star - 1e-6), on [1e-6, star]; ("near", d) is star (1 + d);
    a float is itself."""
    return [lv if isinstance(lv, float) else
            1e-6 + lv[1] * (star - 1e-6) if lv[0] == "below" else star * (1.0 + lv[1])
            for lv in levels]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=ratios_and_levels())
@example(case=(1.0, np.linspace(0.005, 5.0, 1000).tolist()))
@example(case=(0.0, [0.5, 1.0, 1.0 + 1e-15, 1.7, 60.0, 1e13]))
def test_array_bisection_roots_equal_per_level_roots(case):
    # bitwise: one bisection over every level gives each level the roots
    # of its own scalar loop
    alpha, levels = case
    psi = hd.tanh_family()
    star = pi1_star(alpha, psi)
    assert star == plain_pi1_star(alpha, psi)
    levels = fold_levels(star[0], levels)
    roots = equilibria._consensus_roots(alpha, np.array(levels), psi, star[1])
    assert roots.shape == (len(levels), 3)
    for pi, row in zip(levels, roots[:, :2]):
        per_level = consensus_roots(ScalarReduced(alpha=alpha, pi=pi), psi)
        assert row[~np.isnan(row)].tolist() == per_level == plain_consensus_roots(alpha, pi, psi)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=ratios_and_levels())
@example(case=(0.0, [0.5, 1.0, 1.0 + 1e-15, 1.7, 60.0, 1e13]))
@example(case=(1.0, [1.9, 2.0, 2.0 + 1e-9, 2.005, 2.5, 1e13]))
def test_negative_root_column_is_the_plain_bisection(case):
    # bitwise the scalar loop on [-max(50, 2 pi), -1e-8]; and, by a dense
    # sample of the balance on that bracket, which shares no code with the
    # bisection, the balance changes sign there at most once, and does so
    # exactly when pi > 1 + alpha, up to the bracket's end at -1e-8 (where
    # the gap is about 1e-8 ((1 + alpha) (1 + alpha 1e-8) - pi))
    alpha, levels = case
    psi = hd.tanh_family()
    star, state = pi1_star(alpha, psi)
    levels = fold_levels(star, levels)
    column = equilibria._consensus_roots(alpha, np.array(levels), psi, state)[:, 2]
    for pi, root in zip(levels, column.tolist()):
        plain = plain_negative_root(alpha, pi, psi)
        assert np.isnan(root) if plain is None else root == plain
        c = -np.geomspace(max(50.0, 2.0 * pi), 1e-8, 4001)
        t = np.tanh(c)
        gap = -(1.0 + alpha) * c + pi * (t + alpha * t * t)
        signs = np.sign(gap[gap != 0.0])
        changes = np.count_nonzero(signs[:-1] != signs[1:])
        assert changes == (plain is not None)
        if pi <= 1.0 + alpha:
            assert changes == 0
        elif pi > (1.0 + alpha) * (1.0 + 2e-8 * alpha + 1e-12):
            assert changes == 1


@settings(max_examples=50, deadline=None, derandomize=True)
@given(g=ratio_instances(),
       grid=st.lists(st.one_of(st.floats(0.05, 5.0), st.floats(5.0, 1e13)), min_size=1,
                     max_size=40, unique=True).map(sorted),
       budget=st.sampled_from([1, 2_000, 5_000, 100_000]))
def test_chunk_seed_stacks_equal_the_per_level_rule(g, grid, budget):
    # bitwise, chunk by chunk, with every level's row count; one-level
    # chunks may run on threads and finish in any order, so the chunks are
    # compared in the order of their levels
    psi = hd.tanh_family()
    chunks = []

    def record(g_, psi_, pis, sizes, seeds):
        chunks.append((pis.tolist(), sizes.tolist(), seeds))
        return [[] for _ in pis]

    with mock.patch.object(equilibria, "_STACK_BUDGET", budget), \
            mock.patch.object(equilibria, "_search_chunk", record):
        _search_grid(g, psi, grid)
    chunks.sort(key=lambda chunk: chunk[0][0])
    # the levels below the fold floor are not searched
    floor = equilibria._fold_floor(g, psi)[0]
    assert [pi for pis, _, _ in chunks for pi in pis] == [pi for pi in grid if pi >= floor]
    for pis, sizes, seeds in chunks:
        plain = [plain_seeds(SystemInstance(g, psi, pi)) for pi in pis]
        assert sizes == [len(p) for p in plain]
        assert seeds.shape == (sum(sizes), g.n)
        assert seeds.tobytes() == np.vstack(plain).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(g=instances(),
       grid=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=5, unique=True).map(sorted))
@example(g=hd.random_instance(5, 0.8, 0.2, 0.0, 3), grid=[0.5, 1.0, 1.5, 2.5, 4.0])
@example(g=hd.random_instance(5, 0.8, 0.2, 1.0, 1), grid=[1.0, 1.7, 2.0, 2.005, 2.5])
def test_root_seeds_find_what_the_grid_seeds_found(g, grid):
    # with a shared ratio the consensus line holds only the origin and the
    # roots of the scalar balance, so seeding it with the roots finds what
    # the old rule's 20-point grid found: the same count, labels and
    # consensus flags, and states equal by the search's own test; the
    # origin, first at every level, is no search result
    psi = hd.tanh_family()
    for pi, eqs in zip(grid, _search_grid(g, psi, grid)):
        assert (eqs[0].state.tobytes(), eqs[0].residual) == (np.zeros(g.n).tobytes(), 0.0)
        seeds = old_rule_seeds(SystemInstance(g, psi, pi))
        old = equilibria._search_chunk(g, psi, np.array([pi]), np.array([len(seeds)]), seeds)[0]
        assert [(eq.classification, eq.is_consensus) for eq in eqs[1:]] == \
            [(eq.classification, eq.is_consensus) for eq in old]
        for a, b in zip(eqs[1:], old):
            assert equilibria._same_equilibrium(a.state, b.state)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(g=ratio_instances(), weight=st.sampled_from([1.0, 1e-10]),
       levels=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1,
                       max_size=4))
@example(g=hd.random_instance(5, 0.8, 0.2, 0.0, 3), weight=1e-10,
         levels=[0.5, 0.9, 0.99, 0.999, 1.0 - 2.0 ** -52])
@example(g=hd.random_instance(5, 0.8, 0.2, 1.0, 1), weight=1e-10, levels=[0.5, 0.9, 0.999])
def test_levels_below_one_are_the_origin_alone(g, weight, levels):
    # below effort 1 the search returns the origin alone, and Newton from
    # the full seed stack of the level keeps nothing else, also where the
    # weights are tiny and every residual is below the tolerance
    g = hd.build(g.a2 * weight, g.b * weight)
    psi = hd.tanh_family()
    for pi in levels:
        seeds = plain_seeds(SystemInstance(g, psi, pi))
        searched = equilibria._search_chunk(g, psi, np.array([pi]), np.array([len(seeds)]),
                                            seeds)[0]
        eqs = find_all(SystemInstance(g, psi, pi))
        assert _records(eqs[1:]) == _records(searched) == []
        assert [(eq.state.tobytes(), eq.residual) for eq in eqs] == [(np.zeros(g.n).tobytes(), 0.0)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(g=ratio_instances(), levels=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4))
def test_newton_leaves_the_zero_seed_in_place(g, levels):
    # the origin record the search puts first at every level without
    # Newton is where Newton leaves a zero start, at drawn levels and at the
    # origin's crossing pi1, where J(0) is singular
    levels = np.array(levels + [thresholds(g).pi1])
    for rows in ([[r] for r in range(levels.size)], [list(range(levels.size))]):
        for r in rows:
            x, res, cause = _newton_rows(g, hd.tanh_family(), np.zeros((len(r), g.n)), levels[r])
            assert x.tobytes() == np.zeros((len(r), g.n)).tobytes()  # +0.0, sign bits too
            assert res.tobytes() == np.zeros(len(r)).tobytes()
            assert cause.tolist() == ["converged"] * len(r)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(g=ratio_instances(),
       grid=st.lists(st.floats(0.05, 5.0), min_size=2, max_size=6, unique=True).map(sorted))
def test_the_origin_steps_onto_itself(g, grid):
    # the route the sweep no longer takes for the origin: its tangent step
    # to the next level gives +0.0 there, the step back stands, and the
    # prediction lies at distance 0.0; the origin's branch spans the grid
    psi = hd.tanh_family()
    zero = np.zeros((1, g.n))
    for a, b in zip(grid, grid[1:]):
        y, _, pred, ok = bifurcation._step(g, psi, zero, np.array([[a]]), np.array([[b]]))
        assert ok.tolist() == [True] and y.tobytes() == zero.tobytes()
        back, _, _, back_ok = bifurcation._step(g, psi, y, np.array([[b]]), np.array([[a]]))
        assert back_ok.tolist() == [True] and equilibria._same_equilibrium(back, zero).all()
        assert np.abs(pred - zero).max() == 0.0
    origin = hd.sweep(g, psi, grid).branches[0]
    assert origin.pis().tolist() == grid
    assert origin.states().tobytes() == np.zeros((len(grid), g.n)).tobytes()


@st.composite
def windowed_instances(draw):
    """Shared-ratio instances of 3 to 8 agents, the ratio on [0.05, 3]."""
    return hd.random_instance(draw(st.integers(3, 8)), draw(st.floats(0.5, 1.0)),
                              draw(st.floats(0.3, 1.0)), draw(st.floats(0.05, 3.0)),
                              draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(g=windowed_instances())
def test_bistable_window_by_sampling_and_the_metzler_identity(g):
    # the window is stated in closed form; the reference is the sampling it
    # replaced: at five interior levels the origin and Newton from the
    # lifted upper root c * ones are both stable, and Newton stays on c *
    # ones, the basin probe's target. There J ones is the pairwise mass
    # times gap'(c), the identity the closed form rests on. Past the ends,
    # the origin is unstable just above pi1, and just below pi1_star there
    # is no consensus root
    psi = hd.tanh_family()
    alpha, ones, mass = g.alpha, np.ones(g.n), g.a2.sum(axis=1)
    lo, hi = bifurcation.bistability_interval(g, psi)
    for t in range(1, 6):
        pi = lo + (hi - lo) * t / 6.0
        s = SystemInstance(g, psi, pi)
        c = max(consensus_roots(ScalarReduced(alpha=alpha, pi=pi), psi))
        assert equilibria.classify(s, np.zeros(g.n)).classification == "stable"
        upper = hd.newton_find(s, c * ones)
        assert upper.classification == "stable"
        assert np.abs(upper.state - c).max() < 1e-9
        j = jacobian(s, c * ones)
        slope = -(1.0 + alpha) + pi * (1.0 - np.tanh(c) ** 2) * (1.0 + 2.0 * alpha * np.tanh(c))
        assert np.abs(j @ ones - mass * slope).max() <= 1e-12 * np.abs(j).sum(axis=1).max()
    above = SystemInstance(g, psi, hi * (1.0 + 1e-6))
    assert equilibria.classify(above, np.zeros(g.n)).classification == "unstable"
    assert consensus_roots(ScalarReduced(alpha=alpha, pi=lo * (1.0 - 1e-6)), psi) == []


def seed_order_dedup(xs, causes, sizes):
    """The kept rows of each level of a stack: the converged rows after a
    kept zero row, the first left kept and every row equal to it dropped, in
    seed order; the zero row left out, the rest sorted by sup norm, then by
    the components."""
    kept, start = [], 0
    for size in sizes:
        rows = start + np.flatnonzero(causes[start:start + size] == "converged")
        rows = rows[~equilibria._same_equilibrium(xs[rows], np.zeros(xs.shape[1]))]
        found = []
        while rows.size:
            found.append(rows[0])
            rows = rows[~equilibria._same_equilibrium(xs[rows], xs[rows[0]])]
        found.sort(key=lambda i: (float(np.abs(xs[i]).max()), tuple(xs[i])))
        kept.append(found)
        start += size
    return kept


@st.composite
def planted_stacks(draw):
    """States of a stack of 1 to 5 levels at scale 1, 1e6 or 1e9, some
    components +0.0 or -0.0, a fifth of the rows not converged, and about
    half the rows copies of an earlier row of their level moved off it, in a
    zero component, by the dedup threshold of that row or the next float
    either side of it, and in the largest component by up to 4 ulps."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, sizes = draw(st.integers(2, 4)), draw(st.lists(st.integers(1, 9), min_size=1, max_size=5))
    xs = rng.uniform(-1.0, 1.0, (sum(sizes), n)) * draw(st.sampled_from([1.0, 1e6, 1e9]))
    xs[rng.random(xs.shape) < 0.2] = 0.0
    xs[rng.random(xs.shape) < 0.1] = -0.0
    causes = np.where(rng.random(len(xs)) < 0.8, "converged", "diverged").astype(object)
    start = 0
    for size in sizes:
        for j in range(start + 1, start + size):
            if rng.random() < 0.5:
                i = rng.integers(start, j)
                big = int(np.abs(xs[i]).argmax())
                k = (big + 1 + rng.integers(n - 1)) % n
                xs[i, k] = rng.choice([0.0, -0.0])
                thr = max(1e-6, 1e-12 * np.abs(xs[i]).max())
                xs[j] = xs[i]
                xs[j, k] = rng.choice([-1.0, 1.0]) * rng.choice(
                    [np.nextafter(thr, 0.0), thr, np.nextafter(thr, np.inf)])
                for _ in range(rng.integers(5)):
                    xs[j, big] = np.nextafter(xs[j, big], rng.choice([-np.inf, np.inf]))
        start += size
    return xs, causes, sizes


# the relative term decides: row 1 lies exactly at row 0's threshold, below
# the threshold of its own, larger sup norm
BOUNDARY = (np.array([[1e9, 0.0], [np.nextafter(np.nextafter(1e9, 2e9), 2e9), 1e-12 * 1e9]]),
            np.array(["converged", "converged"], dtype=object), [2])
# the origin's distance: rows below 1e-6 in sup norm are the origin, a row
# at 1e-6 is not, whatever its sign bits
ORIGIN_EDGE = (np.array([[np.nextafter(1e-6, 0.0), -0.0], [-1e-6, 0.0], [0.0, -0.0], [0.5, 0.5]]),
               np.array(["converged"] * 4, dtype=object), [4])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stack=planted_stacks())
@example(stack=BOUNDARY)
@example(stack=ORIGIN_EDGE)
def test_chunk_dedup_equals_the_seed_order_scan(stack):
    # the chunk's array pass keeps and orders, level by level, the rows the
    # per-level scan keeps after a kept zero row (the origin), with the
    # tolerance of the earlier row
    xs, causes, sizes = stack
    g = hd.random_instance(xs.shape[1], 0.8, 0.5, 0.0, 0)
    pis = 1.0 + np.arange(len(sizes))
    newton = lambda g_, psi, X0, pi: (xs.copy(), np.zeros(len(xs)), causes)
    classify = lambda g_, psi, levels, X, res: list(zip(levels, (x.tobytes() for x in X)))
    with mock.patch.object(equilibria, "_newton_rows", newton), \
            mock.patch.object(equilibria, "_classify_rows", classify):
        # the stand-in Newton gives every row its planted state
        found = equilibria._search_chunk(g, hd.tanh_family(), pis, np.array(sizes),
                                         np.ones_like(xs))
    plain = seed_order_dedup(xs, causes, sizes)
    assert found == [[(pi, xs[i].tobytes()) for i in rows] for pi, rows in zip(pis, plain)]


def sequential_newton_rows(s, X0, pi, log=None):
    """The Newton loop of ``_newton_rows`` with the line search that tries
    one damping factor at a time, 2^-1 down to 2^-29, each one field call
    for every row still searching; every matrix solved on its own.
    ``log`` collects (factor index, row) of every standstill."""
    g, psi = s.graph, s.psi
    field = _field_of(g, psi)
    x = np.array(_check_state(s, X0), dtype=float)
    pi = np.reshape(pi, (-1, 1))
    limit = np.maximum(1e12, 10.0 * pi[:, 0])
    fx = field(x, pi)
    res = np.abs(fx).max(axis=1)
    step_inf = np.full(len(x), np.inf)
    cause = np.full(len(x), "diverged", dtype=object)
    live = np.arange(len(x))
    for _ in range(100):
        done = (res[live] < 1e-13) & (step_inf[live] < 1e-9)
        cause[live[done]] = "converged"
        live = live[~done]
        live = live[(np.abs(x[live]).max(axis=1) <= limit[live]) & np.isfinite(res[live])]
        if not live.size:
            break
        j, rhs = _jacobian(g, psi, pi[live], x[live]), -fx[live]
        step, solved = np.empty_like(rhs), np.ones(live.size, dtype=bool)
        for k in range(live.size):
            try:
                step[k] = np.linalg.solve(j[k], rhs[k])
            except np.linalg.LinAlgError:
                solved[k] = False
        failed = live[~solved]
        cause[failed] = np.where(res[failed] < RESIDUAL_TOL, "converged", "singular")
        live, step = live[solved], step[solved]
        step_inf[live] = np.abs(step).max(axis=1)
        x_l, r_l, pi_l = x[live], res[live], pi[live]
        x_new = x_l + step
        f_new = field(x_new, pi_l)
        r_new = np.abs(f_new).max(axis=1)
        moved = (x_new != x_l).any(axis=1)
        better = moved & (r_new < r_l)
        pending = np.flatnonzero(moved & ~better)
        for i, lam in enumerate(0.5 ** np.arange(1, 30), start=1):
            trial = x_l[pending] + lam * step[pending]
            go = (trial != x_l[pending]).any(axis=1)
            if log is not None:
                log += [(i, int(live[r])) for r in pending[~go]]
            pending, trial = pending[go], trial[go]
            if not pending.size:
                break
            f_t = field(trial, pi_l[pending])
            r_t = np.abs(f_t).max(axis=1)
            hit = r_t < r_l[pending]
            k = pending[hit]
            x_new[k], f_new[k], r_new[k], better[k] = trial[hit], f_t[hit], r_t[hit], True
            pending = pending[~hit]
        stuck = live[~better]
        cause[stuck] = np.where(res[stuck] < RESIDUAL_TOL, "converged", "stalled")
        live = live[better]
        x[live], fx[live], res[live] = x_new[better], f_new[better], r_new[better]
    cause[live] = np.where(res[live] < RESIDUAL_TOL, "converged", "diverged")
    return x, res, cause


def rounded_tanh(quantum):
    """tanh rounded to multiples of ``quantum`` (tanh itself for 0): the
    residual cannot fall much below the quantum, so rows stall, and a row's
    standstill factor follows its step size."""
    tanh = hd.tanh_family()
    if not quantum:
        return tanh
    return hd.SigmoidFamily(eval=lambda x: np.round(np.tanh(x) / quantum) * quantum,
                            deriv=tanh.deriv, deriv2=tanh.deriv2, name="rounded-tanh")


def line_search_case(g, quantum, seed, m, seed_rule):
    """The system and the starts (X0, levels): m uniform rows on [-3, 3]^n
    at uniform levels on [0.2, 5], after the old seed rule's stack at the
    first level when ``seed_rule``."""
    rng = np.random.default_rng(seed)
    X0, levels = rng.uniform(-3.0, 3.0, (m, g.n)), rng.uniform(0.2, 5.0, m)
    s = SystemInstance(graph=g, psi=rounded_tanh(quantum), pi=float(levels[0]))
    if seed_rule:
        seeds = old_rule_seeds(SystemInstance(g, hd.tanh_family(), s.pi))
        X0, levels = np.vstack([seeds, X0]), np.concatenate([np.full(len(seeds), s.pi), levels])
    return s, X0, levels


# inst5 with tanh rounded to 2^-30, 30 random starts: 6 rows stall, 5
# diverge, and rows stand still at halvings 15, 16, 18, 25 and 28, at the
# end, at the start and inside a block
STALLING_CASE = dict(quantum=2.0 ** -30, seed=0, m=30, seed_rule=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(g=instances(), quantum=st.sampled_from([0.0, 2.0 ** -40, 2.0 ** -30, 2.0 ** -20]),
       seed=st.integers(0, 2**32 - 1), m=st.integers(1, 30), seed_rule=st.booleans())
@example(g=hd.random_instance(5, 0.8, 0.2, 1.0, 1), **STALLING_CASE)
# one row, standing still at halving 20
@example(g=hd.random_instance(5, 0.8, 0.2, 1.0, 1), quantum=2.0 ** -20, seed=3, m=1,
         seed_rule=False)
@example(g=hd.random_instance(5, 0.8, 0.2, 1.0, 1), quantum=0.0, seed=1, m=4, seed_rule=True)
def test_block_line_search_equals_sequential_halving(g, quantum, seed, m, seed_rule):
    # bitwise states, residuals and causes, with rows that stall, converge,
    # diverge or stand still at any factor of a block
    s, X0, levels = line_search_case(g, quantum, seed, m, seed_rule)
    x, res, cause = _newton_rows(s.graph, s.psi, X0, levels)
    ref_x, ref_res, ref_cause = sequential_newton_rows(s, X0, levels)
    assert x.tobytes() == ref_x.tobytes()
    assert res.tobytes() == ref_res.tobytes()
    assert cause.tolist() == ref_cause.tolist()


def test_stalling_case_stalls_and_stands_still_inside_blocks():
    # the first explicit example above reaches the cases it is there for
    log = []
    s, X0, levels = line_search_case(hd.random_instance(5, 0.8, 0.2, 1.0, 1), **STALLING_CASE)
    _, _, cause = sequential_newton_rows(s, X0, levels, log)
    assert "stalled" in cause.tolist()
    block_starts = np.cumsum([1] + [len(b) for b in equilibria._LINE_BLOCKS])[:-1]
    assert any(i not in block_starts for i, _ in log)
