"""Frozen-value and dual-route checks for the equilibrium layer.

Reference constants were produced by independent scalar routes (dense-grid
bracketing plus bisection, cross-checked with mpmath at 50 digits) before
this module existed; the suite re-derives several of them at run time with
scipy.optimize.brentq as a second opinion.
"""
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

import hyperdecide as hd
import hyperdecide.equilibria as equilibria
from hyperdecide.dynamics import SystemInstance, jacobian, vector_field
from hyperdecide.equilibria import (
    Equilibrium,
    ScalarReduced,
    consensus_gap,
    consensus_roots,
    equilibria_csv,
    find_all,
    newton_find,
    normal_form_coeffs,
    pi1_star,
    _newton_raw,
    _newton_rows,
)
from hyperdecide.errors import NewtonDivergence, SingularJacobian
from hyperdecide.spectra import general_eigenvalues, perron_pair, thresholds

GAP_1_2_1 = 0.6832396286834772  # consensus gap at eps=1, effort 2, ratio 1

ROOTS = {
    (1.0, 1.7): (0.19349593542768098, 1.437191980240933),
    (1.0, 2.0): (1.8603769981339608,),
    (1.0, 2.5): (2.444201130371847,),
    (1.0, 1.445): (0.6736892615574411, 0.7636774310133735),
    (1.0, 1.44): (),
    (1.0, 1.0): (),
    (0.0, 1.05): (0.389241019198425,),
    (0.0, 2.0): (1.9150080481545375,),
    (0.0, 3.2): (3.189151201868585,),
    (0.5, 1.4): (0.1633099735770581, 0.9339369384225144),
}

FOLDS = {
    0.25: (1.1995289000293465, 0.3283385797639385),
    0.5: (1.3180028574358012, 0.5248168448044103),
    1.0: (1.4436264328094527, 0.7181638656289721),
    2.0: (1.5487506911501854, 0.8678710952078794),
}

# negative-side consensus magnitudes t solving (1+a) t = pi (psi(t) - a psi(t)^2)
NEG_BRANCH = {2.05: 0.0242044548503, 2.5: 0.1924865962643691,
              3.0: 0.321172596523, 5.0: 0.618695162311}

K1_INST5 = -0.03076371285893627
K2_INST5 = 0.303794566404353


def fold_by_scan(alpha, lo=1.0, hi=2.5):
    """Independent fold locator: bisect the effort level on whether the
    consensus gap ever becomes positive, with a parabolic peak refinement
    on a dense linear grid."""
    eps = np.linspace(1e-4, 6.0, 20001)
    th = np.tanh(eps)
    h = th + alpha * th * th

    def peak(pi):
        vals = -(1.0 + alpha) * eps + pi * h
        i = int(np.argmax(vals))
        if 0 < i < eps.size - 1:
            a, b, c = vals[i - 1], vals[i], vals[i + 1]
            denom = a - 2 * b + c
            if denom < 0:
                return b - (a - c) ** 2 / (8 * denom)
        return vals[i]

    flo = peak(lo)
    assert flo < 0 < peak(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if peak(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_consensus_gap_values(tanh):
    r = ScalarReduced(alpha=1.0, pi=2.0)
    assert consensus_gap(r, 0.0) == 0.0
    assert consensus_gap(r, 1.0) == pytest.approx(GAP_1_2_1, abs=1e-15)
    # below the identity line for the plain pitchfork case
    r0 = ScalarReduced(alpha=0.0, pi=1.0)
    for eps in (0.1, 0.5, 2.0):
        assert consensus_gap(r0, eps) < 0


def test_scalar_reduced_validation():
    with pytest.raises(ValueError):
        ScalarReduced(alpha=-0.1, pi=1.0)
    with pytest.raises(ValueError):
        ScalarReduced(alpha=1.0, pi=0.0)


def test_consensus_roots_frozen_values():
    for (alpha, pi), expected in ROOTS.items():
        got = consensus_roots(ScalarReduced(alpha=alpha, pi=pi))
        assert len(got) == len(expected), (alpha, pi, got)
        for g_root, e_root in zip(got, sorted(expected)):
            assert g_root == pytest.approx(e_root, abs=1e-9)


def test_consensus_roots_against_brentq(tanh):
    for (alpha, pi), expected in ROOTS.items():
        if not expected:
            continue
        r = ScalarReduced(alpha=alpha, pi=pi)

        def f(e):
            return float(consensus_gap(r, e))

        for root in consensus_roots(r):
            lo, hi = root * (1 - 1e-4) , root * (1 + 1e-4)
            if f(lo) * f(hi) < 0:
                assert abs(brentq(f, lo, hi, xtol=1e-13) - root) < 1e-10


def test_fold_level_frozen_values():
    for alpha, (level, eps) in FOLDS.items():
        got_level, got_eps = pi1_star(alpha)
        assert got_level == pytest.approx(level, abs=1e-9)
        assert got_eps == pytest.approx(eps, abs=1e-9)
        assert 1.0 <= got_level <= 1.0 + alpha + 1e-12


def test_fold_level_degenerate_case():
    assert pi1_star(0.0) == (1.0, 0.0)
    with pytest.raises(ValueError):
        pi1_star(-0.5)


def test_fold_level_tangency_residuals(tanh):
    for alpha in (0.25, 1.0, 2.0):
        level, eps = pi1_star(alpha)
        r = ScalarReduced(alpha=alpha, pi=level)
        assert abs(consensus_gap(r, eps)) < 1e-10
        h = 1e-7
        slope = (consensus_gap(r, eps + h) - consensus_gap(r, eps - h)) / (2 * h)
        assert abs(slope) < 1e-6


def test_fold_level_against_scan_oracle():
    for alpha in (0.5, 1.0, 2.0):
        assert abs(pi1_star(alpha)[0] - fold_by_scan(alpha)) < 1e-6


def test_roots_empty_below_fold_and_pair_above():
    for alpha in (0.5, 1.0, 2.0):
        level, _ = pi1_star(alpha)
        below = consensus_roots(ScalarReduced(alpha=alpha, pi=level - 1e-3))
        above = consensus_roots(ScalarReduced(alpha=alpha, pi=level + 1e-3))
        assert below == []
        assert len(above) == 2


@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("pi", [60.0, 1e3])
def test_consensus_roots_find_the_upper_root_at_large_effort(alpha, pi):
    # psi rounds to 1 long before pi, so the root sits at pi itself
    r = ScalarReduced(alpha=alpha, pi=pi)
    roots = consensus_roots(r)
    ref = brentq(lambda e: float(consensus_gap(r, e)), 20.0, 2.0 * pi, xtol=1e-14)
    assert len(roots) == 1
    assert abs(roots[0] - ref) < 1e-10


def test_consensus_roots_none_on_pitchfork_at_unit_effort():
    # at alpha = 0 the balance tanh(c) - c is below zero for every c > 0,
    # even where it rounds to exactly zero near the origin
    assert consensus_roots(ScalarReduced(alpha=0.0, pi=1.0)) == []


@settings(max_examples=200, deadline=None, derandomize=True)
@given(alpha=st.floats(0.0, 10.0),
       pi=st.floats(0.0, 5.0, exclude_min=True))
def test_consensus_roots_match_scan_and_brentq(alpha, pi):
    roots = consensus_roots(ScalarReduced(alpha=alpha, pi=pi))
    assert len(roots) <= 2
    assert roots == sorted(roots)

    def gap(e):
        t = np.tanh(e)
        return -(1.0 + alpha) * e + pi * (t + alpha * t * t)

    eps = np.geomspace(1e-8, 50.0, 20001)
    vals = gap(eps)
    for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0):
        ref = brentq(gap, eps[i], eps[i + 1], xtol=1e-14)
        assert min(abs(ref - r) for r in roots) < 1e-10, (ref, roots)
    for r in roots:
        assert abs(gap(r)) < 1e-9


def test_consensus_balance_ratio_unimodal_for_tanh():
    # F(c) = (1 + alpha) c / h(c) falls to one minimum, at the fold state of
    # pi1_star, and rises after it: the fact consensus_roots relies on
    c = np.linspace(1e-3, 50.0, 50000)
    t = np.tanh(c)
    for alpha in np.linspace(0.0, 10.0, 41):
        f = (1.0 + alpha) * c / (t + alpha * t * t)
        k = int(np.argmin(f))
        d = np.diff(f)
        assert np.all(d[:k] < 0.0) and np.all(d[k:] > 0.0), alpha
        assert abs(c[k] - max(pi1_star(alpha)[1], c[0])) <= c[1] - c[0]


def test_newton_origin_classification_flips(inst5, tanh):
    below = newton_find(SystemInstance(graph=inst5, psi=tanh, pi=1.9), np.zeros(5))
    above = newton_find(SystemInstance(graph=inst5, psi=tanh, pi=2.1), np.zeros(5))
    assert below.classification == "stable"
    assert above.classification == "unstable"
    assert below.is_consensus and above.is_consensus


def test_newton_from_consensus_seed(inst5, tanh):
    s = SystemInstance(graph=inst5, psi=tanh, pi=2.5)
    eq = newton_find(s, 3.0 * np.ones(5))
    assert eq.residual < 1e-10
    assert eq.is_consensus
    assert eq.state.mean() == pytest.approx(2.444201130371847, abs=1e-8)


def test_newton_from_far_outside(inst5, tanh):
    s = SystemInstance(graph=inst5, psi=tanh, pi=1.7)
    eq = newton_find(s, 100.0 * np.ones(5))
    assert eq.residual < 1e-10


def test_newton_rejects_bad_seed(inst5, tanh):
    s = SystemInstance(graph=inst5, psi=tanh, pi=1.7)
    with pytest.raises(NewtonDivergence):
        newton_find(s, np.full(5, np.nan))


_ROW_GRAPHS = {"inst5": hd.random_instance(5, 0.8, 0.2, 1.0, 1),
               "n8": hd.random_instance(8, 0.5, 0.3, 0.7, 11)}


def _one_seed_newton(s, x0, tol=1e-10, itmax=100):
    """Damped Newton one seed at a time, as the search ran before seeds were
    stacked: the reference every row of a stack reproduces bit for bit."""
    x = np.asarray(x0, dtype=float).copy()
    fx = vector_field(s, x)
    res = float(np.abs(fx).max())
    step_inf = np.inf
    for _ in range(itmax):
        if res < 1e-13 and step_inf < 1e-9:
            return x, "converged"
        if np.abs(x).max() > 1e12 or not np.isfinite(res):
            return x, "diverged"
        try:
            step = np.linalg.solve(jacobian(s, x), -fx)
        except np.linalg.LinAlgError:
            return x, "converged" if res < tol else "singular"
        step_inf = float(np.abs(step).max())
        lam = 1.0
        for _ in range(30):
            x_new = x + lam * step
            if np.array_equal(x_new, x):
                return x, "converged" if res < tol else "stalled"
            f_new = vector_field(s, x_new)
            r_new = float(np.abs(f_new).max())
            if r_new < res:
                x, fx, res = x_new, f_new, r_new
                break
            lam *= 0.5
        else:
            return x, "converged" if res < tol else "stalled"
    return x, "converged" if res < tol else "diverged"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(graph=st.sampled_from(sorted(_ROW_GRAPHS)), pi=st.floats(0.2, 5.0),
       seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12),
       scale=st.sampled_from([0.1, 1.0, 3.0]))
def test_newton_rows_follow_the_one_row_iteration(graph, pi, seed, m, scale):
    g = _ROW_GRAPHS[graph]
    s = SystemInstance(graph=g, psi=hd.tanh_family(), pi=pi)
    starts = scale * np.random.default_rng(seed).uniform(-(pi + 1.0), pi + 1.0, (m, g.n))
    states, residuals, causes = _newton_rows(g, s.psi, starts, np.full(m, pi))
    for x0, x, res, cause in zip(starts, states, residuals, causes):
        ref, ref_cause = _one_seed_newton(s, x0)
        assert cause == ref_cause
        assert np.array_equal(x, ref, equal_nan=True)
        if cause == "converged":
            one, one_res = _newton_raw(s, x0)
            assert np.abs(one - x).max() <= 1e-12
            assert res < 1e-10 and one_res < 1e-10
        elif cause == "singular":
            with pytest.raises(SingularJacobian):
                _newton_raw(s, x0)
        else:
            with pytest.raises(NewtonDivergence, match=cause):
                _newton_raw(s, x0)


def test_failing_seeds_keep_the_other_equilibria(inst5, tanh, monkeypatch):
    # one start blows up at once; another gets an all-zero Jacobian, which
    # makes the stacked solve raise and sends that iteration to row solves
    s = SystemInstance(graph=inst5, psi=tanh, pi=1.7)
    marker = 0.123456789
    diverging, singular = np.full(5, 1e13), np.full(5, marker)
    plain = find_all(s)
    real_jacobian = equilibria._jacobian

    def singular_at_marker(g, psi, pi, x):
        j = real_jacobian(g, psi, pi, x)
        j[np.asarray(x)[..., 0] == marker] = 0.0
        return j

    monkeypatch.setattr(equilibria, "_jacobian", singular_at_marker)
    _, _, causes = _newton_rows(inst5, tanh, [diverging, singular, np.zeros(5), 2.0 * np.ones(5)],
                                np.full(4, s.pi))
    assert list(causes) == ["diverged", "singular", "converged", "converged"]
    with pytest.raises(SingularJacobian):
        _newton_raw(s, singular)
    search_chunk = equilibria._search_chunk
    monkeypatch.setattr(equilibria, "_search_chunk",
                        lambda g, psi, pis, sizes, seeds: search_chunk(
                            g, psi, pis, sizes + 2, np.vstack([seeds, diverging, singular])))
    found = find_all(s)
    assert len(found) == len(plain) == 3
    for a, b in zip(found, plain):
        assert np.abs(a.state - b.state).max() <= 1e-12
        assert a.classification == b.classification


@pytest.mark.parametrize("pi, outcome", [
    (1e10, ["unstable", "stable"]),  # an absolute 1e-6 merge listed the upper state twice
    (1e13, ["unstable", "stable"]),  # a fixed 1e12 blow-up guard lost the upper state
    (9e307, ValueError),  # 2 (pi + 1) overflows: the seed box and root bracket are not finite
    (3e307, ValueError),  # the Newton guard 10 pi overflows: a RuntimeWarning in the search
    (8e307, ValueError),  # the same: the decision state was lost
])
def test_find_all_at_huge_effort_levels(inst5, tanh, pi, outcome):
    if outcome is ValueError:
        with pytest.raises(ValueError, match="too large"):
            SystemInstance(graph=inst5, psi=tanh, pi=pi)
        if not np.isfinite(2.0 * pi):  # the root bracket of the scalar balance
            with pytest.raises(ValueError, match="too large"):
                ScalarReduced(alpha=inst5.alpha, pi=pi)
        return
    eqs = find_all(SystemInstance(graph=inst5, psi=tanh, pi=pi))
    assert [eq.classification for eq in eqs] == outcome
    assert np.abs(eqs[1].state / pi - 1.0).max() < 1e-12  # the decision state pi * ones
    # its spread is about one ulp at that scale (2e-6 at pi = 1e10)
    assert eqs[1].is_consensus


def test_equilibrium_residual_contract(inst5, tanh):
    with pytest.raises(ValueError):
        Equilibrium(state=np.zeros(5), pi=1.0, residual=1e-8,
                    classification="stable", max_real_eig=-1.0, is_consensus=True)


def test_find_all_bistable_window(inst5, tanh):
    s = SystemInstance(graph=inst5, psi=tanh, pi=1.7)
    eqs = find_all(s)
    assert len(eqs) == 3
    assert [e.classification for e in eqs] == ["stable", "unstable", "stable"]
    assert all(e.is_consensus for e in eqs)
    means = [float(e.state.mean()) for e in eqs]
    assert means[0] == pytest.approx(0.0, abs=1e-12)
    assert means[1] == pytest.approx(0.19349593542768098, abs=1e-8)
    assert means[2] == pytest.approx(1.437191980240933, abs=1e-8)


def test_find_all_above_collision(inst5, tanh):
    s = SystemInstance(graph=inst5, psi=tanh, pi=2.5)
    eqs = find_all(s)
    assert len(eqs) == 3
    by_mean = sorted(float(e.state.mean()) for e in eqs)
    assert by_mean[0] == pytest.approx(-NEG_BRANCH[2.5], abs=1e-8)
    assert by_mean[1] == pytest.approx(0.0, abs=1e-12)
    assert by_mean[2] == pytest.approx(2.444201130371847, abs=1e-8)
    origin = min(eqs, key=lambda e: e.norm_inf)
    assert origin.classification == "unstable"


def test_negative_branch_magnitudes(inst5, tanh):
    for pi, t_ref in NEG_BRANCH.items():
        s = SystemInstance(graph=inst5, psi=tanh, pi=pi)
        eq = newton_find(s, -t_ref * np.ones(5))
        assert eq.is_consensus
        assert eq.state.mean() == pytest.approx(-t_ref, abs=1e-8)


def test_find_all_deduplicates_collision_point(inst5, tanh):
    # exactly at the collision level the origin is quadratically flat;
    # the search must not report near-origin ghosts as extra equilibria
    s = SystemInstance(graph=inst5, psi=tanh, pi=2.0)
    eqs = find_all(s)
    assert len(eqs) == 2
    assert eqs[0].norm_inf == 0.0
    assert eqs[1].state.mean() == pytest.approx(1.8603769981339608, abs=1e-8)


def test_chunks_cover_the_grid_in_whole_levels_within_the_budget():
    budget = equilibria._STACK_BUDGET
    for n, sizes in ((5, [28] * 300), (5, [27, 29, 5000, 0, 1, 28] * 40), (120, [28] * 7),
                     (2, [31] * 5000)):
        chunks = list(equilibria._chunks(sizes, n))
        assert [k for a, b in chunks for k in range(a, b)] == list(range(len(sizes)))
        rows = [sum(sizes[a:b]) for a, b in chunks]
        for (a, b), r in zip(chunks, rows):
            assert b - a == 1 or r * n * n <= budget
        # a chunk closes only where its next level would pass the budget
        for r, (a, _) in zip(rows, chunks[1:]):
            assert (r + sizes[a]) * n * n > budget
    sizes = [b - a for a, b in equilibria._chunks([28] * 300, 5)]
    assert sizes == [142, 142, 16]
    # a chunk may fill the budget exactly (4 000 rows at n = 5), not pass it
    assert list(equilibria._chunks([2000, 2000, 1, 3999, 2], 5)) == [(0, 2), (2, 4), (4, 5)]


def test_grid_search_builds_each_chunk_when_it_runs(inst5, tanh, monkeypatch):
    # lazy: a chunk's seed stack is built right before that chunk is
    # searched, so each worker holds at most one stack at a time
    events, rows = [], []
    seed_stack = equilibria._seed_stack

    def build(pis, scales, uniform):
        events.append(("build", len(pis)))
        return seed_stack(pis, scales, uniform)

    def search(g, psi, pis, sizes, seeds):
        assert len(seeds) == sum(sizes)
        assert len(pis) == 1 or len(seeds) * g.n ** 2 <= equilibria._STACK_BUDGET
        events.append(("search", len(pis)))
        rows.extend(sizes.tolist())
        return [[] for _ in pis]

    monkeypatch.setattr(equilibria, "_seed_stack", build)
    monkeypatch.setattr(equilibria, "_search_chunk", search)
    grid = 0.005 * np.arange(1, 1001)
    per_level = equilibria._search_grid(inst5, tanh, grid)
    assert len(per_level) == 1000
    # every level's first record is the origin, +0.0 at residual 0, taken
    # without a search; the stand-in search adds nothing, and the 288 levels
    # below the fold level 1.4436 are not searched
    for pi, eqs in zip(grid.tolist(), per_level):
        assert [(eq.pi, eq.residual, eq.state.tobytes()) for eq in eqs] == \
            [(pi, 0.0, np.zeros(5).tobytes())]
    # the searched levels with both positive roots up to 1.995; with the
    # upper root alone at 2 = 1 + alpha, where the lower root has met the
    # origin and the negative root is not yet born; with the upper and the
    # negative root from 2.005 on
    assert rows == [8] * 111 + [7] + [8] * 600
    # 500 levels fill 3 999 of the 4 000 rows, then the other 212
    assert events == [(kind, k) for k in (500, 212) for kind in ("build", "search")]


def test_grid_search_classifies_within_the_stack_budget(inst5, tanh, monkeypatch):
    # the origins are classified in _chunks ranges of one row per level, so
    # no eigensolve stack passes budget / n^2 rows (10 here), however many
    # levels lie below 1, and the records do not depend on the budget
    grid = hd.make_grid(0.05, 5.0, 0.05)
    whole = equilibria._search_grid(inst5, tanh, grid)
    classify_rows, rows = equilibria._classify_rows, []

    def counted(g, psi, levels, X, residuals, **symmetric):
        rows.append(len(X))
        return classify_rows(g, psi, levels, X, residuals, **symmetric)

    monkeypatch.setattr(equilibria, "_classify_rows", counted)
    monkeypatch.setattr(equilibria, "_STACK_BUDGET", 10 * 25)
    per_level = equilibria._search_grid(inst5, tanh, grid)
    assert 0 < max(rows) <= 10
    assert [equilibria_csv(eqs) for eqs in per_level] == [equilibria_csv(eqs) for eqs in whole]


def test_levels_below_one_bisect_nothing(inst5, tanh, monkeypatch):
    # no level is searched, so no fold state or consensus root is bisected
    def bisected(*args):
        raise AssertionError("bisected a fold state")

    monkeypatch.setattr(equilibria, "pi1_star", bisected)
    eqs = find_all(SystemInstance(graph=inst5, psi=tanh, pi=0.5))
    assert [(eq.state.tobytes(), eq.residual) for eq in eqs] == [(np.zeros(5).tobytes(), 0.0)]
    assert [len(eqs) for eqs in equilibria._search_grid(inst5, tanh, [0.1, 0.5, 0.99])] == [1] * 3


def test_a_shared_ratio_bisects_its_fold_once(inst5, tanh, monkeypatch):
    # the floor's fold state is the consensus roots' split
    calls = []

    def counted(*args):
        calls.append(args)
        return pi1_star(*args)

    monkeypatch.setattr(equilibria, "pi1_star", counted)
    per_level = equilibria._search_grid(inst5, tanh, [1.0, 1.7, 2.5])
    assert calls == [(inst5.alpha, tanh)]
    monkeypatch.undo()
    assert [equilibria_csv(eqs) for eqs in per_level] == [
        equilibria_csv(find_all(SystemInstance(graph=inst5, psi=tanh, pi=pi))) for pi in (1.0, 1.7, 2.5)]


def unit_triples(pair: float, scale) -> hd.Hypergraph2:
    """Three agents, every pairwise weight ``pair``, and agent i's triple
    weighing ``scale[i]``: ratios 2 scale[i] / (2 pair)."""
    b = np.zeros((3, 3, 3))
    for i, (j, k) in enumerate([(1, 2), (0, 2), (0, 1)]):
        b[i, j, k] = b[i, k, j] = scale[i]
    return hd.build(pair * (np.ones((3, 3)) - np.eye(3)), b)


@pytest.mark.parametrize("g", [unit_triples(1e-160, [1.0, 2.0, 3.0]), unit_triples(1e-300, [1.0] * 3)],
                         ids=["mixed-1e160", "shared-1e300"])
def test_ratios_near_the_float_range_bisect_without_overflow(g, tanh):
    # the fold's and the roots' sign tests multiply two gap values of the
    # ratio's size, past the float range: no overflow warning, and the floor
    # is the fold of a pure triple balance, between 1 and 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        floor = equilibria._fold_floor(g, tanh)[0]
        per_level = equilibria._search_grid(g, tanh, [1.0, 2.0, 3.0])
        sweep = hd.sweep(g, tanh, [1.0, 2.0, 3.0])
    assert 1.7 < floor < 1.72
    assert [len(eqs) for eqs in per_level] == [1, 6, 7]
    assert [len(b.points) for b in sweep.branches] == [3, 2, 2, 2, 2, 2, 1]


@pytest.fixture
def threaded(monkeypatch):
    """One level per chunk on two worker threads; skipped where numpy's
    BLAS cannot be pinned to one thread, since the search then stays serial."""
    with equilibria._blas_pin as pinned:
        if not pinned:
            pytest.skip("no OpenBLAS thread-count symbol: the grid search runs serially")
    monkeypatch.setattr(equilibria, "_STACK_BUDGET", 1)
    monkeypatch.setattr(equilibria, "_usable_cpus", lambda: 2)


@pytest.mark.parametrize("budget", [1, 6 * 25])
def test_searched_levels_run_on_threads_after_low_levels(inst5, tanh, threaded, monkeypatch,
                                                          budget):
    # the levels below the fold level 1.4436 take no chunk: under a budget
    # of one row per level or of 6 rows per chunk (n = 120's cap, which
    # would pack one-row low levels into one chunk and turn the search
    # serial) every level from 1.5 on runs alone off the main thread; every
    # level holds the origin, which no chunk finds
    monkeypatch.setattr(equilibria, "_STACK_BUDGET", budget)
    runs = []

    def chunk(g, psi, pis, sizes, seeds):
        runs.append((pis.tolist(), threading.current_thread() is threading.main_thread()))
        return [[] for _ in pis]

    monkeypatch.setattr(equilibria, "_search_chunk", chunk)
    grid = hd.make_grid(0.25, 5.0, 0.25)
    per_level = equilibria._search_grid(inst5, tanh, grid)
    assert [len(eqs) for eqs in per_level] == [1] * 20
    assert sorted(runs) == [([pi], False) for pi in grid[5:].tolist()]


# every level above inst5's fold level 1.4436, so each is one searched chunk
GRID4 = [1.5, 2.0, 2.5, 3.0]


def failing_chunks(monkeypatch, fail):
    """Patch ``_search_chunk`` of the grid ``GRID4``: chunk 0 waits until
    chunk 1 is done, and each chunk in ``fail`` raises ValueError naming
    itself. Returns the indices of the chunks that started."""
    started, one_done = [], threading.Event()

    def chunk(g, psi, pis, sizes, seeds):
        i = GRID4.index(pis[0])
        started.append(i)
        if i == 0:
            assert one_done.wait(timeout=30), "chunk 1 did not run alongside chunk 0"
        if i == 1:
            one_done.set()
        if i in fail:
            raise ValueError(f"chunk {i}")
        return [[] for _ in pis]

    monkeypatch.setattr(equilibria, "_search_chunk", chunk)
    return started


@pytest.mark.parametrize("fail, first", [({1}, 1), ({0, 1}, 0), ({1, 3}, 1)])
def test_threaded_chunks_raise_the_first_failing_chunk_in_chunk_order(inst5, tanh, threaded,
                                                                      monkeypatch, fail, first):
    # chunk 1 raises while chunk 0 still runs: no later chunk starts, every
    # thread is joined, and the error is the one a serial loop would raise,
    # even where chunk 0 raises after chunk 1
    started = failing_chunks(monkeypatch, fail)
    before = threading.active_count()
    with pytest.raises(ValueError, match=f"^chunk {first}$"):
        equilibria._search_grid(inst5, tanh, GRID4)
    assert threading.active_count() == before
    assert sorted(started) == [0, 1]


def test_threaded_chunks_are_all_joined(inst5, tanh, threaded, monkeypatch):
    started = failing_chunks(monkeypatch, {})
    before = threading.active_count()
    per_level = equilibria._search_grid(inst5, tanh, GRID4)
    # each level is the origin alone: the chunks found nothing else
    assert [[(eq.pi, eq.state.tobytes()) for eq in eqs] for eqs in per_level] == \
        [[(pi, np.zeros(5).tobytes())] for pi in GRID4]
    assert threading.active_count() == before
    assert sorted(started) == [0, 1, 2, 3]


def test_threaded_chunks_run_under_the_callers_errstate(inst5, tanh, threaded, monkeypatch):
    # numpy keeps errstate in a context variable, which a new thread would
    # not see; each chunk runs in a copy of the caller's context
    seen = []

    def chunk(g, psi, pis, sizes, seeds):
        seen.append((threading.current_thread() is threading.main_thread(), np.geterr()))
        return [[] for _ in pis]

    monkeypatch.setattr(equilibria, "_search_chunk", chunk)
    with np.errstate(over="raise", divide="warn", invalid="ignore", under="call"):
        caller = np.geterr()
        equilibria._search_grid(inst5, tanh, GRID4)
    assert caller != np.geterr()
    assert seen == [(False, caller)] * 4


def test_chunk_threads_and_pins_under_a_short_switch_interval():
    # more workers than cores, switching threads every microsecond: each
    # chunk runs once and lands at its index, and the pin's depth count
    # loses no entry, so the last to leave restores the caller's count
    with equilibria._blas_pin as pinned:
        pass
    count = equilibria._blas_pin._threads[0]() if pinned else None
    ran = []

    def run(a, b):
        with equilibria._blas_pin:
            ran.append(a)
        return (a, b)

    chunks = [(k, k + 1) for k in range(300)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            before = threading.active_count()
            assert equilibria._run_chunks(run, chunks, 8) == chunks
            assert threading.active_count() == before
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == sorted(list(range(300)) * 5)
    if pinned:
        assert equilibria._blas_pin._depth == 0
        assert equilibria._blas_pin._threads[0]() == count


def test_blas_pin_nests_and_restores_the_callers_thread_count():
    with equilibria._blas_pin as pinned:
        pass
    if not pinned:
        pytest.skip("no OpenBLAS thread-count symbol")
    get, put = equilibria._blas_pin._threads
    before = get()
    put(2)
    try:
        with equilibria._blas_pin:
            assert get() == 1
            with equilibria._blas_pin:
                assert get() == 1
            assert get() == 1
        assert get() == 2
        # overlapping entries from two threads: the last to leave restores
        inside, leave = threading.Event(), threading.Event()

        def hold():
            with equilibria._blas_pin:
                inside.set()
                leave.wait(timeout=30)

        worker = threading.Thread(target=hold)
        with equilibria._blas_pin:
            worker.start()
            assert inside.wait(timeout=30)
        assert get() == 1
        leave.set()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert get() == 2
    finally:
        put(before)


_BUMP = lambda x: np.exp(-4.0 * np.asarray(x, dtype=float) ** 2)
UNSUITABLE = {
    # x / (1 + |x|): odd, unit slope, increasing and s-shaped, but only 0.91 at 10
    "saturated": hd.SigmoidFamily(eval=lambda x: x / (1.0 + np.abs(x)),
                                  deriv=lambda x: (1.0 + np.abs(x)) ** -2.0,
                                  deriv2=lambda x: -2.0 * np.sign(x) * (1.0 + np.abs(x)) ** -3.0,
                                  name="rational"),
    # tanh(x) + 0.4 x^3 exp(-4 x^2): convex just right of the origin
    "sigmoidal": hd.SigmoidFamily(
        eval=lambda x: np.tanh(x) + 0.4 * x ** 3 * _BUMP(x),
        deriv=lambda x: 1.0 - np.tanh(x) ** 2 + 0.4 * (3.0 * x ** 2 - 8.0 * x ** 4) * _BUMP(x),
        deriv2=lambda x: (-2.0 * np.tanh(x) * (1.0 - np.tanh(x) ** 2)
                          + 0.4 * (6.0 * x - 56.0 * x ** 3 + 64.0 * x ** 5) * _BUMP(x)),
        name="bumped-tanh"),
    # tanh(x) + 1e-13: odd to 1e-12, but psi(0) != 0, so the origin is no
    # equilibrium
    "odd": hd.SigmoidFamily(lambda x: np.tanh(x) + 1e-13, hd.tanh_family().deriv,
                            hd.tanh_family().deriv2, "lifted-tanh"),
}


@pytest.mark.parametrize("clause", sorted(UNSUITABLE))
def test_search_refuses_a_family_that_fails_its_assumptions(inst5, monkeypatch, clause):
    # the consensus roots and seeds rest on every clause; the refusal names
    # the failing one before any root is bisected or any Newton row runs
    family = UNSUITABLE[clause]
    report = hd.verify_assumptions(family)
    assert [c.name for c in report.clauses if not c.passed] == [clause]

    def searched(*args):
        raise AssertionError("searched a level")

    for name in ("_consensus_roots", "_newton_rows"):
        monkeypatch.setattr(equilibria, name, searched)
    with pytest.raises(ValueError, match=f"'{clause}' clause"):
        find_all(SystemInstance(graph=inst5, psi=family, pi=1.7))
    with pytest.raises(ValueError, match=f"'{clause}' clause"):
        hd.sweep(inst5, family, [1.6, 1.7, 1.8])


def test_find_all_seed_order_irrelevant(inst5, tanh, monkeypatch):
    s = SystemInstance(graph=inst5, psi=tanh, pi=1.7)
    rng = np.random.default_rng(21)
    seeds = [rng.uniform(-2.5, 2.5, 5) for _ in range(8)]
    seeds += [0.01 * np.ones(5), 2.0 * np.ones(5), 0.3 * np.ones(5)]
    search_chunk = equilibria._search_chunk
    stand_in = lambda order: lambda g, psi, pis, sizes, _: search_chunk(
        g, psi, pis, [len(order)], np.array(order))
    monkeypatch.setattr(equilibria, "_search_chunk", stand_in(seeds))
    fwd = find_all(s)
    monkeypatch.setattr(equilibria, "_search_chunk", stand_in(seeds[::-1]))
    rev = find_all(s)
    assert len(fwd) == len(rev)
    for a, b in zip(fwd, rev):
        assert np.abs(a.state - b.state).max() < 1e-9
        assert a.classification == b.classification


def test_scalar_vector_consistency(inst5, tanh):
    for pi in (1.5, 1.7, 2.3, 3.0):
        s = SystemInstance(graph=inst5, psi=tanh, pi=pi)
        r = ScalarReduced(alpha=1.0, pi=pi)
        eqs = find_all(s)
        # every consensus state solves the scalar balance
        for eq in eqs:
            if eq.is_consensus:
                assert abs(float(consensus_gap(r, eq.state.mean()))) < 1e-8
        # every scalar root lifts to a vector equilibrium
        means = [float(e.state.mean()) for e in eqs if e.is_consensus]
        for root in consensus_roots(r):
            lifted = newton_find(s, root * np.ones(5))
            assert lifted.residual < 1e-10
            assert np.abs(lifted.state - root).max() < 1e-8
            assert any(abs(root - m) < 1e-8 for m in means)


def test_consensus_equilibria_stable_between_thresholds(inst5, tanh):
    # sampled strictly inside (pi1, pi2): every consensus equilibrium away
    # from the origin stays attracting (off-line saddles appearing late in
    # the window are a separate phenomenon and carry no guarantee)
    t = thresholds(inst5)
    for pi in np.linspace(t.pi1 + 0.05, t.pi2 - 0.05, 10):
        s = SystemInstance(graph=inst5, psi=tanh, pi=float(pi))
        for eq in find_all(s):
            if eq.is_consensus and eq.norm_inf > 1e-6:
                assert eq.max_real_eig < 0, (pi, eq.state.mean())


def test_origin_flip_located_by_bisection(inst5, tanh):
    def top_eig(pi):
        s = SystemInstance(graph=inst5, psi=tanh, pi=pi)
        return general_eigenvalues(jacobian(s, np.zeros(5))).reals.max()

    lo, hi = 1.9, 2.1
    assert top_eig(lo) < 0 < top_eig(hi)
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if top_eig(mid) < 0:
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - thresholds(inst5).pi1) < 1e-8


def test_normal_form_frozen_values(inst5):
    k1, k2 = normal_form_coeffs(inst5)
    assert k1 == pytest.approx(K1_INST5, abs=1e-12)
    assert k2 == pytest.approx(K2_INST5, abs=1e-12)


def reduced_map(g, psi):
    """y -> pi1 * w @ D^{-1} (A2 psi(y v) + T(psi(y v))) in full, triple
    term included, on the dense tensor."""
    lam, v, w = perron_pair(g)
    wd = w / g.degrees

    def reduced(y):
        p = psi.eval(y * v)
        return wd @ (g.a2 @ p + (g.b @ p) @ p) / lam

    return reduced


def stencil_cubic(g, psi):
    """Second route to the cubic coefficient: a six-point 4th-order stencil
    (h = 0.05) for the third derivative of the reduced map, over 6."""
    reduced = reduced_map(g, psi)
    h = 0.05
    coeff = (1.0 / 8.0, -1.0, 13.0 / 8.0, -13.0 / 8.0, 1.0, -1.0 / 8.0)
    offsets = (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)
    return sum(c * reduced(o * h) for c, o in zip(coeff, offsets)) / h ** 3 / 6.0


def test_normal_form_analytic_cross_checks(inst5, tanh):
    k1, k2 = normal_form_coeffs(inst5)
    lam, v, w = perron_pair(inst5)
    level = 1.0 / lam
    # cubic coefficient: only the pairwise term contributes odd structure
    k1_analytic = -(level / 3.0) * (w / inst5.degrees) @ (inst5.a2 @ v ** 3)
    assert k1 == pytest.approx(k1_analytic, rel=1e-12)
    assert k1 == pytest.approx(stencil_cubic(inst5, tanh), abs=1e-6)
    # quadratic coefficient against a second-derivative stencil
    reduced = reduced_map(inst5, tanh)
    h = 0.05
    d2 = (-reduced(2 * h) + 16 * reduced(h) - 30 * reduced(0.0)
          + 16 * reduced(-h) - reduced(2 * -h)) / (12 * h * h)
    assert k2 == pytest.approx(d2 / 2.0, abs=1e-6)


def test_normal_form_cubic_follows_the_family(inst5, mixed_ratio):
    # psi(x) = x / sqrt(1 + x^2) has psi'''(0) = -3, where tanh has -2
    algebraic = hd.make_family(lambda x: x / np.sqrt(1.0 + x * x),
                               lambda x: (1.0 + x * x) ** -1.5,
                               lambda x: -3.0 * x * (1.0 + x * x) ** -2.5,
                               "algebraic")
    for g in (mixed_ratio, inst5):
        k1, _ = normal_form_coeffs(g, algebraic)
        lam, v, w = perron_pair(g)
        assert k1 == pytest.approx(-(0.5 / lam) * (w / g.degrees) @ (g.a2 @ v ** 3), rel=1e-12)
        assert k1 == pytest.approx(stencil_cubic(g, algebraic), abs=1e-6)


def test_normal_form_predicts_the_bistable_window():
    # ydot = mu y + k2 y^2 + k1 y^3 folds at mu = -k2^2 / (4 |k1|), so the
    # window below pi1 is pi1 k2^2 / (4 |k1|) up to O(alpha^2) relative;
    # the exact side is pi1_star's tangency bisection and the pi1 eigensolve
    rng = np.random.default_rng(2024)
    for t in range(30):
        n = int(rng.integers(3, 9))
        alpha0 = float(rng.uniform(0.2, 2.0))
        base = hd.random_instance(n, 0.8, 0.5, alpha0, 700 + t)
        for f in (0.1, 0.03, 0.01):
            g = hd.scale_two_interactions(base, f)
            pi1 = thresholds(g).pi1
            k1, k2 = normal_form_coeffs(g)
            ratio = (pi1 - pi1_star(g.alpha)[0]) / (pi1 * k2 ** 2 / (4.0 * abs(k1)))
            alpha = f * alpha0
            assert abs(ratio - 1.0) <= 4.0 * alpha ** 2, (t, n, alpha0, f, ratio)


def test_normal_form_zero_tensor(c5):
    k1, k2 = normal_form_coeffs(c5)
    assert k2 == 0.0
    assert k1 < 0


def test_normal_form_signs_random_instances():
    rng = np.random.default_rng(123)
    for t in range(6):
        g = hd.random_instance(5, 0.8, 0.2, float(rng.uniform(0.05, 2.0)), 500 + t)
        k1, k2 = normal_form_coeffs(g)
        assert k1 < 0
        assert k2 > 0


def test_equilibria_csv_format(inst5, tanh):
    s = SystemInstance(graph=inst5, psi=tanh, pi=1.7)
    eqs = find_all(s)
    text = equilibria_csv(eqs)
    lines = text.strip().splitlines()
    assert lines[0] == "pi,eq_index,classification,max_real_eig,is_consensus,x1,x2,x3,x4,x5"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1.7" and first[1] == "0"
    assert first[2] == "stable" and first[4] == "1"
    assert equilibria_csv([]) == "pi,eq_index,classification,max_real_eig,is_consensus\n"
