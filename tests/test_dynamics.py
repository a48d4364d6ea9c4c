import numpy as np
import pytest

import hyperdecide as hd
from hyperdecide import dynamics
from hyperdecide.errors import DimensionError, DivergenceError
from hyperdecide.dynamics import (
    SystemInstance,
    _rk4_rows,
    integrate,
    jacobian,
    lyapunov_value,
    sup_norm_report,
    trajectory_csv,
    vector_field,
    write_trajectory_csv,
)

# scalar consensus values frozen from an independent bisection run
EPS_LOW_17 = 0.19349593542768098
EPS_HIGH_17 = 1.437191980240933


def _sys(g, pi, tanh):
    return SystemInstance(graph=g, psi=tanh, pi=pi)


def test_vector_field_zero_at_origin(inst5, tanh):
    s = _sys(inst5, 1.7, tanh)
    assert np.all(vector_field(s, np.zeros(5)) == 0.0)


def test_vector_field_matches_tensor_contraction(inst5, k3, tanh):
    # independent route: explicit einsum over the triple tensor
    rng = np.random.default_rng(2)
    for g in (inst5, k3):
        s = _sys(g, 1.3, tanh)
        for _ in range(5):
            x = rng.uniform(-3.0, 3.0, g.n)
            p = np.tanh(x)
            expected = (-g.degrees * x
                        + 1.3 * (g.a2 @ p + np.einsum("ijk,j,k->i", g.b, p, p)))
            assert np.abs(vector_field(s, x) - expected).max() < 1e-13


def test_vector_field_shape_guard(inst5, tanh):
    s = _sys(inst5, 1.0, tanh)
    with pytest.raises(DimensionError):
        vector_field(s, np.zeros(4))
    for bad in (np.zeros((3, 4)), np.zeros((2, 3, 5)), 0.0):
        with pytest.raises(DimensionError):
            vector_field(s, bad)
        with pytest.raises(DimensionError):
            jacobian(s, bad)
    # the integrator and the energy take one state only
    with pytest.raises(DimensionError):
        integrate(s, np.zeros((2, 5)))
    with pytest.raises(DimensionError):
        lyapunov_value(s, np.zeros((2, 5)))


def test_stack_matches_row_by_row(inst5, k3, tanh):
    rng = np.random.default_rng(8)
    for g in (inst5, k3):
        s = _sys(g, 1.9, tanh)
        states = rng.uniform(-3.0, 3.0, (7, g.n))
        fields, jacs = vector_field(s, states), jacobian(s, states)
        assert fields.shape == (7, g.n) and jacs.shape == (7, g.n, g.n)
        for x, f, j in zip(states, fields, jacs):
            assert np.abs(f - vector_field(s, x)).max() <= 1e-13
            assert np.abs(j - jacobian(s, x)).max() <= 1e-13


def test_stacked_jacobian_matches_finite_differences(inst5, c5, tanh):
    rng = np.random.default_rng(9)
    h = 1e-6
    for g in (inst5, c5):
        s = _sys(g, 1.9, tanh)
        states = rng.uniform(-2.0, 2.0, (6, g.n))
        jacs = jacobian(s, states)
        denom = max(1.0, np.abs(jacs).max())
        for col in range(g.n):
            e = np.zeros(g.n)
            e[col] = h
            fd = (vector_field(s, states + e) - vector_field(s, states - e)) / (2 * h)
            assert np.abs(jacs[:, :, col] - fd).max() / denom < 1e-6


def test_integrate_refuses_non_finite_start(inst5, tanh):
    s = _sys(inst5, 1.7, tanh)
    for bad in (np.nan, np.inf, -np.inf):
        x0 = np.zeros(5)
        x0[2] = bad
        with pytest.raises(ValueError):
            integrate(s, x0)


def test_integrate_refuses_a_start_past_the_guard(inst5, tanh):
    # the guard 10 |x0|_inf overflows at 1e308: refused before any step
    s = _sys(inst5, 1.0, tanh)
    with pytest.raises(ValueError, match="too large"):
        integrate(s, 1e308 * np.ones(5))
    with pytest.raises(ValueError, match="too large"):
        _rk4_rows(s, np.vstack([np.ones(5), np.full(5, -1e308)]))
    # one decade lower the guard is finite and the run decays
    assert integrate(s, 1e307 * np.ones(5), t_max=1.0).states.shape == (101, 5)


def test_integrate_refuses_a_step_count_that_is_not_finite(inst5, tanh):
    s = _sys(inst5, 1.7, tanh)
    with pytest.raises(ValueError):
        integrate(s, np.zeros(5), dt=1e-300, t_max=1e300)


def _counted_fields(monkeypatch):
    """Count the per-run field bindings and every evaluation of the bound
    fields: [bindings, shapes of the evaluated states]."""
    counts = [0, []]
    field_of = dynamics._field_of

    def counted_field_of(g, psi):
        counts[0] += 1
        field = field_of(g, psi)

        def counted(x, pi):
            counts[1].append(x.shape)
            return field(x, pi)
        return counted

    monkeypatch.setattr(dynamics, "_field_of", counted_field_of)
    return counts


def test_integrate_refuses_a_step_count_past_the_cap(inst5, tanh, monkeypatch):
    # refused before any step: no field is bound or evaluated
    s = _sys(inst5, 1.7, tanh)
    counts = _counted_fields(monkeypatch)
    cap = dynamics._MAX_RK4_STEPS
    with pytest.raises(ValueError, match=f"gives {cap + 1} steps; at most {cap} are allowed"):
        integrate(s, np.zeros(5), dt=1.0, t_max=cap + 1.0)
    with pytest.raises(ValueError, match=f"at most {cap} are allowed"):
        _rk4_rows(s, np.zeros((3, 5)), dt=1e-9)
    assert counts == [0, []]
    # the cap itself runs; the origin is stationary, which stops it at step 0
    assert integrate(s, np.zeros(5), dt=1.0, t_max=float(cap)).states.shape == (1, 5)
    assert counts == [1, [(5,)]]


def test_rk4_refuses_a_step_count_of_zero(inst5, tanh, monkeypatch):
    # dt > 2 t_max rounds t_max / dt to 0 steps: refused before any step, for
    # one state, a stack and a sup-norm report alike; no field is bound
    s = _sys(inst5, 1.7, tanh)
    counts = _counted_fields(monkeypatch)
    message = r"t_max / dt = 1 / 3 gives no step; at least 1 is needed"
    with pytest.raises(ValueError, match=message):
        integrate(s, np.ones(5), dt=3.0, t_max=1.0)
    with pytest.raises(ValueError, match=message):
        _rk4_rows(s, np.ones((3, 5)), dt=3.0, t_max=1.0)
    for x0 in (np.ones(5), np.ones((2, 5))):  # 0.4 of the default step
        with pytest.raises(ValueError, match=r"0.004 / 0.01 gives no step"):
            sup_norm_report(s, x0, t_max=0.004)
    # half a step rounds to even, 0 steps
    with pytest.raises(ValueError, match="gives no step"):
        integrate(s, np.ones(5), dt=2.0, t_max=1.0)
    assert counts == [0, []]
    # 0.6 of a step rounds to one
    assert integrate(s, np.ones(5), dt=1.0, t_max=0.6).times.tolist() == [0.0, 1.0]


def test_rk4_field_calls_are_four_per_step_plus_one(inst5, tanh, monkeypatch):
    # the deterministic work count: one field binding a run, four stages a
    # step and one final residual, whatever the number of rows
    s = _sys(inst5, 1.7, tanh)
    counts = _counted_fields(monkeypatch)
    traj = integrate(s, 0.3 * np.ones(5), t_max=1.0)
    assert not traj.converged and traj.times.size == 101
    assert counts[0] == 1 and len(counts[1]) == 4 * 100 + 1
    counts[:] = [0, []]
    stack = _rk4_rows(s, np.outer([0.3, 0.5], np.ones(5)), t_max=1.0)
    assert [t.times.size for t in stack] == [101, 101]
    assert not any(t.converged for t in stack)
    assert counts[0] == 1 and len(counts[1]) == 401 and set(counts[1]) == {(2, 5)}
    counts[:] = [0, []]
    # the origin is stationary: its residual at step 0 stops the run
    assert integrate(s, np.zeros(5)).states.shape == (1, 5)
    assert counts == [1, [(5,)]]


def test_integrate_stops_when_the_state_turns_nan(inst5, tanh):
    # transmission turns NaN past |x| = 1; the run from 0.5 * ones heads for
    # the upper state (about 1.437) and must stop instead of carrying NaN on
    nan_tail = hd.SigmoidFamily(
        eval=lambda x: np.where(np.abs(x) < 1.0, np.tanh(x), np.nan),
        deriv=tanh.deriv, deriv2=tanh.deriv2, name="tanh-nan-tail")
    s = SystemInstance(graph=inst5, psi=nan_tail, pi=1.7)
    with pytest.raises(DivergenceError):
        integrate(s, 0.5 * np.ones(5))


def test_effort_must_be_positive(inst5, tanh):
    with pytest.raises(ValueError):
        _sys(inst5, 0.0, tanh)
    with pytest.raises(ValueError):
        _sys(inst5, -1.0, tanh)


def test_jacobian_matches_finite_differences(inst5, k3, c5, tanh):
    rng = np.random.default_rng(4)
    h = 1e-6
    for g in (inst5, k3, c5):
        s = _sys(g, 1.9, tanh)
        for _ in range(4):
            x = rng.uniform(-2.0, 2.0, g.n)
            j = jacobian(s, x)
            fd = np.empty_like(j)
            for col in range(g.n):
                e = np.zeros(g.n)
                e[col] = h
                fd[:, col] = (vector_field(s, x + e) - vector_field(s, x - e)) / (2 * h)
            denom = max(1.0, np.abs(j).max())
            assert np.abs(j - fd).max() / denom < 1e-6


def test_field_odd_when_no_triples(c5, tanh):
    s = _sys(c5, 2.0, tanh)
    rng = np.random.default_rng(6)
    for _ in range(10):
        x = rng.uniform(-4.0, 4.0, 5)
        assert np.abs(vector_field(s, -x) + vector_field(s, x)).max() < 1e-13


def test_integrate_at_equilibrium_stops_immediately(inst5, tanh):
    s = _sys(inst5, 1.7, tanh)
    traj = integrate(s, np.zeros(5))
    assert traj.converged
    assert traj.times.shape == (1,)
    assert traj.final_residual == 0.0


def test_integrate_reaches_deadlock_from_small_start(inst5, tanh):
    s = _sys(inst5, 1.7, tanh)
    traj = integrate(s, 0.05 * np.ones(5))
    assert traj.converged
    assert traj.final_residual < 1e-10
    assert np.abs(traj.states[-1]).max() < 1e-4


def test_integrate_reaches_decision_from_large_start(inst5, tanh):
    s = _sys(inst5, 1.7, tanh)
    traj = integrate(s, 2.0 * np.ones(5))
    assert traj.converged
    assert np.abs(traj.states[-1] - EPS_HIGH_17).max() < 1e-4


def test_integrate_time_grid(inst5, tanh):
    s = _sys(inst5, 1.7, tanh)
    traj = integrate(s, 0.3 * np.ones(5), dt=0.02, t_max=1.0)
    assert not traj.converged  # far from any equilibrium after t=1
    assert traj.times.shape == (51,)
    assert traj.times[1] == pytest.approx(0.02)
    assert traj.times[-1] == pytest.approx(1.0)


def test_integrate_blowup_guard(inst5, tanh):
    # RK4 with dt = 2 is unstable here (degrees up to 3.02): the run from
    # ones passes the guard's 1e6 floor by t = 10
    s = _sys(inst5, 1.7, tanh)
    with pytest.raises(DivergenceError, match="exceeded 1e\\+06 at t=10"):
        integrate(s, np.ones(5), dt=2.0, t_max=10.0)


def test_integrate_guard_scales_with_the_start(inst5, tanh):
    # the exact run stays within max(|x0|, pi); a start above the 1e6 floor
    # is a valid run that decays to the origin
    s = _sys(inst5, 1.0, tanh)
    x0 = 2e6 * np.ones(5)
    traj = integrate(s, x0)
    assert traj.converged
    assert np.abs(traj.states).max() <= max(np.abs(x0).max(), s.pi)
    assert np.abs(traj.states[-1]).max() < 1e-9


def test_integrate_guard_scales_with_effort(inst5, tanh):
    # the exact run stays within max(|x0|, pi) = 2e6, and passes the guard's
    # 1e6 floor on its way up
    s = _sys(inst5, 2e6, tanh)
    traj = integrate(s, np.ones(5), t_max=1.0)
    assert 1e6 < np.abs(traj.states).max() <= 2e6


def test_integrate_rk4_order(inst5, tanh):
    # halving dt should shrink the error roughly 16x; accept > 8x
    s = _sys(inst5, 1.7, tanh)
    x0 = 0.4 * np.ones(5)
    ref = integrate(s, x0, dt=0.0005, t_max=1.0).states[-1]
    err1 = np.abs(integrate(s, x0, dt=0.04, t_max=1.0).states[-1] - ref).max()
    err2 = np.abs(integrate(s, x0, dt=0.02, t_max=1.0).states[-1] - ref).max()
    assert err1 / err2 > 8.0


def test_lyapunov_value_decreases_below_conservative_threshold(inst5, tanh):
    t = hd.thresholds(inst5)
    s = _sys(inst5, 0.8 * t.pi_tilde1, tanh)
    rng = np.random.default_rng(9)
    for _ in range(3):
        x0 = rng.uniform(-2.0, 2.0, 5)
        traj = integrate(s, x0, t_max=40.0)
        vals = np.array([lyapunov_value(s, x) for x in traj.states])
        assert np.all(np.diff(vals) < 1e-9)
        assert vals[-1] < vals[0]


def test_lyapunov_quadrature_fallback_matches_closed_form(inst5, tanh):
    bare = hd.SigmoidFamily(eval=tanh.eval, deriv=tanh.deriv,
                            deriv2=tanh.deriv2, name="tanh-noint")
    assert bare.integral is None
    rng = np.random.default_rng(10)
    for pi in (0.7, 1.7):
        s_full = _sys(inst5, pi, tanh)
        s_bare = SystemInstance(graph=inst5, psi=bare, pi=pi)
        for _ in range(5):
            x = rng.uniform(-4.0, 4.0, 5)
            assert lyapunov_value(s_full, x) == pytest.approx(
                lyapunov_value(s_bare, x), abs=1e-10)


def test_sup_norm_monotone_below_fold(inst5, tanh):
    s = _sys(inst5, 1.2, tanh)  # below the fold level 1.4436
    rng = np.random.default_rng(12)
    for _ in range(3):
        report = sup_norm_report(s, rng.uniform(-3.0, 3.0, 5), t_max=60.0)
        assert report.monotone
        assert report.max_step_increase <= 1e-9


def test_sup_norm_grows_above_collision(inst5, tanh):
    s = _sys(inst5, 2.5, tanh)
    report = sup_norm_report(s, 0.3 * np.ones(5), t_max=60.0)
    assert not report.monotone
    assert report.max_step_increase > 1e-6


def test_sup_norm_report_of_a_stack_is_one_report_per_start(inst5, tanh):
    # rows that stop at once (the origin), descend, and grow; each report is
    # bitwise the one-start report
    s = _sys(inst5, 2.5, tanh)
    starts = np.vstack([np.zeros(5), np.random.default_rng(13).uniform(-3.0, 3.0, 5),
                        0.3 * np.ones(5)])
    stacked = sup_norm_report(s, starts, t_max=20.0)
    assert len(stacked) == 3
    for x0, report in zip(starts, stacked):
        alone = sup_norm_report(s, x0, t_max=20.0)
        assert (report.monotone, report.max_step_increase) == (alone.monotone,
                                                               alone.max_step_increase)
        assert report.trajectory.states.tobytes() == alone.trajectory.states.tobytes()
    assert stacked[0].trajectory.times.size == 1 and stacked[0].max_step_increase == 0.0
    assert not stacked[2].monotone
    assert sup_norm_report(s, np.zeros((0, 5))) == []


def test_trajectory_csv_shape_and_determinism(inst5, tanh, tmp_path):
    s = _sys(inst5, 1.7, tanh)
    traj = integrate(s, 0.3 * np.ones(5), dt=0.05, t_max=2.0)
    text = trajectory_csv(traj)
    lines = text.strip().splitlines()
    assert lines[0] == "t,x1,x2,x3,x4,x5"
    assert len(lines) == traj.times.size + 1
    assert trajectory_csv(traj) == text  # stable on re-render
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    parsed = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(parsed[:, 0], traj.times)
    assert np.array_equal(parsed[:, 1:], traj.states)
