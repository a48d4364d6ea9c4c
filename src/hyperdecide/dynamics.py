"""State dynamics: vector field, Jacobian, fixed-step integration, energies.

Agent i relaxes toward the effort-weighted influence it receives: pairwise
terms push with the transmitted states of its neighbors, 2-interaction terms
with products of transmitted states over its weighted pairs. Field and
Jacobian take one state (n,) or a stack of states (m, n), row by row.

The numerical kernels take (graph, transmission, ..., levels), ``pi`` one
level or a column (m, 1) of per-row levels: ``_field_of(g, psi)`` gives
``field(x, pi)``, ``_jacobian`` is ``(g, psi, pi, x)``, and the Newton and
continuation kernels of ``equilibria`` and ``bifurcation`` follow. Only the
public API builds and checks a ``SystemInstance``. The integrator is
classical 4th-order Runge-Kutta with a fixed step, run on a stack of starts
(``_rk4_rows``) whose rows advance together, each bitwise the run from that
start alone; ``integrate`` is its one-state case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DivergenceError
from .hypergraph import Hypergraph2, _pair_rows, _triple_term_of
from .nonlinearity import SigmoidFamily

__all__ = [
    "SystemInstance",
    "Trajectory",
    "SupNormReport",
    "vector_field",
    "jacobian",
    "integrate",
    "lyapunov_value",
    "sup_norm_report",
    "trajectory_csv",
    "write_trajectory_csv",
]

# Floor of the blow-up guard max(1e6, 10 pi, 10 |x0|_inf). Since |psi| <= 1,
# an exact trajectory stays within max(|x0|_inf, pi), so only a failing
# numerical run passes the guard.
_BLOWUP = 1e6
# Every RK4 step is recorded: a run from one state peaks at about 370 bytes
# per step at n = 5, so a million steps, fifty times the default run's
# 20 000, take about 370 MB.
_MAX_RK4_STEPS = 1_000_000
# default RK4 step and horizon
DT = 0.01
T_MAX = 200.0
# field residual (sup norm) below which a state counts as stationary
RESIDUAL_TOL = 1e-10
_SUP_NORM_TOL = 1e-9


@dataclass(frozen=True)
class SystemInstance:
    """A hypernetwork, a transmission function and an effort level."""

    graph: Hypergraph2
    psi: SigmoidFamily
    pi: float

    def __post_init__(self):
        if not self.pi > 0.0:
            raise ValueError(f"effort level must be positive, got {self.pi!r}")
        if not math.isfinite(10.0 * float(self.pi)):
            raise ValueError(f"effort level {self.pi!r} is too large: the blow-up "
                             "guard 10 pi of Newton and RK4 is not finite")


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (len(times), n)
    converged: bool
    final_residual: float


def _check_state(s: SystemInstance, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != s.graph.n:
        raise DimensionError(
            f"state must have shape ({s.graph.n},) or (m, {s.graph.n}), got {x.shape}")
    return x


def _check_start(x: np.ndarray) -> None:
    """ValueError unless the start (n,) or stack of starts (m, n) is finite
    and its blow-up guard 10 |x0|_inf is finite too."""
    if not np.isfinite(x).all():
        raise ValueError("start state must be finite")
    if x.size and not math.isfinite(10.0 * float(np.abs(x).max())):
        raise ValueError("start state is too large: its blow-up guard 10 |x0|_inf "
                         "is not finite")


def _one_state(s: SystemInstance, x) -> np.ndarray:
    x = _check_state(s, x)
    if x.ndim != 1:
        raise DimensionError(f"expected one state of shape ({s.graph.n},), got {x.shape}")
    return x


def _field_of(g: Hypergraph2, psi: SigmoidFamily):
    """The field ``field(x, pi)`` at a state (n,) or a stack (m, n), ``pi``
    one level or a column (m, 1) of per-row levels, each row with the
    arithmetic of its own level. What it reads is bound here once, so a run
    that calls it four times a step looks nothing up per call."""
    evaluate, a2, dot, degrees = psi.eval, g.a2, g.a2.dot, g.degrees
    triple_term = _triple_term_of(g)

    def field(x, pi):
        p = evaluate(x)
        # one matrix-vector product per row: a matrix product would give a row
        # different last bits depending on the stack height. For one state,
        # ``.dot`` is the same gemv as ``@`` at less than half its call cost.
        pair = dot(p) if p.ndim == 1 else (a2 @ p[..., None])[..., 0]
        return pi * (pair + triple_term(p)) - degrees * x
    return field


def _jacobian(g: Hypergraph2, psi: SigmoidFamily, pi, x: np.ndarray) -> np.ndarray:
    """The Jacobian at effort ``pi``, one level or a column (m, 1) of per-row
    levels for a stack (m, n), as the field of ``_field_of``."""
    p = psi.eval(x)
    dp = psi.deriv(x)
    # pi (a2 + 2 b @ p) dp, scaled in place: no stack-sized temporaries
    j = _pair_rows(g, p)
    j *= 2.0
    j += g.a2
    j *= np.asarray(pi)[..., None]
    j *= dp[..., None, :]
    j.reshape(-1, g.n ** 2)[:, ::g.n + 1] -= g.degrees
    return j


def vector_field(s: SystemInstance, x) -> np.ndarray:
    """Time derivative of a state (n,), or of every row of a stack (m, n)."""
    return _field_of(s.graph, s.psi)(_check_state(s, x), s.pi)


def jacobian(s: SystemInstance, x) -> np.ndarray:
    """Derivative of the field at a state (n,) -> (n, n), or at every row of
    a stack (m, n) -> (m, n, n); column k is scaled by the transmission slope
    at x_k, with the 2-interaction part entering through its slice products."""
    return _jacobian(s.graph, s.psi, s.pi, _check_state(s, x))


def _check_guard(x: np.ndarray, limit: np.ndarray, t: float) -> None:
    """DivergenceError when a row of ``x`` (c, n), or a lone row (n,), has a
    component past its guard in ``limit`` (c,) or one that is NaN."""
    over = ~(np.abs(x.reshape(limit.size, -1)).max(axis=1) <= limit)
    if over.any():
        raise DivergenceError(f"state component exceeded {limit[over][0]:g} at t={t:.6g}")


def _rk4_rows(s: SystemInstance, X0, dt: float = DT, t_max: float = T_MAX) -> list:
    """Fixed-step 4th-order Runge-Kutta runs from every row of ``X0`` (m, n),
    advanced together; one Trajectory per row.

    Each row keeps its own residual stop and its own blow-up guard
    max(1e6, 10 pi, 10 |x0|_inf); a row that passes its guard or turns NaN
    raises DivergenceError for the whole stack. A finished row leaves the
    stack, so every row's result is bitwise the run from that row alone. A
    lone row runs as one state (n,), the field's cheapest call, and stops on
    a scalar comparison of its residual. The start is checked here once, and
    the field is bound here once, so the stages look nothing up; the effort
    and the step factors are 0-d arrays, the same IEEE products as Python
    floats at less cost per numpy call.

    A lone row screens its guard and its stop by dot products. x.x below
    floor^2 puts every component below floor, and k1.k1 at n tol^2 or above
    puts one at tol or above, so the row is not done. The margin covers the
    dot's rounding, and a NaN compares False under both, so anything near a
    threshold falls through to the abs-max test: the same decisions at the
    same steps. The screens run only where the squares cannot overflow.

    The history grows by each step's live rows; it is never preallocated,
    and a step count round(t_max / dt) of 0 or above ``_MAX_RK4_STEPS`` is
    refused before the first step.
    """
    if dt <= 0.0 or t_max <= 0.0:
        raise ValueError("dt and t_max must be positive")
    x = np.array(_check_state(s, X0), ndmin=2)
    _check_start(x)
    steps = t_max / dt
    if not np.isfinite(steps):
        raise ValueError(f"t_max / dt = {t_max:g} / {dt:g} is not a finite step count")
    n_steps = int(round(steps))
    if n_steps > _MAX_RK4_STEPS:
        raise ValueError(f"t_max / dt = {t_max:g} / {dt:g} gives {n_steps} steps; at most "
                         f"{_MAX_RK4_STEPS} are allowed")
    if n_steps < 1:
        raise ValueError(f"t_max / dt = {t_max:g} / {dt:g} gives no step; at least 1 is needed")
    m, n = x.shape
    if not m:
        return []
    limit = np.maximum(max(_BLOWUP, 10.0 * s.pi), 10.0 * np.abs(x).max(axis=1))
    floor = float(limit.min())  # no row passes its guard while |x|_inf stays below
    live = np.arange(m)
    last = np.full(m, n_steps)  # index of each row's last recorded state
    residual = np.full(m, np.inf)
    # The screens' margin covers the rounding of a dot of n squares, within
    # n eps of its exact value. They run only where no sum of squares can
    # overflow: with |psi| <= 1 a field component is at most d (pi + r) on
    # states within r, so a step from within the largest guard keeps every
    # stage state and field within max(1, d) (guard + pi) (1 + dt d)^4.
    d = float(s.graph.degrees.max())
    bound = [n, max(1.0, d), float(limit.max()) + float(s.pi)] + [1.0 + float(dt) * d] * 4
    no_overflow = math.prod(bound) < 1e150
    screen = no_overflow and m == 1
    margin = 4.0 * (n + 2) * math.ulp(1.0)
    guard_sq = floor * floor * (1.0 - margin)
    stop_sq = n * RESIDUAL_TOL * RESIDUAL_TOL * (1.0 + margin)
    if m == 1:
        x = x[0]
    field, pi = _field_of(s.graph, s.psi), np.array(s.pi)
    half, full, sixth, two = np.array(0.5 * dt), np.array(dt), np.array(dt / 6.0), np.array(2.0)
    hist = [x]
    cuts = [(0, live)]  # (first history index, rows stored from there on)
    for k in range(n_steps):
        if not (screen and x.dot(x) < guard_sq) and not np.abs(x).max() <= floor:
            _check_guard(x, limit, k * dt)
        k1 = field(x, pi)
        if not (screen and k1.dot(k1) >= stop_sq):
            res = np.abs(k1).max(axis=-1)
            done = res < RESIDUAL_TOL
            # a NaN residual compares False either way, so its row never stops
            if done if x.ndim == 1 else np.count_nonzero(done):
                done, res = done.reshape(-1), res.reshape(-1)
                last[live[done]], residual[live[done]] = k, res[done]
                live = live[~done]
                if not live.size:
                    break
                x, k1, limit = x[~done], k1[~done], limit[~done]
                if live.size == 1:
                    x, k1, screen = x[0], k1[0], no_overflow
                floor = float(limit.min())
                guard_sq = floor * floor * (1.0 - margin)
                cuts.append((len(hist), live))
        k2 = field(x + half * k1, pi)
        k3 = field(x + half * k2, pi)
        k4 = field(x + full * k3, pi)
        x = x + sixth * (k1 + two * k2 + two * k3 + k4)
        hist.append(x)
    if live.size:  # rows that reached t_max
        _check_guard(x, limit, t_max)
        residual[live] = np.abs(field(x, pi)).max(axis=-1)
    pieces = [[] for _ in range(m)]
    for (a, rows), b in zip(cuts, [c for c, _ in cuts[1:]] + [len(hist)]):
        block = np.stack(hist[a:b]).reshape(b - a, rows.size, n)
        for pos, r in enumerate(rows):
            pieces[r].append(block[:, pos])
    return [Trajectory(times=np.arange(last[r] + 1) * dt,
                       states=np.concatenate(pieces[r]),
                       converged=bool(residual[r] < RESIDUAL_TOL),
                       final_residual=float(residual[r]))
            for r in range(m)]


def integrate(s: SystemInstance, x0, dt: float = DT, t_max: float = T_MAX) -> Trajectory:
    """Fixed-step 4th-order Runge-Kutta run from one state ``x0`` (n,).

    Every accepted step is recorded. The run is converged when the field
    residual falls below ``RESIDUAL_TOL`` before ``t_max``. It aborts with
    DivergenceError once a component passes max(1e6, 10 pi, 10 |x0|_inf)
    or turns NaN.
    """
    return _rk4_rows(s, _one_state(s, x0), dt, t_max)[0]


def lyapunov_value(s: SystemInstance, x) -> float:
    """Degree-weighted accumulated transmission, the energy that certifies
    global decay at low effort. Uses the family's closed-form antiderivative
    when available, otherwise fixed-order Gauss-Legendre quadrature."""
    x = _one_state(s, x)
    if s.psi.integral is not None:
        parts = np.asarray(s.psi.integral(x), dtype=float)
    else:
        nodes, weights = np.polynomial.legendre.leggauss(64)
        half = 0.5 * x
        pts = half[:, None] * (nodes[None, :] + 1.0)
        vals = np.asarray(s.psi.eval(pts), dtype=float)
        parts = half * (vals @ weights)
    return float(np.sum(parts / s.graph.degrees))


@dataclass(frozen=True)
class SupNormReport:
    """Step-to-step behaviour of the state sup norm along one trajectory."""

    monotone: bool
    max_step_increase: float
    trajectory: Trajectory


def sup_norm_report(s: SystemInstance, x0, t_max: float = T_MAX):
    """Integrate and report whether the sup norm ever grew by more than
    1e-9 over a single step. Expected to pass below the fold level. A stack
    of starts (m, n) runs as one ``_rk4_rows`` stack and gives one report
    per row, each the report of that start alone."""
    x0 = _check_state(s, x0)
    reports = []
    for traj in _rk4_rows(s, x0, t_max=t_max):
        increases = np.diff(np.abs(traj.states).max(axis=1))
        worst = float(increases.max()) if increases.size else 0.0
        reports.append(SupNormReport(bool(worst <= _SUP_NORM_TOL), worst, traj))
    return reports if x0.ndim == 2 else reports[0]


def trajectory_csv(traj: Trajectory) -> str:
    n = traj.states.shape[1]
    row = "%.17g" + ",%.17g" * n + "\n"
    return "t," + ",".join(f"x{i + 1}" for i in range(n)) + "\n" + "".join(
        row % (t, *x) for t, x in zip(traj.times.tolist(), traj.states.tolist()))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    with open(path, "w") as fh:
        fh.write(trajectory_csv(traj))
