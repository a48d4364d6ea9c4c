"""State dynamics: vector field, Jacobian, fixed-step integration, energies.

Agent i relaxes toward the effort-weighted influence it receives: pairwise
terms push with the transmitted states of its neighbors, 2-interaction terms
with products of transmitted states over its weighted pairs. Field and
Jacobian take one state (n,) or a stack of states (m, n), row by row. The
integrator runs one state by classical 4th-order Runge-Kutta with a fixed
step; runs stop early once the field residual drops below tolerance, and
abort if any component passes max(1e6, 10 pi) in magnitude or turns NaN.
"""
from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DivergenceError
from .hypergraph import Hypergraph2, _pair_rows
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

# Floor of the blow-up guard max(1e6, 10 pi). Since |psi| <= 1, an exact
# trajectory stays within max(|x0|, pi), so from a start inside the guard only
# a failing numerical run passes it.
_BLOWUP = 1e6
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


def _one_state(s: SystemInstance, x) -> np.ndarray:
    x = _check_state(s, x)
    if x.ndim != 1:
        raise DimensionError(f"expected one state of shape ({s.graph.n},), got {x.shape}")
    return x


def _matvec(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a @ p for one state p (n,), or row by row for a stack (m, n) so that no
    row's last bits depend on the stack height, as with a matrix product."""
    return a @ p if p.ndim == 1 else (a @ p[..., None])[..., 0]


def vector_field(s: SystemInstance, x) -> np.ndarray:
    """Time derivative of a state (n,), or of every row of a stack (m, n)."""
    x = _check_state(s, x)
    p = s.psi.eval(x)
    quad = _matvec(_pair_rows(s.graph, p), p)
    return -s.graph.degrees * x + s.pi * (_matvec(s.graph.a2, p) + quad)


def jacobian(s: SystemInstance, x) -> np.ndarray:
    """Derivative of the field at a state (n,) -> (n, n), or at every row of
    a stack (m, n) -> (m, n, n); column k is scaled by the transmission slope
    at x_k, with the 2-interaction part entering through its slice products."""
    x = _check_state(s, x)
    p = s.psi.eval(x)
    dp = s.psi.deriv(x)
    j = s.pi * (s.graph.a2 + 2.0 * _pair_rows(s.graph, p)) * dp[..., None, :]
    j.reshape(-1, s.graph.n ** 2)[:, ::s.graph.n + 1] -= s.graph.degrees
    return j


def integrate(s: SystemInstance, x0, dt: float = DT, t_max: float = T_MAX) -> Trajectory:
    """Fixed-step 4th-order Runge-Kutta run from ``x0``.

    Every accepted step is recorded. The run is converged when the field
    residual falls below ``RESIDUAL_TOL`` before ``t_max``.
    """
    if dt <= 0.0 or t_max <= 0.0:
        raise ValueError("dt and t_max must be positive")
    x = _one_state(s, x0).copy()
    if not np.isfinite(x).all():
        raise ValueError("start state must be finite")
    steps = t_max / dt
    if not np.isfinite(steps):
        raise ValueError(f"t_max / dt = {t_max:g} / {dt:g} is not a finite step count")
    n_steps = int(round(steps))
    limit = max(_BLOWUP, 10.0 * s.pi)
    times = [0.0]
    states = [x.copy()]
    converged = False
    residual = np.inf
    for k in range(n_steps):
        if not np.abs(x).max() <= limit:  # also true for NaN
            raise DivergenceError(
                f"state component exceeded {limit:g} at t={k * dt:.6g}")
        k1 = vector_field(s, x)
        residual = float(np.abs(k1).max())
        if residual < RESIDUAL_TOL:
            converged = True
            break
        k2 = vector_field(s, x + 0.5 * dt * k1)
        k3 = vector_field(s, x + 0.5 * dt * k2)
        k4 = vector_field(s, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        times.append((k + 1) * dt)
        states.append(x.copy())
    if not converged:
        if not np.abs(x).max() <= limit:
            raise DivergenceError(f"state component exceeded {limit:g} at t={t_max:.6g}")
        residual = float(np.abs(vector_field(s, x)).max())
        converged = residual < RESIDUAL_TOL
    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        converged=converged,
        final_residual=residual,
    )


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


def sup_norm_report(s: SystemInstance, x0, t_max: float = T_MAX) -> SupNormReport:
    """Integrate and report whether the sup norm ever grew by more than
    1e-9 over a single step. Expected to pass below the fold level."""
    traj = integrate(s, x0, t_max=t_max)
    norms = np.abs(traj.states).max(axis=1)
    if norms.size < 2:
        return SupNormReport(True, 0.0, traj)
    increases = np.diff(norms)
    worst = float(increases.max())
    return SupNormReport(bool(worst <= _SUP_NORM_TOL), worst, traj)


def trajectory_csv(traj: Trajectory) -> str:
    n = traj.states.shape[1]
    buf = io.StringIO()
    buf.write("t," + ",".join(f"x{i + 1}" for i in range(n)) + "\n")
    for t, row in zip(traj.times, traj.states):
        buf.write(format(float(t), ".17g") + ","
                  + ",".join(format(float(v), ".17g") for v in row) + "\n")
    return buf.getvalue()


def write_trajectory_csv(traj: Trajectory, path) -> None:
    with open(path, "w") as fh:
        fh.write(trajectory_csv(traj))
