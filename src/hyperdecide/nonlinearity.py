"""Saturated transmission functions.

Agents exchange opinions through a shared scalar function applied to every
state. Solvers in this package assume it is odd, strictly increasing, flat at
the tails and s-shaped, with unit slope at the origin. ``tanh_family`` is the
stock choice; user-supplied functions go through ``verify_assumptions`` before
they are trusted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "SigmoidFamily",
    "make_family",
    "tanh_family",
    "verify_assumptions",
    "ClauseCheck",
    "AssumptionReport",
]


@dataclass(frozen=True)
class SigmoidFamily:
    """A transmission function with its first two derivatives.

    All three callables must accept and return numpy arrays elementwise.
    ``integral`` is the antiderivative vanishing at 0; it is optional and
    only used to evaluate energy functions in closed form.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    deriv2: Callable[[np.ndarray], np.ndarray]
    name: str
    integral: Optional[Callable[[np.ndarray], np.ndarray]] = None


def make_family(eval, deriv, deriv2, name, integral=None) -> SigmoidFamily:
    """Build a family after checking the origin conditions.

    Requires eval(0) == 0 and deriv(0) == 1 within 1e-12. Families built by
    hand (plain ``SigmoidFamily(...)``) skip this gate, which is what
    ``verify_assumptions`` needs in order to report on broken candidates.
    """
    v0 = float(eval(np.array(0.0)))
    d0 = float(deriv(np.array(0.0)))
    if abs(v0) > 1e-12:
        raise ValueError(f"transmission function must vanish at 0, got {v0!r}")
    if abs(d0 - 1.0) > 1e-12:
        raise ValueError(f"transmission slope at 0 must be 1, got {d0!r}")
    return SigmoidFamily(eval, deriv, deriv2, name, integral)


def _tanh_deriv(x):
    t = np.tanh(x)
    return 1.0 - t * t


def _tanh_deriv2(x):
    t = np.tanh(x)
    return -2.0 * t * (1.0 - t * t)


def _tanh_integral(x):
    # log(cosh(x)) without overflow for large |x|
    a = np.abs(x)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


def tanh_family() -> SigmoidFamily:
    """The hyperbolic tangent family used throughout the tests. Its ``eval``
    is the ufunc ``np.tanh`` itself, with no Python frame around it: the RK4
    stages call it four times a step."""
    return make_family(
        np.tanh, _tanh_deriv, _tanh_deriv2, "tanh", _tanh_integral
    )


# Curvature of a saturating function underflows to zero far past the plateau,
# so the grid stops at 10; an odd point count keeps 0 on it.
_GRID_MAX = 10.0
_GRID_POINTS = 2001


@dataclass(frozen=True)
class ClauseCheck:
    """Outcome of one regularity clause.

    ``worst_x`` is the grid point with the least margin (the offending point
    when the clause fails), ``worst_value`` the quantity checked there.
    """

    name: str
    passed: bool
    worst_x: float
    worst_value: float


@dataclass(frozen=True)
class AssumptionReport:
    clauses: tuple[ClauseCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def clause(self, name: str) -> ClauseCheck:
        for c in self.clauses:
            if c.name == name:
                return c
        raise KeyError(name)


def verify_assumptions(f: SigmoidFamily) -> AssumptionReport:
    """Check the solver-facing regularity clauses on 2001 points of [-10, 10].

    Clauses: ``odd`` (|f(x)+f(-x)| < 1e-12), ``unit_slope`` (f'(0) = 1 within
    1e-12), ``monotone`` (f' > 0 everywhere), ``saturated`` (|f(+-10)| in
    (0.99, 1]) and ``sigmoidal`` (f'' < 0 right of the origin, > 0 left of it).
    """
    x = np.linspace(-_GRID_MAX, _GRID_MAX, _GRID_POINTS)
    fx = np.asarray(f.eval(x), dtype=float)
    dfx = np.asarray(f.deriv(x), dtype=float)
    d2fx = np.asarray(f.deriv2(x), dtype=float)

    clauses = []

    odd_dev = np.abs(fx + fx[::-1])
    i = int(np.argmax(odd_dev))
    clauses.append(ClauseCheck("odd", bool(odd_dev[i] < 1e-12),
                               float(x[i]), float(odd_dev[i])))

    d0 = float(f.deriv(np.array(0.0)))
    clauses.append(ClauseCheck("unit_slope", abs(d0 - 1.0) < 1e-12, 0.0, d0))

    i = int(np.argmin(dfx))
    clauses.append(ClauseCheck("monotone", bool(dfx[i] > 0.0),
                               float(x[i]), float(dfx[i])))

    ends = np.abs(np.asarray(f.eval(np.array([-_GRID_MAX, _GRID_MAX])), dtype=float))
    i = int(np.argmin(ends))
    sat_ok = bool(np.all((ends > 0.99) & (ends <= 1.0)))
    sat_x = -_GRID_MAX if i == 0 else _GRID_MAX
    clauses.append(ClauseCheck("saturated", sat_ok, sat_x, float(ends[i])))

    pos = x > 0.0
    neg = x < 0.0
    # margin: most non-concave point on the right, most non-convex on the left
    ip = int(np.argmax(d2fx[pos]))
    im = int(np.argmin(d2fx[neg]))
    xp, vp = x[pos][ip], d2fx[pos][ip]
    xm, vm = x[neg][im], d2fx[neg][im]
    sig_ok = bool(vp < 0.0 and vm > 0.0)
    if vp >= 0.0:
        worst_x, worst_v = xp, vp
    elif vm <= 0.0:
        worst_x, worst_v = xm, vm
    elif -vp <= vm:
        worst_x, worst_v = xp, vp
    else:
        worst_x, worst_v = xm, vm
    clauses.append(ClauseCheck("sigmoidal", sig_ok, float(worst_x), float(worst_v)))

    return AssumptionReport(tuple(clauses))
