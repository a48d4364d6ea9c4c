"""Equilibrium location, the reduced consensus equation, normal form data.

Instances with a shared 2-interaction ratio admit consensus equilibria: the
state c*ones is stationary exactly when the scalar balance

    gap(c) = -(1 + alpha) c + pi (psi(c) + alpha psi(c)^2)

vanishes. For c > 0 the gap is h(c) (pi - F(c)), F(c) = (1 + alpha) c / h(c),
h = psi + alpha psi^2. F has a single minimum, the fold level (least effort
with a positive root pair); each side of its minimizer holds at most one root.
For c < 0, gap'(c) = -(1 + alpha) + pi psi'(c) (1 + 2 alpha psi(c)), and both
psi' and 1 + 2 alpha psi shrink as c decreases, so gap' changes sign at most
once there; with gap(0) = 0 and gap(-max(50, 2 pi)) > 0 the negative side
holds exactly one root when pi > 1 + alpha and none otherwise.
General equilibria are found by damped Newton (``_newton_rows``) from one
fixed seed rule and classified by the spectrum of the Jacobian. The kernels
take (graph, transmission, ..., levels), as in ``dynamics``; only the public
functions build a ``SystemInstance``, and ``_search_grid`` refuses a level
that no instance takes before any level runs. The seeds of many levels
advance together as one (m, n) stack, each row at its own level: a grid
search runs chunks of whole levels of at most 1e5 / n^2 rows, and
``find_all`` is its one-level case. The origin is an equilibrium at every
level, since psi(0) = 0: each level's first record is +0.0 at residual 0,
taken without Newton, and the search drops the states it finds within 1e-6
of it. Below the fold level of the agents' least triple-to-pairwise ratio
the origin is the only equilibrium, so no level there is searched
(``_fold_floor``). The seeds are the consensus seeds and six
uniform draws on [-(pi + 1), pi + 1]^n from rng seed 0. With a shared ratio
the field at c * ones and the Jacobian's image of ones are multiples of the
degree vector, so Newton from c * ones stays on the consensus line: the
consensus seeds are the lifted roots, positive and negative, which are
every consensus equilibrium but the origin. Without one they are c * ones
for c in +-linspace(0, pi + 1, 11). The roots of all levels come from one
array bisection, each element following the scalar loop, so every level's
seed count is known before any stack exists; each chunk's seeds are built
in one pass, bitwise the per-level rule. A search pins numpy's OpenBLAS to
one thread (``_blas_pin``); where that pin holds, its chunks run on threads
once there are two (``_run_chunks``). Two states are the same equilibrium
when they lie within sup distance max(1e-6, 1e-12 |y|_inf) of each other, y
the one kept first (``_same_equilibrium``); the sweep's threading uses the
same test.
"""
from __future__ import annotations

import contextvars
import ctypes
import io
import math
import os
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceError, NewtonDivergence, SingularJacobian
from .hypergraph import Hypergraph2, _triple_term_of
from .nonlinearity import SigmoidFamily, tanh_family, verify_assumptions
# jacobian and general_eigenvalues are not called here; benchmarks/tracing.py
# binds them by these names
from .dynamics import (RESIDUAL_TOL, SystemInstance, _field_of, _jacobian, _one_state, jacobian,
                       vector_field)
from .spectra import general_eigenvalues, perron_pair

__all__ = [
    "ScalarReduced",
    "Equilibrium",
    "consensus_gap",
    "consensus_roots",
    "pi1_star",
    "newton_find",
    "find_all",
    "classify",
    "normal_form_coeffs",
    "equilibria_csv",
    "write_equilibria_csv",
]

_NEWTON_ITMAX = 100
# Floor of the blow-up guard max(1e12, 10 pi): every equilibrium lies within
# pi of the origin, since |psi| <= 1.
_NEWTON_BLOWUP = 1e12
_RESIDUAL_FLOOR = 1e-13
_STEP_FLOOR = 1e-9
_STABLE_TOL = 1e-8
# a state whose spread is within max(1e-8, 1e-12 |x|_inf) lies on the consensus line
_CONSENSUS_TOL = 1e-8
_CONSENSUS_RTOL = 1e-12
# states closer than max(1e-6, 1e-12 |y|_inf) to a kept state y are merged
_DEDUP_TOL = 1e-6
_DEDUP_RTOL = 1e-12
# the seed rule: without a shared ratio 11 consensus points on [0, pi + 1];
# 6 uniform draws from rng seed 0
_SEED_CONSENSUS_POINTS = 11
_SEED_RANDOM_COUNT = 6
_SEED_RNG = 0
_ROOT_EPS_MIN = 1e-8
_ROOT_EPS_MAX = 50.0
# rows * n^2 of one Newton stack of a grid search: about 500 levels of 6 to
# 8 seeds at n = 5 with a shared ratio, one level (the least a chunk holds)
# at n = 120, where one bigger stack ran slower. Chunks run on threads
# (``_run_chunks``), so peak memory grows by about one chunk's stack per
# extra worker.
_STACK_BUDGET = 100_000
# The line search's damping factors 1/2, 1/4, ..., 2^-29, tried in blocks
# of 1, 2, 4, 8 and 14 factors, each block one field call. Small blocks
# first, because most rows stop early: on the default-grid inst5 sweep 45 %
# of the rows that search accept 1/2 and 67 % accept by 1/8. The rest
# spread thinly down to 2^-29, which a row now reaches in five calls, not 29.
_LINE_BLOCKS = tuple(np.split(0.5 ** np.arange(1, 30), [1, 3, 7, 15]))
# the get and set functions of OpenBLAS's thread count, by build
_BLAS_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                 ("openblas_get_num_threads", "openblas_set_num_threads"),
                 ("openblas_get_num_threads64_", "openblas_set_num_threads64_"))


@dataclass(frozen=True)
class ScalarReduced:
    """Parameters of the scalar consensus balance."""

    alpha: float
    pi: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and nonnegative, got {self.alpha!r}")
        if not self.pi > 0.0:
            raise ValueError("effort level must be positive")
        if not math.isfinite(2.0 * float(self.pi)):
            raise ValueError(f"effort level {self.pi!r} is too large: the root "
                             "bracket max(50, 2 pi) is not finite")


@dataclass(frozen=True)
class Equilibrium:
    """A verified stationary state.

    classification is 'stable' when the largest real part of the Jacobian
    spectrum is below -1e-8, 'unstable' above +1e-8, 'marginal' between.
    is_consensus flags states within max(1e-8, 1e-12 |x|_inf) of the
    consensus line.
    """

    state: np.ndarray
    pi: float
    residual: float
    classification: str
    max_real_eig: float
    is_consensus: bool

    def __post_init__(self):
        if not self.residual < RESIDUAL_TOL:
            raise ValueError(f"residual {self.residual!r} out of tolerance")

    @property
    def norm_inf(self) -> float:
        return float(np.abs(self.state).max())


def consensus_gap(r: ScalarReduced, eps, psi: Optional[SigmoidFamily] = None):
    """Value of the scalar consensus balance at eps (scalar or array)."""
    return _gap(r.alpha, r.pi, np.asarray(eps, dtype=float), psi or tanh_family())


def _gap(alpha: float, pi, eps: np.ndarray, psi: SigmoidFamily) -> np.ndarray:
    """The consensus balance at ``eps``, elementwise at the levels ``pi``."""
    p = psi.eval(eps)
    return -(1.0 + alpha) * eps + pi * (p + alpha * p * p)


def _bisect(fn, lo, hi, flo, tol=1e-12, itmax=200) -> np.ndarray:
    """Bisection of every bracket [lo, hi] of the arrays ``lo``, ``hi``
    (``flo`` the function at ``lo``); ``fn(x, rows)`` is the function of the
    brackets ``rows`` at ``x``. Each bracket runs the scalar loop on its own:
    it halves at mid = (lo + hi) / 2, keeps [lo, mid] where flo * f(mid) <= 0
    and [mid, hi] otherwise, and stops once hi - lo < tol or after ``itmax``
    halvings. Returns the midpoints of the final brackets. The product of
    two large values overflows to an infinity of its sign, so it is taken
    without the overflow warning."""
    lo, hi, flo = (np.array(v, dtype=float) for v in (lo, hi, flo))
    rows = np.arange(lo.size)
    for _ in range(itmax):
        if not rows.size:
            break
        mid = 0.5 * (lo[rows] + hi[rows])
        fm = fn(mid, rows)
        with np.errstate(over="ignore"):
            left = flo[rows] * fm <= 0.0
        hi[rows[left]] = mid[left]
        right = rows[~left]
        lo[right], flo[right] = mid[~left], fm[~left]
        rows = rows[~(hi[rows] - lo[rows] < tol)]
    return 0.5 * (lo + hi)


def consensus_roots(r: ScalarReduced, psi: Optional[SigmoidFamily] = None) -> list[float]:
    """Strictly positive roots of the consensus balance on [1e-8, max(50, 2 pi)].

    Every positive root lies below pi, since psi < 1 gives
    gap(c) < (1 + alpha) (pi - c); the range ends strictly above pi because
    once psi rounds to 1 the gap at pi itself is exactly 0. The fold state of
    ``pi1_star`` splits the range into two pieces on which F is monotone, and
    a sign change on either piece is bisected to 1e-12.
    Returns 0, 1 or 2 roots in ascending order. The negative root, which
    the global search seeds from as well, is not returned here.
    """
    psi = psi or tanh_family()
    roots = _consensus_roots(r.alpha, np.array([r.pi], dtype=float), psi,
                             pi1_star(r.alpha, psi)[1])[0, :2]
    return roots[~np.isnan(roots)].tolist()


def _consensus_roots(alpha: float, pis: np.ndarray, psi: SigmoidFamily,
                     fold_state: float) -> np.ndarray:
    """The consensus roots at every level of ``pis`` (L,), as one bisection
    over three pieces of every level: (L, 3), column 0 the root on [1e-8,
    split] and column 1 the root on [split, max(50, 2 pi)] (the two of
    ``consensus_roots``; the split is ``fold_state``, the state of
    ``pi1_star(alpha)``, at least 1e-8, the same at every level), column 2
    the root on [-max(50, 2 pi), -1e-8]; NaN where a piece holds none."""
    split = max(fold_state, _ROOT_EPS_MIN)
    pi = np.repeat(pis, 3)  # the three pieces of every level
    top = np.maximum(_ROOT_EPS_MAX, 2.0 * pis)
    lo = np.column_stack(np.broadcast_arrays(_ROOT_EPS_MIN, split, -top)).ravel()
    hi = np.column_stack(np.broadcast_arrays(split, top, -_ROOT_EPS_MIN)).ravel()
    flo, fhi = _gap(alpha, pi, lo, psi), _gap(alpha, pi, hi, psi)
    with np.errstate(over="ignore"):  # as in _bisect
        b = np.flatnonzero(flo * fhi < 0.0)
    roots = np.full(pi.size, np.nan)
    roots[b] = _bisect(lambda e, rows: _gap(alpha, pi[b[rows]], e, psi), lo[b], hi[b], flo[b])
    return roots.reshape(pis.size, 3)


def pi1_star(alpha: float, psi: Optional[SigmoidFamily] = None) -> tuple[float, float]:
    """Fold level of the consensus balance and the state where it happens.

    For alpha = 0 the fold degenerates into the origin crossing: (1, 0).
    Otherwise the tangency state solves h(e)/e = h'(e) with
    h(e) = psi(e) + alpha psi(e)^2, found by bisection to 1e-12, and the
    fold level is (1 + alpha) e / h(e); a tangency state below 1e-8 is
    reported at 1e-8. Always lands in [1, 1 + alpha]. Raises ValueError
    when no tangency state lies in [1e-8, 50].
    """
    if not 0.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and nonnegative, got {alpha!r}")
    if alpha == 0.0:
        return 1.0, 0.0
    psi = psi or tanh_family()

    def h(e):
        p = psi.eval(e)
        return p + alpha * p * p

    def tangency(e):
        p, dp = psi.eval(e), psi.deriv(e)
        return h(e) - e * (dp * (1.0 + 2.0 * alpha * p))

    lo = np.array([_ROOT_EPS_MIN])
    flo = tangency(lo)
    if flo[0] >= 0.0:
        # alpha below about 1e-8: the tangency state (about 1.5 alpha) lies
        # under lo, where rounding hides the sign of the tangency condition
        eps_star = lo
    elif tangency(np.array([_ROOT_EPS_MAX]))[0] <= 0.0:
        raise ValueError("no tangency state on [1e-8, 50]")
    else:
        eps_star = _bisect(lambda e, rows: tangency(e), lo, [_ROOT_EPS_MAX], flo)
    level = (1.0 + alpha) * eps_star / h(eps_star)
    return float(level[0]), float(eps_star[0])


class _BlasPin:
    """numpy's bundled OpenBLAS (``numpy.libs/*openblas*``) on one thread
    while the body runs, so a solve's last bits do not depend on the
    caller's BLAS thread count; entering returns whether it could. The
    library and its ``_BLAS_SYMBOLS`` are looked up on first use. Entries
    may nest and overlap across threads: the first sets one thread, and the
    last to leave restores the caller's count. Without a library or symbol
    the body runs unpinned."""

    def __init__(self):
        self._lock = threading.Lock()
        self._threads = None  # (get, set), () where none was found
        self._depth = 0
        self._saved = 1

    def _lookup(self) -> tuple:
        libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
        names = sorted(os.listdir(libs)) if os.path.isdir(libs) else []
        for name in (name for name in names if "openblas" in name):
            try:
                lib = ctypes.CDLL(os.path.join(libs, name))
            except OSError:
                continue
            for get, put in _BLAS_SYMBOLS:
                if hasattr(lib, get) and hasattr(lib, put):
                    get, put = getattr(lib, get), getattr(lib, put)
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
        return ()

    def __enter__(self) -> bool:
        with self._lock:
            if self._threads is None:
                self._threads = self._lookup()
            if self._threads:
                if not self._depth:
                    self._saved = self._threads[0]()
                    self._threads[1](1)
                self._depth += 1
            return bool(self._threads)

    def __exit__(self, *exc):
        with self._lock:
            if self._threads:
                self._depth -= 1
                if not self._depth:
                    self._threads[1](self._saved)


_blas_pin = _BlasPin()


def _solve_rows(j: np.ndarray, rhs: np.ndarray):
    """The solutions of the systems j[r] x = rhs[r] (j (m, n, n), rhs (m, n))
    and which rows were solved: one stacked solve, or one solve per row when
    some matrix is singular, whose row is left 0."""
    try:
        return np.linalg.solve(j, rhs[..., None])[..., 0], np.ones(len(rhs), dtype=bool)
    except np.linalg.LinAlgError:
        x, solved = np.zeros_like(rhs), np.ones(len(rhs), dtype=bool)
        for r in range(len(rhs)):
            try:
                x[r] = np.linalg.solve(j[r], rhs[r])
            except np.linalg.LinAlgError:
                solved[r] = False
        return x, solved


def _newton_rows(g: Hypergraph2, psi: SigmoidFamily, X0, pi):
    """Damped Newton from every row of ``X0`` (m, n) in lockstep, each row
    following the iteration it would follow alone until it is done. Row r
    runs at effort ``pi[r]`` of the levels ``pi`` (m,), on the network ``g``
    with the transmission ``psi``; the field is bound once a call. Returns
    states, residuals and causes: 'converged', 'diverged' (a component past
    max(1e12, 10 pi), or 100 iterations), 'singular' or 'stalled' (no damping
    helps); the last two count as converged below 1e-10. A row polishes
    below 1e-10 until its full Newton step is negligible: along near-singular
    directions the residual underestimates the distance to the solution by
    orders of magnitude.

    A row whose full step does not lower its residual halves the step until
    it does, up to 29 times, and stops (stalled) where x + lam * step equals
    x. The halvings run in the blocks ``_LINE_BLOCKS``: every searching row
    forms all trials of a block at once, drops the factors from its first
    standstill on, and all remaining trials share one field call; a row
    takes its first trial that improves, and only rows that neither improved
    nor stood still go on to the next block. That is the sequential loop's
    outcome, bit for bit, since a field row does not depend on the stack."""
    field = _field_of(g, psi)
    x = np.array(X0, dtype=float)
    pi = np.reshape(pi, (-1, 1))
    limit = np.maximum(_NEWTON_BLOWUP, 10.0 * pi[:, 0])
    fx = field(x, pi)
    res = np.abs(fx).max(axis=1)
    step_inf = np.full(len(x), np.inf)
    cause = np.full(len(x), "diverged", dtype=object)
    live = np.arange(len(x))
    for _ in range(_NEWTON_ITMAX):
        done = (res[live] < _RESIDUAL_FLOOR) & (step_inf[live] < _STEP_FLOOR)
        cause[live[done]] = "converged"
        live = live[~done]
        live = live[(np.abs(x[live]).max(axis=1) <= limit[live]) & np.isfinite(res[live])]
        if not live.size:
            break
        step, solved = _solve_rows(_jacobian(g, psi, pi[live], x[live]), -fx[live])
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
        for lams in _LINE_BLOCKS:
            if not pending.size:
                break
            x_p = x_l[pending, None]
            trial = x_p + lams[:, None] * step[pending, None]  # (rows, factors, n)
            # a row stops at its first factor where x stands still: it tries
            # the factors before that one only
            go = np.logical_and.accumulate((trial != x_p).any(axis=2), axis=1)
            rows, cols = np.nonzero(go)
            if not rows.size:
                break
            trial = trial[rows, cols]
            f_t = field(trial, pi_l[pending[rows]])
            r_t = np.abs(f_t).max(axis=1)
            hit = np.zeros(go.shape, dtype=bool)
            hit[rows, cols] = r_t < r_l[pending[rows]]
            found = hit.any(axis=1)
            # each found row's first improving factor, as an index into the
            # tried pairs, which np.nonzero lists in C order
            first = (np.cumsum(go) - 1).reshape(go.shape)[found, hit[found].argmax(axis=1)]
            k = pending[found]
            x_new[k], f_new[k], r_new[k], better[k] = trial[first], f_t[first], r_t[first], True
            pending = pending[~found & go[:, -1]]
        stuck = live[~better]
        cause[stuck] = np.where(res[stuck] < RESIDUAL_TOL, "converged", "stalled")
        live = live[better]
        x[live], fx[live], res[live] = x_new[better], f_new[better], r_new[better]
    cause[live] = np.where(res[live] < RESIDUAL_TOL, "converged", "diverged")
    return x, res, cause


def _newton_raw(s: SystemInstance, x0):
    """Damped Newton from one state: (state, residual), or NewtonDivergence or
    SingularJacobian."""
    x, res, cause = _newton_rows(s.graph, s.psi, _one_state(s, x0)[None], [s.pi])
    if cause[0] == "singular":
        raise SingularJacobian(f"singular Jacobian at residual {res[0]:.3e}")
    if cause[0] != "converged":
        raise NewtonDivergence(f"Newton {cause[0]} at residual {res[0]:.3e}")
    return x[0], float(res[0])


def _classify_rows(g: Hypergraph2, psi: SigmoidFamily, levels: Sequence[float], X: np.ndarray,
                   residuals: Sequence[float], symmetric: bool = False) -> list[Equilibrium]:
    """Wrap the stationary states ``X`` (m, n), row r at effort ``levels[r]``
    with field residual ``residuals[r]``, with their spectral classification:
    one stacked Jacobian, one eigensolve, the symmetric one when the caller
    knows every Jacobian is symmetric."""
    eigenvalues = np.linalg.eigvalsh if symmetric else np.linalg.eigvals
    try:
        spectra = eigenvalues(_jacobian(g, psi, np.reshape(levels, (-1, 1)), X))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolve did not converge: {exc}") from exc
    tops = spectra.real.max(axis=1)
    labels = np.where(tops < -_STABLE_TOL, "stable",
                      np.where(tops > _STABLE_TOL, "unstable", "marginal"))
    spread = np.abs(X - X.mean(axis=1, keepdims=True)).max(axis=1)
    consensus = spread <= np.maximum(_CONSENSUS_TOL, _CONSENSUS_RTOL * np.abs(X).max(axis=1))
    eqs = []
    for x, pi, residual, label, top, flag in zip(X, levels, residuals, labels.tolist(),
                                                 tops.tolist(), consensus.tolist()):
        state = x.copy()
        state.setflags(write=False)
        eqs.append(Equilibrium(state=state, pi=pi, residual=float(residual),
                               classification=label, max_real_eig=top, is_consensus=flag))
    return eqs


def classify(s: SystemInstance, x, residual: Optional[float] = None) -> Equilibrium:
    """Wrap a stationary state with its spectral classification."""
    x = _one_state(s, x)
    if residual is None:
        residual = float(np.abs(vector_field(s, x)).max())
    return _classify_rows(s.graph, s.psi, [s.pi], x[None], [residual])[0]


def newton_find(s: SystemInstance, x0) -> Equilibrium:
    """Damped Newton from ``x0``, classified on success."""
    x, res = _newton_raw(s, x0)
    return classify(s, x, res)


def _seed_stack(pis: np.ndarray, scales: np.ndarray, uniform: np.ndarray) -> np.ndarray:
    """The seed stacks (m, n) of the global search at the levels ``pis``
    (L,), one level after another, each in the order the search keeps the
    first of two equal results: c * ones for each c of the level's row of
    ``scales`` (L, k) that is not NaN (the consensus seeds), then the
    uniform rows -(pi + 1) + 2 (pi + 1) U for the draws ``uniform`` U (6, n),
    the arithmetic of ``Generator.uniform``."""
    bound = pis + 1.0
    k = scales.shape[1]
    stack = np.empty((pis.size, k + len(uniform), uniform.shape[1]))
    stack[:, :k] = scales[..., None]
    stack[:, k:] = -bound[:, None, None] + (2.0 * bound)[:, None, None] * uniform
    return stack[np.hstack([~np.isnan(scales), np.ones((pis.size, len(uniform)), dtype=bool)])]


def _same_equilibrium(x: np.ndarray, y: np.ndarray):
    """True where ``x`` (n,), or each row of ``x`` (m, n), lies within sup
    distance max(1e-6, 1e-12 |y|_inf) of the state ``y`` already kept, or of
    the same row of a stack ``y`` (m, n)."""
    return np.abs(x - y).max(axis=-1) < np.maximum(_DEDUP_TOL, _DEDUP_RTOL * np.abs(y).max(axis=-1))


def _chunks(sizes, n: int):
    """Consecutive ranges (a, b) of the levels whose seed counts are
    ``sizes``: whole levels, each range holding at most ``_STACK_BUDGET`` /
    n^2 seed rows unless it is a single level."""
    before = np.concatenate([[0], np.cumsum(sizes)])  # the rows before each level
    cap = _STACK_BUDGET // (n * n)
    a = 0
    while a < len(sizes):
        # the most levels from a on whose rows fit in cap, at least one
        b = max(a + 1, int(np.searchsorted(before, before[a] + cap, "right")) - 1)
        yield a, b
        a = b


def _search_grid(g: Hypergraph2, psi: SigmoidFamily, levels) -> list[list[Equilibrium]]:
    """The global search at every effort level of ``levels``, level by level
    the list ``find_all`` gives there. ValueError, before any level is
    searched, when ``psi`` fails a clause of ``verify_assumptions``. Every
    level's first record is the origin, state +0.0 at residual 0, classified
    in ``_chunks`` ranges of one row per level. The levels from
    ``_fold_floor`` on are searched for the rest, their consensus seeds
    first: with a shared ratio the roots of one bisection, else the grid.
    Their counts give every level's seed count, by which ``_chunks`` groups
    the levels; a chunk's seed stack is built when the chunk runs
    (``_search_chunk``). The search holds BLAS at one thread
    (``_blas_pin``); the origin rows and the chunks both go through
    ``_run_chunks``, with the serial loop's results and errors."""
    failed = [c.name for c in verify_assumptions(psi).clauses if not c.passed]
    if failed:
        raise ValueError(f"transmission family {psi.name!r} fails the {failed[0]!r} clause of "
                         "verify_assumptions: the consensus roots and seeds assume it")
    pis = np.array(levels, dtype=float).reshape(-1)
    if not pis.size:
        return []
    for pi in (pis.min(), pis.max()):  # the refusals of every level's SystemInstance
        SystemInstance(graph=g, psi=psi, pi=float(pi))
    # The origin is an equilibrium at every level, since psi(0) = 0 (the odd
    # clause). Its Jacobian pi psi'(0) A2 - D is symmetric bit for bit (build
    # refuses an asymmetric A2, and every column takes the same factor), so
    # its spectrum is real.
    with _blas_pin:
        origins = _run_chunks(lambda a, b: _classify_rows(
            g, psi, pis[a:b].tolist(), np.zeros((b - a, g.n)), np.zeros(b - a), symmetric=True),
            np.ones(pis.size, dtype=int), g.n)
        per_level = [[eq] for part in origins for eq in part]
        # the floor is at least 1: levels below 1 need not bisect the fold
        floor, fold_state = _fold_floor(g, psi) if pis.max() >= 1.0 else (1.0, 0.0)
        high = np.flatnonzero(pis >= floor)
        if not high.size:
            return per_level
        pis = pis[high]
        if g.alpha is None:  # no invariant consensus line: +-c for each c > 0 of the grid
            c = np.linspace(0.0, pis + 1.0, _SEED_CONSENSUS_POINTS, axis=1)[:, 1:]
            scales = np.stack([c, -c], axis=2).reshape(pis.size, 2 * c.shape[1])
        else:
            scales = _consensus_roots(g.alpha, pis, psi, fold_state)
        sizes = np.count_nonzero(~np.isnan(scales), axis=1) + _SEED_RANDOM_COUNT
        uniform = np.random.default_rng(_SEED_RNG).random((_SEED_RANDOM_COUNT, g.n))

        def run(a, b):
            return _search_chunk(g, psi, pis[a:b], sizes[a:b],
                                 _seed_stack(pis[a:b], scales[a:b], uniform))

        parts = _run_chunks(run, sizes, g.n)
    for i, found in zip(high.tolist(), (eqs for part in parts for eqs in part)):
        per_level[i] += found
    return per_level


def _fold_floor(g: Hypergraph2, psi: SigmoidFamily) -> tuple[float, float]:
    """A level below which the origin is the only equilibrium, and a fold
    state: ``pi1_star`` of the shared ratio ``g.alpha``, or without one of
    the least ratio a_i = d_i / p_i - 1 of triple mass t_i = d_i - p_i to
    pairwise mass p_i, its level stepped down by 1e-9 of itself and at
    least 1.

    Let M = |x_i| be the largest component of an equilibrium x != 0. psi is
    odd and increasing, so |psi(x_j)| <= psi(M) for every j, and agent i's
    balance d_i x_i = pi (A2 psi(x) + T(psi(x)))_i gives
    d_i M <= pi (p_i psi(M) + t_i psi(M)^2), that is pi >= F_a(M) =
    (1 + a) M / (psi(M) + a psi(M)^2) with a = a_i (p_i > 0, as A2 is
    connected). F_a >= pi1_star(a), its least value, and F_a rises with a
    (dF/da = M psi (1 - psi) / h^2 >= 0), so pi >= pi1_star(min a_i). A
    ratio of 0, an agent without triples, gives 1: then F = M / psi(M) > 1,
    which holds at every ratio, so no floor need lie below 1.
    The bisection puts the tangency within 1e-12 and F is flat there, so the
    computed level exceeds the least F by rounding alone: ulps of psi and of
    d_i / p_i, and about 1e-16 where the tangency state is held at 1e-8. A
    shared ratio is the mean of ratios within 1e-10 max(1, a) of each other
    (``build``), so it can lie above the least one; as
    (dF/da) / F = (1 - psi) / ((1 + a)(1 + a psi)) <= 1 / (1 + a), its fold
    level lies within about 1e-10 of itself above the least ratio's. The
    1e-9 step covers both, so a level it skips holds no equilibrium but the
    origin. A least ratio past the float range bounds nothing beyond F > 1,
    and gives (1, 0)."""
    if g.alpha is not None:
        alpha = g.alpha
    else:
        with np.errstate(over="ignore"):
            alpha = float((g.degrees / g.a2.sum(axis=1)).min()) - 1.0
        if alpha == math.inf:
            return 1.0, 0.0
    level, state = pi1_star(alpha, psi)
    return max(1.0, (1.0 - 1e-9) * level), state


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_chunks(run, sizes, n: int) -> list:
    """``run(a, b)`` for every ``_chunks`` range (a, b) of the row counts
    ``sizes`` at ``n`` agents, the results in range order, with BLAS held
    at one thread (``_blas_pin``). Where that pin holds and there are at
    least two ranges, they run on min(usable CPUs, ranges) threads, else in
    turn (the README gives the timings). A thread takes the next range from
    a shared counter and runs it in a copy of the caller's context (numpy's
    errstate lives there). Once a range raises, no range after it starts;
    all threads are joined, and the error of the first failing range in
    range order is raised, the one the loop in turn raises."""
    chunks = list(_chunks(sizes, n))
    with _blas_pin as pinned:
        workers = min(_usable_cpus(), len(chunks)) if pinned else 1
        if workers < 2:
            return [run(a, b) for a, b in chunks]
        out: list = [None] * len(chunks)
        errors: dict = {}
        lock = threading.Lock()
        order = iter(range(len(chunks)))
        caller = contextvars.copy_context()

        def work():
            while True:
                with lock:
                    i = next(order, None)
                    if i is None or (errors and i > min(errors)):
                        return
                try:
                    out[i] = caller.copy().run(run, *chunks[i])
                except BaseException as exc:  # raised in the caller below
                    with lock:
                        errors[i] = exc

        threads = [threading.Thread(target=work) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    if errors:
        raise errors[min(errors)]
    return out


def _search_chunk(g: Hypergraph2, psi: SigmoidFamily, pis: np.ndarray, sizes,
                  seeds: np.ndarray) -> list[list[Equilibrium]]:
    """The global search from the seed stack ``seeds``, which holds
    ``sizes[l]`` rows at level ``pis[l]`` for each level in turn: one Newton
    stack, each row at its own level; each level's converged rows but the
    origin deduplicated in seed order by ``_same_equilibrium`` and sorted by
    sup norm, then by the components, all levels in one array pass; the
    whole chunk classified at once."""
    levels = np.repeat(np.arange(pis.size), sizes)
    xs, ress, causes = _newton_rows(g, psi, seeds, pis[levels])
    # the origin's dedup distance is max(1e-6, 1e-12 * 0): a row below it in
    # sup norm is the origin
    new = (causes == "converged") & ~(np.abs(xs).max(axis=1) < _DEDUP_TOL)
    # (L, K) table of each level's seed rows, padded with -1: row j of a
    # level is kept when it is new and matches no kept earlier row, the
    # tolerance taken from the earlier one, as a scan in seed order keeps
    table = np.full((pis.size, max(sizes)), -1)
    table[np.arange(table.shape[1]) < np.reshape(sizes, (-1, 1))] = np.arange(len(xs))
    keep = new[table] & (table >= 0)
    x = np.where(keep[..., None], xs[table], 0.0)
    for j in range(1, table.shape[1]):
        keep[:, j] &= ~(keep[:, :j] & _same_equilibrium(x[:, j, None], x[:, :j])).any(axis=1)
    kept = table[keep]
    # by level, then sup norm, then the components in turn; stable, as list.sort
    kept = kept[np.lexsort([*xs[kept].T[::-1], np.abs(xs[kept]).max(axis=1), levels[kept]])]
    counts = np.bincount(levels[kept], minlength=pis.size)
    eqs = _classify_rows(g, psi, np.repeat(pis, counts).tolist(), xs[kept], ress[kept])
    ends = np.cumsum(counts).tolist()
    return [eqs[a:b] for a, b in zip([0] + ends, ends)]


def find_all(s: SystemInstance) -> list[Equilibrium]:
    """Newton from every seed of the fixed seed rule, all seeds advancing
    together as one stack, deduplicated in seed order by
    ``_same_equilibrium`` and sorted by sup norm: the one-level case of the
    grid search ``_search_grid``, which refuses a transmission family that
    fails ``verify_assumptions``. Below ``_fold_floor``, the fold level of
    the agents' least triple-to-pairwise ratio, the result is the origin
    alone, without a search.
    Seeds that diverge are dropped silently; reordering the seed stack cannot
    change the result beyond its guaranteed sorting."""
    return _search_grid(s.graph, s.psi, [s.pi])[0]


def normal_form_coeffs(g: Hypergraph2, psi: Optional[SigmoidFamily] = None) -> tuple[float, float]:
    """Cubic and quadratic coefficients of the reduced dynamics at the
    origin crossing, in closed form.

    Both are Taylor coefficients at y = 0 of the reduced scalar map
    y -> pi1 * w @ D^{-1} (A2 psi(y v) + T(psi(y v))), (v, w) the positive
    eigenpair, pi1 = 1 / lambda and T the triple contraction:

        quadratic = pi1 * sum_i w_i / deg_i * (v' B_i v)
        cubic     = (psi'''(0) / 6) * pi1 * sum_i w_i / deg_i * (A2 v^3)_i

    T adds no cubic term: psi is odd, so psi(y v) = y v + O(y^3) and
    T(psi(y v)) = y^2 T(v) + O(y^4). psi'''(0) is one central difference of
    ``psi.deriv2`` at 0, step 2^-26 (-2 within 1e-15 for tanh). Expected
    signs: cubic < 0, quadratic > 0 whenever the 2-interactions are nonzero.
    """
    psi = psi or tanh_family()
    lam, v, w = perron_pair(g)
    level = 1.0 / lam
    wd = w / g.degrees
    quad = float(level * np.sum(wd * _triple_term_of(g)(v)))
    h = 2.0 ** -26
    third = float(psi.deriv2(np.array(h)) - psi.deriv2(np.array(-h))) / (2.0 * h)
    return third / 6.0 * level * float(wd @ (g.a2 @ v ** 3)), quad


def equilibria_csv(eqs: Sequence[Equilibrium]) -> str:
    if not eqs:
        return "pi,eq_index,classification,max_real_eig,is_consensus\n"
    n = eqs[0].state.size
    buf = io.StringIO()
    buf.write("pi,eq_index,classification,max_real_eig,is_consensus,"
              + ",".join(f"x{i + 1}" for i in range(n)) + "\n")
    for idx, eq in enumerate(eqs):
        buf.write(format(eq.pi, ".17g") + f",{idx},{eq.classification},"
                  + format(eq.max_real_eig, ".17g") + ","
                  + ("1" if eq.is_consensus else "0") + ","
                  + ",".join(format(float(v), ".17g") for v in eq.state) + "\n")
    return buf.getvalue()


def write_equilibria_csv(eqs: Sequence[Equilibrium], path) -> None:
    with open(path, "w") as fh:
        fh.write(equilibria_csv(eqs))
