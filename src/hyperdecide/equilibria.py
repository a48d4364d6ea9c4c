"""Equilibrium location, the reduced consensus equation, normal form data.

Instances with a shared 2-interaction ratio admit consensus equilibria: the
state c*ones is stationary exactly when the scalar balance

    gap(c) = -(1 + alpha) c + pi (psi(c) + alpha psi(c)^2)

vanishes. For c > 0 the gap is h(c) (pi - F(c)), F(c) = (1 + alpha) c / h(c),
h = psi + alpha psi^2. F has a single minimum, the fold level (least effort
with a positive root pair); each side of its minimizer holds at most one root.
General equilibria are found by damped Newton from one fixed seed rule and
classified by the spectrum of the Jacobian. The seeds of many levels
advance together as one (m, n) stack, each row at its own level: a grid
search runs chunks of whole levels of at most 1e5 / n^2 rows, and
``find_all`` is its one-level case. The seeds are c * ones for c in
+-linspace(0, pi + 1, 11), the lifted consensus roots (with their negatives
when alpha = 0) and six uniform draws on [-(pi + 1), pi + 1]^n from rng seed
0. Two states are the same equilibrium when they lie within sup distance
max(1e-6, 1e-12 |y|_inf) of each other, y the one kept first
(``_same_equilibrium``); the sweep's branch rescue uses the same test.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceError, NewtonDivergence, SingularJacobian
from .hypergraph import Hypergraph2, _triple_term
from .nonlinearity import SigmoidFamily, tanh_family
# jacobian and general_eigenvalues are not called here; benchmarks/tracing.py
# binds them by these names
from .dynamics import (RESIDUAL_TOL, SystemInstance, _check_state, _field, _jacobian, _one_state,
                       jacobian, vector_field)
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
# the seed rule: 11 consensus points on [0, pi + 1], 6 uniform draws from rng seed 0
_SEED_CONSENSUS_POINTS = 11
_SEED_RANDOM_COUNT = 6
_SEED_RNG = 0
_ROOT_EPS_MIN = 1e-8
_ROOT_EPS_MAX = 50.0
# rows * n^2 of one Newton stack of a grid search: about 140 levels of 28
# seeds at n = 5, one level (the least a chunk holds) at n = 120, where one
# bigger stack ran slower
_STACK_BUDGET = 100_000


@dataclass(frozen=True)
class ScalarReduced:
    """Parameters of the scalar consensus balance."""

    alpha: float
    pi: float

    def __post_init__(self):
        if self.alpha < 0.0:
            raise ValueError("alpha must be nonnegative")
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
    psi = psi or tanh_family()
    p = psi.eval(np.asarray(eps, dtype=float))
    return -(1.0 + r.alpha) * np.asarray(eps, dtype=float) + r.pi * (p + r.alpha * p * p)


def _bisect(fn, lo, hi, flo, tol=1e-12, itmax=200):
    for _ in range(itmax):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def consensus_roots(r: ScalarReduced, psi: Optional[SigmoidFamily] = None) -> list[float]:
    """Strictly positive roots of the consensus balance on [1e-8, max(50, 2 pi)].

    Every positive root lies below pi, since psi < 1 gives
    gap(c) < (1 + alpha) (pi - c); the range ends strictly above pi because
    once psi rounds to 1 the gap at pi itself is exactly 0. The fold state of
    ``pi1_star`` splits the range into two pieces on which F is monotone, and
    a sign change on either piece is bisected to 1e-12.
    Returns 0, 1 or 2 roots in ascending order. Negative roots are never
    searched here: for alpha > 0 the balance is not odd, and the negative
    side is reached by Newton runs from negative seeds instead.
    """
    psi = psi or tanh_family()
    return _consensus_roots(r, psi, _fold_split(r.alpha, psi))


def _fold_split(alpha: float, psi: SigmoidFamily) -> float:
    """The fold state of ``pi1_star``, at least 1e-8: where the consensus
    root range splits. It does not depend on the effort level."""
    return max(pi1_star(alpha, psi)[1], _ROOT_EPS_MIN)


def _consensus_roots(r: ScalarReduced, psi: SigmoidFamily, split: float) -> list[float]:
    """``consensus_roots`` with the fold split ``_fold_split`` given."""
    fn = lambda e: float(consensus_gap(r, e, psi))
    roots = []
    for lo, hi in ((_ROOT_EPS_MIN, split), (split, max(_ROOT_EPS_MAX, 2.0 * r.pi))):
        flo = fn(lo)
        if flo * fn(hi) < 0.0:
            roots.append(_bisect(fn, lo, hi, flo))
    return roots


def pi1_star(alpha: float, psi: Optional[SigmoidFamily] = None) -> tuple[float, float]:
    """Fold level of the consensus balance and the state where it happens.

    For alpha = 0 the fold degenerates into the origin crossing: (1, 0).
    Otherwise the tangency state solves h(e)/e = h'(e) with
    h(e) = psi(e) + alpha psi(e)^2, found by bisection to 1e-12, and the
    fold level is (1 + alpha) e / h(e); a tangency state below 1e-8 is
    reported at 1e-8. Always lands in [1, 1 + alpha]. Raises ValueError
    when no tangency state lies in [1e-8, 50].
    """
    if alpha < 0.0:
        raise ValueError("alpha must be nonnegative")
    if alpha == 0.0:
        return 1.0, 0.0
    psi = psi or tanh_family()

    def h(e):
        p = float(psi.eval(np.asarray(e, dtype=float)))
        return p + alpha * p * p

    def h_prime(e):
        p = float(psi.eval(np.asarray(e, dtype=float)))
        dp = float(psi.deriv(np.asarray(e, dtype=float)))
        return dp * (1.0 + 2.0 * alpha * p)

    def tangency(e):
        return h(e) - e * h_prime(e)

    lo = _ROOT_EPS_MIN
    flo = tangency(lo)
    if flo >= 0.0:
        # alpha below about 1e-8: the tangency state (about 1.5 alpha) lies
        # under lo, where rounding hides the sign of the tangency condition
        eps_star = lo
    elif tangency(_ROOT_EPS_MAX) <= 0.0:
        raise ValueError("no tangency state on [1e-8, 50]")
    else:
        eps_star = _bisect(tangency, lo, _ROOT_EPS_MAX, flo)
    level = (1.0 + alpha) * eps_star / h(eps_star)
    return float(level), float(eps_star)


def _newton_rows(s: SystemInstance, X0, pi=None):
    """Damped Newton from every row of ``X0`` (m, n) in lockstep, each row
    following the iteration it would follow alone until it is done. Row r
    runs at effort ``pi[r]`` when the levels (m,) are given, at ``s.pi``
    otherwise; ``s`` gives the network and the transmission. Returns
    states, residuals and causes: 'converged', 'diverged' (a component past
    max(1e12, 10 pi), or 100 iterations), 'singular' or 'stalled' (no damping
    helps); the last two count as converged below 1e-10. A row polishes
    below 1e-10 until its full Newton step is negligible: along near-singular
    directions the residual underestimates the distance to the solution by
    orders of magnitude."""
    g, psi = s.graph, s.psi
    x = np.array(_check_state(s, X0), dtype=float)
    pi = np.full((len(x), 1), s.pi, dtype=float) if pi is None else np.reshape(pi, (-1, 1))
    limit = np.maximum(_NEWTON_BLOWUP, 10.0 * pi[:, 0])
    fx = _field(g, psi, pi, x)
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
        j, rhs = _jacobian(g, psi, pi[live], x[live]), -fx[live]
        try:
            step = np.linalg.solve(j, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:  # some matrix of the stack is singular
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
        f_new = _field(g, psi, pi_l, x_new)
        r_new = np.abs(f_new).max(axis=1)
        moved = (x_new != x_l).any(axis=1)
        better = moved & (r_new < r_l)
        pending = np.flatnonzero(moved & ~better)
        for lam in 0.5 ** np.arange(1, 30):  # a row stops where it improves or x stands still
            trial = x_l[pending] + lam * step[pending]
            go = (trial != x_l[pending]).any(axis=1)
            pending, trial = pending[go], trial[go]
            if not pending.size:
                break
            f_t = _field(g, psi, pi_l[pending], trial)
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


def _newton_raw(s: SystemInstance, x0):
    """Damped Newton from one state: (state, residual), or NewtonDivergence or
    SingularJacobian."""
    x, res, cause = _newton_rows(s, _one_state(s, x0)[None])
    if cause[0] == "singular":
        raise SingularJacobian(f"singular Jacobian at residual {res[0]:.3e}")
    if cause[0] != "converged":
        raise NewtonDivergence(f"Newton {cause[0]} at residual {res[0]:.3e}")
    return x[0], float(res[0])


def _classify_rows(g: Hypergraph2, psi: SigmoidFamily, levels: Sequence[float], X: np.ndarray,
                   residuals: Sequence[float]) -> list[Equilibrium]:
    """Wrap the stationary states ``X`` (m, n), row r at effort ``levels[r]``
    with field residual ``residuals[r]``, with their spectral classification:
    one stacked Jacobian, one eigensolve."""
    try:
        spectra = np.linalg.eigvals(_jacobian(g, psi, np.reshape(levels, (-1, 1)), X))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolve did not converge: {exc}") from exc
    eqs = []
    for x, pi, residual, top in zip(X, levels, residuals, spectra.real.max(axis=1).tolist()):
        label = ("stable" if top < -_STABLE_TOL else "unstable" if top > _STABLE_TOL
                 else "marginal")
        centered = x - x.mean()
        state = x.copy()
        state.setflags(write=False)
        eqs.append(Equilibrium(
            state=state,
            pi=pi,
            residual=float(residual),
            classification=label,
            max_real_eig=top,
            is_consensus=bool(np.abs(centered).max()
                              <= max(_CONSENSUS_TOL, _CONSENSUS_RTOL * np.abs(x).max())),
        ))
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


def _enumerate_seeds(s: SystemInstance, split: Optional[float]) -> np.ndarray:
    """The seed stack (m, n) of the global search, in the order the search
    keeps the first of two equal results: 0 * ones, then +c * ones and
    -c * ones for each c > 0 of the consensus grid, then the lifted
    consensus roots (each followed by its negative when alpha = 0), then the
    uniform rows. ``split`` is ``_fold_split`` of the shared ratio, None
    without one."""
    bound = s.pi + 1.0
    c = np.linspace(0.0, bound, _SEED_CONSENSUS_POINTS)[1:]
    scales = [np.zeros(1), np.column_stack([c, -c]).ravel()]
    if s.graph.alpha is not None:
        roots = np.array(_consensus_roots(ScalarReduced(alpha=s.graph.alpha, pi=s.pi), s.psi,
                                          split))
        scales.append(np.column_stack([roots, -roots]).ravel() if s.graph.alpha == 0.0
                      else roots)
    uniform = np.random.default_rng(_SEED_RNG).uniform(
        -bound, bound, (_SEED_RANDOM_COUNT, s.graph.n))
    return np.vstack([np.outer(np.concatenate(scales), np.ones(s.graph.n)), uniform])


def _same_equilibrium(x: np.ndarray, y: np.ndarray):
    """True where ``x`` (n,), or each row of ``x`` (m, n), lies within sup
    distance max(1e-6, 1e-12 |y|_inf) of the state ``y`` already kept."""
    return np.abs(x - y).max(axis=-1) < max(_DEDUP_TOL, _DEDUP_RTOL * np.abs(y).max())


def _chunks(stacks, n: int):
    """Consecutive (level, seeds) pairs of ``stacks`` grouped into lists of
    whole levels, each holding at most ``_STACK_BUDGET`` / n^2 seed rows
    unless it is a single level. Reads ``stacks`` at most one level past
    the chunk it yields."""
    chunk, rows = [], 0
    for level, seeds in stacks:
        if chunk and (rows + len(seeds)) * n * n > _STACK_BUDGET:
            yield chunk
            chunk, rows = [], 0
        chunk.append((level, seeds))
        rows += len(seeds)
    if chunk:
        yield chunk


def _search_grid(g: Hypergraph2, psi: SigmoidFamily, levels) -> list[list[Equilibrium]]:
    """The global search at every effort level of ``levels``, level by level
    the list ``find_all`` gives there. Each level's seed stack is built when
    its chunk (``_chunks``) runs; a chunk's rows advance as one Newton stack,
    each at its own level. Each level is deduplicated in seed order by
    ``_same_equilibrium`` and sorted by sup norm, and the chunk is classified
    at once."""
    split = None if g.alpha is None else _fold_split(g.alpha, psi)
    instances = (SystemInstance(graph=g, psi=psi, pi=float(pi)) for pi in levels)
    out: list[list[Equilibrium]] = []
    for chunk in _chunks(((s, _enumerate_seeds(s, split)) for s in instances), g.n):
        pis = [s.pi for s, _ in chunk]
        sizes = [len(seeds) for _, seeds in chunk]
        xs, ress, causes = _newton_rows(chunk[0][0], np.vstack([seeds for _, seeds in chunk]),
                                        np.repeat(pis, sizes))
        kept, counts, start = [], [], 0
        for size in sizes:
            rows = start + np.flatnonzero(causes[start:start + size] == "converged")
            found = []
            # keep the first row left, drop every row equal to it: the rows a
            # scan in seed order keeps, each against the states kept before
            while rows.size:
                found.append(rows[0])
                rows = rows[~_same_equilibrium(xs[rows], xs[rows[0]])]
            found.sort(key=lambda i: (float(np.abs(xs[i]).max()), tuple(xs[i])))
            kept += found
            counts.append(len(found))
            start += size
        eqs = _classify_rows(g, psi, np.repeat(pis, counts).tolist(), xs[kept], ress[kept])
        ends = np.cumsum(counts).tolist()
        out += [eqs[a:b] for a, b in zip([0] + ends, ends)]
    return out


def find_all(s: SystemInstance) -> list[Equilibrium]:
    """Newton from every seed of the fixed seed rule, all seeds advancing
    together as one stack, deduplicated in seed order by
    ``_same_equilibrium`` and sorted by sup norm: the one-level case of the
    grid search ``_search_grid``.
    Seeds that diverge are dropped silently; reordering the seed stack cannot
    change the result beyond its guaranteed sorting."""
    return _search_grid(s.graph, s.psi, [s.pi])[0]


def normal_form_coeffs(g: Hypergraph2, psi: Optional[SigmoidFamily] = None) -> tuple[float, float]:
    """Cubic and quadratic coefficients of the reduced dynamics at the
    origin crossing.

    The quadratic one has the closed form pi1 * sum_i w_i / deg_i *
    (v' B_i v) over the positive eigenpair (v, w). The cubic one is the
    third derivative (over 6) of the reduced scalar map
    y -> w @ D^{-1} (pi1 * nonlinearity)(y v), estimated with a 4th-order
    centered stencil. Expected signs: cubic < 0, quadratic > 0 whenever the
    2-interactions are nonzero.
    """
    psi = psi or tanh_family()
    lam, v, w = perron_pair(g)
    level = 1.0 / lam
    quad = float(level * np.sum((w / g.degrees) * _triple_term(g, v)))

    wd = w / g.degrees

    def reduced(y: float) -> float:
        p = psi.eval(y * v)
        return float(level * wd @ (g.a2 @ p + _triple_term(g, p)))

    h = 0.05
    coeff = np.array([1.0 / 8.0, -1.0, 13.0 / 8.0, -13.0 / 8.0, 1.0, -1.0 / 8.0])
    offsets = np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
    third = float(sum(c * reduced(o * h) for c, o in zip(coeff, offsets)) / h ** 3)
    return third / 6.0, quad


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
