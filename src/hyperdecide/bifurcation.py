"""Effort sweeps: branch threading, bistability interval, basin probes.

A sweep runs the global equilibrium search over its whole effort grid
(``equilibria._search_grid``) and threads the records into branches by
tangent prediction and Newton correction (``_successors``). A branch born
at an interior level where the record count grows is annotated as a fold,
and the first level where it enters or leaves the 'stable' classification
as its stability change.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionError, NoBistabilityError
from .hypergraph import Hypergraph2
from .nonlinearity import SigmoidFamily, tanh_family
# integrate, find_all, classify, _newton_raw and thresholds are not called
# here; benchmarks/tracing.py binds them by these names
from .dynamics import SystemInstance, _jacobian, _rk4_rows, integrate
from .equilibria import (ScalarReduced, _classify_rows, _newton_raw, _newton_rows, _run_chunks,
                         _same_equilibrium, _search_grid, _solve_rows, classify, consensus_roots,
                         find_all, pi1_star)
from .spectra import thresholds

__all__ = [
    "BifurcationBranch",
    "SweepResult",
    "BasinReport",
    "make_grid",
    "sweep",
    "bistability_interval",
    "basin_probe",
    "diagram_csv",
    "write_diagram_csv",
    "write_diagram_svg",
]

_ATTRACTOR_TOL = 1e-4
# default effort grid of a sweep: 1000 levels
PI_MIN, PI_MAX, PI_STEP = 0.005, 5.0, 0.005
# A sweep searches every level, below a millisecond each at n=5 in the grid
# stack, so a million levels take about a quarter of an hour and keep
# millions of equilibria; the grid itself is 8 MB.
_MAX_GRID_POINTS = 1_000_000


@dataclass
class BifurcationBranch:
    """One threaded branch: (pi, equilibrium) pairs with pi increasing."""

    branch_id: int
    points: list
    fold_at: Optional[float] = None
    stability_change_at: Optional[float] = None

    def states(self) -> np.ndarray:
        return np.array([pt[1].state for pt in self.points])

    def pis(self) -> np.ndarray:
        return np.array([pt[0] for pt in self.points])


@dataclass
class SweepResult:
    grid: np.ndarray
    branches: list
    bistability: Optional[tuple] = None


def make_grid(pi_min: float, pi_max: float, pi_step: float) -> np.ndarray:
    if pi_step <= 0.0 or pi_min <= 0.0 or pi_max < pi_min:
        raise ValueError("grid must be positive and increasing")
    steps = (pi_max - pi_min) / pi_step
    if not np.isfinite(steps):
        raise ValueError(f"grid step {pi_step:g} is too small for ({pi_min:g}, {pi_max:g})")
    count = int(round(steps)) + 1
    if count > _MAX_GRID_POINTS:
        raise ValueError(f"grid step {pi_step:g} gives {count} levels on ({pi_min:g}, "
                         f"{pi_max:g}); at most {_MAX_GRID_POINTS} are allowed")
    grid = pi_min + pi_step * np.arange(count)
    return grid[grid <= pi_max + 1e-12]


def sweep(g: Hypergraph2, psi: Optional[SigmoidFamily] = None,
          pi_grid=None) -> SweepResult:
    """Thread equilibria across an increasing effort grid into branches.
    ValueError, before any level is searched, when ``pi_grid`` is not a
    non-empty one-dimensional, finite, positive, strictly increasing grid,
    or when its largest level is too large for a ``SystemInstance``."""
    psi = psi or tanh_family()
    grid = make_grid(PI_MIN, PI_MAX, PI_STEP) if pi_grid is None else np.asarray(pi_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"pi_grid must be a non-empty one-dimensional grid, got shape {grid.shape}")
    if not (np.all(np.diff(grid) > 0.0) and 0.0 < grid[0] and grid[-1] < np.inf):
        raise ValueError("pi_grid must be finite, positive and strictly increasing")

    per_pi = _search_grid(g, psi, grid)
    recs = [eq for eqs in per_pi for eq in eqs]
    at = [ids.tolist() for ids in np.split(np.arange(len(recs)),
                                           np.cumsum([len(eqs) for eqs in per_pi])[:-1])]
    nxt, near = _successors(g, psi, grid, recs, at)

    branches: list[BifurcationBranch] = []
    active: list[tuple] = []  # (branch, record at its tip)
    for k, pi in enumerate(grid.tolist()):
        claims: dict[int, list] = {}
        for bi, r in active:
            if r in nxt:
                claims.setdefault(nxt[r], []).append((near[r], bi))
        # the tip predicted nearest goes on; the others merge there and end
        active = []
        for r, tips in claims.items():
            for _, bi in tips:
                branches[bi].points.append((pi, recs[r]))
            active.append((min(tips)[1], r))
        fold_at = pi if k and len(at[k]) > len(at[k - 1]) else None
        for r in at[k]:
            if r not in claims:
                active.append((len(branches), r))
                branches.append(BifurcationBranch(len(branches), [(pi, recs[r])], fold_at))

    for b in branches:
        flips = [pi for (_, e0), (pi, e1) in zip(b.points, b.points[1:])
                 if (e0.classification == "stable") != (e1.classification == "stable")]
        b.stability_change_at = flips[0] if flips else None

    try:  # alpha is None, 0 or positive
        bistability = bistability_interval(g, psi) if g.alpha else None
    except NoBistabilityError:
        bistability = None
    return SweepResult(grid=grid, branches=branches, bistability=bistability)


def _successors(g: Hypergraph2, psi: SigmoidFamily, grid: np.ndarray, recs: list, at: list):
    """Continue every record of ``recs`` below the last grid level one level
    up (``at[t]`` lists level t's records): a step from x at level a to b
    predicts x + (b - a) dx/dpi, dx/dpi = -J^-1 (D x / pi) (0 for a singular
    J), and corrects it by Newton at b. It stands when the step back returns
    to x, and is halved otherwise; a branch ends where Newton fails or a half
    is no new level. Returns ``nxt``, the first record of ``at[t]`` that each
    record's last step, to level t, matches (``_same_equilibrium``), and
    ``near``, the sup distance of that step's prediction to it. A round's
    arrivals are matched one at a time in level order: one that matches no
    record is a search miss, kept as a state that later arrivals can match,
    and continued. The origin, whose tangent is +-0, lands on the next
    level's first record, the origin, at distance 0.0 without a step. Each
    round's steps and steps back, then all misses' eigensolves, run by
    ``_run_chunks``; the misses join ``recs`` in the order they were found.
    A row's result does not depend on its stack or range."""
    nxt, near = {}, {}
    states, levels, residuals = [eq.state for eq in recs], [], []  # a miss adds to all three
    # steps: (record, state, level from, level to, index of the next grid level)
    todo, fresh = [], [(r, k) for k, ids in enumerate(at) for r in ids]

    def run(a, b):  # the forward and back steps of todo[a:b]
        X, lo, hi = (np.array([w[j] for w in todo[a:b]]) for j in (1, 2, 3))
        y, res, pred, ok = _step(g, psi, X, lo[:, None], hi[:, None])
        back, _, _, back_ok = _step(g, psi, y[ok], hi[ok, None], lo[ok, None])
        stands = ok.copy()
        stands[ok] = back_ok & _same_equilibrium(back, X[ok])
        return y, res, pred, ok, stands

    while todo or fresh:
        for q, t in (w for w in fresh if w[1] + 1 < grid.size):
            if states[q].any():
                todo.append((q, states[q], grid[t], grid[t + 1], t + 1))
            else:
                nxt[q], near[q] = at[t + 1][0], 0.0
        parts = _run_chunks(run, np.ones(len(todo), dtype=int), g.n)
        pending, arrived, fresh = [], [], []
        for (r, x, a_pi, b_pi, t), y, res, pred, ok, stands in zip(
                todo, *(np.concatenate(field) for field in zip(*parts))):
            if stands and b_pi < grid[t]:
                pending.append((r, y, b_pi, grid[t], t))
            elif stands:
                arrived.append((t, r, y, res, pred))
            elif ok and a_pi < 0.5 * (a_pi + b_pi) < b_pi:
                pending.append((r, x, a_pi, 0.5 * (a_pi + b_pi), t))
        for t, r, y, res, pred in sorted(arrived, key=lambda w: w[0]):
            same = _same_equilibrium(y, np.array([states[q] for q in at[t]]))
            if same.any():
                hit = at[t][same.argmax()]
            else:  # a search miss: a new record of level t
                hit = len(states)
                states.append(y)
                levels.append(float(grid[t]))
                residuals.append(res)
                at[t].append(hit)
                fresh.append((hit, t))
            nxt[r], near[r] = hit, float(np.abs(pred - states[hit]).max())
        todo = pending
    X = np.array(states[len(recs):])
    recs += [eq for part in _run_chunks(lambda a, b: _classify_rows(
        g, psi, levels[a:b], X[a:b], residuals[a:b]), np.ones(len(X), dtype=int), g.n)
        for eq in part]
    return nxt, near


def _step(g: Hypergraph2, psi: SigmoidFamily, X: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Newton at the levels ``b`` (m, 1) from the tangent predictions of the
    equilibria ``X`` (m, n) at the levels ``a`` (dF/dpi = D x / pi there):
    states, residuals, predictions and which rows converged."""
    tangent, _ = _solve_rows(_jacobian(g, psi, a, X), -g.degrees * X / a)
    pred = X + (b - a) * tangent
    x, res, cause = _newton_rows(g, psi, pred, b)
    return x, res, pred, cause == "converged"


def bistability_interval(g: Hypergraph2, psi: Optional[SigmoidFamily] = None) -> tuple:
    """Effort window (pi1_star, pi1) in which the origin and the upper
    consensus state c * ones, c the largest consensus root, are both stable;
    NoBistabilityError for a zero ratio or an empty window.

    The window is exact. At c * ones, c > 0, J = pi psi'(c) (A2 + 2 psi(c) M)
    - D with M_ij = sum_k b_ijk is Metzler, its diagonal -d (no agent takes
    part in its own ties), and the shared ratio gives J ones = gap'(c) A2
    ones with A2 ones > 0, so J is Hurwitz iff gap'(c) < 0 (Berman & Plemmons,
    Nonnegative Matrices in the Mathematical Sciences, ch. 6): true at the
    upper root for every pi > pi1_star, where F increases. J(0) = pi A2 - D
    is congruent to D^1/2 (pi S - I) D^1/2, S = D^-1/2 A2 D^-1/2, so the
    origin is stable iff pi < pi1 = 1 / lambda_max(S). The shared ratio
    gives D ones = (1 + alpha) A2 ones, so S D^1/2 ones = D^1/2 ones /
    (1 + alpha): a positive eigenvector of S, irreducible as A2 is
    connected, so its Perron vector, and pi1 = 1 + alpha. ``build`` shares
    ratios within 1e-10 max(1, alpha) of each other, and pi1 lies between 1
    plus the least and 1 plus the largest of them (Collatz-Wielandt).
    """
    if g.alpha is None:
        raise ValueError("instance has no shared 2-interaction ratio")
    psi = psi or tanh_family()
    if g.alpha == 0.0:
        raise NoBistabilityError("zero ratio: the fold degenerates, no window")
    lo, hi = pi1_star(g.alpha, psi)[0], 1.0 + g.alpha
    if not lo < hi:
        raise NoBistabilityError(f"empty window ({lo!r}, {hi!r})")
    return (lo, hi)


@dataclass(frozen=True)
class BasinReport:
    """Attractor labels for consensus-line starts c * ones."""

    radii: tuple
    labels: tuple
    finals: tuple

    @property
    def monotone(self) -> bool:
        """True when, sorted by radius, labels are origin* then upper*: no
        "other" label, and no "origin" after an "upper"."""
        labs = [self.labels[i] for i in np.argsort(self.radii)]
        first_upper = labs.index("upper") if "upper" in labs else len(labs)
        return "other" not in labs and "origin" not in labs[first_upper:]


def basin_probe(s: SystemInstance, radii: Sequence[float]) -> BasinReport:
    """Integrate from c * ones for every radius c and label the attractor
    reached: "origin" within 1e-4 of 0, "upper" within 1e-4 of the upper
    consensus state c * ones, c the largest consensus root (with a shared
    ratio and a root only), "other" otherwise. All radii run as one RK4
    stack (``_rk4_rows``); each row's run is bitwise the one ``integrate``
    gives from that start alone."""
    radii = tuple(float(c) for c in radii)
    roots = [] if s.graph.alpha is None else consensus_roots(
        ScalarReduced(alpha=s.graph.alpha, pi=s.pi), s.psi)
    labels = []
    finals = []
    for traj in _rk4_rows(s, np.outer(radii, np.ones(s.graph.n))):
        x = traj.states[-1]
        finals.append(x)
        if not traj.converged:
            labels.append("other")
        elif np.abs(x).max() < _ATTRACTOR_TOL:
            labels.append("origin")
        elif roots and np.abs(x - max(roots)).max() < _ATTRACTOR_TOL:
            labels.append("upper")
        else:
            labels.append("other")
    return BasinReport(radii=radii, labels=tuple(labels), finals=tuple(finals))


def _diagram_rows(result: SweepResult) -> list:
    """(pi, branch id, equilibrium) of every branch point, sorted by effort,
    then branch id."""
    return sorted(((pi, b.branch_id, eq) for b in result.branches for pi, eq in b.points),
                  key=lambda r: r[:2])


def diagram_csv(result: SweepResult) -> str:
    """One row per branch point, by effort then branch id: pi, branch id,
    stable (1/0), sup norm and the state, floats as %.17g. A result with no
    point gives the header without state columns."""
    rows = _diagram_rows(result)
    n = rows[0][2].state.size if rows else 0
    head = "pi,branch_id,stable,x_norm_inf" + "".join(f",x{i + 1}" for i in range(n))
    row = "%.17g,%d,%d,%.17g" + ",%.17g" * n + "\n"
    states = np.array([eq.state for _, _, eq in rows]).reshape(len(rows), n)
    return head + "\n" + "".join(
        row % (pi, bid, eq.classification == "stable", norm, *x) for (pi, bid, eq), norm, x in zip(
            rows, np.abs(states).max(axis=1, initial=0.0).tolist(), states.tolist()))


def write_diagram_csv(result: SweepResult, path) -> None:
    with open(path, "w") as fh:
        fh.write(diagram_csv(result))


def write_diagram_svg(result: SweepResult, path, coord: int = 0) -> None:
    """Scatter of one state coordinate against effort. Stable points are
    solid, the rest hollow. Plain hand-written SVG, byte-deterministic.
    Raises DimensionError when ``coord`` is outside [0, n)."""
    rows = _diagram_rows(result)
    if rows and not 0 <= coord < rows[0][2].state.size:
        raise DimensionError(f"coordinate {coord} is outside [0, {rows[0][2].state.size})")
    xs = [pi for pi, _, _ in rows]
    ys = [float(eq.state[coord]) for _, _, eq in rows]
    w, h, m = 800, 500, 55
    # no point reads as one at (0, 0): the widening below gives (0, 1) x (-1, 1)
    x_lo, x_hi = min(xs, default=0.0), max(xs, default=0.0)
    y_lo, y_hi = min(ys, default=0.0), max(ys, default=0.0)
    if x_hi - x_lo < 1e-12:
        x_hi = x_lo + 1.0
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

    def sx(x):
        return m + (x - x_lo) / (x_hi - x_lo) * (w - 2 * m)

    def sy(y):
        return h - m - (y - y_lo) / (y_hi - y_lo) * (h - 2 * m)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
           f'viewBox="0 0 {w} {h}">',
           f'<rect width="{w}" height="{h}" fill="white"/>',
           f'<line x1="{m}" y1="{h - m}" x2="{w - m}" y2="{h - m}" stroke="black"/>',
           f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h - m}" stroke="black"/>']
    for t in np.linspace(x_lo, x_hi, 6):
        px = sx(t)
        out.append(f'<line x1="{px:.2f}" y1="{h - m}" x2="{px:.2f}" y2="{h - m + 5}" stroke="black"/>')
        out.append(f'<text x="{px:.2f}" y="{h - m + 18}" font-size="11" '
                   f'text-anchor="middle">{t:.3g}</text>')
    for t in np.linspace(y_lo, y_hi, 6):
        py = sy(t)
        out.append(f'<line x1="{m - 5}" y1="{py:.2f}" x2="{m}" y2="{py:.2f}" stroke="black"/>')
        out.append(f'<text x="{m - 8}" y="{py + 4:.2f}" font-size="11" '
                   f'text-anchor="end">{t:.3g}</text>')
    out.append(f'<text x="{w / 2:.0f}" y="{h - 12}" font-size="12" '
               f'text-anchor="middle">effort</text>')
    out.append(f'<text x="16" y="{h / 2:.0f}" font-size="12" text-anchor="middle" '
               f'transform="rotate(-90 16 {h / 2:.0f})">x{coord + 1}</text>')
    for (pi, _, eq), y in zip(rows, ys):
        cx, cy = sx(pi), sy(y)
        if eq.classification == "stable":
            out.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2" fill="#1f6fb5"/>')
        else:
            out.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2" fill="none" '
                       f'stroke="#c43d3d"/>')
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
