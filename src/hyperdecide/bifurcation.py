"""Effort sweeps: branch threading, bistability interval, basin probes.

A sweep runs the global equilibrium search over its whole effort grid
(``equilibria._search_grid``: chunks of whole levels, each one Newton
stack), then threads the per-level results into branches by greedy
nearest-neighbor matching in sup norm (natural-parameter continuation).
An unmatched branch is rescued once by a Newton run seeded from its last
state; a rescue that lands on an equilibrium already claimed by another
branch (the same equilibrium in the sense of ``find_all``'s dedup) records a
merge and terminates the branch there. Branch births at interior grid points
caused by a root-count increase are annotated as folds, the first point where
a branch enters or leaves the 'stable' classification as its stability
change. A branch that simply stops before the end of the grid records
its termination by its last point.

Every level's result is independent of the others; ``workers > 1``
splits the grid into at most one contiguous slice per CPU and per level
and searches each slice in a process pool (the sigmoid family must then be
picklable, which the module-level tanh family is). Threading is a
sequential deterministic pass, so worker count never changes the result.
"""
from __future__ import annotations

import io
import os
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionError, NewtonDivergence, NoBistabilityError, SingularJacobian
from .hypergraph import Hypergraph2
from .nonlinearity import SigmoidFamily, tanh_family
# integrate and find_all are not called here; benchmarks/tracing.py binds them
# by these names
from .dynamics import SystemInstance, _rk4_rows, integrate
from .equilibria import (
    Equilibrium,
    ScalarReduced,
    _newton_raw,
    _same_equilibrium,
    _search_grid,
    classify,
    consensus_roots,
    find_all,
    pi1_star,
)
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

# Matching tolerance floor and slope multiplier for branch threading.
_MATCH_FLOOR = 0.05
_SLOPE_INIT = 10.0
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


def _match_tol(slope: float, dpi: float) -> float:
    return max(_SLOPE_INIT * dpi * slope, _MATCH_FLOOR)


def sweep(g: Hypergraph2, psi: Optional[SigmoidFamily] = None,
          pi_grid=None, workers: int = 1) -> SweepResult:
    """Thread equilibria across an increasing effort grid into branches.
    ValueError, before any level is searched, when the largest level is
    too large for a ``SystemInstance``."""
    psi = psi or tanh_family()
    grid = make_grid(PI_MIN, PI_MAX, PI_STEP) if pi_grid is None else np.asarray(pi_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty grid")
    if not (np.all(np.diff(grid) > 0.0) and grid[0] > 0.0):
        raise ValueError("grid must be strictly increasing and positive")
    SystemInstance(graph=g, psi=psi, pi=float(grid[-1]))

    if workers < 1:
        raise ValueError("workers must be at least 1")
    workers = min(workers, os.cpu_count() or 1, grid.size)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_pi = [eqs for part in pool.map(partial(_search_grid, g, psi),
                                               np.array_split(grid, workers))
                      for eqs in part]
    else:
        per_pi = _search_grid(g, psi, grid)

    branches: list[BifurcationBranch] = []
    active: list[int] = []
    slopes: dict[int, float] = {}

    def new_branch(pi, eq, fold_at=None):
        b = BifurcationBranch(branch_id=len(branches), points=[(pi, eq)], fold_at=fold_at)
        branches.append(b)
        active.append(b.branch_id)
        slopes[b.branch_id] = _SLOPE_INIT

    for eq in per_pi[0]:
        new_branch(float(grid[0]), eq)

    for k in range(1, grid.size):
        pi = float(grid[k])
        dpi = float(grid[k] - grid[k - 1])
        eqs = per_pi[k]
        pairs = []
        for bi in active:
            last = branches[bi].points[-1][1].state
            for ei, eq in enumerate(eqs):
                pairs.append((float(np.abs(eq.state - last).max()), bi, ei))
        pairs.sort()
        matched_b: set[int] = set()
        claimed_e: set[int] = set()
        for d, bi, ei in pairs:
            if bi in matched_b or ei in claimed_e:
                continue
            if d > _match_tol(slopes[bi], dpi):
                continue
            branches[bi].points.append((pi, eqs[ei]))
            slopes[bi] = max(slopes[bi], d / dpi)
            matched_b.add(bi)
            claimed_e.add(ei)

        still_active = []
        for bi in active:
            if bi in matched_b:
                still_active.append(bi)
                continue
            # rescue pass: reseed Newton from the branch's last state
            last = branches[bi].points[-1][1].state
            s = SystemInstance(graph=g, psi=psi, pi=pi)
            try:
                x, res = _newton_raw(s, last)
            except (NewtonDivergence, SingularJacobian):
                continue
            if float(np.abs(x - last).max()) > _match_tol(slopes[bi], dpi):
                continue
            hit = next((ei for ei, eq in enumerate(eqs) if _same_equilibrium(x, eq.state)),
                       None)
            if hit is not None and hit in claimed_e:
                # merged into another branch; record the collision point and stop
                branches[bi].points.append((pi, eqs[hit]))
                continue
            if hit is not None:
                branches[bi].points.append((pi, eqs[hit]))
                claimed_e.add(hit)
            else:
                branches[bi].points.append((pi, classify(s, x, res)))
            still_active.append(bi)
        active = still_active

        born_from_growth = len(eqs) > len(per_pi[k - 1])
        for ei, eq in enumerate(eqs):
            if ei not in claimed_e:
                new_branch(pi, eq, fold_at=pi if born_from_growth else None)

    for b in branches:
        for (pi_prev, eq_prev), (pi_cur, eq_cur) in zip(b.points, b.points[1:]):
            if (eq_prev.classification == "stable") != (eq_cur.classification == "stable"):
                b.stability_change_at = pi_cur
                break

    bistability = None
    if g.alpha is not None and g.alpha > 0.0:
        try:
            bistability = bistability_interval(g, psi)
        except NoBistabilityError:
            bistability = None
    return SweepResult(grid=grid, branches=branches, bistability=bistability)


def bistability_interval(g: Hypergraph2, psi: Optional[SigmoidFamily] = None) -> tuple:
    """Effort window with two coexisting stable states, verified by sampling.

    Lower end is the fold level of the scalar consensus balance, upper end
    the origin's stability loss. Five interior samples must show both the
    origin and the lifted upper root stable, otherwise the window is
    rejected.
    """
    if g.alpha is None:
        raise ValueError("instance has no shared 2-interaction ratio")
    psi = psi or tanh_family()
    if g.alpha == 0.0:
        raise NoBistabilityError("zero ratio: the fold degenerates, no window")
    lo, _ = pi1_star(g.alpha, psi)
    hi = thresholds(g).pi1
    if not lo < hi:
        raise NoBistabilityError(f"empty window ({lo!r}, {hi!r})")
    for t in range(1, 6):
        pi = lo + (hi - lo) * t / 6.0
        s = SystemInstance(graph=g, psi=psi, pi=pi)
        origin = classify(s, np.zeros(g.n))
        upper = classify(s, *_upper_consensus(s))
        if origin.classification != "stable" or upper.classification != "stable":
            raise NoBistabilityError(f"missing stable pair at effort {pi!r}")
    return (lo, hi)


def _upper_consensus(s: SystemInstance):
    """Newton's (state, residual) from c * ones at the largest positive
    consensus root c; NoBistabilityError when there is no root or Newton fails."""
    roots = consensus_roots(ScalarReduced(alpha=s.graph.alpha, pi=s.pi), s.psi)
    if not roots:
        raise NoBistabilityError(f"no upper root at effort {s.pi!r}")
    try:
        return _newton_raw(s, max(roots) * np.ones(s.graph.n))
    except (NewtonDivergence, SingularJacobian) as exc:
        raise NoBistabilityError(f"upper state lost at effort {s.pi!r}") from exc


@dataclass(frozen=True)
class BasinReport:
    """Attractor labels for consensus-line starts c * ones."""

    radii: tuple
    labels: tuple
    finals: tuple

    @property
    def monotone(self) -> bool:
        """True when, sorted by radius, labels are origin* then upper*."""
        order = np.argsort(np.asarray(self.radii))
        labs = [self.labels[i] for i in order]
        if any(l == "other" for l in labs):
            return False
        seen_upper = False
        for l in labs:
            if l == "upper":
                seen_upper = True
            elif seen_upper:
                return False
        return True


def basin_probe(s: SystemInstance, radii: Sequence[float]) -> BasinReport:
    """Integrate from c * ones for every radius c and label the attractor
    reached. All radii run as one RK4 stack (``_rk4_rows``); each row's run
    is bitwise the one ``integrate`` gives from that start alone."""
    radii = tuple(float(c) for c in radii)
    target = None
    if s.graph.alpha is not None:
        try:
            target, _ = _upper_consensus(s)
        except NoBistabilityError:
            pass
    labels = []
    finals = []
    for traj in _rk4_rows(s, np.outer(radii, np.ones(s.graph.n))):
        x = traj.states[-1]
        finals.append(x)
        if not traj.converged:
            labels.append("other")
        elif np.abs(x).max() < _ATTRACTOR_TOL:
            labels.append("origin")
        elif target is not None and np.abs(x - target).max() < _ATTRACTOR_TOL:
            labels.append("upper")
        else:
            labels.append("other")
    return BasinReport(radii=radii, labels=tuple(labels), finals=tuple(finals))


def diagram_csv(result: SweepResult) -> str:
    rows = []
    n = None
    for b in result.branches:
        for pi, eq in b.points:
            n = eq.state.size
            rows.append((pi, b.branch_id, eq))
    rows.sort(key=lambda r: (r[0], r[1]))
    buf = io.StringIO()
    head = "pi,branch_id,stable,x_norm_inf"
    if n is not None:
        head += "," + ",".join(f"x{i + 1}" for i in range(n))
    buf.write(head + "\n")
    for pi, bid, eq in rows:
        buf.write(format(pi, ".17g") + f",{bid},"
                  + ("1" if eq.classification == "stable" else "0") + ","
                  + format(eq.norm_inf, ".17g") + ","
                  + ",".join(format(float(v), ".17g") for v in eq.state) + "\n")
    return buf.getvalue()


def write_diagram_csv(result: SweepResult, path) -> None:
    with open(path, "w") as fh:
        fh.write(diagram_csv(result))


def write_diagram_svg(result: SweepResult, path, coord: int = 0) -> None:
    """Scatter of one state coordinate against effort. Stable points are
    solid, the rest hollow. Plain hand-written SVG, byte-deterministic.
    Raises DimensionError when ``coord`` is outside [0, n)."""
    pts = []
    for b in result.branches:
        for pi, eq in b.points:
            if not 0 <= coord < eq.state.size:
                raise DimensionError(f"coordinate {coord} is outside [0, {eq.state.size})")
            pts.append((pi, float(eq.state[coord]), eq.classification == "stable", b.branch_id))
    pts.sort(key=lambda p: (p[0], p[3]))
    w, h, m = 800, 500, 55
    if pts:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, -1.0, 1.0
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
    for pi, y, stable, _ in pts:
        cx, cy = sx(pi), sy(y)
        if stable:
            out.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2" fill="#1f6fb5"/>')
        else:
            out.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2" fill="none" '
                       f'stroke="#c43d3d"/>')
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
