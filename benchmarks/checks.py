"""Checks of the program's outputs against the independent reference.

Each check function returns (failed operations, problems). An operation is
one effort level of a sweep or one integration start of a basin run; a
problem is a finding about the run as a whole, which makes it incorrect.
"""
from __future__ import annotations

import numpy as np

from reference import Reference

RESIDUAL = 1e-9         # sweep records under the reference field
RESIDUAL_FINAL = 1e-10  # final states of RK4 runs
EIG_MARGIN = 1e-6       # stability flags are judged only this far from zero
SMALL = 1e-6            # sup norm of a trivial state; distance to an attractor
CONSENSUS = 1e-8        # spread of a consensus state; scalar-balance residual
ORIGIN = 1e-9           # sup norm of the origin record
BISTABILITY = 1e-9


def read_diagram(text: str):
    """(pi, stable, state) rows of a diagram CSV."""
    rows = []
    for line in text.splitlines()[1:]:
        parts = line.split(",")
        rows.append((float(parts[0]), parts[2] == "1",
                     np.array([float(v) for v in parts[4:]])))
    return rows


def check_sweep(ref: Reference, csv_text: str, summary: dict, grid: np.ndarray):
    step = float(grid[1] - grid[0])
    failed: set[int] = set()
    problems: list[str] = []
    levels: dict[int, list] = {k: [] for k in range(grid.size)}
    for pi, stable, x in read_diagram(csv_text):
        k = int(round((pi - grid[0]) / step))
        if not (0 <= k < grid.size and abs(grid[k] - pi) <= 1e-9):
            problems.append(f"record at pi={pi!r} is off the grid")
            continue
        levels[k].append((stable, x))

    origin_stable: dict[int, bool] = {}
    born = None
    for k, records in levels.items():
        pi = float(grid[k])
        ok = True
        for stable, x in records:
            norm = float(np.abs(x).max())
            ok &= float(np.abs(ref.field(x, pi)).max()) < RESIDUAL
            top = ref.rightmost(x, pi)
            if abs(top) >= EIG_MARGIN:
                ok &= stable == (top < 0.0)
            if pi < 1.0:
                ok &= norm <= SMALL  # |x| <= pi |x| forces the origin
            if ref.alpha is not None and np.ptp(x) <= CONSENSUS:
                ok &= abs(float(ref.gap(x.mean(), pi))) < CONSENSUS
            if norm <= ORIGIN:
                origin_stable[k] = stable
        if k not in origin_stable:
            ok = False
        nontrivial = sum(float(np.abs(x).max()) > SMALL for _, x in records)
        if born is None and nontrivial:
            born = (k, nontrivial)
        if not ok:
            failed.add(k)

    pi1 = ref.pi1()
    flags = [origin_stable[k] for k in sorted(origin_stable)]
    flips = [k for a, k in zip(sorted(origin_stable), sorted(origin_stable)[1:])
             if origin_stable[a] != origin_stable[k]]
    if flags[:1] != [True] or len(flips) != 1 or abs(grid[flips[0]] - pi1) > step + 1e-12:
        problems.append(f"origin stability does not flip once near pi1={pi1:.12g}")

    bistability = summary["bistability"]
    if ref.alpha is None:
        if bistability is not None:
            problems.append("bistability reported without a shared ratio")
        return failed, problems
    fold, _ = ref.fold()
    if born is None or born[1] < 2 or abs(grid[born[0]] - fold) > step + 1e-12:
        problems.append(f"first nontrivial pair {born} not born at the fold {fold:.12g}")
    if bistability is None or np.abs(np.subtract(bistability, (fold, pi1))).max() > BISTABILITY:
        problems.append(f"bistability {bistability} != reference ({fold!r}, {pi1!r})")
    return failed, problems


def check_basin(ref: Reference, dump, spec: dict):
    """Radius runs come first, then the random starts, in operation order."""
    pi = spec["pi"]
    upper = ref.upper_root(pi) * np.ones(ref.degrees.size)
    failed: set[int] = set()
    problems: list[str] = []

    def attractor(x):
        if float(np.abs(ref.field(x, pi)).max()) >= RESIDUAL_FINAL:
            return None
        if float(np.abs(x).max()) <= SMALL:
            return "origin"
        if float(np.abs(x - upper).max()) <= SMALL:
            return "upper"
        return None

    radius_labels = []
    for op, (label, x) in enumerate(zip(dump["labels"], dump["radius_finals"])):
        found = attractor(x)
        radius_labels.append(found)
        if found is None or found != label:
            failed.add(op)
    order = np.argsort(spec["radii"])
    if radius_labels[order[0]] != "origin" or radius_labels[order[-1]] != "upper":
        problems.append("the smallest radius must reach the origin and the largest "
                        "the upper state")

    first = len(spec["radii"])
    ends = np.cumsum(dump["start_lengths"])
    for j, x in enumerate(dump["start_finals"]):
        norms = dump["start_norms"][ends[j] - dump["start_lengths"][j]:ends[j]]
        inside = np.flatnonzero(norms <= pi)
        enters_and_stays = inside.size > 0 and bool((norms[inside[0]:] <= pi).all())
        if not (dump["converged"][j] and attractor(x) and enters_and_stays):
            failed.add(first + j)
    return failed, problems
