"""Order-2 hypernetwork container, validation, generation and text format.

An instance couples a weighted pairwise adjacency ``a2`` (n x n) with one
symmetric 2-interaction matrix per agent, stacked into ``b`` (n x n x n,
slice ``b[i]`` holding the weights agent i assigns to unordered pairs of
other agents). The generalized degree of agent i is the total weight it
receives over both orders. When every agent's 2-interaction budget is the
same multiple ``alpha`` of its pairwise budget, that multiple is detected
and stored; several analysis routines are only available in that regime.

Text serialization is line oriented::

    n=3 alpha=1
    [A2]
    0 1 1
    1 0 1
    1 1 0
    [B1]
    ...rows...
    [B2]
    ...

with decimals written to 17 significant digits so that values survive a
round trip exactly. ``alpha=none`` marks the non-proportional case.
"""
from __future__ import annotations

from collections import deque, namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    AsymmetryError,
    DimensionError,
    DisconnectedError,
    FormatError,
    GenerationError,
    NegativeWeightError,
    NonFiniteWeightError,
    SelfLoopError,
    ZeroDegreeError,
)

__all__ = [
    "Hypergraph2",
    "CheckResult",
    "build",
    "compute_degrees",
    "random_instance",
    "is_connected",
    "validation_report",
    "scale_two_interactions",
    "to_text",
    "parse_arrays",
    "from_text",
    "save",
    "load",
]

# relative tolerance for detecting a shared 2-interaction ratio
_ALPHA_RTOL = 1e-10
# Largest dense (n, n, n) triple tensor random_instance draws: 1 GiB, 512
# agents. build copies it and validation makes n^3 masks beside it, and every
# field or Jacobian row streams it once.
MAX_TENSOR_BYTES = 1 << 30
MAX_AGENTS = round((MAX_TENSOR_BYTES / 8) ** (1 / 3))


@dataclass(frozen=True)
class Hypergraph2:
    """Validated instance. Arrays are read-only; build() is the constructor."""

    a2: np.ndarray
    b: np.ndarray
    degrees: np.ndarray
    alpha: Optional[float]

    @property
    def n(self) -> int:
        return self.a2.shape[0]


def _pair_rows(g: Hypergraph2, p: np.ndarray) -> np.ndarray:
    """b @ p, (n, n) or (m, n, n): row i is agent i's 2-interaction mass against
    p (n,), or against each row of a stack p (m, n), one contraction per row so
    that no row's bits depend on the stack height."""
    return g.b @ p if p.ndim == 1 else (g.b @ p[:, None, :, None])[..., 0]


def _received_mass(g: Hypergraph2) -> np.ndarray:
    """(i, k): total weight agent i puts on pairs that hold agent k."""
    return g.b.sum(axis=1)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def is_connected(support: np.ndarray) -> bool:
    """Breadth-first reachability of every node from node 0."""
    n = support.shape[0]
    if n == 0:
        return False
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in np.flatnonzero(support[u]):
            if not seen[v]:
                seen[v] = True
                queue.append(int(v))
    return bool(seen.all())


def _arrays(a2, b):
    """Float arrays of checked shape with the per-agent pairwise and
    2-interaction weight totals: (a2, b, pair_mass, tri_mass)."""
    a2 = np.asarray(a2, dtype=float)
    if a2.ndim != 2 or a2.shape[0] != a2.shape[1]:
        raise DimensionError(f"pairwise adjacency must be square, got shape {a2.shape}")
    n = a2.shape[0]
    if n < 2:
        raise DimensionError("at least 2 agents are required")
    b = np.asarray(b, dtype=float)
    if b.shape != (n, n, n):
        raise DimensionError(
            f"2-interaction stack must have shape {(n, n, n)}, got {b.shape}"
        )
    return a2, b, a2.sum(axis=1), b.sum(axis=(1, 2))


def _first(mask: np.ndarray):
    """Index tuple of the first True entry of ``mask`` in C order, or None."""
    hit = np.argwhere(mask)
    return tuple(map(int, hit[0])) if hit.size else None


def _non_finite(a2, b, deg):
    bad = _first(~np.isfinite(a2))
    if bad is not None:
        return (f"pairwise entry {bad}",)
    bad = _first(~np.isfinite(b))
    return None if bad is None else (f"agent {bad[0]}, pair {bad[1:]}",)


def _own_participant(a2, b, deg):
    """First nonzero weight agent i puts on a pair holding i or a repeated agent."""
    n = b.shape[0]
    own = np.zeros((n, n, n), dtype=bool)
    idx = np.arange(n)
    own[idx, idx, :] = True
    own[idx, :, idx] = True
    own |= np.eye(n, dtype=bool)[None, :, :]  # repeated participant
    return _first((b != 0.0) & own)


# One row per structural requirement, in report order: its name, the error it
# raises, a finder that maps (a2, b, degrees) to the first offender's fields
# (None when the requirement holds), and the message and report detail those
# fields are formatted into.
_Check = namedtuple("_Check", "name error find message detail")
_CHECKS = (
    _Check("finite weights", NonFiniteWeightError, _non_finite,
           "weights must be finite: {0} is not", "first offender {0}"),
    _Check("pairwise symmetry", AsymmetryError, lambda a2, b, deg: _first(a2 != a2.T),
           "pairwise adjacency must be symmetric: entries ({0},{1}) and ({1},{0}) differ",
           "first offender ({0},{1})"),
    _Check("pairwise null diagonal", SelfLoopError,
           lambda a2, b, deg: _first(np.diag(a2) != 0.0),
           "pairwise adjacency must have zero diagonal: entry ({0},{0}) is nonzero",
           "first offender ({0},{0})"),
    _Check("pairwise nonnegativity", NegativeWeightError, lambda a2, b, deg: _first(a2 < 0.0),
           "pairwise weights must be nonnegative: entry ({0},{1}) is negative",
           "first offender ({0},{1})"),
    _Check("pairwise connectivity", DisconnectedError,
           lambda a2, b, deg: None if is_connected(a2 != 0.0) else (),
           "pairwise support graph must connect all agents", ""),
    _Check("2-interaction symmetry", AsymmetryError,
           lambda a2, b, deg: _first(b != np.transpose(b, (0, 2, 1))),
           "2-interaction matrix {0} must be symmetric: entries ({1},{2}) and ({2},{1}) differ",
           "first offender agent {0}, pair ({1},{2})"),
    _Check("2-interaction participants", SelfLoopError, _own_participant,
           "2-interaction matrix {0} may only weight pairs of two other agents: "
           "entry ({1},{2}) is nonzero", "first offender agent {0}, pair ({1},{2})"),
    _Check("2-interaction nonnegativity", NegativeWeightError,
           lambda a2, b, deg: _first(b < 0.0),
           "2-interaction weights must be nonnegative: agent {0}, entry ({1},{2})",
           "first offender agent {0}, pair ({1},{2})"),
    _Check("positive degrees", ZeroDegreeError, lambda a2, b, deg: _first(deg <= 0.0),
           "agent {0} has generalized degree 0", "agent {0}"),
)


def _run_checks(a2, b, deg, checks=_CHECKS):
    """Yield (name, error_or_None, detail) for each of ``checks``, given the
    generalized degrees ``deg``."""
    for check in checks:
        hit = check.find(a2, b, deg)
        if hit is None:
            yield check.name, None, ""
        else:
            yield (check.name, check.error(check.message.format(*hit)),
                   check.detail.format(*hit))


def _raise_first(a2, b, deg, checks=_CHECKS):
    for _, err, _ in _run_checks(a2, b, deg, checks):
        if err is not None:
            raise err


def validation_report(a2, b) -> list[CheckResult]:
    """Run every structural check and report instead of raising."""
    a2, b, pair_mass, tri_mass = _arrays(a2, b)
    return [CheckResult(name, err is None, detail)
            for name, err, detail in _run_checks(a2, b, pair_mass + tri_mass)]


def compute_degrees(a2, b) -> np.ndarray:
    """Generalized degrees: pairwise row sums plus full 2-interaction mass."""
    _, _, pair_mass, tri_mass = _arrays(a2, b)
    deg = pair_mass + tri_mass
    _raise_first(None, None, deg, _CHECKS[-1:])
    return deg


def _detect_alpha(pair_mass: np.ndarray, tri_mass: np.ndarray) -> Optional[float]:
    ratios = tri_mass / pair_mass
    spread = float(ratios.max() - ratios.min())
    if spread <= _ALPHA_RTOL * max(1.0, float(np.abs(ratios).max())):
        return float(ratios.mean())
    return None


def build(a2, b) -> Hypergraph2:
    """Validate raw arrays and assemble a read-only instance.

    Raises the error named after the first violated requirement. Consistency
    across different agents' 2-interaction matrices is deliberately not
    enforced; each slice stands on its own.
    """
    a2, b, pair_mass, tri_mass = _arrays(a2, b)
    a2, b = a2.copy(), b.copy()
    deg = pair_mass + tri_mass
    _raise_first(a2, b, deg)
    alpha = _detect_alpha(pair_mass, tri_mass)
    for arr in (a2, b, deg):
        arr.setflags(write=False)
    return Hypergraph2(a2=a2, b=b, degrees=deg, alpha=alpha)


def random_instance(n: int, p2: float, p3: float, alpha: float, seed: int) -> Hypergraph2:
    """Draw a connected instance with a shared 2-interaction ratio ``alpha``.

    Pairwise entries are nonzero with probability ``p2`` and carry uniform
    weights; the draw is repeated until the support is connected. Each
    agent's 2-interaction matrix is drawn the same way with probability
    ``p3`` over admissible pairs and then rescaled so its total mass is
    alpha times the agent's pairwise mass (alpha = 0 zeroes it). Both
    resampling loops give up after 100 attempts with GenerationError.
    Identical arguments always produce bit-identical instances. Raises
    DimensionError for more than ``MAX_AGENTS`` agents.
    """
    if n < 2:
        raise DimensionError("at least 2 agents are required")
    if 8 * n ** 3 > MAX_TENSOR_BYTES:
        raise DimensionError(
            f"{n} agents need a {8 * n ** 3 / 2 ** 30:.3g} GiB triple tensor; at most "
            f"{MAX_AGENTS} agents fit in {MAX_TENSOR_BYTES / 2 ** 30:g} GiB")
    if not (0.0 < p2 <= 1.0):
        raise ValueError("p2 must be in (0, 1]")
    if not (0.0 <= p3 <= 1.0):
        raise ValueError("p3 must be in [0, 1]")
    if alpha < 0.0:
        raise ValueError("alpha must be nonnegative")

    rng = np.random.default_rng(seed)
    iu = np.triu_indices(n, 1)

    for _ in range(100):
        mask = rng.random(iu[0].size) < p2
        weights = rng.uniform(0.0, 1.0, iu[0].size)
        a2 = np.zeros((n, n))
        a2[iu] = np.where(mask, weights, 0.0)
        a2 = a2 + a2.T
        if is_connected(a2 != 0.0):
            break
    else:
        raise GenerationError(
            f"no connected pairwise draw in 100 attempts (n={n}, p2={p2})")

    b = np.zeros((n, n, n))
    for i in range(n):
        keep = (iu[0] != i) & (iu[1] != i)
        rows, cols = iu[0][keep], iu[1][keep]
        for _ in range(100):
            mask = rng.random(rows.size) < p3
            weights = rng.uniform(0.0, 1.0, rows.size)
            vals = np.where(mask, weights, 0.0)
            total = 2.0 * vals.sum()
            if alpha == 0.0:
                break
            if total > 0.0:
                vals = vals * (alpha * a2[i].sum() / total)
                break
        else:
            raise GenerationError(
                f"agent {i}: no nonzero 2-interaction draw in 100 attempts (p3={p3})")
        if alpha > 0.0:
            b[i][rows, cols] = vals
            b[i][cols, rows] = vals

    g = build(a2, b)
    if g.alpha is None or abs(g.alpha - alpha) > _ALPHA_RTOL * max(1.0, alpha):
        raise GenerationError("generated instance lost the requested ratio")
    return g


def scale_two_interactions(g: Hypergraph2, factor: float) -> Hypergraph2:
    """Rescale every 2-interaction matrix by ``factor`` and revalidate.

    The magnitude at which quadratic effects stay perturbative is not known
    in advance, so experiments scan this knob instead of guessing.
    """
    if factor < 0.0:
        raise ValueError("factor must be nonnegative")
    return build(g.a2, g.b * factor)


# -- text format ---------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def to_text(g: Hypergraph2) -> str:
    lines = []
    alpha = "none" if g.alpha is None else _fmt(g.alpha)
    lines.append(f"n={g.n} alpha={alpha}")
    lines.append("[A2]")
    for row in g.a2:
        lines.append(" ".join(_fmt(v) for v in row))
    for i in range(g.n):
        lines.append(f"[B{i + 1}]")
        for row in g.b[i]:
            lines.append(" ".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _parse_matrix(lines, start, n, label):
    rows = []
    for r in range(n):
        lineno = start + r
        if lineno > len(lines):
            raise FormatError(f"unexpected end of file inside {label}", len(lines))
        parts = lines[lineno - 1].split()
        if len(parts) != n:
            raise FormatError(
                f"{label} row {r + 1} has {len(parts)} entries, expected {n}", lineno)
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise FormatError(f"{label} row {r + 1} has a non-numeric entry", lineno)
    return np.array(rows), start + n


def parse_arrays(text: str) -> tuple[np.ndarray, np.ndarray, Optional[float]]:
    """Parse the sectioned text format without validating the contents.

    Returns (a2, b, header_alpha). Raises FormatError (with a line number)
    on structural problems only; use build() or validation_report() on the
    arrays afterwards.
    """
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    idx = 1
    while idx <= len(lines) and not lines[idx - 1].strip():
        idx += 1
    if idx > len(lines):
        raise FormatError("empty input", 1)

    header = lines[idx - 1].split()
    if len(header) != 2 or not header[0].startswith("n=") or not header[1].startswith("alpha="):
        raise FormatError("header must be 'n=<int> alpha=<float|none>'", idx)
    try:
        n = int(header[0][2:])
    except ValueError:
        raise FormatError("header has a non-integer agent count", idx)
    if n < 2:
        raise FormatError("at least 2 agents are required", idx)
    alpha_text = header[1][len("alpha="):]
    if alpha_text == "none":
        header_alpha = None
    else:
        try:
            header_alpha = float(alpha_text)
        except ValueError:
            raise FormatError("header alpha must be a float or 'none'", idx)
    idx += 1

    def expect_section(tag):
        nonlocal idx
        if idx > len(lines) or lines[idx - 1].strip() != tag:
            raise FormatError(f"expected section marker {tag}", min(idx, len(lines)))
        idx += 1

    expect_section("[A2]")
    a2, idx = _parse_matrix(lines, idx, n, "[A2]")
    # n blocks of n + 1 lines must follow. A shorter text fails in the loop
    # below, so it parses its blocks without the n^3 array.
    short = len(lines) - idx + 1 < n * (n + 1)
    b = None if short else np.zeros((n, n, n))
    for i in range(n):
        expect_section(f"[B{i + 1}]")
        block, idx = _parse_matrix(lines, idx, n, f"[B{i + 1}]")
        if not short:
            b[i] = block

    while idx <= len(lines):
        if lines[idx - 1].strip():
            raise FormatError("trailing content after the last section", idx)
        idx += 1
    return a2, b, header_alpha


def from_text(text: str) -> Hypergraph2:
    """Parse the sectioned text format and rebuild (revalidating everything)."""
    return _from_parsed(*parse_arrays(text))


def _from_parsed(a2, b, header_alpha) -> Hypergraph2:
    """build() parsed arrays and check the ratio against the header's."""
    g = build(a2, b)
    if header_alpha is None:
        if g.alpha is not None:
            raise FormatError(
                "header says alpha=none but the slices share a common ratio", 1)
    else:
        if g.alpha is None or abs(g.alpha - header_alpha) > 1e-9 * max(1.0, abs(header_alpha)):
            raise FormatError("header alpha disagrees with the stored matrices", 1)
    return g


def save(g: Hypergraph2, path) -> None:
    with open(path, "w") as fh:
        fh.write(to_text(g))


def load(path) -> Hypergraph2:
    with open(path) as fh:
        return from_text(fh.read())
