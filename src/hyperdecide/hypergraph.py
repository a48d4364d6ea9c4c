"""Order-2 hypernetwork container, validation, generation and text format.

An instance couples a weighted pairwise adjacency ``a2`` (n x n) with one
symmetric 2-interaction matrix per agent, stacked into ``b`` (n x n x n,
slice ``b[i]`` holding the weights agent i assigns to unordered pairs of
other agents). The generalized degree of agent i is the total weight it
receives over both orders. When every agent's 2-interaction budget is the
same multiple ``alpha`` of its pairwise budget, that multiple is detected
and stored; several analysis routines are only available in that regime.

This is the only module that reads the triples. ``build`` validates the
caller's dense ``b`` and keeps only the instance's one store of them, the
incidence list ``triples``: the nonzero ``w = b[i, j, k]`` with j < k, sorted
by (i, j, k). Every contraction (the field's triple term, ``b @ p`` for the
Jacobian and the normal form, the received mass of ``h_matrix``) sums over
it, so its cost grows with the number of triples rather than with n^3.
``Hypergraph2.b`` rebuilds the dense tensor on each access (text format, rescaling).

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
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

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
    "Triples",
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
# agents. The text format holds it, and build makes n^3 validation masks beside it.
MAX_TENSOR_BYTES = 1 << 30
MAX_AGENTS = round((MAX_TENSOR_BYTES / 8) ** (1 / 3))
# Scatter entries (rows times 2 T, T the triple count) of one bincount in
# _pair_rows: its int64 bin index and weights stay within about 1 MiB. That
# is one row at n = 120 (2 T of about 34 000) and a whole n = 5 stack.
_SCATTER_ENTRIES = 1 << 16


class Triples(NamedTuple):
    """The nonzero 2-interaction weights ``w = b[i, j, k]`` with j < k, sorted
    by (i, j, k), and the index arrays the contractions sum them with.

    The field's triple term of agent i sums ``term_w * p[term_j] * p[term_k]``
    over the segment of agent i that starts at ``term_starts[i]``: the list
    with doubled weights, plus one zero-weight entry for each agent without
    triples so that no segment is empty. Entry (i, j) of b @ p sums
    ``w2[e] * p[src[e]]`` over the entries e with ``dest[e] = i * n + j``.
    """

    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    w: np.ndarray
    term_j: np.ndarray
    term_k: np.ndarray
    term_w: np.ndarray
    term_starts: np.ndarray
    dest: np.ndarray
    src: np.ndarray
    w2: np.ndarray


def _triple_list(b: np.ndarray) -> Triples:
    n = b.shape[0]
    # C order, so sorted by (i, j, k); a boolean mask is the fast nonzero scan
    i, j, k = np.unravel_index(np.flatnonzero(b != 0.0), b.shape)
    upper = j < k
    i, j, k = i[upper], j[upper], k[upper]
    w = b[i, j, k]
    bare = np.flatnonzero(np.bincount(i, minlength=n) == 0)
    term_i, term_j, term_k = (np.concatenate((x, bare)) for x in (i, j, k))
    term_w = np.concatenate((2.0 * w, np.zeros(bare.size)))
    order = np.argsort(term_i, kind="stable")
    arrays = Triples(i, j, k, w, term_j[order], term_k[order], term_w[order],
                     np.searchsorted(term_i[order], np.arange(n)),
                     np.concatenate((i * n + j, i * n + k)), np.concatenate((k, j)),
                     np.concatenate((w, w)))
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class Hypergraph2:
    """Validated instance. Arrays are read-only; build() is the constructor.
    ``triples`` is the only store of the 2-interactions."""

    a2: np.ndarray
    triples: Triples = field(repr=False, compare=False)
    degrees: np.ndarray
    alpha: Optional[float]

    @property
    def n(self) -> int:
        return self.a2.shape[0]

    @property
    def b(self) -> np.ndarray:
        """The dense (n, n, n) tensor, rebuilt read-only from ``triples`` on each access."""
        t, n = self.triples, self.n
        b = np.zeros((n, n, n))
        b[t.i, t.j, t.k] = b[t.i, t.k, t.j] = t.w
        b.setflags(write=False)
        return b


# The sums below run in a fixed order over each row's own entries (a segment
# of np.add.reduceat, a bin of np.bincount), never through a BLAS product, so
# a row of a stack (m, n) gets the same bits as the state alone.

def _triple_term_of(g: Hypergraph2):
    """The function p -> sum_jk b[i, j, k] p_j p_k for every agent i, for one
    state p (n,) or every row of a stack (m, n), with the triple arrays bound
    once. When every agent has exactly one term entry (an agent without
    triples counts its zero-weight entry), each segment sum is its one entry,
    so the products are returned as they are: the same bits without the
    segment sum, as on the paper's 5-agent example."""
    t = g.triples
    term_j, term_k, term_w, starts = t.term_j, t.term_k, t.term_w, t.term_starts
    one_entry = starts.size == term_j.size

    def term(p):
        # the same gathered values either way; p[idx] is numpy's fast path for
        # one state (0.23 against 0.6 us at n = 5, 8 gathers per RK4 step)
        pj, pk = ((p[term_j], p[term_k]) if p.ndim == 1 else
                  (p.take(term_j, axis=-1), p.take(term_k, axis=-1)))
        # (pj pk) w, multiplied in place: no stack-sized temporaries
        pj *= pk
        pj *= term_w
        return pj if one_entry else np.add.reduceat(pj, starts, axis=-1)
    return term


def _triple_term(g: Hypergraph2, p: np.ndarray) -> np.ndarray:
    """sum_jk b[i, j, k] p_j p_k for every agent i, for one state p (n,) or
    every row of a stack (m, n)."""
    return _triple_term_of(g)(p)


def _pair_rows(g: Hypergraph2, p: np.ndarray) -> np.ndarray:
    """b @ p, (n, n) or (m, n, n): row i is agent i's 2-interaction mass against
    p (n,), or against each row of a stack p (m, n)."""
    t, n = g.triples, g.n
    rows = p.size // n
    v = p.reshape(rows, n).take(t.src, axis=1)
    v *= t.w2
    # one bincount per block of _SCATTER_ENTRIES, so no m x 2 T bin index is
    # built; a bin sums its row's entries in list order either way. The
    # output is float, as bincount gives integers when there are no triples.
    mass = np.empty((rows, n * n))
    block = max(1, _SCATTER_ENTRIES // max(1, t.dest.size))
    for a in range(0, rows, block):
        b = min(a + block, rows)
        bins = t.dest if b - a == 1 else np.arange(0, (b - a) * n * n, n * n)[:, None] + t.dest
        mass[a:b] = np.bincount(bins.ravel(), v[a:b].ravel(), (b - a) * n * n).reshape(b - a, -1)
    return mass.reshape(p.shape + (n,))


def _received_mass(g: Hypergraph2) -> np.ndarray:
    """(i, k): total weight agent i puts on pairs that hold agent k."""
    return _pair_rows(g, np.ones(g.n))


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
    """Index tuple of the first True entry of a nonempty ``mask`` in C order,
    or None. argmax stops at the first True and lists no indices."""
    at = int(mask.argmax())
    return tuple(map(int, np.unravel_index(at, mask.shape))) if mask.flat[at] else None


def _non_finite(a2, b, deg):
    bad = _first(~np.isfinite(a2))
    if bad is not None:
        return (f"pairwise entry {bad}",)
    bad = _first(~np.isfinite(b))
    return None if bad is None else (f"agent {bad[0]}, pair {bad[1:]}",)


def _own_participant(a2, b, deg):
    """First nonzero weight agent i puts on a pair holding i or a repeated
    agent: b[i, i, k], b[i, j, i] or b[i, j, j]. Each set is an (n, n) slice
    in b's C order, so the least of the slices' first hits is b's first."""
    idx = np.arange(b.shape[0])
    hits = []
    for entries, at in ((b[idx, idx, :], lambda i, k: (i, i, k)),
                        (b[idx, :, idx], lambda i, j: (i, j, i)),
                        (b[:, idx, idx], lambda i, j: (i, j, j))):
        hit = _first(entries != 0.0)
        if hit is not None:
            hits.append(at(*hit))
    return min(hits, default=None)


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
    with np.errstate(over="ignore"):
        ratios = tri_mass / pair_mass
        mean = float(ratios.mean())
    top = float(ratios.max())
    if not (np.isfinite(top) and top - ratios.min() <= _ALPHA_RTOL * max(1.0, top)):
        return None
    # the sum overflows near the float maximum; offsets from one ratio cannot
    return mean if np.isfinite(mean) else float(ratios[0] + (ratios - ratios[0]).mean())


def build(a2, b) -> Hypergraph2:
    """Validate raw arrays and assemble a read-only instance.

    Raises the error named after the first violated requirement. Consistency
    across different agents' 2-interaction matrices is deliberately not
    enforced; each slice stands on its own. ``alpha`` is the shared ratio of
    triple to pairwise mass, or None when the agents' ratios differ or one
    of them is not finite.
    """
    a2, b, pair_mass, tri_mass = _arrays(a2, b)
    a2 = a2.copy()
    deg = pair_mass + tri_mass
    _raise_first(a2, b, deg)
    for arr in (a2, deg):
        arr.setflags(write=False)
    return Hypergraph2(a2, _triple_list(b), deg, _detect_alpha(pair_mass, tri_mass))


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
    if not 0.0 <= alpha < np.inf:
        raise ValueError(f"alpha must be finite and nonnegative, got {alpha!r}")

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
    if not 0.0 <= factor < np.inf:
        raise ValueError(f"factor must be finite and nonnegative, got {factor!r}")
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
    for i, block in enumerate(g.b, 1):
        lines.append(f"[B{i}]")
        for row in block:
            lines.append(" ".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _parse_matrix(lines, start, n, label):
    """The n rows of ``label`` from line ``start`` on, read by one loadtxt
    call, or by _parse_rows when that fails or gives another shape. loadtxt
    splits and converts as str.split() and float() do, bit for bit, but
    refuses some spellings float() takes (1_0); with comments=None it
    refuses '#' as float() does."""
    block = lines[start - 1:start - 1 + n]
    # loadtxt skips blank lines and warns on a block of nothing else; a blank
    # first row fails in _parse_rows anyway
    if len(block) == n and block[0].strip():
        try:
            rows = np.loadtxt(block, dtype=float, comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if rows.shape == (n, n):
                return rows, start + n
    return _parse_rows(lines, start, n, label), start + n


def _parse_rows(lines, start, n, label):
    """The rows of ``label`` one by one with float(), raising FormatError at
    the first row that is missing, of another width or not numeric."""
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
    return np.array(rows)


def parse_arrays(text: str) -> tuple[np.ndarray, np.ndarray, Optional[float]]:
    """Parse the sectioned text format without validating the contents.

    Returns (a2, b, header_alpha). Raises FormatError (with a line number)
    on structural problems only; use build() or validation_report() on the
    arrays afterwards.
    """
    lines = text.splitlines()
    idx = _header_line(lines)
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
        if not np.isfinite(header_alpha):
            raise FormatError(f"header alpha must be finite, got {alpha_text}", idx)
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


def _header_line(lines) -> int:
    """Number of the first non-blank line, len(lines) + 1 when there is none."""
    return next((i for i, ln in enumerate(lines, 1) if ln.strip()), len(lines) + 1)


def from_text(text: str) -> Hypergraph2:
    """Parse the sectioned text format and rebuild (revalidating everything)."""
    return _from_parsed(text, *parse_arrays(text))


def _from_parsed(text, a2, b, header_alpha) -> Hypergraph2:
    """build() arrays parsed from ``text`` and check the ratio against the header's."""
    g = build(a2, b)
    if header_alpha is None:
        if g.alpha is not None:
            raise FormatError("header says alpha=none but the slices share a common ratio",
                              _header_line(text.splitlines()))
    elif g.alpha is None or not abs(g.alpha - header_alpha) <= 1e-9 * max(1.0, abs(header_alpha)):
        raise FormatError("header alpha disagrees with the stored matrices",
                          _header_line(text.splitlines()))
    return g


def save(g: Hypergraph2, path) -> None:
    with open(path, "w") as fh:
        fh.write(to_text(g))


def load(path) -> Hypergraph2:
    with open(path) as fh:
        return from_text(fh.read())
