"""Eigenvalue plumbing and the social-effort thresholds.

The degree-normalized pairwise matrix is similar to a symmetric one, so its
spectrum comes from a symmetric solve on D^{-1/2} A D^{-1/2}. Three effort
levels are read off an instance: ``pi1`` where the origin loses stability,
``pi2`` where the next normalized eigenvalue would cross (infinite when that
eigenvalue is not positive), and ``pi_tilde1`` below which the combined
influence matrix guarantees global decay. The fold level ``pi1_star`` is a
scalar-equation quantity; it is computed elsewhere and carried here so all
four numbers travel together.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, DimensionError, MultiplicityError, NotSymmetricError
from .hypergraph import Hypergraph2, _pair_rows

__all__ = [
    "Spectrum",
    "Thresholds",
    "symmetric_eigenvalues",
    "general_eigenvalues",
    "perron_pair",
    "h_matrix",
    "thresholds",
    "thresholds_text",
]

_GAP_TOL = 1e-9
_ORDER_TOL = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted by real part ascending."""

    values: np.ndarray
    real_flag: bool

    @property
    def reals(self) -> np.ndarray:
        return self.values.real


@dataclass(frozen=True)
class Thresholds:
    pi1: float
    pi2: float
    pi_tilde1: float
    pi1_star: Optional[float] = None

    def __post_init__(self):
        if not (self.pi_tilde1 <= 1.0 + _ORDER_TOL and 1.0 <= self.pi1 + _ORDER_TOL):
            raise ValueError(
                f"threshold ordering violated: pi_tilde1={self.pi_tilde1!r} pi1={self.pi1!r}")
        if self.pi1_star is not None:
            if not (1.0 <= self.pi1_star + _ORDER_TOL
                    and self.pi1_star <= self.pi1 + _ORDER_TOL):
                raise ValueError(
                    f"threshold ordering violated: pi1_star={self.pi1_star!r} pi1={self.pi1!r}")


def symmetric_eigenvalues(m) -> Spectrum:
    """Real spectrum of a symmetric matrix (max entry asymmetry below 1e-12)."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if np.abs(m - m.T).max() >= 1e-12:
        raise NotSymmetricError(
            f"matrix is not symmetric: max |M - M^T| = {np.abs(m - m.T).max():.3e}")
    try:
        vals = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolve failed: {exc}") from exc
    return Spectrum(values=vals, real_flag=True)


def general_eigenvalues(m) -> Spectrum:
    """Spectrum of a general square matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolve did not converge: {exc}") from exc
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    return Spectrum(values=vals, real_flag=bool(np.abs(vals.imag).max() < 1e-9))


def _normalized_eigh(g: Hypergraph2):
    """Ascending eigenpairs of D^{-1/2} A D^{-1/2}, whose leading eigenvalue
    must be simple (gap at least 1e-9 of it; alpha scales the spectrum by 1/(1+alpha))."""
    root = np.sqrt(g.degrees)
    try:
        vals, vecs = np.linalg.eigh(g.a2 / np.outer(root, root))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolve failed: {exc}") from exc
    gap = float(vals[-1] - vals[-2])
    if gap < _GAP_TOL * vals[-1]:
        raise MultiplicityError(f"leading eigenvalue is not simple: gap {gap:.3e}")
    return vals, vecs


def perron_pair(g: Hypergraph2):
    """Leading eigenvalue of the degree-normalized pairwise matrix with its
    positive right and left eigenvectors, normalized to w @ v = 1.

    Raises MultiplicityError when the top gap is below 1e-9 times the leading
    eigenvalue, and ConvergenceError when the eigenpair residual is out of bounds.
    """
    vals, vecs = _normalized_eigh(g)
    lam = float(vals[-1])
    u = vecs[:, -1]
    if u.sum() < 0.0:
        u = -u
    if u.min() <= 0.0:
        raise ConvergenceError("leading eigenvector is not strictly positive")
    root = np.sqrt(g.degrees)
    v = u / root
    w = u * root
    dm = g.a2 / g.degrees[:, None]
    resid = np.abs(dm @ v - lam * v).max()
    if resid >= 1e-9 * max(1.0, np.abs(dm).max()):
        raise ConvergenceError(f"eigenpair residual {resid:.3e} out of bounds")
    return lam, v, w


def h_matrix(g: Hypergraph2) -> np.ndarray:
    """Combined influence matrix: row i is (pairwise row i + mass agent i
    assigns to each peer over 2-interactions) divided by the degree.
    Row-stochastic by construction."""
    return (g.a2 + _pair_rows(g, np.ones(g.n))) / g.degrees[:, None]


def thresholds(g: Hypergraph2) -> Thresholds:
    """Effort thresholds of an instance (fold level left unfilled)."""
    vals, _ = _normalized_eigh(g)
    lam_top, lam_next = float(vals[-1]), float(vals[-2])
    pi1 = 1.0 / lam_top
    pi2 = 1.0 / lam_next if lam_next > 0.0 else float("inf")
    h = h_matrix(g)
    hs = symmetric_eigenvalues(0.5 * (h + h.T))
    pi_tilde1 = 1.0 / float(hs.reals[-1])
    return Thresholds(pi1=pi1, pi2=pi2, pi_tilde1=pi_tilde1)


def thresholds_text(t: Thresholds) -> str:
    """Flat key=value block, one line per threshold, values as %.17g writes
    them (infinities 'inf' and '-inf'); pi1_star only when it is filled."""
    keys = ("pi1", "pi2", "pi_tilde1") + (() if t.pi1_star is None else ("pi1_star",))
    return "".join("%s=%.17g\n" % (key, getattr(t, key)) for key in keys)
