"""Independent reference for the benchmark's checks.

Everything here is written from the raw arrays of the instance text, with
numpy ``einsum``, ``scipy.optimize.brentq`` and ``scipy.linalg``. Nothing
imports hyperdecide, so a fault in the program cannot hide in its own check.

Model: agent i moves by
    dx_i/dt = -d_i x_i + pi (sum_j a_ij tanh x_j + sum_jk b_ijk tanh x_j tanh x_k)
with generalized degree d_i = sum_j a_ij + sum_jk b_ijk. When every agent's
triple mass is the same multiple alpha of its pairwise mass, the consensus
state c * ones is stationary exactly when the scalar balance
    gap(c) = -(1 + alpha) c + pi (tanh c + alpha tanh(c)^2)
vanishes.
"""
from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import linalg, optimize

_RATIO_RTOL = 1e-10


def parse_instance(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Raw (a2, b) arrays of the sectioned instance text."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    n = int(lines[0][0].removeprefix("n="))
    if lines[1] != ["[A2]"]:
        raise ValueError("expected [A2] after the header")
    a2 = np.array(lines[2:2 + n], dtype=float)
    b = np.empty((n, n, n))
    at = 2 + n
    for i in range(n):
        if lines[at] != [f"[B{i + 1}]"]:
            raise ValueError(f"expected [B{i + 1}]")
        b[i] = np.array(lines[at + 1:at + 1 + n], dtype=float)
        at += 1 + n
    return a2, b


def write_instance(a2: np.ndarray, b: np.ndarray) -> str:
    """Sectioned instance text with 17 significant digits, header ratio
    filled in when the instance has one."""
    ratio = shared_ratio(a2, b)
    head = "none" if ratio is None else format(ratio, ".17g")
    fmt = lambda row: " ".join(format(float(v), ".17g") for v in row)
    out = [f"n={a2.shape[0]} alpha={head}", "[A2]"]
    out += [fmt(row) for row in a2]
    for i, slab in enumerate(b):
        out.append(f"[B{i + 1}]")
        out += [fmt(row) for row in slab]
    return "\n".join(out) + "\n"


def shared_ratio(a2: np.ndarray, b: np.ndarray) -> Optional[float]:
    ratios = b.sum(axis=(1, 2)) / a2.sum(axis=1)
    if np.ptp(ratios) <= _RATIO_RTOL * max(1.0, float(np.abs(ratios).max())):
        return float(ratios.mean())
    return None


class Reference:
    """Field, Jacobian, spectra and scalar-balance roots of one instance."""

    def __init__(self, a2: np.ndarray, b: np.ndarray):
        self.a2 = a2
        self.b = b
        self.degrees = a2.sum(axis=1) + b.sum(axis=(1, 2))
        self.alpha = shared_ratio(a2, b)

    @classmethod
    def from_text(cls, text: str) -> "Reference":
        return cls(*parse_instance(text))

    def field(self, x, pi: float) -> np.ndarray:
        p = np.tanh(np.asarray(x, dtype=float))
        triple = np.einsum("ijk,j,k->i", self.b, p, p, optimize=True)
        return -self.degrees * x + pi * (self.a2 @ p + triple)

    def jacobian(self, x, pi: float) -> np.ndarray:
        p = np.tanh(np.asarray(x, dtype=float))
        slope = 1.0 - p * p
        # d/dx_m of sum_jk b_ijk p_j p_k, without assuming b_i symmetric
        coupling = (self.a2 + np.einsum("ijk,j->ik", self.b, p)
                    + np.einsum("ijk,k->ij", self.b, p))
        return pi * coupling * slope[None, :] - np.diag(self.degrees)

    def rightmost(self, x, pi: float) -> float:
        """Largest real part of the Jacobian spectrum."""
        return float(linalg.eigvals(self.jacobian(x, pi)).real.max())

    def pi1(self) -> float:
        """Effort where the origin loses stability: 1 / lambda_max of
        D^-1/2 A D^-1/2."""
        r = 1.0 / np.sqrt(self.degrees)
        top = linalg.eigh(r[:, None] * self.a2 * r[None, :], eigvals_only=True)[-1]
        return 1.0 / float(top)

    # -- scalar consensus balance (shared ratio only) ----------------------

    def _need_ratio(self) -> float:
        if self.alpha is None:
            raise ValueError("instance has no shared triple-to-pair ratio")
        return self.alpha

    def gap(self, c, pi: float):
        alpha = self._need_ratio()
        t = np.tanh(c)
        return -(1.0 + alpha) * c + pi * (t + alpha * t * t)

    def fold(self) -> tuple[float, float]:
        """(fold level, tangency state): h(e) = e h'(e) with
        h(e) = tanh e + alpha tanh(e)^2, level (1 + alpha) e / h(e)."""
        alpha = self._need_ratio()

        def h(e):
            t = np.tanh(e)
            return t + alpha * t * t

        def tangency(e):
            t = np.tanh(e)
            return h(e) - e * (1.0 - t * t) * (1.0 + 2.0 * alpha * t)

        e_star = optimize.brentq(tangency, 1e-3, 20.0, xtol=1e-15, rtol=1e-15)
        return (1.0 + alpha) * e_star / h(e_star), e_star

    def upper_root(self, pi: float) -> float:
        """Largest positive root of the scalar balance at ``pi``, which must
        lie above the fold level."""
        _, e_star = self.fold()
        return optimize.brentq(lambda c: self.gap(c, pi), e_star, 50.0,
                               xtol=1e-15, rtol=1e-15)
