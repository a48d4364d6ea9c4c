"""Benchmark inputs, made from the workload seed before any timed round.

The seed relabels the agents of a fixed instance (and, for the basin
workload, its fixed integration starts). A relabelled instance is the same
network, so every seed asks the program for the same mathematics; what
changes is the input bytes, the summation order and which equilibria the
program's own random Newton seeds run into. Drawing a fresh network per
seed instead moved the 120-agent sweep between 7.7 s and 12.2 s (8 to 10
branches), which swamps any bound a speed change could be judged by.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.sparse.csgraph import connected_components

from reference import parse_instance

INST5 = Path(__file__).with_name("inst5.txt")


def relabelling(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).permutation(n)


def relabel(a2: np.ndarray, b: np.ndarray, perm: np.ndarray):
    return a2[np.ix_(perm, perm)], b[np.ix_(perm, perm, perm)]


def inst5() -> tuple[np.ndarray, np.ndarray]:
    """The frozen 5-agent ratio-1 instance, random_instance(5, 0.8, 0.2, 1.0, 1)."""
    return parse_instance(INST5.read_text())


def mixed_instance(n: int = 120, p2: float = 0.1, p3: float = 0.02,
                   seed: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Sparse instance with no shared ratio.

    Pairwise ties appear with probability p2 (uniform weights), redrawn
    until connected. Agent i's triples appear with probability p3 over pairs
    of other agents and are scaled so their mass is 1 + 0.5 i / (n - 1)
    times the agent's pairwise mass.
    """
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(n, 1)
    while True:
        keep = rng.random(iu[0].size) < p2
        weights = rng.uniform(0.0, 1.0, iu[0].size)
        a2 = np.zeros((n, n))
        a2[iu] = np.where(keep, weights, 0.0)
        a2 = a2 + a2.T
        if connected_components(a2 != 0.0, directed=False)[0] == 1:
            break
    b = np.zeros((n, n, n))
    for i in range(n):
        others = (iu[0] != i) & (iu[1] != i)
        rows, cols = iu[0][others], iu[1][others]
        vals = np.zeros(rows.size)
        while not vals.any():
            keep = rng.random(rows.size) < p3
            vals = np.where(keep, rng.uniform(0.0, 1.0, rows.size), 0.0)
        vals *= (1.0 + 0.5 * i / (n - 1)) * a2[i].sum() / (2.0 * vals.sum())
        b[i][rows, cols] = vals
        b[i][cols, rows] = vals
    return a2, b


def basin_starts(n: int, count: int, norm: float, perm: np.ndarray) -> np.ndarray:
    """``count`` uniform starts rescaled to sup norm ``norm``, drawn once in
    the frozen labels and then relabelled with the instance."""
    rng = np.random.default_rng(2025)
    starts = rng.uniform(-1.0, 1.0, (count, n))
    starts *= norm / np.abs(starts).max(axis=1, keepdims=True)
    return starts[:, perm]
