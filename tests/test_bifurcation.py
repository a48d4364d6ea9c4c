import tracemalloc

import numpy as np
import pytest

import hyperdecide as hd
from hyperdecide.bifurcation import (
    basin_probe,
    bistability_interval,
    diagram_csv,
    make_grid,
    sweep,
    write_diagram_csv,
    write_diagram_svg,
)
from hyperdecide.dynamics import SystemInstance
from hyperdecide.equilibria import SeedSpec, pi1_star
from hyperdecide.errors import DimensionError, NoBistabilityError

PI_FOLD = 1.4436264328094527


def test_make_grid():
    g = make_grid(0.005, 5.0, 0.005)
    assert g.size == 1000
    assert g[0] == pytest.approx(0.005)
    assert g[-1] == pytest.approx(5.0)
    assert np.all(np.diff(g) > 0)
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        make_grid(1.0, 0.5, 0.1)
    with pytest.raises(ValueError):
        make_grid(0.5, 1.0, -0.1)
    with pytest.raises(ValueError):  # the step count overflows
        make_grid(0.005, 5.0, 1e-320)


def test_make_grid_refuses_a_huge_point_count():
    # 4 995 000 001 points, 37 GiB; the count is checked before the array
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="at most"):
            make_grid(0.005, 5.0, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.fixture(scope="module")
def small_sweep(inst5, tanh):
    return sweep(inst5, tanh, make_grid(1.3, 2.2, 0.05))


def test_sweep_branch_structure(small_sweep):
    res = small_sweep
    # origin branch spans the whole grid
    origin = [b for b in res.branches if b.points[0][1].norm_inf < 1e-12]
    assert len(origin) == 1
    assert origin[0].points[0][0] == pytest.approx(1.3)
    assert origin[0].points[-1][0] == pytest.approx(2.2)
    # two branches born at the first grid point past the fold, plus the
    # negative side separating from the origin one step past the collision
    born = [b for b in res.branches if b.fold_at is not None]
    at_fold = [b for b in born if abs(b.fold_at - 1.45) < 1e-9]
    assert len(at_fold) == 2
    for b in at_fold:
        assert abs(b.fold_at - PI_FOLD) <= 0.05 + 1e-9
    late = [b for b in born if b not in at_fold]
    assert all(b.fold_at == pytest.approx(2.05, abs=1e-9) for b in late)


def test_sweep_collision_annotations(small_sweep):
    res = small_sweep
    origin = next(b for b in res.branches if b.points[0][1].norm_inf < 1e-12)
    # stability exchange lands on the grid point at the collision level
    assert origin.stability_change_at == pytest.approx(2.0, abs=1e-12)
    at_fold = [b for b in res.branches
               if b.fold_at is not None and abs(b.fold_at - 1.45) < 1e-9]
    lower = min(at_fold, key=lambda b: b.points[0][1].norm_inf)
    assert lower.points[-1][0] == pytest.approx(2.0, abs=1e-12)
    # merge recorded: the terminal state coincides with the origin
    assert lower.points[-1][1].norm_inf < 1e-10


def test_sweep_branch_steps_bounded(small_sweep):
    for b in small_sweep.branches:
        pis = b.pis()
        assert np.all(np.diff(pis) > 0)
        states = b.states()
        if len(states) < 2:
            continue
        steps = np.abs(np.diff(states, axis=0)).max(axis=1)
        slope = max(steps.max() / 0.05, 1e-9)
        assert np.all(steps <= 10.0 * 0.05 * slope + 1e-12)


def test_sweep_bistability_attached(small_sweep):
    lo, hi = small_sweep.bistability
    assert lo == pytest.approx(PI_FOLD, abs=1e-9)
    assert hi == pytest.approx(2.0, abs=1e-10)


def test_sweep_grid_validation(inst5, tanh):
    with pytest.raises(ValueError):
        sweep(inst5, tanh, np.array([]))
    with pytest.raises(ValueError):
        sweep(inst5, tanh, np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        sweep(inst5, tanh, np.array([-0.1, 0.5]))


def test_sweep_pitchfork_symmetry(c5, tanh):
    res = sweep(c5, tanh, make_grid(0.7, 1.6, 0.1))
    for b in res.branches:
        for pi, eq in b.points:
            if eq.norm_inf < 1e-9:
                continue
            # the mirrored state sits on some branch at the same level
            mirrored = [eq2 for b2 in res.branches for pi2, eq2 in b2.points
                        if pi2 == pi and np.abs(eq2.state + eq.state).max() < 1e-8]
            assert mirrored, (pi, eq.state)
    assert res.bistability is None  # ratio 0 carries no fold window


def test_sweep_workers_match_serial(inst5, tanh):
    grid = make_grid(1.5, 1.9, 0.1)
    serial = sweep(inst5, tanh, grid, workers=1)
    parallel = sweep(inst5, tanh, grid, workers=2)
    assert diagram_csv(serial) == diagram_csv(parallel)


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, runs jobs here."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


def test_sweep_workers_clamped(inst5, tanh, monkeypatch):
    import concurrent.futures
    import os
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    grid = make_grid(1.5, 1.7, 0.1)  # 3 levels
    serial = diagram_csv(sweep(inst5, tanh, grid))
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert diagram_csv(sweep(inst5, tanh, grid, workers=10**6)) == serial
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert diagram_csv(sweep(inst5, tanh, grid, workers=10**6)) == serial
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert diagram_csv(sweep(inst5, tanh, grid, workers=10**6)) == serial
    # grid size, then CPU count; one CPU (or an unknown count) starts no pool
    assert _InlinePool.sizes == [3, 2]
    with pytest.raises(ValueError):
        sweep(inst5, tanh, grid, workers=0)


def test_sweep_seed_spec_override(inst5, tanh):
    # heavier random probing must not change the threaded picture here
    grid = make_grid(1.6, 1.8, 0.1)
    base = sweep(inst5, tanh, grid)
    heavy = sweep(inst5, tanh, grid, seeds=SeedSpec(random_count=20, rng_seed=5))
    assert len(base.branches) == len(heavy.branches)
    for a, b in zip(base.branches, heavy.branches):
        assert len(a.points) == len(b.points)
        assert np.abs(a.states() - b.states()).max() < 1e-9


def test_bistability_interval_values(inst5, tanh):
    lo, hi = bistability_interval(inst5, tanh)
    assert lo == pytest.approx(PI_FOLD, abs=1e-9)
    assert hi == pytest.approx(2.0, abs=1e-10)
    assert lo == pytest.approx(pi1_star(1.0)[0], abs=1e-12)


def test_bistability_interval_rejects_zero_ratio(c5, tanh):
    with pytest.raises(NoBistabilityError):
        bistability_interval(c5, tanh)


def test_bistability_interval_needs_shared_ratio(mixed_ratio, tanh):
    with pytest.raises(ValueError):
        bistability_interval(mixed_ratio, tanh)


def test_bistability_interval_half_ratio(tanh):
    g = hd.random_instance(5, 0.8, 0.2, 0.5, 3)
    lo, hi = bistability_interval(g, tanh)
    assert hi == pytest.approx(1.5, abs=1e-10)
    assert 1.0 <= lo < hi
    assert lo == pytest.approx(1.3180028574358012, abs=1e-9)


def test_basin_probe_inside_window(inst5, tanh):
    s = SystemInstance(graph=inst5, psi=tanh, pi=1.7)
    report = basin_probe(s, [0.05, 0.25, 2.0])
    assert report.labels == ("origin", "upper", "upper")
    assert report.monotone


def test_basin_probe_below_fold_all_deadlock(inst5, tanh):
    s = SystemInstance(graph=inst5, psi=tanh, pi=1.0)
    report = basin_probe(s, [0.05, 0.25, 2.0, 5.0])
    assert report.labels == ("origin", "origin", "origin", "origin")
    assert report.monotone


def test_basin_probe_single_switch(inst5, tanh):
    # the separatrix on the consensus line is the middle scalar root 0.1935
    s = SystemInstance(graph=inst5, psi=tanh, pi=1.7)
    radii = [0.05, 0.1, 0.15, 0.25, 0.5, 1.0, 2.0]
    report = basin_probe(s, radii)
    assert report.monotone
    switched = [lab == "upper" for lab in report.labels]
    assert switched == [r > 0.1935 for r in radii]


def test_basin_probe_at_large_effort_reaches_the_upper_state(inst5, tanh):
    # every start ends on the upper consensus state, c = pi to rounding
    s = SystemInstance(graph=inst5, psi=tanh, pi=60.0)
    report = basin_probe(s, [0.05, 2.0, 70.0])
    assert report.labels == ("upper", "upper", "upper")
    for x in report.finals:
        assert np.abs(x - 60.0).max() < 1e-9


def test_diagram_csv_layout(small_sweep):
    text = diagram_csv(small_sweep)
    lines = text.strip().splitlines()
    assert lines[0] == "pi,branch_id,stable,x_norm_inf,x1,x2,x3,x4,x5"
    total_points = sum(len(b.points) for b in small_sweep.branches)
    assert len(lines) == total_points + 1
    # rows sorted by (pi, branch)
    keys = [(float(ln.split(",")[0]), int(ln.split(",")[1])) for ln in lines[1:]]
    assert keys == sorted(keys)
    stables = {ln.split(",")[2] for ln in lines[1:]}
    assert stables == {"0", "1"}


def test_diagram_csv_deterministic(inst5, tanh, tmp_path):
    grid = make_grid(1.6, 1.8, 0.1)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_diagram_csv(sweep(inst5, tanh, grid), a)
    write_diagram_csv(sweep(inst5, tanh, grid), b)
    assert a.read_bytes() == b.read_bytes()


def test_diagram_svg(small_sweep, tmp_path):
    path = tmp_path / "diagram.svg"
    write_diagram_svg(small_sweep, path)
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<circle") == sum(len(b.points) for b in small_sweep.branches)
    assert 'fill="none"' in text  # hollow markers for non-stable points
    write_diagram_svg(small_sweep, tmp_path / "again.svg")
    assert (tmp_path / "again.svg").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("coord", [-1, 5])
def test_diagram_svg_coordinate_outside_the_state(small_sweep, tmp_path, coord):
    with pytest.raises(DimensionError):
        write_diagram_svg(small_sweep, tmp_path / "bad.svg", coord=coord)
    assert not (tmp_path / "bad.svg").exists()
