import contextlib
import itertools
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hyperdecide as hd
from hyperdecide.bifurcation import (
    BasinReport,
    basin_probe,
    bistability_interval,
    diagram_csv,
    make_grid,
    sweep,
    write_diagram_csv,
    write_diagram_svg,
)
from hyperdecide.dynamics import SystemInstance
from hyperdecide import bifurcation, dynamics, equilibria
from hyperdecide.equilibria import ScalarReduced, pi1_star
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


@pytest.fixture(scope="module")
def found_instance():
    """A 3-agent instance without a shared ratio (agent i's triples scaled by
    the i-th factor) whose sweep once threaded a branch onto an unrelated
    equilibrium, a sup-norm jump of 1.90."""
    g = hd.random_instance(3, 0.8, 0.4, 2.6206603361887857, 102)
    f = np.array([0.50789796, 1.73184263, 1.69560414])
    return hd.build(g.a2, g.b * f[:, None, None])


@pytest.fixture(scope="module")
def found_sweep(found_instance, tanh):
    return sweep(found_instance, tanh, make_grid(0.02, 5, 0.02))


@pytest.fixture(scope="module")
def coarse_instance():
    """A shared-ratio instance whose lower fold branch bends so sharply past
    the fold that a single tangent step from 1.4 overshoots onto the origin
    at 1.5 on a grid of step 0.1."""
    return hd.random_instance(5, 0.8, 0.4, 0.6450121120676401, 1016)


@pytest.fixture(scope="module")
def coarse_sweep(coarse_instance, tanh):
    return sweep(coarse_instance, tanh, make_grid(0.1, 5, 0.1))


def _sub_step_route(g, psi, x, a, b, parts=10):
    """Continue the equilibria ``x`` (m, n) at the levels ``a`` (m,) to the
    levels ``b`` through ``parts`` equal sub-steps, each a prediction along
    the tangent -J^-1 (D x / pi) and a Newton correction."""
    for i in range(parts):
        lo, hi = (a + (b - a) * i / parts)[:, None], (a + (b - a) * (i + 1) / parts)[:, None]
        j, rhs = dynamics._jacobian(g, psi, lo, x), -g.degrees * x / lo
        tangent = np.zeros_like(x)
        for r in range(len(x)):
            with contextlib.suppress(np.linalg.LinAlgError):  # singular: no tangent
                tangent[r] = np.linalg.solve(j[r], rhs[r])
        x, _, cause = equilibria._newton_rows(g, psi, x + (hi - lo) * tangent, hi[:, 0])
        assert (cause == "converged").all()
    return x


@pytest.mark.parametrize("instance, result", [("inst5", "small_sweep"),
                                              ("found_instance", "found_sweep"),
                                              ("coarse_instance", "coarse_sweep")],
                         ids=["inst5", "found", "coarse"])
def test_sweep_branch_steps_follow_ten_sub_steps(instance, result, tanh, request):
    g, res = request.getfixturevalue(instance), request.getfixturevalue(result)
    steps = [(p0, e0.state, p1, e1.state) for b in res.branches
             for (p0, e0), (p1, e1) in zip(b.points, b.points[1:])]
    a, x, b, y = (np.array(col) for col in zip(*steps))
    assert np.all(a < b)
    assert equilibria._same_equilibrium(_sub_step_route(g, tanh, x, a, b), y).all()


def test_sweep_threads_the_coarse_fold_branch_to_the_end(coarse_sweep):
    # the fold pair is born at 1.4 and both halves run to the end of the
    # grid, the lower one through its crossing with the origin at pi1; a
    # branch ended early would leave its later records a branch of their own
    starts = [(round(b.points[0][0], 9), round(b.points[-1][0], 9), b.fold_at is not None)
              for b in coarse_sweep.branches]
    assert starts == [(0.1, 5.0, False), (1.4, 5.0, True), (1.4, 5.0, True)]


def test_sweep_does_not_jump_onto_an_unrelated_equilibrium(found_sweep):
    start, end = np.array([-0.505, 0.275, -0.522]), np.array([-0.853, -1.627, 1.109])

    def near(eq, state):
        return np.abs(eq.state - state).max() < 1e-3

    records = [(pi, eq) for b in found_sweep.branches for pi, eq in b.points]
    assert any(abs(pi - 2.78) < 1e-9 and near(eq, start) for pi, eq in records)
    assert any(abs(pi - 2.80) < 1e-9 and near(eq, end) for pi, eq in records)
    for b in found_sweep.branches:
        for (p0, e0), (p1, e1) in zip(b.points, b.points[1:]):
            assert not (abs(p0 - 2.78) < 1e-9 and near(e0, start) and near(e1, end))


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
    for grid in (1.0, [[0.5, 1.0]]):
        with pytest.raises(ValueError, match="pi_grid must be a non-empty one-dimensional"):
            sweep(inst5, tanh, grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call, name", [
    (lambda g, bad: hd.random_instance(5, 0.8, 0.2, bad, 1), "alpha"),
    (lambda g, bad: pi1_star(bad), "alpha"),
    (lambda g, bad: ScalarReduced(alpha=bad, pi=1.7), "alpha"),
    (lambda g, bad: hd.scale_two_interactions(g, bad), "factor"),
    (lambda g, bad: sweep(g, None, [bad]), "pi_grid"),
    (lambda g, bad: sweep(g, None, [0.5, bad]), "pi_grid"),
], ids=["random_instance", "pi1_star", "ScalarReduced", "scale_two_interactions",
        "sweep-level", "sweep-last-level"])
def test_non_finite_parameters_are_refused(call, name, bad, inst5):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call(inst5, bad)


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


def test_sweep_is_independent_of_the_chunk_split(inst5, tanh, monkeypatch):
    # ~300 levels: several chunks under the default budget, one level per
    # chunk under a budget below n^2
    grid = make_grid(0.005, 1.5, 0.005)
    chunked = diagram_csv(sweep(inst5, tanh, grid))
    monkeypatch.setattr(equilibria, "_STACK_BUDGET", 1)
    assert diagram_csv(sweep(inst5, tanh, grid)) == chunked


def test_two_arrivals_at_one_search_miss_make_one_record(inst5, tanh):
    # the upper consensus record of 1.7 listed twice, and 1.75 holding only
    # its origin: both steps arrive at the same missing state in one round;
    # the first becomes a new record of 1.75 and the second matches it
    grid = np.array([1.7, 1.75])
    low, high = (hd.find_all(SystemInstance(graph=inst5, psi=tanh, pi=pi)) for pi in grid)
    upper = max(low, key=lambda eq: eq.norm_inf)
    assert upper.is_consensus and upper.norm_inf > 1.0
    recs, at = [low[0], upper, upper, high[0]], [[0, 1, 2], [3]]
    nxt, near = bifurcation._successors(inst5, tanh, grid, recs, at)
    assert len(recs) == 5 and at == [[0, 1, 2], [3, 4]]
    assert nxt == {0: 3, 1: 4, 2: 4}
    assert near[0] == 0.0 and near[1] == near[2]
    new = recs[4]
    assert new.pi == 1.75 and new.classification == "stable"
    assert equilibria._same_equilibrium(new.state, max(high, key=lambda eq: eq.norm_inf).state)


def test_threaded_successors_equal_the_serial_ones(inst5, tanh, monkeypatch):
    # bitwise: rounds of 2-row ranges on two threads against one CPU; every
    # other level keeps only its origin, so arrivals there are search misses
    # that both runs add as the same new records
    with equilibria._blas_pin as pinned:
        if not pinned:
            pytest.skip("no OpenBLAS thread-count symbol: the threading runs serially")
    grid = make_grid(1.0, 2.5, 0.05)
    levels = [eqs if k % 2 else eqs[:1] for k, eqs in enumerate(equilibria._search_grid(
        inst5, tanh, grid))]
    monkeypatch.setattr(equilibria, "_STACK_BUDGET", 2 * 25)
    step, off_main = bifurcation._step, []

    def stepped(*args):
        off_main.append(threading.current_thread() is not threading.main_thread())
        return step(*args)

    monkeypatch.setattr(bifurcation, "_step", stepped)
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(bifurcation, "_usable_cpus", lambda cpus=cpus: cpus)
        recs = [eq for eqs in levels for eq in eqs]
        at = [ids.tolist() for ids in np.split(np.arange(len(recs)),
                                               np.cumsum([len(eqs) for eqs in levels])[:-1])]
        count, off_main[:] = len(recs), []
        nxt, near = bifurcation._successors(inst5, tanh, grid, recs, at)
        added = [(eq.state.tobytes(), eq.pi, eq.residual, eq.max_real_eig, eq.classification,
                  eq.is_consensus) for eq in recs[count:]]
        runs.append((nxt, near, added, at, any(off_main)))
    assert runs[0][2], "no search miss was added"
    assert not runs[0][4] and runs[1][4]
    assert runs[0][:4] == runs[1][:4]


def test_default_sweep_work_counts(inst5, tanh, monkeypatch):
    # Newton rows of the grid search and continuation steps of the default
    # inst5 sweep: the 288 levels below the fold level 1.4436 are not
    # searched, a zero seed takes no Newton, and the origin steps onto the
    # next level's origin directly
    rows, searching = {"search": 0, "step": 0}, []
    search_grid, step = equilibria._search_grid, bifurcation._step
    newton_rows = equilibria._newton_rows

    def grid(*args):
        searching.append(True)
        try:
            return search_grid(*args)
        finally:
            searching.pop()

    def newton(g, psi, X0, pi):
        rows["search"] += len(X0) if searching else 0
        return newton_rows(g, psi, X0, pi)

    def stepped(g, psi, X, a, b):
        rows["step"] += len(X)
        return step(g, psi, X, a, b)

    monkeypatch.setattr(bifurcation, "_search_grid", grid)
    monkeypatch.setattr(equilibria, "_newton_rows", newton)
    monkeypatch.setattr(bifurcation, "_step", stepped)
    sweep(inst5, tanh)
    assert rows == {"search": 5695, "step": 2984}


BLAS_SWEEP = """
import hyperdecide as hd
g = hd.random_instance(100, 0.1, 0.02, 1.0, 1)
print(hd.diagram_csv(hd.sweep(g, hd.tanh_family(), [3.0, 4.0])), end="")
"""


def test_sweep_bytes_do_not_depend_on_the_blas_thread_count():
    # from n = 100 on OpenBLAS splits a solve over its threads and the last
    # bits move: unpinned, 2 of this diagram's 8 rows differ, by up to
    # 8.5e-16; the search and the threading pin BLAS to one thread
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    if not any("openblas" in p.name for p in libs.glob("*")):
        pytest.skip("numpy bundles no OpenBLAS")
    src = Path(hd.__file__).resolve().parents[1]
    diagrams = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", BLAS_SWEEP], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        diagrams.append(proc.stdout)
    assert diagrams[0].count("\n") > 1
    assert diagrams[0] == diagrams[1]


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


def _monotone_by_loop(radii, labels):
    """The labels in radius order: origin* then upper*, walked one by one."""
    labs = [labels[i] for i in np.argsort(np.asarray(radii))]
    if any(lab == "other" for lab in labs):
        return False
    seen_upper = False
    for lab in labs:
        if lab == "upper":
            seen_upper = True
        elif seen_upper:
            return False
    return True


def test_basin_monotone_equals_the_label_walk():
    radii_sets = ([1.0] * 6,                         # all tied
                  [0.5, 0.5, 0.2, 0.2, 0.9, 0.9],    # tied pairs out of order
                  [0.6, 0.1, 0.5, 0.2, 0.4, 0.3])    # distinct, out of order
    for size in range(7):
        for labels in itertools.product(("origin", "upper", "other"), repeat=size):
            for radii in radii_sets:
                report = BasinReport(radii=tuple(radii[:size]), labels=labels, finals=())
                assert report.monotone == _monotone_by_loop(report.radii, labels)


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
