"""End-to-end acceptance checks for the whole package.

Each test covers one numbered criterion and prints a single
``criterion NN PASS/FAIL`` line, so a verbose run doubles as a checklist.
Budgeted criteria time the work they cover and fail on overrun.
"""

import time

import numpy as np
import pytest

import hyperdecide as hd
from hyperdecide.dynamics import _rk4_rows

STEP = 0.005


def _report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _instances(count, alphas, seed0, n=5, p2=0.8, p3=0.2):
    """Build `count` random instances, pairing alphas[i] with the i-th
    success. Seeds that cannot host a valid draw are skipped."""
    out = []
    seed = seed0
    while len(out) < count:
        try:
            out.append(hd.random_instance(n, p2, p3, alphas[len(out)], seed))
        except hd.GenerationError:
            pass
        seed += 1
    return out


def _fold_by_scan(alpha):
    """Second route to the fold level, sharing no code with pi1_star.

    The consensus balance is evaluated on a dense magnitude grid; its peak
    (parabolically refined) crosses zero exactly at the fold, so the level
    is found by bisection on the sign of the refined peak.
    """
    eps = np.linspace(1e-4, 6.0, 20001)

    def refined_peak(pi):
        vals = -(1.0 + alpha) * eps + pi * (np.tanh(eps) + alpha * np.tanh(eps) ** 2)
        j = int(np.argmax(vals))
        if 0 < j < eps.size - 1:
            a, b, c = vals[j - 1], vals[j], vals[j + 1]
            denom = a - 2.0 * b + c
            if denom != 0.0:
                return b - (a - c) ** 2 / (8.0 * denom)
        return vals[j]

    lo, hi = 1.0, 1.0 + alpha
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if refined_peak(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def full_sweep(inst5, tanh):
    start = time.perf_counter()
    result = hd.sweep(inst5, tanh)
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_criterion_01_fold_level(tanh):
    start = time.perf_counter()
    star, eps_star = hd.pi1_star(1.0, tanh)
    elapsed = time.perf_counter() - start
    scan = _fold_by_scan(1.0)
    ok = (abs(star - 1.44) < 0.01
          and abs(star - scan) < 1e-6
          and eps_star > 0.0
          and elapsed < 1.0)
    _report(1, ok, f"pi1_star={star:.10f} scan_diff={abs(star - scan):.2e} "
                   f"elapsed={elapsed:.3f}s")


def test_criterion_02_origin_threshold_proportional():
    start = time.perf_counter()
    worst = 0.0
    for j, alpha in enumerate((0.25, 0.5, 1.0, 2.0)):
        for g in _instances(20, [alpha] * 20, 100 + 1000 * j):
            worst = max(worst, abs(hd.thresholds(g).pi1 - (1.0 + alpha)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5.0
    _report(2, ok, f"max |pi1-(1+alpha)|={worst:.2e} over 80 instances "
                   f"elapsed={elapsed:.3f}s")


def test_criterion_03_threshold_ordering():
    rng = np.random.default_rng(7)
    alphas = rng.uniform(0.01, 2.0, 100)
    worst_order = -np.inf
    worst_top = 0.0
    for g in _instances(100, alphas, 2000):
        t = hd.thresholds(g)
        star, _ = hd.pi1_star(g.alpha)
        # largest violation of pi_tilde1 <= 1 <= pi1_star <= pi1
        worst_order = max(worst_order, t.pi_tilde1 - 1.0, 1.0 - star,
                          star - t.pi1)
        top = hd.general_eigenvalues(hd.h_matrix(g)).reals[-1]
        worst_top = max(worst_top, abs(top - 1.0))
    ok = worst_order < 1e-9 and worst_top < 1e-10
    _report(3, ok, f"worst ordering slack={worst_order:.2e} "
                   f"max |top(H)-1|={worst_top:.2e} over 100 instances")


def test_criterion_04_bistable_window(inst5, tanh):
    start = time.perf_counter()
    s = hd.SystemInstance(graph=inst5, psi=tanh, pi=1.7)
    probe = hd.basin_probe(s, [0.05, 2.0])
    eqs = sorted(hd.find_all(s), key=lambda e: e.norm_inf)
    elapsed = time.perf_counter() - start
    means = [float(e.state.mean()) for e in eqs]
    labels = [e.classification for e in eqs]
    ok = (probe.labels == ("origin", "upper")
          and len(eqs) == 3
          and labels == ["stable", "unstable", "stable"]
          and all(e.is_consensus for e in eqs)
          and abs(means[0]) < 1e-10
          and abs(means[1] - 0.19) < 0.01
          and abs(means[2] - 1.43) < 0.01
          and abs(means[1] - 0.19349593542768098) < 1e-8
          and abs(means[2] - 1.437191980240933) < 1e-8
          and elapsed < 10.0)
    _report(4, ok, f"basins={probe.labels} levels={means} "
                   f"elapsed={elapsed:.3f}s")


def test_criterion_05_pitchfork_without_triples(c5, tanh):
    start = time.perf_counter()
    t = hd.thresholds(c5)
    grid = hd.make_grid(0.6, 3.2, 0.05)
    result = hd.sweep(c5, tanh, grid)
    elapsed = time.perf_counter() - start
    by_pi = {pi: [] for pi in grid}
    for branch in result.branches:
        for pi, eq in branch.points:
            by_pi[pi].append(eq)
    problems = []
    for pi, eqs in sorted(by_pi.items()):
        if pi <= 0.99 * t.pi1:
            if not (len(eqs) == 1 and eqs[0].norm_inf < 1e-8
                    and eqs[0].classification == "stable"):
                problems.append(f"below threshold at pi={pi:.3f}")
        elif 1.01 * t.pi1 <= pi <= 0.99 * t.pi2:
            if len(eqs) != 3:
                problems.append(f"{len(eqs)} equilibria at pi={pi:.3f}")
                continue
            eqs = sorted(eqs, key=lambda e: float(e.state.sum()))
            lo, origin, hi = eqs
            mirror = float(np.abs(lo.state + hi.state).max())
            if not (origin.norm_inf < 1e-8
                    and origin.classification == "unstable"
                    and lo.classification == "stable"
                    and hi.classification == "stable"
                    and mirror < 1e-8):
                problems.append(f"branch structure at pi={pi:.3f}")
    ok = not problems and elapsed < 30.0
    _report(5, ok, f"{problems or 'pitchfork window clean'} "
                   f"elapsed={elapsed:.3f}s")


def test_criterion_06_fold_and_collision(full_sweep, inst5, tanh):
    result, elapsed = full_sweep
    star, _ = hd.pi1_star(1.0, tanh)
    folded = [b for b in result.branches if b.fold_at is not None]
    first_fold = min(b.fold_at for b in folded)
    pair = [b for b in folded if abs(b.fold_at - first_fold) < 1e-12]
    upper = max(pair, key=lambda b: b.points[0][1].norm_inf)
    lower = min(pair, key=lambda b: b.points[0][1].norm_inf)
    origin = min(result.branches, key=lambda b: b.points[0][1].norm_inf)
    t = hd.thresholds(inst5)
    collision_gap = lower.points[-1][1].norm_inf
    ok = (len(pair) == 2
          and abs(upper.fold_at - star) <= STEP + 1e-12
          and abs(lower.points[-1][0] - t.pi1) <= STEP + 1e-12
          and collision_gap < 1e-3
          and origin.stability_change_at is not None
          and abs(origin.stability_change_at - t.pi1) <= STEP + 1e-12
          and elapsed < 180.0)
    _report(6, ok, f"fold_at={upper.fold_at:.4f} (level {star:.4f}) "
                   f"collision_gap={collision_gap:.2e} "
                   f"origin_flip={origin.stability_change_at} "
                   f"elapsed={elapsed:.1f}s")


def test_criterion_07_normal_form_signs(tanh):
    rng = np.random.default_rng(123)
    alphas = rng.uniform(0.05, 2.0, 20)
    bad_signs = []
    for i, g in enumerate(_instances(20, alphas, 1000)):
        k1, k2 = hd.normal_form_coeffs(g, tanh)
        if not (k1 < 0.0 and k2 > 0.0):
            bad_signs.append(i)
    # near-linear response of kappa2 to a uniform rescale of the triples;
    # the base ratio is kept small so the degree feedback stays negligible
    base = hd.random_instance(5, 0.8, 0.2, 0.02, 5)
    ref = None
    ratios = []
    for scale in (1.0, 0.5, 0.25):
        _, k2 = hd.normal_form_coeffs(hd.scale_two_interactions(base, scale), tanh)
        if ref is None:
            ref = k2
        ratios.append((k2 / scale) / ref)
    ok = not bad_signs and all(abs(r - 1.0) < 0.05 for r in ratios)
    _report(7, ok, f"sign failures={bad_signs} scale ratios={ratios}")


def test_criterion_08_jacobian_against_differences(tanh):
    rng = np.random.default_rng(99)
    alphas = rng.uniform(0.05, 2.0, 10)
    worst = 0.0
    h = 1e-6
    for g in _instances(10, alphas, 3000):
        for _ in range(10):
            pi = float(rng.uniform(0.3, 3.0))
            x = rng.uniform(-2.0, 2.0, g.n)
            s = hd.SystemInstance(graph=g, psi=tanh, pi=pi)
            jac = hd.jacobian(s, x)
            num = np.empty_like(jac)
            for j in range(g.n):
                e = np.zeros(g.n)
                e[j] = h
                num[:, j] = (hd.vector_field(s, x + e)
                             - hd.vector_field(s, x - e)) / (2.0 * h)
            rel = np.abs(num - jac).max() / np.abs(jac).max()
            worst = max(worst, float(rel))
    ok = worst < 1e-6
    _report(8, ok, f"max relative error={worst:.2e} over 100 pairs")


def test_criterion_09_energy_decay_and_contraction(inst5, tanh):
    t = hd.thresholds(inst5)
    star, _ = hd.pi1_star(inst5.alpha)
    rng = np.random.default_rng(42)
    s_low = hd.SystemInstance(graph=inst5, psi=tanh, pi=0.8 * t.pi_tilde1)
    s_mid = hd.SystemInstance(graph=inst5, psi=tanh, pi=0.9 * star)
    decay_fail = contraction_fail = 0
    starts = rng.uniform(-2.0, 2.0, (10, inst5.n))
    # one RK4 stack; each row is bitwise the run from that start alone
    for x0, traj in zip(starts, _rk4_rows(s_low, starts, dt=0.01, t_max=40.0)):
        vals = np.array([hd.lyapunov_value(s_low, x) for x in traj.states])
        if not (np.all(np.diff(vals) < 1e-9) and vals[-1] < vals[0]):
            decay_fail += 1
        if not hd.sup_norm_report(s_mid, x0, t_max=40.0).monotone:
            contraction_fail += 1
    ok = decay_fail == 0 and contraction_fail == 0
    _report(9, ok, f"energy decay failures={decay_fail} "
                   f"sup-norm growth failures={contraction_fail} of 10 runs")


def test_criterion_10_absorbing_ball(inst5, tanh):
    pi = 1.7
    s = hd.SystemInstance(graph=inst5, psi=tanh, pi=pi)
    rng = np.random.default_rng(11)
    starts = []
    for _ in range(50):
        u = rng.uniform(-1.0, 1.0, inst5.n)
        starts.append(u / np.abs(u).max() * 10.0)
    violations = 0
    # one RK4 stack; each row is bitwise the run from that start alone
    for traj in _rk4_rows(s, np.array(starts), dt=0.01, t_max=50.0):
        norms = np.abs(traj.states).max(axis=1)
        inside = np.nonzero(norms <= pi + 1e-6)[0]
        if inside.size == 0 or np.any(norms[inside[0]:] > pi + 1e-6):
            violations += 1
    ok = violations == 0
    _report(10, ok, f"ball entry/containment violations={violations} of 50")


def test_criterion_11_no_early_nontrivial(full_sweep):
    result, _ = full_sweep
    early = [(pi, eq.norm_inf)
             for b in result.branches
             for pi, eq in b.points
             if eq.norm_inf > 1e-6 and pi < 1.0 - 1e-9]
    ok = not early
    _report(11, ok, f"nontrivial records below the unit level: {early or 'none'}")


def test_criterion_12_triangle_closed_forms(k3, tanh):
    t = hd.thresholds(k3)
    s = hd.SystemInstance(graph=k3, psi=tanh, pi=1.0)
    spec = np.sort(hd.general_eigenvalues(hd.jacobian(s, np.zeros(3))).reals)
    expected = np.array([-5.0, -5.0, -2.0])
    spec_err = np.abs(spec - expected).max()
    ok = (abs(t.pi1 - 2.0) < 1e-9
          and abs(t.pi_tilde1 - 1.0) < 1e-9
          and np.isinf(t.pi2)
          and spec_err < 1e-9)
    _report(12, ok, f"pi1={t.pi1} pi_tilde1={t.pi_tilde1} pi2={t.pi2} "
                    f"J(0) spectrum error={spec_err:.2e}")
