"""Exact bytes of every text writer on hand-built awkward inputs.

The expected text is built here by the rule the formats promise: each float
written by ``format(v, ".17g")``, value by value, joined field by field. The
inputs hold ints, sums that round (0.1 + 0.2), -0.0, the least subnormal,
a huge value, 1/3 and infinity; no numerics run.
"""
import dataclasses
import math

import numpy as np

import hyperdecide as hd
from hyperdecide.bifurcation import BifurcationBranch, SweepResult, diagram_csv
from hyperdecide.dynamics import Trajectory, trajectory_csv
from hyperdecide.equilibria import Equilibrium, equilibria_csv
from hyperdecide.spectra import Thresholds, thresholds_text

AWKWARD = [-0.0, 5e-324, 1e300, 1.0 / 3.0]


def g17(v):
    return format(v, ".17g")


def _eq(state, pi, classification="stable", max_real_eig=-0.5, is_consensus=False):
    return Equilibrium(state=np.array(state, dtype=float), pi=pi, residual=0.0,
                       classification=classification, max_real_eig=max_real_eig,
                       is_consensus=is_consensus)


def test_equilibria_csv_bytes():
    eqs = [_eq(AWKWARD, 2, "unstable", -0.0, True),
           _eq(AWKWARD[::-1], 0.1 + 0.2, "marginal", 1.0 / 3.0, False)]
    expected = "pi,eq_index,classification,max_real_eig,is_consensus,x1,x2,x3,x4\n"
    for idx, eq in enumerate(eqs):
        expected += ",".join([g17(eq.pi), str(idx), eq.classification, g17(eq.max_real_eig),
                              "1" if eq.is_consensus else "0"]
                             + [g17(float(v)) for v in eq.state]) + "\n"
    text = equilibria_csv(eqs)
    assert text == expected
    assert text.splitlines()[1] == ("2,0,unstable,-0,1,-0,4.9406564584124654e-324,"
                                  "1.0000000000000001e+300,0.33333333333333331")
    assert text.splitlines()[2].startswith("0.30000000000000004,1,marginal,0.33333333333333331,0,")
    assert equilibria_csv([]) == "pi,eq_index,classification,max_real_eig,is_consensus\n"


def test_diagram_csv_bytes_in_effort_then_branch_order():
    low, mid, high = _eq(AWKWARD, 0.5), _eq([1.0 / 3.0, -0.0, 1e300, 5e-324], 0.5, "unstable"), \
        _eq([0.1 + 0.2, 2.0, -0.0, 5e-324], 0.1 + 0.6)
    # branch 1 is listed first, and both branches hold a point at 0.5
    result = SweepResult(grid=np.array([0.5, 0.1 + 0.6]), branches=[
        BifurcationBranch(1, [(0.5, mid)]),
        BifurcationBranch(0, [(0.5, low), (0.1 + 0.6, high)])])
    expected = "pi,branch_id,stable,x_norm_inf,x1,x2,x3,x4\n"
    for pi, bid, eq in [(0.5, 0, low), (0.5, 1, mid), (0.1 + 0.6, 0, high)]:
        expected += ",".join([g17(pi), str(bid), "1" if eq.classification == "stable" else "0",
                              g17(eq.norm_inf)] + [g17(float(v)) for v in eq.state]) + "\n"
    text = diagram_csv(result)
    assert text == expected
    big = "1.0000000000000001e+300"
    assert text.splitlines()[1:3] == [
        f"0.5,0,1,{big},-0,4.9406564584124654e-324,{big},0.33333333333333331",
        f"0.5,1,0,{big},0.33333333333333331,-0,{big},4.9406564584124654e-324"]
    assert diagram_csv(SweepResult(grid=np.array([1.0]), branches=[])) == \
        "pi,branch_id,stable,x_norm_inf\n"


def test_trajectory_csv_bytes():
    times = 0.1 * np.arange(5)
    states = np.array([AWKWARD, AWKWARD[::-1], [0.1 + 0.2, 2.0, -1e300, 0.0],
                       [1.0, -0.0, 5e-324, 1.0 / 3.0], [0.0, 0.0, 0.0, 0.0]])
    traj = Trajectory(times=times, states=states, converged=True, final_residual=0.0)
    expected = "t,x1,x2,x3,x4\n" + "".join(
        ",".join([g17(float(t))] + [g17(float(v)) for v in row]) + "\n"
        for t, row in zip(times, states))
    text = trajectory_csv(traj)
    assert text == expected
    assert text.splitlines()[4].startswith("0.30000000000000004,1,-0,")


def test_to_text_bytes():
    a2 = np.array([[-0.0, 0.1, 1.0 / 3.0], [0.1, 0.0, 5e-324], [1.0 / 3.0, 5e-324, 0.0]])
    b = np.zeros((3, 3, 3))
    b[0, 1, 2] = b[0, 2, 1] = 0.25
    built = hd.build(a2, b)
    for alpha in (built.alpha, 0.1 + 0.2):
        g = dataclasses.replace(built, alpha=alpha)
        lines = [f"n=3 alpha={'none' if alpha is None else g17(float(alpha))}", "[A2]"]
        lines += [" ".join(g17(float(v)) for v in row) for row in g.a2]
        for i, block in enumerate(g.b, 1):
            lines += [f"[B{i}]"] + [" ".join(g17(float(v)) for v in row) for row in block]
        assert hd.to_text(g) == "\n".join(lines) + "\n"
    assert hd.to_text(g).splitlines()[:3] == [
        "n=3 alpha=0.30000000000000004", "[A2]", "-0 0.10000000000000001 0.33333333333333331"]
    assert hd.to_text(g).splitlines()[3] == "0.10000000000000001 0 4.9406564584124654e-324"


def test_thresholds_text_bytes():
    pi1, pi_tilde1, star = 1.0 / 0.7, 0.1 + 0.2, 1.0 + 1.0 / 3.0
    for pi1_star in (None, star):
        t = Thresholds(pi1=pi1, pi2=math.inf, pi_tilde1=pi_tilde1, pi1_star=pi1_star)
        expected = f"pi1={g17(pi1)}\npi2=inf\npi_tilde1={g17(pi_tilde1)}\n"
        if pi1_star is not None:
            expected += f"pi1_star={g17(pi1_star)}\n"
        assert thresholds_text(t) == expected
    assert thresholds_text(t) == ("pi1=1.4285714285714286\npi2=inf\npi_tilde1=0.30000000000000004\n"
                                  "pi1_star=1.3333333333333333\n")
