import numpy as np
import pytest

import hyperdecide as hd
from hyperdecide.nonlinearity import make_family

# independently recomputed reference points
TANH_1 = 0.7615941559557649
LOG_COSH_1 = 0.4337808304830271


def test_tanh_family_values(tanh):
    assert tanh.name == "tanh"
    assert tanh.eval(0.0) == 0.0
    assert abs(tanh.eval(1.0) - TANH_1) < 1e-15
    assert abs(tanh.deriv(1.0) - (1.0 - TANH_1 ** 2)) < 1e-15
    assert abs(tanh.deriv(0.0) - 1.0) < 1e-15
    assert abs(tanh.integral(1.0) - LOG_COSH_1) < 1e-14


def test_tanh_family_vectorized(tanh):
    x = np.linspace(-4.0, 4.0, 17)
    assert np.allclose(tanh.eval(x), np.tanh(x), atol=0, rtol=0)
    assert np.allclose(tanh.deriv(x), 1.0 - np.tanh(x) ** 2, atol=1e-15)


def test_tanh_oddness(tanh):
    rng = np.random.default_rng(3)
    x = rng.uniform(-8.0, 8.0, 200)
    assert np.abs(tanh.eval(-x) + tanh.eval(x)).max() < 1e-15
    assert np.abs(tanh.deriv(-x) - tanh.deriv(x)).max() < 1e-15


def test_derivatives_match_finite_differences(tanh):
    h = 1e-6
    x = np.linspace(-3.0, 3.0, 41)
    fd1 = (tanh.eval(x + h) - tanh.eval(x - h)) / (2 * h)
    fd2 = (tanh.deriv(x + h) - tanh.deriv(x - h)) / (2 * h)
    assert np.abs(fd1 - tanh.deriv(x)).max() < 1e-9
    assert np.abs(fd2 - tanh.deriv2(x)).max() < 1e-9


def test_integral_matches_quadrature(tanh):
    # d/dx integral = eval, and integral(0) = 0
    assert tanh.integral(0.0) == 0.0
    h = 1e-6
    for x in (-5.0, -1.3, 0.4, 2.0, 30.0):
        fd = (tanh.integral(x + h) - tanh.integral(x - h)) / (2 * h)
        # difference roundoff grows like |x| * eps / h
        assert abs(fd - tanh.eval(x)) < 1e-9 * max(1.0, abs(x))


def test_integral_overflow_safe(tanh):
    # naive log(cosh) overflows around 710
    big = tanh.integral(1000.0)
    assert np.isfinite(big)
    assert abs(big - (1000.0 - np.log(2.0))) < 1e-12


def test_make_family_rejects_bad_origin():
    with pytest.raises(ValueError):
        make_family(eval=lambda x: np.asarray(x) + 0.1,
                    deriv=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                    deriv2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                    name="shifted")
    with pytest.raises(ValueError):
        make_family(eval=lambda x: 0.5 * np.tanh(x),
                    deriv=lambda x: 0.5 * (1 - np.tanh(x) ** 2),
                    deriv2=lambda x: -np.tanh(x) * (1 - np.tanh(x) ** 2),
                    name="half")
    # the odd clause's origin condition, psi(0) = 0 exactly: a family that
    # make_family accepts is one that find_all and sweep accept at the origin
    tanh = hd.tanh_family()
    with pytest.raises(ValueError, match="must vanish at 0, got 1e-13"):
        make_family(lambda x: np.tanh(x) + 1e-13, tanh.deriv, tanh.deriv2, "lifted-tanh")


def test_verify_assumptions_tanh(tanh):
    report = hd.verify_assumptions(tanh)
    assert report.passed
    names = [c.name for c in report.clauses]
    assert names == ["odd", "unit_slope", "monotone", "saturated", "sigmoidal"]
    for c in report.clauses:
        assert c.passed, c.name


def test_verify_assumptions_flags_wrong_slope():
    f = hd.SigmoidFamily(
        eval=lambda x: 0.5 * np.tanh(x),
        deriv=lambda x: 0.5 * (1 - np.tanh(x) ** 2),
        deriv2=lambda x: -np.tanh(x) * (1 - np.tanh(x) ** 2),
        name="half")
    report = hd.verify_assumptions(f)
    assert not report.passed
    assert not report.clause("unit_slope").passed
    # saturation also fails: |f| tops out at 1/2
    assert not report.clause("saturated").passed


def test_verify_assumptions_flags_nonmonotone():
    # x*exp(-x^2/2): odd, unit slope at 0, but humped
    f = hd.SigmoidFamily(
        eval=lambda x: x * np.exp(-np.asarray(x, dtype=float) ** 2 / 2),
        deriv=lambda x: (1 - np.asarray(x, dtype=float) ** 2) * np.exp(-np.asarray(x, dtype=float) ** 2 / 2),
        deriv2=lambda x: (np.asarray(x, dtype=float) ** 3 - 3 * np.asarray(x, dtype=float)) * np.exp(-np.asarray(x, dtype=float) ** 2 / 2),
        name="hump")
    report = hd.verify_assumptions(f)
    assert not report.passed
    mono = report.clause("monotone")
    assert not mono.passed
    assert abs(mono.worst_x) > 1.0  # slope goes negative beyond the hump


def test_verify_assumptions_flags_a_nonzero_origin_value(tanh):
    # f(0) = 1e-13 keeps |f(x) + f(-x)| < 1e-12, but the origin is then no
    # equilibrium: odd fails, reported at 0 (make_family refuses this family)
    f = hd.SigmoidFamily(lambda x: np.tanh(x) + 1e-13, tanh.deriv, tanh.deriv2, "lifted-tanh")
    report = hd.verify_assumptions(f)
    assert [c.name for c in report.clauses if not c.passed] == ["odd"]
    odd = report.clause("odd")
    assert (odd.worst_x, odd.worst_value) == (0.0, 1e-13)


def test_report_clause_lookup(tanh):
    report = hd.verify_assumptions(tanh)
    with pytest.raises(KeyError):
        report.clause("no_such_clause")
