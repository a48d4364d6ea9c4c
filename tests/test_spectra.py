from dataclasses import replace

import numpy as np
import pytest

import hyperdecide as hd
from hyperdecide.dynamics import SystemInstance
from hyperdecide.equilibria import classify
from hyperdecide.errors import MultiplicityError, NotSymmetricError
from hyperdecide.spectra import (
    general_eigenvalues,
    h_matrix,
    perron_pair,
    symmetric_eigenvalues,
    thresholds,
    thresholds_text,
)


def test_symmetric_eigenvalues_known_spectrum():
    # assemble Q diag(d) Q^T with well separated d
    rng = np.random.default_rng(0)
    d = np.array([-3.0, -1.0, 0.5, 2.0, 7.0])
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    spec = symmetric_eigenvalues(q @ np.diag(d) @ q.T)
    assert spec.real_flag
    assert np.abs(spec.reals - d).max() < 1e-9
    assert np.all(np.diff(spec.reals) >= 0)


def test_symmetric_eigenvalues_rejects_asymmetric():
    m = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(NotSymmetricError):
        symmetric_eigenvalues(m)


def test_general_eigenvalues_companion_oracle():
    # companion matrix of (x-1)(x-2)(x-3)
    c = np.array([[0.0, 0.0, 6.0],
                  [1.0, 0.0, -11.0],
                  [0.0, 1.0, 6.0]])
    spec = general_eigenvalues(c)
    assert spec.real_flag
    assert np.abs(spec.reals - np.array([1.0, 2.0, 3.0])).max() < 1e-9


def test_general_eigenvalues_complex_pair():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    spec = general_eigenvalues(rot)
    assert not spec.real_flag
    assert np.abs(np.sort(spec.values.imag) - np.array([-1.0, 1.0])).max() < 1e-12


def test_classify_above_two_hundred_agents():
    g = hd.random_instance(201, 0.05, 0.005, 1.0, 3)
    eq = classify(SystemInstance(graph=g, psi=hd.tanh_family(), pi=0.5), np.zeros(201))
    assert eq.classification == "stable"


def test_eigh_vs_eigvals_cross_check():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = rng.standard_normal((6, 6))
        m = m + m.T
        a = symmetric_eigenvalues(m).reals
        b = np.sort(general_eigenvalues(m).reals)
        assert np.abs(a - b).max() < 1e-8


def test_perron_pair_contract(inst5):
    lam, v, w = perron_pair(inst5)
    assert lam > 0
    assert np.all(v > 0) and np.all(w > 0)
    assert abs(w @ v - 1.0) < 1e-12
    # eigenvector residuals for the similar pencil Delta^-1 A2
    m = inst5.a2 / inst5.degrees[:, None]
    assert np.abs(m @ v - lam * v).max() < 1e-9
    assert np.abs(m.T @ w - lam * w).max() < 1e-9


def test_perron_pair_power_iteration_oracle(inst5):
    s = inst5.a2 / np.sqrt(np.outer(inst5.degrees, inst5.degrees))
    shifted = s + 2.0 * np.eye(5)  # make the top eigenvalue dominant
    x = np.ones(5)
    for _ in range(2000):
        x = shifted @ x
        x /= np.linalg.norm(x)
    lam_power = x @ s @ x
    lam, _, _ = perron_pair(inst5)
    assert abs(lam - lam_power) < 1e-9


def test_perron_pair_k3_closed_form(k3):
    lam, v, w = perron_pair(k3)
    assert lam == pytest.approx(0.5, abs=1e-12)
    assert np.abs(v - v[0]).max() < 1e-12  # constant on a regular graph
    assert np.abs(w / v - k3.degrees).max() < 1e-9


def test_perron_pair_near_degenerate_raises():
    # two triangles bridged by a vanishing weight: top pair nearly collides
    a2 = np.zeros((6, 6))
    for block in (range(3), range(3, 6)):
        for i in block:
            for j in block:
                if i != j:
                    a2[i, j] = 1.0
    a2[2, 3] = a2[3, 2] = 1e-12
    g = hd.build(a2, np.zeros((6, 6, 6)))
    with pytest.raises(MultiplicityError):
        perron_pair(g)


def test_gap_is_relative_to_the_leading_eigenvalue():
    # a shared ratio scales the normalized spectrum by 1 / (1 + alpha): the
    # absolute gap is 6.5e-10, the relative one 0.654
    alpha = 1e9
    g = hd.random_instance(5, 0.8, 0.2, alpha, 1)
    assert thresholds(g).pi1 == pytest.approx(1.0 + alpha, rel=1e-9, abs=0)
    assert perron_pair(g)[0] == pytest.approx(1.0 / (1.0 + alpha), rel=1e-9, abs=0)
    hd.normal_form_coeffs(g)


def test_h_matrix_row_stochastic(inst5, k3, mixed_ratio):
    for g in (inst5, k3, mixed_ratio):
        h = h_matrix(g)
        assert np.abs(h.sum(axis=1) - 1.0).max() < 1e-12
        assert np.all(h >= 0)
        top = general_eigenvalues(h).reals.max()
        assert abs(top - 1.0) < 1e-10


def test_thresholds_inst5(inst5):
    t = thresholds(inst5)
    assert t.pi1 == pytest.approx(2.0, abs=1e-10)
    assert t.pi2 == pytest.approx(5.786841474543279, abs=1e-9)
    assert t.pi_tilde1 == pytest.approx(0.9778580567937494, abs=1e-9)
    assert t.pi1_star is None


def test_thresholds_k3_closed_forms(k3):
    t = thresholds(k3)
    assert t.pi1 == pytest.approx(2.0, abs=1e-9)
    assert t.pi_tilde1 == pytest.approx(1.0, abs=1e-9)
    assert np.isinf(t.pi2)


def test_thresholds_c5_closed_forms(c5):
    t = thresholds(c5)
    assert t.pi1 == pytest.approx(1.0, abs=1e-9)
    # second cycle harmonic: 1/cos(2*pi/5) = 1 + sqrt(5)
    assert t.pi2 == pytest.approx(1.0 + np.sqrt(5.0), abs=1e-9)
    assert t.pi_tilde1 == pytest.approx(1.0, abs=1e-9)


def test_thresholds_ordering_enforced():
    with pytest.raises(ValueError):
        hd.Thresholds(pi1=2.0, pi2=3.0, pi_tilde1=1.5)
    with pytest.raises(ValueError):
        hd.Thresholds(pi1=0.8, pi2=3.0, pi_tilde1=0.5)
    t = hd.Thresholds(pi1=2.0, pi2=3.0, pi_tilde1=0.9)
    with pytest.raises(ValueError):
        replace(t, pi1_star=2.5)
    with pytest.raises(ValueError):
        replace(t, pi1_star=0.7)


def test_thresholds_text_format(inst5, k3):
    t = replace(thresholds(inst5), pi1_star=1.44)
    text = thresholds_text(t)
    lines = text.strip().splitlines()
    assert lines[0] == "pi1=2"
    assert lines[3] == "pi1_star=1.4399999999999999"
    assert thresholds_text(thresholds(k3)).splitlines()[1] == "pi2=inf"
    # no fold line without a known ratio
    assert "pi1_star" not in thresholds_text(thresholds(k3))
