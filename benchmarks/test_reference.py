"""Tests of the benchmark's reference against results that need no program
code. Run with ``python3 -m pytest benchmarks/test_reference.py``."""
import numpy as np
import pytest

from inputs import inst5, mixed_instance, relabel, relabelling
from reference import Reference, parse_instance, write_instance


@pytest.fixture
def triangle():
    """Complete triangle: unit pairs, every admissible triple at weight one,
    so every generalized degree is 4 and the shared ratio is 1."""
    a2 = np.ones((3, 3)) - np.eye(3)
    b = np.zeros((3, 3, 3))
    for i in range(3):
        j, k = [x for x in range(3) if x != i]
        b[i, j, k] = b[i, k, j] = 1.0
    return Reference(a2, b)


def test_triangle_closed_forms(triangle):
    assert triangle.alpha == 1.0
    assert np.array_equal(triangle.degrees, [4.0, 4.0, 4.0])
    # D^-1/2 A D^-1/2 = A / 4 has top eigenvalue 1/2
    assert triangle.pi1() == pytest.approx(2.0, abs=1e-12)
    spectrum = np.sort(np.linalg.eigvals(triangle.jacobian(np.zeros(3), 1.0)).real)
    assert spectrum == pytest.approx([-5.0, -5.0, -2.0], abs=1e-12)


def test_triangle_consensus_balance(triangle):
    # every agent sees the same scalar balance, so c * ones is stationary
    # exactly at the roots of gap
    fold, _ = triangle.fold()
    assert 1.0 < fold < 2.0
    c = triangle.upper_root(1.7)
    assert abs(triangle.gap(c, 1.7)) < 1e-12
    assert np.abs(triangle.field(c * np.ones(3), 1.7)).max() < 1e-12


def test_fold_is_the_smallest_effort_with_a_positive_root(triangle):
    fold, e_star = triangle.fold()
    c = np.linspace(1e-3, 10.0, 200001)
    # the balance (1 + alpha) c / h(c) attains its minimum, the fold level, at e_star
    level = 2.0 * c / (np.tanh(c) + np.tanh(c) ** 2)
    assert level.min() == pytest.approx(fold, abs=1e-8)
    assert c[level.argmin()] == pytest.approx(e_star, abs=1e-3)


@pytest.mark.parametrize("seed", [0, 1])
def test_jacobian_against_differences(seed):
    rng = np.random.default_rng(seed)
    ref = Reference(*mixed_instance(n=9, p2=0.5, p3=0.3, seed=seed))
    x = rng.uniform(-1.5, 1.5, 9)
    h = 1e-6
    columns = [(ref.field(x + h * e, 1.3) - ref.field(x - h * e, 1.3)) / (2 * h)
               for e in np.eye(9)]
    assert np.abs(np.array(columns).T - ref.jacobian(x, 1.3)).max() < 1e-7


def test_text_round_trip_and_relabelling():
    a2, b = inst5()
    perm = relabelling(5, 3)
    moved = relabel(a2, b, perm)
    back = parse_instance(write_instance(*moved))
    assert np.array_equal(back[0], moved[0]) and np.array_equal(back[1], moved[1])
    # relabelling permutes the field's components and nothing else
    x = np.linspace(-1.0, 1.0, 5)
    assert np.allclose(Reference(*moved).field(x[perm], 1.7),
                       Reference(a2, b).field(x, 1.7)[perm], atol=1e-14)
