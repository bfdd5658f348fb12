import math

import numpy as np
import pytest

from nilcarnot import quadrature
from nilcarnot.quadrature import MAX_EVALS, QuadratureError, integrate_vector


def test_polynomial_is_near_exact():
    val = integrate_vector(lambda t: np.array([t**3 - 2 * t]), 0.0, 2.0)
    assert val[0] == pytest.approx(0.0, abs=1e-12)


def test_sqrt_with_endpoint_singularity():
    val = integrate_vector(lambda t: np.array([math.sqrt(abs(t))]), 0.0, 4.0, tol=1e-10)
    assert val[0] == pytest.approx(16.0 / 3.0, abs=1e-8)


def test_signed_sqrt_across_zero():
    f = lambda t: np.array([math.copysign(math.sqrt(abs(t)), t)])
    val = integrate_vector(f, -1.0, 1.0, tol=1e-10)
    assert val[0] == pytest.approx(0.0, abs=1e-9)


def test_vector_components_integrate_independently():
    f = lambda t: np.array([1.0, 2 * t, math.cos(t)])
    val = integrate_vector(f, 0.0, math.pi)
    assert val[0] == pytest.approx(math.pi, abs=1e-10)
    assert val[1] == pytest.approx(math.pi**2, abs=1e-9)
    assert val[2] == pytest.approx(0.0, abs=1e-10)


def test_empty_interval():
    assert integrate_vector(lambda t: np.array([5.0]), 1.0, 1.0)[0] == 0.0


def test_zero_length_vectors_still_evaluate_the_first_nodes():
    points = []
    assert integrate_vector(lambda t: points.append(t) or (), 0.0, 2.0) == ()
    assert sorted(points) == [0.0, 0.5, 1.0, 1.5, 2.0]


def test_jump_at_tight_tolerance_stops_at_the_budget():
    """Capped intervals keep the estimate above 1e-13; the budget ends the refinement."""
    points = []

    def jump(t):
        points.append(t)
        return (1.0 if t >= 0.3 else 0.0,)

    with pytest.raises(QuadratureError) as info:
        integrate_vector(jump, 0.0, 1.0, tol=1e-13)
    assert info.value.evals == len(points) <= MAX_EVALS
    assert info.value.error > 1e-13
    assert f"{len(points)} evaluations" in str(info.value)


def test_budget_that_is_met_leaves_the_value_unchanged(monkeypatch):
    points = []

    def f(t):
        points.append(t)
        return (math.sqrt(abs(t)),)

    full = integrate_vector(f, 0.0, 4.0, tol=1e-10)
    used = len(points)
    monkeypatch.setattr(quadrature, "MAX_EVALS", used)
    assert integrate_vector(f, 0.0, 4.0, tol=1e-10) == full
    monkeypatch.setattr(quadrature, "MAX_EVALS", used - 1)
    with pytest.raises(QuadratureError):
        integrate_vector(f, 0.0, 4.0, tol=1e-10)
