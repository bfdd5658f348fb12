import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nilcarnot import quadrature
from nilcarnot.quadrature import MAX_EVALS, QuadratureError, integrate_batch, integrate_vector


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
    """Capped intervals keep the estimate above 1e-13, so the call stops within the budget."""
    points = []

    def jump(t):
        points.append(t)
        return (1.0 if t >= 0.3 else 0.0,)

    with pytest.raises(QuadratureError) as info:
        integrate_vector(jump, 0.0, 1.0, tol=1e-13)
    assert info.value.evals == len(points) <= MAX_EVALS
    assert info.value.error > 1e-13
    assert f"{len(points)} evaluations" in str(info.value)


def test_jump_at_tight_tolerance_stops_once_the_capped_error_exceeds_it():
    """The capped intervals' error never shrinks: refining the others is wasted."""
    points = []

    def jump(t):
        points.append(t)
        return (1.0 if t >= 0.3 else 0.0,)

    with pytest.raises(QuadratureError):
        integrate_vector(jump, 0.0, 1.0, tol=1e-13)
    assert len(points) <= 1_000


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


def _integrand(kind, c, s, width):
    """A smooth, a Holder or a jump integrand with ``width`` components."""
    if kind == "smooth":
        one = lambda t: c * math.sin(3.0 * t) + t * t
    elif kind == "holder":
        one = lambda t: c * math.copysign(math.sqrt(abs(t - s)), t - s)
    elif kind == "cusp":
        one = lambda t: c * abs(t - s) ** 0.75
    else:
        one = lambda t: c if t >= s else 0.0
    return lambda t: tuple(one(t) * (k + 1) for k in range(width))


_JOB = st.tuples(
    st.sampled_from(["smooth", "holder", "cusp", "jump"]),
    st.floats(-5.0, 5.0),
    st.floats(-2.0, 2.0),
    st.floats(-3.0, 3.0),
    st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
    st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]),
)


@settings(max_examples=100, deadline=None)
@given(
    jobs=st.lists(_JOB, min_size=1, max_size=6),
    width=st.sampled_from([1, 2]),
    max_evals=st.sampled_from([MAX_EVALS, 300, 41]),
    max_depth=st.sampled_from([quadrature.MAX_DEPTH, 7, 3]),
)
# jobs that bisect in the same rounds at different depths, under the depth cap
@example(
    jobs=[
        ("jump", 1.6, -0.5, 2.3, 1.7, 1e-3),
        ("jump", 1.6, -1.6, -2.0, 2.0, 1e-12),
        ("smooth", -0.3, -0.8, 2.1, 0.7, 1e-6),
        ("holder", 0.02, 1.9, 1.6, 0.0, 1e-12),
    ],
    width=2, max_evals=41, max_depth=7,
)
def test_batch_equals_integrate_vector_per_job(jobs, width, max_evals, max_depth):
    """Bit for bit, including the QuadratureError of the first job that misses
    its tolerance; the bounds are lowered so that misses happen."""
    funcs = [_integrand(kind, c, s, width) for kind, c, s, _, _, _ in jobs]
    # the second end is either the first (a zero-length interval) or an offset
    intervals = [(a, a + d, tol) for _, _, _, a, d, tol in jobs]

    def batch_f(which, t):
        return np.array([funcs[j](x) for j, x in zip(which.tolist(), t.tolist())]).reshape(len(t), width)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "MAX_EVALS", max_evals)
        mp.setattr(quadrature, "MAX_DEPTH", max_depth)
        want, miss = [], None
        for f, (a, b, tol) in zip(funcs, intervals):
            try:
                want.append(integrate_vector(f, a, b, tol))
            except QuadratureError as exc:
                miss = exc
                break
        if miss is None:
            got = integrate_batch(batch_f, intervals)
            assert [[x.hex() for x in row] for row in got.tolist()] == [[x.hex() for x in row] for row in want]
        else:
            with pytest.raises(QuadratureError) as info:
                integrate_batch(batch_f, intervals)
            assert (info.value.evals, info.value.error.hex(), str(info.value)) == (
                miss.evals, miss.error.hex(), str(miss),
            )
