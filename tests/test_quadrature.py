import itertools
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


def _one_job(f, a, b, tol):
    """``integrate_batch`` on the one job (a, b, tol), f called node by node."""
    batch_f = lambda which, t: np.array([f(x) for x in t.tolist()]).reshape(len(t), -1)
    return tuple(integrate_batch(batch_f, [(a, b, tol)])[0].tolist())


def test_one_batch_job_stops_once_the_capped_error_exceeds_the_tolerance():
    """The capped intervals' error never shrinks, so the job stops well
    within ``MAX_EVALS``, and its error names the evaluations made and the
    estimate that missed."""
    points = []

    def jump(t):
        points.append(t)
        return (1.0 if t >= 0.3 else 0.0,)

    with pytest.raises(QuadratureError) as info:
        _one_job(jump, 0.0, 1.0, 1e-13)
    assert info.value.evals == len(points) <= 1_000
    assert info.value.error > 1e-13
    assert str(info.value) == (
        f"quadrature stopped after {len(points)} evaluations with error estimate "
        f"{info.value.error:.3e} above the tolerance {1e-13:.3e}"
    )


def test_one_batch_job_that_meets_the_budget_keeps_its_value(monkeypatch):
    points = []

    def f(t):
        points.append(t)
        return (math.sqrt(abs(t)),)

    full = _one_job(f, 0.0, 4.0, 1e-10)
    used = len(points)
    monkeypatch.setattr(quadrature, "MAX_EVALS", used)
    assert _one_job(f, 0.0, 4.0, 1e-10) == full
    monkeypatch.setattr(quadrature, "MAX_EVALS", used - 1)
    with pytest.raises(QuadratureError) as info:
        _one_job(f, 0.0, 4.0, 1e-10)
    assert info.value.evals <= used - 1 and info.value.error > 1e-10


@pytest.mark.parametrize("a, b", [(0.0, 4.0), (-1.0, 3.0), (1.0, 1.0)])
def test_one_batch_job_takes_the_nodes_and_the_bits_of_integrate_vector(a, b):
    """a, b, the midpoint and the quarter points in one call (a alone when
    a == b), then four new nodes per bisection, left to right: the order
    of ``integrate_vector``, the reference, with its value bit for bit."""
    f = lambda t: (math.copysign(math.sqrt(abs(t - 0.3)), t - 0.3), math.sin(t))
    calls = []

    def batch_f(which, t):
        calls.append(t.tolist())
        return np.array([f(x) for x in calls[-1]])

    got = integrate_batch(batch_f, [(a, b, 1e-10)])[0].tolist()
    nodes = []
    want = integrate_vector(lambda t: nodes.append(t) or f(t), a, b, 1e-10)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert [x for call in calls for x in call] == nodes
    if a == b:
        assert calls == [[a]]
        return
    assert calls[0] == [a, b, 0.5 * (a + b), *_quarters(a, b)]
    assert len(calls) > 1 and all(len(call) == 4 and call == sorted(call) for call in calls[1:])


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


def _quarters(a, b):
    m = 0.5 * (a + b)
    return 0.5 * (a + m), 0.5 * (m + b)


def test_batch_schedule_runs_each_process_in_lockstep():
    """The first call holds every job's a, b and midpoint, job by job, then
    every job's quarter points; a job with a == b is left out of it.  Each
    later call holds, job by job, the one node of a job with a == b (in the
    second call only) or the four new nodes of one bisection of a job still
    running, left to right.  A job that meets its tolerance on its first
    interval asks for no more nodes.  ``carnot`` checks membership on the
    first 3k nodes of the first call, the first three nodes of each of its
    k segments."""
    funcs = [_integrand(kind, 1.0, 0.3, 1) for kind in ("holder", "smooth", "jump", "cusp", "smooth")]
    intervals = [(0.0, 1.0, 1e-9), (0.0, 2.0, 1e-6), (0.5, 0.5, 1e-9), (-1.0, 1.0, 1e-7), (0.0, 0.25, 1e-3)]
    calls = []

    def batch_f(which, t):
        calls.append(list(zip(which.tolist(), t.tolist())))
        return np.array([funcs[j](x) for j, x in calls[-1]]).reshape(len(t), 1)

    integrate_batch(batch_f, intervals)
    ordinary = [(j, a, b) for j, (a, b, _) in enumerate(intervals) if a != b]
    assert calls[0] == [(j, x) for j, a, b in ordinary for x in (a, b, 0.5 * (a + b))] + [
        (j, x) for j, a, b in ordinary for x in _quarters(a, b)
    ]
    assert len(calls) > 3
    running = None
    for n, call in enumerate(calls[1:]):
        groups = [list(group) for _, group in itertools.groupby(call, key=lambda node: node[0])]
        jobs = [group[0][0] for group in groups]
        assert jobs == sorted(set(jobs)) and (running is None or set(jobs) <= running)
        for job, group in zip(jobs, groups):
            a, b, _ = intervals[job]
            if a == b:
                assert n == 0 and group == [(job, a)]
            else:
                assert len(group) == 4 and sorted(x for _, x in group) == [x for _, x in group]
        running = set(jobs)
    # the last job met its tolerance in the first call
    assert 2 in {j for j, _ in calls[1]} and 4 not in {j for call in calls[1:] for j, _ in call}
    for j, (f, (a, b, tol)) in enumerate(zip(funcs, intervals)):
        nodes = []
        integrate_vector(lambda t: nodes.append(t) or f(t), a, b, tol)
        assert [x for call in calls for k, x in call if k == j] == nodes


def _batch_against_integrate_vector(funcs, intervals):
    """Runs ``integrate_batch`` and ``integrate_vector`` job by job (up to
    the first miss) on the same integrands; asserts that each job asks for
    the same nodes in the same order, and gets the same bits or raises the
    same ``QuadratureError``."""
    calls = []

    def batch_f(which, t):
        calls.append(list(zip(which.tolist(), t.tolist())))
        return np.array([funcs[j](x) for j, x in calls[-1]]).reshape(len(t), -1)

    want, nodes, miss = [], [], None
    for f, (a, b, tol) in zip(funcs, intervals):
        seen = []
        nodes.append(seen)
        try:
            want.append(integrate_vector(lambda t: seen.append(t) or f(t), a, b, tol))
        except QuadratureError as exc:
            miss = exc
            break
    if miss is None:
        got = integrate_batch(batch_f, intervals).tolist()
        assert [[x.hex() for x in row] for row in got] == [[x.hex() for x in row] for row in want]
    else:
        with pytest.raises(QuadratureError) as info:
            integrate_batch(batch_f, intervals)
        assert (info.value.evals, info.value.error.hex(), str(info.value)) == (miss.evals, miss.error.hex(), str(miss))
    for j, seen in enumerate(nodes):
        assert [x for call in calls for k, x in call if k == j] == seen
    return want


def test_a_nan_first_error_is_decided_as_integrate_vector_decides_it():
    """numpy's max propagates a nan, Python's keeps the first of its
    arguments on a nan: a job whose first error is nan goes to its process,
    which ends at once when the nan comes first, and bisects on the
    error of the other components when it does not."""
    smooth = lambda t: math.sin(3.0 * t)
    nan_first = lambda t: (math.nan if t == 0.5 else 0.0, smooth(t))
    nan_last = lambda t: (smooth(t), math.nan if t == 0.5 else 0.0)
    ordinary = _integrand("smooth", 1.0, 0.0, 2)
    funcs = [nan_first, nan_last, ordinary, nan_first]
    intervals = [(0.0, 1.0, 1e-9), (0.0, 1.0, 1e-9), (0.0, 1.0, 1e-9), (0.5, 0.5, 1e-9)]
    want = _batch_against_integrate_vector(funcs, intervals)
    assert math.isnan(want[0][0]) and math.isnan(want[1][1]) and math.isfinite(want[1][0])


@pytest.mark.parametrize("tol", [1e-9, math.inf])
def test_an_infinite_first_error_is_decided_as_integrate_vector_decides_it(tol):
    """1e308 at the midpoint overflows the coarse Simpson sum but not the
    fine one, so the first error is inf: it meets an infinite tolerance
    in the first call, and a finite one never."""
    spike = lambda t: (1e308 if t == 0.5 else 0.0,)
    funcs = [spike, _integrand("smooth", 1.0, 0.0, 1), spike]
    intervals = [(0.0, 1.0, 1e-6), (-1.0, 1.0, tol), (0.0, 1.0, tol)]
    _batch_against_integrate_vector(funcs[1:], intervals[1:])
    _batch_against_integrate_vector(funcs, intervals)
