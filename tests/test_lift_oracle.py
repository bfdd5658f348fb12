"""The float lift quadrature against the exact oracle of ``polyoracle``.

Components are polynomials of degree at most 3 with small integer
coefficients.  Each float value must lie within its requested tolerance
of the exact integral, plus a rounding allowance of ``ROUNDING`` times
max(1, |exact|).  The requested tolerance of a path is the sum of its
segments' tolerances: a 1-D lift value is one segment to ``DEFAULT_TOL``,
a zigzag path integrates each segment to ``DEFAULT_TOL``, and a loop of
the loop test each segment to its share of a tenth of the loop's bound.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from polyoracle import path_integral, segment_integral

import nilcarnot.carnot
import nilcarnot.shear
from nilcarnot.carnot import decompose, horizontal_connect, integrate_bracket_forms
from nilcarnot.catalog import direct_product, engel4, ladder5
from nilcarnot.linalg import columns, points
from nilcarnot.quadrature import DEFAULT_TOL
from nilcarnot.rng import SamplerConfig
from nilcarnot.shear import component_from_exprs, lift, loop_test_membership

# the float path's rounding, relative to max(1, |exact|): the largest such
# gap measured on zigzag paths and loops of ladder5 x engel4 was 2.4e-16
ROUNDING = 1e-13


@pytest.fixture(scope="module")
def dec_multid():
    return decompose(direct_product(ladder5(), engel4(), 2))


def _polynomial(dim):
    """A polynomial of degree <= 3 in q1..q_dim with coefficients in -3..3, as text."""
    monomial = st.lists(st.integers(1, dim), max_size=3).map(lambda idx: "*".join(f"q{i}" for i in sorted(idx)))
    term = st.tuples(st.integers(-3, 3).filter(bool), monomial).map(lambda t: f"{t[0]}*{t[1]}" if t[1] else str(t[0]))
    return st.lists(term, min_size=1, max_size=4).map(" + ".join)


def _assert_near(got, exact, tol):
    """Each float of ``got`` within ``tol`` plus the rounding allowance of its exact value."""
    for g, e in zip(got, exact):
        assert abs(Fraction(g) - e) <= Fraction(tol) + Fraction(ROUNDING) * max(1, abs(e)), (g, float(e))


def _check_1d_lift(dec, text, qs):
    component = component_from_exprs(dec, 1, text)
    values = points(lift(dec, component).eval(columns([(q,) for q in qs])), len(qs))
    for q, value in zip(qs, values):
        _assert_near(value, segment_integral(dec, component.trees, 1, (0.0,), (q,), 1.0), DEFAULT_TOL)


def _check_zigzag(dec, text, targets):
    component = component_from_exprs(dec, 1, text)
    paths = [horizontal_connect(dec.quotient_carnot, g) for g in targets]
    values = integrate_bracket_forms(dec, component, [(path, DEFAULT_TOL) for path in paths])
    for path, value in zip(paths, values):
        _assert_near(value, path_integral(dec, component.trees, 1, path), path.segment_count * DEFAULT_TOL)


def _check_loops(dec, text, seed, monkeypatch):
    """The loops of the loop test, each against its exact integral."""
    component = component_from_exprs(dec, 1, text)
    seen, forms = [], nilcarnot.shear.integrate_bracket_forms
    def recorded(d, c, jobs):
        seen.append((jobs, forms(d, c, jobs)))
        return seen[-1][1]

    monkeypatch.setattr(nilcarnot.shear, "integrate_bracket_forms", recorded)
    loop_test_membership(dec, component, SamplerConfig(seed=seed, count=2, radius=0.5))
    ((jobs, values),) = seen
    assert jobs
    for (loop, tol), value in zip(jobs, values):
        _assert_near(value, path_integral(dec, component.trees, 1, loop), loop.segment_count * tol)


@settings(max_examples=25, deadline=None)
@given(text=_polynomial(1), qs=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=4))
def test_a_1d_lift_of_a_polynomial_meets_its_tolerance_against_the_exact_oracle(dec_l5, text, qs):
    _check_1d_lift(dec_l5, text, qs)


_TARGET = st.tuples(*[st.floats(-2.0, 2.0)] * 5)


@settings(max_examples=12, deadline=None)
@given(text=_polynomial(5), targets=st.lists(_TARGET, min_size=1, max_size=2))
def test_zigzag_integrals_of_a_polynomial_meet_their_tolerance_against_the_exact_oracle(dec_multid, text, targets):
    _check_zigzag(dec_multid, text, targets)


@settings(max_examples=8, deadline=None)
@given(text=_polynomial(5), seed=st.integers(0, 2**32 - 1))
def test_loop_integrals_of_a_polynomial_meet_their_tolerance_against_the_exact_oracle(dec_multid, text, seed):
    with pytest.MonkeyPatch.context() as mp:
        _check_loops(dec_multid, text, seed, mp)


@pytest.mark.parametrize("kind", ["1d", "zigzag", "loops"])
def test_the_oracle_fails_a_quadrature_off_by_1e_9(dec_l5, dec_multid, monkeypatch, kind):
    batch = nilcarnot.carnot.integrate_batch
    text = "2*q1*q1 + -1*q2 + 3" if kind != "1d" else "2*q1*q1 + -1*q1 + 3"
    checks = {
        "1d": lambda: _check_1d_lift(dec_l5, text, [0.7, -2.5]),
        "zigzag": lambda: _check_zigzag(dec_multid, text, [(0.7, -0.4, 1.1, 0.3, -0.9)]),
        "loops": lambda: _check_loops(dec_multid, text, 7, monkeypatch),
    }
    checks[kind]()
    monkeypatch.setattr(nilcarnot.carnot, "integrate_batch", lambda f, jobs: batch(f, jobs) + 1e-9)
    with pytest.raises(AssertionError):
        checks[kind]()
