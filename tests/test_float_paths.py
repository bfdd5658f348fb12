"""The float fast paths against the exact path they mirror.

Both scalar modes of the BCH follow the algebra's ``bch_plan``; the
float product is compared with the exact one (the oracle), and each is
compared with the per-word Dynkin sum it replaced: the float one bit for
bit, the exact one as ``Fraction``s.  The curve velocity, a Bernoulli
series in ``ad``, is compared with the Dynkin words that hold the
direction once.  The float twins of the structural tables must
leave no ``Fraction`` conversion on a fresh point.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import nilcarnot.group
from nilcarnot.algebra import bracket, bracket_float
from nilcarnot.carnot import decompose
from nilcarnot.catalog import direct_product, engel4, fixture, fixture_names, ladder5
from nilcarnot.group import bch, dynkin_words
from nilcarnot.maps import _curve_velocity, compose, fiber_dilation, fiber_shear, solve_single_generator_fixed_point
from nilcarnot.rng import CounterRng, sample_ball_point
from nilcarnot.shear import apply_shear, build_shear, component_from_exprs

ALGEBRAS = {name: fixture(name) for name in fixture_names()}
ALGEBRAS["ladder5_x_engel4"] = direct_product(ladder5(), engel4(), 2)

floats = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False)


def per_word_sum(alg, words, x, y, bracket_with, scalar):
    """A Dynkin sum word by word: every right-nested bracket built anew."""
    out = [scalar(0)] * alg.dim
    for word, coef in words:
        term = x if word[-1] == 0 else y
        for letter in reversed(word[:-1]):
            term = bracket_with(alg, x if letter == 0 else y, term)
        for i, a in enumerate(term):
            if a:
                out[i] += scalar(coef) * a
    return tuple(out)


def bch_float_per_word(alg, x, y):
    return per_word_sum(alg, dynkin_words(alg.nilpotency_step), x, y, bracket_float, float)


def rational_point(rng, alg):
    # dyadic, so the float round trip in _curve_velocity is exact
    return tuple(Fraction(round(rng.symmetric(3.0) * 64), 64) for _ in range(alg.dim))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_float_bch_agrees_with_exact_bch(name, data):
    alg = ALGEBRAS[name]
    x = data.draw(st.tuples(*[floats] * alg.dim))
    y = data.draw(st.tuples(*[floats] * alg.dim))
    exact = bch(alg, tuple(map(Fraction, x)), tuple(map(Fraction, y)))
    # rounding grows with the largest term of the series, |x|^step
    scale = max(1.0, *map(abs, x), *map(abs, y)) ** alg.nilpotency_step
    for got, want in zip(bch(alg, x, y), exact):
        assert abs(got - float(want)) <= 1e-12 * scale


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_bch_plan_is_bit_identical_to_the_per_word_sum(name):
    alg = ALGEBRAS[name]
    rng = CounterRng(23)
    for _ in range(100):
        x = sample_ball_point(rng, alg, 5.0)
        y = sample_ball_point(rng, alg, 5.0)
        got = bch(alg, x, y)
        assert [a.hex() for a in got] == [a.hex() for a in bch_float_per_word(alg, x, y)]


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_exact_bch_equals_the_per_word_sum(name):
    alg = ALGEBRAS[name]
    rng = CounterRng(29)
    for _ in range(10):
        x, y = rational_point(rng, alg), rational_point(rng, alg)
        got = bch(alg, x, y)
        assert all(type(a) is Fraction for a in got)
        assert got == per_word_sum(alg, dynkin_words(alg.nilpotency_step), x, y, bracket, Fraction)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_curve_velocity_equals_the_words_with_one_direction_letter(name):
    alg = ALGEBRAS[name]
    linear = [(w, c) for w, c in dynkin_words(alg.nilpotency_step) if w.count(1) == 1]
    rng = CounterRng(31)
    for _ in range(10):
        at, direction = rational_point(rng, alg), rational_point(rng, alg)
        got = _curve_velocity(alg, at, direction)
        assert all(type(a) is Fraction for a in got)
        assert got == per_word_sum(alg, linear, at, direction, bracket, Fraction)


def ladder5_bch_bracket_calls(monkeypatch, kernel, point):
    alg = ladder5()
    original = getattr(nilcarnot.group, kernel)
    calls = []
    monkeypatch.setattr(nilcarnot.group, kernel, lambda *a: calls.append(1) or original(*a))
    x = tuple(map(point, (0.25, -1.5, 0.75, 0.5, 2.0, -0.5)))
    y = tuple(map(point, (1.0, 0.125, -0.625, -1.25, 0.75, 1.0)))
    bch(alg, x, y)
    return len(calls)


def test_step_three_float_bch_brackets_each_suffix_once(monkeypatch):
    # the per-word sum brackets once per letter after the first: 14 times
    assert sum(len(w) - 1 for w, _ in dynkin_words(ladder5().nilpotency_step)) == 14
    assert ladder5_bch_bracket_calls(monkeypatch, "bracket_float", float) == 6


def test_step_three_exact_bch_brackets_each_suffix_once(monkeypatch):
    assert ladder5_bch_bracket_calls(monkeypatch, "bracket", Fraction) == 6


@pytest.fixture
def fraction_to_float_calls(monkeypatch):
    calls = []
    original = Fraction.__float__
    monkeypatch.setattr(Fraction, "__float__", lambda q: calls.append(q) or original(q))
    return calls


def test_solved_fixed_point_reads_float_tables(fraction_to_float_calls):
    dec = decompose(ladder5())
    gamma = compose(
        fiber_dilation(dec.base, Fraction(1, 2)),
        fiber_shear(build_shear(dec, {1: component_from_exprs(dec, 1, "0.4*q1")})),
    )
    c, _ = solve_single_generator_fixed_point(dec, gamma, 1)
    fraction_to_float_calls.clear()
    assert c.eval((1.7,))[2] == pytest.approx(0.4 * 1.7, abs=1e-9)
    assert fraction_to_float_calls == []


def test_apply_shear_reads_float_tables(fraction_to_float_calls):
    dec = decompose(ladder5())
    smap = build_shear(dec, {1: component_from_exprs(dec, 1, "sign(q1)*sqrt(abs(q1))")})
    assert sorted(smap.components) == [1, 3]
    # the first point builds the twins; a fresh point then reads them
    apply_shear(smap, (0.5, -0.2, 1.0, 0.3, 0.1, -0.4))
    fraction_to_float_calls.clear()
    apply_shear(smap, (1.3, 0.4, -2.1, 0.7, -0.6, 1.2))
    assert fraction_to_float_calls == []
