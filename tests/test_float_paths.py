"""The float fast paths against the exact path they mirror.

The float BCH follows the algebra's ``bch_plan``; it is compared with
the exact product (the oracle) and, bit for bit, with the per-word
Dynkin sum it replaced.  The float twins of the structural tables must
leave no ``Fraction`` conversion on a fresh point.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import nilcarnot.group
from nilcarnot.algebra import bracket_float
from nilcarnot.carnot import decompose
from nilcarnot.catalog import direct_product, engel4, fixture, fixture_names, ladder5
from nilcarnot.group import bch, dynkin_words
from nilcarnot.maps import compose, fiber_dilation, fiber_shear, solve_single_generator_fixed_point
from nilcarnot.rng import CounterRng, sample_ball_point
from nilcarnot.shear import apply_shear, build_shear, component_from_exprs

ALGEBRAS = {name: fixture(name) for name in fixture_names()}
ALGEBRAS["ladder5_x_engel4"] = direct_product(ladder5(), engel4(), 2)

floats = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False)


def bch_float_per_word(alg, x, y):
    """The float BCH word by word: every right-nested bracket built anew."""
    out = [0.0] * alg.dim
    for word, coef in dynkin_words(alg.nilpotency_step):
        term = x if word[-1] == 0 else y
        for letter in reversed(word[:-1]):
            term = bracket_float(alg, x if letter == 0 else y, term)
        for i, a in enumerate(term):
            if a:
                out[i] += float(coef) * a
    return tuple(out)


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


def test_step_three_float_bch_brackets_each_suffix_once(monkeypatch):
    alg = ladder5()
    # the per-word sum brackets once per letter after the first: 14 times
    assert sum(len(w) - 1 for w, _ in dynkin_words(alg.nilpotency_step)) == 14
    calls = []
    monkeypatch.setattr(
        nilcarnot.group, "bracket_float", lambda *a: calls.append(1) or bracket_float(*a)
    )
    x = (0.3, -1.2, 0.7, 0.4, 2.0, -0.5)
    y = (1.1, 0.2, -0.6, -1.3, 0.8, 0.9)
    bch(alg, x, y)
    assert len(calls) == 6


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
