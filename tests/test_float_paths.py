"""The float fast paths against the exact path they mirror.

Both scalar modes of the BCH run the algebra's generated ``bch_kernel``,
built from its ``bch_plan``; the float product is compared with the
exact one (the oracle), and each is compared with the per-word Dynkin
sum the plan replaced: the float one bit for bit, the exact one as
``Fraction``s.  The generated bracket and BCH kernels, and the exact
bracket that reads ``ad``, are compared with the table loops the kernels
replaced, kept as references (the bracket loop in ``conftest``), and so
is each ``LinearMap`` kernel with the ``sum`` loop it replaced.  The curve
velocity, a Bernoulli series in ``ad``, is compared with the Dynkin
words that hold the direction once.  The float twins of the structural
tables must leave no ``Fraction`` conversion on a fresh point.  The
sampler, the quasi-norm, the quasi-distance and the dilation on
coordinate columns give the bits of one-point calls, and the sampler the
counter of the one-point stream.
"""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nilcarnot.algebra
import nilcarnot.group
from nilcarnot.algebra import LinearMap, bracket, bracket_float
from nilcarnot.carnot import decompose
from nilcarnot.catalog import direct_product, engel4, fixture, fixture_names, ladder5
from nilcarnot.group import bch, dilate, dynkin_words, quasi_dist, quasi_norm
from nilcarnot.linalg import columns, points
from nilcarnot.maps import (
    _curve_velocity,
    compose,
    extract_compatible,
    fiber_dilation,
    fiber_shear,
    solve_single_generator_fixed_point,
)
from nilcarnot.rng import CounterRng, sample_ball_point
from nilcarnot.shear import apply_shear, build_shear, component_from_exprs

from conftest import Stalling, bracket_rows, loop_bracket_exact

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
    """The BCH kernel against the Dynkin words built by ``bracket``, whose
    exact branch reads ``ad`` and runs no generated kernel: an independent
    bracket."""
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


def bch_sum(alg, x, y, bracket_with, terms, out):
    """The plan walk the BCH kernel replaced: one bracket per suffix, then the terms."""
    slots = [x, y]
    for letter, tail in alg.bch_plan[0]:
        slots.append(bracket_with(alg, slots[letter], slots[tail]))
    for slot, coef in terms:
        for i, a in enumerate(slots[slot]):
            if a:
                out[i] += coef * a
    return tuple(out)


def float_table(alg):
    return tuple((i, j, tuple((k, float(c)) for k, c in entries)) for i, j, entries in alg.bracket_table)


def loop_bracket_float(alg, x, y):
    return bracket_rows(float_table(alg), [0.0] * alg.dim, x, y)


specials = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
edge_floats = st.one_of(floats, floats, floats, specials)
fractions = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-4, max_value=4, max_denominator=64))
rationals = st.one_of(fractions, st.integers(min_value=-3, max_value=3))


def hexes(v):
    return [a.hex() for a in v]


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_float_kernels_are_bit_identical_to_the_loops(name, data):
    alg = ALGEBRAS[name]
    x = data.draw(st.tuples(*[edge_floats] * alg.dim))
    y = data.draw(st.tuples(*[edge_floats] * alg.dim))
    assert hexes(bracket_float(alg, x, y)) == hexes(loop_bracket_float(alg, x, y))
    # ``bracket`` runs the float twin on float vectors
    assert hexes(bracket(alg, x, y)) == hexes(loop_bracket_float(alg, x, y))
    terms = tuple((slot, float(coef)) for slot, coef in alg.bch_plan[1])
    want = bch_sum(alg, x, y, loop_bracket_float, terms, [0.0] * alg.dim)
    assert hexes(bch(alg, x, y)) == hexes(want)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_exact_kernels_equal_the_loops(name, data):
    alg = ALGEBRAS[name]
    x = data.draw(st.tuples(*[fractions] * alg.dim))
    y = data.draw(st.tuples(*[fractions] * alg.dim))
    got = bch(alg, x, y)
    assert got == bch_sum(alg, x, y, loop_bracket_exact, alg.bch_plan[1], [Fraction(0)] * alg.dim)
    assert all(type(a) is Fraction for a in got)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exact_bracket_equals_the_table_loop(name, data):
    # ints, zeros and Fractions mixed: the sparse sum skips zeros and starts at Fraction(0)
    alg = ALGEBRAS[name]
    x = data.draw(st.tuples(*[rationals] * alg.dim))
    y = data.draw(st.tuples(*[rationals] * alg.dim))
    got = bracket(alg, x, y)
    assert got == loop_bracket_exact(alg, x, y)
    assert all(type(a) is Fraction for a in got)


def mat_vec_loop(rows, x):
    """The product that ``LinearMap`` computed before its generated kernel."""
    return tuple(sum(r[j] * x[j] for j in range(len(x))) for r in rows)


def typed_hexes(v):
    # a row without columns sums to the int 0, in the loop as in the kernel
    return [(type(a), float(a).hex()) for a in v]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rows=st.integers(0, 7), cols=st.integers(0, 7))
def test_linear_map_kernel_is_the_sum_loop(data, rows, cols):
    cols = cols if rows else 0  # no row gives a map without rows a column count
    shape = lambda entries: st.tuples(*[st.tuples(*[entries] * cols)] * rows)
    floats_m, exact_m = data.draw(shape(edge_floats)), data.draw(shape(rationals))
    x_float = data.draw(st.tuples(*[edge_floats] * cols))
    x_exact = data.draw(st.tuples(*[rationals] * (cols - 1)) if cols else st.just(()))
    x_exact += (Fraction(1, 3),) if cols else ()
    twin = tuple(tuple(map(float, r)) for r in exact_m)
    # float vectors: bit for bit, inf, nan and -0.0 included; an exact map reads its float twin
    for matrix, want in ((floats_m, floats_m), (exact_m, twin)):
        got = LinearMap(matrix)(x_float)
        assert typed_hexes(got) == typed_hexes(mat_vec_loop(want, x_float))
    got = LinearMap(exact_m)(x_exact)
    assert got == mat_vec_loop(exact_m, x_exact)
    assert all(type(a) is Fraction for a in got) if cols else got == (0,) * rows
    # the loop truncated a short vector and failed on a long one; the kernel refuses both
    for bad in (x_float + (1.0,), x_exact[:-1]) if cols else (x_float + (1.0,),):
        with pytest.raises(ValueError):
            LinearMap(floats_m)(bad)


def bracket_blocks(source):
    """The slot written by each bracket block of a BCH kernel, in order."""
    return re.findall(r"^    (s\d+)_\d+ = ", source, re.MULTILINE)


def test_step_three_float_bch_brackets_each_suffix_once():
    alg = ladder5()
    # the per-word sum brackets once per letter after the first: 14 times
    assert sum(len(w) - 1 for w, _ in dynkin_words(alg.nilpotency_step)) == 14
    steps, _ = alg.bch_plan
    assert len(steps) == len(set(steps)) == 6
    assert bracket_blocks(alg.bch_kernel.source) == [f"s{n}" for n in range(2, 8)]


def test_step_three_exact_bch_brackets_each_suffix_once(monkeypatch):
    # both modes run the one kernel once per product and call no bracket function
    alg = ladder5()
    kernel = alg.bch_kernel
    runs = []
    alg.__dict__["bch_kernel"] = kernel._replace(run=lambda *a: runs.append(a[2]) or kernel.run(*a))
    for module in (nilcarnot.algebra, nilcarnot.group):
        for name in ("bracket", "bracket_float"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, None)
    for point in (Fraction, float):
        x = tuple(map(point, (0.25, -1.5, 0.75, 0.5, 2.0, -0.5)))
        y = tuple(map(point, (1.0, 0.125, -0.625, -1.25, 0.75, 1.0)))
        bch(alg, x, y)
    assert len(runs) == 2 and runs[0] is kernel.exact and runs[1] is kernel.floats
    assert bracket_blocks(kernel.source) == [f"s{n}" for n in range(2, 2 + len(alg.bch_plan[0]))]


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
    c, _ = solve_single_generator_fixed_point(extract_compatible(dec, gamma), 1)
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


def test_sample_ball_point_reads_float_weights(fraction_to_float_calls):
    alg = ladder5()
    rng = CounterRng(7)
    sample_ball_point(rng, alg, 5.0)  # builds the float twins
    fraction_to_float_calls.clear()
    sample_ball_point(rng, alg, 5.0)
    assert fraction_to_float_calls == []


@pytest.mark.parametrize(
    "name, first, second",
    [
        ("ladder5", "-0x1.3988e1409212ep+0", "0x1.ac5eb3f7ab2f8p-1"),
        ("ladder5_x_engel4", "-0x1.3988e1409212ep+0", "0x1.ac5eb3f7ab2f8p-1"),
    ],
)
def test_expression_component_values_are_pinned(name, first, second):
    # each row is added as 0.0 + v*r, so a negative value times a zero
    # entry of the row gives 0.0, never -0.0
    dec = decompose(ALGEBRAS[name])
    comp = component_from_exprs(dec, 1, "sign(q1)*sqrt(abs(q1))")
    rest = dec.quotient.dim - 1
    for q, value in (((-1.5,) + (0.25,) * rest, first), ((0.7,) + (-2.0,) * rest, second)):
        want = ["0x0.0p+0"] * dec.base.dim
        want[2] = value
        assert [a.hex() for a in comp.eval(q)] == want


def point_hexes(pts):
    return [hexes(p) for p in pts]


def overflow_or(call):
    """What ``call`` returns, or the message of the ``OverflowError`` it raises."""
    try:
        return call()
    except OverflowError as exc:
        return f"OverflowError: {exc}"


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    counter=st.integers(0, 2**40),
    n=st.integers(1, 40),
    radius=st.floats(-6.0, 100.0).map(lambda e: 10.0**e),
)
def test_column_sampler_and_quasi_norm_equal_one_point_calls(name, seed, counter, n, radius):
    alg = ALGEBRAS[name]
    one, many = CounterRng(seed, counter), CounterRng(seed, counter)
    want = overflow_or(lambda: [sample_ball_point(one, alg, radius) for _ in range(2 * n)])
    got = overflow_or(lambda: points(sample_ball_point(many, alg, radius, 2 * n)))
    if isinstance(want, str):  # past the float range: the same first failing dilation
        assert got == want and want.startswith("OverflowError: the dilation by ")
        return
    assert point_hexes(got) == point_hexes(want)
    assert many.counter == one.counter

    x, y = want[0::2], want[1::2]
    with np.errstate(over="ignore", invalid="ignore"):
        assert hexes(quasi_norm(alg, columns(x))) == hexes(quasi_norm(alg, p) for p in x)
        dists = quasi_dist(alg, columns(x), columns(y))
    assert hexes(dists) == hexes(quasi_dist(alg, p, q) for p, q in zip(x, y))
    ratios = np.array([0.5 + k for k in range(n)]) ** 3 / radius
    want = overflow_or(lambda: [dilate(alg, float(r), p) for r, p in zip(ratios, x)])
    got = overflow_or(lambda: points(dilate(alg, ratios, columns(x)), n))
    assert got == want if isinstance(want, str) else point_hexes(got) == point_hexes(want)


def test_a_rejected_draw_keeps_the_one_point_stream():
    alg = ladder5()
    dim = alg.dim
    stall = list(range(5 * (dim + 1) + 1, 5 * (dim + 1) + dim + 1))  # the sixth point's coordinates
    one, many = Stalling(3, stall), Stalling(3, stall)
    want = [sample_ball_point(one, alg, 2.0) for _ in range(12)]
    got = points(sample_ball_point(many, alg, 2.0, 12))
    # exactly one redraw: dim counters more than 12 points read
    assert one.counter == many.counter == 12 * (dim + 1) + dim
    assert point_hexes(got) == point_hexes(want)


def test_quasi_norm_on_columns_takes_hypot_where_squares_overflow():
    alg = ladder5()
    pts = [
        (1e200, 0.0, 0.0, 0.0, 0.0, 0.0),
        (1.5e154, -1.5e154, 0.0, 0.0, 0.0, 0.0),
        (3.0, 4.0, 0.0, 0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0, 1e200, 0.0, 8.0),
        (math.inf, 1e200, 0.0, 0.0, 0.0, 0.0),
        (math.nan, 1e200, 0.0, 0.0, 0.0, 0.0),
    ]
    got = quasi_norm(alg, columns(pts))
    assert hexes(got) == hexes(quasi_norm(alg, p) for p in pts)
    assert got[0] == 1e200 and got[1] == math.hypot(1.5e154, 1.5e154) and got[2] == 5.0


def test_the_dilation_overflow_keeps_its_message_on_columns():
    alg = ladder5()
    with pytest.raises(OverflowError) as one:
        sample_ball_point(CounterRng(4), alg, 1e300)
    with pytest.raises(OverflowError) as many:
        sample_ball_point(CounterRng(4), alg, 1e300, 10)
    assert str(many.value) == str(one.value)
    assert str(one.value).startswith("the dilation by ") and str(one.value).endswith(" overflows a float coordinate")


def test_an_overflowing_square_factor_raises_the_one_point_message_on_columns():
    """On heisenberg3 the top weight is 2: the factor r * r is inf past
    about 1.34e154 where ``r ** 2`` raised, and it still raises, for the
    first failing point, with no numpy warning."""
    alg = fixture("heisenberg3")
    with pytest.raises(OverflowError) as one:
        dilate(alg, 1e200, (1.0, 1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError) as many:
            dilate(alg, np.array([2.0, 1e200, 1e250]), columns([(1.0, 1.0, 1.0)] * 3))
        assert dilate(alg, np.array([2.0, 1e150]), (1.0, 1.0, 1.0))[2].tolist() == [4.0, 1e150 * 1e150]
    assert str(many.value) == str(one.value) == "the dilation by 1e+200 overflows a float coordinate"
