import math
from fractions import Fraction

import numpy
import pytest
from hypothesis import example, given, settings, strategies as st

from nilcarnot import linalg
from nilcarnot.algebra import LinearMap, bracket
from nilcarnot.group import bch, quasi_dist
from nilcarnot.linalg import identity_matrix
from nilcarnot.maps import Translate


def fr(*nums):
    return tuple(Fraction(n) for n in nums)


def test_rref_canonical_and_pivots():
    rows, pivots = linalg.rref((fr(2, 4, 0), fr(1, 2, 1)))
    assert rows == ((Fraction(1), Fraction(2), Fraction(0)), (Fraction(0), Fraction(0), Fraction(1)))
    assert pivots == (0, 2)


def test_rref_drops_dependent_rows():
    rows, _ = linalg.rref((fr(1, 1), fr(2, 2), fr(3, 3)))
    assert len(rows) == 1


def test_reduce_and_membership():
    rows, pivots = linalg.rref((fr(1, 0, 1), fr(0, 1, 1)))
    assert linalg.in_span(rows, pivots, fr(2, 3, 5))
    assert not linalg.in_span(rows, pivots, fr(0, 0, 1))
    assert linalg.span_coords(rows, pivots, fr(2, 3, 5)) == (Fraction(2), Fraction(3))


def test_solve_exact_and_inconsistent():
    cols = [fr(1, 0), fr(1, 1)]
    assert linalg.solve_exact(cols, fr(3, 2)) == (Fraction(1), Fraction(2))
    with pytest.raises(ValueError):
        linalg.solve_exact([fr(1, 0)], fr(0, 1))


def test_kernel_basis():
    # x + y + z = 0 has a 2-dimensional kernel
    basis = linalg.kernel_basis((fr(1, 1, 1),))
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0


def test_scalar_mode_rejects_mixed():
    assert linalg.scalar_mode(fr(1, 2)) == "exact"
    assert linalg.scalar_mode((1.0, 2.0)) == "float"
    with pytest.raises(ValueError):
        linalg.scalar_mode((Fraction(1), 2.0))


def per_vector_mode(x):
    """The rule ``scalar_mode`` applied to one vector at a time, kept as the reference."""
    has_float = any(isinstance(a, float) for a in x)
    has_exact = any(isinstance(a, (int, Fraction)) for a in x)
    if has_float and has_exact:
        raise ValueError("mixed exact/float coordinates in one vector")
    return "float" if has_float else "exact"


entries = st.one_of(
    st.floats(),
    st.just(-0.0),
    st.just(float("nan")),
    st.floats().map(numpy.float64),
    st.integers(),
    st.booleans(),
    st.fractions(),
    st.integers(-5, 5).map(numpy.int64),  # neither float nor exact: does not count
)
vectors = st.lists(entries, max_size=5).map(tuple)


@given(st.lists(vectors, min_size=1, max_size=4))
def test_scalar_mode_is_the_per_vector_rule_over_all_entries(vs):
    # float and exact entries may not meet across vectors either
    try:
        want = per_vector_mode(tuple(a for v in vs for a in v))
    except ValueError:
        with pytest.raises(ValueError, match="mixed"):
            linalg.scalar_mode(*vs)
        return
    assert linalg.scalar_mode(*vs) == want


def scalar_mode_by_kinds(*vectors):
    """``scalar_mode`` before its type-set fast path, kept as the reference."""
    types = {type(a) for v in vectors for a in v}
    kinds = {issubclass(t, float) for t in types if issubclass(t, (float, int, Fraction))}
    if len(kinds) > 1:
        raise ValueError("mixed exact/float coordinates")
    return "float" if True in kinds else "exact"


mixed_entries = st.one_of(
    st.booleans(),
    st.integers(),
    st.fractions(),
    st.floats(),
    st.floats().map(numpy.float64),
    st.none(),  # None and str do not count
    st.text(max_size=2),
)


@given(st.lists(st.lists(mixed_entries, max_size=5).map(tuple), max_size=4))
def test_scalar_mode_fast_path_keeps_the_rule(vs):
    try:
        want = scalar_mode_by_kinds(*vs)
    except ValueError:
        with pytest.raises(ValueError, match="mixed"):
            linalg.scalar_mode(*vs)
        return
    assert linalg.scalar_mode(*vs) == want


def test_operations_reject_a_mix_where_it_enters(heis, dec_l5):
    mixed = (1.0, Fraction(1), 0.0)
    floats, exact = (1.0, 0.5, -2.0), (Fraction(1), Fraction(1, 2), Fraction(-2))
    m = LinearMap(identity_matrix(3))
    for call in (
        lambda: bch(heis, mixed, floats),
        lambda: bch(heis, floats, exact),
        lambda: bracket(heis, mixed, mixed),
        lambda: bracket(heis, exact, floats),
        lambda: m(mixed),
        lambda: quasi_dist(heis, mixed, floats),
        lambda: quasi_dist(heis, exact, floats),
        lambda: Translate(exact).apply(heis, mixed),
        lambda: Translate(floats).apply(heis, mixed),
        lambda: dec_l5.w.embed((Fraction(1), 0.5, 0.0, 0.0, 0.0)),
    ):
        with pytest.raises(ValueError, match="mixed"):
            call()


def test_as_exact_rejects_lossy_floats():
    assert linalg.as_exact((2.0, 3)) == (Fraction(2), Fraction(3))
    with pytest.raises(ValueError):
        linalg.as_exact((0.1,))


def test_max_gap_reads_a_non_finite_difference_as_inf():
    assert linalg.max_gap((1.0, -2.0, 0.5), (1.5, 1.0, 0.5)) == 3.0
    assert linalg.max_gap((), ()) == 0.0
    # a plain max keeps 0.0 when the nan comes second: max(0.0, nan) == 0.0
    assert linalg.max_gap((0.0, float("nan")), (0.0, 0.0)) == float("inf")
    assert linalg.max_gap((float("inf"),), (float("inf"),)) == float("inf")
    assert linalg.max_gap((Fraction(1, 2),), (Fraction(0),)) == Fraction(1, 2)


def fraction_chain(matrix):
    """The float twins of matrix**0, matrix**1, ... by the exact ``mat_mul``
    chain, each flat in row order: the reference of ``float_powers``."""
    power = identity_matrix(len(matrix))
    while True:
        yield tuple(float(a) for row in power for a in row)
        power = linalg.mat_mul(matrix, power)


def power_hexes(powers, count):
    """The ``float.hex`` of the first ``count`` powers, up to an OverflowError,
    and that error's message (None without one)."""
    out = []
    try:
        for _, power in zip(range(count), powers):
            out.append([a.hex() for a in power])
    except OverflowError as err:
        return out, str(err)
    return out, None


square_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.fractions(-9, 9, max_denominator=12), min_size=n, max_size=n).map(tuple), min_size=n, max_size=n
    ).map(tuple)
)


@settings(deadline=None, max_examples=80)
@given(square_matrices, st.integers(1, 14))
@example(((Fraction(2), Fraction(-3)), (Fraction(0), Fraction(1))), 9)  # d = 1
@example(((Fraction(1, 2), Fraction(-5, 6)), (Fraction(3, 4), Fraction(-1, 3))), 14)
def test_float_powers_have_the_bits_of_the_fraction_chain(matrix, count):
    assert power_hexes(linalg.float_powers(matrix), count) == power_hexes(fraction_chain(matrix), count)


@pytest.mark.parametrize(
    "matrix",
    [
        ((Fraction(1, 1000), Fraction(-1, 7)), (Fraction(0), Fraction(1, 3))),  # (1/1000)**k underflows
        ((Fraction(1000), Fraction(1, 3)), (Fraction(0), Fraction(-7, 2))),  # 1000**k overflows
    ],
)
def test_float_powers_underflow_and_overflow_as_float_does(matrix):
    got = power_hexes(linalg.float_powers(matrix), 120)
    assert got == power_hexes(fraction_chain(matrix), 120)
    hexes, error = got
    if matrix[0][0] < 1:
        assert error is None and hexes[-1][0] == "0x0.0p+0" and hexes[-1][1] != "0x0.0p+0"
    else:
        assert error is not None and 100 < len(hexes) < 120


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=8))
@example([-0.31253690622659214, 0.0, 3.0])  # x ** 2 reads 0.09767931775368965, one ULP above
def test_power_rounds_squares_and_square_roots_correctly(xs):
    """Squares are the exact square rounded once, square roots ``math.sqrt``
    and the exponent 1 the value itself, on one point and on columns; every
    other exponent keeps Python's ``**``."""
    col = numpy.array(xs)
    squares = [float(Fraction(x) ** 2) for x in xs]
    assert [linalg.power(x, 2.0) for x in xs] == squares
    assert linalg.power(col, 2.0).tolist() == squares
    norms = [abs(x) for x in xs]
    roots = [math.sqrt(x) for x in norms]
    assert [linalg.power(x, 0.5) for x in norms] == roots
    assert linalg.power(abs(col), 0.5).tolist() == roots
    assert [linalg.power(x, 1.0) for x in xs] == xs
    assert linalg.power(col, 1.0).tolist() == xs
    cubic = [x ** (1 / 3) for x in norms]
    assert [linalg.power(x, 1 / 3) for x in norms] == cubic
    assert linalg.power(abs(col), 1 / 3).tolist() == cubic
