import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilcarnot.algebra import GradedAlgebra, LinearMap, bracket
from nilcarnot.catalog import engel4, engel_heis7, heisenberg3, ladder5
from nilcarnot.group import (
    BERNOULLI_COEFFS,
    DEFAULT_DEGREE_CEILING,
    BchDegreeError,
    bch,
    conjugate_adjoint,
    dilate,
    dynkin_words,
    is_graded_automorphism,
    quasi_dist,
    quasi_norm,
)
from nilcarnot.linalg import vadd, vneg, vscale, zero_vector
from nilcarnot.rng import CounterRng, sample_coords

rationals = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4)


def coords(alg):
    return st.tuples(*([rationals] * alg.dim))


def bch_low_degree_oracle(alg, x, y):
    """Classical BCH coefficients through degree 4, hand-coded.

    Independent of the Dynkin enumeration; enough for every catalog
    algebra (step <= 3 here, the degree-4 term included for safety).
    """
    b = lambda u, v: bracket(alg, u, v)
    out = vadd(x, y)
    xy = b(x, y)
    out = vadd(out, vscale(Fraction(1, 2), xy))
    out = vadd(out, vscale(Fraction(1, 12), b(x, xy)))
    out = vadd(out, vscale(Fraction(-1, 12), b(y, xy)))
    out = vadd(out, vscale(Fraction(-1, 24), b(y, b(x, xy))))
    return out


def test_bch_heisenberg_example(heis):
    x, y = heis.basis_vector(0), heis.basis_vector(1)
    assert bch(heis, x, y) == (Fraction(1), Fraction(1), Fraction(1, 2))


def test_bch_engel_example(engel):
    out = bch(engel, engel.basis_vector(0), engel.basis_vector(1))
    assert out == (Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 12))


def test_bch_inverse_law(heis):
    x = (Fraction(3), Fraction(-2), Fraction(5))
    assert bch(heis, x, vneg(x)) == zero_vector(3)


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_bch_matches_low_degree_oracle(data):
    for alg in (heisenberg3(), engel4(), engel_heis7(), ladder5()):
        x = data.draw(coords(alg))
        y = data.draw(coords(alg))
        assert bch(alg, x, y) == bch_low_degree_oracle(alg, x, y)


@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_bch_associative_exactly(data):
    for alg in (engel4(), ladder5()):
        x = data.draw(coords(alg))
        y = data.draw(coords(alg))
        z = data.draw(coords(alg))
        assert bch(alg, bch(alg, x, y), z) == bch(alg, x, bch(alg, y, z))


def test_bch_rejects_mixed_modes(heis):
    with pytest.raises(ValueError):
        bch(heis, heis.basis_vector(0), (0.0, 1.0, 0.0))
    # a vector mixing floats and rationals is refused in either argument
    mixed = (1.0, Fraction(1), 0.0)
    with pytest.raises(ValueError, match="mixed"):
        bch(heis, mixed, (1.0,) * 3)
    with pytest.raises(ValueError, match="mixed"):
        bch(heis, (1.0,) * 3, mixed)


@pytest.fixture(scope="module")
def filiform():
    # [e0, e_i] = e_(i+1), nilpotent of step 7, one above the ceiling
    alg = GradedAlgebra(
        8,
        tuple(f"e{i}" for i in range(8)),
        tuple(Fraction(max(i, 1)) for i in range(8)),
        tuple((0, i, i + 1, Fraction(1)) for i in range(1, 7)),
    )
    assert alg.nilpotency_step == DEFAULT_DEGREE_CEILING + 1
    return alg


def test_bch_degree_ceiling(filiform):
    with pytest.raises(BchDegreeError):
        bch(filiform, filiform.basis_vector(0), filiform.basis_vector(1))
    # refused before the step-7 Dynkin words are expanded into a plan and kernel
    assert "bch_plan" not in vars(filiform) and "bch_kernel" not in vars(filiform)


def test_dynkin_words_low_degree_table():
    table = dict(dynkin_words(2))
    assert table[(0,)] == 1 and table[(1,)] == 1
    assert table[(0, 1)] == Fraction(1, 4)
    assert table[(1, 0)] == Fraction(-1, 4)
    assert (0, 0) not in table and (1, 1) not in table


def test_conjugate_adjoint_examples(heis):
    x, y = heis.basis_vector(0), heis.basis_vector(1)
    assert conjugate_adjoint(heis, y, x) == (Fraction(1), Fraction(0), Fraction(-1))
    assert conjugate_adjoint(heis, zero_vector(3), x) == x
    z = heis.basis_vector(2)
    assert conjugate_adjoint(heis, y, z) == z


def test_bernoulli_coeffs_are_the_taylor_coefficients():
    # z / (1 - exp(-z)) times (1 - exp(-z)) / z = sum (-1)^m z^m / (m+1)! is 1
    n = DEFAULT_DEGREE_CEILING + 1
    assert len(BERNOULLI_COEFFS) == n
    inv = [Fraction((-1) ** m, math.factorial(m + 1)) for m in range(n)]
    product = [sum(BERNOULLI_COEFFS[j] * inv[k - j] for j in range(k + 1)) for k in range(n)]
    assert product == [1] + [0] * (n - 1)


def test_conjugate_adjoint_refuses_a_step_above_the_ceiling(filiform):
    x, y = filiform.basis_vector(0), filiform.basis_vector(1)
    with pytest.raises(BchDegreeError):
        conjugate_adjoint(filiform, x, y)


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_conjugate_adjoint_equals_bch_oracle(data):
    alg = engel_heis7()
    x = data.draw(coords(alg))
    y = data.draw(coords(alg))
    assert conjugate_adjoint(alg, y, x) == bch(alg, bch(alg, y, x), vneg(y))


def test_dilate_examples(heis):
    v = vadd(heis.basis_vector(0), heis.basis_vector(2))
    assert dilate(heis, 2, v) == (Fraction(2), Fraction(0), Fraction(4))
    assert dilate(heis, 1, v) == v
    assert dilate(heis, Fraction(1, 2), dilate(heis, Fraction(4), v)) == dilate(heis, 2, v)


def test_dilate_is_automorphism_float(l5):
    rng = CounterRng(5)
    for _ in range(20):
        x = sample_coords(rng, l5.dim, 2.0)
        y = sample_coords(rng, l5.dim, 2.0)
        lhs = dilate(l5, 1.7, bch(l5, x, y))
        rhs = bch(l5, dilate(l5, 1.7, x), dilate(l5, 1.7, y))
        assert max(abs(a - b) for a, b in zip(lhs, rhs)) < 1e-12


def test_quasi_norm_examples(heis):
    assert quasi_norm(heis, (2.0, 0.0, 9.0)) == pytest.approx(5.0, abs=1e-14)
    assert quasi_dist(heis, (1.0, 2.0, 3.0), (1.0, 2.0, 3.0)) == 0.0


def test_quasi_dist_definition_and_inverse(heis):
    x = (0.3, -0.4, 1.2)
    y = (1.0, 0.5, -0.7)
    assert quasi_dist(heis, x, y) == pytest.approx(
        quasi_norm(heis, bch(heis, vneg(x), y)), abs=1e-15
    )
    assert quasi_dist(heis, (0.0,) * 3, vneg(x)) == pytest.approx(
        quasi_norm(heis, vneg(x)), abs=1e-15
    )


def test_quasi_dist_homogeneity(l5):
    rng = CounterRng(11)
    for r in (0.1, 2.0, 7.0):
        for _ in range(30):
            x = sample_coords(rng, l5.dim, 3.0)
            y = sample_coords(rng, l5.dim, 3.0)
            lhs = quasi_dist(l5, dilate(l5, r, x), dilate(l5, r, y))
            rhs = r * quasi_dist(l5, x, y)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


def test_graded_automorphism_verdicts(heis):
    m = LinearMap(((Fraction(2), 0, 0), (0, Fraction(3), 0), (0, 0, Fraction(6))))
    v = is_graded_automorphism(heis, m)
    assert v.homomorphism and v.layer_preserving

    ident = LinearMap(tuple(tuple(Fraction(1 if i == j else 0) for j in range(3)) for i in range(3)))
    v = is_graded_automorphism(heis, ident)
    assert v.graded_automorphism

    shearish = LinearMap(((Fraction(1), 0, 0), (0, Fraction(1), 0), (Fraction(1), 0, Fraction(1))))
    # x -> x + z, others fixed: homomorphism but not layer preserving
    v = is_graded_automorphism(heis, shearish)
    assert v.homomorphism and not v.layer_preserving


def test_fresh_equal_algebra_pays_no_equality_checks(monkeypatch):
    """Derived tables live on the instance: a fresh, equal algebra never
    compares itself against an earlier one."""
    from nilcarnot.algebra import GradedAlgebra

    x, y = tuple(0.1 * (i + 1) for i in range(6)), tuple(-0.3 * i for i in range(6))
    warm = ladder5()
    bch(warm, x, y)
    quasi_norm(warm, x)
    calls = []
    original = GradedAlgebra.__eq__
    monkeypatch.setattr(GradedAlgebra, "__eq__", lambda a, b: calls.append(1) or original(a, b))
    fresh = ladder5()
    assert bch(fresh, x, y) == bch(warm, x, y)
    assert quasi_norm(fresh, x) == quasi_norm(warm, x)
    assert calls == []
