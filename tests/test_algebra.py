from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import nilcarnot.algebra

from nilcarnot.algebra import (
    GradedAlgebra,
    _jacobi_defects,
    bracket,
    center,
    full_space,
    is_ideal,
    layer_project,
    quotient,
    subalgebra_generated,
    subspace,
    validate_algebra,
    weight_slice,
)
from nilcarnot.catalog import engel4, engel_heis7, ladder5
from nilcarnot.linalg import is_zero, vadd

from conftest import loop_bracket_exact

rationals = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4
)


def coords(alg):
    return st.tuples(*([rationals] * alg.dim))


def brute_force_jacobi(alg):
    """Independent oracle: each basis triple i < j < k through the table
    loop (the Jacobi sum of an antisymmetric bracket is alternating)."""
    failures = []
    loop = loop_bracket_exact
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            for k in range(j + 1, alg.dim):
                ei, ej, ek = (alg.basis_vector(t) for t in (i, j, k))
                total = vadd(
                    vadd(
                        loop(alg, ei, loop(alg, ej, ek)),
                        loop(alg, ej, loop(alg, ek, ei)),
                    ),
                    loop(alg, ek, loop(alg, ei, ej)),
                )
                if not is_zero(total):
                    failures.append((i, j, k))
    return failures


def test_validate_heisenberg(heis):
    report = validate_algebra(heis)
    assert report.ok
    assert report.step == 2


def test_validate_engel_with_bruteforce_jacobi(engel):
    report = validate_algebra(engel)
    assert report.ok
    assert report.step == 3
    assert brute_force_jacobi(engel) == []


@st.composite
def structure_constants(draw):
    """A random table, Jacobi-breaking or not: dims 3-7, sparse entries, zeros included."""
    dim = draw(st.integers(min_value=3, max_value=7))
    weights = draw(st.lists(st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2)]), min_size=dim, max_size=dim))
    slots = [(i, j, k) for i in range(dim) for j in range(i + 1, dim) for k in range(dim)]
    chosen = draw(st.lists(st.sampled_from(slots), unique=True, max_size=2 * dim))
    coefs = draw(st.lists(rationals, min_size=len(chosen), max_size=len(chosen)))
    entries = tuple(sorted((i, j, k, c) for (i, j, k), c in zip(chosen, coefs)))
    return GradedAlgebra(dim, tuple(f"e{i}" for i in range(dim)), tuple(weights), entries)


@settings(deadline=None, max_examples=150)
@given(alg=structure_constants())
def test_jacobi_defects_equal_the_table_loop(alg):
    want = brute_force_jacobi(alg)
    assert _jacobi_defects(alg) == want
    detail = "" if not want else f"failing triples: {want}"
    assert validate_algebra(alg).check("jacobi") == (not want, detail)


# J(0,1,2) = e0/4 - e1, J(0,2,3) = e3, J(1,2,3) = e3/4, J(0,1,3) = 0
BROKEN = GradedAlgebra(
    dim=4,
    labels=("a", "b", "c", "d"),
    weights=(Fraction(1),) * 4,
    brackets=((0, 2, 3, Fraction(2)), (0, 3, 0, Fraction(1, 2)), (1, 2, 3, Fraction(1, 2)), (1, 3, 1, Fraction(1, 2))),
)


def test_jacobi_reads_only_the_structure_constants(monkeypatch):
    def refuse(*args):
        raise AssertionError("the Jacobi check ran a bracket")

    monkeypatch.setattr(nilcarnot.algebra, "bracket", refuse)
    monkeypatch.setattr(GradedAlgebra, "bracket_kernel", property(refuse))
    assert _jacobi_defects(engel4()) == []
    assert _jacobi_defects(BROKEN) == [(0, 1, 2), (0, 2, 3), (1, 2, 3)]


def test_ad_cannot_be_changed_through_the_instance():
    alg = engel4()
    assert alg.ad[1][0] == tuple((k, -c) for k, c in alg.ad[0][1])
    with pytest.raises(FrozenInstanceError):
        alg.ad = ()
    with pytest.raises(TypeError):
        alg.ad[0] = {}
    with pytest.raises(TypeError):
        alg.ad[0][1] = ((3, Fraction(5)),)
    assert alg.ad == engel4().ad


def test_validate_bad_grading_entry():
    # Engel plus [e1, e2] = e2: weights 1 + 2 != 2
    bad = GradedAlgebra(
        dim=4,
        labels=("e0", "e1", "e2", "e3"),
        weights=(Fraction(1), Fraction(1), Fraction(2), Fraction(3)),
        brackets=((0, 1, 2, Fraction(1)), (0, 2, 3, Fraction(1)), (1, 2, 2, Fraction(1))),
    )
    report = validate_algebra(bad)
    ok, _ = report.check("grading")
    assert not ok


def test_validation_warns_when_smallest_weight_not_one():
    alg = GradedAlgebra(
        dim=2,
        labels=("a", "b"),
        weights=(Fraction(2), Fraction(4)),
        brackets=((0, 1, 1, Fraction(0)),),
    )
    report = validate_algebra(alg)
    assert report.ok
    assert report.warnings


def test_constructor_shape_errors():
    with pytest.raises(ValueError):
        GradedAlgebra(2, ("a", "b"), (Fraction(1), Fraction(-1)), ())
    with pytest.raises(ValueError):
        GradedAlgebra(2, ("a", "b"), (Fraction(1), Fraction(2)), ((0, 0, 1, Fraction(1)),))
    with pytest.raises(ValueError):
        GradedAlgebra(
            2,
            ("a", "b"),
            (Fraction(1), Fraction(2)),
            ((0, 1, 1, Fraction(1)), (0, 1, 1, Fraction(2))),
        )


def test_bracket_examples(heis, engel):
    x, y = heis.basis_vector(0), heis.basis_vector(1)
    assert bracket(heis, x, y) == heis.basis_vector(2)
    e0 = engel.basis_vector(0)
    target = (Fraction(0), Fraction(0), Fraction(2), Fraction(1))
    combo = (Fraction(0), Fraction(2), Fraction(1), Fraction(0))
    assert bracket(engel, e0, combo) == target


def test_bracket_dimension_mismatch(heis):
    with pytest.raises(ValueError):
        bracket(heis, (Fraction(1),), heis.basis_vector(0))


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_bracket_antisymmetry_and_jacobi_random(data):
    alg = ladder5()
    x = data.draw(coords(alg))
    y = data.draw(coords(alg))
    z = data.draw(coords(alg))
    assert bracket(alg, x, y) == tuple(-a for a in bracket(alg, y, x))
    assert is_zero(bracket(alg, x, x))
    total = vadd(
        vadd(
            bracket(alg, x, bracket(alg, y, z)),
            bracket(alg, y, bracket(alg, z, x)),
        ),
        bracket(alg, z, bracket(alg, x, y)),
    )
    assert is_zero(total)


def test_grading_of_single_layer_brackets(eh7):
    for i in range(eh7.dim):
        for j in range(eh7.dim):
            v = bracket(eh7, eh7.basis_vector(i), eh7.basis_vector(j))
            if is_zero(v):
                continue
            target = eh7.weights[i] + eh7.weights[j]
            assert all(c == 0 or eh7.weights[k] == target for k, c in enumerate(v))


def test_subalgebra_generated(heis, engel):
    assert subalgebra_generated(heis, weight_slice(heis, Fraction(1))).rank == 3
    assert subalgebra_generated(engel, weight_slice(engel, Fraction(1))).rank == 4
    whole = full_space(engel)
    assert subalgebra_generated(engel, whole).rows == whole.rows


def test_subalgebra_idempotent_and_monotone(l5):
    seed = subspace(l5, [l5.basis_vector(0), l5.basis_vector(1)])
    once = subalgebra_generated(l5, seed)
    twice = subalgebra_generated(l5, once)
    assert once.rows == twice.rows
    bigger = subspace(l5, list(seed.rows) + [l5.basis_vector(2)])
    assert set(once.rows) <= set(subalgebra_generated(l5, bigger).rows) or subalgebra_generated(
        l5, bigger
    ).rank >= once.rank


def test_center_heisenberg(heis):
    z, slices = center(heis, full_space(heis))
    assert z.rows == (heis.basis_vector(2),)
    assert set(slices) == {Fraction(2)}


def test_center_ladder5_ideal(l5):
    w = subalgebra_generated(l5, weight_slice(l5, Fraction(1)))
    z, slices = center(l5, w)
    assert z.rank == 2
    assert z.contains(l5.basis_vector(2))  # z1
    assert z.contains(l5.basis_vector(5))  # z3
    assert {int(k) for k in slices} == {1, 3}
    # center brackets to zero against every element of w, exactly
    for row in z.rows:
        for other in w.rows:
            assert is_zero(bracket(l5, row, other))


def test_center_requires_subalgebra(l5):
    s = subspace(l5, [l5.basis_vector(0)])  # span(a) alone is closed, use a non-closed one
    bad = subspace(l5, [l5.basis_vector(0), l5.basis_vector(1)])
    with pytest.raises(ValueError):
        center(l5, bad)


def test_is_ideal(heis, l5):
    assert is_ideal(heis, subspace(heis, [heis.basis_vector(2)]))
    assert not is_ideal(l5, subspace(l5, [l5.basis_vector(0)]))


def test_quotient_engel_heis7_is_heisenberg(eh7):
    w = subalgebra_generated(eh7, weight_slice(eh7, Fraction(1)))
    q, proj = quotient(eh7, w)
    assert q.dim == 3
    assert q.weights == (Fraction(2), Fraction(2), Fraction(4))
    assert validate_algebra(q).ok
    xb, yb = q.basis_vector(0), q.basis_vector(1)
    assert bracket(q, xb, yb) == q.basis_vector(2)


def test_quotient_by_zero_space(heis):
    zero = subspace(heis, [])
    q, proj = quotient(heis, zero)
    assert q.dim == heis.dim
    assert q.weights == heis.weights
    assert q.brackets == heis.brackets


def test_quotient_ladder5(l5):
    w = subalgebra_generated(l5, weight_slice(l5, Fraction(1)))
    q, _ = quotient(l5, w)
    assert q.dim == 1
    assert q.weights == (Fraction(2),)
    assert q.brackets == ()


def test_quotient_requires_graded_ideal(l5):
    diag = subspace(l5, [vadd(l5.basis_vector(2), l5.basis_vector(4))])  # z1 + h mixes weights
    with pytest.raises(ValueError):
        quotient(l5, diag)


@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_quotient_projection_is_homomorphism(data):
    alg = engel_heis7()
    w = subalgebra_generated(alg, weight_slice(alg, Fraction(1)))
    q, proj = quotient(alg, w)
    x = data.draw(coords(alg))
    y = data.draw(coords(alg))
    assert proj(bracket(alg, x, y)) == bracket(q, proj(x), proj(y))


def test_layer_project(heis, engel):
    v = vadd(heis.basis_vector(0), heis.basis_vector(2))
    assert layer_project(heis, v, Fraction(2)) == heis.basis_vector(2)
    assert layer_project(heis, v, Fraction(1)) == heis.basis_vector(0)
    full = tuple(Fraction(1) for _ in range(engel.dim))
    assert layer_project(engel, full, Fraction(3)) == engel.basis_vector(3)
    with pytest.raises(ValueError):
        layer_project(heis, v, Fraction(7))
