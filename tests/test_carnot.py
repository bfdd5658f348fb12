import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nilcarnot import linalg
from nilcarnot.algebra import GradedAlgebra, bracket, subspace, validate_algebra
from nilcarnot.carnot import (
    W_TOL,
    DecompositionError,
    bracket_expressions,
    cc_upper_bound,
    decompose,
    horizontal_connect,
    integrate_bracket_form,
    integrate_bracket_forms,
    is_carnot,
    p_alpha_data,
    HorizontalPath,
)
from nilcarnot.catalog import direct_product, engel4, free_nilpotent_step2, heisenberg3, ladder5
from nilcarnot.group import bch, dilate, quasi_norm
from nilcarnot.linalg import is_zero, vneg
from nilcarnot.rng import CounterRng, sample_coords
from nilcarnot.shear import component_from_exprs, zero_component


def test_decompose_engel_heis7(dec_eh7):
    assert dec_eh7.w.rank == 4
    assert dec_eh7.alpha == Fraction(2)
    assert dec_eh7.quotient.dim == 3
    assert dec_eh7.quotient.weights == (Fraction(2), Fraction(2), Fraction(4))
    assert validate_algebra(dec_eh7.quotient).ok
    assert {j: s.rank for j, s in dec_eh7.z_layers.items()} == {3: 1}


def test_decompose_ladder5(dec_l5):
    assert dec_l5.w.rank == 5
    assert dec_l5.quotient.dim == 1
    assert dec_l5.alpha == Fraction(2)
    assert {j: s.rank for j, s in dec_l5.h_layers.items()} == {1: 1}


def test_decompose_carnot_type_error():
    for alg in (heisenberg3(), engel4(), free_nilpotent_step2(3)):
        with pytest.raises(DecompositionError) as err:
            decompose(alg)
        assert err.value.kind == "carnot_type"


def test_decompose_invariants(dec_eh7, dec_l5):
    for dec in (dec_eh7, dec_l5):
        alg = dec.base
        # n = w + H as coordinates, projection restricted to H bijective
        assert dec.w.rank + dec.transversal.rank == alg.dim
        for i, row in enumerate(dec.transversal.rows):
            img = dec.project(row)
            assert sum(1 for a in img if a != 0) == 1
        # quotient weights all exceed lambda1
        assert min(dec.quotient.weights) > dec.lambda1
        # W_{j+1} = [W_1, W_j] exactly
        wa = dec.w_algebra
        layers = {}
        for i in range(wa.dim):
            layers.setdefault(int(wa.weights[i]), []).append(wa.basis_vector(i))
        top = max(layers)
        for j in range(1, top):
            gen = [
                bracket(wa, u, v)
                for u in layers[1]
                for v in layers[j]
            ]
            got = subspace(wa, gen)
            want = subspace(wa, layers[j + 1])
            assert got.rows == want.rows


def test_is_carnot():
    assert is_carnot(heisenberg3())
    assert is_carnot(engel4())
    assert is_carnot(free_nilpotent_step2(4))


def test_bracket_expressions():
    heis = heisenberg3()
    assert bracket_expressions(heis) == {2: ((Fraction(1), (0, 1)),)}
    engel = engel4()
    table = bracket_expressions(engel)
    assert table[2] == ((Fraction(1), (0, 1)),)
    assert table[3] == ((Fraction(1), (0, 0, 1)),)
    free = free_nilpotent_step2(3)
    ftable = bracket_expressions(free)
    assert all(len(expr) == 1 and len(expr[0][1]) == 2 for expr in ftable.values())


def test_horizontal_connect_heisenberg_rectangle():
    heis = heisenberg3()
    path = horizontal_connect(heis, (0.0, 0.0, 1.0))
    assert path.segment_count == 4
    assert path.length == pytest.approx(4.0)
    assert path.endpoint == (0.0, 0.0, 1.0)
    directions = [d for d, _ in path.segments]
    assert directions == [
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (-1.0, 0.0, 0.0),
        (0.0, -1.0, 0.0),
    ]


def test_horizontal_connect_straight_target():
    heis = heisenberg3()
    path = horizontal_connect(heis, (3.0, 0.0, 0.0))
    assert path.segment_count == 1
    assert path.length == pytest.approx(3.0)


def test_horizontal_connect_engel_top_layer():
    engel = engel4()
    target = (0.0, 0.0, 0.0, 1.0)
    path = horizontal_connect(engel, target)
    residual = bch(engel, vneg(path.endpoint), target)
    assert max(abs(a) for a in residual) <= 1e-9


def test_horizontal_connect_random_targets_and_count():
    counts = {}
    for alg, name in ((heisenberg3(), "heis"), (engel4(), "engel"), (free_nilpotent_step2(3), "free")):
        rng = CounterRng(1)
        worst = 0
        for _ in range(30):
            g = sample_coords(rng, alg.dim, 3.0)
            path = horizontal_connect(alg, g)
            residual = bch(alg, vneg(path.endpoint), g)
            assert max(abs(a) for a in residual) <= 1e-9 * max(1.0, quasi_norm(alg, g))
            worst = max(worst, path.segment_count)
        counts[name] = worst
    assert counts["heis"] <= 5
    assert counts["engel"] <= 15
    assert counts["free"] <= 13


def test_cc_upper_bound_examples_and_scaling():
    heis = heisenberg3()
    assert cc_upper_bound(heis, (3.0, 0.0, 0.0)) == pytest.approx(3.0)
    assert cc_upper_bound(heis, (0.0, 0.0, 1.0)) == pytest.approx(4.0)
    rng = CounterRng(2)
    for _ in range(10):
        g = sample_coords(rng, 3, 2.0)
        base = cc_upper_bound(heis, g)
        scaled = cc_upper_bound(heis, dilate(heis, 3.0, g))
        assert scaled <= 3.0 * base * (1 + 1e-9)


def test_integrate_bracket_form_straight(dec_l5):
    sigma = component_from_exprs(dec_l5, 1, "sign(q1)*sqrt(abs(q1))")
    path = horizontal_connect(dec_l5.quotient_carnot, (4.0,))
    val = integrate_bracket_form(dec_l5, sigma, path)
    assert val[5] == pytest.approx(-16.0 / 3.0, abs=1e-9)
    assert all(abs(v) < 1e-15 for i, v in enumerate(val) if i != 5)


def test_integrate_bracket_form_zero_component(dec_l5):
    path = horizontal_connect(dec_l5.quotient_carnot, (2.5,))
    val = integrate_bracket_form(dec_l5, zero_component(dec_l5, 1), path)
    assert all(v == 0.0 for v in val)


def test_integrate_bracket_form_on_its_quotient_pays_no_equality_check(dec_l5, monkeypatch):
    from nilcarnot.algebra import GradedAlgebra

    sigma = component_from_exprs(dec_l5, 1, "sign(q1)*sqrt(abs(q1))")
    path = horizontal_connect(dec_l5.quotient_carnot, (4.0,))
    calls = []
    original = GradedAlgebra.__eq__
    monkeypatch.setattr(GradedAlgebra, "__eq__", lambda a, b: calls.append(1) or original(a, b))
    integrate_bracket_form(dec_l5, sigma, path)
    assert calls == []


def test_integrate_bracket_form_backtracking_loop(dec_l5):
    qc = dec_l5.quotient_carnot
    direction = (1.0,)
    segments = ((direction, 2.0), (vneg(direction), 2.0))
    loop = HorizontalPath(qc, (0.0,), segments)
    sigma = component_from_exprs(dec_l5, 1, "sign(q1)*sqrt(abs(q1))")
    val = integrate_bracket_form(dec_l5, sigma, loop)
    assert max(abs(v) for v in val) <= 1e-12


def test_integrate_bracket_form_rejects_layer_escape(dec_l5):
    # a "layer 1" component whose values sit in layer 3
    bad = component_from_exprs(dec_l5, 3, "q1")
    hacked = type(bad)(1, bad.eval, None, None)
    path = horizontal_connect(dec_l5.quotient_carnot, (1.0,))
    with pytest.raises(ValueError):
        integrate_bracket_form(dec_l5, hacked, path)


def test_integrate_bracket_form_checks_membership_when_the_target_layer_is_empty(dec_l5):
    # Z_3 pairs into weight 3 + alpha, which ladder5 does not have
    assert dec_l5.pairing_targets[3] == ()
    path = horizontal_connect(dec_l5.quotient_carnot, (1.0,))
    inside = component_from_exprs(dec_l5, 3, "q1")
    assert integrate_bracket_form(dec_l5, inside, path) == (0.0,) * dec_l5.base.dim
    escaping = dataclasses.replace(inside, eval=component_from_exprs(dec_l5, 1, "q1").eval)
    with pytest.raises(ValueError, match="escapes"):
        integrate_bracket_form(dec_l5, escaping, path)


def test_integrate_bracket_form_evaluates_the_component_once_per_node(dec_l5, monkeypatch):
    import nilcarnot.carnot

    quadrature = nilcarnot.carnot.integrate_vector
    counts = {"integrand": 0, "component": 0}

    def counted_integrate(f, a, b, *args, **kwargs):
        def counted(t):
            counts["integrand"] += 1
            return f(t)

        return quadrature(counted, a, b, *args, **kwargs)

    def counted_eval(q):
        counts["component"] += 1
        return sigma.eval(q)

    monkeypatch.setattr(nilcarnot.carnot, "integrate_vector", counted_integrate)
    sigma = component_from_exprs(dec_l5, 1, "sign(q1)*sqrt(abs(q1))")
    path = horizontal_connect(dec_l5.quotient_carnot, (2.5,))
    assert path.segment_count == 1
    integrate_bracket_form(dec_l5, dataclasses.replace(sigma, eval=counted_eval), path)
    assert counts["integrand"] > 3
    assert counts["component"] == counts["integrand"]


def test_integrate_bracket_form_checks_the_segment_midpoint(dec_l5):
    inside = component_from_exprs(dec_l5, 1, "q1")
    outside = component_from_exprs(dec_l5, 3, "1")
    # leaves Z_1 only at q1 = 1, the midpoint of the segment from 0 to 2
    escaping = type(inside)(1, lambda q: outside.eval(q) if q == (1.0,) else inside.eval(q))
    path = HorizontalPath(dec_l5.quotient_carnot, (0.0,), (((1.0,), 2.0),))
    with pytest.raises(ValueError, match="escapes"):
        integrate_bracket_form(dec_l5, escaping, path)


def test_integrate_bracket_form_rejects_a_non_finite_value(dec_l5):
    """A nan passes every comparison of the residual check, so finiteness is
    checked first, on the same three nodes."""
    path = HorizontalPath(dec_l5.quotient_carnot, (0.0,), (((1.0,), 2.0),))
    nan = component_from_exprs(dec_l5, 1, "q1*(1e308*1e308 - 1e308*1e308)")
    with pytest.raises(ValueError, match=r"not finite at \(0\.0,\)"):
        integrate_bracket_form(dec_l5, nan, path)
    inside = component_from_exprs(dec_l5, 1, "q1")
    at_midpoint = type(inside)(1, lambda q: (math.inf,) * 6 if q == (1.0,) else inside.eval(q))
    with pytest.raises(ValueError, match=r"not finite at \(1\.0,\)"):
        integrate_bracket_form(dec_l5, at_midpoint, path)


def test_integrate_bracket_forms_checks_the_first_three_nodes(dec_l5):
    inside = component_from_exprs(dec_l5, 1, "q1")
    outside = component_from_exprs(dec_l5, 3, "1")
    path = HorizontalPath(dec_l5.quotient_carnot, (0.0,), (((1.0,), 2.0),))
    escaping = type(inside)(1, lambda q: outside.eval(q) if q == (1.0,) else inside.eval(q))
    with pytest.raises(ValueError, match=r"escapes the center layer Z_1 at \(1\.0,\)"):
        integrate_bracket_forms(dec_l5, escaping, [(path, 1e-10)])
    at_end = type(inside)(1, lambda q: (math.nan,) * 6 if q == (2.0,) else inside.eval(q))
    with pytest.raises(ValueError, match=r"not finite at \(2\.0,\)"):
        integrate_bracket_forms(dec_l5, at_end, [(path, 1e-10)])
    # a quarter point is no checked node
    at_quarter = type(inside)(1, lambda q: outside.eval(q) if q == (0.5,) else inside.eval(q))
    integrate_bracket_forms(dec_l5, at_quarter, [(path, 1e-10)])


def test_integrate_bracket_forms_equals_the_scalar_form():
    """Every path of the batch gets integrate_bracket_form's bits, zero-length
    segments and a segmentless path included."""
    import nilcarnot.carnot

    dec = decompose(direct_product(ladder5(), engel4(), 2))
    qc = dec.quotient_carnot
    paths = [
        horizontal_connect(qc, (1.2, -0.5, 0.8, 0.6, -0.3)),
        horizontal_connect(qc, (-0.7, 0.4, 0.0, -1.1, 0.2)),
        HorizontalPath(qc, (0.5, 0.1, -0.2, 0.0, 0.3), (((1.0, 0.0, 0.0, 0.0, 0.0), 0.0), ((0.0, 0.6, 0.8, 0.0, 0.0), 1.5))),
        HorizontalPath(qc, (0.0,) * 5, ()),
    ]
    for text in ("sign(q1)*sqrt(abs(q1))", "q1*q2 + sin(q3)"):
        component = component_from_exprs(dec, 1, text)
        batched = integrate_bracket_forms(dec, component, [(path, nilcarnot.carnot.DEFAULT_TOL) for path in paths])
        scalar = [integrate_bracket_form(dec, component, path) for path in paths]
        assert [[a.hex() for a in v] for v in batched] == [[a.hex() for a in v] for v in scalar]


def test_p_alpha_ladder5(dec_l5):
    qalg, keep, proj = p_alpha_data(dec_l5)
    assert qalg.dim == 5  # z3 killed, weight 3 > alpha = 2
    v1 = dec_l5.base.basis_vector(0)
    img = proj(v1)
    assert sum(1 for a in img if a != 0) == 1


def test_p_alpha_is_homomorphism(dec_l5, dec_eh7):
    for dec in (dec_l5, dec_eh7):
        qalg, keep, proj = p_alpha_data(dec)
        rng = CounterRng(9)
        for _ in range(15):
            x = tuple(Fraction(int(8 * rng.symmetric())) for _ in range(dec.base.dim))
            y = tuple(Fraction(int(8 * rng.symmetric())) for _ in range(dec.base.dim))
            assert proj(bracket(dec.base, x, y)) == bracket(qalg, proj(x), proj(y))


def test_p_alpha_kills_high_weight_products(dec_l5):
    # grading: P_alpha[X, Y] = 0 when the weights sum past alpha
    alg = dec_l5.base
    x = alg.basis_vector(0)  # weight 1
    y = alg.basis_vector(3)  # w2, weight 2
    _, _, proj = p_alpha_data(dec_l5)
    assert is_zero(proj(bracket(alg, x, y)))


def test_decompose_non_integer_alpha_central_product():
    from fractions import Fraction
    from nilcarnot.catalog import direct_product, heisenberg3

    prod = direct_product(heisenberg3(), heisenberg3(), Fraction(3, 2))
    dec = decompose(prod)
    assert dec.alpha == Fraction(3, 2)
    assert not dec.alpha_is_integer
    # the transversal side generates an ideal commuting with w
    assert dec.central_product is True
    with pytest.raises(ValueError):
        p_alpha_data(dec)


def test_p_alpha_project_depends_only_on_the_decomposition(monkeypatch):
    import nilcarnot.carnot
    from nilcarnot.catalog import heisprod4, ladder5

    # make every object id collide: a cache keyed by id would mix them up
    monkeypatch.setattr(nilcarnot.carnot, "id", lambda obj: 0, raising=False)
    for alg in (ladder5(), heisprod4()):
        dec = decompose(alg)
        x = tuple(Fraction(i + 1) for i in range(alg.dim))
        qalg, keep, proj = p_alpha_data(dec)
        assert proj(x) == tuple(x[i] for i in keep) and len(keep) == qalg.dim


def ladder5_w2_plus_h():
    """ladder5 in the basis (a, b, z1, w2 + h, h, z3).

    The ideal's RREF row for w2 is (0, 0, 0, 1, -1, 0), so embedding ideal
    coordinates sums two products in the h coordinate.
    """
    f = Fraction
    return GradedAlgebra(
        6,
        ("a", "b", "z1", "w2h", "h", "z3"),
        (f(1), f(1), f(1), f(2), f(2), f(3)),
        ((0, 1, 3, f(1)), (0, 1, 4, f(-1)), (0, 3, 5, f(1)), (2, 3, 5, f(-1)), (2, 4, 5, f(-1))),
    )


DECS = {"ladder5": decompose(ladder5()), "ladder5_w2_plus_h": decompose(ladder5_w2_plus_h())}


def test_non_unit_row_basis_change_keeps_the_structure():
    dec = DECS["ladder5_w2_plus_h"]
    assert dec.w.rows[3] == (0, 0, 0, 1, -1, 0)
    assert dec.transversal_indices == (4,)
    assert dec.alpha == 2 and {j: s.rank for j, s in dec.z_layers.items()} == {1: 1, 3: 1}


@pytest.mark.parametrize("name", sorted(DECS))
@given(st.lists(st.floats(-1e12, 1e12), min_size=5, max_size=5))
def test_w_embed_is_the_row_by_row_sum(name, coords):
    dec = DECS[name]
    reference = (0.0,) * dec.base.dim
    for c, row in zip(coords, dec.w.rows_float):
        reference = tuple(a + c * r for a, r in zip(reference, row))
    got = dec.w_embed(tuple(coords))
    assert [a.hex() for a in got] == [a.hex() for a in reference]
    exact = tuple(Fraction(c) for c in coords)
    reference = linalg.zero_vector(dec.base.dim)
    for c, row in zip(exact, dec.w.rows):
        reference = tuple(a + c * r for a, r in zip(reference, row))
    assert dec.w_embed(exact) == reference
    assert dec.w_coords(reference) == exact


def test_w_coords_reads_the_ideal_and_rejects_what_is_outside(dec_l5):
    h = dec_l5.base.basis_vector(dec_l5.transversal_indices[0])
    w = dec_l5.w_embed((Fraction(3), Fraction(-1, 2), Fraction(0), Fraction(2), Fraction(5)))
    with pytest.raises(ValueError, match="does not lie in the ideal"):
        dec_l5.w_coords(tuple(a + b for a, b in zip(w, h)))

    wf = dec_l5.w_embed((3.0, -0.5, 0.0, 2.0, 5.0))
    scale = 1.0 + max(abs(a) for a in wf)
    for relative, inside in ((1e-6, False), (1e-12, True)):
        x = tuple(a + relative * scale * float(b) for a, b in zip(wf, h))
        if inside:
            assert dec_l5.w_coords(x) == (3.0, -0.5, 0.0, 2.0, 5.0)
        else:
            with pytest.raises(ValueError, match="does not lie in the ideal"):
                dec_l5.w_coords(x)
    assert 1e-12 < W_TOL < 1e-6


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_w_coords_rejects_a_non_finite_coordinate_anywhere(dec_l5, bad):
    for pos in range(dec_l5.base.dim):
        x = tuple(bad if i == pos else 0.0 for i in range(dec_l5.base.dim))
        with pytest.raises(ValueError, match="non-finite"):
            dec_l5.w_coords(x)


def test_lift_tower_and_cocycle_layers():
    from nilcarnot.catalog import direct_product, engel_heis7, heisprod4

    cases = {
        "ladder5": (ladder5(), {1: (3,), 3: ()}, (1,)),
        "ladder5_x_engel4": (direct_product(ladder5(), engel4(), 2), {1: (3,), 3: ()}, (1,)),
        "heisprod4": (heisprod4(), {2: ()}, ()),
        "engel_heis7": (engel_heis7(), {3: ()}, ()),
        # non-integer alpha 3/2: no lifts, and the one center layer sits above alpha
        "central_product": (direct_product(heisenberg3(), heisenberg3(), Fraction(3, 2)), {2: ()}, ()),
    }
    for name, (alg, tower, cocycles) in cases.items():
        dec = decompose(alg)
        assert dec.lift_tower == tower, name
        assert dec.cocycle_layers == cocycles, name
