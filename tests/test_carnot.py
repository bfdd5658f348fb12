import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    integrate_bracket_segments,
    is_carnot,
    HorizontalPath,
)
from nilcarnot.catalog import direct_product, engel4, fixture, fixture_names, free_nilpotent_step2, heisenberg3, ladder5
from nilcarnot.group import bch, dilate, quasi_norm
from nilcarnot.linalg import is_zero, vneg
from nilcarnot.rng import CounterRng, sample_coords
from nilcarnot.shear import ShearComponent, component_from_exprs


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
    zero = ShearComponent(1, lambda q: (0.0,) * dec_l5.base.dim)
    val = integrate_bracket_form(dec_l5, zero, path)
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
    hacked = type(bad)(1, bad.eval)
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

    batch = nilcarnot.carnot.integrate_batch
    counts = {"rounds": 0, "nodes": 0, "calls": 0, "points": 0}

    def counted_batch(f, jobs):
        def counted(which, t):
            counts["rounds"] += 1
            counts["nodes"] += len(t)
            return f(which, t)

        return batch(counted, jobs)

    def counted_eval(q):
        counts["calls"] += 1
        counts["points"] += len(q[0])
        return sigma.eval(q)

    monkeypatch.setattr(nilcarnot.carnot, "integrate_batch", counted_batch)
    sigma = component_from_exprs(dec_l5, 1, "sign(q1)*sqrt(abs(q1))")
    path = horizontal_connect(dec_l5.quotient_carnot, (2.5,))
    assert path.segment_count == 1
    integrate_bracket_form(dec_l5, dataclasses.replace(sigma, eval=counted_eval), path)
    assert counts["nodes"] > 3
    # one column call per round of the quadrature, one point per node
    assert (counts["calls"], counts["points"]) == (counts["rounds"], counts["nodes"])


def _substituted(inside, at, value):
    """``inside`` on coordinate columns, with ``value`` in place at q1 = ``at``."""
    import numpy as np

    return type(inside)(1, lambda q: tuple(np.where(q[0] == at, v, a) for v, a in zip(value, inside.eval(q))))


def test_integrate_bracket_form_checks_the_segment_midpoint(dec_l5):
    inside = component_from_exprs(dec_l5, 1, "q1")
    outside = component_from_exprs(dec_l5, 3, "1")
    # leaves Z_1 only at q1 = 1, the midpoint of the segment from 0 to 2
    escaping = _substituted(inside, 1.0, outside.eval((1.0,)))
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
    at_midpoint = _substituted(inside, 1.0, (math.inf,) * 6)
    with pytest.raises(ValueError, match=r"not finite at \(1\.0,\)"):
        integrate_bracket_form(dec_l5, at_midpoint, path)


def test_integrate_bracket_forms_checks_the_first_three_nodes(dec_l5):
    inside = component_from_exprs(dec_l5, 1, "q1")
    outside = component_from_exprs(dec_l5, 3, "1")
    path = HorizontalPath(dec_l5.quotient_carnot, (0.0,), (((1.0,), 2.0),))
    escaping = _substituted(inside, 1.0, outside.eval((1.0,)))
    with pytest.raises(ValueError, match=r"escapes the center layer Z_1 at \(1\.0,\)"):
        integrate_bracket_forms(dec_l5, escaping, [(path, 1e-10)])
    at_end = _substituted(inside, 2.0, (math.nan,) * 6)
    with pytest.raises(ValueError, match=r"not finite at \(2\.0,\)"):
        integrate_bracket_forms(dec_l5, at_end, [(path, 1e-10)])
    # a quarter point is no checked node
    at_quarter = _substituted(inside, 0.5, outside.eval((0.5,)))
    integrate_bracket_forms(dec_l5, at_quarter, [(path, 1e-10)])


@pytest.mark.parametrize("scale", [1e150, 1e160, 1e200])
def test_the_layer_check_holds_where_the_squares_overflow(dec_l5, scale):
    """scale * (e_a + e_z1) leaves Z_1 at every scale, and scale * e_z1 stays
    in it; above about 1e154 the sum of squares of either overflows."""
    import numpy as np

    def constant(*indices):
        value = tuple(scale if i in indices else 0.0 for i in range(dec_l5.base.dim))
        return ShearComponent(1, lambda q: tuple(np.full(np.shape(q[0]), a) for a in value))

    a, z1 = 0, dec_l5.z_layer(1).pivots[0]
    segment = (np.array([[0.0]]), np.array([[1.0]]), np.array([2.0]), np.array([1e-10]))
    with pytest.raises(ValueError, match=r"escapes the center layer Z_1 at \(0\.0,\)"):
        integrate_bracket_segments(dec_l5, constant(a, z1), *segment)
    assert integrate_bracket_segments(dec_l5, constant(z1), *segment)[0, 0] == pytest.approx(-2 * scale, rel=1e-12)


def test_the_layer_check_holds_where_a_value_overflows_its_length(dec_l5):
    """1.5e308 * (e_4 + the row of Z_1) leaves Z_1, and its length
    overflows even through np.hypot; the integral then read [[nan]]."""
    import numpy as np

    row = [float(a) for a in dec_l5.z_layer(1).rows[0]]
    value = tuple(1.5e308 * (r + (1.0 if i == 4 else 0.0)) for i, r in enumerate(row))
    huge = ShearComponent(1, lambda q: tuple(np.full(np.shape(q[0]), a) for a in value))
    segment = (np.array([[0.0]]), np.array([[1.0]]), np.array([2.0]), np.array([1e-10]))
    with pytest.raises(ValueError, match=r"escapes the center layer Z_1 at \(0\.0,\)"):
        integrate_bracket_segments(dec_l5, huge, *segment)


def test_a_split_segment_checks_the_first_three_nodes_of_each_piece(dec_l5):
    """The segment from q1 = -1 to 1 is split at the root q1 = 0 of sigma's
    kinks: the piece [-1, 0] is graded toward its end and opens with the
    nodes -1, 0, -0.25, the piece [0, 1] toward its start, with 0, 1, 0.25."""
    import numpy as np

    sigma = component_from_exprs(dec_l5, 1, "sign(q1)*sqrt(abs(q1))")
    outside = component_from_exprs(dec_l5, 3, "1").eval((0.0,))
    segment = (np.array([[-1.0]]), np.array([[1.0]]), np.array([2.0]), np.array([1e-10]))
    for at in (-0.25, 0.25):
        inside = sigma.eval
        escaping = dataclasses.replace(
            sigma, eval=lambda q: tuple(np.where(q[0] == at, v, a) for v, a in zip(outside, inside(q)))
        )
        with pytest.raises(ValueError, match=rf"escapes the center layer Z_1 at \({at},\)"):
            integrate_bracket_segments(dec_l5, escaping, *segment)
    # the closed form of the integral: -(2/3) (|1|^(3/2) - |-1|^(3/2)) = 0
    assert abs(integrate_bracket_segments(dec_l5, sigma, *segment)[0, 0]) <= 1e-10


def test_a_segment_without_a_root_gives_the_jobs_and_bits_of_no_trees(dec_l5, monkeypatch):
    import numpy as np

    import nilcarnot.carnot

    batch, calls = nilcarnot.carnot.integrate_batch, []

    def recording_batch(f, jobs):
        def integrand(which, t):
            calls[-1].append(t.tolist())
            return f(which, t)

        calls.append([jobs])
        return batch(integrand, jobs)

    monkeypatch.setattr(nilcarnot.carnot, "integrate_batch", recording_batch)
    sigma = component_from_exprs(dec_l5, 1, "sign(q1)*sqrt(abs(q1))")
    # q1 runs over [0.5, 3], [-3, -0.5], [-2, -0.5], and one segment has no length
    columns = np.array([[0.5, -0.5, -2.0, 1.0]]), np.array([[1.0, -1.0, 1.0, 1.0]]), np.array([2.5, 2.5, 1.5, 0.0])
    tols = np.array([1e-10, 1e-12, 1e-10, 1e-10])
    got = integrate_bracket_segments(dec_l5, sigma, *columns, tols)
    bare = integrate_bracket_segments(dec_l5, dataclasses.replace(sigma, trees=None), *columns, tols)
    assert [a.hex() for a in got.ravel()] == [a.hex() for a in bare.ravel()]
    assert calls[0] == calls[1]
    assert calls[0][0] == [(0.0, 2.5, 1e-10), (0.0, 2.5, 1e-12), (0.0, 1.5, 1e-10), (0.0, 0.0, 1e-10)]


@pytest.fixture(scope="module")
def dec_multid():
    return decompose(direct_product(ladder5(), engel4(), 2))


def test_loop_segments_across_the_holder_point_meet_their_tolerance(dec_multid, monkeypatch):
    """Every segment of the radius-0.001, seed-7 loop test on ladder5 x engel4
    that q1 = 0 crosses integrates at tol 1e-10 to within 1e-10 of its value
    at 1e-15.  Unsplit, Richardson's estimate passed one of them, from
    (3.5e-5, -1.8e-5, 5.7e-6, 3.1e-9, 5.1e-14) along (-0.644, 0.756,
    -0.121, 0, 0) for 2.47e-4, 6.45e-8 away from that value."""
    import numpy as np

    import nilcarnot.carnot
    from nilcarnot.rng import SamplerConfig
    from nilcarnot.shear import loop_test_membership

    dec = dec_multid
    sigma = component_from_exprs(dec, 1, "sign(q1)*sqrt(abs(q1))")
    segments, many = [], nilcarnot.carnot.integrate_bracket_segments
    record = lambda *a: segments.append(a[2:5]) or many(*a)
    monkeypatch.setattr(nilcarnot.carnot, "integrate_bracket_segments", record)
    loop_test_membership(dec, sigma, SamplerConfig(seed=7, count=24, radius=0.001))
    ((starts, steps, durations),) = segments
    with np.errstate(divide="ignore", invalid="ignore"):
        root = -starts[0] / steps[0]
    crossing = np.flatnonzero((root > 0.0) & (root < durations))
    named = [k for k in crossing if np.allclose(starts[:3, k], (3.5e-5, -1.8e-5, 5.7e-6), rtol=0.03)]
    assert len(crossing) > 20 and len(named) == 1
    assert np.allclose(steps[:3, named[0]], (-0.644, 0.756, -0.121), rtol=1e-2)
    assert abs(durations[named[0]] - 2.47e-4) < 1e-6
    columns = (starts[:, crossing], steps[:, crossing], durations[crossing])
    loose = many(dec, sigma, *columns, np.full(len(crossing), 1e-10))
    tight = many(dec, sigma, *columns, np.full(len(crossing), 1e-15))
    assert np.abs(loose - tight).max() <= 1e-10


_ENDS = [k * 2.0**-52 for k in range(1, 5)] + [1.0 - k * 2.0**-53 for k in range(1, 5)]


@settings(deadline=None, max_examples=60)
@given(
    start=st.tuples(*[st.floats(-2.0, 2.0)] * 5),
    direction=st.tuples(
        st.floats(0.05, 1.0) | st.floats(-1.0, -0.05), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)
    ),
    duration=st.floats(1e-3, 3.0),
    where=st.sampled_from([0.0, 1.0] + _ENDS) | st.floats(0.0, 1.0),
)
def test_sigma_along_a_segment_through_its_holder_point_meets_the_closed_form(
    dec_multid, start, direction, duration, where
):
    """A straight segment on ladder5 x engel4 whose q1 is 0 at the fraction
    ``where`` of its duration: the sigma integral is the integral of the
    constant component 1 times the mean of sign(u) sqrt|u| over u = q1,
    (2/3) (|u1|^(3/2) - |u0|^(3/2)) / (u1 - u0)."""
    import numpy as np

    dec = dec_multid
    size = math.sqrt(sum(a * a for a in direction))
    step = tuple(a / size for a in direction) + (0.0, 0.0)
    u0 = -where * duration * step[0]
    columns = (np.array([(u0,) + start[1:]]).T, np.array([step]).T, np.array([duration]), np.array([1e-10]))
    got = integrate_bracket_segments(dec, component_from_exprs(dec, 1, "sign(q1)*sqrt(abs(q1))"), *columns)[0, 0]
    constant = integrate_bracket_segments(dec, component_from_exprs(dec, 1, "1"), *columns)[0, 0]
    u1 = u0 + duration * step[0]
    want = constant * (2.0 / 3.0) * (abs(u1) ** 1.5 - abs(u0) ** 1.5) / (u1 - u0)
    assert abs(got - want) <= 1e-10


def test_a_path_alone_gives_the_bits_it_gets_inside_a_batch():
    """Each path's processes run on their own nodes: one path alone, as
    ``integrate_bracket_form`` or a batch of one, gets the bits it gets
    among others, zero-length segments and a segmentless path included."""
    import nilcarnot.carnot

    dec = decompose(direct_product(ladder5(), engel4(), 2))
    qc = dec.quotient_carnot
    paths = [
        horizontal_connect(qc, (1.2, -0.5, 0.8, 0.6, -0.3)),
        horizontal_connect(qc, (-0.7, 0.4, 0.0, -1.1, 0.2)),
        HorizontalPath(qc, (0.5, 0.1, -0.2, 0.0, 0.3), (((1.0, 0.0, 0.0, 0.0, 0.0), 0.0), ((0.0, 0.6, 0.8, 0.0, 0.0), 1.5))),
        HorizontalPath(qc, (0.0,) * 5, ()),
    ]
    hexes = lambda values: [[a.hex() for a in v] for v in values]
    for text in ("sign(q1)*sqrt(abs(q1))", "q1*q2 + sin(q3)"):
        component = component_from_exprs(dec, 1, text)
        batched = integrate_bracket_forms(dec, component, [(path, nilcarnot.carnot.DEFAULT_TOL) for path in paths])
        alone = [integrate_bracket_forms(dec, component, [(path, nilcarnot.carnot.DEFAULT_TOL)])[0] for path in paths]
        assert hexes(alone) == hexes(batched)
        assert hexes(integrate_bracket_form(dec, component, path) for path in paths) == hexes(batched)


def test_each_path_costs_one_start_product_per_segment_after_the_first(monkeypatch):
    # no product is made past the last segment of a path
    import nilcarnot.carnot

    dec = decompose(direct_product(ladder5(), engel4(), 2))
    qc = dec.quotient_carnot
    component = component_from_exprs(dec, 1, "q1")
    paths = [
        horizontal_connect(qc, (1.2, -0.5, 0.8, 0.6, -0.3)),
        HorizontalPath(qc, (0.5, 0.1, -0.2, 0.0, 0.3), (((0.0, 0.6, 0.8, 0.0, 0.0), 1.5),)),
    ]
    calls = []
    monkeypatch.setattr(nilcarnot.carnot, "bch", lambda *args: calls.append(args) or bch(*args))
    for path in paths:
        calls.clear()
        integrate_bracket_forms(dec, component, [(path, 1e-10)])
        assert len(calls) == path.segment_count - 1


def test_p_alpha_ladder5(dec_l5):
    qalg, keep, proj = dec_l5.p_alpha
    assert qalg.dim == 5  # z3 killed, weight 3 > alpha = 2
    v1 = dec_l5.base.basis_vector(0)
    img = proj(v1)
    assert sum(1 for a in img if a != 0) == 1


def test_p_alpha_is_homomorphism(dec_l5, dec_eh7):
    for dec in (dec_l5, dec_eh7):
        qalg, keep, proj = dec.p_alpha
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
    _, _, proj = dec_l5.p_alpha
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
        dec.p_alpha


def test_p_alpha_project_depends_only_on_the_decomposition(monkeypatch):
    import nilcarnot.carnot
    from nilcarnot.catalog import heisprod4, ladder5

    # make every object id collide: a cache keyed by id would mix them up
    monkeypatch.setattr(nilcarnot.carnot, "id", lambda obj: 0, raising=False)
    for alg in (ladder5(), heisprod4()):
        dec = decompose(alg)
        x = tuple(Fraction(i + 1) for i in range(alg.dim))
        qalg, keep, proj = dec.p_alpha
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


def _decompositions():
    """Every catalog fixture that has a decomposition, ladder5 in a non-unit
    row basis and ladder5 x engel4."""
    out = {
        "ladder5_w2_plus_h": decompose(ladder5_w2_plus_h()),
        "ladder5_x_engel4": decompose(direct_product(ladder5(), engel4(), 2)),
    }
    for name in fixture_names():
        try:
            out[name] = decompose(fixture(name))
        except DecompositionError:
            pass
    return out


DECS = _decompositions()
MAX_DIM = max(dec.base.dim for dec in DECS.values())
# dyadic entries few bits long, so every sum and product below is exact in floats
DYADIC = st.integers(-(2**20), 2**20).map(lambda n: n / 1024)


def test_non_unit_row_basis_change_keeps_the_structure():
    dec = DECS["ladder5_w2_plus_h"]
    assert dec.w.rows[3] == (0, 0, 0, 1, -1, 0)
    assert dec.transversal_indices == (4,)
    assert dec.alpha == 2 and {j: s.rank for j, s in dec.z_layers.items()} == {1: 1, 3: 1}


@pytest.mark.parametrize("name", sorted(DECS))
@given(
    st.lists(st.floats(-1e12, 1e12), min_size=MAX_DIM, max_size=MAX_DIM),
    st.lists(st.lists(DYADIC, min_size=MAX_DIM, max_size=MAX_DIM), min_size=3, max_size=3),
)
def test_w_embed_is_the_row_by_row_sum(name, coords, dyadic):
    """``embed`` and ``residual`` of every subspace a float path reads (w,
    the center of w and each center layer): ``embed`` against the sum over
    the rows from 0.0 in row order, and on dyadic inputs against the exact
    row sum and ``linalg.reduce_against``; on coordinate columns every
    point keeps the bits it gets alone."""
    dec = DECS[name]
    hexes = lambda values: [a.hex() for a in values]
    for z in (dec.w, dec.center_w, *dec.z_layers.values()):
        reference = (0.0,) * z.dim
        for c, row in zip(coords[: z.rank], z.rows):
            reference = tuple(a + c * float(r) for a, r in zip(reference, row))
        assert hexes(z.embed(tuple(coords[: z.rank]))) == hexes(reference)

        exact = [tuple(Fraction(a) for a in point) for point in dyadic]
        for point in exact:
            row_sum = linalg.zero_vector(z.dim)
            for c, row in zip(point[: z.rank], z.rows):
                row_sum = tuple(a + c * r for a, r in zip(row_sum, row))
            assert z.embed(point[: z.rank]) == row_sum
            assert z.embed(tuple(map(float, point[: z.rank]))) == tuple(map(float, row_sum))
            reduced = linalg.reduce_against(z.rows, z.pivots, point[: z.dim])
            assert z.residual(tuple(map(float, point[: z.dim])))[:, 0].tolist() == list(map(float, reduced))

        embedded = z.embed(linalg.columns([point[: z.rank] for point in dyadic]))
        left = z.residual(linalg.columns([point[: z.dim] for point in dyadic]))
        for k, point in enumerate(dyadic):
            assert hexes(a[k] for a in embedded) == hexes(z.embed(tuple(point[: z.rank])))
            assert hexes(left[:, k]) == hexes(z.residual(tuple(point[: z.dim]))[:, 0])

    exact = tuple(Fraction(c) for c in dyadic[0][: dec.w.rank])
    assert dec.w_coords(dec.w.embed(exact)) == exact


def test_w_coords_reads_the_ideal_and_rejects_what_is_outside(dec_l5):
    h = dec_l5.base.basis_vector(dec_l5.transversal_indices[0])
    w = dec_l5.w.embed((Fraction(3), Fraction(-1, 2), Fraction(0), Fraction(2), Fraction(5)))
    with pytest.raises(ValueError, match="does not lie in the ideal"):
        dec_l5.w_coords(tuple(a + b for a, b in zip(w, h)))

    wf = dec_l5.w.embed((3.0, -0.5, 0.0, 2.0, 5.0))
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


def test_w_layer_project_reads_its_table_and_keeps_the_zero_type():
    """``w_layer_project`` reads ``z_layer_indices`` and gives what
    ``layer_project`` gives at the weight lambda1 * j, in both modes."""
    from nilcarnot.algebra import layer_project
    from nilcarnot.catalog import engel_heis7, heisprod4

    for alg in (ladder5(), direct_product(ladder5(), engel4(), 2), heisprod4(), engel_heis7()):
        dec = decompose(alg)
        assert sorted(dec.z_layer_indices) == sorted(dec.z_layers)
        exact = tuple(Fraction(i + 1, 3) for i in range(alg.dim))
        for x, zero in ((exact, Fraction(0)), (tuple(map(float, exact)), 0.0)):
            for j in dec.z_layers:
                got = dec.w_layer_project(x, j)
                assert got == layer_project(alg, x, dec.lambda1 * j)
                assert [type(a) for a in got] == [type(zero)] * alg.dim
                assert {i for i, a in enumerate(got) if a} == set(dec.z_layer_indices[j])
