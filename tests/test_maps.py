import dataclasses
import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

import nilcarnot.linalg
from nilcarnot.algebra import LinearMap, bracket
from nilcarnot.group import bch, dilation_matrix
from nilcarnot.linalg import as_float, identity_matrix, is_zero, vadd, vneg, vscale
from nilcarnot.maps import (
    _curve_velocity,
    Dilation,
    ExtrapolationError,
    FiberMap,
    NonContractionError,
    automorphism_check,
    chain_rule_check,
    cocycle_action,
    cocycle_identity_check,
    cocycle_of,
    compose,
    conjugate_by_shear,
    d_alpha,
    d_alpha_matrix,
    extract_compatible,
    fiber_auto,
    fiber_dilation,
    fiber_shear,
    fiber_translate,
    pansu_check,
    quotient_grid,
    similarity_exponent_check,
    similarity_pair,
    solve_single_generator_fixed_point,
    verify_compatible,
)
from nilcarnot.catalog import engel4, heisenberg3
from nilcarnot.rng import CounterRng, SamplerConfig, sample_ball_point
from nilcarnot.shear import apply_shear, build_shear, component_from_exprs


@pytest.fixture(scope="module")
def kappa_shear(dec_hp4):
    return build_shear(dec_hp4, {2: component_from_exprs(dec_hp4, 2, "0.5*q1")})


@pytest.fixture(scope="module")
def ladder_sigma_shear(dec_l5):
    return build_shear(
        dec_l5, {1: component_from_exprs(dec_l5, 1, "sign(q1)*sqrt(abs(q1))")}
    )


def chain_fixtures(dec):
    """Ten factor-chain fixtures mixing all primitive kinds."""
    alg = dec.base
    lin = build_shear(dec, {1: component_from_exprs(dec, 1, "0.3*q1")}) if dec.z_layer(1) else None
    shear2 = (
        build_shear(dec, {2: component_from_exprs(dec, 2, "0.25*q1")})
        if dec.z_layer(2)
        else None
    )
    a = tuple(Fraction(1) if i == 4 else Fraction(0) for i in range(alg.dim))
    chains = [
        FiberMap(alg, ()),
        fiber_dilation(alg, 2),
        fiber_dilation(alg, Fraction(1, 2)),
        fiber_translate(alg, a),
        compose(fiber_translate(alg, a), fiber_dilation(alg, 2)),
    ]
    smap = lin or shear2
    if smap is not None:
        chains += [
            fiber_shear(smap),
            compose(fiber_translate(alg, a), fiber_shear(smap)),
            compose(fiber_shear(smap), fiber_dilation(alg, Fraction(1, 2))),
            compose(fiber_dilation(alg, 2), fiber_shear(smap)),
            compose(fiber_shear(smap), fiber_translate(alg, a), fiber_dilation(alg, 2)),
        ]
    return chains


def test_extract_pure_shear_normal_form(dec_l5, ladder_sigma_shear):
    expr = extract_compatible(dec_l5, fiber_shear(ladder_sigma_shear))
    assert all(a == 0 for a in expr.base)
    # A is the identity on the ideal, B the inclusion of the transversal
    assert expr.a_matrix == identity_matrix(dec_l5.w.rank)
    keep = [i for i in range(6) if i not in dec_l5.w.pivots]
    for pos, i in enumerate(keep):
        assert expr.b_matrix[pos] == dec_l5.base.basis_vector(i)
    for p in (1.0, -2.0, 4.0):
        got = as_float(expr.s_eval((p,)))
        want = ladder_sigma_shear.s_value((p,))
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12


def test_fiber_map_rejects_a_dilation_on_another_algebra(dec_l5):
    with pytest.raises(ValueError, match="dilation factor lives on a different algebra"):
        FiberMap(dec_l5.base, (Dilation(heisenberg3(), Fraction(1, 2)),))


def test_extract_dilation(dec_l5):
    expr = extract_compatible(dec_l5, fiber_dilation(dec_l5.base, 3))
    m = dilation_matrix(dec_l5.base, 3).matrix
    keep = [i for i in range(6) if i not in dec_l5.w.pivots]
    for pos, i in enumerate(keep):
        assert expr.b_matrix[pos] == tuple(m[t][i] for t in range(6))
    grid = quotient_grid(dec_l5, count=5, seed=2, radius=2.0)
    for q in grid:
        assert max(abs(a) for a in as_float(expr.s_eval(q))) <= 1e-12


def test_extract_translate_then_shear_elimination_formula(dec_l5, ladder_sigma_shear):
    # gamma = shear o L_a: s_j(hbar) = s0_j(abar * hbar) - s0_j(abar) for j < alpha
    alg = dec_l5.base
    a = tuple(Fraction(3) if alg.labels[i] == "h" else Fraction(0) for i in range(6))
    gamma = compose(fiber_translate(alg, a), fiber_shear(ladder_sigma_shear))
    expr = extract_compatible(dec_l5, gamma)
    abar = dec_l5.project(as_float(a))
    sigma = lambda t: math.copysign(math.sqrt(abs(t)), t)
    for p in (-2.0, -0.5, 1.0, 4.0):
        sval = as_float(expr.s_eval((p,)))
        want = sigma(abar[0] + p) - sigma(abar[0])
        assert sval[2] == pytest.approx(want, abs=1e-9)


def test_extract_verify_round_trip_on_chain_fixtures(dec_l5, dec_hp4):
    count = 0
    for dec in (dec_l5, dec_hp4):
        for chain in chain_fixtures(dec):
            expr = extract_compatible(dec, chain)
            report = verify_compatible(dec, chain, expr, SamplerConfig(seed=4, count=12, radius=2.0))
            assert report.passed, (dec.base.labels, chain.factors)
            count += 1
    assert count >= 10


def test_same_b_is_bit_exact(dec_l5, ladder_sigma_shear):
    gamma = compose(fiber_dilation(dec_l5.base, 2), fiber_shear(ladder_sigma_shear))
    expr = extract_compatible(dec_l5, gamma)
    rng = CounterRng(31)
    for _ in range(3):
        p = sample_ball_point(rng, dec_l5.base, 3.0)
        expr_p = extract_compatible(dec_l5, gamma.conjugated_at(p))
        assert expr_p.b_matrix == expr.b_matrix
        assert expr_p.a_matrix == expr.a_matrix


def test_cc_identity_exact_on_basis_pairs(dec_l5):
    # Bh * Aw * (Bh)^-1 = A(h * w * h^-1) whenever [Bh, Aw] = A[h, w]
    alg = dec_l5.base
    expr = extract_compatible(dec_l5, fiber_dilation(alg, 2))
    keep = [i for i in range(alg.dim) if i not in dec_l5.w.pivots]
    for pos, i in enumerate(keep):
        bh = expr.b_matrix[pos]
        h = alg.basis_vector(i)
        for row in dec_l5.w.rows:
            aw = expr.a_apply_ambient(row)
            lhs = bch(alg, bch(alg, bh, aw), vneg(bh))
            rhs = expr.a_apply_ambient(bch(alg, bch(alg, h, row), vneg(h)))
            assert lhs == rhs


def test_cc_identity_fails_for_tampered_a(dec_l5):
    alg = dec_l5.base
    expr = extract_compatible(dec_l5, fiber_dilation(alg, 2))
    # rescale the action on z1 only: [Bh, A z1] = A [h, z1] now fails
    bad_rows = list(list(r) for r in expr.a_matrix)
    bad_rows[2][2] *= 2
    tampered = type(expr)(
        dec=expr.dec,
        base=expr.base,
        b_matrix=expr.b_matrix,
        a_matrix=tuple(tuple(r) for r in bad_rows),
        s_eval=expr.s_eval,
        quot_translation=expr.quot_translation,
        quot_matrix=expr.quot_matrix,
    )
    report = verify_compatible(dec_l5, fiber_dilation(alg, 2), tampered, SamplerConfig(4, 6, 2.0))
    assert not report.intertwines


def test_two_shears_same_base_agree(dec_l5):
    c = component_from_exprs(dec_l5, 1, "sign(q1)*sqrt(abs(q1))")
    m1 = build_shear(dec_l5, {1: c})
    m2 = build_shear(dec_l5, {1: component_from_exprs(dec_l5, 1, "sign(q1)*sqrt(abs(q1))")})
    rng = CounterRng(33)
    for _ in range(100):
        g = sample_ball_point(rng, dec_l5.base, 5.0)
        a = apply_shear(m1, g)
        b = apply_shear(m2, g)
        assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-9


def test_d_alpha_heisprod_matrix(dec_hp4, kappa_shear):
    m = d_alpha_matrix(dec_hp4, fiber_shear(kappa_shear), (0.0,) * 4)
    assert np.allclose(m, [[1.0, 0.5], [0.0, 1.0]], atol=1e-12)
    fd = d_alpha_matrix(dec_hp4, fiber_shear(kappa_shear), (0.0,) * 4, mode="fd")
    assert np.max(np.abs(m - fd)) <= 1e-6


def test_d_alpha_direction_validation(dec_hp4, kappa_shear):
    with pytest.raises(ValueError):
        d_alpha(dec_hp4, fiber_shear(kappa_shear), (0.0,) * 4, (1.0, 0.0, 0.0, 0.0))


def test_d_alpha_zero_salpha_is_linear_part(dec_l5, ladder_sigma_shear):
    # ladder5 has Z_2 = 0, so the differential is B + A on V_alpha
    m = d_alpha_matrix(dec_l5, fiber_shear(ladder_sigma_shear), (1.0, 0.2, -0.4, 0.3, 2.0, 0.1))
    assert np.allclose(m, np.eye(len(dec_l5.v_alpha_indices)), atol=1e-9)


def test_curve_velocity_is_exact_left_invariant_field():
    """On a step-3 algebra the t-linear part of at * (t dir) is
    dir + 1/2 [at, dir] + 1/12 [at, [at, dir]]."""
    alg = engel4()
    at = (Fraction(1, 2), Fraction(-3, 4), Fraction(2), Fraction(-1, 8))
    d = (Fraction(-1, 4), Fraction(3, 2), Fraction(1, 2), Fraction(5))
    ad1 = bracket(alg, at, d)
    ad2 = bracket(alg, at, ad1)
    assert not is_zero(ad2)
    expected = vadd(vadd(d, vscale(Fraction(1, 2), ad1)), vscale(Fraction(1, 12), ad2))
    velocity = _curve_velocity(alg, at, d)
    assert velocity == expected
    assert all(isinstance(v, Fraction) for v in velocity)


def test_d_alpha_dilation(dec_hp4):
    m = d_alpha_matrix(dec_hp4, fiber_dilation(dec_hp4.base, 3), (0.5, 0.5, 0.5, 0.5))
    assert np.allclose(m, 9.0 * np.eye(2), atol=1e-9)


def test_d_alpha_depends_only_on_quotient_point(dec_hp4, kappa_shear):
    p = (0.7, -0.3, 0.4, 1.2)
    w = as_float(dec_hp4.w_embed((0.5, -0.2, 0.9)))
    pw = bch(dec_hp4.base, p, w)
    m1 = d_alpha_matrix(dec_hp4, fiber_shear(kappa_shear), p)
    m2 = d_alpha_matrix(dec_hp4, fiber_shear(kappa_shear), pw)
    assert np.max(np.abs(m1 - m2)) <= 1e-9


def test_chain_rule_examples(dec_hp4):
    s1 = build_shear(dec_hp4, {2: component_from_exprs(dec_hp4, 2, "0.2*q1")})
    s2 = build_shear(dec_hp4, {2: component_from_exprs(dec_hp4, 2, "0.3*q1")})
    p = (0.4, -0.1, 0.8, 0.6)
    defect = chain_rule_check(dec_hp4, fiber_shear(s1), fiber_shear(s2), p)
    assert defect <= 1e-9
    composite = compose(fiber_shear(s2), fiber_shear(s1))
    m = d_alpha_matrix(dec_hp4, composite, p)
    assert m[0, 1] == pytest.approx(0.5, abs=1e-9)
    # identity o identity
    ident = FiberMap(dec_hp4.base, ())
    assert chain_rule_check(dec_hp4, ident, ident, p) == 0.0
    # dilation against a shear, finite-difference route included
    defect = chain_rule_check(dec_hp4, fiber_dilation(dec_hp4.base, 2), fiber_shear(s1), p)
    assert defect <= 1e-6
    fd = d_alpha_matrix(dec_hp4, compose(fiber_shear(s1), fiber_dilation(dec_hp4.base, 2)), p, mode="fd")
    closed = d_alpha_matrix(dec_hp4, compose(fiber_shear(s1), fiber_dilation(dec_hp4.base, 2)), p)
    assert np.max(np.abs(fd - closed)) <= 1e-6


def test_pansu_graded_automorphism_has_zero_defect():
    heis = heisenberg3()
    fr = Fraction
    m = LinearMap(((fr(2), fr(0), fr(0)), (fr(0), fr(3), fr(0)), (fr(0), fr(0), fr(6))))
    fmap = lambda g: m(g)
    defects = pansu_check(heis, fmap, (0.5, -0.3, 1.0), m, seed=3, count=16)
    assert all(v <= 1e-12 for _, v in defects)


def test_pansu_identity_on_itself():
    heis = heisenberg3()
    ident = LinearMap(identity_matrix(3))
    defects = pansu_check(heis, lambda g: ident(g), (1.0, 2.0, 0.5), ident, seed=3, count=16)
    assert all(v <= 1e-12 for _, v in defects)


def test_pansu_first_layer_quadratic_perturbation_decreases():
    heis = heisenberg3()
    ident = LinearMap(identity_matrix(3))
    f = lambda g: (g[0], g[1] + g[0] ** 2, g[2])
    defects = pansu_check(heis, f, (0.0, 0.0, 0.0), ident, seed=3, count=24)
    values = [v for _, v in defects]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_pansu_detects_nondifferentiable_center_perturbation():
    # z + x^2 is only (1/2)-Holder: the defect ratio does not decay
    heis = heisenberg3()
    ident = LinearMap(identity_matrix(3))
    f = lambda g: (g[0], g[1], g[2] + g[0] ** 2)
    defects = pansu_check(heis, f, (0.0, 0.0, 0.0), ident, seed=3, count=24)
    values = [v for _, v in defects]
    assert values[-1] >= 0.5 * values[0]
    assert min(values) > 1e-3


def test_pansu_rejects_non_homomorphism():
    heis = heisenberg3()
    fr = Fraction
    bad = LinearMap(((fr(1), fr(0), fr(0)), (fr(0), fr(1), fr(0)), (fr(0), fr(0), fr(5))))
    with pytest.raises(ValueError):
        pansu_check(heis, lambda g: g, (0.0,) * 3, bad)


def test_similarity_exponent_dilation_exact(dec_l5, dec_hp4):
    for dec in (dec_l5, dec_hp4):
        for r in (2, Fraction(1, 2), 4):
            la, lb, defect = similarity_exponent_check(dec, fiber_dilation(dec.base, r))
            assert defect == 0.0
            assert la == pytest.approx(float(r))
            assert lb == pytest.approx(float(r) ** 2)


def test_cocycle_action_identity_pair(dec_l5):
    pair = similarity_pair(dec_l5, FiberMap(dec_l5.base, ()))
    c = component_from_exprs(dec_l5, 1, "sin(q1)")
    out = cocycle_action(dec_l5, pair, c)
    for q in quotient_grid(dec_l5, count=10, seed=3, radius=3.0):
        assert max(abs(a - b) for a, b in zip(out.eval(q), c.eval(q))) <= 1e-12


def test_cocycle_action_rejects_mismatched_ratios(dec_l5):
    pair = similarity_pair(dec_l5, fiber_dilation(dec_l5.base, 2))
    # lambda_Bbar becomes 6, not lambda_A**alpha = 4
    scaled = tuple(tuple(Fraction(3, 2) * a for a in row) for row in pair.quot_matrix)
    hacked = dataclasses.replace(pair, quot_matrix=scaled)
    with pytest.raises(ValueError, match="lambda_B = lambda_A"):
        cocycle_action(dec_l5, hacked, component_from_exprs(dec_l5, 1, "q1"))


def test_cocycle_action_translation(dec_l5):
    alg = dec_l5.base
    a = tuple(Fraction(2) if alg.labels[i] == "h" else Fraction(0) for i in range(6))
    pair = similarity_pair(dec_l5, fiber_translate(alg, a))
    c = component_from_exprs(dec_l5, 1, "sin(q1)")
    out = cocycle_action(dec_l5, pair, c)
    for p in (-1.0, 0.5, 2.0):
        want = math.sin(2.0 + p) - math.sin(2.0)
        assert out.eval((p,))[2] == pytest.approx(want, abs=1e-12)


def test_cocycle_action_dilation_weight_arithmetic(dec_l5):
    # A = delta_2 on the ideal, quotient ratio 4: layer 1 gets (1/2) c(4 hbar)
    pair = similarity_pair(dec_l5, fiber_dilation(dec_l5.base, 2))
    c = component_from_exprs(dec_l5, 1, "sin(q1)")
    out = cocycle_action(dec_l5, pair, c)
    for p in (-1.0, 0.5, 2.0):
        assert out.eval((p,))[2] == pytest.approx(0.5 * math.sin(4.0 * p), abs=1e-12)


def test_cocycle_action_preserves_holder_norm(dec_l5):
    from nilcarnot.shear import holder_norm_estimate

    c = component_from_exprs(dec_l5, 1, "sign(q1)*sqrt(abs(q1))")
    pair = similarity_pair(dec_l5, fiber_dilation(dec_l5.base, 2))
    out = cocycle_action(dec_l5, pair, c)
    sampler = SamplerConfig(seed=8, count=600, radius=6.0)
    before = holder_norm_estimate(dec_l5, c, sampler)
    after = holder_norm_estimate(dec_l5, out, sampler)
    assert abs(after - before) <= 0.03 * before


def test_cocycle_of_identity_and_inverse(dec_l5, ladder_sigma_shear):
    ident = FiberMap(dec_l5.base, ())
    assert all(
        max(abs(a) for a in comp.eval((1.5,))) <= 1e-12
        for comp in cocycle_of(dec_l5, ident).values()
    )
    gamma = compose(fiber_dilation(dec_l5.base, 2), fiber_shear(ladder_sigma_shear))
    gamma_inv = compose(
        fiber_shear(ladder_sigma_shear.negated()), fiber_dilation(dec_l5.base, Fraction(1, 2))
    )
    # b_j(gamma^-1) = -pi_Psi(gamma^-1) b_j(gamma)
    pair_inv = similarity_pair(dec_l5, gamma_inv)
    b = cocycle_of(dec_l5, gamma)[1]
    b_inv = cocycle_of(dec_l5, gamma_inv)[1]
    moved = cocycle_action(dec_l5, pair_inv, b)
    for q in quotient_grid(dec_l5, count=20, seed=6, radius=3.0):
        lhs = as_float(b_inv.eval(q))
        rhs = tuple(-a for a in as_float(moved.eval(q)))
        assert max(abs(a - b_) for a, b_ in zip(lhs, rhs)) <= 1e-10


def test_cocycle_identity_two_maps(dec_l5, ladder_sigma_shear):
    alg = dec_l5.base
    a = tuple(Fraction(1) if alg.labels[i] == "h" else Fraction(0) for i in range(6))
    g1 = compose(fiber_translate(alg, a), fiber_dilation(alg, 2), fiber_shear(ladder_sigma_shear))
    g2 = compose(fiber_shear(ladder_sigma_shear), fiber_dilation(alg, Fraction(1, 2)))
    assert cocycle_identity_check(dec_l5, g1, g2) <= 1e-9
    ident = FiberMap(alg, ())
    assert cocycle_identity_check(dec_l5, ident, ident) <= 1e-15


def test_pair_composition_opposite_law(dec_l5):
    alg = dec_l5.base
    a = tuple(Fraction(1) if alg.labels[i] == "h" else Fraction(0) for i in range(6))
    g1 = compose(fiber_translate(alg, a), fiber_dilation(alg, 2))
    g2 = fiber_dilation(alg, Fraction(1, 2))
    p1 = similarity_pair(dec_l5, g1)
    p2 = similarity_pair(dec_l5, g2)
    both = similarity_pair(dec_l5, compose(g1, g2))
    c = component_from_exprs(dec_l5, 1, "sin(q1)")
    lhs = cocycle_action(dec_l5, both, c)
    # opposite-group law: the composed pair acts as pi_1 after pi_2
    rhs = cocycle_action(dec_l5, p1, cocycle_action(dec_l5, p2, c))
    for q in quotient_grid(dec_l5, count=15, seed=4, radius=3.0):
        assert max(abs(x - y) for x, y in zip(lhs.eval(q), rhs.eval(q))) <= 1e-12


def test_conjugate_by_commuting_shear(dec_l5):
    # gamma a pure shear with the same component: Psi = (Id, Id), so
    # s~ = c - c + c = c
    c = component_from_exprs(dec_l5, 1, "0.3*q1")
    f0 = build_shear(dec_l5, {1: c})
    gamma = fiber_shear(build_shear(dec_l5, {1: component_from_exprs(dec_l5, 1, "0.3*q1")}))
    conj, report = conjugate_by_shear(dec_l5, f0, gamma)
    assert report.identity_defect <= 1e-9
    s_new = cocycle_of(dec_l5, conj)[1]
    for p in (-2.0, 1.0):
        assert s_new.eval((p,))[2] == pytest.approx(0.3 * p, abs=1e-9)


def test_fixed_point_solver_geometric_sum(dec_l5):
    gamma = compose(
        fiber_dilation(dec_l5.base, Fraction(1, 2)),
        fiber_shear(build_shear(dec_l5, {1: component_from_exprs(dec_l5, 1, "0.4*q1")})),
    )
    c, report = solve_single_generator_fixed_point(dec_l5, gamma, 1)
    assert report.contraction_factor == pytest.approx(0.5, abs=1e-6)
    # b_1(gamma)(t) = 0.2 t, so the geometric series sums to 0.4 t
    for t in (-3.0, -1.0, 0.5, 2.0):
        assert c.eval((t,))[2] == pytest.approx(0.4 * t, abs=1e-9)


def test_fixed_point_evaluation_builds_no_matrix_power(dec_l5, monkeypatch):
    """The solved component reads the A^-k table built by the iteration."""
    gamma = compose(
        fiber_dilation(dec_l5.base, Fraction(1, 2)),
        fiber_shear(build_shear(dec_l5, {1: component_from_exprs(dec_l5, 1, "0.4*q1")})),
    )
    c, _ = solve_single_generator_fixed_point(dec_l5, gamma, 1)
    calls = []
    for name in ("mat_mul", "identity_matrix"):
        original = getattr(nilcarnot.linalg, name)
        monkeypatch.setattr(
            nilcarnot.linalg, name, lambda *a, f=original, n=name: calls.append(n) or f(*a)
        )
    assert c.eval((1.7,))[2] == pytest.approx(0.4 * 1.7, abs=1e-9)
    assert calls == []


def test_fixed_point_solver_checks_each_s_value_in_the_ideal(dec_l5, monkeypatch):
    """s values are checked once each, as coordinates are memoized; one that
    leaves w still raises."""
    import nilcarnot.maps

    gamma = compose(
        fiber_dilation(dec_l5.base, Fraction(1, 2)),
        fiber_shear(build_shear(dec_l5, {1: component_from_exprs(dec_l5, 1, "0.4*q1")})),
    )
    cocycles = nilcarnot.maps.cocycle_of(dec_l5, gamma)
    h = dec_l5.transversal_indices[0]

    def leaving(q):
        value = list(cocycles[1].eval(q))
        value[h] += q[0]
        return tuple(value)

    monkeypatch.setattr(
        nilcarnot.maps, "cocycle_of", lambda dec, g: {**cocycles, 1: dataclasses.replace(cocycles[1], eval=leaving)}
    )
    with pytest.raises(ValueError, match="does not lie in the ideal"):
        solve_single_generator_fixed_point(dec_l5, gamma, 1)


def test_fixed_point_solver_zero_map(dec_l5):
    gamma = fiber_dilation(dec_l5.base, Fraction(1, 2))
    c, report = solve_single_generator_fixed_point(dec_l5, gamma, 1)
    assert report.iterations <= 1
    assert report.final_change == 0.0
    assert all(v == 0.0 for v in c.eval((1.0,)))


def test_fixed_point_solver_rejects_non_contraction(dec_l5):
    gamma = fiber_shear(build_shear(dec_l5, {1: component_from_exprs(dec_l5, 1, "0.4*q1")}))
    with pytest.raises(NonContractionError):
        solve_single_generator_fixed_point(dec_l5, gamma, 1)


def test_conjugation_eliminates_component_at_fixed_point(dec_l5):
    gamma = compose(
        fiber_dilation(dec_l5.base, Fraction(1, 2)),
        fiber_shear(build_shear(dec_l5, {1: component_from_exprs(dec_l5, 1, "0.4*q1")})),
    )
    c, _ = solve_single_generator_fixed_point(dec_l5, gamma, 1)
    f0 = build_shear(dec_l5, {1: c}, waive_membership=True)
    _, report = conjugate_by_shear(dec_l5, f0, gamma)
    assert report.sup_new_component <= 1e-9
    assert report.identity_defect <= 1e-9


def test_automorphism_check_homomorphic_shear(dec_hp4, kappa_shear):
    report = automorphism_check(dec_hp4.base, lambda g: apply_shear(kappa_shear, g))
    assert report.passed


def test_automorphism_check_fails_non_additive(dec_hp4):
    smap = build_shear(dec_hp4, {2: component_from_exprs(dec_hp4, 2, "q1*q1")})
    report = automorphism_check(dec_hp4.base, lambda g: apply_shear(smap, g))
    assert not report.passed
    assert report.defect > 1e-3


def test_d_alpha_requires_integer_exponent():
    from nilcarnot.algebra import GradedAlgebra
    from nilcarnot.carnot import decompose

    fr = Fraction
    alg = GradedAlgebra(3, ("a", "b", "h"), (fr(1), fr(1), fr(3, 2)), ())
    dec = decompose(alg)
    with pytest.raises(ValueError):
        d_alpha_matrix(dec, FiberMap(alg, ()), (0.0, 0.0, 0.0))


def test_conjugate_by_shear_rejects_high_layer(dec_hp4):
    # the only nonzero center layer of heisprod4 sits at the exponent
    c = component_from_exprs(dec_hp4, 2, "0.1*q1")
    f0 = build_shear(dec_hp4, {2: c})
    with pytest.raises(ValueError):
        conjugate_by_shear(dec_hp4, f0, fiber_dilation(dec_hp4.base, 2))


def test_similarity_pair_rejects_non_similarity(dec_l5):
    # a graded automorphism whose first ideal layer is not scaled-orthogonal:
    # a->4a, b->b, z1->2z1, h->8h forces w2->4w2, z3->16z3
    alg = dec_l5.base
    fr = Fraction
    diag = [fr(4), fr(1), fr(2), fr(4), fr(8), fr(16)]
    rows = tuple(
        tuple(diag[i] if i == j else fr(0) for j in range(alg.dim)) for i in range(alg.dim)
    )
    gamma = fiber_auto(alg, LinearMap(rows))
    with pytest.raises(ValueError):
        similarity_pair(dec_l5, gamma)


def test_expressions_are_freed_without_the_cyclic_collector(dec_l5, ladder_sigma_shear):
    """No reference cycle holds an expression: its s_eval must not close over it."""
    gamma = compose(fiber_dilation(dec_l5.base, 2), fiber_shear(ladder_sigma_shear))
    gc.disable()
    try:
        expr = extract_compatible(dec_l5, gamma)
        expr.s_eval((0.5,))
        pair = similarity_pair(dec_l5, gamma)
        pair.quot_apply((0.5,))
        pair.a_inverse
        refs = (weakref.ref(expr), weakref.ref(pair))
        del expr, pair
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_fd_extrapolation_error_carries_sequence(dec_hp4):
    # a cubic component makes the first-order Richardson model fail loudly
    smap = build_shear(dec_hp4, {2: component_from_exprs(dec_hp4, 2, "q1**2/(0.001 + abs(q1))")})
    try:
        d_alpha_matrix(dec_hp4, fiber_shear(smap), (0.0, 0.0, 0.0, 0.0), mode="fd")
    except ExtrapolationError as err:
        assert err.sequence


def test_d_alpha_nonabelian_quotient_center_dependence():
    # the quotient is Heisenberg; a component reading the quotient center
    # coordinate picks up the left-invariant correction in its derivative
    from nilcarnot.catalog import direct_product, heisenberg3
    from nilcarnot.carnot import decompose

    prod = direct_product(heisenberg3(), heisenberg3(), Fraction(2))
    dec = decompose(prod)
    smap = build_shear(dec, {2: component_from_exprs(dec, 2, "0.7*q3 + 0.2*q1")})
    p = (0.0, 0.0, 0.0, 0.4, -0.3, 0.0)
    closed = d_alpha_matrix(dec, fiber_shear(smap), p, mode="closed")
    fd = d_alpha_matrix(dec, fiber_shear(smap), p, mode="fd")
    # d s2 along the first quotient direction: 0.2 + 0.7 * (-q2/2) = 0.305
    assert closed[0, 1] == pytest.approx(0.305, abs=1e-9)
    assert np.max(np.abs(closed - fd)) <= 1e-6


def test_extract_graded_automorphism_chain_on_engel_heis7(dec_eh7):
    # e0->2e0, e1->3e1 forces e2->6e2, e3->12e3, X->6X, Y->4Y, Z->24Z
    fr = Fraction
    diag = [fr(2), fr(3), fr(6), fr(12), fr(6), fr(4), fr(24)]
    rows = tuple(
        tuple(diag[i] if i == j else fr(0) for j in range(7)) for i in range(7)
    )
    gamma = fiber_auto(dec_eh7.base, LinearMap(rows))
    expr = extract_compatible(dec_eh7, gamma)
    report = verify_compatible(dec_eh7, gamma, expr, SamplerConfig(seed=5, count=15, radius=2.0))
    assert report.passed
    closed = d_alpha_matrix(dec_eh7, gamma, (0.1,) * 7, mode="closed")
    fd = d_alpha_matrix(dec_eh7, gamma, (0.1,) * 7, mode="fd")
    assert np.allclose(np.diag(closed), [6.0, 6.0, 4.0], atol=1e-12)
    assert np.max(np.abs(closed - fd)) <= 1e-6
