import math
from fractions import Fraction

import pytest

from nilcarnot.algebra import GradedAlgebra, bracket
from nilcarnot.carnot import decompose, horizontal_connect, integrate_bracket_form
from nilcarnot.catalog import direct_product, engel4, ladder5
from nilcarnot.group import bch, quasi_dist, quasi_norm
from nilcarnot.linalg import as_float, vneg
from nilcarnot.rng import CounterRng, SamplerConfig, sample_ball_point
from nilcarnot.shear import (
    MembershipError,
    PathDependenceError,
    ShearComponent,
    ShearMap,
    apply_shear,
    bilip_estimate,
    build_shear,
    component_from_exprs,
    holder_norm_estimate,
    k_function,
    lift,
    loop_test_membership,
    necessity_check,
    zero_component,
)

SIGMA = "sign(q1)*sqrt(abs(q1))"


@pytest.fixture(scope="module")
def sigma_component(dec_l5):
    return component_from_exprs(dec_l5, 1, SIGMA, holder_hint=math.sqrt(2.0))


@pytest.fixture(scope="module")
def ladder_shear(dec_l5, sigma_component):
    return build_shear(dec_l5, {1: sigma_component})


def two_generator_fixture():
    """Quotient = R^2 (abelian), with [h1, z1] = z3 pairing one direction.

    Rectangle loops enclose area, so the loop integral of a component
    depending on the other coordinate detects non-membership.
    """
    fr = Fraction
    alg = GradedAlgebra(
        dim=7,
        labels=("a", "b", "z1", "w2", "h1", "h2", "z3"),
        weights=(fr(1), fr(1), fr(1), fr(2), fr(2), fr(2), fr(3)),
        brackets=(
            (0, 1, 3, fr(1)),   # [a,b] = w2
            (0, 3, 6, fr(1)),   # [a,w2] = z3
            (2, 4, 6, fr(-1)),  # [h1,z1] = z3
        ),
    )
    return decompose(alg)


def test_lift_matches_closed_form(dec_l5, sigma_component):
    lifted = lift(dec_l5, sigma_component)
    assert lifted.layer == 3
    for p in (-8.0, -3.5, -1.0, 0.0, 0.5, 2.0, 8.0):
        val = lifted.eval((p,))
        assert val[5] == pytest.approx(-(2.0 / 3.0) * abs(p) ** 1.5, abs=1e-8)


def test_lift_of_zero_is_zero(dec_l5):
    lifted = lift(dec_l5, zero_component(dec_l5, 1))
    assert all(v == 0.0 for v in lifted.eval((3.0,)))


def test_lift_vanishes_when_center_is_central(dec_hp4):
    comp = component_from_exprs(dec_hp4, 2, "q1")
    lifted = lift(dec_hp4, comp, waive_membership=True)
    assert all(abs(v) < 1e-15 for v in lifted.eval((2.0,)))


def test_lift_memoizes(dec_l5, sigma_component):
    lifted = lift(dec_l5, sigma_component)
    first = lifted.eval((1.25,))
    assert lifted.eval((1.25,)) is first


def test_loop_test_trivial_cases(dec_l5, sigma_component):
    verdict = loop_test_membership(dec_l5, sigma_component)
    assert verdict.passed
    verdict = loop_test_membership(dec_l5, zero_component(dec_l5, 1))
    assert verdict.passed


def test_loop_test_detects_area_pairing():
    dec = two_generator_fixture()
    # c = q2 * z1: the rectangle integral equals the enclosed-area pairing
    bad = component_from_exprs(dec, 1, "q2")
    verdict = loop_test_membership(dec, bad, SamplerConfig(seed=3, count=12, radius=2.0))
    assert not verdict.passed
    # c = q1 * z1 pairs the same coordinate: curl-free, integral vanishes
    good = component_from_exprs(dec, 1, "q1")
    verdict = loop_test_membership(dec, good, SamplerConfig(seed=3, count=12, radius=2.0))
    assert verdict.passed


@pytest.fixture(scope="module")
def dec_multid():
    return decompose(direct_product(ladder5(), engel4(), 2))


@pytest.mark.parametrize("radius", [4.0, 1.0, 0.1, 0.01, 0.001])
def test_loop_verdict_holds_across_scales(dec_multid, radius):
    budget = SamplerConfig(seed=7, count=24, radius=radius)
    member = component_from_exprs(dec_multid, 1, SIGMA)
    assert loop_test_membership(dec_multid, member, budget).passed
    assert not loop_test_membership(dec_multid, component_from_exprs(dec_multid, 1, "q1*q2"), budget).passed


def test_waived_lift_checks_a_second_path(dec_multid):
    """With membership waived, a lift whose value depends on the path raises."""
    bad = lift(dec_multid, component_from_exprs(dec_multid, 1, "q4"), waive_membership=True)
    with pytest.raises(PathDependenceError, match="independent paths to .* disagree by"):
        bad.eval((0.7, -0.4, 1.1, 0.3, -0.9))


def test_loop_verdict_states_the_worst_ratio(dec_multid, monkeypatch):
    """The verdict's one number is the largest |loop integral| / bound, judged
    against 1, and it counts the loops it integrated."""
    import nilcarnot.shear

    forms = nilcarnot.shear.integrate_bracket_forms
    integrated = []

    def counting_forms(dec, component, jobs):
        integrated.extend(jobs)
        return forms(dec, component, jobs)

    monkeypatch.setattr(nilcarnot.shear, "integrate_bracket_forms", counting_forms)
    budget = SamplerConfig(seed=7, count=24, radius=0.001)
    bad = loop_test_membership(dec_multid, component_from_exprs(dec_multid, 1, "q1*q2"), budget)
    assert not bad.passed and bad.worst_ratio > 1.0
    assert bad.loops_tested == len(integrated)
    good = loop_test_membership(dec_multid, component_from_exprs(dec_multid, 1, SIGMA), budget)
    assert good.passed and good.worst_ratio <= 1.0


def test_loop_test_derives_its_tolerance_and_lifts_keep_the_default(dec_multid, monkeypatch):
    import nilcarnot.carnot
    import nilcarnot.shear
    from nilcarnot.quadrature import DEFAULT_TOL

    batch = nilcarnot.carnot.integrate_batch
    vector = nilcarnot.carnot.integrate_vector
    forms = nilcarnot.shear.integrate_bracket_forms
    segments, widths, loops, calls = [], set(), [], []

    def recording_batch(f, jobs):
        segments.extend(tol for _, _, tol in jobs)

        def integrand(which, t):
            values = f(which, t)
            widths.add(values.shape[1])
            return values

        return batch(integrand, jobs)

    def recording_vector(f, a, b, tol):
        lengths = set()
        calls.append((tol, lengths))

        def integrand(t):
            value = f(t)
            lengths.add(len(value))
            return value

        return vector(integrand, a, b, tol)

    def recording_forms(dec, component, jobs):
        loops.extend(jobs)
        return forms(dec, component, jobs)

    monkeypatch.setattr(nilcarnot.carnot, "integrate_batch", recording_batch)
    monkeypatch.setattr(nilcarnot.carnot, "integrate_vector", recording_vector)
    monkeypatch.setattr(nilcarnot.shear, "integrate_bracket_forms", recording_forms)
    sigma = component_from_exprs(dec_multid, 1, SIGMA)
    verdict = loop_test_membership(dec_multid, sigma, SamplerConfig(seed=7, count=4, radius=4.0))
    assert verdict.passed and verdict.loops_tested == len(loops)
    # the loop test runs on the batched driver only
    assert calls == []
    want = []
    for path, tol in loops:
        assert tol == 1e-8 * path.length * 1.0 / (10 * path.segment_count)
        want += [tol] * path.segment_count
    assert segments == want
    lift(dec_multid, sigma, waive_membership=True).eval((0.7, -0.4, 1.1, 0.3, -0.9))
    assert calls and {tol for tol, _ in calls} == {DEFAULT_TOL}
    # the pairing lands in the one-dimensional layer Z_3
    assert widths == {1}
    assert all(lengths == {1} for _, lengths in calls)


# worst_ratio of seed 7, count 24 at radii 4, 1, 0.1, 0.01, 0.001, as the
# loop test gave when it integrated one segment at a time
PINNED_WORST_RATIOS = {
    SIGMA: (
        "0x1.565104c7c56c2p-6", "0x1.c087a66fb13f6p-5", "0x1.b908473e4638fp-2",
        "0x1.14d0563058984p-3", "0x1.137e5a353a3dbp-4",
    ),
    "q1*q2": (
        "0x1.45bfe9206269bp+24", "0x1.45bfe9206269bp+20", "0x1.a0f5a5482c0d2p+13",
        "0x1.0adaa7386e1c9p+7", "0x1.5592c18fe91a3p+0",
    ),
}


def test_loop_verdict_worst_ratios_are_pinned(dec_multid):
    import dataclasses

    radii = (4.0, 1.0, 0.1, 0.01, 0.001)
    for text, pinned in PINNED_WORST_RATIOS.items():
        component = component_from_exprs(dec_multid, 1, text)
        for radius, want in zip(radii, pinned):
            budget = SamplerConfig(seed=7, count=24, radius=radius)
            assert loop_test_membership(dec_multid, component, budget).worst_ratio.hex() == want
    # without trees the loop test applies eval node by node, to the same bits
    sigma = dataclasses.replace(component_from_exprs(dec_multid, 1, SIGMA), trees=None)
    for radius, want in zip(radii, PINNED_WORST_RATIOS[SIGMA]):
        budget = SamplerConfig(seed=7, count=24, radius=radius)
        assert loop_test_membership(dec_multid, sigma, budget).worst_ratio.hex() == want


def test_loop_test_fails_a_non_finite_loop_integral(dec_multid):
    """Finite at every checked node, the constant overflows the Simpson sums,
    so every loop integrates to nan; a nan drops out of max(), so these loops
    used to pass with worst_ratio 0.0."""
    huge = component_from_exprs(dec_multid, 1, "1.7e308")
    verdict = loop_test_membership(dec_multid, huge, SamplerConfig(seed=7, count=4, radius=4.0))
    assert verdict.loops_tested == 4
    assert verdict.worst_ratio == math.inf and not verdict.passed
    with pytest.raises(MembershipError, match="worst .* inf"):
        lift(dec_multid, huge)


def test_loop_test_rejects_a_non_finite_component_value(dec_multid):
    nan = component_from_exprs(dec_multid, 1, "q2*(1e308*1e308 - 1e308*1e308)")
    with pytest.raises(ValueError, match=r"component value is not finite at \(-0\.3093"):
        loop_test_membership(dec_multid, nan)


def test_loop_integral_value_matches_area():
    dec = two_generator_fixture()
    qc = dec.quotient_carnot
    bad = component_from_exprs(dec, 1, "q2")
    t = 1.5
    d1 = (1.0, 0.0)
    d2 = (0.0, 1.0)
    segs = ((d1, t), (d2, t), (vneg(d1), t), (vneg(d2), t))
    from nilcarnot.carnot import HorizontalPath

    loop = HorizontalPath(qc, (0.0, 0.0), segs)
    val = integrate_bracket_form(dec, bad, loop)
    # integral of q2 [z1, theta] over the square: only dq1 legs contribute,
    # [z1, h1] = -[h1, z1] = +z3 gives (0 - t) * t = -t^2 on the z3 axis... sign below
    z3 = val[6]
    assert abs(abs(z3) - t * t) <= 1e-9


def test_lift_requires_membership():
    dec = two_generator_fixture()
    bad = component_from_exprs(dec, 1, "q2")
    with pytest.raises(MembershipError, match=r"worst \|integral\| / bound"):
        lift(dec, bad)


def test_build_shear_ladder5_layers(ladder_shear):
    assert sorted(ladder_shear.components) == [1, 3]


def test_build_shear_runs_the_exact_pairing_test_once(monkeypatch):
    import nilcarnot.carnot

    dec = decompose(ladder5())
    component = component_from_exprs(dec, 1, SIGMA)
    calls = []
    exact_bracket = nilcarnot.carnot.bracket
    monkeypatch.setattr(
        nilcarnot.carnot, "bracket", lambda *args: calls.append(args) or exact_bracket(*args)
    )
    first = build_shear(dec, {1: component}, waive_membership=True)
    tested = len(calls)
    second = build_shear(dec, {1: component}, waive_membership=True)
    assert tested > 0 and len(calls) == tested
    assert sorted(first.components) == sorted(second.components) == [1, 3]


def test_build_shear_zero_components_identity(dec_l5):
    smap = build_shear(dec_l5, {})
    g = (0.3, -0.5, 1.0, 0.7, 2.0, -1.2)
    assert apply_shear(smap, g) == g


def test_build_shear_rejects_zero_layer(dec_l5):
    with pytest.raises(ValueError):
        build_shear(dec_l5, {2: ShearComponent(2, lambda q: (0.0,) * 6)})


def test_heisprod_single_component(dec_hp4):
    smap = build_shear(dec_hp4, {2: component_from_exprs(dec_hp4, 2, "0.7*q1")})
    assert sorted(smap.components) == [2]


def test_apply_shear_fixes_cosets(dec_l5, ladder_shear):
    rng = CounterRng(21)
    for _ in range(10):
        g = sample_ball_point(rng, dec_l5.base, 5.0)
        fg = apply_shear(ladder_shear, g)
        gap = max(abs(a - b) for a, b in zip(dec_l5.project(fg), dec_l5.project(g)))
        assert gap <= 1e-12


def test_shear_isometric_on_cosets(dec_l5, ladder_shear):
    # F(g*w) = g*w*s(gbar): within a coset the quasi-distance is unchanged
    alg = dec_l5.base
    rng = CounterRng(22)
    for _ in range(8):
        g = sample_ball_point(rng, alg, 3.0)
        w1 = as_float(dec_l5.w_embed((0.4, -0.1, 0.8, 0.2, 1.1)))
        w2 = as_float(dec_l5.w_embed((-0.3, 0.5, 0.0, 1.0, -0.7)))
        a = bch(alg, g, w1)
        b = bch(alg, g, w2)
        lhs = quasi_dist(alg, apply_shear(ladder_shear, a), apply_shear(ladder_shear, b))
        rhs = quasi_dist(alg, a, b)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


def test_shear_inverse(dec_l5, ladder_shear):
    inv = ladder_shear.negated()
    rng = CounterRng(23)
    for _ in range(10):
        g = sample_ball_point(rng, dec_l5.base, 5.0)
        back = apply_shear(inv, apply_shear(ladder_shear, g))
        assert max(abs(a - b) for a, b in zip(back, g)) <= 1e-10


def test_k_function_examples(dec_l5, ladder_shear):
    zero = (0.0,) * 6
    assert all(v == 0.0 for v in k_function(dec_l5, ladder_shear, zero, zero))
    g2 = (0.0, 0.0, 0.0, 0.0, 4.0, 0.0)
    k = k_function(dec_l5, ladder_shear, zero, g2)
    assert k[2] == pytest.approx(2.0, abs=1e-10)          # sigma(4) on z1
    assert k[5] == pytest.approx(-16.0 / 3.0, abs=1e-8)   # lift at 4 on z3
    smap0 = build_shear(dec_l5, {})
    assert all(v == 0.0 for v in k_function(dec_l5, smap0, (1.0,) * 6, (0.5,) * 6))


def test_k_identity(dec_l5, ladder_shear):
    alg = dec_l5.base
    rng = CounterRng(24)
    for _ in range(20):
        g1 = sample_ball_point(rng, alg, 5.0)
        g2 = sample_ball_point(rng, alg, 5.0)
        k = k_function(dec_l5, ladder_shear, g1, g2)
        u = bch(alg, vneg(g1), g2)
        other = bch(
            alg,
            vneg(u),
            bch(alg, vneg(apply_shear(ladder_shear, g1)), apply_shear(ladder_shear, g2)),
        )
        assert max(abs(a - b) for a, b in zip(k, other)) <= 1e-12 * max(
            1.0, max(abs(v) for v in k)
        )


def test_lift_coherence(dec_l5, sigma_component, ladder_shear):
    fresh = lift(dec_l5, sigma_component, waive_membership=True)
    for p in (-5.0, -1.0, 0.5, 3.0):
        got = ladder_shear.components[3].eval((p,))
        ref = fresh.eval((p,))
        assert max(abs(a - b) for a, b in zip(got, ref)) <= 1e-9


def test_necessity_zero_shear(dec_l5):
    smap = build_shear(dec_l5, {})
    report = necessity_check(dec_l5, smap, seed=7, count=50, radii=(1.0, 10.0))
    for layers in report.per_radius.values():
        assert all(v == 0.0 for v in layers.values())


def test_necessity_bounded_for_built_shear(dec_l5, ladder_shear):
    report = necessity_check(dec_l5, ladder_shear, seed=42, count=100)
    maxima = [report.max_ratio(r) for r in (1.0, 10.0, 100.0)]
    assert max(maxima) < 3.0
    # bounded in the radius: no growth from the small ball to the large one
    assert maxima[2] <= 1.2 * maxima[0]


def test_necessity_flags_broken_sign(dec_l5, sigma_component):
    broken = ShearMap(
        dec_l5,
        {
            1: sigma_component,
            3: ShearComponent(
                3,
                lambda q: tuple(
                    (2.0 / 3.0) * abs(q[0]) ** 1.5 if i == 5 else 0.0 for i in range(6)
                ),
            ),
        },
    )
    report = necessity_check(dec_l5, broken, seed=42, count=100)
    small = report.max_ratio(1.0)
    large = report.max_ratio(100.0)
    assert large >= 2.0 * small


def test_holder_norm_estimates(dec_l5, sigma_component):
    assert holder_norm_estimate(dec_l5, zero_component(dec_l5, 1), SamplerConfig(5, 100, 4.0)) == 0.0
    est = holder_norm_estimate(dec_l5, sigma_component, SamplerConfig(5, 400, 8.0))
    assert 1.0 <= est <= math.sqrt(2.0) + 1e-9
    est_small = holder_norm_estimate(dec_l5, sigma_component, SamplerConfig(5, 50, 0.5))
    assert est_small <= est + 1e-9


def test_bilip_estimate_identity(dec_l5):
    sup_r, inf_r = bilip_estimate(dec_l5.base, lambda g: g, SamplerConfig(9, 200, 5.0))
    assert sup_r == pytest.approx(1.0, abs=1e-12)
    assert inf_r == pytest.approx(1.0, abs=1e-12)


def test_build_shear_non_integer_alpha_truncates():
    from nilcarnot.algebra import GradedAlgebra

    fr = Fraction
    alg = GradedAlgebra(3, ("a", "b", "h"), (fr(1), fr(1), fr(3, 2)), ())
    dec = decompose(alg)
    assert dec.alpha == fr(3, 2)
    comp = component_from_exprs(dec, 1, ["sin(q1)", "q1"])
    smap = build_shear(dec, {1: comp})
    # no lifted layers above the exponent when it is not an integer
    assert sorted(smap.components) == [1]
    with pytest.raises(ValueError):
        lift(dec, comp)


def test_central_conjugation_bound_sampled(dec_l5):
    # d(0, (-h) * w * h) <= C max(b1, b2)^(1/alpha) for central w with
    # rho(0, w) <= b1^(1/alpha) and |h| < b2; sampled constant recorded
    alg = dec_l5.base
    alpha = float(dec_l5.alpha)
    rng = CounterRng(27)
    worst = 0.0
    for _ in range(500):
        w = as_float(dec_l5.w_embed((0.0, 0.0, rng.symmetric(4.0), 0.0, rng.symmetric(4.0))))
        h = tuple(rng.symmetric(4.0) if alg.labels[i] == "h" else 0.0 for i in range(6))
        b1 = quasi_norm(alg, w) ** alpha
        b2 = math.sqrt(sum(a * a for a in h))
        if max(b1, b2) < 1e-6:
            continue
        val = bch(alg, bch(alg, vneg(h), w), h)
        worst = max(worst, quasi_norm(alg, val) / max(b1, b2) ** (1.0 / alpha))
    assert worst <= 1.75  # measured 1.6883 with this seed


def _hexes(v):
    return [a.hex() for a in v]


def test_multid_zigzag_values_are_pinned():
    # ladder5 x engel4 has a 5-dim quotient, so its lift runs on zigzag
    # paths; these bits were recorded before the bracket and BCH kernels
    # of the two scalar modes were merged, and must not move
    dec = decompose(direct_product(ladder5(), engel4(), 2))
    sigma = component_from_exprs(dec, 1, SIGMA)
    smap = build_shear(dec, {1: sigma})
    assert sorted(smap.components) == [1, 3]
    shifted = {
        (0.5, -0.2, 1.0, 0.3, 0.1, -0.4, 0.8, -1.1, 0.6, 0.25): ("0x1.50f44d8921244p+0", "-0x1.9eff385d9c95ap-2"),
        (-1.3, 0.4, -2.1, 0.7, -0.6, 1.2, 0.9, 0.35, -0.8, 1.5): ("-0x1.6ff2c89dca95fp+1", "0x1.1f5ecda3245f0p+0"),
    }
    for g, (c2, c5) in shifted.items():
        want = list(g)
        want[2], want[5] = float.fromhex(c2), float.fromhex(c5)
        assert _hexes(apply_shear(smap, g)) == _hexes(want)

    lifted = lift(dec, sigma, waive_membership=True)
    want = [0.0] * 10
    want[5] = float.fromhex("-0x1.8fcfdb2b289f5p-2")
    assert _hexes(lifted.eval((0.7, -0.4, 1.1, 0.3, -0.9))) == _hexes(want)

    path = horizontal_connect(dec.quotient_carnot, (1.2, -0.5, 0.8, 0.6, -0.3))
    e1, e2 = (0.0, 1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0, 0.0)
    t1, t2 = float.fromhex("0x1.8c97ef43f7248p-1"), float.fromhex("0x1.739f352fc161ap-1")
    want = [((1.2, -0.5, 0.8, 0.0, 0.0), 1.0)]
    want += [(e1, t1), (e2, t1), (vneg(e1), t1), (vneg(e2), t1)]
    for d in (e1, e2, e1, vneg(e2), vneg(e1), vneg(e1), e1, e2, vneg(e1), vneg(e2)):
        want.append((d, t2))
    assert [(_hexes(d), t.hex()) for d, t in path.segments] == [(_hexes(d), t.hex()) for d, t in want]
