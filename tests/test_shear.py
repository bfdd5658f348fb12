import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import Stalling
from hypothesis import example, given, settings, strategies as st

import nilcarnot.shear
from nilcarnot.algebra import GradedAlgebra, bracket
from nilcarnot.carnot import HorizontalPath, decompose, horizontal_connect, integrate_bracket_form, integrate_bracket_forms
from nilcarnot.catalog import direct_product, engel4, ladder5
from nilcarnot.group import bch, quasi_dist, quasi_norm
from nilcarnot.linalg import as_float, columns, points as column_points, scalar_mode, vneg
from nilcarnot.quadrature import DEFAULT_TOL, QuadratureError
from nilcarnot.rng import CounterRng, SamplerConfig, sample_ball_point
from nilcarnot.shear import (
    PAIR_BLOCK,
    MembershipError,
    ShearComponent,
    ShearMap,
    apply_shear,
    bilip_estimate,
    build_shear,
    component_from_exprs,
    holder_norm_estimate,
    k_function,
    lift,
    lift_coherence,
    loop_test_membership,
    necessity_check,
)

SIGMA = "sign(q1)*sqrt(abs(q1))"


def zero_component(dec, layer):
    """The component 0: one 0.0 per ambient coordinate, shared by every point."""
    n = dec.base.dim
    return ShearComponent(layer, lambda q: (0.0,) * n)


def max_ratio(report, radius):
    """The largest ratio of ``necessity_check`` over the layers at ``radius``."""
    return max(report.per_radius[radius].values())


@pytest.fixture(scope="module")
def sigma_component(dec_l5):
    return component_from_exprs(dec_l5, 1, SIGMA)


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
    lifted = lift(dec_hp4, comp)
    assert all(abs(v) < 1e-15 for v in lifted.eval((2.0,)))


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


def _piece_tols(dec, jobs):
    """The tolerance of each quadrature job of the segments of ``(path, tol)``
    jobs, for a component whose one kink is q1 = 0: a segment that q1 = 0
    crosses inside (past 1e-14 of its duration from either end) is two
    pieces of half its tolerance each, any other one job."""
    from nilcarnot.carnot import _segments

    want = []
    for path, tol in jobs:
        for start, direction, duration in _segments(dec, path):
            root = -start[0] / direction[0] if direction[0] else math.nan
            snap = 1e-14 * duration
            pieces = 2 if snap < root < duration - snap else 1
            want += [tol / pieces] * pieces
    return want


def test_loop_test_derives_its_tolerance_and_lifts_keep_the_default(dec_multid, monkeypatch):
    import nilcarnot.carnot
    import nilcarnot.shear
    from nilcarnot.quadrature import DEFAULT_TOL

    batch = nilcarnot.carnot.integrate_batch
    forms = nilcarnot.shear.integrate_bracket_forms
    segments, widths, loops = [], set(), []

    def recording_batch(f, jobs):
        segments.extend(tol for _, _, tol in jobs)

        def integrand(which, t):
            values = f(which, t)
            widths.add(values.shape[1])
            return values

        return batch(integrand, jobs)

    def recording_forms(dec, component, jobs):
        loops.extend(jobs)
        return forms(dec, component, jobs)

    monkeypatch.setattr(nilcarnot.carnot, "integrate_batch", recording_batch)
    monkeypatch.setattr(nilcarnot.shear, "integrate_bracket_forms", recording_forms)
    sigma = component_from_exprs(dec_multid, 1, SIGMA)
    verdict = loop_test_membership(dec_multid, sigma, SamplerConfig(seed=7, count=4, radius=4.0))
    assert verdict.passed and verdict.loops_tested == len(loops)
    for path, tol in loops:
        assert tol == 1e-8 * path.length * 1.0 / (10 * path.segment_count)
    # a segment split at q1 = 0 gives each of its pieces its tolerance over the pieces
    want = _piece_tols(dec_multid, loops)
    assert segments == want and len(want) > sum(path.segment_count for path, _ in loops)
    # building the lift runs the loop test again: its loops are cleared before the lift is evaluated
    lifted = lift(dec_multid, sigma)
    segments.clear()
    loops.clear()
    lifted.eval((0.7, -0.4, 1.1, 0.3, -0.9))
    assert loops and {tol for _, tol in loops} == {DEFAULT_TOL}
    assert segments == _piece_tols(dec_multid, loops) and set(segments) == {DEFAULT_TOL}
    # the pairing lands in the one-dimensional layer Z_3
    assert widths == {1}


# worst_ratio of seed 7, count 24 at radii 4, 1, 0.1, 0.01, 0.001, with the
# loop segments split and graded at sigma's kink q1 = 0
PINNED_WORST_RATIOS = {
    SIGMA: (
        "0x1.ed438b78a4cd3p-14", "0x1.391f07e180e4ep-12", "0x1.9054b79939014p-12",
        "0x1.56331f11baed0p-11", "0x1.5a41a02449a30p-9",
    ),
    "q1*q2": (
        "0x1.45bfe9206269bp+24", "0x1.45bfe9206269bp+20", "0x1.a0f5a5482c0d2p+13",
        "0x1.0adaa7386e1c9p+7", "0x1.5592c18fe91a3p+0",
    ),
}
# sigma without trees: no segment is split, so these are the bits the loop
# test gave when it integrated one segment at a time
UNSPLIT_SIGMA_RATIOS = (
    "0x1.565104c7c56c2p-6", "0x1.c087a66fb13f6p-5", "0x1.b908473e4638fp-2",
    "0x1.14d0563058984p-3", "0x1.137e5a353a3dbp-4",
)


def test_loop_verdict_worst_ratios_are_pinned(dec_multid):
    import dataclasses

    radii = (4.0, 1.0, 0.1, 0.01, 0.001)
    for text, pinned in PINNED_WORST_RATIOS.items():
        component = component_from_exprs(dec_multid, 1, text)
        for radius, want in zip(radii, pinned):
            budget = SamplerConfig(seed=7, count=24, radius=radius)
            assert loop_test_membership(dec_multid, component, budget).worst_ratio.hex() == want
    # without trees the component shows no kink, and the loop test gives the unsplit bits
    sigma = dataclasses.replace(component_from_exprs(dec_multid, 1, SIGMA), trees=None)
    for radius, want in zip(radii, UNSPLIT_SIGMA_RATIOS):
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
    first = build_shear(dec, {1: component})
    tested = len(calls)
    second = build_shear(dec, {1: component})
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
        w1 = as_float(dec_l5.w.embed((0.4, -0.1, 0.8, 0.2, 1.1)))
        w2 = as_float(dec_l5.w.embed((-0.3, 0.5, 0.0, 1.0, -0.7)))
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


def test_lift_coherence(dec_l5, ladder_shear):
    qs = [(-5.0,), (-1.0,), (0.5,), (3.0,)]
    values = {j: c.eval(columns(qs)) for j, c in ladder_shear.components.items()}
    gap, tol = lift_coherence(ladder_shear, qs, values)
    # the largest |value| is (2/3) 5^(3/2) at q1 = -5
    assert 0.0 < gap <= tol == 10 * DEFAULT_TOL * -values[3][5][0]


def test_the_coherence_paths_are_graded_from_the_holder_point(dec_l5, ladder_shear, monkeypatch):
    """The lift-coherence check of ``shear --verify`` at the four probe
    points of ladder5: each second path starts with a segment from q1 = 0,
    sigma's kink, so that segment is graded toward its start.  Unsplit and
    ungraded, these paths take 1,628 integrand nodes in 106 rounds; graded,
    256 in 17."""
    import nilcarnot.carnot

    batch, counts = nilcarnot.carnot.integrate_batch, {"nodes": 0, "rounds": 0}

    def counted_batch(f, jobs):
        def counted(which, t):
            counts["rounds"] += 1
            counts["nodes"] += len(t)
            return f(which, t)

        return batch(counted, jobs)

    qs = [(0.5,), (1.0,), (1.5,), (2.0,)]
    values = {j: c.eval(columns(qs)) for j, c in ladder_shear.components.items()}
    monkeypatch.setattr(nilcarnot.carnot, "integrate_batch", counted_batch)
    gap, tol = lift_coherence(ladder_shear, qs, values)
    assert 0 < counts["nodes"] <= 500 and counts["rounds"] <= 30
    assert gap <= DEFAULT_TOL < tol


def test_necessity_zero_shear(dec_l5):
    smap = build_shear(dec_l5, {})
    report = necessity_check(dec_l5, smap, seed=7, count=50, radii=(1.0, 10.0))
    for layers in report.per_radius.values():
        assert all(v == 0.0 for v in layers.values())


def test_necessity_bounded_for_built_shear(dec_l5, ladder_shear):
    report = necessity_check(dec_l5, ladder_shear, seed=42, count=100)
    maxima = [max_ratio(report, r) for r in (1.0, 10.0, 100.0)]
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
    small = max_ratio(report, 1.0)
    large = max_ratio(report, 100.0)
    assert large >= 2.0 * small


def nan_where_q1_positive(layer, n):
    # every component's eval takes one point or coordinate columns
    def evaluate(q):
        last = np.where(np.asarray(q[0]) > 0, math.nan, 0.0)
        return (0.0,) * (n - 1) + (last if last.ndim else float(last),)

    return ShearComponent(layer, evaluate)


def test_necessity_counts_a_nan_ratio_as_inf(dec_l5):
    # a plain ``max`` keeps the first of (worst, nan): the nan would drop out
    smap = ShearMap(dec_l5, {3: nan_where_q1_positive(3, 6)})
    report = necessity_check(dec_l5, smap, seed=7, count=30, radii=(1.0,))
    assert max_ratio(report, 1.0) == math.inf


def test_holder_norm_counts_a_nan_ratio_as_inf(dec_l5):
    nan_everywhere = component_from_exprs(dec_l5, 1, "sqrt(abs(q1))*(1e308*1e308 - 1e308*1e308)")
    assert holder_norm_estimate(dec_l5, nan_everywhere, SamplerConfig(5, 20, 4.0)) == math.inf
    assert holder_norm_estimate(dec_l5, nan_where_q1_positive(1, 6), SamplerConfig(5, 20, 4.0)) == math.inf


def test_bilip_estimate_shows_a_nan_ratio_on_both_sides(l5):
    def f(g):
        return (np.where(g[0] > 0, math.nan, g[0]),) + tuple(g[1:])

    # the sup must not drop the nan, nor the inf side keep a bound it cannot show
    assert bilip_estimate(l5, f, SamplerConfig(seed=1, count=50, radius=4.0)) == (math.inf, 0.0)


def test_bilip_estimate_maps_each_block_in_one_call_on_columns(l5):
    calls = []

    def f(g):
        calls.append(g)
        return g

    count = 2 * PAIR_BLOCK + 5
    bilip_estimate(l5, f, SamplerConfig(seed=3, count=count, radius=4.0))
    assert len(calls) == math.ceil(count / PAIR_BLOCK)
    assert all(scalar_mode(g, arrays="columns") == "columns" and len(g) == l5.dim for g in calls)
    assert [len(g[0]) for g in calls] == [2 * PAIR_BLOCK, 2 * PAIR_BLOCK, 10]


def test_bilip_estimate_with_every_pair_skipped_says_so(l5):
    """At radius 1e-12 every sampled pair is closer than 1e-9: no ratio was measured."""
    with pytest.raises(ValueError, match=r"^bilip_estimate skipped all 5 sampled pairs: each was closer than 1e-9"):
        bilip_estimate(l5, lambda g: g, SamplerConfig(seed=42, count=5, radius=1e-12))


@pytest.mark.parametrize("block", [1, 64, 256, 300])
def test_bilip_estimate_maps_every_pair_whatever_the_block_size(l5, monkeypatch, block):
    """F is a pure function of its points: inf at the first point of pair 3,
    and it raises at the first point of pair 200.  Every pair is mapped at
    any block size, so F raises; without that point the estimate is
    (inf, 0.0), after F took every point."""
    sampler = SamplerConfig(seed=11, count=300, radius=4.0)
    drawn = sample_ball_point(CounterRng(sampler.seed), l5, sampler.radius, 2 * sampler.count)
    inf_at, raise_at = drawn[0][2 * 3], drawn[0][2 * 200]
    seen = []

    def f(g, raise_at=raise_at):
        seen.append(len(g[0]))
        if np.any(g[0] == raise_at):
            raise ArithmeticError("F fails at pair 200")
        return (np.where(g[0] == inf_at, math.inf, g[0]),) + tuple(g[1:])

    monkeypatch.setattr(nilcarnot.shear, "PAIR_BLOCK", block)
    with pytest.raises(ArithmeticError, match="pair 200"):
        bilip_estimate(l5, f, sampler)
    seen.clear()
    assert bilip_estimate(l5, lambda g: f(g, raise_at=None), sampler) == (math.inf, 0.0)
    assert sum(seen) == 2 * sampler.count


@pytest.mark.parametrize("count", [0, -3])
def test_an_estimator_asked_for_no_pair_says_so(dec_l5, ladder_shear, sigma_component, count):
    sampler = SamplerConfig(seed=42, count=count, radius=4.0)
    runs = {
        "bilip_estimate": lambda: bilip_estimate(dec_l5.base, lambda g: g, sampler),
        "necessity_check": lambda: necessity_check(dec_l5, ladder_shear, count=count),
        "holder_norm_estimate": lambda: holder_norm_estimate(dec_l5, sigma_component, sampler),
    }
    for name, run in runs.items():
        with pytest.raises(ValueError, match=rf"^{name} needs at least 1 sampled pair, not count={count}$"):
            run()


def test_holder_norm_estimate_with_every_pair_skipped_says_so(dec_l5, sigma_component):
    """At radius 1e-14 every sampled quotient pair is closer than 1e-12: no ratio was measured."""
    with pytest.raises(
        ValueError,
        match=r"^holder_norm_estimate skipped all 5 sampled pairs: each was closer than 1e-12, so no ratio was measured$",
    ):
        holder_norm_estimate(dec_l5, sigma_component, SamplerConfig(seed=42, count=5, radius=1e-14))


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
        w = as_float(dec_l5.w.embed((0.0, 0.0, rng.symmetric(4.0), 0.0, rng.symmetric(4.0))))
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
    # paths.  The bits of the layer-1 coordinates and the zigzag segments
    # were recorded before the bracket and BCH kernels of the two scalar
    # modes were merged.  The lift values (index 5) integrate segments that
    # start at or cross q1 = 0 split and graded there, and each lies within
    # 1e-15 of its tol=1e-14 value
    dec = decompose(direct_product(ladder5(), engel4(), 2))
    sigma = component_from_exprs(dec, 1, SIGMA)
    smap = build_shear(dec, {1: sigma})
    assert sorted(smap.components) == [1, 3]
    shifted = {
        (0.5, -0.2, 1.0, 0.3, 0.1, -0.4, 0.8, -1.1, 0.6, 0.25): ("0x1.50f44d8921244p+0", "-0x1.9eff385e79ad1p-2"),
        (-1.3, 0.4, -2.1, 0.7, -0.6, 1.2, 0.9, 0.35, -0.8, 1.5): ("-0x1.6ff2c89dca95fp+1", "0x1.1f5ecda300716p+0"),
    }
    for g, (c2, c5) in shifted.items():
        want = list(g)
        want[2], want[5] = float.fromhex(c2), float.fromhex(c5)
        assert _hexes(apply_shear(smap, g)) == _hexes(want)

    lifted = lift(dec, sigma)
    want = [0.0] * 10
    want[5] = float.fromhex("-0x1.8fcfdb2b6c92ap-2")
    assert _hexes(lifted.eval((0.7, -0.4, 1.1, 0.3, -0.9))) == _hexes(want)
    # the same integral to 1e-14, on unsplit segments (no trees)
    bare = dataclasses.replace(sigma, trees=None)
    path = horizontal_connect(dec.quotient_carnot, (0.7, -0.4, 1.1, 0.3, -0.9))
    assert abs(want[5] - integrate_bracket_forms(dec, bare, [(path, 1e-14)])[0][5]) <= 1e-15

    path = horizontal_connect(dec.quotient_carnot, (1.2, -0.5, 0.8, 0.6, -0.3))
    e1, e2 = (0.0, 1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0, 0.0)
    t1, t2 = float.fromhex("0x1.8c97ef43f7248p-1"), float.fromhex("0x1.739f352fc161ap-1")
    want = [((1.2, -0.5, 0.8, 0.0, 0.0), 1.0)]
    want += [(e1, t1), (e2, t1), (vneg(e1), t1), (vneg(e2), t1)]
    for d in (e1, e2, e1, vneg(e2), vneg(e1), vneg(e1), e1, e2, vneg(e1), vneg(e2)):
        want.append((d, t2))
    assert [(_hexes(d), t.hex()) for d, t in path.segments] == [(_hexes(d), t.hex()) for d, t in want]


def _sigma_shear(dec):
    return build_shear(dec, {1: component_from_exprs(dec, 1, SIGMA)})


def _bilip_points(alg, sampler):
    rng = CounterRng(sampler.seed)
    return [sample_ball_point(rng, alg, sampler.radius) for _ in range(2 * sampler.count)]


def _column_hexes(cols, n):
    return [_hexes(p) for p in column_points(cols, n)]


def test_batched_1d_chain_gives_the_one_point_bits(dec_l5):
    # every point bilip_estimate draws on seed 42, in sample order, as
    # columns: each gets the bits of one-point calls
    points = _bilip_points(dec_l5.base, SamplerConfig(42, 1000, 10.0))
    one, many = _sigma_shear(dec_l5), _sigma_shear(dec_l5)
    want = [_hexes(apply_shear(one, g)) for g in points]
    assert _column_hexes(apply_shear(many, columns(points)), len(points)) == want
    # again, on the same lift
    assert _column_hexes(apply_shear(many, columns(points)), len(points)) == want
    # the many-point form is eval itself, so an eval put in its place sees
    # the column call: there is no second callable left behind
    lifted, calls = many.components[3], []
    wrapped = dataclasses.replace(lifted, eval=lambda q: calls.append(q) or lifted.eval(q))
    qs = dec_l5.project(columns(points[:50]))
    got = ShearMap(dec_l5, {1: many.components[1], 3: wrapped}).s_value(qs)
    assert _column_hexes(got, 50) == [_hexes(one.s_value(dec_l5.project(g))) for g in points[:50]]
    assert len(calls) == 1 and scalar_mode(calls[0], arrays="columns") == "columns"


def test_batched_multid_lift_gives_the_one_point_bits(dec_multid):
    qc = dec_multid.quotient_carnot
    rng = CounterRng(3)
    points = [sample_ball_point(rng, qc, 4.0) for _ in range(20)]
    sigma = component_from_exprs(dec_multid, 1, SIGMA)
    one = lift(dec_multid, sigma)
    many = lift(dec_multid, sigma)
    want = [_hexes(one.eval(q)) for q in points]
    assert _column_hexes(many.eval(columns(points + points[:3])), 23) == want + want[:3]


def test_s_value_on_columns_matches_one_point_calls(dec_l5):
    points = [(x,) for x in (0.0, 2.5, -1.25, 2.5, 7.0, -0.5)]
    one, many = _sigma_shear(dec_l5), _sigma_shear(dec_l5)
    assert _column_hexes(many.s_value(columns(points)), 6) == [_hexes(one.s_value(q)) for q in points]


def test_negated_lift_keeps_its_many_point_form(dec_l5):
    # F0^-1 in conjugate_by_shear is a negated map: its lifted layer still
    # takes columns, with the bits of one point at a time
    points = [(x,) for x in (0.0, 2.5, -1.25, 2.5, 7.0, -0.5, 3.75)]
    one, many = _sigma_shear(dec_l5).negated(), _sigma_shear(dec_l5).negated()
    want = [_hexes(one.components[3].eval(q)) for q in points]
    assert _column_hexes(many.components[3].eval(columns(points)), 7) == want
    assert _column_hexes(many.s_value(columns(points)), 7) == [_hexes(one.s_value(q)) for q in points]
    assert one.s_value((2.5,)) == vneg(_sigma_shear(dec_l5).s_value((2.5,)))


def test_s_value_on_columns_keeps_the_point_order_when_a_component_reads_a_chain(dec_l5, sigma_component):
    # a component without trees that evaluates the lift at other points, in
    # another order than s_value takes them, moves no value of the lift
    def reading_shear():
        chain = lift(dec_l5, sigma_component)
        reader = ShearComponent(1, lambda q: tuple(0.0 * a for a in chain.eval((q[0] + 0.3,))))
        return ShearMap(dec_l5, {3: chain, 1: reader})

    points = [(x,) for x in (2.0, 2.45, -1.0, 2.2, 0.9, 3.1)]
    one, many = reading_shear(), reading_shear()
    assert _column_hexes(many.s_value(columns(points)), 6) == [_hexes(one.s_value(q)) for q in points]


@pytest.mark.parametrize("count", [1, PAIR_BLOCK, PAIR_BLOCK + 1])
def test_one_call_per_block_on_columns_gives_the_bits_of_mapping_each_point_alone(dec_l5, dec_multid, count):
    # over ladder5 the lift sends segment columns, over ladder5 x engel4 zigzag paths
    for dec, radius in ((dec_l5, 10.0), (dec_multid, 4.0)):
        sampler = SamplerConfig(42, count, radius)
        alone, block = _sigma_shear(dec), _sigma_shear(dec)
        want = bilip_estimate(dec.base, lambda g: columns([apply_shear(alone, p) for p in column_points(g)]), sampler)
        got = bilip_estimate(dec.base, lambda g: apply_shear(block, g), sampler)
        assert [a.hex() for a in got] == [a.hex() for a in want]


def _estimate_hexes(dec, seed, radius, holder_radius, count):
    """float.hex of bilip_estimate on sigma's shear, necessity_check's
    per_radius and holder_norm_estimate of sigma, at ``count`` pairs."""
    smap = _sigma_shear(dec)
    bilip = bilip_estimate(dec.base, lambda g: apply_shear(smap, g), SamplerConfig(seed, count, radius))
    report = necessity_check(dec, smap, seed=seed, count=count)
    holder = holder_norm_estimate(dec, smap.components[1], SamplerConfig(seed, count, holder_radius))
    per_radius = {r: {i: v.hex() for i, v in layers.items()} for r, layers in report.per_radius.items()}
    return _hexes(bilip), per_radius, holder.hex()


# (seed, radius, holder radius, stalled counters): seed 42 at desk scale; seed 7
# with 65 of 300 pairs closer than 1e-9 and 25 of 300 quotient pairs closer than
# 1e-12; and seed 42 with the sixth ambient point's coordinates drawn as 0.0, so
# that point is drawn again, as are five quotient draws in a row
ESTIMATE_CASES = [(42, 10.0, 10.0, ()), (7, 2e-9, 1e-11, ()), (42, 10.0, 10.0, range(36, 42))]


@pytest.mark.parametrize("seed, radius, holder_radius, stall", ESTIMATE_CASES)
def test_the_estimates_do_not_depend_on_the_block_size(dec_l5, monkeypatch, seed, radius, holder_radius, stall):
    count = 300
    monkeypatch.setattr(nilcarnot.shear, "CounterRng", lambda s: Stalling(s, stall))
    got = {}
    for block in (1, 7, 64, 256, count):
        monkeypatch.setattr(nilcarnot.shear, "PAIR_BLOCK", block)
        got[block] = _estimate_hexes(dec_l5, seed, radius, holder_radius, count)
    assert all(v == got[count] for v in got.values())


def test_necessity_check_values_are_pinned(dec_l5):
    # layer 1 recorded while every s-value was evaluated one point at a time;
    # layer 3 re-pinned when the one-dimensional lift became one segment from 0 per point
    report = necessity_check(dec_l5, _sigma_shear(dec_l5), seed=42, count=300)
    assert {r: {i: v.hex() for i, v in layers.items()} for r, layers in report.per_radius.items()} == {
        1.0: {1: "0x1.6a088cff09264p+0", 3: "0x1.e8f8674b6ecb3p-1"},
        10.0: {1: "0x1.688c6a5294075p+0", 3: "0x1.e64ec7064cb3dp-1"},
        100.0: {1: "0x1.82d664476540dp-2", 3: "0x1.210865998d341p-1"},
    }


@pytest.mark.parametrize("multid", [False, True])
def test_a_failing_batch_leaves_the_lift_as_it_was(dec_l5, dec_multid, multid):
    # the component overflows to inf at q1 = 1e5; over ladder5 the lift sends
    # segment columns, over ladder5 x engel4 zigzag paths, whose loop test at
    # radius 4 sees only the q1*q1 that 1e300*q1*q1 would fail by rounding
    dec = dec_multid if multid else dec_l5
    expr = "q1*q1 + 1e300*max(q1-1e4, 0)*max(q1-1e4, 0)" if multid else "1e300*q1*q1"
    comp = component_from_exprs(dec, 1, expr)
    used, fresh = (lift(dec, comp) for _ in range(2))
    dim = dec.quotient_carnot.dim
    points = [tuple(x if i == 0 else 0.0 for i in range(dim)) for x in (1.5, -2.0, 3.0)]
    far = tuple(1e5 if i == 0 else 0.0 for i in range(dim))
    with pytest.raises(ValueError, match="not finite"):
        used.eval(columns(points + [far]))
    assert _column_hexes(used.eval(columns(points)), 3) == _column_hexes(fresh.eval(columns(points)), 3)


# Holder at q1 = 1: off 0, so a segment from 0 past 1 is split there
HOLDER_OFF_GRID = "sqrt(abs(q1-1))"


def _lift_hexes(lifted, qs, form):
    """The lift at the points qs: one call per point, or one call on their columns."""
    if form == "point":
        return [_hexes(lifted.eval(q)) for q in qs]
    return _column_hexes(lifted.eval(columns(qs)), len(qs))


@pytest.mark.parametrize("form", ["point", "columns"])
@pytest.mark.parametrize("expr", [SIGMA, HOLDER_OFF_GRID])
def test_a_1d_lift_value_does_not_depend_on_the_points_asked_before(dec_l5, expr, form):
    first, after = (lift(dec_l5, component_from_exprs(dec_l5, 1, expr)) for _ in range(2))
    _lift_hexes(after, [(1.7,)], form)
    assert _lift_hexes(first, [(3.3,)], form) == _lift_hexes(after, [(3.3,)], form)


@pytest.mark.parametrize("form", ["point", "columns"])
@pytest.mark.parametrize("expr", [SIGMA, HOLDER_OFF_GRID])
def test_a_1d_lift_walked_by_an_estimate_gives_the_bits_of_a_fresh_one(dec_l5, expr, form):
    walked, fresh = (build_shear(dec_l5, {1: component_from_exprs(dec_l5, 1, expr)}) for _ in range(2))
    bilip_estimate(dec_l5.base, lambda g: apply_shear(walked, g), SamplerConfig(42, 1000, 10.0))
    rng = CounterRng(5)
    probes = [sample_ball_point(rng, dec_l5.quotient_carnot, 10.0) for _ in range(50)]
    assert _lift_hexes(walked.components[3], probes, form) == _lift_hexes(fresh.components[3], probes, form)


@pytest.mark.parametrize("form", ["point", "columns"])
def test_a_1d_lift_meets_its_tolerance_against_the_closed_form(dec_l5, form):
    # the lift of sigma is s_3 = -(2/3)|q|^(3/2); sigma is only Holder at 0
    qs = [(q,) for q in (1e-9, 1e-6, -1e-4, 1e-3, 0.05, 0.3, 1.3, 3.3, -7.7, 22.0)]
    lifted = lift(dec_l5, component_from_exprs(dec_l5, 1, SIGMA))
    for (q,), value in zip(qs, _lift_hexes(lifted, qs, form)):
        assert abs(float.fromhex(value[5]) + (2.0 / 3.0) * abs(q) ** 1.5) <= DEFAULT_TOL


def _zigzag_lift(dec, component, x):
    """The lift at (x,) integrated along its zigzag path from 0."""
    path = horizontal_connect(dec.quotient_carnot, (x,))
    return integrate_bracket_forms(dec, component, [(path, DEFAULT_TOL)])[0]


def test_the_1d_lift_gives_the_bits_of_its_zigzag_path(dec_l5):
    """Each point is the one segment of its zigzag path from 0, so the lift
    has the bits of integrating that path: at signed zeros, near 0, far
    out and at a point repeated within one call; one point at a time, and
    as columns."""
    near = [0.0, -0.0, 1e-13, -3e-15, 1.25, -0.875, 2.7, 2.7, -0.875, 1.3, -1e-13, 1.125, -2.75]
    cases = ((SIGMA, near + [1e8, -1e8]), (HOLDER_OFF_GRID, near + [1e8]), ("q1", near[:6] + [1e8, -1e8] + near[6:] + [-1e8]))
    for expr, xs in cases:
        component = component_from_exprs(dec_l5, 1, expr)
        want = [_hexes(_zigzag_lift(dec_l5, component, x)) for x in xs]
        assert want[0] == want[1] == [(0.0).hex()] * 6
        for form in ("point", "columns"):
            assert _lift_hexes(lift(dec_l5, component), [(x,) for x in xs], form) == want
    # the segment from 0 to -1e8 holds no root of sqrt(abs(q1-1)) to split at: the
    # path and the lift miss DEFAULT_TOL alike
    component = component_from_exprs(dec_l5, 1, HOLDER_OFF_GRID)
    with pytest.raises(QuadratureError) as path:
        _zigzag_lift(dec_l5, component, -1e8)
    with pytest.raises(QuadratureError) as lifted:
        lift(dec_l5, component).eval((-1e8,))
    assert str(lifted.value) == str(path.value)


@pytest.mark.parametrize("form", ["point", "columns"])
def test_a_1d_lift_makes_one_job_per_nonzero_point(dec_l5, monkeypatch, form):
    import nilcarnot.shear

    calls, many = [], nilcarnot.shear.integrate_bracket_segments
    monkeypatch.setattr(nilcarnot.shear, "integrate_bracket_segments", lambda *a: calls.append(a) or many(*a))
    lifted = lift(dec_l5, component_from_exprs(dec_l5, 1, "q1"))
    xs = [1e8, 0.0, -1e8, -0.0, 2.5, 2.5]
    _lift_hexes(lifted, [(x,) for x in xs], form)
    # one segment from 0 with step x and duration 1 per nonzero point, a
    # repeated point included, however far it lies; a zero makes none
    starts, steps, durations, tols = (np.concatenate([a[k].ravel() for a in calls]) for k in range(2, 6))
    assert len(calls) == (len(xs) if form == "point" else 1)
    assert steps.tolist() == [1e8, -1e8, 2.5, 2.5] and starts.tolist() == [0.0] * 4
    assert durations.tolist() == [1.0] * 4 and tols.tolist() == [DEFAULT_TOL] * 4


def test_a_1d_lift_of_sin_raises_at_1000(dec_l5):
    # one segment from 0 to 1000 holds 159 periods, which DEFAULT_TOL cannot
    # meet within MAX_EVALS; the lift raises instead of answering
    with pytest.raises(QuadratureError):
        lift(dec_l5, component_from_exprs(dec_l5, 1, "sin(q1)")).eval((1000.0,))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the quadrature accepts a job on its first five nodes, which alias sin(k*q1) near k*q = 8*pi*n",
)
@settings(max_examples=15, deadline=None)
@example(k=5.657442861305952, q=-4.434559218710991)  # k*q = -25.088: 0.0986 against -0.000175
@given(k=st.floats(0.25, 4.0), q=st.floats(-100.0, 100.0))
def test_a_1d_lift_of_sin_kq_meets_its_tolerance_or_raises(dec_l5, k, q):
    # the lift of sin(k*q1) is (cos(k*q) - 1)/k; a miss raises in about 0.6 s
    lifted = lift(dec_l5, component_from_exprs(dec_l5, 1, f"sin({k!r}*q1)"))
    try:
        value = lifted.eval((q,))[5]
    except QuadratureError:
        return
    assert abs(value - (math.cos(k * q) - 1.0) / k) <= DEFAULT_TOL


def test_a_lift_on_columns_keeps_no_state_per_point(dec_l5):
    # a lift keeps no state: fresh points add nothing to it
    import tracemalloc

    lifted = lift(dec_l5, component_from_exprs(dec_l5, 1, SIGMA))
    qs = np.random.default_rng(0).uniform(-10.0, 10.0, 5200)
    lifted.eval((qs[:200],))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for start in range(200, len(qs), 128):
            lifted.eval((qs[start : start + 128],))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 0.5e6


def test_holder_norm_estimate_survives_an_overflowing_square(dec_l5):
    # (1e200 * dq1) ** 2 overflows, though the difference itself is finite
    sampler = SamplerConfig(5, 20, 4.0)
    big = holder_norm_estimate(dec_l5, component_from_exprs(dec_l5, 1, "1e200*q1"), sampler)
    small = holder_norm_estimate(dec_l5, component_from_exprs(dec_l5, 1, "q1"), sampler)
    assert math.isfinite(big) and big == pytest.approx(1e200 * small, rel=1e-12)
