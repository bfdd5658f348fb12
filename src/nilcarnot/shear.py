"""Shear maps g -> g * s(gbar) and their verification machinery.

A shear component is a map from quotient coordinates into one center
layer of the ideal.  Components at layers above the exponent are never
free: they are recursive lifts (path integrals of the bracket pairing)
of the base components, or vanish when the exponent is not an integer.
``build_shear`` assembles the full tower; the K-function, necessity
ratios and sampling estimators probe the biLipschitz property at desk
scale.

Every lift integrates to ``quadrature.DEFAULT_TOL``, one segment at a
time.  The loop test flags a loop integral above ``1e-8`` times the loop
length (scaled by the component's Holder hint), and integrates each loop
to a tenth of that threshold, not to ``DEFAULT_TOL``; it integrates all
segments of all its loops at once, on node arrays
(``carnot.integrate_bracket_forms``), with the bits of the one-segment
path.  A loop integral that is not finite fails the test.  Lifted
evaluators memoize per
input point, keyed on its coordinates as a float tuple; memo writes are
idempotent, so concurrent readers are safe.  All estimators draw from
the counter-based generator in :mod:`nilcarnot.rng` and are
deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import linalg
from .algebra import GradedAlgebra
from .carnot import (
    CbCDecomposition,
    HorizontalPath,
    horizontal_connect,
    integrate_bracket_form,
    integrate_bracket_forms,
)
from .exprlang import parse_expression
from .group import bch, dilate, quasi_dist
from .linalg import as_float, vadd, vneg, vscale
from .quadrature import DEFAULT_TOL
from .rng import CounterRng, SamplerConfig, sample_ball_point


class MembershipError(ValueError):
    """A component failed the closed-loop integral test."""


class PathDependenceError(ArithmeticError):
    """Two independent horizontal paths gave different lift values."""


@dataclass(frozen=True, eq=False)
class ShearComponent:
    """A map from quotient coordinates into the center layer Z_j.

    ``eval`` maps a float tuple of quotient coordinates to a float tuple
    of ambient coordinates, so callers use its values as they are;
    ``trees`` optionally holds one expression tree per RREF basis row of
    Z_j (enabling symbolic derivatives), and ``holder_hint`` an a-priori
    bound for the j/alpha-Holder norm.  The loop test evaluates the
    trees' numpy code when ``trees`` is set, and ``eval`` otherwise, so an
    ``eval`` replaced next to trees must agree with them.
    """

    layer: int
    eval: object
    trees: tuple | None = None
    holder_hint: float | None = None

    def scaled(self, factor):
        inner = self.eval
        return ShearComponent(
            self.layer,
            lambda q, _f=float(factor), _e=inner: vscale(_f, _e(q)),
            None,
            None if self.holder_hint is None else abs(factor) * self.holder_hint,
        )


def component_from_exprs(dec: CbCDecomposition, layer: int, exprs, holder_hint=None) -> ShearComponent:
    """Build a component from scalar expressions over q1..qn.

    One expression per RREF basis row of Z_layer, in order; a single
    string is accepted when the layer is one-dimensional.
    """
    z = dec.z_layer(layer)
    if z is None:
        raise ValueError(f"center layer {layer} is zero")
    if isinstance(exprs, str):
        exprs = [exprs]
    if len(exprs) != z.rank:
        raise ValueError(f"layer {layer} needs {z.rank} expression(s), got {len(exprs)}")
    qdim = dec.quotient_carnot.dim
    trees = tuple(
        parse_expression(e, qdim) if isinstance(e, str) else e for e in exprs
    )
    rows = z.rows_float

    def evaluate(q):
        return linalg.combine([tree.scalar(q) for tree in trees], rows)

    return ShearComponent(layer, evaluate, trees, holder_hint)


def zero_component(dec: CbCDecomposition, layer: int) -> ShearComponent:
    n = dec.base.dim
    return ShearComponent(layer, lambda q: (0.0,) * n, None, 0.0)


@dataclass(frozen=True)
class LoopVerdict:
    """``worst_ratio``: the largest |loop integral| / bound over the loops integrated."""

    loops_tested: int
    worst_ratio: float

    @property
    def passed(self):
        return self.worst_ratio <= 1.0


def loop_test_membership(
    dec: CbCDecomposition,
    component: ShearComponent,
    budget: SamplerConfig = SamplerConfig(seed=7, count=24, radius=4.0),
) -> LoopVerdict:
    """Falsification test for vanishing loop integrals.

    Integrates [c, theta_H] over commutator rectangles at random
    basepoints and scales, closed up by a zigzag path back to the
    basepoint.  A loop fails when its integral exceeds
    ``bound = 1e-8 * length * hint``; each of its segments is integrated
    to ``bound / (10 * segments)``, a tenth of the bound in all, at any
    loop scale (lifts keep ``DEFAULT_TOL``).  All loops are built first,
    then every segment of every loop is integrated in lockstep by one
    ``integrate_bracket_forms`` call.  The verdict passes when no loop's
    ratio |integral| / bound exceeds 1; a loop integral that is not
    finite counts as ratio inf.  Passing is evidence, not proof, of
    membership.
    """
    qc = dec.quotient_carnot
    rng = CounterRng(budget.seed)
    first = qc.layer_indices(1)
    if qc.dim == 1:
        # every horizontal loop is a backtrack: the integral vanishes for
        # any continuous component, so there is nothing to falsify
        return LoopVerdict(0, 0.0)
    hint = max(1.0, component.holder_hint or 1.0)
    loops = []
    for _ in range(budget.count):
        base = sample_ball_point(rng, qc, budget.radius)
        t = budget.radius * (1.0 - rng.uniform())
        dir1 = [0.0] * qc.dim
        dir2 = [0.0] * qc.dim
        for i in first:
            dir1[i] = rng.symmetric()
            dir2[i] = rng.symmetric()
        n1 = math.sqrt(sum(a * a for a in dir1))
        n2 = math.sqrt(sum(a * a for a in dir2))
        if n1 < 1e-9 or n2 < 1e-9:
            continue
        d1 = tuple(a / n1 for a in dir1)
        d2 = tuple(a / n2 for a in dir2)
        segs = [(d1, t), (d2, t), (vneg(d1), t), (vneg(d2), t)]
        pos = base
        for direction, duration in segs:
            pos = bch(qc, pos, vscale(duration, direction))
        # close the rectangle word back to the basepoint
        rel = bch(qc, vneg(pos), base)
        closing = horizontal_connect(qc, rel)
        segs.extend(closing.segments)
        loops.append(HorizontalPath(qc, base, tuple(segs)))
    bounds = [1e-8 * loop.length * hint for loop in loops]
    values = integrate_bracket_forms(
        dec, component, [(loop, bound / (10 * loop.segment_count)) for loop, bound in zip(loops, bounds)]
    )
    worst = 0.0
    for val, bound in zip(values, bounds):
        ratio = math.sqrt(sum(a * a for a in val)) / bound
        # a nan would drop out of max() and pass the loop
        worst = max(worst, ratio if all(map(math.isfinite, val)) else math.inf)
    return LoopVerdict(len(loops), worst)


def lift(dec: CbCDecomposition, component: ShearComponent, waive_membership: bool = False) -> ShearComponent:
    """The next-layer component: integrate [c, theta_H] from 0 to p.

    Membership in the loop-integral space is tested first unless
    explicitly waived; a waiver switches on per-evaluation verification
    with a second independent path.  Over a one-dimensional quotient the
    evaluator chains from the nearest previously computed point (the
    integral is an antiderivative along the line), which keeps dense
    sampling cheap; values are memoized either way.
    """
    if not dec.alpha_is_integer:
        raise ValueError("lifts require an integer exponent")
    if not waive_membership:
        verdict = loop_test_membership(dec, component)
        if not verdict.passed:
            raise MembershipError(
                f"loop integrals do not vanish (worst |integral| / bound {verdict.worst_ratio:.3e})"
            )
    target_layer = component.layer + int(dec.alpha)
    qc = dec.quotient_carnot
    memo: dict = {}
    verify = waive_membership

    if qc.dim == 1 and not verify:
        # one-dimensional quotient: the integral is an antiderivative
        # along the line, so chain from the nearest cached point
        import bisect

        xs = [0.0]
        vals = {0.0: (0.0,) * dec.base.dim}

        def evaluate(q):
            key = float(q[0])
            hit = vals.get(key)
            if hit is not None:
                return hit
            pos = bisect.bisect_left(xs, key)
            candidates = [xs[i] for i in (pos - 1, pos) if 0 <= i < len(xs)]
            base = min(candidates, key=lambda x: abs(x - key))
            length = abs(key - base)
            direction = (1.0,) if key > base else (-1.0,)
            path = HorizontalPath(qc, (base,), ((direction, length),))
            delta = integrate_bracket_form(dec, component, path)
            val = vadd(vals[base], delta)
            bisect.insort(xs, key)
            vals[key] = val
            return val

        return ShearComponent(target_layer, evaluate, None, None)

    def evaluate(q):
        key = tuple(float(a) for a in q)
        hit = memo.get(key)
        if hit is not None:
            return hit
        path = horizontal_connect(qc, key)
        val = integrate_bracket_form(dec, component, path)
        if verify and any(a != 0.0 for a in key):
            mid = dilate(qc, 0.5, key)
            rel = bch(qc, vneg(mid), key)
            alt_segments = horizontal_connect(qc, mid).segments + horizontal_connect(qc, rel).segments
            alt = integrate_bracket_form(dec, component, HorizontalPath(qc, (0.0,) * qc.dim, alt_segments))
            gap = linalg.max_gap(val, alt)
            scale = max(1.0, max(abs(a) for a in val))
            if gap > 10.0 * DEFAULT_TOL * scale:
                raise PathDependenceError(
                    f"independent paths to {key} disagree by {gap:.3e}"
                )
        memo[key] = val
        return val

    return ShearComponent(target_layer, evaluate, None, None)


@dataclass(frozen=True, eq=False)
class ShearMap:
    """F(g) = g * s(gbar) with s summed over center-layer components."""

    dec: CbCDecomposition
    components: dict

    def s_value(self, qcoords):
        out = (0.0,) * self.dec.base.dim
        q = as_float(qcoords)
        for comp in self.components.values():
            out = vadd(out, comp.eval(q))
        return out

    def negated(self) -> "ShearMap":
        return ShearMap(
            self.dec, {j: c.scaled(-1.0) for j, c in self.components.items()}
        )


def build_shear(dec: CbCDecomposition, base_components: dict, waive_membership: bool = False) -> ShearMap:
    """Assemble the full shear tower from base components at layers <= alpha.

    The base component at j is lifted once per layer of
    ``dec.lift_tower[j]`` (j + alpha, j + 2 alpha, ...), each lift
    integrating the one below it; the table is empty for a non-integer
    exponent, where components above alpha are identically zero.
    """
    components = {}
    for j, comp in base_components.items():
        if j > dec.alpha:
            raise ValueError(f"base component layer {j} exceeds the exponent {dec.alpha}")
        if dec.z_layer(j) is None:
            raise ValueError(f"base component at zero center layer {j}")
        if comp.layer != j:
            raise ValueError("component layer tag does not match its key")
        components[j] = comp
    for j in sorted(base_components):
        current = components[j]
        for layer in dec.lift_tower[j]:
            current = lift(dec, current, waive_membership=waive_membership)
            components[layer] = current
    return ShearMap(dec, components)


def apply_shear(smap: ShearMap, g):
    gf = as_float(g)
    qbar = smap.dec.project(gf)
    return bch(smap.dec.base, gf, smap.s_value(qbar))


def k_function(dec: CbCDecomposition, smap: ShearMap, g1, g2):
    """K(g1bar, g2bar) = s(g2bar) * u^-1 * (-s(g1bar)) * u with u = g1^-1 * g2."""
    alg = dec.base
    g1f, g2f = as_float(g1), as_float(g2)
    u = bch(alg, vneg(g1f), g2f)
    s1 = smap.s_value(dec.project(g1f))
    s2 = smap.s_value(dec.project(g2f))
    out = bch(alg, s2, vneg(u))
    out = bch(alg, out, vneg(s1))
    return bch(alg, out, u)


@dataclass(frozen=True)
class NecessityReport:
    per_radius: dict
    cc_surrogate: str = "quotient quasi-norm distance in place of the Carnot metric"

    def max_ratio(self, radius):
        layer_map = self.per_radius[radius]
        return max(layer_map.values()) if layer_map else 0.0


def necessity_check(
    dec: CbCDecomposition,
    smap: ShearMap,
    seed: int = 42,
    count: int = 300,
    radii=(1.0, 10.0, 100.0),
) -> NecessityReport:
    """Per-layer ratios |pi_i K|^(1/i) / dbar^(1/alpha) over sampled pairs.

    Basepoints are drawn in balls of each radius; the second point sits
    at a unit-scale offset so that growth of the ratios with the radius
    is visible.  The quotient Carnot metric is replaced by the quotient
    quasi-norm distance (flagged in the report).
    """
    qc = dec.quotient_carnot
    alpha = float(dec.alpha)
    out = {}
    layers = sorted(dec.z_layers)
    for radius in radii:
        rng = CounterRng(seed)
        worst = {i: 0.0 for i in layers}
        for _ in range(count):
            q1 = sample_ball_point(rng, qc, radius)
            off = sample_ball_point(rng, qc, 1.0)
            q2 = bch(qc, q1, off)
            d = quasi_dist(qc, q1, q2)
            if d < 1e-9:
                continue
            k = k_function(dec, smap, dec.lift(q1), dec.lift(q2))
            for i in layers:
                comp = dec.w_layer_project(k, i)
                size = math.sqrt(sum(float(a) ** 2 for a in comp))
                if size == 0.0:
                    continue
                ratio = size ** (1.0 / i) / d ** (1.0 / alpha)
                worst[i] = max(worst[i], ratio)
        out[radius] = worst
    return NecessityReport(out)


def holder_norm_estimate(
    dec: CbCDecomposition, component: ShearComponent, sampler: SamplerConfig
) -> float:
    """Empirical lower bound for the j/alpha-Holder norm of a component."""
    qc = dec.quotient_carnot
    rng = CounterRng(sampler.seed)
    exponent = component.layer / float(dec.alpha)
    best = 0.0
    for _ in range(sampler.count):
        p = sample_ball_point(rng, qc, sampler.radius)
        q = sample_ball_point(rng, qc, sampler.radius)
        d = quasi_dist(qc, p, q)
        if d < 1e-12:
            continue
        vp = component.eval(p)
        vq = component.eval(q)
        num = math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(vp, vq)))
        best = max(best, num / d**exponent)
    return best


def bilip_estimate(alg: GradedAlgebra, f, sampler: SamplerConfig):
    """Empirical (sup, inf) of rho(F x, F y) / rho(x, y) over sampled pairs."""
    rng = CounterRng(sampler.seed)
    sup_ratio = 0.0
    inf_ratio = math.inf
    for _ in range(sampler.count):
        x = sample_ball_point(rng, alg, sampler.radius)
        y = sample_ball_point(rng, alg, sampler.radius)
        d = quasi_dist(alg, x, y)
        if d < 1e-9:
            continue
        ratio = quasi_dist(alg, f(x), f(y)) / d
        sup_ratio = max(sup_ratio, ratio)
        inf_ratio = min(inf_ratio, ratio)
    return sup_ratio, inf_ratio
