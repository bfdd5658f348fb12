"""Shear maps g -> g * s(gbar) and their verification machinery.

A shear component is a map from quotient coordinates into one center
layer of the ideal.  Components at layers above the exponent are never
free: they are recursive lifts (path integrals of the bracket pairing)
of the base components, or vanish when the exponent is not an integer.
``build_shear`` assembles the full tower; the K-function, necessity
ratios and sampling estimators probe the biLipschitz property at desk
scale.

A component's ``eval`` takes coordinate columns (:mod:`nilcarnot.linalg`)
and returns coordinate columns, with the bits of one point at a time.  A
single point enters in one place: ``ShearMap.s_value`` (and so
``apply_shear``) takes one point or columns, and sends a point to the
components as one column.  Every lift integrates each point's path to
``quadrature.DEFAULT_TOL`` and keeps no state: its values depend only on
the point.  Each call makes one integration call: a lift over a
one-dimensional quotient sends each nonzero point x as one segment from
0 with step x and duration 1 (the zigzag path to x) to one
``carnot.integrate_bracket_segments`` call, and any other lift sends its
paths to one ``carnot.integrate_bracket_forms`` call.
The estimators take ``PAIR_BLOCK`` pairs at a time: one sampler call
draws a block as coordinate columns, one call of the map (or of
``s_value``) takes it and one ``quasi_dist`` sweep measures it.  A column
call costs about one numpy dispatch per kernel line whatever its length,
so longer blocks are faster; no estimate depends on the block size, since
the sampler gives the stream of one-point draws, pairs are skipped one by
one and the sup and inf do not depend on the order.  An estimator asked
for fewer than one pair, or that skipped every pair, raises
``ValueError``.  The loop test flags a loop integral above ``1e-8``
times the loop length, and integrates all segments of all its loops at
once, each loop to a tenth of that threshold, not to ``DEFAULT_TOL``.  A
loop integral that is not finite fails the test.  All estimators draw
from the counter-based generator in :mod:`nilcarnot.rng` and are
deterministic per seed.  ``lift_coherence`` checks a lift against the
integral along a second path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import GradedAlgebra
from .carnot import (
    CbCDecomposition,
    HorizontalPath,
    horizontal_connect,
    integrate_bracket_forms,
    integrate_bracket_segments,
)
from .exprlang import parse_expression
from .group import bch, dilate, quasi_dist
from .linalg import as_float, length, pairs, power, vadd, vneg, vscale
from .quadrature import DEFAULT_TOL
from .rng import CounterRng, SamplerConfig, sample_ball_point


# pairs that the estimators draw, map and measure in one call each.  A column
# call pays about one numpy dispatch per kernel line whatever its length (on
# ladder5, group.bch takes 65 us for 2 points and 115 us for 512, apply_shear
# 0.39 and 1.02 ms), so a shear_verify_ladder5 op runs about a third faster at
# 256 than at 64.  The block arrays add 0.1 MB of peak RSS at 256 and 2.5 MB at
# 1024 (see CHANGES.md).
PAIR_BLOCK = 256


class MembershipError(ValueError):
    """A component failed the closed-loop integral test."""


@dataclass(frozen=True, eq=False)
class ShearComponent:
    """A map from quotient coordinates into the center layer Z_j.

    ``eval`` maps coordinate columns of quotient points to coordinate
    columns of ambient points, with the bits of one point at a time, so
    callers use its values as they are; one point goes in as one column
    (``ShearMap.s_value``).  ``trees`` optionally holds one expression
    tree per RREF basis row of Z_j, read for symbolic derivatives and for
    the kinks at which ``carnot.integrate_bracket_segments`` splits and
    grades a segment.
    """

    layer: int
    eval: object
    trees: tuple | None = None

    def scaled(self, factor):
        """``factor`` times this component, on coordinate columns."""
        f, inner = float(factor), self.eval
        return ShearComponent(self.layer, lambda q: vscale(f, inner(q)))


def component_from_exprs(dec: CbCDecomposition, layer: int, exprs) -> ShearComponent:
    """Build a component from scalar expressions over q1..qn.

    One expression per RREF basis row of Z_layer, in order; a single
    string is accepted when the layer is one-dimensional.  ``eval`` runs
    the trees' numpy code (``tree.array``) on coordinate columns.
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
    # tree values are float, so the kernel runs on the float twin without a mode check
    kernel, flat = z.embed.kernel, z.embed.flat_float

    def evaluate(q):
        with np.errstate(over="ignore", invalid="ignore"):
            return kernel([tree.array(q) for tree in trees], flat)

    return ShearComponent(layer, evaluate, trees)


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
    ``bound = 1e-8 * length``; each of its segments is integrated
    to ``bound / (10 * segments)``, a tenth of the bound in all, at any
    loop scale (lifts keep ``DEFAULT_TOL``).  All loops are built first,
    then every segment of every loop is integrated at once by one
    ``integrate_bracket_forms`` call; a segment across a root of the
    component's kinks (``exprlang.kinks`` of its trees, in the
    first-layer coordinates) is split there and graded toward it, its
    pieces sharing its tolerance.  The verdict passes when no loop's
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
        rectangle = HorizontalPath(qc, base, ((d1, t), (d2, t), (vneg(d1), t), (vneg(d2), t)))
        # close the rectangle word back to the basepoint
        closing = horizontal_connect(qc, bch(qc, vneg(rectangle.endpoint), base))
        loops.append(rectangle.then(closing.segments))
    bounds = [1e-8 * loop.length for loop in loops]
    values = integrate_bracket_forms(
        dec, component, [(loop, bound / (10 * loop.segment_count)) for loop, bound in zip(loops, bounds)]
    )
    worst = 0.0
    for val, bound in zip(values, bounds):
        ratio = math.sqrt(sum(a * a for a in val)) / bound
        # a nan would drop out of max() and pass the loop
        worst = max(worst, ratio if all(map(math.isfinite, val)) else math.inf)
    return LoopVerdict(len(loops), worst)


def lift(dec: CbCDecomposition, component: ShearComponent) -> ShearComponent:
    """The next-layer component: integrate [c, theta_H] from 0 to p.

    Membership in the loop-integral space is tested first.  ``eval``
    takes coordinate columns, and the jobs of all their points go out in
    one call.

    Over a one-dimensional quotient the zigzag path from 0 to p = (x,) is
    one segment with step x and duration 1, so the points go straight to
    one ``carnot.integrate_bracket_segments`` call, one segment column per
    nonzero point, and a value carries the +0.0 that a path's sum starts
    from: the bits of the zigzag lift.  A point at +-0.0 makes no job and
    reads 0.0.  Each value is one job to ``DEFAULT_TOL`` however far its
    point lies, so a far point of an oscillating component can exhaust
    ``quadrature.MAX_EVALS``.

    Otherwise the integral runs along the zigzag path from 0 to p, and
    the zigzag paths go to one ``integrate_bracket_forms`` call.

    Either way, every segment that holds a root of the component's kinks
    (the ``abs``, ``sqrt`` and ``sign`` arguments of its trees that are
    affine in the first-layer coordinates) is split and graded there by
    ``carnot.integrate_bracket_segments``, as the segment from 0 is for
    sigma.  The lifted component has no trees, so the next lift of the
    tower relies on the quadrature's bisection alone.
    """
    if not dec.alpha_is_integer:
        raise ValueError("lifts require an integer exponent")
    verdict = loop_test_membership(dec, component)
    if not verdict.passed:
        raise MembershipError(f"loop integrals do not vanish (worst |integral| / bound {verdict.worst_ratio:.3e})")
    target_layer = component.layer + int(dec.alpha)
    qc = dec.quotient_carnot

    def evaluate(q):
        if qc.dim == 1:
            (x,) = q
            x = np.array(x, dtype=float).reshape(-1)
            if not np.isfinite(x).all():
                raise ValueError("target must be finite")
            jobs = np.flatnonzero(x)
            ones = np.ones(len(jobs))
            results = integrate_bracket_segments(
                dec, component, np.zeros((1, len(jobs))), x[None, jobs], ones, DEFAULT_TOL * ones
            )
            values = np.zeros((len(x), dec.base.dim))
            # as a path's sum from 0.0, which reads a -0.0 integral as +0.0
            values[np.ix_(jobs, dec.pairing_targets[component.layer])] = 0.0 + results
            return tuple(values.T)
        paths = [(horizontal_connect(qc, key), DEFAULT_TOL) for key in linalg.points(q)]
        return linalg.columns(integrate_bracket_forms(dec, component, paths))

    return ShearComponent(target_layer, evaluate)


@dataclass(frozen=True, eq=False)
class ShearMap:
    """F(g) = g * s(gbar) with s summed over center-layer components."""

    dec: CbCDecomposition
    components: dict

    def s_value(self, qcoords):
        """s at one quotient point, or at coordinate columns, with one call
        per component; a point goes to the components as one column."""
        q = as_float(qcoords)
        one = linalg.scalar_mode(q, arrays="columns") != "columns"
        cols = linalg.columns([q]) if one else q
        out = (0.0,) * self.dec.base.dim
        for comp in self.components.values():
            out = vadd(out, comp.eval(cols))
        return linalg.points(out)[0] if one else out

    def negated(self) -> "ShearMap":
        return ShearMap(
            self.dec, {j: c.scaled(-1.0) for j, c in self.components.items()}
        )


def build_shear(dec: CbCDecomposition, base_components: dict) -> ShearMap:
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
            current = lift(dec, current)
            components[layer] = current
    return ShearMap(dec, components)


def apply_shear(smap: ShearMap, g):
    """F(g) at one point, or at coordinate columns with one ``s_value`` call."""
    gf = as_float(g)
    qbar = smap.dec.project(gf)
    return bch(smap.dec.base, gf, smap.s_value(qbar))


def lift_coherence(smap: ShearMap, qs, values):
    """``(gap, tolerance)``: the largest gap between a lifted component's
    ``values`` (coordinate columns, by layer) at the quotient points ``qs``
    and the integral of the layer below it along a second path, through
    dilate(q, 1/2), to each point q; against ``10 * DEFAULT_TOL * max(1,
    max|value|)``.  One ``integrate_bracket_forms`` call per lifted layer."""
    dec = smap.dec
    qc = dec.quotient_carnot
    below = {tower[0]: j for j, tower in dec.lift_tower.items() if tower and {j, tower[0]} <= smap.components.keys()}
    paths = []
    for q in qs:
        mid = dilate(qc, 0.5, q)
        rest = horizontal_connect(qc, bch(qc, vneg(mid), q))
        paths.append((horizontal_connect(qc, mid).then(rest.segments), DEFAULT_TOL))
    gap, scale = 0.0, 1.0
    for layer, j in sorted(below.items()):
        second = integrate_bracket_forms(dec, smap.components[j], paths)
        gap = max(gap, linalg.max_gap(values[layer], linalg.columns(second)))
        scale = max(scale, float(np.max(np.abs(np.broadcast_arrays(*values[layer])))))
    return gap, 10.0 * DEFAULT_TOL * scale


def k_function(dec: CbCDecomposition, smap: ShearMap, g1, g2):
    """K(g1bar, g2bar) = s(g2bar) * u^-1 * (-s(g1bar)) * u with u = g1^-1 * g2;
    on one pair of points, or on coordinate columns of pairs."""
    g1f, g2f = as_float(g1), as_float(g2)
    return _k_from_s(dec.base, g1f, g2f, smap.s_value(dec.project(g1f)), smap.s_value(dec.project(g2f)))


def _k_from_s(alg, g1f, g2f, s1, s2):
    """``k_function`` given the float points and their s-values s1, s2."""
    u = bch(alg, vneg(g1f), g2f)
    out = bch(alg, s2, vneg(u))
    out = bch(alg, out, vneg(s1))
    return bch(alg, out, u)


@dataclass(frozen=True)
class NecessityReport:
    per_radius: dict
    cc_surrogate: str = "quotient quasi-norm distance in place of the Carnot metric"


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
    is visible; ``shear --verify --radius R`` passes R/10, R and 10 R,
    the defaults at R = 10.  The quotient Carnot metric is replaced by
    the quotient quasi-norm distance (flagged in the report).  Raises
    ``ValueError`` when ``count`` is below 1 or a radius skipped every pair.
    """
    qc = dec.quotient_carnot
    alpha = float(dec.alpha)
    out = {}
    layers = sorted(dec.z_layers)
    for radius in radii:
        rng = CounterRng(seed)
        worst = {i: 0.0 for i in layers}
        blocks = _pair_blocks(
            "necessity_check", rng, qc, count, (radius, 1.0), 1e-9, lambda q1, off: bch(qc, q1, off)
        )
        with np.errstate(over="ignore", invalid="ignore"):
            for qs, d in blocks:
                g = dec.lift(qs)
                (g1, g2), (s1, s2) = pairs(g), pairs(smap.s_value(dec.project(g)))
                k = _k_from_s(dec.base, g1, g2, s1, s2)
                for i in layers:
                    size = np.broadcast_to(length(dec.w_layer_project(k, i)), d.shape)  # a zero layer: 0.0
                    kept = size != 0.0
                    ratio = power(size[kept], 1.0 / i) / power(d[kept], 1.0 / alpha)
                    worst[i] = max(worst[i], _sup(ratio))
        out[radius] = worst
    return NecessityReport(out)


def holder_norm_estimate(
    dec: CbCDecomposition, component: ShearComponent, sampler: SamplerConfig
) -> float:
    """Empirical lower bound for the j/alpha-Holder norm of a component.

    Pairs closer than 1e-12 are skipped; a ``ValueError`` says so when
    every pair was, or when ``sampler.count`` is below 1."""
    qc = dec.quotient_carnot
    rng = CounterRng(sampler.seed)
    exponent = component.layer / float(dec.alpha)
    best = 0.0
    radii = (sampler.radius, sampler.radius)
    with np.errstate(over="ignore", invalid="ignore"):
        for pq, d in _pair_blocks("holder_norm_estimate", rng, qc, sampler.count, radii, 1e-12):
            num = length(linalg.vsub(*pairs(component.eval(pq))))
            best = max(best, _sup(num / power(d, exponent)))
    return best


def bilip_estimate(alg: GradedAlgebra, f, sampler: SamplerConfig):
    """Empirical (sup, inf) of rho(F x, F y) / rho(x, y) over pairs; (inf, 0.0) when one is not finite.

    F is called once per block of up to ``PAIR_BLOCK`` pairs, on
    coordinate columns that hold the block's kept pairs, first and second
    point in turn, and returns their images as columns, as
    ``lambda g: apply_shear(smap, g)`` does.  The ratios of a block
    are measured in one ``quasi_dist`` sweep.  Every kept pair is mapped,
    also after a ratio that is not finite, so an exception from F
    propagates, and the result does not depend on the block size.  Pairs
    closer than 1e-9 are skipped (and not mapped); a ``ValueError`` says
    so when every pair was, since then no ratio was measured, or when
    ``sampler.count`` is below 1."""
    rng = CounterRng(sampler.seed)
    sup_ratio = 0.0
    inf_ratio = math.inf
    radii = (sampler.radius, sampler.radius)
    with np.errstate(over="ignore", invalid="ignore"):
        for xy, d in _pair_blocks("bilip_estimate", rng, alg, sampler.count, radii, 1e-9):
            ratio = quasi_dist(alg, *pairs(f(xy))) / d
            sup_ratio = max(sup_ratio, _sup(ratio))
            inf_ratio = min(inf_ratio, float(ratio.min()))
    return (math.inf, 0.0) if sup_ratio == math.inf else (sup_ratio, inf_ratio)


def _pair_blocks(name, rng, alg, count, radii, skip, second=lambda x, y: y):
    """``count`` sampled pairs in blocks of up to ``PAIR_BLOCK``, each block
    drawn by one ``sample_ball_point`` call and measured by one
    ``quasi_dist`` sweep.  A pair is two draws in turn, at the radii
    ``radii``, with ``second(x, y)`` in place of its second point y.
    Yields the columns of the kept pairs' points, alternating first and
    second, and their distances; pairs closer than ``skip`` are left out,
    and so is a block left empty.  Raises a ``ValueError`` that names the
    estimator ``name`` when ``count`` is below 1 and, after the last
    block, when every pair was left out."""
    if count < 1:
        raise ValueError(f"{name} needs at least 1 sampled pair, not count={count}")
    measured = False
    for start in range(0, count, PAIR_BLOCK):
        m = min(PAIR_BLOCK, count - start)
        drawn = sample_ball_point(rng, alg, np.tile(radii, m), 2 * m)
        x, y = pairs(drawn)
        y = second(x, y)
        d = quasi_dist(alg, x, y)
        kept = np.flatnonzero(~(d < skip))
        if kept.size:
            measured = True
            yield tuple(np.stack([a[kept], b[kept]], axis=1).ravel() for a, b in zip(x, y)), d[kept]
    if not measured:
        cut = np.format_float_scientific(skip, trim="-", exp_digits=1)
        raise ValueError(
            f"{name} skipped all {count} sampled pairs: each was closer than {cut}, so no ratio was measured"
        )


def _sup(ratios):
    """The largest of an array of ratios, 0.0 when it is empty, inf when one is not finite."""
    return float(ratios.max(initial=0.0)) if np.all(ratios < math.inf) else math.inf
