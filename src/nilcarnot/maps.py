"""Fiber maps, compatible expressions, directional differentials and the
shear-cocycle calculus.

A :class:`FiberMap` is a chain of primitive factors — left translation,
graded automorphism, dilation, shear — applied in list order.  Every
such map permutes the cosets of the ideal, induces an affine map of the
quotient, and restricts to a fixed automorphism on each coset, so it
admits a normal form

    F(h * w) = F(0) * B h * A w * A s(hbar)

with B the transversal restriction of the chain's composed linear part,
A its ideal restriction, and s the central-valued residual.  Extraction
is closed-form for this factor class; the residual formula
``A s(hbar) = (Bh)^-1 * F(0)^-1 * F(h)`` is evaluated in floats.

The differential in the exponent direction, its chain rule, numeric
Pansu-differential probes, the similarity cocycle b_j and its affine
action, conjugation by shear maps, and a Banach-iteration stand-in for
the fixed-point step (valid under a measured contraction) live here.
The differential, the solver and the conjugation take the normal form,
which keeps its chain and b(gamma); the checks that compose chains
normal-order each chain once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import linalg
from .algebra import GradedAlgebra, LinearMap, bracket
from .carnot import CbCDecomposition
from .group import (
    BERNOULLI_COEFFS,
    _dilation_factors,
    ad_series,
    bch,
    dilate,
    dilation_matrix,
    invert_matrix,
    is_graded_automorphism,
    quasi_dist,
    quasi_norm,
)
from .linalg import as_float, vadd, vneg, vscale
from .rng import CounterRng, SamplerConfig, sample_ball_point
from .shear import ShearComponent, ShearMap, apply_shear


class NonContractionError(ArithmeticError):
    """The measured Lipschitz factor of the affine iteration is not < 1."""


class ExtrapolationError(ArithmeticError):
    def __init__(self, message, sequence):
        super().__init__(message)
        self.sequence = sequence


# ---------------------------------------------------------------------------
# fiber maps


@dataclass(frozen=True)
class Translate:
    """Left translation by ``point``; a float point or a float g gives floats."""

    point: tuple

    def apply(self, alg, g):
        if linalg.scalar_mode(self.point) == linalg.scalar_mode(g) == "exact":
            return bch(alg, self.point, g)
        return bch(alg, as_float(self.point), as_float(g))

    def linear_part(self, alg):
        return None  # identity


@dataclass(frozen=True)
class Auto:
    """A graded automorphism factor; gradedness is checked at build time."""

    matrix: LinearMap

    def apply(self, alg, g):
        return self.matrix(g)

    def linear_part(self, alg):
        return self.matrix.matrix


@dataclass(frozen=True)
class Dilation:
    """delta_ratio on its own ``alg``; float points read the float twin of its factors.

    ``apply`` and ``linear_part`` ignore the algebra they are passed:
    ``FiberMap`` checks that it equals ``alg``.
    """

    alg: GradedAlgebra
    ratio: object

    @cached_property
    def float_factors(self):
        return tuple(float(f) for f in _dilation_factors(self.alg, self.ratio))

    def apply(self, alg, g):
        if linalg.scalar_mode(g) == "float":
            return dilate(self.alg, self.ratio, g, self.float_factors)
        return dilate(self.alg, self.ratio, g)

    def linear_part(self, alg):
        return dilation_matrix(self.alg, self.ratio).matrix


@dataclass(frozen=True, eq=False)
class Shear:
    shear_map: ShearMap

    def apply(self, alg, g):
        return apply_shear(self.shear_map, g)

    def linear_part(self, alg):
        return None  # identity


@dataclass(frozen=True, eq=False)
class FiberMap:
    """A composition chain; factors are applied in list order."""

    alg: GradedAlgebra
    factors: tuple

    def __post_init__(self):
        for f in self.factors:
            if isinstance(f, Auto):
                verdict = is_graded_automorphism(self.alg, f.matrix)
                if not verdict.graded_automorphism:
                    raise ValueError(f"factor is not a graded automorphism: {verdict.detail}")
            elif isinstance(f, Shear):
                if f.shear_map.dec.base != self.alg:
                    raise ValueError("shear factor lives on a different algebra")
            elif isinstance(f, Dilation):
                if f.alg is not self.alg and f.alg != self.alg:
                    raise ValueError("dilation factor lives on a different algebra")

    def __call__(self, g):
        out = g
        for f in self.factors:
            out = f.apply(self.alg, out)
        return out

    def linear_part(self) -> LinearMap:
        """Composed linear part of the automorphism/dilation factors."""
        composed = None
        for f in self.factors:
            m = f.linear_part(self.alg)
            if m is None:
                continue
            composed = m if composed is None else linalg.mat_mul(m, composed)
        if composed is None:
            composed = linalg.identity_matrix(self.alg.dim)
        return LinearMap(composed)

    def conjugated_at(self, p) -> "FiberMap":
        """F_p = L_{F(p)^-1} o F o L_p, as a factor chain."""
        fp = self(p)
        return FiberMap(
            self.alg,
            (Translate(tuple(p)),) + self.factors + (Translate(vneg(fp)),),
        )


def fiber_translate(alg, point) -> FiberMap:
    return FiberMap(alg, (Translate(tuple(point)),))


def fiber_auto(alg, matrix: LinearMap) -> FiberMap:
    return FiberMap(alg, (Auto(matrix),))


def fiber_dilation(alg, ratio) -> FiberMap:
    return FiberMap(alg, (Dilation(alg, ratio),))


def fiber_shear(smap: ShearMap) -> FiberMap:
    return FiberMap(smap.dec.base, (Shear(smap),))


def compose(*maps: FiberMap) -> FiberMap:
    """compose(f, g, ...) applies f first (list order, like the factors)."""
    alg = maps[0].alg
    factors = ()
    for m in maps:
        if m.alg != alg:
            raise ValueError("fiber maps live on different algebras")
        factors = factors + m.factors
    return FiberMap(alg, factors)


# ---------------------------------------------------------------------------
# compatible expressions


@dataclass(frozen=True, eq=False)
class CompatibleExpression:
    """The quadruple (F(0), B, A, s) plus the induced quotient affine map.

    ``b_matrix`` has one ambient column per transversal basis vector (in
    non-pivot coordinate order); ``a_matrix`` acts on ideal coordinates
    in the RREF row basis of w, and ``a_apply_ambient`` applies it to an
    ambient vector of w through ``dec.w_apply``; ``a_inverse`` is its
    inverse, the one the residual ``s_eval`` applies.  ``s_eval`` maps
    quotient coordinates to an ambient vector in Z(w); it must not refer
    back to the expression, or each one waits for the cyclic collector.
    Psi(gamma) = (A, Bbar) is read off here: ``a_inverse``,
    ``quot_apply`` (through float views built once) and
    ``similarity_ratios`` = (lambda_A, lambda_Bbar).  ``fmap`` is the
    chain the expression was read off, and ``cocycle`` is
    b(gamma) = {j: s_gamma,j} for j in ``dec.cocycle_layers``.
    """

    dec: CbCDecomposition
    fmap: FiberMap
    base: tuple
    b_matrix: tuple
    a_matrix: tuple
    a_inverse: LinearMap
    s_eval: object
    quot_translation: tuple
    quot_matrix: tuple
    s_trees: dict | None = None

    @cached_property
    def a_map(self):
        return LinearMap(self.a_matrix)

    def a_apply_ambient(self, w_vec):
        return self.dec.w_apply(self.a_map, w_vec)

    @cached_property
    def quot_map(self):
        return LinearMap(self.quot_matrix)

    @cached_property
    def quot_translation_float(self):
        return as_float(self.quot_translation)

    def quot_apply(self, q):
        return bch(self.dec.quotient_carnot, self.quot_translation_float, self.quot_map(as_float(q)))

    @cached_property
    def similarity_ratios(self):
        """(lambda_A, lambda_Bbar); raises unless both first-layer blocks are similarities."""
        w1 = self.dec.w_algebra.layer_indices(1)
        a_block = [[float(self.a_matrix[r][c]) for c in w1] for r in w1]
        lambda_a = _similarity_ratio(a_block, "the ideal automorphism")
        q1 = self.dec.quotient_carnot.layer_indices(1)
        q_block = [[float(self.quot_matrix[r][c]) for c in q1] for r in q1]
        return lambda_a, _similarity_ratio(q_block, "the quotient action")

    def s_component(self, j) -> ShearComponent:
        trees = (self.s_trees or {}).get(j)
        dec, s_eval = self.dec, self.s_eval  # not self: ``cocycle`` holds these components

        def evaluate(q):
            return dec.w_layer_project(s_eval(q), j)

        return ShearComponent(j, evaluate, trees)

    @cached_property
    def cocycle(self):
        """s_j for j below the exponent, off the chain without the shear
        components at or above it (this expression when it has none)."""
        below = _below_exponent_chain(self.dec, self.fmap)
        expr = self if below is self.fmap else extract_compatible(self.dec, below)
        return {j: expr.s_component(j) for j in self.dec.cocycle_layers}


def extract_compatible(dec: CbCDecomposition, fmap: FiberMap) -> CompatibleExpression:
    """Normal-order a factor chain into (F(0), B, A, s).

    A and B are restrictions of the composed linear part; s is the
    exact residual ``A^-1[(Bh)^-1 * F(0)^-1 * F(h)]`` evaluated through
    the chain.  For a bare shear factor with F(0) = 0 the shear's own
    components (and their expression trees) are reused; otherwise F(0)
    = s(0) does not commute with h, and s comes from the residual.  A
    chain with a float ingredient maps the exact zero to floats.
    """
    alg = dec.base
    phi = fmap.linear_part()
    base = fmap(linalg.zero_vector(alg.dim))

    keep = dec.transversal_indices
    b_cols = tuple(phi(alg.basis_vector(i)) for i in keep)
    a_matrix = tuple(zip(*(dec.w_coords(phi(row)) for row in dec.w.rows)))
    a_inv = invert_matrix(LinearMap(a_matrix))

    quot_matrix = []
    for pos, i in enumerate(keep):
        quot_matrix.append(dec.project(phi(alg.basis_vector(i))))
    quot_matrix = tuple(zip(*quot_matrix))
    quot_translation = dec.project(base)

    s_trees = None
    if len(fmap.factors) == 1 and isinstance(fmap.factors[0], Shear) and linalg.is_zero(base):
        smap = fmap.factors[0].shear_map

        def s_eval(q):
            return smap.s_value(q)

        s_trees = {
            j: comp.trees for j, comp in smap.components.items() if comp.trees is not None
        }
    else:
        neg_base = vneg(as_float(base))

        def s_eval(q):
            qf = as_float(q)
            h = dec.lift(qf)
            fh = fmap(h)
            bh = phi(h)
            residual = bch(alg, vneg(bh), bch(alg, neg_base, fh))
            return dec.w_apply(a_inv, residual)

    return CompatibleExpression(
        dec=dec,
        fmap=fmap,
        base=tuple(base),
        b_matrix=b_cols,
        a_matrix=a_matrix,
        a_inverse=a_inv,
        s_eval=s_eval,
        quot_translation=tuple(quot_translation),
        quot_matrix=quot_matrix,
        s_trees=s_trees,
    )


@dataclass(frozen=True)
class CompatibleReport:
    b_graded: bool
    b_projects: bool
    intertwines: bool
    s_central_defect: float
    reconstruction_defect: float
    same_b: bool

    S_CENTRAL_TOL = 1e-8
    RECONSTRUCTION_TOL = 1e-10

    @property
    def passed(self):
        return (
            self.b_graded
            and self.b_projects
            and self.intertwines
            and self.s_central_defect <= self.S_CENTRAL_TOL
            and self.reconstruction_defect <= self.RECONSTRUCTION_TOL
            and self.same_b
        )


def verify_compatible(
    expr: CompatibleExpression,
    sampler: SamplerConfig = SamplerConfig(seed=11, count=40, radius=3.0),
) -> CompatibleReport:
    """Check the defining conditions plus the p-independence of (B, A)."""
    dec, fmap = expr.dec, expr.fmap
    alg = dec.base
    keep = dec.transversal_indices

    b_graded = True
    b_projects = True
    for pos, i in enumerate(keep):
        col = expr.b_matrix[pos]
        w_i = alg.weights[i]
        if any(col[t] != 0 and alg.weights[t] != w_i for t in range(alg.dim)):
            b_graded = False
        lhs = dec.project(col)
        rhs = expr.quot_map(dec.project(alg.basis_vector(i)))
        if tuple(lhs) != tuple(rhs):
            b_projects = False

    intertwines = True
    for pos, i in enumerate(keep):
        bh = expr.b_matrix[pos]
        for row in dec.w.rows:
            aw = expr.a_apply_ambient(row)
            lhs = bracket(alg, bh, aw)
            rhs = expr.a_apply_ambient(bracket(alg, alg.basis_vector(i), row))
            if tuple(lhs) != tuple(rhs):
                intertwines = False

    # the samples go through each stage at once, as coordinate columns
    rng = CounterRng(sampler.seed)
    g = sample_ball_point(rng, alg, sampler.radius, sampler.count)
    with np.errstate(over="ignore", invalid="ignore"):
        qbar = dec.project(g)
        sval = expr.s_eval(qbar)
        central_defect = linalg.max_gap(dec.center_w.residual(sval), (0.0,) * alg.dim)
        # reconstruction at g = h * w; h lies on the transversal, so B h is the linear part at h
        h = dec.lift(qbar)
        w_part = bch(alg, vneg(h), g)
        rebuilt = bch(alg, as_float(expr.base), fmap.linear_part()(h))
        rebuilt = bch(alg, rebuilt, expr.a_apply_ambient(w_part))
        rebuilt = bch(alg, rebuilt, expr.a_apply_ambient(sval))
        recon_defect = linalg.max_gap(rebuilt, fmap(g))

    same_b = True
    for p in linalg.points(sample_ball_point(rng, alg, sampler.radius, 3)):
        expr_p = extract_compatible(dec, fmap.conjugated_at(p))
        if expr_p.b_matrix != expr.b_matrix or expr_p.a_matrix != expr.a_matrix:
            same_b = False

    return CompatibleReport(
        b_graded, b_projects, intertwines, central_defect, recon_defect, same_b
    )


# ---------------------------------------------------------------------------
# the differential in the exponent direction


def _component_directional(dec, component, at_q, direction_q):
    """d/dt component(at * (t direction)) at t = 0.

    Symbolic through expression trees when available (with the exact
    first-order Jacobian of the group curve), central difference
    otherwise.
    """
    qalg = dec.quotient_carnot
    if component.trees is not None:
        jac = _curve_velocity(qalg, at_q, direction_q)
        scalars = []
        for tree in component.trees:
            partials = [tree.diff(k).scalar(at_q) for k in range(qalg.dim)]
            scalars.append(sum(p * float(j) for p, j in zip(partials, jac)))
        return dec.z_layer(component.layer).embed(scalars)
    eps = 1e-6
    plus = component.eval(bch(qalg, at_q, vscale(eps, direction_q)))
    minus = component.eval(bch(qalg, at_q, vscale(-eps, direction_q)))
    return tuple((a - b) / (2 * eps) for a, b in zip(plus, minus))


def _curve_velocity(qalg: GradedAlgebra, at, direction):
    """Exact t-coefficient of bch(at, t*direction): the left-invariant field.

    The product is polynomial in t, and its t-linear part is
    sum_k (B_k / k!) (ad at)^k direction, with B_1 = +1/2.
    """
    at_e = tuple(Fraction(a).limit_denominator(10**12) for a in as_float(at))
    dir_e = tuple(Fraction(a).limit_denominator(10**12) for a in as_float(direction))
    return ad_series(qalg, BERNOULLI_COEFFS, at_e, dir_e)


def d_alpha_matrix(expr: CompatibleExpression, p, mode: str = "closed") -> np.ndarray:
    """Matrix of the exponent-direction differential on V_alpha at p.

    ``closed`` uses the compatible expression; ``fd`` its chain's
    dilated limit with Richardson extrapolation over {1e-2, 1e-3, 1e-4}.
    """
    dec = expr.dec
    if not dec.alpha_is_integer:
        raise ValueError("the exponent-direction differential requires an integer exponent")
    idx = dec.v_alpha_indices
    cols = []
    for i in idx:
        v = dec.base.basis_vector(i, mode="float")
        img = d_alpha(expr, p, v, mode=mode)
        cols.append([float(img[t]) for t in idx])
    return np.array(cols, dtype=float).T


def d_alpha(expr: CompatibleExpression, p, v, mode: str = "closed"):
    """The differential applied to v in V_alpha = H_1 + W_alpha."""
    dec = expr.dec
    if not dec.alpha_is_integer:
        raise ValueError("the exponent-direction differential requires an integer exponent")
    idx = set(dec.v_alpha_indices)
    if any(v[i] != 0 for i in range(dec.base.dim) if i not in idx):
        raise ValueError("direction must lie in the exponent layer")
    if mode == "closed":
        phi = expr.fmap.linear_part()
        vf = as_float(v)
        out = phi(vf)
        if dec.z_layer(int(dec.alpha)) is not None:
            s_alpha = expr.s_component(int(dec.alpha))
            h0_bar = dec.project(as_float(p))
            # transversal part of v projects to the quotient's first layer
            h_part = tuple(vf[i] if i in dec.transversal_indices else 0.0 for i in range(dec.base.dim))
            hbar = dec.project(h_part)
            if any(abs(a) > 0 for a in hbar):
                deriv = _component_directional(dec, s_alpha, h0_bar, hbar)
                out = vadd(out, expr.a_apply_ambient(deriv))
        return tuple(out[i] if i in idx else 0.0 for i in range(dec.base.dim))
    if mode == "fd":
        return _d_alpha_fd(dec, expr.fmap, p, v)
    raise ValueError(f"unknown mode {mode!r}")


def _d_alpha_fd(dec: CbCDecomposition, fmap: FiberMap, p, v):
    scales = (1e-2, 1e-3, 1e-4)
    fp = fmap.conjugated_at(as_float(p))
    idx = dec.v_alpha_indices
    vals = []
    vf = as_float(v)
    for eps in scales:
        img = fp(vscale(eps, vf))
        vals.append(tuple(float(img[i]) / eps for i in range(dec.base.dim)))

    def richardson(e1, v1, e2, v2):
        return tuple((e1 * b - e2 * a) / (e1 - e2) for a, b in zip(v1, v2))

    d12 = richardson(scales[0], vals[0], scales[1], vals[1])
    d23 = richardson(scales[1], vals[1], scales[2], vals[2])
    gap = linalg.max_gap(d12, d23)
    scale = max(1.0, max(abs(a) for a in d23))
    if gap > 1e-3 * scale:
        raise ExtrapolationError(
            f"Richardson extrapolation did not settle (gap {gap:.3e})", (scales, vals)
        )
    return tuple(d23[i] if i in idx else 0.0 for i in range(dec.base.dim))


def chain_rule_check(dec: CbCDecomposition, f: FiberMap, g: FiberMap, p):
    """(operator-norm defect of D(F o G)(p) against D F(G(p)) . D G(p), D(F o G)(p))."""
    lhs = d_alpha_matrix(extract_compatible(dec, compose(g, f)), p)  # apply g first
    gp = g(as_float(p))
    rhs = d_alpha_matrix(extract_compatible(dec, f), gp) @ d_alpha_matrix(extract_compatible(dec, g), p)
    return float(np.linalg.norm(lhs - rhs, 2)), lhs


# ---------------------------------------------------------------------------
# numeric Pansu differential probe


# rounding errors allowed per coordinate of a float numerator, in units of
# eps times its layer's magnitude: a few per product, a few products per coordinate
PANSU_ROUNDINGS = 8


@dataclass(frozen=True)
class PansuProbe:
    """The (t, defect) pairs of ``pansu_check``, one per scale, which the
    probe iterates as, and the (t, floor) pairs of their rounding floors."""

    defects: tuple
    floors: tuple

    def __iter__(self):
        return iter(self.defects)

    @property
    def passed(self):
        """Every defect after the first reaches its floor or falls below the
        one before by more than the two floors: a flat sequence above its
        floors fails, and rounding alone passes."""
        pairs = [(v, f) for (_, v), (_, f) in zip(self.defects, self.floors)]
        return all(b <= fb or b + fb < a - fa for (a, fa), (b, fb) in zip(pairs, pairs[1:]))


def _rounding_floor(alg: GradedAlgebra, vectors):
    """Quasi-norm of the rounding a float numerator built from ``vectors``
    can carry: ``PANSU_ROUNDINGS`` * eps * m**w in each coordinate of weight
    w, m the largest homogeneous size |v_i|**(1/w_i) among their
    coordinates.  The quasi-norm is homogeneous, so that is m times the
    quasi-norm of the vector with ``PANSU_ROUNDINGS`` * eps everywhere."""
    m = max(linalg.power(abs(float(v[i])), 1 / w) for v in vectors for i, w in enumerate(alg.weights_float))
    return m * quasi_norm(alg, (PANSU_ROUNDINGS * sys.float_info.epsilon,) * alg.dim)


def pansu_check(
    alg: GradedAlgebra,
    f,
    x,
    l_map: LinearMap,
    seed: int = 42,
    count: int = 32,
) -> PansuProbe:
    """Defect sequence sup_u rho(F(x)^-1 F(y), L(x^-1 y)) / rho(x, y).

    y runs over x * delta_t(u) for the scales t = 1/10, 1/100, 1/1000,
    1/10000 with seeded dyadic-rational offsets u, and one (t, defect)
    pair is returned per scale; a decreasing sequence supports
    differentiability with differential L.  Sample points, scales and
    the basepoint are kept rational so that a map preserving exact
    arithmetic (in particular L itself, or any rational graded
    automorphism) reports an exactly zero numerator rather than a
    rounding residue; when F or L has float values the numerator is
    compared in floats, and each scale's floor is the sup over u of
    the numerator's rounding floor (``_rounding_floor`` of F(x), F(y),
    their quotient and L(x^-1 y)) over rho(x, y).  Exact numerators
    have floor 0.  A floor of 1 or more lets rounding alone be as large as
    rho(x, y), so where no floor is below 1 it raises ``ValueError``.
    """
    verdict = is_graded_automorphism(alg, l_map)
    if not verdict.homomorphism:
        raise ValueError("candidate differential is not a Lie homomorphism")
    try:
        xe = linalg.as_exact(x)
    except ValueError:
        xe = tuple(Fraction(a).limit_denominator(1 << 30) for a in as_float(x))
    fx = f(xe)
    floats = "float" in (linalg.scalar_mode(fx), linalg.scalar_mode(l_map(xe)))
    defects, floors = [], []
    denom = 1 << 20
    for t in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10000)):
        rng = CounterRng(seed)
        worst, floor = 0.0, 0.0
        for _ in range(count):
            u = tuple(
                Fraction(int(round(rng.symmetric() * denom)), denom) for _ in range(alg.dim)
            )
            n = quasi_norm(alg, u)
            if n < 1e-6:
                continue
            y = bch(alg, xe, dilate(alg, t, u))
            fy = f(y)
            lhs = bch(alg, vneg(fx), fy)
            rhs = l_map(bch(alg, vneg(xe), y))
            if floats:
                lhs, rhs = as_float(lhs), as_float(rhs)
            num = quasi_dist(alg, lhs, rhs)
            den = quasi_dist(alg, xe, y)
            if den > 0:
                worst = max(worst, num / den)
                if floats:
                    floor = max(floor, _rounding_floor(alg, (fx, fy, lhs, rhs)) / den)
        defects.append((float(t), worst))
        floors.append((float(t), floor))
    least = min(f for _, f in floors)
    if least >= 1.0:
        raise ValueError(f"the Pansu probe decides nothing: its smallest rounding floor, {least:.3g}, is at least 1")
    return PansuProbe(tuple(defects), tuple(floors))


# ---------------------------------------------------------------------------
# the cocycle calculus; Psi(gamma) is read off the normal form


def _similarity_ratio(block_rows, label):
    """Ratio lambda of a scaled-orthogonal block; raises if not a similarity."""
    m = np.array(block_rows, dtype=float)
    g = m.T @ m
    lam2 = g[0, 0]
    if lam2 <= 0 or np.max(np.abs(g - lam2 * np.eye(g.shape[0]))) > 1e-9 * max(1.0, lam2):
        raise ValueError(f"{label} is not a similarity on the first layer")
    return math.sqrt(lam2)


def cocycle_action(dec: CbCDecomposition, pair: CompatibleExpression, component: ShearComponent) -> ShearComponent:
    """(pi_(A,B) c)(hbar) = A^-1 c(B hbar) - A^-1 c(B 0), with (A, B) read off ``pair``.

    The origin goes to c with the points of each call, as column 0, so
    a failure of c at B 0 is raised first, and only when a value is asked for.
    """
    alpha = float(dec.alpha)
    lambda_a, lambda_bbar = pair.similarity_ratios
    if abs(lambda_bbar - lambda_a**alpha) > 1e-12 * max(1.0, lambda_bbar):
        raise ValueError("the pair does not satisfy lambda_B = lambda_A**alpha")
    inner = component.eval

    def evaluate(q):
        if linalg.scalar_mode(q, arrays="columns") != "columns":
            return linalg.points(evaluate(linalg.columns([q])))[0]
        n = np.broadcast(*q).size
        with_origin = tuple(np.concatenate(([0.0], np.broadcast_to(c, (n,)))) for c in q)
        val = dec.w_apply(pair.a_inverse, inner(pair.quot_apply(with_origin)))
        return tuple(v[1:] - v[0] for v in (np.broadcast_to(v, (n + 1,)) for v in val))

    return ShearComponent(component.layer, evaluate)


def _below_exponent_chain(dec: CbCDecomposition, fmap: FiberMap) -> FiberMap:
    """Keep only the shear components at ``dec.cocycle_layers`` in every factor.

    Central values at layers >= alpha enter products only at their own
    or higher layers, so the slices s_j with j < alpha of the extracted
    residual are unchanged; this keeps cocycle evaluation free of the
    lifted towers.
    """
    factors = []
    changed = False
    for f in fmap.factors:
        if isinstance(f, Shear):
            kept = {j: c for j, c in f.shear_map.components.items() if j in dec.cocycle_layers}
            if len(kept) != len(f.shear_map.components):
                changed = True
                factors.append(Shear(ShearMap(dec, kept)))
                continue
        factors.append(f)
    if not changed:
        return fmap
    return FiberMap(fmap.alg, tuple(factors))


def cocycle_of(dec: CbCDecomposition, fmap: FiberMap) -> dict:
    """b_j(gamma) = s_gamma,j for the layers below the exponent, with one normal-ordering."""
    return extract_compatible(dec, _below_exponent_chain(dec, fmap)).cocycle


def cocycle_identity_check(dec: CbCDecomposition, gamma1: FiberMap, gamma2: FiberMap) -> float:
    """Defect of b_j(g2 o g1) = b_j(g1) + pi_Psi(g1) b_j(g2) on a grid."""
    grid = quotient_grid(dec, count=100, seed=5, radius=4.0)
    pair1 = extract_compatible(dec, gamma1)
    b1 = pair1.cocycle
    b2 = cocycle_of(dec, gamma2)
    bc = cocycle_of(dec, compose(gamma1, gamma2))
    pair1.similarity_ratios  # raises here, not at the first action
    defect = 0.0
    for j, comp in bc.items():
        transported = cocycle_action(dec, pair1, b2[j])
        with np.errstate(over="ignore", invalid="ignore"):
            lhs = comp.eval(grid)
            rhs = vadd(b1[j].eval(grid), transported.eval(grid))
        defect = max(defect, linalg.max_gap(lhs, rhs))
    return defect


def quotient_grid(dec: CbCDecomposition, count=100, seed=5, radius=4.0):
    """``count`` sampled quotient points as coordinate columns."""
    return sample_ball_point(CounterRng(seed), dec.quotient_carnot, radius, count)


# ---------------------------------------------------------------------------
# conjugation by shear maps and the fixed point of the affine action


@dataclass(frozen=True)
class ConjugationReport:
    layer: int
    sup_new_component: float
    identity_defect: float


def conjugating_layer(dec: CbCDecomposition, f0: ShearMap) -> int:
    """The base layer of F0: its lowest center layer below the exponent."""
    base_layers = [j for j in sorted(f0.components) if j in dec.cocycle_layers]
    if not base_layers:
        raise ValueError("the conjugating shear must have a base layer below the exponent")
    return base_layers[0]


def check_solve_layer(dec: CbCDecomposition, j: int):
    """Raise unless the fixed point can be solved for at center layer j."""
    if j not in dec.cocycle_layers:
        raise ValueError(f"layer {j} is not a center layer below the exponent")


def conjugate_by_shear(f0: ShearMap, gamma: CompatibleExpression):
    """gamma~ = F0 o gamma o F0^-1; checks s~_j = s_j - c + pi_Psi(gamma) c.

    ``gamma`` is the normal form of the chain to conjugate.  Returns the
    conjugated chain and the grid report for the base layer of F0.  When
    c is a fixed point of the affine action the new component vanishes.
    """
    dec = gamma.dec
    j = conjugating_layer(dec, f0)
    conj = compose(fiber_shear(f0.negated()), gamma.fmap, fiber_shear(f0))
    gamma.similarity_ratios  # raises here, not at the first action
    c = f0.components[j]
    s_gamma = gamma.cocycle[j]
    s_new = cocycle_of(dec, conj)[j]
    transported = cocycle_action(dec, gamma, c)
    grid = quotient_grid(dec, count=60, seed=9, radius=4.0)
    with np.errstate(over="ignore", invalid="ignore"):
        new_val = s_new.eval(grid)
        expected = vadd(linalg.vsub(s_gamma.eval(grid), c.eval(grid)), transported.eval(grid))
    sup_new = linalg.max_gap(new_val, (0.0,) * dec.base.dim)
    return conj, ConjugationReport(j, sup_new, linalg.max_gap(new_val, expected))


# orbit steps per call of s in the fixed-point solver
_BLOCK = 16


@dataclass(frozen=True)
class FixedPointReport:
    iterations: int
    final_change: float
    contraction_factor: float


def solve_single_generator_fixed_point(gamma: CompatibleExpression, j: int):
    """Banach iteration c_{n+1} = s_gamma,j + pi_Psi(gamma) c_n from c_0 = 0.

    The iteration runs on 40 seeded quotient points and stops once the
    largest term there is below 1e-12, within at most 80 steps.  Since
    the action is linear, the n-th iterate telescopes to
    c_n(q) = sum_{k<n} A^-k [s(B^k q) - s(B^k 0)] with B the affine
    quotient map; the sum is evaluated directly, which keeps each
    evaluation linear in the iteration count.  Iteration proceeds only
    while the terms measurably contract (the Holder-norm isometry of
    the action means contraction holds for smooth data with a
    contracting similarity, not universally).

    The orbits run as coordinate columns: the 40 grid orbits and the
    origin's advance together, and a block of ``_BLOCK`` steps sends all
    its orbit points to s in one call and takes its terms from one call
    of the ``LinearMap`` kernel, each power's entries a (steps, 1)
    column.  The stopping and contraction tests then run step by step
    over the block's changes.  Looking ahead changes nothing: a power
    that overflows ends its block and raises only when the loop reaches
    its step, and a block whose call raises (s failing, or leaving w, at
    a step the loop may never reach) runs again one step at a time.
    The tables of the float twins of A^-k (``linalg.float_powers``) and
    of s(B^k 0) keep the steps the loop reached, and the returned
    component keeps no other state: its ``eval`` takes one point or
    coordinate columns, sends all their orbit points to s in one call,
    and applies every power in one call of the ``LinearMap`` kernel.
    Every value has the bits of one point at a time.
    """
    dec = gamma.dec
    check_solve_layer(dec, j)
    gamma.similarity_ratios  # raises here, not at the first action
    s = gamma.cocycle[j]
    max_iter, tol = 80, 1e-12
    kernel = gamma.a_inverse.kernel

    def orbit_coords(q, count):
        """Ideal coordinates of s at B^k q for k < count, q coordinate columns,
        from one call: row k of each (count, points) array; and B^(count-1) q."""
        orbits = [q]
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(1, count):
                orbits.append(gamma.quot_apply(orbits[-1]))
            coords = dec.w_coords(s.eval(tuple(map(np.concatenate, zip(*orbits)))))
        n = np.size(q[0])
        return tuple(np.broadcast_to(c, (count * n,)).reshape(count, n) for c in coords), orbits[-1]

    def terms(coords, origin, powers):
        # w_coords reads pivot entries, so the coordinates of a difference
        # are the difference of the coordinates, bit for bit
        with np.errstate(over="ignore", invalid="ignore"):
            return dec.w.embed(kernel(linalg.vsub(coords, origin), powers))

    def table(rows):
        """One (len(rows), 1) column per entry of the tuples ``rows``."""
        return tuple(np.array(e)[:, None] for e in zip(*rows))

    def advance(orbit, block):
        """The steps of the powers ``block`` from the orbit columns ``orbit``,
        each (A^-k, s(B^k 0), its terms), and the orbit after them."""
        coords, last = orbit_coords(orbit, len(block))
        rows = terms(coords, tuple(c[:, :1] for c in coords), table(block))
        done = [(power, tuple(float(c[i, 0]) for c in coords), tuple(e[i] for e in rows))
                for i, power in enumerate(block)]
        with np.errstate(over="ignore", invalid="ignore"):
            return done, gamma.quot_apply(last)

    def steps(orbit):
        powers, k = linalg.float_powers(gamma.a_inverse.matrix), 0
        while k < max_iter:
            block, overflow = [], None
            try:
                while len(block) < min(_BLOCK, max_iter - k):
                    block.append(next(powers))
            except OverflowError as exc:  # raised when the loop reaches its step
                overflow = exc
            if block:
                try:
                    ahead, after = advance(orbit, block)
                except (ValueError, ArithmeticError):  # perhaps past the stop: one step at a time
                    for power in block:
                        (step,), orbit = advance(orbit, [power])
                        yield step
                else:
                    yield from ahead
                    orbit = after
            if overflow is not None:
                raise overflow
            k += len(block)

    # the origin's orbit rides along as point 0, whose own term is zero
    grid = tuple(np.concatenate(([0.0], c)) for c in quotient_grid(dec, count=40, seed=13, radius=4.0))
    zero = (0.0,) * dec.base.dim
    a_inv_powers, s_origin = [], []
    prev_change, factor = None, 0.0
    for k, (power, origin, term) in enumerate(steps(grid)):
        a_inv_powers.append(power)
        s_origin.append(origin)
        change = linalg.max_gap(term, zero)
        if prev_change is not None and prev_change > 0:
            factor = max(factor, change / prev_change)
            if k >= 2 and change / prev_change >= 1.0 - 1e-9:
                raise NonContractionError(
                    f"measured Lipschitz factor {change / prev_change:.6f} of the affine map is not < 1"
                )
        prev_change = change
        if change < tol:
            break
    else:
        raise NonContractionError(
            f"iteration did not reach {tol} within {max_iter} steps (factor {factor:.3f})"
        )

    # row k for power k
    count = len(a_inv_powers)
    power_table, origin_table = table(a_inv_powers), table(s_origin)

    def sweep(q):
        """The sums at the points of the columns q: s at all their orbit
        points in one call, and row k of each array the term of A^-k."""
        with np.errstate(over="ignore", invalid="ignore"):
            q = tuple(np.array(np.broadcast_arrays(*q), dtype=float).reshape(len(q), -1))
            embedded = terms(orbit_coords(q, count)[0], origin_table, power_table)
            total = zero
            for k in range(count):
                total = vadd(total, tuple(e[k] for e in embedded))
        return total

    def evaluate(q):
        if linalg.scalar_mode(q, arrays="columns") == "columns":
            return sweep(q)
        return linalg.points(sweep(linalg.columns([q])))[0]

    return ShearComponent(j, evaluate), FixedPointReport(count, prev_change, factor)


# ---------------------------------------------------------------------------
# automorphism diagnostics


@dataclass(frozen=True)
class AutomorphismReport:
    defect: float
    tolerance: float

    @property
    def passed(self):
        return self.defect <= self.tolerance


def automorphism_check(
    alg: GradedAlgebra, f, sampler: SamplerConfig = SamplerConfig(seed=17, count=60, radius=3.0)
) -> AutomorphismReport:
    """Sample F(x*y) against F(x)*F(y), recentred by F(0)."""
    f0 = as_float(f((0.0,) * alg.dim))
    g = lambda x: bch(alg, vneg(f0), as_float(f(x)))
    rng = CounterRng(sampler.seed)
    defect = 0.0
    draws = linalg.points(sample_ball_point(rng, alg, sampler.radius, 2 * sampler.count))
    for x, y in zip(draws[0::2], draws[1::2]):
        lhs = g(bch(alg, x, y))
        rhs = bch(alg, g(x), g(y))
        defect = max(defect, linalg.max_gap(lhs, rhs))
    return AutomorphismReport(defect, 1e-10 * max(1.0, sampler.radius**2))
