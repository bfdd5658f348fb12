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
"""

from __future__ import annotations

import math
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
    ambient vector of w through ``dec.w_apply``.  ``s_eval`` maps
    quotient coordinates to an ambient vector in Z(w); it must not refer
    back to the expression, or each one waits for the cyclic collector.
    Psi(gamma) = (A, Bbar) is read off here: ``a_inverse``,
    ``quot_apply`` (through float views built once) and
    ``similarity_ratios`` = (lambda_A, lambda_Bbar).
    """

    dec: CbCDecomposition
    base: tuple
    b_matrix: tuple
    a_matrix: tuple
    s_eval: object
    quot_translation: tuple
    quot_matrix: tuple
    s_trees: dict | None = None

    def b_apply(self, h):
        """Apply B to an ambient vector supported on the transversal."""
        acc = None
        for c, col in zip((h[i] for i in self.dec.transversal_indices), self.b_matrix):
            term = vscale(c, col)
            acc = term if acc is None else vadd(acc, term)
        return acc if acc is not None else linalg.zero_vector(self.dec.base.dim)

    @cached_property
    def a_map(self):
        return LinearMap(self.a_matrix)

    def a_apply_ambient(self, w_vec):
        return self.dec.w_apply(self.a_map, w_vec)

    @cached_property
    def a_inverse(self):
        return invert_matrix(self.a_map)

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
        dec = self.dec

        def evaluate(q):
            return dec.w_layer_project(self.s_eval(q), j)

        return ShearComponent(j, evaluate, trees)


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
        base=tuple(base),
        b_matrix=b_cols,
        a_matrix=a_matrix,
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
    dec: CbCDecomposition,
    fmap: FiberMap,
    expr: CompatibleExpression,
    sampler: SamplerConfig = SamplerConfig(seed=11, count=40, radius=3.0),
) -> CompatibleReport:
    """Check the defining conditions plus the p-independence of (B, A)."""
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

    rng = CounterRng(sampler.seed)
    zero = (0.0,) * alg.dim
    central_defect = 0.0
    recon_defect = 0.0
    for _ in range(sampler.count):
        g = sample_ball_point(rng, alg, sampler.radius)
        qbar = dec.project(g)
        sval = expr.s_eval(qbar)
        resid = linalg.reduce_against(dec.center_w.rows, dec.center_w.pivots, sval)
        central_defect = max(central_defect, linalg.max_gap(resid, zero))
        # reconstruction at g = h * w
        h = dec.lift(qbar)
        w_part = bch(alg, vneg(h), g)
        rebuilt = bch(alg, as_float(expr.base), expr.b_apply(h))
        rebuilt = bch(alg, rebuilt, expr.a_apply_ambient(w_part))
        rebuilt = bch(alg, rebuilt, expr.a_apply_ambient(sval))
        direct = fmap(g)
        recon_defect = max(recon_defect, linalg.max_gap(rebuilt, direct))

    same_b = True
    for _ in range(3):
        p = sample_ball_point(rng, alg, sampler.radius)
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
        z = dec.z_layer(component.layer)
        out = (0.0,) * dec.base.dim
        for tree, row in zip(component.trees, z.rows_float):
            partials = [tree.diff(k).scalar(at_q) for k in range(qalg.dim)]
            scalar = sum(p * float(j) for p, j in zip(partials, jac))
            out = vadd(out, vscale(scalar, row))
        return out
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


def d_alpha_matrix(dec: CbCDecomposition, fmap: FiberMap, p, mode: str = "closed") -> np.ndarray:
    """Matrix of the exponent-direction differential on V_alpha at p.

    ``closed`` uses the compatible expression; ``fd`` the defining
    dilated limit with Richardson extrapolation over {1e-2, 1e-3, 1e-4}.
    """
    if not dec.alpha_is_integer:
        raise ValueError("the exponent-direction differential requires an integer exponent")
    idx = dec.v_alpha_indices
    cols = []
    for i in idx:
        v = dec.base.basis_vector(i, mode="float")
        img = d_alpha(dec, fmap, p, v, mode=mode)
        cols.append([float(img[t]) for t in idx])
    return np.array(cols, dtype=float).T


def d_alpha(dec: CbCDecomposition, fmap: FiberMap, p, v, mode: str = "closed"):
    """The differential applied to v in V_alpha = H_1 + W_alpha."""
    if not dec.alpha_is_integer:
        raise ValueError("the exponent-direction differential requires an integer exponent")
    idx = set(dec.v_alpha_indices)
    if any(v[i] != 0 for i in range(dec.base.dim) if i not in idx):
        raise ValueError("direction must lie in the exponent layer")
    if mode == "closed":
        expr = extract_compatible(dec, fmap)
        phi = fmap.linear_part()
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
        return _d_alpha_fd(dec, fmap, p, v)
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


def chain_rule_check(dec: CbCDecomposition, f: FiberMap, g: FiberMap, p) -> float:
    """Operator-norm defect of D(F o G)(p) against D F(G(p)) . D G(p)."""
    composite = compose(g, f)  # apply g first
    lhs = d_alpha_matrix(dec, composite, p)
    gp = g(as_float(p))
    rhs = d_alpha_matrix(dec, f, gp) @ d_alpha_matrix(dec, g, p)
    return float(np.linalg.norm(lhs - rhs, 2))


# ---------------------------------------------------------------------------
# numeric Pansu differential probe


def pansu_check(
    alg: GradedAlgebra,
    f,
    x,
    l_map: LinearMap,
    seed: int = 42,
    count: int = 32,
):
    """Defect sequence sup_u rho(F(x)^-1 F(y), L(x^-1 y)) / rho(x, y).

    y runs over x * delta_t(u) for the scales t = 1/10, 1/100, 1/1000,
    1/10000 with seeded dyadic-rational offsets u, and one (t, defect)
    pair is returned per scale; a decreasing sequence supports
    differentiability with differential L.  Sample points, scales and
    the basepoint are kept rational so that a map preserving exact
    arithmetic (in particular L itself, or any rational graded
    automorphism) reports an exactly zero numerator rather than a
    rounding residue; when F or L has float values the numerator is
    compared in floats.
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
    out = []
    denom = 1 << 20
    for t in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10000)):
        rng = CounterRng(seed)
        worst = 0.0
        for _ in range(count):
            u = tuple(
                Fraction(int(round(rng.symmetric() * denom)), denom) for _ in range(alg.dim)
            )
            n = quasi_norm(alg, u)
            if n < 1e-6:
                continue
            y = bch(alg, xe, dilate(alg, t, u))
            lhs = bch(alg, vneg(fx), f(y))
            rhs = l_map(bch(alg, vneg(xe), y))
            if floats:
                lhs, rhs = as_float(lhs), as_float(rhs)
            num = quasi_dist(alg, lhs, rhs)
            den = quasi_dist(alg, xe, y)
            if den > 0:
                worst = max(worst, num / den)
        out.append((float(t), worst))
    return tuple(out)


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


def similarity_pair(dec: CbCDecomposition, fmap: FiberMap) -> CompatibleExpression:
    """Psi(gamma) = (A_gamma, gammabar), read off the normal form; both must be similarities."""
    expr = extract_compatible(dec, fmap)
    expr.similarity_ratios  # raises here, not at the first action
    return expr


def similarity_exponent_check(dec: CbCDecomposition, fmap: FiberMap):
    """(lambda_A, lambda_Bbar, lambda_Bbar - lambda_A**alpha)."""
    lambda_a, lambda_bbar = extract_compatible(dec, fmap).similarity_ratios
    alpha = float(dec.alpha)
    return lambda_a, lambda_bbar, lambda_bbar - lambda_a**alpha


def cocycle_action(dec: CbCDecomposition, pair: CompatibleExpression, component: ShearComponent) -> ShearComponent:
    """(pi_(A,B) c)(hbar) = A^-1 c(B hbar) - A^-1 c(B 0), with (A, B) read off ``pair``."""
    alpha = float(dec.alpha)
    lambda_a, lambda_bbar = pair.similarity_ratios
    if abs(lambda_bbar - lambda_a**alpha) > 1e-12 * max(1.0, lambda_bbar):
        raise ValueError("the pair does not satisfy lambda_B = lambda_A**alpha")
    b0 = pair.quot_apply((0.0,) * dec.quotient_carnot.dim)
    inner = component.eval
    origin_val = dec.w_apply(pair.a_inverse, inner(b0))

    def evaluate(q):
        val = dec.w_apply(pair.a_inverse, inner(pair.quot_apply(q)))
        return tuple(a - b for a, b in zip(val, origin_val))

    return ShearComponent(component.layer, evaluate, None, component.holder_hint)


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
    """b_j(gamma) = s_gamma,j for the layers below the exponent."""
    expr = extract_compatible(dec, _below_exponent_chain(dec, fmap))
    return {j: expr.s_component(j) for j in dec.cocycle_layers}


def cocycle_identity_check(dec: CbCDecomposition, gamma1: FiberMap, gamma2: FiberMap) -> float:
    """Defect of b_j(g2 o g1) = b_j(g1) + pi_Psi(g1) b_j(g2) on a grid."""
    grid = quotient_grid(dec, count=100, seed=5, radius=4.0)
    composite = compose(gamma1, gamma2)
    b1 = cocycle_of(dec, gamma1)
    b2 = cocycle_of(dec, gamma2)
    bc = cocycle_of(dec, composite)
    pair1 = similarity_pair(dec, gamma1)
    defect = 0.0
    for j, comp in bc.items():
        transported = cocycle_action(dec, pair1, b2[j])
        for q in grid:
            lhs = comp.eval(q)
            rhs = vadd(b1[j].eval(q), transported.eval(q))
            defect = max(defect, linalg.max_gap(lhs, rhs))
    return defect


def quotient_grid(dec: CbCDecomposition, count=100, seed=5, radius=4.0):
    rng = CounterRng(seed)
    return tuple(
        sample_ball_point(rng, dec.quotient_carnot, radius) for _ in range(count)
    )


# ---------------------------------------------------------------------------
# conjugation by shear maps and the fixed point of the affine action


@dataclass(frozen=True)
class ConjugationReport:
    layer: int
    sup_new_component: float
    identity_defect: float


def conjugate_by_shear(dec: CbCDecomposition, f0: ShearMap, gamma: FiberMap):
    """gamma~ = F0 o gamma o F0^-1; checks s~_j = s_j - c + pi_Psi(gamma) c.

    Returns the conjugated chain and the grid report for the base layer
    of F0.  When c is a fixed point of the affine action the new
    component vanishes.
    """
    base_layers = [j for j in sorted(f0.components) if j in dec.cocycle_layers]
    if not base_layers:
        raise ValueError("the conjugating shear must have a base layer below the exponent")
    j = base_layers[0]
    conj = compose(fiber_shear(f0.negated()), gamma, fiber_shear(f0))
    pair = similarity_pair(dec, gamma)
    c = f0.components[j]
    s_gamma = cocycle_of(dec, gamma)[j]
    s_new = cocycle_of(dec, conj)[j]
    transported = cocycle_action(dec, pair, c)
    zero = (0.0,) * dec.base.dim
    sup_new = 0.0
    defect = 0.0
    for q in quotient_grid(dec, count=60, seed=9, radius=4.0):
        new_val = s_new.eval(q)
        sup_new = max(sup_new, linalg.max_gap(new_val, zero))
        expected = vadd(linalg.vsub(s_gamma.eval(q), c.eval(q)), transported.eval(q))
        defect = max(defect, linalg.max_gap(new_val, expected))
    return conj, ConjugationReport(j, sup_new, defect)


@dataclass(frozen=True)
class FixedPointReport:
    iterations: int
    final_change: float
    contraction_factor: float


def solve_single_generator_fixed_point(dec: CbCDecomposition, gamma: FiberMap, j: int):
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

    The point-independent pieces of each term, the power A^-k (an exact
    ``LinearMap``, whose float twin is built once) and s(B^k 0), are
    tabulated once while the iteration runs; the returned component
    reads those tables, so evaluating it at a point costs only the orbit
    B^k q and its s values.  Each s value is checked to lie in w once,
    when its ideal coordinates are memoized.
    """
    if j not in dec.cocycle_layers:
        raise ValueError(f"layer {j} is not a center layer below the exponent")
    pair = similarity_pair(dec, gamma)
    s = cocycle_of(dec, gamma)[j]
    max_iter, tol = 80, 1e-12
    grid = quotient_grid(dec, count=40, seed=13, radius=4.0)

    s_memo: dict = {}

    def s_at(q):
        """Ideal coordinates of s(q), checked in w once per point."""
        if q not in s_memo:
            s_memo[q] = dec.w_coords(s.eval(q))
        return s_memo[q]

    a_inv_powers = []
    s_origin = []

    def term(k, orbit_q):
        # w_coords reads pivot entries, so the coordinates of a difference
        # are the difference of the coordinates, bit for bit
        return dec.w_embed(a_inv_powers[k](linalg.vsub(s_at(orbit_q), s_origin[k])))

    orbits = {q: q for q in grid}
    orbit_0 = (0.0,) * dec.quotient_carnot.dim
    zero = (0.0,) * dec.base.dim
    a_inv_power = linalg.identity_matrix(dec.w.rank)
    prev_change = None
    factor = 0.0
    for k in range(max_iter):
        a_inv_powers.append(LinearMap(a_inv_power))
        s_origin.append(s_at(orbit_0))
        change = 0.0
        for q, orbit_q in orbits.items():
            change = max(change, linalg.max_gap(term(k, orbit_q), zero))
            orbits[q] = pair.quot_apply(orbit_q)
        orbit_0 = pair.quot_apply(orbit_0)
        a_inv_power = linalg.mat_mul(pair.a_inverse.matrix, a_inv_power)
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

    memo: dict = {}

    def evaluate(q):
        key = tuple(float(a) for a in q)
        if key not in memo:
            total = (0.0,) * dec.base.dim
            orbit_q = key
            for k in range(len(a_inv_powers)):
                total = vadd(total, term(k, orbit_q))
                orbit_q = pair.quot_apply(orbit_q)
            memo[key] = total
        return memo[key]

    return ShearComponent(j, evaluate), FixedPointReport(len(a_inv_powers), prev_change, factor)


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
    for _ in range(sampler.count):
        x = sample_ball_point(rng, alg, sampler.radius)
        y = sample_ball_point(rng, alg, sampler.radius)
        lhs = g(bch(alg, x, y))
        rhs = bch(alg, g(x), g(y))
        defect = max(defect, linalg.max_gap(lhs, rhs))
    return AutomorphismReport(defect, 1e-10 * max(1.0, sampler.radius**2))
