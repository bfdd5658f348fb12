"""Group structure on a nilpotent Lie algebra via the BCH product.

The product ``x * y = exp^-1(exp x . exp y)`` is computed with the
Dynkin commutator series, truncated at the nilpotency step of the
algebra.  Coefficients are exact rationals, so in exact mode the
product is an oracle: associativity, inverses and the conjugation
formula hold with zero defect.

Both scalar modes run the algebra's ``bch_kernel``, straight-line code
generated once per algebra from its ``bch_plan``, which brackets each
distinct right-nested suffix of the Dynkin words once: exact inputs with
the exact coefficients, float inputs with their float twin, the mode
read once by ``linalg.scalar_mode``.  ``ad_series`` sums
``c_k (ad a)^k b``, the conjugation for ``c_k = 1/k!`` and the velocity
of ``t -> a * (t b)`` for the Bernoulli coefficients ``B_k/k!``.

Also here: dilations ``delta_r`` (the automorphisms generated by the
diagonal derivation), the homogeneous quasi-norm and graded-automorphism
checks.  ``dilate`` accepts a precomputed table of factors, so a
dilation applied at many points (a ``maps.Dilation`` factor, which keeps
the float twin of its table) pays for its powers once.  ``dilate``,
``quasi_norm`` and ``quasi_dist`` take coordinate columns too, with the
bits of one point at a time: both modes take every float power by the
rule of ``linalg.power``, correctly rounded squares and square roots.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .algebra import GradedAlgebra, LinearMap, bracket
from .linalg import as_float, length, power, vadd, vneg, vscale

DEFAULT_DEGREE_CEILING = 6
# through the ceiling: 1/k!, the series of Ad = exp(ad), and B_k/k! with the
# Bernoulli numbers B_k (B_1 = +1/2), the series of z / (1 - exp(-z))
INVERSE_FACTORIALS = tuple(Fraction(1, math.factorial(k)) for k in range(DEFAULT_DEGREE_CEILING + 1))
BERNOULLI = (1, Fraction(1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0, Fraction(1, 42))
BERNOULLI_COEFFS = tuple(Fraction(b, math.factorial(k)) for k, b in enumerate(BERNOULLI))


class BchDegreeError(ValueError):
    """Raised when the nilpotency step exceeds the supported Dynkin degree."""


def dynkin_words(max_degree: int):
    """Dynkin coefficients of the BCH series through the given degree.

    Returns a tuple of (word, coefficient) with word a tuple over
    {0, 1} (0 = X, 1 = Y); the word stands for the right-nested bracket
    [w0, [w1, [... [w_{n-2}, w_{n-1}]]]].  Words whose accumulated
    rational coefficient is zero are dropped.
    """
    coeffs: dict[tuple, Fraction] = defaultdict(Fraction)

    def extend(prefix_word, blocks, degree):
        # close the current block sequence as one Dynkin term
        m = len(blocks)
        if m:
            denom = degree
            for p, q in blocks:
                denom *= math.factorial(p) * math.factorial(q)
            coeffs[prefix_word] += Fraction((-1) ** (m - 1), m) / denom
        if degree == max_degree:
            return
        for p in range(max_degree - degree + 1):
            for q in range(max_degree - degree - p + 1):
                if p + q == 0:
                    continue
                word = prefix_word + (0,) * p + (1,) * q
                extend(word, blocks + ((p, q),), degree + p + q)

    extend((), (), 0)
    return tuple((w, c) for w, c in sorted(coeffs.items()) if c != 0)


def bch(alg: GradedAlgebra, x, y):
    """The product x * y, exact in rational mode.

    The Dynkin series is truncated at the nilpotency step, where it is
    the whole product; steps above the ceiling are refused rather than
    silently truncated, before the kernel is built.  Both scalar modes
    run ``alg.bch_kernel``; coordinate columns run ``alg.bch_array_kernel``.
    """
    step = alg.nilpotency_step
    if step > DEFAULT_DEGREE_CEILING:
        raise BchDegreeError(
            f"nilpotency step {step} exceeds the supported Dynkin degree {DEFAULT_DEGREE_CEILING}"
        )
    kernel = alg.bch_kernel
    mode = linalg.scalar_mode(x, y, arrays="columns")
    if mode == "exact":
        return kernel.run(x, y, kernel.exact, Fraction(0))
    if mode == "columns":
        kernel = alg.bch_array_kernel
    return kernel.run(x, y, kernel.floats, 0.0)


def ad_series(alg: GradedAlgebra, coeffs, a, b):
    """sum_k coeffs[k] (ad a)^k b through the nilpotency step; coeffs[0] is 1."""
    step = alg.nilpotency_step
    if step >= len(coeffs):
        raise BchDegreeError(f"nilpotency step {step} exceeds the tabulated series")
    out = term = b
    for c in coeffs[1 : step + 1]:
        term = bracket(alg, a, term)
        out = vadd(out, vscale(c, term))
    return out


def conjugate_adjoint(alg: GradedAlgebra, y, x):
    """y * x * (-y) computed as sum_k (1/k!) (ad y)^k x."""
    return ad_series(alg, INVERSE_FACTORIALS, y, x)


def _dilation_factors(alg: GradedAlgebra, r):
    """r**lambda per basis vector: exact for rational r and an integer weight.

    Float powers are ``linalg.power``'s: r, ``r * r`` and Python's ``**``
    for the weights 1, 2 and others.  For an array of ratios, one per
    point, an array per basis vector; a finite ratio whose factor
    overflows raises the one-point ``OverflowError``, the first in order.
    """
    if linalg.scalar_mode((r,), arrays="columns") == "columns":
        try:
            if (r <= 0).any():
                raise ValueError
            with np.errstate(over="ignore"):
                powers = {flam: power(r, flam) for flam in set(alg.weights_float)}
            if any((np.isinf(p) & np.isfinite(r)).any() for p in powers.values()):
                raise OverflowError
        except (ValueError, OverflowError):
            for a in r.tolist():
                _dilation_factors(alg, a)
        return [powers[flam] for flam in alg.weights_float]
    if r <= 0:
        raise ValueError("dilation ratio must be positive")
    exact_r = isinstance(r, (int, Fraction)) and not isinstance(r, bool)
    try:
        factors = [
            Fraction(r) ** int(lam) if exact_r and lam.denominator == 1 else power(float(r), flam)
            for lam, flam in zip(alg.weights, alg.weights_float)
        ]
        if not exact_r and math.inf in factors and r != math.inf:
            raise OverflowError
    except OverflowError:
        raise OverflowError(f"the dilation by {r} overflows a float coordinate") from None
    return factors


def dilate(alg: GradedAlgebra, r, x, factors=None):
    """delta_r: scale the weight-lambda coordinate block by r**lambda.

    Exact when r is rational and all weights are integers; otherwise
    falls back to float powers.  On coordinate columns r may be an array
    of ratios, one per point.  ``factors``, when given, must be
    ``_dilation_factors(alg, r)`` or its float twin; it replaces the
    per-call computation of that table.
    """
    if factors is None:
        factors = _dilation_factors(alg, r)
    return tuple(factor * a for factor, a in zip(factors, x))


def quasi_norm(alg: GradedAlgebra, x):
    """sum over layers of |x_lambda|^(1/lambda), |.| the Euclidean slice norm
    ``linalg.length`` and each root ``linalg.power``'s (a square root for
    layer 2, Python's ``**`` from layer 3 on); on coordinate columns, an
    array of the points' norms.  The scalar mode is decided once per call."""
    x = as_float(x)
    norm = length if linalg.scalar_mode(x, arrays="columns") == "columns" else linalg.point_length
    total = 0.0
    for inv_w, idx in alg.norm_layers:
        total = total + power(norm([x[i] for i in idx]), inv_w)
    return total


def quasi_dist(alg: GradedAlgebra, x, y):
    """Left-invariant quasi-distance rho(x, y) = ||x^-1 * y||.

    The points share one scalar mode (``bch`` rejects a mix).  When both
    are exact the difference is computed exactly, so coinciding points
    report distance 0.0 instead of a rounding residue amplified by the
    fractional layer exponents.  On coordinate columns, one sweep gives
    the array of the pairs' distances.
    """
    return quasi_norm(alg, bch(alg, vneg(x), y))


@dataclass(frozen=True)
class AutomorphismVerdict:
    homomorphism: bool
    layer_preserving: bool
    detail: str = ""

    @property
    def graded_automorphism(self):
        return self.homomorphism and self.layer_preserving


def is_lie_homomorphism(alg: GradedAlgebra, m: LinearMap) -> bool:
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            lhs = m(bracket(alg, basis[i], basis[j]))
            rhs = bracket(alg, m(basis[i]), m(basis[j]))
            if lhs != rhs:
                return False
    return True


def is_graded_automorphism(alg: GradedAlgebra, m: LinearMap) -> AutomorphismVerdict:
    """Exact verdict: Lie homomorphism + layer preservation M(V_w) = V_w."""
    hom = is_lie_homomorphism(alg, m)
    layer = True
    detail = ""
    for w in alg.weight_set:
        idx = alg.layer_indices(w)
        block_rows = []
        for i in idx:
            img = m(alg.basis_vector(i))
            if any(img[j] != 0 for j in range(alg.dim) if j not in idx):
                layer = False
                detail = f"image of weight-{w} layer leaves the layer"
                break
            block_rows.append(tuple(img[j] for j in idx))
        if not layer:
            break
        if linalg.rank(tuple(block_rows)) != len(idx):
            layer = False
            detail = f"weight-{w} block is singular"
            break
    return AutomorphismVerdict(hom, layer, detail)


def dilation_matrix(alg: GradedAlgebra, r) -> LinearMap:
    n = alg.dim
    factors = _dilation_factors(alg, r)
    return LinearMap(
        tuple(tuple(f if j == i else (0 * f) for j in range(n)) for i, f in enumerate(factors))
    )


def invert_matrix(m: LinearMap) -> LinearMap:
    """The exact inverse of ``m``: the right half of the RREF of [m | I].
    Raises ``ValueError`` when ``m`` is singular."""
    n = len(m.matrix)
    aug = tuple(tuple(map(Fraction, row)) + unit for row, unit in zip(m.matrix, linalg.identity_matrix(n)))
    rows, pivots = linalg.rref(aug)
    if pivots != tuple(range(n)):
        raise ValueError("the matrix is singular")
    return LinearMap(tuple(row[n:] for row in rows))

