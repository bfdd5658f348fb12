"""An exact lift oracle for polynomial shear components.

Along a horizontal quotient segment x(t) = start * exp(t * step) the
quotient coordinates are polynomials in t, so a polynomial component
gives a polynomial integrand [c(x(t)), step], whose integral over
[0, duration] is exact.  The package's generated code runs on
polynomials in t over ``Fraction`` as it is: ``qc.bch_kernel.run`` with
its ``exact`` coefficients gives the point, each tree's ``source`` runs
through ``algebra.compile_source`` in a namespace whose ``var``, ``div``
and ``power`` act on polynomials, and ``z.embed.kernel`` with
``flat_exact`` and ``dec.pairing_kernels[j]`` with its ``exact``
coefficients give the integrand.

Every float converts to a ``Fraction`` exactly, so the oracle integrates
the very segment the float path integrates, from the same float start
(walked along the path as the float path walks it); the difference is
the float path's own error, rounding plus quadrature.
"""

from __future__ import annotations

from fractions import Fraction

from nilcarnot.algebra import compile_source
from nilcarnot.group import bch
from nilcarnot.linalg import vscale


class Poly:
    """A polynomial in t with ``Fraction`` coefficients, lowest degree first."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.c = tuple(coeffs)

    @staticmethod
    def of(x):
        return x if isinstance(x, Poly) else Poly([Fraction(x)])

    def __add__(self, other):
        a, b = self.c, Poly.of(other).c
        n = max(len(a), len(b))
        return Poly((a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n))

    __radd__ = __add__

    def __neg__(self):
        return Poly(-a for a in self.c)

    def __sub__(self, other):
        return self + -Poly.of(other)

    def __rsub__(self, other):
        return Poly.of(other) + -self

    def __mul__(self, other):
        a, b = self.c, Poly.of(other).c
        out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = Poly([Fraction(1)])
        for _ in range(k):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.c)

    def integral(self, duration):
        """The exact integral over [0, duration]."""
        d = Fraction(duration)
        return sum((a * d ** (k + 1) / (k + 1) for k, a in enumerate(self.c)), Fraction(0))


def _divide(a, b, where):
    b = Poly.of(b)
    if len(b.c) != 1:
        raise ValueError(f"not a polynomial: {where}")
    return Poly.of(a) * Poly([1 / b.c[0]])


def _power(a, b, where):
    if b != int(b) or b < 0:
        raise ValueError(f"not a polynomial: {where}")
    return Poly.of(a) ** int(b)


_NAMESPACE = {"__builtins__": {}, "var": Poly.of, "div": _divide, "power": _power}


def segment_integral(dec, trees, layer, start, step, duration):
    """The exact integral of [c(x(t)), step] over [0, duration] along
    x(t) = start * exp(t * step), c the component with the polynomial
    ``trees`` at ``layer``; one ``Fraction`` per ambient coordinate."""
    qc = dec.quotient_carnot
    t = Poly([Fraction(0), Fraction(1)])
    x = tuple(Poly.of(Fraction(a)) for a in start)
    y = tuple(Fraction(a) * t for a in step)
    kernel = qc.bch_kernel
    point = kernel.run(x, y, kernel.exact, Fraction(0))
    z = dec.z_layer(layer)
    values = [compile_source(tree.source, "expression", _NAMESPACE)(point) for tree in trees]
    val = z.embed.kernel(values, z.embed.flat_exact)
    lifted = [Fraction(0)] * dec.base.dim
    for i, a in zip(dec.transversal_indices, step):
        lifted[i] = Fraction(a)
    pairing = dec.pairing_kernels[layer]
    out = pairing.run(val, tuple(lifted), pairing.exact, Fraction(0))
    return tuple(Poly.of(a).integral(duration) for a in out)


def walked_starts(path):
    """The float start of each segment of ``path``, walked from its start
    one float ``bch`` product at a time."""
    pos, starts = tuple(map(float, path.start)), []
    for direction, duration in path.segments:
        starts.append(pos)
        pos = bch(path.alg, pos, vscale(float(duration), tuple(map(float, direction))))
    return starts


def path_integral(dec, trees, layer, path):
    """The exact integral along every segment of ``path``, from the float
    starts that walking it gives, summed."""
    total = [Fraction(0)] * dec.base.dim
    for start, (direction, duration) in zip(walked_starts(path), path.segments):
        for i, a in enumerate(segment_integral(dec, trees, layer, start, direction, duration)):
            total[i] += a
    return tuple(total)
