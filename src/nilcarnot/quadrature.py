"""Adaptive Simpson quadrature for vector-valued integrands.

Globally adaptive: the interval with the largest Richardson error
estimate is bisected until the summed estimate meets the requested
absolute tolerance (or every offender reaches the depth cap).  This
concentrates evaluations at isolated Holder points without dragging the
smooth bulk of the interval to the same depth.  Vectors are plain
tuples; dimensions here are tiny.

The work is bounded: a call raises :class:`QuadratureError` instead of
refining on when it would evaluate the integrand more than ``MAX_EVALS``
times, or as soon as the intervals capped at ``MAX_DEPTH`` carry more
estimated error than the tolerance, which then can never be met.
"""

from __future__ import annotations

import heapq
import itertools

DEFAULT_TOL = 1e-10
MAX_DEPTH = 30
# over 50x the most evaluations one call of the test suite or the
# benchmark workloads makes (921, a lift in acceptance criterion 5); only
# the CLI test whose integrand is built to exhaust it reaches the budget
MAX_EVALS = 50_000


class QuadratureError(RuntimeError):
    """The error estimate cannot meet the tolerance within the evaluation budget."""

    def __init__(self, evals, error, tol):
        super().__init__(
            f"quadrature stopped after {evals} evaluations with error estimate "
            f"{error:.3e} above the tolerance {tol:.3e}"
        )
        self.evals = evals
        self.error = error


def _simpson(fa, fm, fb, h):
    k = h / 6.0
    return tuple(k * (a + 4.0 * m + b) for a, m, b in zip(fa, fm, fb))


class _Interval:
    __slots__ = ("a", "b", "fa", "fm", "fb", "flm", "frm", "value", "err", "depth")

    def __init__(self, f, a, fa, m, fm, b, fb, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = f(lm)
        frm = f(rm)
        coarse = _simpson(fa, fm, fb, b - a)
        left = _simpson(fa, flm, fm, m - a)
        right = _simpson(fm, frm, fb, b - m)
        fine = tuple(x + y for x, y in zip(left, right))
        delta = tuple(x - y for x, y in zip(fine, coarse))
        self.a, self.b = a, b
        self.fa, self.fm, self.fb = fa, fm, fb
        self.flm, self.frm = flm, frm
        self.value = tuple(x + d / 15.0 for x, d in zip(fine, delta))
        self.err = max((abs(d) for d in delta), default=0.0) / 15.0
        self.depth = depth

    def split(self, f):
        m = 0.5 * (self.a + self.b)
        lm = 0.5 * (self.a + m)
        rm = 0.5 * (m + self.b)
        left = _Interval(f, self.a, self.fa, lm, self.flm, m, self.fm, self.depth + 1)
        right = _Interval(f, m, self.fm, rm, self.frm, self.b, self.fb, self.depth + 1)
        return left, right


def integrate_vector(f, a: float, b: float, tol: float = DEFAULT_TOL):
    """Integrate a tuple-valued f over [a, b] to absolute tolerance tol.

    Each bisection costs four evaluations on top of the first five; a
    bisection that would pass ``MAX_EVALS``, or capped intervals whose
    summed error exceeds ``tol``, raise :class:`QuadratureError`.
    """
    fa = tuple(f(a))
    if a == b:
        return tuple(0.0 for _ in fa)
    fb = tuple(f(b))
    m = 0.5 * (a + b)
    fm = tuple(f(m))
    root = _Interval(f, a, fa, m, fm, b, fb, 0)
    counter = itertools.count()
    heap = [(-root.err, next(counter), root)]
    capped = []
    capped_err = 0.0
    total_err = root.err
    evals = 5
    while heap and total_err > tol:
        _, _, worst = heapq.heappop(heap)
        if worst.depth >= MAX_DEPTH:
            capped.append(worst)
            capped_err += worst.err
            if capped_err > tol:
                raise QuadratureError(evals, total_err, tol)
            continue
        if evals + 4 > MAX_EVALS:
            raise QuadratureError(evals, total_err, tol)
        evals += 4
        total_err -= worst.err
        for child in worst.split(f):
            total_err += child.err
            heapq.heappush(heap, (-child.err, next(counter), child))
    pieces = [iv for _, _, iv in heap] + capped
    if not pieces:
        return root.value
    out = pieces[0].value
    for iv in pieces[1:]:
        out = tuple(x + y for x, y in zip(out, iv.value))
    return out
