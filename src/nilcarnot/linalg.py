"""Exact linear algebra over rational scalars.

All structural computations (spans, kernels, quotients) run over
``fractions.Fraction`` so that identities checked elsewhere are exact.
Vectors are plain tuples; matrices are tuples of row tuples.  Nothing
here mutates its inputs.

One rule decides a vector's scalar mode, and ``scalar_mode`` is the one
place that applies it: entries that are floats (``isinstance``) make a
vector float, entries that are ``int`` (``bool`` included) or
``Fraction`` make it exact, an empty vector is exact, and float and
exact entries never meet, in one vector or across the vectors of one
operation.  The one other float test, in ``as_exact``, decides no mode:
it checks that a float entry converts to a rational without loss.
"""

from __future__ import annotations

import math
from fractions import Fraction

def vadd(x, y):
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return tuple(a + b for a, b in zip(x, y))


def vsub(x, y):
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return tuple(a - b for a, b in zip(x, y))


def vscale(c, x):
    return tuple(c * a for a in x)


def combine(coeffs, rows):
    """sum_i coeffs[i] * rows[i], accumulated from 0.0 in row order; the
    coefficients may be floats or float arrays of one shape."""
    out = (0.0,) * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = tuple(a + c * r for a, r in zip(out, row))
    return out


def vneg(x):
    return tuple(-a for a in x)


def zero_vector(n):
    return (Fraction(0),) * n


def is_zero(x):
    return all(a == 0 for a in x)


def as_exact(x):
    """Coerce a vector to Fraction entries; floats must be integral-valued."""
    out = []
    for a in x:
        if isinstance(a, float):
            if a != int(a):
                raise ValueError(f"cannot losslessly convert {a} to a rational")
            a = int(a)
        out.append(Fraction(a))
    return tuple(out)


def as_float(x):
    return tuple(float(a) for a in x)


def scalar_mode(*vectors):
    """'float' or 'exact' for the entries of all the vectors together.

    Raises ``ValueError`` when float and exact entries meet; entries of
    any other type do not count.
    """
    types = {type(a) for v in vectors for a in v}
    # True for a float type, False for an exact one.
    kinds = {issubclass(t, float) for t in types if issubclass(t, (float, int, Fraction))}
    if len(kinds) > 1:
        raise ValueError("mixed exact/float coordinates")
    return "float" if True in kinds else "exact"


def max_gap(x, y):
    """The largest |a - b|, or inf when a difference is not finite (a nan
    would drop out of a plain ``max``); every numeric check's defect."""
    gap = 0.0
    for a, b in zip(x, y):
        d = abs(a - b)
        if not d < math.inf:
            return math.inf
        gap = max(gap, d)
    return gap


def mat_vec(m, x):
    return tuple(sum(r[j] * x[j] for j in range(len(x))) for r in m)


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def identity_matrix(n):
    return tuple(tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n))


def rref(rows):
    """Reduced row-echelon form with zero rows dropped.

    Returns (rows, pivot_columns).  Exact over Fraction; float rows are
    accepted but then the reduction is only numerically meaningful.
    """
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(work)):
            if work[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = work[rank][col]
        work[rank] = [a / inv for a in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                c = work[r][col]
                work[r] = [a - c * b for a, b in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return tuple(tuple(r) for r in work[:rank]), tuple(pivots)


def reduce_against(rows, pivots, x):
    """Subtract the span component of x determined by RREF rows.

    The result has zeros in every pivot coordinate; it is 0 iff x lies
    in the row span.
    """
    y = list(x)
    for row, p in zip(rows, pivots):
        c = y[p]
        if c != 0:
            for j in range(len(y)):
                y[j] -= c * row[j]
    return tuple(y)


def in_span(rows, pivots, x):
    return is_zero(reduce_against(rows, pivots, x))


def span_coords(rows, pivots, x):
    """Coordinates of x in the RREF row basis; raises if x is outside the span."""
    coords = tuple(x[p] for p in pivots)
    if not is_zero(reduce_against(rows, pivots, x)):
        raise ValueError("vector does not lie in the subspace")
    return coords


def solve_exact(matrix_cols, target):
    """Solve sum_j c_j * col_j = target exactly; raises if inconsistent.

    ``matrix_cols`` is a sequence of column vectors.  Underdetermined
    systems return the solution with free variables set to zero.
    """
    ncols = len(matrix_cols)
    n = len(target)
    aug = [[Fraction(matrix_cols[j][i]) for j in range(ncols)] + [Fraction(target[i])] for i in range(n)]
    rows, pivots = rref(tuple(tuple(r) for r in aug))
    coeffs = [Fraction(0)] * ncols
    for row, p in zip(rows, pivots):
        if p == ncols:
            raise ValueError("inconsistent linear system")
        coeffs[p] = row[ncols]
    return tuple(coeffs)


def kernel_basis(rows):
    """Basis of the right kernel of the matrix given by rows (exact)."""
    if not rows:
        return ()
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return tuple(basis)


def rank(rows):
    return len(rref(rows)[0])
