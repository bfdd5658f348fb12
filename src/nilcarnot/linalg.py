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

Coordinate columns hold many points at once: a tuple with one float
array per coordinate (a scalar entry is shared by every point).  They
count as float, and the vector operations here act on them point by
point with the bits of one point at a time.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

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
    """Float entries; the arrays of coordinate columns pass as they are."""
    try:
        return tuple(map(float, x))
    except TypeError:  # numpy refuses float() of an array of points
        return tuple(a if isinstance(a, np.ndarray) else float(a) for a in x)


def scalar_mode(*vectors, arrays="float"):
    """'float' or 'exact' for the entries of all the vectors together.

    A numpy array (a coordinate column) counts as float; when one is
    among the entries the answer is ``arrays``, which a caller that runs
    another kernel on coordinate columns sets to tell them apart.
    Raises ``ValueError`` when float and exact entries meet; entries of
    any other type do not count.
    """
    types = {type(a) for v in vectors for a in v}
    if types == {float}:  # the two common cases, decided by the type set alone
        return "float"
    if types <= {int, Fraction}:
        return "exact"
    # True for a float type or an array, False for an exact one.
    kinds = {issubclass(t, (float, np.ndarray)) for t in types if issubclass(t, (float, int, Fraction, np.ndarray))}
    if len(kinds) > 1:
        raise ValueError("mixed exact/float coordinates")
    if np.ndarray in types:
        return arrays
    return "float" if True in kinds else "exact"


def columns(points):
    """Coordinate columns holding the float points ``points``, in order."""
    return tuple(np.array(points, dtype=float).T)


def points(cols, n=None):
    """The n points that coordinate columns hold, each a tuple of floats;
    n defaults to the length of their arrays."""
    n = np.broadcast(*cols).size if n is None else n
    return list(zip(*(np.broadcast_to(c, (n,)).tolist() for c in cols)))


def max_gap(x, y):
    """The largest |a - b|, or inf when a difference is not finite (a nan
    would drop out of a plain ``max``); every numeric check's defect.  On
    coordinate columns, the largest over all their points."""
    gap = 0.0
    for a, b in zip(x, y):
        d = abs(a - b)
        if isinstance(d, np.ndarray):
            d = float(d.max(initial=0.0))  # a nan stays nan
        if not d < math.inf:
            return math.inf
        gap = max(gap, d)
    return gap


def power(x, e):
    """``x ** e`` of a float, or element by element of a float array, by one
    rule in both modes.  The exponents 1, 2 and 1/2 give ``x``, ``x * x``
    (inf where ``x ** 2`` raises) and the square root of a norm or distance
    (>= +0.0 or nan: ``math.sqrt(-0.0)`` is -0.0, ``(-1.0) ** 0.5`` complex),
    correctly rounded (IEEE 754), where ``x ** 2`` and ``x ** 0.5`` miss the
    nearest float in 14 and 11 of 20,000 draws.  Any other exponent is
    Python's float ``**`` (glibc ``pow``) element by element: ``np.power``
    differs from it in about 5% of draws for 1/3, 1/4, 1/6 and 3, and ``**``
    is the closer in over 99% of those (at most 0.50 ULP off, against 0.66)."""
    if e == 1.0:
        return x
    if e == 2.0:
        return x * x
    values = getattr(x, "tolist", None)
    if values is None:  # a float
        return math.sqrt(x) if e == 0.5 else x**e
    return np.sqrt(x) if e == 0.5 else np.array([a**e for a in values()])


def length(v):
    """The Euclidean norm of a float vector, or of each point of coordinate
    columns: the squares ``a * a`` (``power``; inf where one overflows)
    summed from 0.0 in order, then the square root, or ``hypot`` where
    that sum is inf."""
    if scalar_mode(v, arrays="columns") != "columns":
        return point_length(v)
    cols = np.broadcast_arrays(*v)
    with np.errstate(over="ignore"):
        sq = sum((c * c for c in cols), 0.0)  # arrays: added in order, never compensated
    out = np.sqrt(sq)
    for k in np.flatnonzero(sq == math.inf):
        out[k] = math.hypot(*(c[k] for c in cols))
    return out


def point_length(v):
    """``length`` of one float vector, for a caller that knows its mode."""
    sq = 0.0
    for a in v:
        sq += a * a
    return math.hypot(*v) if sq == math.inf else math.sqrt(sq)


def pairs(cols):
    """The first and the second points of the pairs that coordinate columns
    hold in turn, as two sets of columns; a scalar entry stays shared."""
    return tuple(tuple(c[k::2] if isinstance(c, np.ndarray) else c for c in cols) for k in (0, 1))


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def float_powers(matrix):
    """The float twins of matrix**0, matrix**1, ..., flat in row order: entry n
    of the integer power k of d * matrix, d the lcm of its denominators, reads
    ``n / d**k``, which Python's int division rounds (and overflows) as
    ``float`` of the exact power does."""
    d = math.lcm(*(Fraction(a).denominator for row in matrix for a in row))
    step = [[int(Fraction(a) * d) for a in row] for row in matrix]
    power, scale = [[int(i == j) for j in range(len(step))] for i in range(len(step))], 1
    while True:
        yield tuple(n / scale for row in power for n in row)
        power, scale = [[sum(a * b for a, b in zip(row, col)) for col in zip(*power)] for row in step], scale * d


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
