"""Graded nilpotent Lie algebras with diagonal derivations.

A :class:`GradedAlgebra` stores a basis, positive rational weights (the
eigenvalues of a diagonal derivation on the basis), and sparse rational
structure constants ``[e_i, e_j] = sum_k c_ijk e_k`` for ``i < j``.
Construction validates only the shape of the data; the algebraic
invariants (Jacobi, grading, nilpotency) are checked by
:func:`validate_algebra` and reported, never raised, so that broken
tables can be loaded and diagnosed.

All subspace computations are exact over rationals and return canonical
reduced row-echelon bases, so equality of subspaces is plain equality.
Values are immutable; every operation is a pure function.  Tables
derived from an algebra (bracket lookups, layer indices, the lower
central series, the validation report, Carnot layers, nested-bracket
words and the BCH plan) are cached properties of the instance: each is
computed at most once per instance, and no module-level cache is keyed
by an algebra.

Kernels: the bracket and the BCH product are polynomials fixed by the
algebra, so each is written out once per instance as straight-line
Python (``bracket_kernel`` from ``bracket_table``, ``bch_kernel`` from
``bch_plan``) and compiled; at these sizes interpreter overhead, not
arithmetic, dominates a loop over the tables.  A kernel does the loop's
arithmetic in the loop's order.  The BCH kernel runs in both scalar
modes: it takes the exact coefficients and ``Fraction(0)``, or their
float twin and ``0.0``; the bracket kernel runs on the float twin only.
Its source holds only identifiers and indices.  The float array forms
(``bch_array_kernel``, and ``pairing_array_kernel`` for the loop test's
pairing) are the same code without its ``if`` guards.  A
:class:`LinearMap` runs the product kernel of its shape, compiled once
per shape (``linear_kernel``), for both modes and on coordinate columns.

The exact oracle reads the structure constants (``ad``): the exact
bracket sums over nonzero coordinates and constants only, and the Jacobi
check sums products of constants, so it runs none of the kernels.

A :class:`Subspace` does the arithmetic on its rows: ``embed`` is the
``LinearMap`` whose columns are the rows, and ``residual`` reduces a
float point or coordinate columns against float rows built once.  No
other module loops over the rows together with their pivots.

Float twins: the kernel coefficients, the weights (``weights_float``)
and the matrix of a :class:`LinearMap` (``flat_float``) each have a
float copy built once and read whenever ``linalg.scalar_mode`` finds
the vector they meet float.  CPython computes ``Fraction * float`` as
``float(Fraction) * float``, so a twin gives the same bits as the exact
table without a conversion per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from . import linalg
from .linalg import rref, reduce_against, in_span, kernel_basis


class NotCarnotError(ValueError):
    pass


@dataclass(frozen=True)
class GradedAlgebra:
    """Basis, weights and structure constants of a graded Lie algebra.

    ``brackets`` is a sorted tuple of entries ``(i, j, k, c)`` with
    ``i < j`` meaning ``[e_i, e_j]`` has coefficient ``c`` on ``e_k``.
    """

    dim: int
    labels: tuple[str, ...]
    weights: tuple[Fraction, ...]
    brackets: tuple[tuple[int, int, int, Fraction], ...]

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        if len(self.labels) != self.dim or len(self.weights) != self.dim:
            raise ValueError("labels/weights length must equal dim")
        for w in self.weights:
            if w <= 0:
                raise ValueError(f"weights must be positive, got {w}")
        seen = set()
        for i, j, k, c in self.brackets:
            if not (0 <= i < j < self.dim):
                raise ValueError(f"bracket indices need 0 <= i < j < dim, got ({i},{j})")
            if not (0 <= k < self.dim):
                raise ValueError(f"bracket target out of range: {k}")
            if (i, j, k) in seen:
                raise ValueError(f"duplicate bracket entry ({i},{j},{k})")
            seen.add((i, j, k))

    @cached_property
    def layers(self):
        """Weight -> basis indices of that weight, in increasing weight order."""
        return {
            w: tuple(i for i, v in enumerate(self.weights) if v == w)
            for w in sorted(set(self.weights))
        }

    @property
    def weight_set(self):
        return tuple(self.layers)

    def layer_indices(self, weight):
        return self.layers.get(weight, ())

    @cached_property
    def norm_layers(self):
        """(1/weight, indices) per layer, the table of the homogeneous quasi-norm."""
        return tuple((1.0 / float(w), idx) for w, idx in self.layers.items())

    def basis_vector(self, i, mode="exact"):
        one = Fraction(1) if mode == "exact" else 1.0
        zero = Fraction(0) if mode == "exact" else 0.0
        return tuple(one if j == i else zero for j in range(self.dim))

    @cached_property
    def bracket_table(self):
        """Rows (i, j, ((k, c), ...)) for i < j: [e_i, e_j] = sum c e_k."""
        table: dict[tuple[int, int], list] = {}
        for i, j, k, c in self.brackets:
            table.setdefault((i, j), []).append((k, c))
        return tuple((i, j, tuple(entries)) for (i, j), entries in table.items())

    @cached_property
    def ad(self):
        """Per index i, a read-only map j -> ((k, c), ...): [e_i, e_j] = sum c e_k, both orders."""
        rows = [{} for _ in range(self.dim)]
        for i, j, entries in self.bracket_table:
            rows[i][j] = entries
            rows[j][i] = tuple((k, -c) for k, c in entries)
        return tuple(MappingProxyType(row) for row in rows)

    @cached_property
    def weights_float(self):
        return tuple(float(w) for w in self.weights)

    @cached_property
    def bracket_kernel(self):
        """``[x, y]`` as a generated :class:`Kernel` over ``bracket_table``."""
        return _kernel(self.dim, self.bracket_table, ((0, 1),), None)

    @cached_property
    def lower_central_series(self):
        """Subspaces n^(1) >= n^(2) >= ..., ending at the zero space.

        A non-nilpotent algebra ends with the first repeated rank instead.
        """
        series = [full_space(self)]
        basis = [self.basis_vector(i) for i in range(self.dim)]
        while series[-1].rank > 0:
            prev = series[-1]
            vecs = []
            for b in basis:
                for row in prev.rows:
                    v = bracket(self, b, row)
                    if not linalg.is_zero(v):
                        vecs.append(v)
            nxt = subspace(self, vecs)
            series.append(nxt)
            if nxt.rank == prev.rank:
                break
        return tuple(series)

    @cached_property
    def nilpotency_step(self) -> int:
        """Largest t with n^(t) != 0; equals the max depth of a nonzero bracket."""
        series = self.lower_central_series
        if series[-1].rank != 0:
            raise ValueError("algebra is not nilpotent")
        return len(series) - 1

    @cached_property
    def bch_plan(self):
        """The BCH product as (steps, terms), built from the Dynkin words.

        Slots 0 and 1 hold x and y.  Step ``(letter, tail)`` appends the
        slot ``[slot letter, slot tail]``: one slot per distinct
        right-nested suffix, so a suffix shared by several words is
        bracketed once.  Words ending in two equal letters contain
        ``[x, x]`` or ``[y, y]``, which is exactly zero, and are dropped.
        ``terms`` pairs a slot with its exact coefficient in the original
        word order, so a float sum is bit-identical to accumulating word
        by word.
        """
        from .group import dynkin_words

        slots = {(0,): 0, (1,): 1}
        steps = []
        terms = []
        for word, coef in dynkin_words(self.nilpotency_step):
            if len(word) > 1 and word[-1] == word[-2]:
                continue
            for n in range(2, len(word) + 1):
                suffix = word[-n:]
                if suffix not in slots:
                    slots[suffix] = len(slots)
                    steps.append((suffix[0], slots[suffix[1:]]))
            terms.append((slots[word], coef))
        return tuple(steps), tuple(terms)

    @cached_property
    def bch_kernel(self):
        """The BCH product as a generated :class:`Kernel` over ``bch_plan``."""
        return _kernel(self.dim, self.bracket_table, *self.bch_plan)

    @cached_property
    def bch_array_kernel(self):
        """``bch_kernel`` without its guards, for float arrays (see :func:`_kernel`)."""
        return _kernel(self.dim, self.bracket_table, *self.bch_plan, guarded=False)

    @cached_property
    def validation(self) -> ValidationReport:
        """See :func:`validate_algebra`."""
        checks = []

        # antisymmetry is implied by i<j storage; defensively re-verify the shape
        anti_ok = all(i < j for i, j, _, _ in self.brackets)
        checks.append(("antisymmetry", anti_ok, "stored for i<j; diagonal brackets absent"))

        bad = [
            (i, j, k)
            for i, j, k, c in self.brackets
            if c != 0 and self.weights[i] + self.weights[j] != self.weights[k]
        ]
        checks.append(
            ("grading", not bad, "" if not bad else f"entries violating weight addition: {bad}")
        )

        jd = _jacobi_defects(self)
        checks.append(("jacobi", not jd, "" if not jd else f"failing triples: {jd}"))

        series = self.lower_central_series
        nilp = series[-1].rank == 0
        step = len(series) - 1 if nilp else 0
        checks.append(
            ("nilpotency", nilp, f"step {step}" if nilp else "lower central series stagnates")
        )

        warnings = []
        if min(self.weights) != 1:
            warnings.append(
                f"smallest weight is {min(self.weights)}; rescaling it to 1 is conventional"
            )
        return ValidationReport(tuple(checks), step, tuple(warnings))

    @cached_property
    def carnot_layers(self):
        """Layer index (1..r) per basis vector if the algebra is Carnot-graded.

        Requires integer weight ratios; generation is checked separately.
        """
        w1 = min(self.weights)
        layers = []
        for w in self.weights:
            ratio = w / w1
            if ratio.denominator != 1:
                raise NotCarnotError(f"weight {w} is not an integer multiple of {w1}")
            layers.append(int(ratio))
        return tuple(layers)

    @cached_property
    def _layer_words(self):
        """Layer m -> ((word, vector), ...) spanning layer m, or None if not Carnot.

        A word is a tuple of first-layer basis indices standing for the
        right-nested bracket ``[e_w0, [e_w1, [...]]]``.  Layer m keeps, in
        order, each ``[e_i, word]`` over the words of layer m-1 that
        enlarges their span.  None when the weights are not integer
        multiples of the smallest, a layer is empty, or the words of a
        layer do not span exactly that layer.
        """
        try:
            layers = self.carnot_layers
        except NotCarnotError:
            return None
        first = [i for i in range(self.dim) if layers[i] == 1]
        words = {1: tuple(((i,), self.basis_vector(i)) for i in first)}
        for m in range(2, max(layers) + 1):
            chosen = []
            rows = pivots = ()
            for i in first:
                for word, vec in words[m - 1]:
                    v = bracket(self, self.basis_vector(i), vec)
                    if not linalg.is_zero(v) and not linalg.in_span(rows, pivots, v):
                        chosen.append(((i,) + word, v))
                        rows, pivots = linalg.rref(rows + (v,))
            target = weight_slice(self, self.weight_set[0] * m).rows
            if not target or rows != target:
                return None
            words[m] = tuple(chosen)
        return words

    @property
    def is_carnot(self) -> bool:
        """Weights are 1..r multiples of the smallest and each layer is generated."""
        return self._layer_words is not None

    @cached_property
    def bracket_expressions(self):
        """Nested-bracket expressions of higher-layer basis vectors.

        For each basis index k of layer >= 2 returns a rational combination
        ``[(coeff, word), ...]`` of the words of ``_layer_words``.
        """
        if not self.is_carnot:
            raise NotCarnotError("bracket expressions require a Carnot algebra")
        table = {}
        for m, chosen in list(self._layer_words.items())[1:]:
            cols = [vec for _, vec in chosen]
            for k in self.layer_indices(self.weight_set[0] * m):
                coeffs = linalg.solve_exact(cols, self.basis_vector(k))
                table[k] = tuple((c, chosen[t][0]) for t, c in enumerate(coeffs) if c != 0)
        return table


# module-level names of the cached tables, part of the public API


def validate_algebra(alg: GradedAlgebra) -> ValidationReport:
    """Exact per-invariant report: antisymmetry, grading, Jacobi (from ``ad``), nilpotency."""
    return alg.validation


def is_carnot(alg: GradedAlgebra) -> bool:
    return alg.is_carnot


def bracket_expressions(alg: GradedAlgebra):
    return alg.bracket_expressions


class Kernel(NamedTuple):
    """A generated ``run(x, y, coeffs, zero)`` with the coefficients it reads.

    ``coeffs`` is ``exact`` with ``zero = Fraction(0)``, or its float twin
    ``floats`` with ``zero = 0.0``.  ``source`` holds only identifiers and
    integer indices: no label, weight or constant of the algebra.
    """

    source: str
    run: Callable
    exact: tuple
    floats: tuple


def _kernel(dim, table, steps, terms, guarded=True):
    """Compile straight-line code for the bracket ``steps``, then the ``terms``.

    Slots 0 and 1 hold the coordinates of x and y.  Step ``(letter, tail)``
    writes a new slot ``[slot letter, slot tail]`` row by row in table
    order: ``t = a_i*b_j - a_j*b_i``, then ``if t:`` adds ``c*t`` into each
    target.  A coordinate that no row targets is never written and reads as
    ``zero``; rows are not pruned, so inf and nan spread as in a loop.  The
    result is the last slot when ``terms`` is None, else the sum of
    ``coef*slot`` over the terms in order, skipping zero entries.

    ``guarded=False`` drops the ``if`` guards, so the code runs on float
    arrays.  The bits do not change: every accumulator starts at +0.0 and
    so never holds -0.0, and adding the +-0.0 that a skipped product
    gives leaves it as it is.  Exact kernels keep their guards, which
    skip a ``Fraction`` product per zero.
    """
    written = sorted({k for _, _, entries in table for k, _ in entries})
    slots = [{k: f"x{k}" for k in range(dim)}, {k: f"y{k}" for k in range(dim)}]
    lines = [f"{', '.join(slots[0].values())}, = x", f"{', '.join(slots[1].values())}, = y"]

    def add(test, line):
        return [f"if {test}:", f"    {line}"] if guarded else [line]

    for letter, tail in steps:
        a, b, out = slots[letter], slots[tail], {k: f"s{len(slots)}_{k}" for k in written}
        slots.append(out)
        lines += [f"{' = '.join(out.values())} = zero"] if out else []
        n = 0
        for i, j, entries in table:
            ai, aj, bi, bj = a.get(i, "zero"), a.get(j, "zero"), b.get(i, "zero"), b.get(j, "zero")
            lines.append(f"t = {ai}*{bj} - {aj}*{bi}")
            for k, _ in entries:
                lines += add("t", f"{out[k]} += c{n}*t")
                n += 1
    exact = [c for _, _, entries in table for _, c in entries]
    names = [f"c{n}" for n in range(len(exact))]
    result = slots[-1]
    if terms is not None:
        result = {k: f"o{k}" for k in range(dim)}
        lines.append(f"{' = '.join(result.values())} = zero")
        for n, (slot, coef) in enumerate(terms):
            exact.append(coef)
            names.append(f"d{n}")
            for k, name in slots[slot].items():
                lines += add(name, f"o{k} += d{n}*{name}")
    lines = ([f"{', '.join(names)}, = c"] if names else []) + lines
    lines.append(f"return ({', '.join(result.get(k, 'zero') for k in range(dim))},)")
    source = "def kernel(x, y, c, zero):\n" + "".join(f"    {line}\n" for line in lines)
    run = compile_source(source, "kernel", {"__builtins__": {}})
    return Kernel(source, run, tuple(exact), tuple(float(c) for c in exact))


def compile_source(source, name, namespace):
    """The function ``name`` that generated ``source`` defines, run in a
    copy of ``namespace``: the one place generated code is executed.  The
    function is taken out of its namespace, so that the two form no
    reference cycle and go with the last reference to the function."""
    namespace = dict(namespace)
    exec(source, namespace)
    return namespace.pop(name)


def pairing_array_kernel(alg: GradedAlgebra, targets):
    """The bracket on float arrays, unguarded, writing only the coordinates
    ``targets``: each of them sums the same products in the same order as
    in ``bracket_kernel``, and every other coordinate reads ``zero``."""
    table = tuple(
        (i, j, kept)
        for i, j, entries in alg.bracket_table
        if (kept := tuple((k, c) for k, c in entries if k in targets))
    )
    return _kernel(alg.dim, table, ((0, 1),), None, guarded=False)


def bracket_float(alg: GradedAlgebra, x, y):
    """Float-only bracket on the float twin; no mode checks, for inner loops."""
    kernel = alg.bracket_kernel
    return kernel.run(x, y, kernel.floats, 0.0)


def bracket(alg: GradedAlgebra, x, y):
    """Bilinear antisymmetric extension of the structure constants: exact
    vectors sum ``x_i*y_j*c`` over their nonzero entries and ``alg.ad``."""
    if len(x) != alg.dim or len(y) != alg.dim:
        raise ValueError("vector dimension does not match the algebra")
    if linalg.scalar_mode(x, y) == "float":
        return alg.bracket_kernel.run(x, y, alg.bracket_kernel.floats, 0.0)
    out = [Fraction(0)] * alg.dim
    ys = [(j, b) for j, b in enumerate(y) if b]
    for a, row in zip(x, alg.ad):
        if a:
            for j, b in ys:
                for k, c in row.get(j, ()):
                    out[k] += a * b * c
    return tuple(out)


@dataclass(frozen=True)
class Subspace:
    """A subspace given by its RREF basis rows (canonical form)."""

    dim: int
    rows: tuple[tuple, ...]
    pivots: tuple[int, ...]

    @property
    def rank(self):
        return len(self.rows)

    def contains(self, x):
        return in_span(self.rows, self.pivots, x)

    @cached_property
    def embed(self) -> LinearMap:
        """Coordinates in the row basis to vectors: the columns are the rows."""
        return LinearMap(tuple(tuple(row[i] for row in self.rows) for i in range(self.dim)))

    @cached_property
    def _rows_array(self):
        return np.array(self.rows, dtype=float).reshape(self.rank, self.dim)

    def residual(self, x):
        """What is left of a float point or of coordinate columns after the
        reduction against the rows, as one (dim, points) array.  Every row
        subtracts its pivot multiple, a zero one included, where
        ``linalg.reduce_against`` skips it: only the sign of a zero differs."""
        resid = np.array(np.broadcast_arrays(*x), dtype=float).reshape(len(x), -1)
        for row, p in zip(self._rows_array, self.pivots):
            resid = resid - resid[p] * row[:, None]
        return resid


def subspace(alg: GradedAlgebra, vectors) -> Subspace:
    rows, pivots = rref(tuple(tuple(v) for v in vectors))
    return Subspace(alg.dim, rows, pivots)


def full_space(alg: GradedAlgebra) -> Subspace:
    return subspace(alg, [alg.basis_vector(i) for i in range(alg.dim)])


def weight_slice(alg: GradedAlgebra, weight) -> Subspace:
    return subspace(alg, [alg.basis_vector(i) for i in alg.layer_indices(weight)])


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[tuple[str, bool, str], ...]
    step: int
    warnings: tuple[str, ...] = ()

    @property
    def ok(self):
        return all(passed for _, passed, _ in self.checks)

    def check(self, name):
        for n, passed, detail in self.checks:
            if n == name:
                return passed, detail
        raise KeyError(name)


def _jacobi_defects(alg: GradedAlgebra):
    """Triples i < j < k whose Jacobi sum is nonzero, read off ``alg.ad``:
    the cyclic sum of ``[e_a, [e_b, e_c]] = sum_l c_bc^l c_al^m e_m``."""
    defects = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            for k in range(j + 1, alg.dim):
                total = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, s in alg.ad[b].get(c, ()):
                        for m, t in alg.ad[a].get(l, ()):
                            total[m] = total.get(m, 0) + s * t
                if any(total.values()):
                    defects.append((i, j, k))
    return defects


def subalgebra_generated(alg: GradedAlgebra, seed: Subspace) -> Subspace:
    """Smallest bracket-closed subspace containing the seed (saturation)."""
    current = subspace(alg, seed.rows)
    while True:
        vecs = list(current.rows)
        for a in current.rows:
            for b in current.rows:
                v = bracket(alg, a, b)
                if not linalg.is_zero(v):
                    vecs.append(v)
        nxt = subspace(alg, vecs)
        if nxt.rank == current.rank:
            return nxt
        current = nxt


def is_ideal(alg: GradedAlgebra, s: Subspace) -> bool:
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    return all(s.contains(bracket(alg, b, row)) for b in basis for row in s.rows)


def center(alg: GradedAlgebra, s: Subspace):
    """Center of the graded subalgebra s, with its per-weight slices.

    Returns (Subspace, {weight: Subspace}).  The center of a graded
    subalgebra is graded, so each kernel vector is split into its weight
    components before assembling the slices; gradedness of s is what
    makes the split stay central.  Each pair of rows is bracketed once:
    the same brackets test that s is closed and build the kernel matrix.
    """
    # x = sum c_i row_i with [x, row_j] = 0 for all j
    cols = []
    for row in s.rows:
        brackets = [bracket(alg, row, other) for other in s.rows]
        if not all(s.contains(v) for v in brackets):
            raise ValueError("center requires a bracket-closed subspace")
        cols.append(tuple(a for v in brackets for a in v))
    if not is_graded_subspace(alg, s):
        raise ValueError("center requires a graded subspace")
    if s.rank == 0:
        return s, {}
    # kernel of the matrix whose columns are the stacked brackets
    vectors = [s.embed(coeffs) for coeffs in kernel_basis(tuple(zip(*cols)))]
    # graded split
    split = []
    for v in vectors:
        for w in alg.weight_set:
            comp = tuple(a if alg.weights[i] == w else Fraction(0) for i, a in enumerate(v))
            if not linalg.is_zero(comp):
                split.append(comp)
    z = subspace(alg, split)
    slices = {}
    for w in alg.weight_set:
        rows_w = [r for r in z.rows if all(a == 0 or alg.weights[i] == w for i, a in enumerate(r))]
        sl = subspace(alg, rows_w)
        if sl.rank:
            slices[w] = sl
    return z, slices


@dataclass(frozen=True)
class LinearMap:
    """A matrix acting on coordinate vectors (rows act from the left) through
    ``kernel(x, m)``: row i is ``0 + m_i0*x0 + m_i1*x1 + ...`` as ``sum`` adds,
    zeros kept, on ``flat_exact`` or its float twin; x of another length raises."""

    matrix: tuple[tuple, ...]

    @cached_property
    def flat_exact(self):
        return tuple(a for row in self.matrix for a in row)

    @cached_property
    def flat_float(self):
        return tuple(map(float, self.flat_exact))

    @cached_property
    def kernel(self):
        return linear_kernel(len(self.matrix), len(self.matrix[0]) if self.matrix else 0)

    def __call__(self, x):
        m = self.flat_float if linalg.scalar_mode(x) == "float" else self.flat_exact
        return self.kernel(x, m)


# (rows, cols) -> the kernel of every LinearMap of that shape
_LINEAR_KERNELS: dict = {}


def linear_kernel(rows, cols):
    """``LinearMap.kernel`` of a rows x cols matrix.  The coefficients are
    passed in, so the source depends on the shape alone and is compiled
    once per shape; the table is keyed by two ints, never by an algebra."""
    if (rows, cols) not in _LINEAR_KERNELS:
        names = lambda seq: "(" + "".join(f"{n}, " for n in seq) + ")"
        m = [[f"m{i}_{j}" for j in range(cols)] for i in range(rows)]
        sums = ["0" + "".join(f" + {e}*x{j}" for j, e in enumerate(r)) for r in m]
        source = f"def kernel(x, m):\n    {names(f'x{j}' for j in range(cols))} = x\n"
        source += f"    {names(e for r in m for e in r)} = m\n    return {names(sums)}\n"
        _LINEAR_KERNELS[rows, cols] = compile_source(source, "kernel", {"__builtins__": {}})
    return _LINEAR_KERNELS[rows, cols]


def is_graded_subspace(alg: GradedAlgebra, s: Subspace) -> bool:
    """True iff every RREF row is supported in a single weight layer."""
    for row in s.rows:
        met = {alg.weights[i] for i, a in enumerate(row) if a != 0}
        if len(met) > 1:
            return False
    return True


def quotient(alg: GradedAlgebra, ideal: Subspace):
    """Quotient algebra by a graded ideal, with the projection map.

    The quotient basis is the set of non-pivot coordinates of the ideal;
    weights are inherited, and the projection is weight-preserving.
    """
    if not is_ideal(alg, ideal):
        raise ValueError("quotient requires an ideal")
    if not is_graded_subspace(alg, ideal):
        raise ValueError("quotient requires a graded ideal")
    keep = [i for i in range(alg.dim) if i not in ideal.pivots]
    qdim = len(keep)

    def project_coords(x):
        reduced = reduce_against(ideal.rows, ideal.pivots, x)
        return tuple(reduced[i] for i in keep)

    proj_matrix = tuple(
        zip(*[project_coords(alg.basis_vector(i)) for i in range(alg.dim)])
    )
    qlabels = tuple(alg.labels[i] + "~" for i in keep)
    qweights = tuple(alg.weights[i] for i in keep)
    entries = []
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    for a in range(qdim):
        for b in range(a + 1, qdim):
            v = project_coords(bracket(alg, basis[keep[a]], basis[keep[b]]))
            for k, c in enumerate(v):
                if c != 0:
                    entries.append((a, b, k, Fraction(c)))
    qalg = GradedAlgebra(qdim, qlabels, qweights, tuple(sorted(entries)))
    return qalg, LinearMap(tuple(tuple(r) for r in proj_matrix))


def layer_project(alg: GradedAlgebra, x, weight):
    """Zero out every coordinate whose weight differs from the given one."""
    idx = alg.layer_indices(weight)
    if not idx:
        raise ValueError(f"{weight} is not a weight of the algebra")
    zero = Fraction(0) if linalg.scalar_mode(x) == "exact" else 0.0
    return tuple(a if i in idx else zero for i, a in enumerate(x))
