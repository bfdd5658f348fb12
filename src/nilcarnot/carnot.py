"""Carnot-by-Carnot decomposition and horizontal-path machinery.

``decompose`` splits a validated algebra into the ideal generated by
the lowest weight layer, the Carnot quotient, the exponent ``alpha``,
the coordinate transversal, and the center layers of the ideal — all
exactly.  ``horizontal_connect`` builds zigzag paths out of horizontal
line segments using group-commutator words for nested brackets, and
``integrate_bracket_form`` integrates the bracket pairing of a
center-valued map against the horizontal tautological one-form along
such paths; ``integrate_bracket_forms`` integrates many paths at once,
on node arrays, to the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg
from .algebra import (
    GradedAlgebra,
    LinearMap,
    Subspace,
    bracket,
    bracket_float,
    center,
    is_carnot,
    is_ideal,
    layer_project,
    pairing_array_kernel,
    quotient,
    subalgebra_generated,
    subspace,
    validate_algebra,
    weight_slice,
)
from .algebra import bracket_expressions  # noqa: F401 (re-exported)
from .group import bch, quasi_norm
from .linalg import as_float, span_coords, vneg, vscale
from .quadrature import DEFAULT_TOL, integrate_batch, integrate_vector


# Relative residual (to 1 + max|x|) up to which a float vector lies in the ideal.
W_TOL = 1e-9


class DecompositionError(ValueError):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class ZigzagError(ArithmeticError):
    """Endpoint tolerance missed after the full pass: floats cannot resolve far enough targets."""


@dataclass(frozen=True)
class HorizontalPath:
    """Concatenation of horizontal line segments from a start point.

    Each segment is (direction, duration) with the direction in the
    first layer; the endpoint is start * prod exp(duration * direction).
    """

    alg: GradedAlgebra
    start: tuple
    segments: tuple

    @cached_property
    def endpoint(self):
        pos = self.start
        for direction, duration in self.segments:
            pos = bch(self.alg, pos, vscale(duration, direction))
        return pos

    @property
    def segment_count(self):
        return len(self.segments)

    @property
    def length(self):
        total = 0.0
        for direction, duration in self.segments:
            total += duration * math.sqrt(sum(float(d) ** 2 for d in direction))
        return total


def _word_segments(alg, word, t):
    """Segments whose product is exp(t^len(word) * nested_bracket(word) + higher)."""
    head = [(alg.basis_vector(word[0], mode="float"), float(t))]
    if len(word) == 1:
        return head
    tail = _word_segments(alg, word[1:], t)
    inv = lambda segs: [(vneg(d), dur) for d, dur in reversed(segs)]
    return head + tail + inv(head) + inv(tail)


def horizontal_connect(alg: GradedAlgebra, g) -> HorizontalPath:
    """Horizontal path from 0 to g by layerwise commutator-word cancellation.

    First a straight segment matches the layer-1 part; then for each
    layer m = 2..r the residual coefficients are cancelled with
    group-commutator words of nested-bracket expressions scaled by
    |c|^(1/m) (sign by swapping the innermost operands).  Corrections
    land strictly above the current layer, so one pass per layer
    suffices.  A final residual coordinate of layer m above
    ``1e-9 * max(1, rho)**m``, rho the quasi-norm of g (coordinates of
    layer m scale like rho**m), raises :class:`ZigzagError`.
    """
    table = alg.bracket_expressions
    layers = alg.carnot_layers
    r = max(layers)
    gf = as_float(g)
    if any(not math.isfinite(a) for a in gf):
        raise ValueError("target must be finite")
    skip = 1e-13 * max(1.0, max(abs(a) for a in gf))

    segments = []
    endpoint = (0.0,) * alg.dim

    def push(direction, duration):
        nonlocal endpoint
        segments.append((direction, duration))
        endpoint = bch(alg, endpoint, vscale(duration, direction))

    v1 = tuple(gf[i] if layers[i] == 1 else 0.0 for i in range(alg.dim))
    if any(abs(a) > 0.0 for a in v1):
        push(v1, 1.0)

    for m in range(2, r + 1):
        for k in [i for i in range(alg.dim) if layers[i] == m]:
            residual = bch(alg, vneg(endpoint), gf)
            c = residual[k]
            if abs(c) <= skip:
                continue
            for q, word in table[k]:
                amount = float(q) * c
                if amount == 0.0:
                    continue
                t = abs(amount) ** (1.0 / m)
                if amount < 0:
                    word = word[:-2] + (word[-1], word[-2])
                for direction, duration in _word_segments(alg, word, t):
                    push(direction, duration)

    # the residual is measured on coordinates of endpoint^-1 * g: quasi-norm
    # residuals of order eps_machine^(1/r) are unavoidable in floats and
    # would drown the actual accuracy of the construction
    scale = max(1.0, quasi_norm(alg, gf))
    residual = bch(alg, vneg(endpoint), gf)
    relative = tuple(a / scale ** layers[k] for k, a in enumerate(residual))
    miss = linalg.max_gap(relative, (0.0,) * alg.dim)
    if miss > 1e-9:
        raise ZigzagError(f"endpoint residual {miss:.3e} in units max(1, rho)**layer exceeds 1e-9")
    return HorizontalPath(alg, (0.0,) * alg.dim, tuple(segments))


def cc_upper_bound(alg: GradedAlgebra, g) -> float:
    """Length of the zigzag path: an upper bound for the CC distance to g."""
    return horizontal_connect(alg, g).length


@dataclass(frozen=True)
class CbCDecomposition:
    """The data of a Carnot-by-Carnot pair.

    * ``w``: the ideal generated by the lowest weight layer, exact RREF.
    * ``w_algebra``: that ideal as its own Carnot algebra (weights 1..m).
    * ``quotient`` / ``quotient_carnot``: the quotient with inherited
      weights, and with weights renormalized so it is Carnot.
    * ``alpha``: smallest quotient weight divided by the smallest weight.
    * ``center_w`` / ``z_layers``: the center of the ideal and its
      slices indexed by ideal layer.

    Derived data are cached properties, computed once per instance:

    * ``transversal_indices`` / ``transversal`` / ``h_layers``: the
      coordinate complement of the ideal, as indices and as a subspace,
      and its per-layer slices (layer j sits at weight j*alpha).
    * ``central_product``: for non-integer alpha, whether the subalgebra
      generated by H_1 commutes with w; None for integer alpha.
    * ``v_alpha_indices``: the basis of V_alpha, the weight alpha*lambda1.
    * ``pairing_targets``: center layer j -> the indices of weight
      lambda1 * (j + alpha), where the pairing of Z_j with H lands.
    * ``lift_tower``: center layer j -> the layers j + alpha,
      j + 2 alpha, ... that the lifts of a component at j fill; a tower
      stops at the first zero center layer or after a layer whose
      pairing [Z_layer, n] vanishes exactly, and is empty for
      non-integer alpha.
    * ``cocycle_layers``: the center layers below alpha, where the
      cocycles b_j live.
    * ``p_alpha``: see :func:`p_alpha_data`.

    The ideal's coordinates are one pair of maps: ``w_embed`` is the
    ``LinearMap`` whose columns are the RREF rows of w, and ``w_coords``
    is its checked inverse, which reads an exact vector exactly and a
    finite float one within ``W_TOL`` relative to 1 + max|x|.
    ``w_apply(m, x)`` is ``w_embed(m(w_coords(x)))``, the one way a map
    on ideal coordinates acts on an ambient vector of w.

    The float paths read float twins built once: ``projection`` and
    ``w_embed`` are ``LinearMap`` instances (``float_matrix``), and
    ``w_coords`` and ``integrate_bracket_form`` read the subspace rows
    through ``rows_float``.
    """

    base: GradedAlgebra
    lambda1: Fraction
    w: Subspace
    w_algebra: GradedAlgebra
    quotient: GradedAlgebra
    quotient_carnot: GradedAlgebra
    projection: LinearMap
    alpha: Fraction
    center_w: Subspace
    z_layers: dict

    @property
    def alpha_is_integer(self) -> bool:
        return self.alpha.denominator == 1

    @cached_property
    def transversal_indices(self):
        return tuple(i for i in range(self.base.dim) if i not in self.w.pivots)

    @cached_property
    def transversal(self) -> Subspace:
        return subspace(self.base, [self.base.basis_vector(i) for i in self.transversal_indices])

    @cached_property
    def h_layers(self) -> dict:
        mu1 = self.alpha * self.lambda1
        vecs = {}
        for i in self.transversal_indices:
            vecs.setdefault(int(self.base.weights[i] / mu1), []).append(self.base.basis_vector(i))
        return {j: subspace(self.base, v) for j, v in vecs.items()}

    @cached_property
    def central_product(self) -> bool | None:
        if self.alpha_is_integer:
            return None
        h1 = self.h_layers.get(1)
        hsub = subalgebra_generated(self.base, h1) if h1 else None
        return hsub is not None and all(
            linalg.is_zero(bracket(self.base, a, b)) for a in self.w.rows for b in hsub.rows
        )

    @cached_property
    def v_alpha_indices(self):
        return self.base.layer_indices(self.alpha * self.lambda1)

    @cached_property
    def p_alpha(self):
        if not self.alpha_is_integer:
            raise ValueError("the high-layer quotient requires an integer exponent")
        alg = self.base
        threshold = self.alpha * self.lambda1
        keep = [i for i in range(alg.dim) if alg.weights[i] <= threshold]
        kill = [i for i in range(alg.dim) if alg.weights[i] > threshold]
        ideal = subspace(alg, [alg.basis_vector(i) for i in kill])
        qalg, proj = quotient(alg, ideal)
        # image of weight >= alpha must be central
        for i in keep:
            if alg.weights[i] >= threshold:
                img = proj(alg.basis_vector(i))
                for t in range(qalg.dim):
                    if not linalg.is_zero(bracket(qalg, img, qalg.basis_vector(t))):
                        raise AssertionError("high-weight image is not central in the quotient")
        return qalg, tuple(keep), proj

    def project(self, x):
        return self.projection(x)

    def lift(self, qcoords):
        """Section of the projection through the transversal H."""
        mode_zero = 0.0 if linalg.scalar_mode(qcoords) == "float" else Fraction(0)
        out = [mode_zero] * self.base.dim
        for pos, i in enumerate(self.transversal_indices):
            out[i] = qcoords[pos]
        return tuple(out)

    @cached_property
    def w_embed(self) -> LinearMap:
        return LinearMap(tuple(zip(*self.w.rows)))

    def w_coords(self, x):
        """Coordinates of x in the RREF row basis of w; raises outside w."""
        if linalg.scalar_mode(x) == "exact":
            if not self.w.contains(x):
                raise ValueError("vector does not lie in the ideal")
        else:
            if not all(map(math.isfinite, x)):
                raise ValueError("vector has a non-finite coordinate")
            reduced = linalg.reduce_against(self.w.rows_float, self.w.pivots, x)
            miss = linalg.max_gap(reduced, (0.0,) * len(x))
            if miss > W_TOL * (1.0 + max(map(abs, x))):
                raise ValueError("vector does not lie in the ideal (beyond tolerance)")
        return tuple(x[p] for p in self.w.pivots)

    def w_apply(self, m: LinearMap, x):
        """The map m on ideal coordinates, acting on an ambient vector x of w."""
        return self.w_embed(m(self.w_coords(x)))

    def z_layer(self, j) -> Subspace | None:
        return self.z_layers.get(j)

    @cached_property
    def pairing_targets(self) -> dict:
        return {j: self.base.layer_indices(self.lambda1 * (j + self.alpha)) for j in self.z_layers}

    @cached_property
    def lift_tower(self) -> dict:
        alg, step = self.base, int(self.alpha)
        basis = [alg.basis_vector(i) for i in range(alg.dim)]
        live = {
            j
            for j, z in self.z_layers.items()
            if self.alpha_is_integer
            and any(not linalg.is_zero(bracket(alg, r, e)) for r in z.rows for e in basis)
        }
        tower = {}
        for j in self.z_layers:
            layers = [j]
            while layers[-1] in live and layers[-1] + step in self.z_layers:
                layers.append(layers[-1] + step)
            tower[j] = tuple(layers[1:])
        return tower

    @cached_property
    def cocycle_layers(self) -> tuple:
        return tuple(j for j in sorted(self.z_layers) if j < self.alpha)

    def w_layer_project(self, x, j):
        return layer_project(self.base, x, self.lambda1 * j)


def decompose(alg: GradedAlgebra) -> CbCDecomposition:
    """Detect the Carnot-by-Carnot structure, verifying every invariant."""
    report = validate_algebra(alg)
    if not report.ok:
        failed = [n for n, ok, _ in report.checks if not ok]
        raise DecompositionError("invalid", f"algebra fails validation: {failed}")
    lam1 = min(alg.weights)
    v1 = weight_slice(alg, lam1)
    w = subalgebra_generated(alg, v1)
    if w.rank == alg.dim:
        raise DecompositionError(
            "carnot_type", "Carnot type: the lowest layer generates the whole algebra"
        )
    if not is_ideal(alg, w):
        raise DecompositionError("not_ideal", "the generated subalgebra is not an ideal")

    qalg, proj = quotient(alg, w)
    mu1 = min(qalg.weights)
    if mu1 <= lam1:
        raise DecompositionError("not_ideal", "quotient weights must exceed the base weight")
    normalized = [qw / mu1 for qw in qalg.weights]
    if any(q.denominator != 1 for q in normalized):
        raise DecompositionError(
            "derivation",
            "the induced derivation is not a multiple of a Carnot derivation",
        )
    quotient_carnot = GradedAlgebra(qalg.dim, qalg.labels, tuple(normalized), qalg.brackets)
    if not is_carnot(quotient_carnot):
        raise DecompositionError("quotient_not_carnot", "the quotient is not a Carnot algebra")

    # ideal as its own Carnot algebra, weights renormalized to 1..m
    w_weights = []
    for row in w.rows:
        met = {alg.weights[i] for i, a in enumerate(row) if a != 0}
        (wt,) = met
        ratio = wt / lam1
        if ratio.denominator != 1:
            raise DecompositionError("invalid", "ideal layer weights are not integral")
        w_weights.append(Fraction(int(ratio)))
    entries = []
    for i in range(w.rank):
        for j in range(i + 1, w.rank):
            v = bracket(alg, w.rows[i], w.rows[j])
            coords = span_coords(w.rows, w.pivots, v)
            for k, c in enumerate(coords):
                if c != 0:
                    entries.append((i, j, k, Fraction(c)))
    w_algebra = GradedAlgebra(
        w.rank,
        tuple(f"w{i}" for i in range(w.rank)),
        tuple(w_weights),
        tuple(sorted(entries)),
    )
    if not is_carnot(w_algebra):
        raise DecompositionError("invalid", "the ideal is not Carnot graded")

    center_w, slices = center(alg, w)
    z_layers = {int(wt / lam1): sl for wt, sl in slices.items()}

    # the center of the ideal must absorb brackets with the whole algebra
    for row in center_w.rows:
        for i in range(alg.dim):
            v = bracket(alg, alg.basis_vector(i), row)
            if not center_w.contains(v):
                raise DecompositionError(
                    "invalid", "[Z(w), n] does not stay inside Z(w)"
                )

    return CbCDecomposition(
        base=alg,
        lambda1=lam1,
        w=w,
        w_algebra=w_algebra,
        quotient=qalg,
        quotient_carnot=quotient_carnot,
        projection=proj,
        alpha=mu1 / lam1,
        center_w=center_w,
        z_layers=z_layers,
    )


def integrate_bracket_form(dec: CbCDecomposition, component, path: HorizontalPath):
    """Integral of [c(x), theta_H(x)] along a horizontal quotient path.

    ``component`` evaluates quotient coordinates to an ambient vector in
    a center layer Z_j; the result lands in Z_(j+alpha).  The bracket of
    a quotient vector against a central vector is computed through the
    transversal lift, which is exactly the well-defined pairing.  By
    grading, only the coordinates ``dec.pairing_targets[j]`` can be
    nonzero; only those are integrated, and the rest of the result is
    0.0.  Each segment is integrated by adaptive Simpson to the absolute
    tolerance ``DEFAULT_TOL`` and the segments are summed in order.
    Membership in Z_j is checked on the first three values of each
    segment, the quadrature's nodes t = 0, duration and duration/2, even
    when the target layer is empty; a value that is not finite fails the
    check.
    """
    zj, target = _pairing(dec, component, path)
    j = component.layer

    total = [0.0] * dec.base.dim
    for pos, direction, duration in _segments(dec, path):
        x_lift = dec.lift(direction)
        checked = 0

        def integrand(t):
            nonlocal checked
            point = bch(dec.quotient_carnot, pos, vscale(t, direction))
            val = component.eval(point)
            if checked < 3:
                checked += 1
                if not all(map(math.isfinite, val)):
                    raise ValueError(f"component value is not finite at {point}")
                resid = linalg.reduce_against(zj.rows_float, zj.pivots, val)
                scale = 1.0 + math.sqrt(sum(a * a for a in val))
                if math.sqrt(sum(a * a for a in resid)) > 1e-8 * scale:
                    raise ValueError(f"component value escapes the center layer Z_{j} at {point}")
            out = bracket_float(dec.base, val, x_lift)
            return [out[i] for i in target]

        piece = integrate_vector(integrand, 0.0, duration, DEFAULT_TOL)
        for i, a in zip(target, piece):
            total[i] += a
    return tuple(total)


def integrate_bracket_forms(dec: CbCDecomposition, component, jobs):
    """``integrate_bracket_form(dec, component, path, tol)`` for every
    ``(path, tol)`` of ``jobs``, all at once; one tuple per path.

    Every segment of every path is one quadrature process of
    :func:`quadrature.integrate_batch`, so each round's nodes go out in
    one array call: the quotient's ``bch_array_kernel`` from the
    segment's start, the component on the resulting points, and the
    pairing against the segment's lifted direction, restricted to
    ``dec.pairing_targets[j]``.  The component runs its ``trees``' numpy
    code when it has trees, and its ``eval`` node by node otherwise.  The
    membership check of the first three nodes of each segment is that of
    ``integrate_bracket_form``, on arrays, and fails at the first failing
    node in the order ``integrate_bracket_form`` evaluates them.  The
    results are bit for bit those of ``integrate_bracket_form``.
    """
    import numpy as np

    segments, owners = [], []
    for n, (path, tol) in enumerate(jobs):
        zj, target = _pairing(dec, component, path)
        for segment in _segments(dec, path):
            segments.append((*segment, tol))
            owners.append(n)
    totals = [[0.0] * dec.base.dim for _ in jobs]
    if not segments:
        return [tuple(total) for total in totals]
    starts, directions, durations, tols = zip(*segments)
    starts = np.array(starts, dtype=float).T.copy()
    steps = np.array(directions, dtype=float).T.copy()
    lifts = np.array([dec.lift(d) for d in directions], dtype=float).T.copy()
    rows = zj.rows_float
    head = sum(1 if d == 0.0 else 3 for d in durations)
    walk = dec.quotient_carnot.bch_array_kernel
    pairing = pairing_array_kernel(dec.base, target)
    checked = False

    def integrand(which, t):
        nonlocal checked
        point = walk.run(tuple(starts[:, which]), tuple(steps[:, which] * t), walk.floats, 0.0)
        if component.trees is None:
            values = [component.eval(q) for q in zip(*(p.tolist() for p in point))]
            val = tuple(np.array(values, dtype=float).reshape(len(t), -1).T)
        else:
            val = linalg.combine([tree.array(point) for tree in component.trees], rows)
        if not checked:
            checked = True
            nodes = [np.broadcast_to(v, t.shape)[:head] for v in val]
            _check_nodes(zj, component.layer, [p[:head] for p in point], nodes)
        out = pairing.run(val, tuple(lifts[:, which]), pairing.floats, 0.0)
        values = np.empty((len(t), len(target)))
        for column, i in enumerate(target):
            values[:, column] = out[i]
        return values

    pieces = integrate_batch(integrand, [(0.0, d, tol) for d, tol in zip(durations, tols)])
    for n, piece in zip(owners, pieces.tolist()):
        for i, a in zip(target, piece):
            totals[n][i] += a
    return [tuple(total) for total in totals]


def _pairing(dec, component, path):
    """Z_j of the component's layer and the pairing targets; checks the path's algebra."""
    qc = dec.quotient_carnot
    if path.alg is not qc and path.alg != qc:
        raise ValueError("path must live in the Carnot-renormalized quotient")
    zj = dec.z_layer(component.layer)
    if zj is None:
        raise ValueError(f"no center layer at index {component.layer}")
    return zj, dec.pairing_targets[component.layer]


def _segments(dec, path):
    """(start, direction, duration) per segment, as floats."""
    pos = as_float(path.start)
    for direction, duration in path.segments:
        direction = as_float(direction)
        duration = float(duration)
        yield pos, direction, duration
        pos = bch(dec.quotient_carnot, pos, vscale(duration, direction))


def _check_nodes(zj, j, points, vals):
    """The membership check of ``integrate_bracket_form`` on node arrays;
    ``np.add.accumulate`` sums the squares in ``sum``'s order."""
    import numpy as np

    vals = np.array(vals)
    resid = vals
    for row, p in zip(zj.rows_float, zj.pivots):
        c = resid[p]
        resid = np.where(c != 0, resid - c * np.array(row)[:, None], resid)
    finite = np.isfinite(vals).all(axis=0)
    scale = 1.0 + np.sqrt(np.add.accumulate(vals * vals)[-1])
    bad = np.flatnonzero(~finite | (np.sqrt(np.add.accumulate(resid * resid)[-1]) > 1e-8 * scale))
    if bad.size:
        point = tuple(float(p[bad[0]]) for p in points)
        if not finite[bad[0]]:
            raise ValueError(f"component value is not finite at {point}")
        raise ValueError(f"component value escapes the center layer Z_{j} at {point}")


def p_alpha_data(dec: CbCDecomposition):
    """Quotient of the base algebra by the layers above weight alpha.

    Returns (algebra, kept_indices, project).  The image of every layer
    of weight >= alpha is checked central once per decomposition.
    """
    return dec.p_alpha
