"""Carnot-by-Carnot decomposition and horizontal-path machinery.

``decompose`` splits a validated algebra into the ideal generated by
the lowest weight layer, the Carnot quotient, the exponent ``alpha``,
the coordinate transversal, and the center layers of the ideal — all
exactly.  ``horizontal_connect`` builds zigzag paths out of horizontal
line segments using group-commutator words for nested brackets.
``integrate_bracket_segments`` integrates the bracket pairing of a
center-valued map against the horizontal tautological one-form along
many horizontal segments at once, given as columns, on node arrays,
split and graded at the roots that the map's expression trees show;
``integrate_bracket_forms`` runs it on the segments of many such paths
and sums them per path, and ``integrate_bracket_form`` is its call on
one path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import linalg
from .algebra import (
    GradedAlgebra,
    LinearMap,
    Subspace,
    bracket,
    center,
    is_carnot,
    pairing_array_kernel,
    quotient,
    subalgebra_generated,
    subspace,
    validate_algebra,
    weight_slice,
)
from .algebra import bracket_expressions  # noqa: F401 (re-exported)
from .exprlang import kinks
from .group import bch, quasi_norm
from .linalg import as_float, span_coords, vneg, vscale
from .quadrature import DEFAULT_TOL, integrate_batch


# Relative residual (to 1 + max|x|) up to which a float vector lies in the ideal.
W_TOL = 1e-9
# A root within this fraction of a segment's duration from an end lies at that end.
ROOT_SNAP = 1e-14


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
    ``starts`` holds the float start point of each segment: the start,
    then each start times its segment's step.  The maker of a path
    passes the starts it formed on the way; otherwise they are walked
    here, once.
    """

    alg: GradedAlgebra
    start: tuple
    segments: tuple
    starts: tuple = None

    def __post_init__(self):
        if self.starts is None:
            object.__setattr__(self, "starts", _walk(self.alg, self.start, self.segments))

    @cached_property
    def endpoint(self):
        if not self.segments:
            return as_float(self.start)
        direction, duration = self.segments[-1]
        return bch(self.alg, self.starts[-1], vscale(float(duration), as_float(direction)))

    @property
    def segment_count(self):
        return len(self.segments)

    @property
    def length(self):
        total = 0.0
        for direction, duration in self.segments:
            total += duration * math.sqrt(sum(float(d) ** 2 for d in direction))
        return total

    def then(self, segments):
        """This path followed by the tuple ``segments``, whose starts are walked on from its endpoint."""
        return HorizontalPath(
            self.alg, self.start, self.segments + segments, self.starts + _walk(self.alg, self.endpoint, segments)
        )


def _walk(alg, start, segments):
    """The float start of each of ``segments`` from ``start``: one product
    per segment after the first."""
    starts = [as_float(start)] if segments else []
    for direction, duration in segments[:-1]:
        starts.append(bch(alg, starts[-1], vscale(float(duration), as_float(direction))))
    return tuple(starts)


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

    segments, starts = [], []
    endpoint = (0.0,) * alg.dim

    def push(direction, duration):
        nonlocal endpoint
        segments.append((direction, duration))
        starts.append(endpoint)
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
    return HorizontalPath(alg, (0.0,) * alg.dim, tuple(segments), tuple(starts))


def cc_upper_bound(alg: GradedAlgebra, g) -> float:
    """Length of the zigzag path: an upper bound for the CC distance to g."""
    return horizontal_connect(alg, g).length


@dataclass(frozen=True)
class CbCDecomposition:
    """The data of a Carnot-by-Carnot pair.

    * ``w``: the ideal generated by the lowest weight layer, exact RREF.
    * ``quotient`` / ``quotient_carnot``: the quotient with inherited
      weights, and with weights renormalized so it is Carnot.
    * ``alpha``: smallest quotient weight divided by the smallest weight.
    * ``center_w`` / ``z_layers``: the center of the ideal and its
      slices indexed by ideal layer.

    Derived data are cached properties, computed once per instance:

    * ``w_algebra``: the ideal as its own Carnot algebra on the RREF
      rows of w, with weights 1..m.
    * ``transversal_indices`` / ``transversal`` / ``h_layers``: the
      coordinate complement of the ideal, as indices and as a subspace,
      and its per-layer slices (layer j sits at weight j*alpha).
    * ``central_product``: for non-integer alpha, whether the subalgebra
      generated by H_1 commutes with w; None for integer alpha.
    * ``v_alpha_indices``: the basis of V_alpha, the weight alpha*lambda1.
    * ``pairing_targets``: center layer j -> the indices of weight
      lambda1 * (j + alpha), where the pairing of Z_j with H lands.
    * ``pairing_kernels``: center layer j -> the base algebra's
      ``pairing_array_kernel`` onto ``pairing_targets[j]``.
    * ``z_layer_indices``: center layer j -> the indices of weight lambda1 * j.
    * ``lift_tower``: center layer j -> the layers j + alpha,
      j + 2 alpha, ... that the lifts of a component at j fill; a tower
      stops at the first zero center layer or after a layer whose
      pairing [Z_layer, n] vanishes exactly, and is empty for
      non-integer alpha.
    * ``cocycle_layers``: the center layers below alpha, where the
      cocycles b_j live.
    * ``p_alpha``: the quotient by the layers above weight alpha.

    The ideal's coordinates are one pair of maps: ``w.embed`` is the
    ``LinearMap`` whose columns are the RREF rows of w, and ``w_coords``
    is its checked inverse, which reads an exact vector exactly and a
    finite float one within ``W_TOL`` relative to 1 + max|x| of its
    ``w.residual``, point by point on coordinate columns.
    ``w_apply(m, x)`` is ``w.embed(m(w_coords(x)))``, the one way a map
    on ideal coordinates acts on an ambient vector of w.
    """

    base: GradedAlgebra
    lambda1: Fraction
    w: Subspace
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
    def w_algebra(self) -> GradedAlgebra:
        w = self.w
        entries = []
        for i in range(w.rank):
            for j in range(i + 1, w.rank):
                coords = span_coords(w.rows, w.pivots, bracket(self.base, w.rows[i], w.rows[j]))
                entries += [(i, j, k, Fraction(c)) for k, c in enumerate(coords) if c != 0]
        return GradedAlgebra(
            w.rank,
            tuple(f"w{i}" for i in range(w.rank)),
            tuple(Fraction(int(self.base.weights[p] / self.lambda1)) for p in w.pivots),
            tuple(sorted(entries)),
        )

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
        """Quotient of the base algebra by the layers above weight alpha.

        (algebra, kept_indices, project).  The image of every layer of
        weight >= alpha is central: a bracket with it lands above alpha.
        """
        if not self.alpha_is_integer:
            raise ValueError("the high-layer quotient requires an integer exponent")
        alg = self.base
        threshold = self.alpha * self.lambda1
        keep = [i for i in range(alg.dim) if alg.weights[i] <= threshold]
        kill = [i for i in range(alg.dim) if alg.weights[i] > threshold]
        ideal = subspace(alg, [alg.basis_vector(i) for i in kill])
        qalg, proj = quotient(alg, ideal)
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

    def w_coords(self, x):
        """Coordinates of x in the RREF row basis of w; raises outside w.

        A float x, one point or coordinate columns, is checked point by
        point, and raises the error of its first failing point.
        """
        if linalg.scalar_mode(x) == "exact":
            if not self.w.contains(x):
                raise ValueError("vector does not lie in the ideal")
            return tuple(x[p] for p in self.w.pivots)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.array(np.broadcast_arrays(*x), dtype=float).reshape(len(x), -1)
            resid = self.w.residual(vals)
            finite = np.isfinite(vals).all(axis=0)
            inside = np.abs(resid).max(axis=0) <= W_TOL * (1.0 + np.abs(vals).max(axis=0))
        bad = np.flatnonzero(~(finite & inside))
        if bad.size and not finite[bad[0]]:
            raise ValueError("vector has a non-finite coordinate")
        if bad.size:
            raise ValueError("vector does not lie in the ideal (beyond tolerance)")
        return tuple(x[p] for p in self.w.pivots)

    def w_apply(self, m: LinearMap, x):
        """The map m on ideal coordinates, acting on an ambient vector x of w."""
        return self.w.embed(m(self.w_coords(x)))

    def z_layer(self, j) -> Subspace | None:
        return self.z_layers.get(j)

    @cached_property
    def pairing_targets(self) -> dict:
        return {j: self.base.layer_indices(self.lambda1 * (j + self.alpha)) for j in self.z_layers}

    @cached_property
    def pairing_kernels(self) -> dict:
        return {j: pairing_array_kernel(self.base, target) for j, target in self.pairing_targets.items()}

    @cached_property
    def z_layer_indices(self) -> dict:
        return {j: self.base.layer_indices(self.lambda1 * j) for j in self.z_layers}

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
        """The float vector or coordinate columns x with 0.0 outside the layer Z_j."""
        idx = self.z_layer_indices[j]
        return tuple(a if i in idx else 0.0 for i, a in enumerate(x))


def decompose(alg: GradedAlgebra) -> CbCDecomposition:
    """Detect the Carnot-by-Carnot structure, exactly.

    Raises :class:`DecompositionError` of the kind ``invalid`` (validation
    fails), ``carnot_type`` (the lowest layer V_lambda1 generates n),
    ``not_ideal`` (the subalgebra w it generates is not an ideal: the one
    ideal test, in ``quotient``), ``derivation`` (a quotient weight is no
    multiple of the lowest, mu1) or ``quotient_not_carnot``.  The other
    invariants hold for every validated algebra and are not tested again:

    * mu1 > lambda1: w holds the whole weight-lambda1 slice;
    * w is graded: its RREF rows have weight k * lambda1, read off its pivots;
    * ``w_algebra`` is Carnot: w is generated by its first layer;
    * [Z(w), n] lies in Z(w): by Jacobi, as w is an ideal;
    * ``p_alpha`` keeps its top layers central: brackets land above alpha.
    """
    failed = [n for n, ok, _ in validate_algebra(alg).checks if not ok]
    if failed:
        raise DecompositionError("invalid", f"algebra fails validation: {failed}")
    lam1 = min(alg.weights)
    w = subalgebra_generated(alg, weight_slice(alg, lam1))
    if w.rank == alg.dim:
        raise DecompositionError("carnot_type", "Carnot type: the lowest layer generates the whole algebra")
    try:
        qalg, proj = quotient(alg, w)
    except ValueError as exc:
        raise DecompositionError("not_ideal", "the generated subalgebra is not an ideal") from exc
    mu1 = min(qalg.weights)
    normalized = [qw / mu1 for qw in qalg.weights]
    if any(q.denominator != 1 for q in normalized):
        raise DecompositionError("derivation", "the induced derivation is not a multiple of a Carnot derivation")
    quotient_carnot = GradedAlgebra(qalg.dim, qalg.labels, tuple(normalized), qalg.brackets)
    if not is_carnot(quotient_carnot):
        raise DecompositionError("quotient_not_carnot", "the quotient is not a Carnot algebra")

    center_w, slices = center(alg, w)
    return CbCDecomposition(
        base=alg,
        lambda1=lam1,
        w=w,
        quotient=qalg,
        quotient_carnot=quotient_carnot,
        projection=proj,
        alpha=mu1 / lam1,
        center_w=center_w,
        z_layers={int(wt / lam1): sl for wt, sl in slices.items()},
    )


def integrate_bracket_form(dec: CbCDecomposition, component, path: HorizontalPath):
    """``integrate_bracket_forms`` on the one path ``path``, to ``DEFAULT_TOL``."""
    return integrate_bracket_forms(dec, component, [(path, DEFAULT_TOL)])[0]


def integrate_bracket_forms(dec: CbCDecomposition, component, jobs):
    """The integral of [c(x), theta_H(x)] along the horizontal quotient path
    of every ``(path, tol)`` of ``jobs``, all at once; one tuple per path.

    The segments of every path become the columns of one
    :func:`integrate_bracket_segments` call, each to the absolute
    tolerance of its path, and a path sums its segments' integrals in
    order from 0.0.  The coordinates outside ``dec.pairing_targets[j]``
    of each result are 0.0.
    """
    if not jobs:
        return []
    qc = dec.quotient_carnot
    segments, owners = [], []
    for n, (path, tol) in enumerate(jobs):
        if path.alg is not qc and path.alg != qc:
            raise ValueError("path must live in the Carnot-renormalized quotient")
        for start, (direction, duration) in zip(path.starts, path.segments):
            segments.append((start, as_float(direction), float(duration), tol))
            owners.append(n)
    starts, directions, durations, tols = zip(*segments) if segments else ((),) * 4
    pieces = integrate_bracket_segments(
        dec,
        component,
        np.array(starts, dtype=float).reshape(-1, qc.dim).T,
        np.array(directions, dtype=float).reshape(-1, qc.dim).T,
        np.array(durations, dtype=float),
        np.array(tols, dtype=float),
    )
    totals = [[0.0] * dec.base.dim for _ in jobs]
    target = dec.pairing_targets[component.layer]
    for n, piece in zip(owners, pieces.tolist()):
        for i, a in zip(target, piece):
            totals[n][i] += a
    return [tuple(total) for total in totals]


def integrate_bracket_segments(dec: CbCDecomposition, component, starts, steps, durations, tols):
    """The integral of [c(x), theta_H(x)] along every horizontal quotient
    segment x(t) = start * exp(t * step), 0 <= t <= duration, given as
    columns: ``starts`` and ``steps`` (one row per quotient coordinate,
    one column per segment; a step is a direction in the first layer),
    ``durations`` and the absolute tolerances ``tols``.  Returns one row
    per segment, holding the coordinates ``dec.pairing_targets[j]``.

    ``component`` evaluates coordinate columns of quotient points to
    ambient vectors in a center layer Z_j; the results land in
    Z_(j+alpha).  The bracket of a quotient vector against a central
    vector is computed through the transversal lift, which is exactly the
    well-defined pairing: a step's lift holds its entries at
    ``dec.transversal_indices``.  By grading, only the coordinates
    ``dec.pairing_targets[j]`` can be nonzero; only those are integrated.

    Where the component may fail to be smooth is read off its ``trees``:
    the ``exprlang.kinks`` that involve only the first-layer quotient
    coordinates, which are affine in t along a segment, so each has at
    most one root on it (``_pieces``).  A segment is split at the roots
    inside it, and each piece with a root at an end is integrated over
    [0, 1] in x through a change of variables whose derivative vanishes
    at that end (``_graded``), to the segment's tolerance divided by its
    number of pieces; the pieces' integrals are summed in order.  Neither
    changes the value, only where the nodes fall.  A segment without a
    root, and every segment of a component without trees, is one job over
    [0, duration] as it is.

    Every piece is one job of :func:`quadrature.integrate_batch`, and
    each round's nodes go out in one array call: the quotient's
    ``bch_array_kernel`` from the segment's start, the component's
    ``eval`` on the resulting coordinate columns, and
    ``dec.pairing_kernels[j]`` against the lifted step.  The first call
    opens with the first three nodes of each of the k jobs of nonzero
    length, which for a segment without a root are t = 0, duration and
    duration/2, and membership in Z_j is checked on exactly those 3k nodes
    (``_check_nodes``), even when the target layer is empty.
    """
    zj = dec.z_layer(component.layer)
    if zj is None:
        raise ValueError(f"no center layer at index {component.layer}")
    target = dec.pairing_targets[component.layer]
    lifts = np.zeros((dec.base.dim, len(durations)))
    lifts[list(dec.transversal_indices)] = steps
    walk = dec.quotient_carnot.bch_array_kernel
    pairing = dec.pairing_kernels[component.layer]
    layer1 = dec.quotient_carnot.layer_indices(1)
    forms = dict.fromkeys(
        form for tree in component.trees or () for form in kinks(tree) if all(i in layer1 for i, _ in form[0])
    )
    owner, lo, hi, head, tail = _pieces(tuple(forms), starts, steps, durations)
    plain = ~(head | tail)
    graded = not plain.all()
    count = np.bincount(owner, minlength=len(durations))
    ends = np.where(plain, hi, 1.0)
    jobs = [(0.0, b, tol) for b, tol in zip(ends.tolist(), (tols[owner] / count[owner]).tolist())]
    checked = 3 * int(np.count_nonzero(ends != 0.0))

    def integrand(which, x):
        nonlocal checked
        t, dt = _graded(x, lo[which], hi[which], head[which], tail[which]) if graded else (x, None)
        which = owner[which]
        point = walk.run(tuple(starts[:, which]), tuple(steps[:, which] * t), walk.floats, 0.0)
        val = component.eval(point)
        if checked:
            first = lambda columns: [np.broadcast_to(v, t.shape)[:checked] for v in columns]
            _check_nodes(zj, component.layer, first(point), first(val))
            checked = 0
        out = pairing.run(val, tuple(lifts[:, which]), pairing.floats, 0.0)
        values = np.empty((len(t), len(target)))
        for column, i in enumerate(target):
            values[:, column] = out[i]
        return values if dt is None else values * dt[:, None]

    rows = integrate_batch(integrand, jobs).reshape(len(jobs), len(target))
    # each segment's pieces, summed in order from its first
    return np.add.reduceat(rows, np.cumsum(count) - count, axis=0)


def _pieces(forms, starts, steps, durations):
    """The pieces of the segments at the roots of the affine ``forms``
    (``exprlang.kinks``, in the first-layer quotient coordinates), where
    a form along x(t) = start * exp(t * step) reads
    ``c . start + c0 + t * (c . step)``.

    Returns the columns ``owner`` (the segment of each piece; a segment's
    pieces are consecutive and in order), ``lo`` and ``hi`` (its ends in
    t) and ``head`` and ``tail`` (whether a root lies at each end).  A
    root within ``ROOT_SNAP`` times the duration of an end lies at that
    end, and one as close to the root before it is the same cut, so no
    sliver piece is made.  A segment without a root is one piece from 0
    to its duration, with neither flag set.
    """
    n = len(durations)
    head = tail = np.zeros(n, dtype=bool)
    cut = np.empty(0)
    if forms:
        roots = np.empty((len(forms), n))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for k, (coeffs, constant) in enumerate(forms):
                value, rate = np.full(n, constant), np.zeros(n)
                for i, c in coeffs:
                    value = value + c * starts[i]
                    rate = rate + c * steps[i]
                roots[k] = -value / rate
            snap = ROOT_SNAP * durations
            head = (np.abs(roots) <= snap).any(axis=0) & (durations > 0.0)
            tail = (np.abs(roots - durations) <= snap).any(axis=0) & (durations > 0.0)
            cuts = np.sort(np.where((roots > snap) & (roots < durations - snap), roots, np.nan), axis=0)
            kept = np.isfinite(cuts)
            kept[1:] &= ~(cuts[1:] - cuts[:-1] <= snap)
        cut = cuts.T[kept.T]  # segment by segment, ascending
    if not cut.size:
        return np.arange(n), np.zeros(n), durations, head, tail
    count = 1 + kept.sum(axis=0)
    owner = np.repeat(np.arange(n), count)
    ends = np.cumsum(count)
    opens, closes = np.ones(len(owner), dtype=bool), np.ones(len(owner), dtype=bool)
    opens[ends - count], closes[ends - 1] = False, False
    lo, hi = np.zeros(len(owner)), durations[owner]
    lo[opens], hi[closes] = cut, cut
    return owner, lo, hi, opens | head[owner], closes | tail[owner]


def _graded(x, lo, hi, head, tail):
    """The nodes t and the weights dt/dx of x in [0, 1] on pieces [lo, hi]
    of length L with a root at the start (t = lo + L x^2), the end
    (t = hi - L (1 - x)^2) or both (t = lo + L (3 x^2 - 2 x^3)); a piece
    with neither takes t = x with weight 1."""
    y, size = 1.0 - x, hi - lo
    both, plain = head & tail, ~(head | tail)
    t = np.where(both, lo + size * (x * x * (3.0 - 2.0 * x)), np.where(head, lo + size * (x * x), hi - size * (y * y)))
    dt = size * np.where(both, 6.0 * x * y, np.where(head, 2.0 * x, 2.0 * y))
    return np.where(plain, x, t), np.where(plain, 1.0, dt)


def _check_nodes(zj, j, points, vals):
    """Membership in Z_j of the values ``vals`` at the node columns
    ``points``: a value must be finite, and the length of its
    ``zj.residual`` at most ``1e-8`` times 1 + its own length, both
    measured on the value divided by its largest |entry| (a zero value by
    1), so that no length overflows.  Raises ``ValueError`` at the first
    failing node, naming its point."""
    length = lambda a: np.sqrt((a * a).sum(axis=0))
    vals = np.array(vals)
    finite = np.isfinite(vals).all(axis=0)
    with np.errstate(invalid="ignore"):
        scale = np.abs(vals).max(axis=0)
        scale[~(scale > 0.0)] = 1.0
        unit = vals / scale
        bad = np.flatnonzero(~finite | (length(zj.residual(unit)) > 1e-8 * (1.0 / scale + length(unit))))
    if bad.size:
        point = tuple(float(p[bad[0]]) for p in points)
        if not finite[bad[0]]:
            raise ValueError(f"component value is not finite at {point}")
        raise ValueError(f"component value escapes the center layer Z_{j} at {point}")
