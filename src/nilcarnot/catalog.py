"""Canonical algebra fixtures, product constructors, and JSON file I/O.

Fixture notes:

* ``heisenberg3`` / ``engel4`` / free-nilpotent algebras are Carnot.
* ``engel_heis7`` is the Engel-by-Heisenberg semidirect product: the
  Heisenberg part acts on the Engel part via [X,e0]=e3, [Y,e1]=e3.
* ``heisprod4`` is a Heisenberg ideal plus a commuting weight-2 line.
* ``ladder5`` is designed so the center of the ideal meets two layers
  and the recursive lift of shear components is nonzero; every other
  shipped fixture has identically vanishing lifts.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import (
    GradedAlgebra,
    is_graded_subspace,
    quotient,
    subspace,
    center,
    full_space,
)

def _fr(x):
    return Fraction(x)


def heisenberg3() -> GradedAlgebra:
    return GradedAlgebra(
        dim=3,
        labels=("x", "y", "z"),
        weights=(_fr(1), _fr(1), _fr(2)),
        brackets=((0, 1, 2, _fr(1)),),
    )


def engel4() -> GradedAlgebra:
    return GradedAlgebra(
        dim=4,
        labels=("e0", "e1", "e2", "e3"),
        weights=(_fr(1), _fr(1), _fr(2), _fr(3)),
        brackets=((0, 1, 2, _fr(1)), (0, 2, 3, _fr(1))),
    )


def engel_heis7() -> GradedAlgebra:
    # basis e0 e1 e2 e3 X Y Z; action brackets stored as [e, X] = -[X, e]
    return GradedAlgebra(
        dim=7,
        labels=("e0", "e1", "e2", "e3", "X", "Y", "Z"),
        weights=(_fr(1), _fr(1), _fr(2), _fr(3), _fr(2), _fr(2), _fr(4)),
        brackets=(
            (0, 1, 2, _fr(1)),
            (0, 2, 3, _fr(1)),
            (0, 4, 3, _fr(-1)),
            (1, 5, 3, _fr(-1)),
            (4, 5, 6, _fr(1)),
        ),
    )


def heisprod4() -> GradedAlgebra:
    return GradedAlgebra(
        dim=4,
        labels=("x", "y", "z", "h"),
        weights=(_fr(1), _fr(1), _fr(2), _fr(2)),
        brackets=((0, 1, 2, _fr(1)),),
    )


def ladder5() -> GradedAlgebra:
    # [a,b]=w2, [a,w2]=z3, [h,z1]=z3; the ideal is span(a,b,z1,w2,z3)
    return GradedAlgebra(
        dim=6,
        labels=("a", "b", "z1", "w2", "h", "z3"),
        weights=(_fr(1), _fr(1), _fr(1), _fr(2), _fr(2), _fr(3)),
        brackets=((0, 1, 3, _fr(1)), (0, 3, 5, _fr(1)), (2, 4, 5, _fr(-1))),
    )


def free_nilpotent_step2(generators: int) -> GradedAlgebra:
    """Free step-2 algebra on k generators: [x_i, x_j] = z_ij for i < j."""
    if generators < 2:
        raise ValueError("need at least two generators")
    k = generators
    labels = [f"x{i+1}" for i in range(k)]
    pair_index = {}
    for i in range(k):
        for j in range(i + 1, k):
            pair_index[(i, j)] = len(labels)
            labels.append(f"z{i+1}{j+1}")
    weights = tuple([_fr(1)] * k + [_fr(2)] * len(pair_index))
    brackets = tuple(
        (i, j, pair_index[(i, j)], _fr(1)) for (i, j) in sorted(pair_index)
    )
    return GradedAlgebra(len(labels), tuple(labels), weights, brackets)


_FIXTURES = {
    "heisenberg3": heisenberg3,
    "engel4": engel4,
    "engel_heis7": engel_heis7,
    "heisprod4": heisprod4,
    "ladder5": ladder5,
}


def fixture(name: str) -> GradedAlgebra:
    """Look up a shipped fixture; free step-2 algebras as ``free2_<k>``."""
    if name in _FIXTURES:
        return _FIXTURES[name]()
    if name.startswith("free2_"):
        return free_nilpotent_step2(int(name.split("_", 1)[1]))
    raise KeyError(f"unknown fixture {name!r}; known: {tuple(_FIXTURES) + ('free2_<k>',)}")


def fixture_names():
    return tuple(_FIXTURES) + ("free2_3",)


def direct_product(alg1: GradedAlgebra, alg2: GradedAlgebra, scale2=Fraction(1)) -> GradedAlgebra:
    """Direct sum with the second factor's weights rescaled by scale2."""
    scale2 = Fraction(scale2)
    if scale2 <= 0:
        raise ValueError("scale must be positive")
    n1 = alg1.dim
    labels = tuple(l + "'" for l in alg1.labels) + tuple(l + "''" for l in alg2.labels)
    weights = alg1.weights + tuple(scale2 * w for w in alg2.weights)
    brackets = list(alg1.brackets)
    for i, j, k, c in alg2.brackets:
        brackets.append((i + n1, j + n1, k + n1, c))
    return GradedAlgebra(alg1.dim + alg2.dim, labels, weights, tuple(sorted(brackets)))


def central_product(alg1: GradedAlgebra, alg2: GradedAlgebra, pairing) -> GradedAlgebra:
    """Quotient of the direct sum identifying x with phi(x).

    ``pairing`` is (ideal1_vectors, ideal2_vectors, phi_matrix): phi maps
    coordinates in the first list's basis to combinations of the second
    list's basis.  Both sides must be graded central ideals and phi a
    weight-preserving bijection; we quotient by span{(x, -phi(x))}.
    """
    vecs1, vecs2, phi = pairing
    s1 = subspace(alg1, vecs1)
    s2 = subspace(alg2, vecs2)
    if len(vecs1) != s1.rank or len(vecs2) != s2.rank or s1.rank != s2.rank:
        raise ValueError("pairing must identify bases of equal-rank subspaces")
    z1, _ = center(alg1, full_space(alg1))
    z2, _ = center(alg2, full_space(alg2))
    for row in s1.rows:
        if not z1.contains(row):
            raise ValueError("first side of the pairing is not central")
    for row in s2.rows:
        if not z2.contains(row):
            raise ValueError("second side of the pairing is not central")
    if not is_graded_subspace(alg1, s1) or not is_graded_subspace(alg2, s2):
        raise ValueError("pairing sides must be graded")
    prod = direct_product(alg1, alg2)
    anti = []
    for idx, v in enumerate(vecs1):
        # (v, -phi(v)) with phi(v) = sum_t phi[t][idx] * vecs2[t], column idx of phi
        w = [Fraction(0)] * prod.dim
        for i, a in enumerate(v):
            w[i] += Fraction(a)
        for t, row in enumerate(phi):
            for i, a in enumerate(vecs2[t]):
                w[alg1.dim + i] -= row[idx] * Fraction(a)
        anti.append(tuple(w))
    k_sub = subspace(prod, anti)
    if not is_graded_subspace(prod, k_sub):
        raise ValueError("pairing is not weight-preserving")
    if k_sub.rank != s1.rank:
        raise ValueError("pairing is not bijective")
    qalg, _ = quotient(prod, k_sub)
    return qalg


def save_algebra(alg: GradedAlgebra, path) -> None:
    payload = {
        "dim": alg.dim,
        "labels": list(alg.labels),
        "weights": [[w.numerator, w.denominator] for w in alg.weights],
        "brackets": [[i, j, k, c.numerator, c.denominator] for i, j, k, c in alg.brackets],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_algebra(path) -> GradedAlgebra:
    """Load the JSON schema; syntactic checks only (validate separately)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        dim = int(payload["dim"])
        labels = tuple(str(l) for l in payload["labels"])
        weights = tuple(Fraction(int(n), int(d)) for n, d in payload["weights"])
        entries = []
        for i, j, k, n, d in payload["brackets"]:
            entries.append((int(i), int(j), int(k), Fraction(int(n), int(d))))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed algebra file: {exc}") from exc
    return GradedAlgebra(dim, labels, weights, tuple(sorted(entries)))
