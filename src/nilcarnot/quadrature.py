"""Adaptive Simpson quadrature for vector-valued integrands.

Globally adaptive: the interval with the largest Richardson error
estimate is bisected until the summed estimate meets the requested
absolute tolerance (or every offender reaches the depth cap), without
dragging the smooth bulk of the interval to the depth of its worst
part.  The estimate assumes a smooth integrand, and at a Holder point it
both bisects deep and under-reports its error; so the points that a
component's expression trees show (the roots of its ``abs``, ``sqrt``
and ``sign`` arguments) never reach it as such:
``carnot.integrate_bracket_segments`` splits a segment there and grades
the nodes of each piece toward them.  Adaptivity covers what the trees
cannot show: lifted components, which have no trees, and arguments that
are not affine in the first-layer coordinates.

The algorithm is written once, as the generator ``_process``: it yields
the nodes it needs next and receives one value per node.
``integrate_batch``, the scheduler the package runs (through
``carnot.integrate_bracket_segments``), evaluates the first five nodes
of every job in one array call and takes their Richardson pieces in one
numpy pass, with ``_piece``'s operations in ``_piece``'s order.  A job
that meets its tolerance there is done; only the others start a
process, fed the values already computed, and run in lockstep, so that
the nodes of every job go out in one array call per round.
``integrate_vector`` runs one process one node at a time on a
tuple-valued integrand; it is the reference the batch is tested
against.  The batch scheduler imports numpy where it runs (so do
``carnot`` and ``exprlang``): loaded after the rest of the package, as
``maps`` loads it, numpy leaves a process's peak RSS where it was
without the batch code, while a module-level import here measured
0.5 MB more on ``shear_verify_ladder5`` when that workload did not yet
batch.

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
# over 13x the most evaluations one job of the test suite makes (3,689, a
# tol=1e-14 reference on unsplit zigzag segments in test_shear) and 300x
# the most one job of the benchmark workloads makes (165, a zigzag segment
# of shear_verify_multid; 69 on shear_verify_ladder5, whose 1-D lift makes
# one job per point); only the tests built to exhaust it reach the budget:
# failing CLI inputs, and 1-D lifts out of reach, such as sin(q1) at 1000
MAX_EVALS = 50_000


class QuadratureError(ArithmeticError):
    """The error estimate cannot meet the tolerance within the evaluation budget."""

    def __init__(self, evals, error, tol):
        super().__init__(
            f"quadrature stopped after {evals} evaluations with error estimate "
            f"{error:.3e} above the tolerance {tol:.3e}"
        )
        self.evals = evals
        self.error = error


def _piece(order, depth, a, m, b, fa, fm, fb, flm, frm):
    """The heap entry of [a, b] with midpoint m: ``(-err, order, a, m, b,
    fa, fm, fb, flm, frm, depth, value)``, where value is the Richardson
    extrapolation of the two half-interval Simpson rules and err the
    largest of its corrections (``max`` keeps the first on ties and nan)."""
    kc, kl, kr = (b - a) / 6.0, (m - a) / 6.0, (b - m) / 6.0
    value, sizes = [], []
    for x, y, z, w, v in zip(fa, flm, fm, frm, fb):
        fine = kl * (x + 4.0 * y + z) + kr * (z + 4.0 * w + v)
        delta = fine - kc * (x + 4.0 * z + v)
        value.append(fine + delta / 15.0)
        sizes.append(abs(delta))
    err = max(sizes, default=0.0) / 15.0
    return (-err, order, a, m, b, fa, fm, fb, flm, frm, depth, tuple(value))


def _process(a, b, tol):
    """The algorithm: yields the nodes it needs next, receives their values
    (one sequence per node) and returns the integral over [a, b].

    It yields ``(a, b, m)``, or ``(a,)`` when a == b; then the quarter
    points ``(lm, rm)``; then, per bisection of the interval with the
    largest error (ties to the earliest made), its four new nodes left to
    right.  Each bisection costs four evaluations on top of the first
    five; one that would pass ``MAX_EVALS``, or capped intervals whose
    summed error exceeds ``tol``, raise :class:`QuadratureError`.
    """
    if a == b:
        (fa,) = yield (a,)
        return tuple(0.0 for _ in fa)
    m = 0.5 * (a + b)
    fa, fb, fm = yield (a, b, m)
    flm, frm = yield (0.5 * (a + m), 0.5 * (m + b))
    order = itertools.count()
    heap = [_piece(next(order), 0, a, m, b, fa, fm, fb, flm, frm)]
    capped = []
    capped_err = 0.0
    total_err = -heap[0][0]
    evals = 5
    while heap and total_err > tol:
        worst = heapq.heappop(heap)
        _, _, a, m, b, fa, fm, fb, flm, frm, depth, _ = worst
        err = -worst[0]
        if depth >= MAX_DEPTH:
            capped.append(worst)
            capped_err += err
            if capped_err > tol:
                raise QuadratureError(evals, total_err, tol)
            continue
        if evals + 4 > MAX_EVALS:
            raise QuadratureError(evals, total_err, tol)
        evals += 4
        total_err -= err
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        f1, f2, f3, f4 = yield (0.5 * (a + lm), 0.5 * (lm + m), 0.5 * (m + rm), 0.5 * (rm + b))
        for child in (
            _piece(next(order), depth + 1, a, lm, m, fa, flm, fm, f1, f2),
            _piece(next(order), depth + 1, m, rm, b, fm, frm, fb, f3, f4),
        ):
            total_err += -child[0]
            heapq.heappush(heap, child)
    pieces = heap + capped
    out = pieces[0][-1]
    for piece in pieces[1:]:
        out = tuple(x + y for x, y in zip(out, piece[-1]))
    return out


def integrate_vector(f, a: float, b: float, tol: float = DEFAULT_TOL):
    """Integrate a tuple-valued f over [a, b] to absolute tolerance tol,
    calling f once per node of ``_process``."""
    process = _process(a, b, tol)
    nodes = next(process)
    try:
        while True:
            nodes = process.send([tuple(f(t)) for t in nodes])
    except StopIteration as done:
        return done.value


def integrate_batch(f, jobs):
    """``integrate_vector`` on every ``(a, b, tol)`` of ``jobs`` at once.

    ``f(which, t)`` evaluates the integrands of the jobs ``which`` at the
    nodes ``t`` (1-D arrays of one length) and returns one row per node.
    The first call holds the first five nodes of every job with a != b:
    each job's a, b and midpoint, job by job, then each job's quarter
    points.  One numpy pass takes ``_piece``'s Richardson value and error
    of all of them, with the same elementwise operations in the same
    order; a job whose error is a number at most its tolerance ends there
    with that value.  Every other job starts its ``_process``, fed the
    five values already computed (a nan error included, so that
    ``_piece``'s ``max`` decides it), and a job with a == b starts with
    its one node.  Each later round makes one call with the nodes every
    running process yields next, job by job: the one node of a job with
    a == b, or the four new nodes of one bisection.  Returns one row per
    job, bit for bit ``integrate_vector``'s value; when jobs miss their
    tolerance, raises the ``QuadratureError`` of the first of them in job
    order.  Overflow and invalid operations in f stay silent, as they are
    on Python floats.
    """
    import numpy as np

    processes, running, out = {}, {}, {}
    failure = None

    def start(i):
        processes[i] = _process(*jobs[i])
        running[i] = next(processes[i])

    def advance(i, values):
        """Send job i's process one value per node; False once it misses its tolerance."""
        nonlocal failure, running
        try:
            running[i] = processes[i].send(values)
        except StopIteration as done:
            out[i] = done.value
            del running[i]
        except QuadratureError as exc:
            # integrate_vector, called job by job, raises the first miss
            failure = exc
            running = {k: v for k, v in running.items() if k < i}
            return False
        return True

    with np.errstate(over="ignore", invalid="ignore"):
        first = [i for i, (a, b, _) in enumerate(jobs) if a != b]
        if first:
            k = len(first)
            a, b, tol = np.array([jobs[i] for i in first], dtype=float).T
            m = 0.5 * (a + b)
            t = np.concatenate([np.stack([a, b, m], 1).ravel(), np.stack([0.5 * (a + m), 0.5 * (m + b)], 1).ravel()])
            which = np.array(first)
            rows = np.asarray(f(np.concatenate([np.repeat(which, 3), np.repeat(which, 2)]), t), dtype=float)
            fa, fb, fm = rows[: 3 * k].reshape(k, 3, rows.shape[1]).transpose(1, 0, 2)
            flm, frm = rows[3 * k :].reshape(k, 2, rows.shape[1]).transpose(1, 0, 2)
            # _piece of every job's first interval, operation for operation
            kc, kl, kr = ((b - a) / 6.0)[:, None], ((m - a) / 6.0)[:, None], ((b - m) / 6.0)[:, None]
            fine = kl * (fa + 4.0 * flm + fm) + kr * (fm + 4.0 * frm + fb)
            delta = fine - kc * (fa + 4.0 * fm + fb)
            value = fine + delta / 15.0
            # a nan error is not <= tol: _piece's max() decides it
            done = np.abs(delta).max(axis=1, initial=0.0) / 15.0 <= tol
            for n in np.flatnonzero(~done).tolist():  # in job order
                i = first[n]
                start(i)
                if not advance(i, rows[3 * n : 3 * n + 3].tolist()) or (
                    i in running and not advance(i, rows[3 * k + 2 * n : 3 * k + 2 * n + 2].tolist())
                ):
                    break
        if failure is None:
            for i, job in enumerate(jobs):
                if job[0] == job[1]:
                    start(i)
            running = dict(sorted(running.items()))
        while running:
            which = [i for i, nodes in running.items() for _ in nodes]
            t = [x for nodes in running.values() for x in nodes]
            rows = map(tuple, f(np.array(which), np.array(t)).tolist())
            for i, nodes in list(running.items()):  # in job order
                if not advance(i, [next(rows) for _ in nodes]):
                    break
    if failure is not None:
        raise failure
    width = value.shape[1] if first else len(next(iter(out.values()), ()))
    result = np.empty((len(jobs), width))
    if first:
        result[first] = value  # the rows of the jobs that ran on are set below
    for i, row in out.items():
        result[i] = row
    return result
