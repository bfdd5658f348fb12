"""Adaptive Simpson quadrature for vector-valued integrands, on arrays.

Globally adaptive: the intervals with the largest Richardson error
estimates are bisected until the summed estimate meets the requested
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

``integrate_batch`` runs many jobs at once, in rounds of one integrand
call each, and holds every live interval of every running job in numpy
arrays: its job, a, m, b, its five node values, its Richardson value and
error, and its depth.  The first call holds the first five nodes of
every job; a job whose error is at most its tolerance ends there.  A job
runs on while the sum of its intervals' errors exceeds its tolerance (a
nan sum ends it), and in each round it bisects every interval whose error
is at least a quarter of its largest (``_SPLIT``), the two halves taking
the place of the whole.  An ending job sums its intervals in position
order.  So the rounds follow how unevenly a job's error is spread, not
how many bisections its deepest part needs (Shampine, "Vectorized
adaptive quadrature in MATLAB", J. Comput. Appl. Math. 211, 2008,
vectorizes over subintervals in the same way), and a job's nodes and
value depend only on that job, never on the batch around it.
``integrate_vector`` is the call on one job, with a tuple-valued
integrand.

The work is bounded: a job raises :class:`QuadratureError` instead of
refining on when a round would take it past ``MAX_EVALS`` evaluations,
or as soon as its intervals capped at ``MAX_DEPTH`` carry more estimated
error than the tolerance, which then can never be met.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-10
MAX_DEPTH = 30
# over 13x the most evaluations one job of the test suite makes (3,769, a
# 1-D lift at radius 100 in test_cli; 3,753 for a tol=1e-14 reference on
# unsplit zigzag segments in test_shear) and 230x the most one job of the
# benchmark workloads makes (213, a zigzag segment of shear_verify_multid;
# 101 on shear_verify_ladder5, whose 1-D lift makes one job per point); only
# the tests built to exhaust it reach the budget: failing CLI inputs, and
# 1-D lifts out of reach, such as sin(q1) at 1000
MAX_EVALS = 50_000
# a running job bisects every interval whose error is at least this share of its largest
_SPLIT = 0.25


class QuadratureError(ArithmeticError):
    """The error estimate cannot meet the tolerance within the evaluation budget."""

    def __init__(self, evals, error, tol):
        super().__init__(
            f"quadrature stopped after {evals} evaluations with error estimate "
            f"{error:.3e} above the tolerance {tol:.3e}"
        )
        self.evals = evals
        self.error = error


def _richardson(a, m, b, fa, flm, fm, frm, fb):
    """The value and error of the intervals [a, b] with midpoints m, from
    their node values (one row per interval): the Richardson extrapolation
    of the two half-interval Simpson rules, and the largest |correction|
    (nan when any is)."""
    kc, kl, kr = ((b - a) / 6.0)[:, None], ((m - a) / 6.0)[:, None], ((b - m) / 6.0)[:, None]
    fine = kl * (fa + 4.0 * flm + fm) + kr * (fm + 4.0 * frm + fb)
    delta = fine - kc * (fa + 4.0 * fm + fb)
    return fine + delta / 15.0, np.abs(delta).max(axis=1, initial=0.0) / 15.0


def integrate_vector(f, a: float, b: float, tol: float = DEFAULT_TOL):
    """``integrate_batch`` on the one job (a, b, tol), calling the
    tuple-valued f once per node; returns a tuple."""
    rows = integrate_batch(lambda which, t: np.array([tuple(f(x)) for x in t.tolist()], dtype=float), [(a, b, tol)])
    return tuple(rows[0].tolist())


def integrate_batch(f, jobs):
    """The integral over [a, b] to absolute tolerance tol of every job
    ``(a, b, tol)`` of ``jobs``: one row per job.

    ``f(which, t)`` evaluates the integrands of the jobs ``which`` at the
    nodes ``t`` (1-D arrays of one length) and returns one row per node.
    The first call holds each job's a, b and midpoint, job by job, then
    each job's quarter points, then the one node a of each job with
    a == b, which integrates to 0.0.  Each later call holds the four new
    nodes of every interval a round bisects, interval by interval and
    left to right.

    When jobs miss their tolerance, the ``QuadratureError`` raised is the
    first of them in job order, and the jobs after it stop.  Overflow and
    invalid operations in f stay silent, as they are on Python floats.
    """
    lo, hi, tol = np.array(jobs, dtype=float).reshape(len(jobs), 3).T
    ids, flat = np.flatnonzero(lo != hi), np.flatnonzero(lo == hi)
    a, b = lo[ids], hi[ids]
    m = 0.5 * (a + b)
    t = np.concatenate([np.stack([a, b, m], 1).ravel(), np.stack([0.5 * (a + m), 0.5 * (m + b)], 1).ravel(), lo[flat]])
    if not t.size:
        return np.empty((0, 0))
    k = len(ids)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.asarray(f(np.concatenate([np.repeat(ids, 3), np.repeat(ids, 2), flat]), t), dtype=float)
        width = rows.shape[1]
        result = np.zeros((len(jobs), width))
        fa, fb, fm = rows[: 3 * k].reshape(k, 3, width).transpose(1, 0, 2)
        flm, frm = rows[3 * k : 5 * k].reshape(k, 2, width).transpose(1, 0, 2)
        value, err = _richardson(a, m, b, fa, flm, fm, frm, fb)
        # a job whose first error is at most its tolerance, or nan, ends on its first interval
        first = err > tol[ids]
        result[ids[~first]] = value[~first]
        x, nodes = np.stack([a, m, b])[:, first], np.stack([fa, flm, fm, frm, fb])[:, first]
        ids, value, err = ids[first], value[first], err[first]
        sizes, depth, evals = np.ones(len(ids), dtype=int), np.zeros(len(ids), dtype=int), np.full(len(jobs), 5)
        failure = None
        while ids.size:
            # job ids[n] holds the sizes[n] intervals from starts[n] on, in position order
            starts = np.cumsum(sizes) - sizes
            group = np.repeat(np.arange(len(ids)), sizes)
            capped = depth >= MAX_DEPTH
            total = np.add.reduceat(err, starts)
            running = total > tol[ids]
            worst = np.maximum.reduceat(np.where(capped, -np.inf, err), starts)
            split = ~capped & (err >= _SPLIT * worst[group]) & running[group]
            splits = np.add.reduceat(split, starts)
            cost = evals[ids] + 4 * splits
            missed = running & ((np.add.reduceat(np.where(capped, err, 0.0), starts) > tol[ids]) | (cost > MAX_EVALS))
            ended = ~running
            if missed.any():
                n = np.flatnonzero(missed)[0]
                failure = QuadratureError(int(evals[ids[n]]), float(total[n]), float(tol[ids[n]]))
                running[n:] = ended[n:] = False
            if ended.any():
                counts = sizes[ended]
                result[ids[ended]] = np.add.reduceat(value[ended[group]], np.cumsum(counts) - counts, axis=0)
            if not running.any():
                break
            evals[ids[running]] = cost[running]
            live = running[group]
            split &= live
            # each split interval [a, b] becomes [a, m] and [m, b], in its place
            pick = np.flatnonzero(split)
            a, m, b = x[:, pick]
            fa, flm, fm, frm, fb = nodes[:, pick]
            lm, rm = 0.5 * (a + m), 0.5 * (m + b)
            t = np.stack([0.5 * (a + lm), 0.5 * (lm + m), 0.5 * (m + rm), 0.5 * (rm + b)], 1).ravel()
            rows = np.asarray(f(np.repeat(ids[group[pick]], 4), t), dtype=float)
            f1, f2, f3, f4 = rows.reshape(len(pick), 4, width).transpose(1, 0, 2)
            copies = live + split.astype(int)
            keep = np.repeat(np.arange(len(group)), copies)
            left = (np.cumsum(copies) - copies)[pick]
            halves = np.concatenate([left, left + 1])
            ids, sizes = ids[running], (sizes + splits)[running]
            depth, x, nodes, value, err = depth[keep], x[:, keep], nodes[:, keep], value[keep], err[keep]
            depth[halves] += 1
            x[:, halves] = np.concatenate([[a, lm, m], [m, rm, b]], axis=1)
            nodes[:, halves] = np.concatenate([[fa, f1, flm, f2, fm], [fm, f3, frm, f4, fb]], axis=1)
            value[halves], err[halves] = _richardson(*x[:, halves], *nodes[:, halves])
    if failure is not None:
        raise failure
    return result
