"""Adaptive Simpson quadrature for vector-valued integrands.

Globally adaptive: the interval with the largest Richardson error
estimate is bisected until the summed estimate meets the requested
absolute tolerance (or every offender reaches the depth cap).  This
concentrates evaluations at isolated Holder points without dragging the
smooth bulk of the interval to the same depth.

Two drivers run this one algorithm, with one split order:
``integrate_vector`` integrates one tuple-valued integrand, one node at
a time, and ``integrate_batch`` runs one process per job in lockstep, so
that the nodes of every job go out in one array call per round.  Each
job of a batch follows ``integrate_vector``'s heap, counters and float
operations, and ends with its bits.  The batch code imports numpy where
it runs (so do ``carnot`` and ``exprlang``): loaded after the rest of
the package, as ``maps`` loads it, numpy leaves a process's peak RSS
where it was without the batch code, while a module-level import here
measured 0.5 MB more on ``shear_verify_ladder5``, which never batches.

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


class QuadratureError(ArithmeticError):
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
    out = pieces[0].value
    for iv in pieces[1:]:
        out = tuple(x + y for x, y in zip(out, iv.value))
    return out


def integrate_batch(f, jobs):
    """``integrate_vector`` on every ``(a, b, tol)`` of ``jobs`` at once.

    ``f(which, t)`` evaluates the integrands of the jobs ``which`` at the
    nodes ``t`` (1-D arrays of one length) and returns one row per node.
    The first call holds every job's first three nodes, job by job: a, b
    and the midpoint, or a alone when a == b; then the quarter points of
    each job.  Each later call holds the four new nodes of one bisection
    per job still running: a round advances every job by one step of
    ``integrate_vector``'s loop, and Simpson values, deltas and error
    estimates are computed on arrays in its operation order.  Returns
    one row per job, bit for bit ``integrate_vector``'s value; when jobs
    miss their tolerance, raises the ``QuadratureError`` of the first of
    them in job order.  Overflow and invalid operations stay silent, as
    they are on Python floats.
    """
    import numpy as np

    if not jobs:
        return np.empty((0, 0))
    n = len(jobs)
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = (np.array(ends, dtype=float) for ends in list(zip(*jobs))[:2])
        m = 0.5 * (a + b)
        live = np.flatnonzero(a != b)
        taken = np.ones((n, 3), dtype=bool)
        taken[a == b, 1:] = False
        quarters = np.stack([0.5 * (a + m), 0.5 * (m + b)], axis=1)[live]
        values = f(
            np.concatenate([np.nonzero(taken)[0], np.repeat(live, 2)]),
            np.concatenate([np.stack([a, b, m], axis=1)[taken], quarters.ravel()]),
        )
        head = np.zeros((n, 3, values.shape[1]))
        head[taken] = values[: taken.sum()]
        fq = values[taken.sum() :].reshape(len(live), 2, values.shape[1])
        store = _Intervals(values.shape[1])
        errs, rows = store.add(
            a[live], m[live], b[live], head[live, 0], head[live, 2], head[live, 1], fq[:, 0], fq[:, 1]
        )
        running = {i: _Job(jobs[i][2], err, row) for i, err, row in zip(live.tolist(), errs, rows)}
        out = np.zeros((n, values.shape[1]))
        failure, limit = None, n
        while running:
            split = []
            for i in list(running):  # in job order
                if i >= limit:
                    break
                try:
                    step = running[i].advance()
                except QuadratureError as exc:
                    # integrate_vector, called job by job, raises the first miss
                    failure, limit = exc, i
                    break
                if step is None:
                    rows = running.pop(i).rows()
                    out[i] = np.add.accumulate(store.values[rows], axis=0)[-1]
                    store.free += rows
                else:
                    split.append((i, *step))
            if not split:
                break
            which, parents = (np.array(column) for column in list(zip(*split))[:2])
            errs, rows = store.split(f, which, parents)
            for s, (i, _, depth) in enumerate(split):
                running[i].push(errs[s], rows[s], depth + 1)
                running[i].push(errs[len(split) + s], rows[len(split) + s], depth + 1)
            running = {i: running[i] for i, _, _ in split}
        if failure is not None:
            raise failure
    return out


class _Job:
    """The state of one ``integrate_vector`` call in a batch: its heap of
    ``(-err, order, row, depth)``, its error sums and its counters."""

    def __init__(self, tol, err, row):
        self.tol = tol
        self.heap = [(-err, 0, row, 0)]
        self.total = err
        self.evals = 5
        self.order = 1
        self.capped = []
        self.capped_err = 0.0

    def advance(self):
        """The loop of ``integrate_vector`` up to its next bisection: the
        (row, depth) to bisect, or None when the job is done."""
        while self.heap and self.total > self.tol:
            neg_err, _, row, depth = heapq.heappop(self.heap)
            if depth >= MAX_DEPTH:
                self.capped.append(row)
                self.capped_err += -neg_err
                if self.capped_err > self.tol:
                    raise QuadratureError(self.evals, self.total, self.tol)
                continue
            if self.evals + 4 > MAX_EVALS:
                raise QuadratureError(self.evals, self.total, self.tol)
            self.evals += 4
            self.total -= -neg_err
            return row, depth
        return None

    def push(self, err, row, depth):
        self.total += err
        heapq.heappush(self.heap, (-err, self.order, row, depth))
        self.order += 1

    def rows(self):
        """The rows whose values sum to the result, in ``integrate_vector``'s order."""
        return [row for _, _, row, _ in self.heap] + self.capped


class _Intervals:
    """The intervals of ``integrate_batch``, one row each: the ends a and
    b, the five integrand values of ``_Interval``, and the extrapolated
    value.  Rows listed in ``free`` are reused; the arrays grow by a
    quarter when no row is free."""

    def __init__(self, width):
        import numpy as np

        self.ends = np.empty((0, 2))
        self.nodes = np.empty((0, 5, width))
        self.values = np.empty((0, width))
        self.free = []

    def add(self, a, m, b, fa, fm, fb, flm, frm):
        """Store intervals [a, b] with midpoint m; returns their error
        estimates (Python floats) and their rows."""
        import numpy as np

        coarse = _simpson_rows(fa, fm, fb, b - a)
        left = _simpson_rows(fa, flm, fm, m - a)
        right = _simpson_rows(fm, frm, fb, b - m)
        fine = left + right
        delta = fine - coarse
        size = np.abs(delta)
        err = size[:, 0] if size.shape[1] else np.zeros(len(a))
        for column in size.T[1:]:
            err = np.where(column > err, column, err)  # max() keeps the first on ties and nan
        if len(a) > len(self.free):
            old = len(self.ends)
            grow = max(len(a) - len(self.free), old // 4)
            self.ends, self.nodes, self.values = (
                np.concatenate([x, np.empty((grow, *x.shape[1:]))]) for x in (self.ends, self.nodes, self.values)
            )
            self.free += range(old, old + grow)
        rows = self.free[len(self.free) - len(a) :]
        del self.free[len(self.free) - len(a) :]
        self.ends[rows] = np.stack([a, b], axis=1)
        self.nodes[rows] = np.stack([fa, fm, fb, flm, frm], axis=1)
        self.values[rows] = fine + delta / 15.0
        return (err / 15.0).tolist(), rows

    def split(self, f, jobs, rows):
        """Bisect ``rows`` (one per job) as ``_Interval.split`` does, with one
        call of f for the four new nodes of each, and free them.  The left
        halves are added in the order of ``rows``, then the right ones;
        returns ``add``'s result."""
        import numpy as np

        a, b = self.ends[rows, 0], self.ends[rows, 1]
        fa, fm, fb, flm, frm = np.moveaxis(self.nodes[rows], 1, 0)
        self.free += rows.tolist()
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        t = np.stack([0.5 * (a + lm), 0.5 * (lm + m), 0.5 * (m + rm), 0.5 * (rm + b)], axis=1)
        new = f(np.repeat(jobs, 4), t.ravel()).reshape(len(rows), 4, -1)
        both = np.concatenate
        return self.add(
            both((a, m)), both((lm, rm)), both((m, b)), both((fa, fm)), both((flm, frm)), both((fm, fb)),
            both((new[:, 0], new[:, 2])), both((new[:, 1], new[:, 3])),
        )


def _simpson_rows(fa, fm, fb, h):
    """``_simpson`` on rows: h has one entry per row of fa, fm, fb."""
    return (h / 6.0)[:, None] * (fa + 4.0 * fm + fb)
