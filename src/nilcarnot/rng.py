"""Counter-based deterministic random numbers (SplitMix64).

Every sampled quantity in the library flows from a single 64-bit seed
through this generator, so sample sets are reproducible across runs and
reimplementable in any language.  The stream is stateless in effect:
output i is ``mix64(seed + (i+1) * 0x9E3779B97F4A7C15)`` with

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

all in 64-bit wrapping arithmetic.  Doubles take the top 53 bits.

Since output i depends only on the seed and i (``CounterRng.at``), a
block of outputs is one wrapping ``uint64`` array expression.  The column
forms draw a block with the bits of one draw at a time, and leave the
counter where that many one-at-a-time calls would leave it:
``CounterRng.uniform(count=n)`` gives the next n doubles as an array, and
``sample_ball_point(..., n)`` n points as coordinate columns
(:mod:`nilcarnot.linalg`).  A point reads ``dim + 1`` counters, its
coordinates and then its radial draw; a draw rejected for a quasi-norm at
most 1e-9 is drawn again from the counters right after its coordinates,
and the column draw restarts there.
"""

from __future__ import annotations

from dataclasses import dataclass

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z):
    """The SplitMix64 mixer, of an int or element by element of a ``uint64`` array."""
    z &= _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


class CounterRng:
    """SplitMix64 stream addressed by an incrementing counter."""

    def __init__(self, seed: int, counter: int = 0):
        self.seed = seed & _MASK
        self.counter = counter

    def at(self, counter):
        """The output at ``counter``: of an int, or element by element of a ``uint64`` array."""
        return mix64(self.seed + counter * _GOLDEN)

    def next_u64(self) -> int:
        self.counter += 1
        return self.at(self.counter)

    def uniform(self, lo: float = 0.0, hi: float = 1.0, count=None):
        """One double in [lo, hi), or with ``count`` the next ``count`` as an array."""
        if count is None:
            u = self.next_u64() >> 11  # 53 bits
        else:
            import numpy as np

            u = self.at(np.arange(self.counter + 1, self.counter + count + 1, dtype=np.uint64)) >> 11
            self.counter += count
        return lo + (hi - lo) * (u * (1.0 / (1 << 53)))

    def symmetric(self, scale: float = 1.0) -> float:
        return self.uniform(-scale, scale)


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    count: int
    radius: float


def sample_coords(rng: CounterRng, dim: int, scale: float = 1.0):
    return tuple(rng.symmetric(scale) for _ in range(dim))


def sample_ball_point(rng: CounterRng, alg, radius, n=None):
    """A point of quasi-norm at most ``radius``, or with ``n`` given, n such
    points as coordinate columns (``radius`` then may hold one per point).

    Raw coordinates are uniform in [-1, 1]; the point is dilated to unit
    quasi-norm and then by radius * u, u uniform in (0, 1].  A draw of
    quasi-norm at most 1e-9 is drawn again.  The n points and the counter
    after them are those of n one-point calls (see the module docstring);
    one point skips the arrays, which would cost it several times more.
    """
    from .group import dilate, quasi_norm

    if n is None:
        while True:
            v = sample_coords(rng, alg.dim)
            norm = quasi_norm(alg, v)
            if norm > 1e-9:
                break
        unit = dilate(alg, 1.0 / norm, v)
        u = 1.0 - rng.uniform()  # (0, 1]
        return dilate(alg, radius * u, unit)
    import numpy as np

    radius = np.broadcast_to(radius, (n,))
    start, dim = rng.counter, alg.dim
    draws = rng.uniform(count=n * (dim + 1)).reshape(n, dim + 1)
    v = tuple(-1.0 + 2.0 * draws[:, i] for i in range(dim))  # symmetric(): lo + (hi - lo) * u
    norm = quasi_norm(alg, v)
    rejected = np.flatnonzero(~(norm > 1e-9))
    taken = int(rejected[0]) if rejected.size else n
    unit = dilate(alg, 1.0 / norm[:taken], tuple(a[:taken] for a in v))
    u = 1.0 - draws[:taken, dim]  # (0, 1]
    out = dilate(alg, radius[:taken] * u, unit)
    if taken == n:
        return out
    rng.counter = start + taken * (dim + 1) + dim  # the redraw follows the rejected coordinates
    rest = sample_ball_point(rng, alg, radius[taken:], n - taken)
    return tuple(np.concatenate(pair) for pair in zip(out, rest))
