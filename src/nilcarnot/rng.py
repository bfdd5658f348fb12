"""Counter-based deterministic random numbers (SplitMix64).

Every sampled quantity in the library flows from a single 64-bit seed
through this generator, so sample sets are reproducible across runs and
reimplementable in any language.  The stream is stateless in effect:
output i is ``mix64(seed + (i+1) * 0x9E3779B97F4A7C15)`` with

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

all in 64-bit wrapping arithmetic.  Doubles take the top 53 bits.
"""

from __future__ import annotations

from dataclasses import dataclass

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
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

    def next_u64(self) -> int:
        self.counter += 1
        return mix64((self.seed + self.counter * _GOLDEN) & _MASK)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = self.next_u64() >> 11  # 53 bits
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


def sample_ball_point(rng: CounterRng, alg, radius: float):
    """A point of quasi-norm at most ``radius``.

    Raw coordinates are uniform in [-1, 1]; the point is dilated to unit
    quasi-norm and then by radius * u, u uniform in (0, 1].
    """
    from .group import dilate, quasi_norm

    while True:
        v = sample_coords(rng, alg.dim)
        norm = quasi_norm(alg, v)
        if norm > 1e-9:
            break
    unit = dilate(alg, 1.0 / norm, v)
    u = 1.0 - rng.uniform()  # (0, 1]
    return dilate(alg, radius * u, unit)
