"""SplitMix64 pseudo-random stream.

Single PRNG for all synthetic data: trivially portable (three published
constants, 64-bit wrapping arithmetic) and fast enough in vectorized form
because output k is a pure function of ``seed + k * GOLDEN``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


@dataclass(frozen=True)
class Rng64:
    """Immutable SplitMix64 state (a single 64-bit unsigned integer)."""

    state: int

    def __post_init__(self) -> None:
        if not 0 <= self.state <= _MASK64:
            raise ValueError("Rng64 state must be a 64-bit unsigned integer")


def rng_next(r: Rng64) -> tuple[Rng64, int]:
    """Advance the stream one step; returns (new state, 64-bit output)."""
    state = (r.state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    z = z ^ (z >> 31)
    return Rng64(state), z


def fill_u64(seed: int, count: int) -> np.ndarray:
    """First ``count`` outputs of the stream seeded with ``seed``, vectorized.

    Identical to ``count`` successive rng_next() calls: after k steps the
    state is seed + k*GOLDEN mod 2**64, so the whole stream maps elementwise.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    # one work array and one shift buffer, updated in place
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed & _MASK64)
    t = np.empty_like(z)
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= np.uint64(mix)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def fill_unit(seed: int, count: int) -> np.ndarray:
    """First ``count`` doubles in [0, 1), from the top 53 bits of each output."""
    z = fill_u64(seed, count)
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= 2.0**-53
    return u


class Stream:
    """Small stateful wrapper over the functional core, for generator code."""

    def __init__(self, seed: int):
        self._rng = Rng64(seed & _MASK64)

    def next_u64(self) -> int:
        self._rng, value = rng_next(self._rng)
        return value

    def next_unit(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def derive_seed(self) -> int:
        """Seed for an independent substream."""
        return self.next_u64()
