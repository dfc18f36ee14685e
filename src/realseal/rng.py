"""SplitMix64 pseudo-random stream.

Single PRNG for all synthetic data: trivially portable (three published
constants, 64-bit wrapping arithmetic) and vectorized, because output k
(counting from 0) is a pure function of ``seed + (k + 1) * GOLDEN``. A
generator takes its k-th scalar draw as element k of one fill.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def fill_u64(seed: int, count: int) -> np.ndarray:
    """First ``count`` outputs of the stream seeded with ``seed`` mod 2**64.

    After k + 1 steps the state is seed + (k + 1)*GOLDEN mod 2**64, and
    output k is mixed from that state alone, so the stream maps elementwise.
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
