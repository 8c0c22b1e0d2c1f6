"""Deterministic random streams.

Treatment and outcome draws use counter-style hashing keyed by
(seed, unit id, purpose) so that re-running selection with different
downstream consumption can never change an individual unit's draws.
Everything else (pool and log draws, evaluation samples, the random
strategy's picks) uses numpy Generators derived from a master seed.
One splitmix64 with Python-int constants mixes both: on Python ints it is
integer arithmetic masked to 64 bits; on uint64 arrays the constants take the
array's dtype (NEP 50) and the same lines wrap modulo 2^64 to the same bits.
"""

from operator import index

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF

# purpose tags for per-unit streams
TREATMENT = 0x51ED270693E06F85
OUTCOME = 0x9E6C63D0976A0C27


def _splitmix64(z):
    """One round of splitmix64 on a Python int or a uint64 array."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def unit_uniform(seed, unit_ids, purpose):
    """Uniform(0,1) draws keyed by (seed, unit id, purpose).

    Vectorized over unit_ids; the same triple always yields the same value.
    """
    ids = np.asarray(unit_ids, dtype=np.uint64)
    h = _splitmix64((index(seed) & _MASK) ^ purpose)
    with np.errstate(over="ignore"):  # a 0-d ids array computes in numpy scalars
        z = _splitmix64(_splitmix64(ids ^ h) ^ purpose)
    return (z >> 11).astype(np.float64) * (1.0 / (1 << 53))


def derive_seed(master_seed, *parts):
    """Derive an integer sub-seed from a master seed and context parts."""
    z = index(master_seed) & _MASK
    for p in parts:
        z = _splitmix64(z ^ (int(p) & _MASK))
    return z


def rng_for(master_seed, *parts):
    """A numpy Generator for a named sub-stream of the master seed."""
    return np.random.default_rng(derive_seed(master_seed, *parts))
