"""Reference site hashing: one site at a time, and whole windows at once.

The scalar functions hash single sites in pure Python integers.  The array
functions hash whole windows of many trials in numpy, with their own
out-of-place mixer.  The library hashes each site inside its compiled flood
kernel (``peierls_flood`` of ``peierls/_kernel.c``); this module shares no code with it, its salts
included, and the tests require the kernel's keys to agree with both bit for
bit.
"""

from __future__ import annotations

import numpy as np

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_XSALT = 0xD1B54A32D192ED03
_YSALT = 0x8CB92BA72F3D8DD7
_TRIALSALT = 0xD1342543DE82EF95


def mix64(z: int) -> int:
    """64-bit finalizer: maps any integer to a well-scrambled 64-bit value."""
    z &= _M64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _M64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _site_hash(seed: int, x: int, y: int) -> int:
    h = mix64((seed ^ _GOLDEN) & _M64)
    h = mix64((h + (x & _M64) * _XSALT) & _M64)
    h = mix64((h + (y & _M64) * _YSALT) & _M64)
    return h


def site_uniform(seed: int, x: int, y: int) -> float:
    """Uniform value in [0, 1) for one site, a pure function of (seed, x, y)."""
    return (_site_hash(seed, x, y) >> 11) * 2.0**-53


def trial_seed(seed: int, index: int) -> int:
    """Derived seed for an independent trial; any subset of trials can be redone."""
    return mix64((seed ^ (index & _M64) * _TRIALSALT) & _M64)


def mix(z: np.ndarray) -> np.ndarray:
    """:func:`mix64` over a uint64 array, out of place."""
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def hash_grids(seeds: np.ndarray, radius: int) -> np.ndarray:
    """Site hashes of one window per uint64 seed; ``[t, y + radius, x + radius]`` is ``_site_hash(seeds[t], x, y)``."""
    coords = np.arange(-radius, radius + 1, dtype=np.int64).view(np.uint64)
    h0 = mix(seeds ^ np.uint64(_GOLDEN))
    hx = mix(h0[:, np.newaxis] + coords[np.newaxis, :] * np.uint64(_XSALT))
    yterm = coords * np.uint64(_YSALT)
    return mix(hx[:, np.newaxis, :] + yterm[np.newaxis, :, np.newaxis])


def trial_hashes(seed: int, L: int, t0: int, t1: int) -> np.ndarray:
    """Site hashes of trials t0..t1-1 of a Monte Carlo run."""
    return hash_grids(np.array([trial_seed(seed, t) for t in range(t0, t1)], dtype=np.uint64), L)


def occupied(seed: int, L: int, c: float, t0: int, t1: int) -> np.ndarray:
    """Occupancy of trials t0..t1-1 at concentration c: uniform ``(hash >> 11) * 2**-53 < c``."""
    uniforms = (trial_hashes(seed, L, t0, t1) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return uniforms < c
