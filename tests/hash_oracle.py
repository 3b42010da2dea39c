"""Reference site hashing: whole windows at once, with no blocking.

This is the whole-array pipeline the library used before it hashed windows
in cache-sized blocks, with its own out-of-place mixer, so it shares no code
with ``peierls.lattice._hash_windows`` beyond the salts.  The tests require
the blocked kernel's reducers to agree with it bit for bit.
"""

from __future__ import annotations

import numpy as np

from peierls.lattice import _GOLDEN, _XSALT, _YSALT, trial_seed


def mix(z: np.ndarray) -> np.ndarray:
    """``peierls.lattice.mix64`` over a uint64 array, out of place."""
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

