"""The library's site keys and occupancy, read out of its flood kernel one site at a time.

The kernel holds the library's only site hash and never returns a key, but a
flood from one site s to the target s takes s first, so its result is the
key of s: 0 when the site's hash is below the
bound, else max(1, hash >> (64 - m)).  The tests compare these keys with
:mod:`hash_oracle` bit for bit.
"""

from __future__ import annotations

import numpy as np

from peierls.montecarlo import _flood, _hash_threshold


def site_keys(seed: int, L: int, bound: int, m: int, t0: int, t1: int) -> np.ndarray:
    """Key of every site of trials t0..t1-1; ``[t, y + L, x + L]`` is site (x, y) of trial t0 + t, one flood per site."""
    side = 2 * L + 1
    keys = np.empty((t1 - t0, side * side), dtype=np.int32)
    for s in range(side * side):
        target = np.zeros(side * side, dtype=bool)
        target[s] = True
        keys[:, s] = _flood(seed, t0, t1 - t0, L, bound, m, [s], target)
    return keys.reshape(t1 - t0, side, side)


def occupied(seed: int, L: int, c: float, t0: int, t1: int) -> np.ndarray:
    """The library's occupancy of trials t0..t1-1 at concentration c: the sites of m = 1 key 0, every site at c = 1."""
    if c >= 1.0:
        return np.ones((t1 - t0, 2 * L + 1, 2 * L + 1), dtype=bool)
    return site_keys(seed, L, _hash_threshold(c), 1, t0, t1) == 0
