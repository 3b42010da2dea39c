"""Reference bisection: every midpoint re-thresholds and re-labels every trial.

This is the sequential loop ``bisect_threshold`` ran before it searched each
trial's critical index, with the pairwise left/right label comparison the
crossing test used before it marked labels, on occupancy from the
whole-array hash oracle; the tests require the library to give the same
trace, estimate and crossing flags.
"""

from __future__ import annotations

import numpy as np

from hash_oracle import occupied
from peierls.montecarlo import _chunks, _label_batch


def oracle_crossing(labels: np.ndarray) -> np.ndarray:
    """Per trial: is some nonzero label on the left column equal to one on the right?"""
    left = labels[:, :, 0]
    right = labels[:, :, -1]
    return ((left[:, :, np.newaxis] == right[:, np.newaxis, :]) & (left[:, :, np.newaxis] > 0)).any(axis=(1, 2))


def oracle_bisect(L: int, trials: int, tol: float, seed: int) -> tuple[float, tuple[tuple[float, float], ...]]:
    """(estimate, trace) of bisection on c for crossing probability 1/2."""
    side = 2 * L + 1
    lo, hi = 0.0, 1.0
    trace: list[tuple[float, float]] = []
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        hits = sum(
            int(oracle_crossing(_label_batch(b - a, side, side, lambda grids: np.copyto(grids, occupied(seed, L, mid, a, b)))).sum())
            for a, b in _chunks(L, trials)
        )
        value = hits / trials
        trace.append((mid, value))
        if value < 0.5:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0, tuple(trace)
