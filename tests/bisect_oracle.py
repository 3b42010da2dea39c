"""Reference labelling and crossing, reference bisection, and a reference search for each trial's critical index.

``oracle_labels`` labels the 4-connected clusters of a stack of grids with the
public ``scipy.ndimage.label``, and ``oracle_crossing`` compares the labels
of each grid's left and right columns pair by pair; the library has no
labeller, so both are independent of its flood kernel.

``oracle_bisect`` is the sequential loop ``bisect_threshold`` ran before it
searched each trial's critical index: every midpoint re-thresholds and
re-labels every trial, on occupancy from the whole-array hash oracle; the
tests require the library to give the same trace and estimate.

``oracle_critical_indices`` is the probe search ``bisect_threshold`` ran
before the compiled kernel: each trial's critical index is found by
labelling the field, keyed ``hash >> (64 - m)`` by the hash oracle, at probes
inside a shrinking bracket.  The tests require the kernel's invasion flood to
give the same indices.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from hash_oracle import occupied, trial_hashes


def oracle_labels(grids: np.ndarray) -> np.ndarray:
    """4-connected cluster labels of a ``(b, rows, cols)`` stack of bool grids, one ``ndimage.label`` pass over the stack.

    Each grid is followed by a blank row, so clusters of neighbouring grids
    never join; labels are unique across the stack, 0 on empty sites.
    """
    b, rows, cols = grids.shape
    stack = np.zeros((b, rows + 1, cols), dtype=bool)
    stack[:, :rows] = grids
    labelled, _ = ndimage.label(stack.reshape(b * (rows + 1), cols))
    return labelled.reshape(b, rows + 1, cols)[:, :rows]


def oracle_crossing(labels: np.ndarray) -> np.ndarray:
    """Per trial: is some nonzero label on the left column equal to one on the right?"""
    left = labels[:, :, 0]
    right = labels[:, :, -1]
    return ((left[:, :, np.newaxis] == right[:, np.newaxis, :]) & (left[:, :, np.newaxis] > 0)).any(axis=(1, 2))


def oracle_bisect(L: int, trials: int, tol: float, seed: int) -> tuple[float, tuple[tuple[float, float], ...]]:
    """(estimate, trace) of bisection on c for crossing probability 1/2."""
    # labelled about 1M sites at a time, a grid's blank row included
    batch = max(1, 1_000_000 // ((2 * L + 1) * (2 * L + 2)))
    chunks = [(a, min(a + batch, trials)) for a in range(0, trials, batch)]
    lo, hi = 0.0, 1.0
    trace: list[tuple[float, float]] = []
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        hits = sum(int(oracle_crossing(oracle_labels(occupied(seed, L, mid, a, b))).sum()) for a, b in chunks)
        value = hits / trials
        trace.append((mid, value))
        if value < 0.5:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0, tuple(trace)


def oracle_critical_indices(seed: int, L: int, m: int, t0: int, t1: int, prior: np.ndarray) -> tuple[np.ndarray, int]:
    """Critical grid index of each trial t0..t1-1, and the labelling passes spent.

    The critical index j*_t is the largest j in [0, 2**m) such that field t has
    no left-right crossing at c = j / 2**m.  Each trial keeps a bracket
    lo <= j*_t < hi and is probed at the median of its bracket under the
    weights ``prior * 2**m + 1`` (a j* histogram plus one pseudo-count spread
    over the grid); a zero prior makes that plain bisection.  The probe order
    changes the passes spent, never j*.  Each pass thresholds the keys of the
    trials whose bracket is still open and labels only those.
    """
    grid = 1 << m
    cum = np.concatenate(([0], np.cumsum(prior.astype(np.int64) * grid + 1)))
    keys = (trial_hashes(seed, L, t0, t1) >> np.uint64(64 - m)).astype(np.int64)
    lo = np.zeros(t1 - t0, dtype=np.int64)
    hi = np.full(t1 - t0, grid, dtype=np.int64)
    active = np.arange(t1 - t0)
    passes = 0
    while active.size:
        a, b = lo[active], hi[active]
        probe = np.clip(np.searchsorted(2 * cum, cum[a] + cum[b]), a + 1, b - 1)
        crossed = oracle_crossing(oracle_labels(keys[active] < probe[:, np.newaxis, np.newaxis]))
        hi[active] = np.where(crossed, probe, b)
        lo[active] = np.where(crossed, a, probe)
        passes += active.size
        active = active[hi[active] - lo[active] > 1]
    return lo, passes
