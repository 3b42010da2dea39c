"""Monte Carlo estimates of percolation probabilities on finite windows.

Each trial draws one coupled field from a per-trial derived seed, so any
subset of trials can be recomputed independently and estimates are identical
however the trials are split across workers.  Cluster labeling is done in
batches: trial grids are stacked with blank separator rows and labeled in a
single 4-connected pass.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import CapExceeded
from .lattice import Window, _hash_grids, trial_seed

__all__ = [
    "McEstimate",
    "ThresholdResult",
    "bisect_threshold",
    "estimate_crossing",
    "estimate_origin_reach",
    "exact_origin_reach_probability",
]

_STRUCT4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=np.uint8)


@dataclass(frozen=True)
class McEstimate:
    """A Bernoulli fraction with its binomial standard error."""

    value: float
    std_error: float
    trials: int
    L: int
    c: float
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "trials": self.trials,
            "L": self.L,
            "c": self.c,
            "seed": self.seed,
        }


def _hash_batch(seed: int, L: int, t0: int, t1: int) -> np.ndarray:
    """Site hashes for trials t0..t1-1; [t, y+L, x+L] matches uniform_grid."""
    return _hash_grids(np.array([trial_seed(seed, t) for t in range(t0, t1)], dtype=np.uint64), L)


def _occupied_batch(seed: int, L: int, c: float, t0: int, t1: int) -> np.ndarray:
    """Occupancy grids at concentration c.

    Uses an integer threshold: the uniforms are exact multiples of 2**-53, so
    ``u < c`` is equivalent to comparing the raw 53-bit hash against
    ceil(c * 2**53), without materializing the floats.
    """
    if c >= 1.0:
        shape = (t1 - t0, 2 * L + 1, 2 * L + 1)
        return np.ones(shape, dtype=bool)
    if c <= 0.0:
        shape = (t1 - t0, 2 * L + 1, 2 * L + 1)
        return np.zeros(shape, dtype=bool)
    threshold = np.uint64(math.ceil(c * 2.0**53) << 11)
    return _hash_batch(seed, L, t0, t1) < threshold


def _label_batch(occupied: np.ndarray) -> np.ndarray:
    """4-connected labels per trial, computed in one pass over a stacked image."""
    b, n, _ = occupied.shape
    stacked = np.zeros((b, n + 1, n), dtype=bool)
    stacked[:, :n] = occupied
    labels, _ = ndimage.label(stacked.reshape(b * (n + 1), n), structure=_STRUCT4)
    return labels.reshape(b, n + 1, n)[:, :n]

def _reach_count(seed: int, L: int, c: float, t0: int, t1: int) -> int:
    labels = _label_batch(_occupied_batch(seed, L, c, t0, t1))
    origin = labels[:, L, L]
    border = np.concatenate(
        [labels[:, 0, :], labels[:, -1, :], labels[:, :, 0], labels[:, :, -1]], axis=1
    )
    hits = (origin > 0) & (border == origin[:, np.newaxis]).any(axis=1)
    return int(hits.sum())


def _crossing_count(seed: int, L: int, c: float, t0: int, t1: int) -> int:
    labels = _label_batch(_occupied_batch(seed, L, c, t0, t1))
    left = labels[:, :, 0]
    right = labels[:, :, -1]
    cross = ((left[:, :, np.newaxis] == right[:, np.newaxis, :]) & (left[:, :, np.newaxis] > 0)).any(axis=(1, 2))
    return int(cross.sum())


def _count_events(counter, L: int, c: float, trials: int, seed: int, workers: int) -> int:
    side = 2 * L + 1
    # ~1M sites keeps each uint64 hash array near 8 MB.  At 32 MB (glibc's mmap
    # threshold cap) a command's peak RSS varied by 30 MB with thread timing.
    batch = max(1, 1_000_000 // (side * (side + 1)))
    chunks = [(t0, min(t0 + batch, trials)) for t0 in range(0, trials, batch)]
    if workers <= 1 or len(chunks) == 1:
        return sum(counter(seed, L, c, a, b) for a, b in chunks)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(lambda ab: counter(seed, L, c, ab[0], ab[1]), chunks))


def _check_run(L: int, trials: int) -> None:
    """Reject a window radius below 1 or fewer than one trial."""
    Window(L)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


def _estimate(counter, L: int, c: float, trials: int, seed: int, workers: int) -> McEstimate:
    _check_run(L, trials)
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"concentration must lie in [0, 1], got {c}")
    hits = _count_events(counter, L, c, trials, seed, workers)
    value = hits / trials
    return McEstimate(
        value=value,
        std_error=math.sqrt(value * (1.0 - value) / trials),
        trials=trials,
        L=L,
        c=c,
        seed=seed,
    )


def estimate_origin_reach(L: int, c: float, trials: int, seed: int, *, workers: int = 1) -> McEstimate:
    """Fraction of trials whose origin cluster reaches the window border.

    The finite-window stand-in for the probability that the origin belongs to
    an unbounded cluster; vacant origins never count.
    """
    return _estimate(_reach_count, L, c, trials, seed, workers)


def estimate_crossing(L: int, c: float, trials: int, seed: int, *, workers: int = 1) -> McEstimate:
    """Fraction of trials with an occupied left-right crossing of the window."""
    return _estimate(_crossing_count, L, c, trials, seed, workers)


@dataclass(frozen=True)
class ThresholdResult:
    """Bisection output: the midpoint estimate and the evaluation trace."""

    estimate: float
    tol: float
    trace: tuple[tuple[float, float], ...]
    L: int
    trials: int
    seed: int


def bisect_threshold(L: int, trials: int, tol: float, seed: int, *, workers: int = 1) -> ThresholdResult:
    """Bisection on c for crossing probability 1/2.

    The same trial fields are reused at every concentration (only the
    threshold changes), so the per-field crossing indicator is monotone in c
    and the bisection is well defined for each seed.
    """
    _check_run(L, trials)
    if not tol >= 1e-3:
        raise ValueError(f"tolerance must be >= 1e-3, got {tol}")
    lo, hi = 0.0, 1.0
    trace: list[tuple[float, float]] = []
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        value = _count_events(_crossing_count, L, mid, trials, seed, workers) / trials
        trace.append((mid, value))
        if value < 0.5:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(
        estimate=(lo + hi) / 2.0,
        tol=tol,
        trace=tuple(trace),
        L=L,
        trials=trials,
        seed=seed,
    )


def exact_origin_reach_probability(L: int, c: float, *, site_limit: int = 20) -> float:
    """Exhaustive origin-reach probability over all occupancy configurations.

    Feasible only for tiny windows (the sum runs over 2**sites
    configurations); raises :class:`CapExceeded` beyond ``site_limit`` sites.
    """
    window = Window(L)
    side = window.side
    n = window.site_count
    if n > site_limit:
        raise CapExceeded(f"window has {n} sites; exhaustive enumeration capped at {site_limit}")
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"concentration must lie in [0, 1], got {c}")

    def idx(x: int, y: int) -> int:
        return (y + L) * side + (x + L)

    neighbors = []
    border = []
    for i in range(n):
        x = i % side - L
        y = i // side - L
        neighbors.append([idx(x + dx, y + dy) for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1))
                          if max(abs(x + dx), abs(y + dy)) <= L])
        if max(abs(x), abs(y)) == L:
            border.append(i)
    origin = idx(0, 0)
    border_set = set(border)

    total = 0.0
    for mask in range(1 << n):
        if not (mask >> origin) & 1:
            continue
        seen = 1 << origin
        stack = [origin]
        reached = origin in border_set
        while stack and not reached:
            cur = stack.pop()
            for nb in neighbors[cur]:
                bit = 1 << nb
                if (mask & bit) and not (seen & bit):
                    seen |= bit
                    if nb in border_set:
                        reached = True
                        break
                    stack.append(nb)
        if reached:
            occupied = mask.bit_count()
            total += c**occupied * (1.0 - c) ** (n - occupied)
    return total
