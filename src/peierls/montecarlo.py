"""Monte Carlo estimates of percolation probabilities on finite windows.

Each trial draws one coupled field from a per-trial derived seed, so any
subset of trials can be recomputed independently and estimates are identical
however the trials are split across workers.  Trials are processed in chunks
of about 1M sites.  Cluster labeling is done in batches: trial grids are
stacked with blank separator rows and labeled in a single 4-connected pass.

Threshold bisection does not re-label every field at every midpoint.  Its
midpoints all lie on the grid j / 2**m, with m fixed by the tolerance, and a
coupled field crosses at c = j / 2**m exactly when j exceeds the field's
critical index j*: the largest grid index at which it has no left-right
crossing.  Each chunk is hashed once and every trial's j* is found by its own
search, each pass thresholding and labeling only the trials whose bracket is
still open.  The first chunk bisects; later chunks probe at the weighted
median of their bracket under the first chunk's j* histogram, which takes
fewer passes (about 4.4 a trial instead of 8 at L = 64, tol = 0.005).  j* is
exact whatever the probe order, so the hit count at each midpoint,
#{t : j*_t < j}, and with it the trace and estimate are the same as those of
thresholding every field at every midpoint.
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
    return _hash_batch(seed, L, t0, t1) < _hash_threshold(c)


def _hash_threshold(c: float) -> np.uint64:
    """Raw-hash bound with ``hash < bound`` iff the site's uniform is below c, for 0 < c < 1."""
    return np.uint64(math.ceil(c * 2.0**53) << 11)


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


def _crossing(labels: np.ndarray) -> np.ndarray:
    """Per trial: does one cluster touch both the left and the right column?

    Labels are unique across the batch, so marking the labels on left columns
    and looking up the right columns' labels tests every trial at once.
    """
    on_left = np.zeros(int(labels.max()) + 1, dtype=bool)
    on_left[labels[:, :, 0]] = True
    on_left[0] = False
    return on_left[labels[:, :, -1]].any(axis=1)


def _crossing_count(seed: int, L: int, c: float, t0: int, t1: int) -> int:
    return int(_crossing(_label_batch(_occupied_batch(seed, L, c, t0, t1))).sum())


def _chunks(L: int, trials: int) -> list[tuple[int, int]]:
    """Trial ranges [t0, t1) of about 1M sites each."""
    side = 2 * L + 1
    # ~1M sites keeps each uint64 hash array near 8 MB.  At 32 MB (glibc's mmap
    # threshold cap) a command's peak RSS varied by 30 MB with thread timing.
    batch = max(1, 1_000_000 // (side * (side + 1)))
    return [(t0, min(t0 + batch, trials)) for t0 in range(0, trials, batch)]


def _map_chunks(fn, chunks: list[tuple[int, int]], workers: int) -> list:
    """``[fn(t0, t1) for t0, t1 in chunks]``, spread over ``workers`` threads."""
    if workers <= 1 or len(chunks) <= 1:
        return [fn(a, b) for a, b in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda ab: fn(*ab), chunks))


def _count_events(counter, L: int, c: float, trials: int, seed: int, workers: int) -> int:
    return sum(_map_chunks(lambda a, b: counter(seed, L, c, a, b), _chunks(L, trials), workers))


def _check_run(L: int, trials: int, workers: int) -> None:
    """Reject a window radius below 1, fewer than one trial or fewer than one worker."""
    Window(L)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _estimate(counter, L: int, c: float, trials: int, seed: int, workers: int) -> McEstimate:
    _check_run(L, trials, workers)
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
    """Bisection output: the midpoint estimate and the evaluation trace.

    ``label_passes`` counts the per-trial labellings the search spent; it is
    bookkeeping, not part of the data files.
    """

    estimate: float
    tol: float
    trace: tuple[tuple[float, float], ...]
    L: int
    trials: int
    seed: int
    label_passes: int = 0


def _midpoint_count(tol: float) -> int:
    """Midpoints bisection on [0, 1] takes before its bracket is at most ``tol`` wide."""
    m, width = 0, 1.0
    while width > tol:
        width /= 2.0
        m += 1
    return m


def _critical_indices(seed: int, L: int, m: int, t0: int, t1: int, prior: np.ndarray) -> tuple[np.ndarray, int]:
    """Critical grid index of each trial t0..t1-1, and the labelling passes spent.

    The critical index j*_t is the largest j in [0, 2**m) such that field t has
    no left-right crossing at c = j / 2**m; crossing is monotone in c, so the
    field crosses at j / 2**m exactly when j > j*_t.  Each trial keeps a
    bracket lo <= j*_t < hi and is probed at the median of its bracket under
    the weights ``prior * 2**m + 1`` (a j* histogram plus one pseudo-count
    spread over the grid); a zero prior makes that plain bisection.  The
    fields are hashed once; each pass labels only the trials whose bracket is
    still open.  The probe order changes the passes spent, never j*.
    """
    grid = 1 << m
    thresholds = np.array([0] + [_hash_threshold(j / grid) for j in range(1, grid)], dtype=np.uint64)
    cum = np.concatenate(([0], np.cumsum(prior.astype(np.int64) * grid + 1)))
    h = _hash_batch(seed, L, t0, t1)
    lo = np.zeros(t1 - t0, dtype=np.int64)
    hi = np.full(t1 - t0, grid, dtype=np.int64)
    active = np.arange(t1 - t0)
    passes = 0
    while active.size:
        a, b = lo[active], hi[active]
        probe = np.clip(np.searchsorted(2 * cum, cum[a] + cum[b]), a + 1, b - 1)
        # Thresholding every trial (closed ones at 0) and then selecting the
        # open ones copies one byte a site instead of an 8-byte hash.
        thr = np.zeros(len(h), dtype=np.uint64)
        thr[active] = thresholds[probe]
        crossed = _crossing(_label_batch((h < thr[:, np.newaxis, np.newaxis])[active]))
        hi[active] = np.where(crossed, probe, b)
        lo[active] = np.where(crossed, a, probe)
        passes += active.size
        active = active[hi[active] - lo[active] > 1]
    return lo, passes


def bisect_threshold(L: int, trials: int, tol: float, seed: int, *, workers: int = 1) -> ThresholdResult:
    """Bisection on c for crossing probability 1/2.

    The same trial fields are reused at every concentration (only the
    threshold changes), so each field's crossing indicator is monotone in c
    and the bisection is well defined for each seed.

    The bracket halves whichever way a step goes, so the m midpoints all lie
    on the grid j / 2**m, with m fixed by ``tol``.  The hit count at c = j / 2**m
    is the number of trials whose critical index j*_t (see
    :func:`_critical_indices`) is below j, so one search per trial replaces
    re-labelling every field at every midpoint; the float loop then replays
    over the cumulative j* histogram, giving the same trace and estimate.
    Each chunk of about 1M sites is hashed once.  The first chunk is searched
    by plain bisection; its j* histogram then steers the probes of every
    later chunk.  Both stages run on ``workers`` threads.  The search order
    depends only on the seed, the window and the trial count, and j* does not
    depend on it at all.
    """
    _check_run(L, trials, workers)
    if not 1e-3 <= tol < 1.0:
        raise ValueError(f"tolerance must lie in [1e-3, 1), got {tol}")
    m = _midpoint_count(tol)
    grid = 1 << m
    chunks = _chunks(L, trials)
    # Bisection spends m passes a trial however the first chunk is split, so
    # the workers share it; never in more pieces than there are chunks, so no
    # more threads start than for the chunks themselves.
    t0, t1 = chunks[0]
    step = -(-(t1 - t0) // min(workers, len(chunks)))
    zeros = np.zeros(grid, dtype=np.int64)
    first = _map_chunks(
        lambda a, b: _critical_indices(seed, L, m, a, b, zeros),
        [(a, min(a + step, t1)) for a in range(t0, t1, step)],
        workers,
    )
    prior = np.bincount(np.concatenate([j for j, _ in first]), minlength=grid)
    searched = first + _map_chunks(lambda a, b: _critical_indices(seed, L, m, a, b, prior), chunks[1:], workers)
    critical = np.concatenate([j for j, _ in searched])
    # hits[j]: trials crossing at c = j / grid, i.e. with j* < j
    hits = np.concatenate(([0], np.cumsum(np.bincount(critical, minlength=grid))))
    lo, hi = 0.0, 1.0
    trace: list[tuple[float, float]] = []
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        value = int(hits[int(mid * grid)]) / trials
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
        label_passes=sum(p for _, p in searched),
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
