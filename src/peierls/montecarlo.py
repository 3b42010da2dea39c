"""Monte Carlo estimates of percolation probabilities on finite windows.

Each trial draws one coupled field from a per-trial derived seed, so any subset
of trials can be recomputed independently and estimates are identical however
the trials are split across workers.  A field attaches one 64-bit hash to
each site, a pure function of (seed, trial, x, y) that never depends on the
window radius, so enlarging a window extends a field without disturbing
existing sites.  A site is occupied at concentration c when the 53-bit
uniform its hash encodes is below c, a comparison made on the raw hash
(:func:`_hash_threshold`); this is the package's only occupancy rule, and
thresholding one field at growing concentrations yields nested occupied sets
(coupled sampling).  The trials are split into a few chunks a worker
process, one chunk at one worker, by the package's one splitting rule
(:func:`peierls.pool._parts`), each cut at ``_CHUNK_SITE_TRIALS`` trials x
sites.  The chunks run on forked workers (:mod:`peierls.pool`) and are
produced lazily, so a run holds only the chunks in flight.  Fields of more
than ``_SITE_LIMIT`` sites and runs of more than ``_SITE_TRIAL_LIMIT``
trials x sites raise :class:`CapExceeded`.

Every observable asks whether an occupied path joins two sets of sites, and
one compiled invasion flood (``peierls_flood``, :func:`_flood`) answers it: from
the sources it takes, one at a time, a bordering site of least key, and its
result is the largest key it has taken when it first takes a target.  The
kernel holds the package's one site hash: it hashes a site into its key when
it first borders the site, so no key array is ever built and a flood hashes
only the sites it borders.  On the m = 1 keys, 0 on an occupied site and 1 on
a vacant one, the result is 0 exactly when an occupied path joins a source to
a target, and the flood ends as soon as the occupied sites it can reach run
out.  Origin reach is one such flood from the origin to the window border,
and a crossing one from the left column to the right one.  Above the
threshold the origin's cluster is finite only inside a closed vacant contour,
and such contours are short, so at c = 0.9 and L = 128 a reach flood
borders a few hundred of the window's 66,049 sites.

Threshold bisection does not re-threshold every field at every midpoint.
Its midpoints all lie on the grid j / 2**m, with m fixed by the tolerance,
and a coupled field crosses at c = j / 2**m exactly when j exceeds the
field's critical index j*: the largest grid index at which it has no
left-right crossing.  On the keys ``hash >> (64 - m)``, one flood a field
from the left column to the right one finds j*.  A chunk returns its j*
histogram, and the hit count at each midpoint, #{t : j*_t < j}, is a prefix
sum of it, so the trace and estimate are those of thresholding every field
at every midpoint.

The flood is an entry point of the package's one compiled kernel, built
with ``cc`` on first use into a cache under ``$XDG_CACHE_HOME``
(:func:`peierls.kernel.load`), so every simulation needs a C compiler.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from functools import reduce
from itertools import accumulate
from operator import add
from typing import Iterable, Iterator, NamedTuple

from . import kernel, pool
from .errors import CapExceeded, check_concentration, check_integer, check_real, check_workers
from .lattice import Window

__all__ = [
    "McEstimate",
    "ThresholdResult",
    "bisect_threshold",
    "estimate_crossing",
    "estimate_origin_reach",
    "exact_origin_reach_probability",
]


class McEstimate(NamedTuple):
    """A Bernoulli fraction with its binomial standard error."""

    value: float
    std_error: float
    trials: int
    L: int
    c: float
    seed: int

    def to_json_dict(self) -> dict:
        return self._asdict()


#: Seeds and trial indices are taken mod 2**64.
_M64 = (1 << 64) - 1


def _hash_threshold(c: float) -> int:
    """Raw-hash bound with ``hash < bound`` iff the site's uniform is below c, for 0 <= c < 1.

    The uniforms are exact multiples of 2**-53, so ``u < c`` is equivalent to
    comparing the raw 53-bit hash against ceil(c * 2**53), without
    materializing the floats.  ``_hash_threshold(j / 2**m) == j << (64 - m)``.
    """
    return math.ceil(c * 2.0**53) << 11


#: What needs the kernel, named in a :class:`BuildError` when it cannot be built.
_NEED = "the Monte Carlo (simulate)"


def _flood(seed: int, t0: int, fields: int, L: int, bound: int, m: int, sources: Iterable[int], target) -> array:
    """The flood's result for each trial t0 .. t0 + fields - 1 of run ``seed``, from the sites ``sources`` to the sites of ``target``.

    A trial's field is its radius-L window, whose site's key is 0 when the
    site's hash is below ``bound`` and max(1, hash >> (64 - m)) otherwise,
    1 <= m <= 16.  ``sources`` are flat indices of sites of the window, row
    by row from (-L, -L), and ``target`` is a bytes-like mask of the window's
    (2L+1)**2 sites in the same order, nonzero on a target.  A field's result
    is the least, over the 4-connected paths from a source to a target, of
    the largest key on the path, so at m = 1 it is 0 exactly when an occupied
    path (of sites hashed below ``bound``) joins them, and with
    ``bound = 2**(64 - m)`` an occupied path joins them at c = j / 2**m
    exactly when j exceeds it.  It is found by the compiled invasion flood
    (:func:`peierls.kernel.load`), which hashes each site it borders once and
    runs on a copy of the window framed by sites it never takes, so any mask
    of targets will do, the empty one too (every result is then 2**m - 1).
    A mask of another size, a source off the window, a bound outside
    [0, 2**64) or m out of range raises :class:`ValueError` before the kernel
    runs.  The results are an ``array`` of C ints.
    """
    side = 2 * L + 1
    sources, target = list(sources), bytes(target)
    if not (
        1 <= m <= 16
        and 0 <= bound <= _M64
        and all(0 <= s < side * side for s in sources)
        and len(target) == side * side
    ):
        raise ValueError(
            f"a flood needs 1 <= m <= 16, a 64-bit bound, and sources and a target mask on its {side} x {side} window"
        )
    sources, out = array("i", sources), array("i", bytes(4 * fields))
    if kernel.load(_NEED).peierls_flood(
        int(seed) & _M64, t0 & _M64, fields, L, bound, m, sources.buffer_info()[0], len(sources), target, out.buffer_info()[0]
    ):
        raise MemoryError(f"cannot allocate the flood's scratch for a field of {side * side} sites")
    return out


def _left_right(L: int) -> tuple[range, bytes]:
    """The flat indices of the radius-L window's left column, and its right column as a target mask."""
    side = 2 * L + 1
    return range(0, side * side, side), (bytes(side - 1) + b"\1") * side


def _reach_count(seed: int, L: int, c: float, t0: int, t1: int) -> int:
    """Trials t0..t1-1 whose origin cluster reaches the window border: an m = 1 flood from the origin to the border that ends at 0."""
    if c >= 1.0:
        return t1 - t0
    side = 2 * L + 1
    ring = b"\1" * side
    border = ring + (b"\1" + bytes(side - 2) + b"\1") * (side - 2) + ring
    return _flood(seed, t0, t1 - t0, L, _hash_threshold(c), 1, [L * side + L], border).count(0)


def _crossing_count(seed: int, L: int, c: float, t0: int, t1: int) -> int:
    """Trials t0..t1-1 with an occupied left-right crossing: an m = 1 flood from the left column to the right one that ends at 0."""
    if c >= 1.0:
        return t1 - t0
    return _flood(seed, t0, t1 - t0, L, _hash_threshold(c), 1, *_left_right(L)).count(0)


#: Trials x sites in one chunk at most.  A chunk holds one int32 result a
#: trial and floods at most its trials x sites, so 2**25 site-trials bound a
#: chunk to about 15 MB of results at radius 1 and, at a few ns a site, to a
#: fraction of a second; a run of any length then yields bounded chunks.
_CHUNK_SITE_TRIALS = 1 << 25


def _chunks(L: int, trials: int, workers: int) -> Iterator[tuple[int, int]]:
    """Trial ranges [t0, t1) that tile [0, trials), yielded lazily.

    The trials split into at most ``pool._parts(workers)`` chunks of equal
    size but the last, one at one worker, so a chunk's fixed cost (the
    Python around the kernel call and its pipe round) is paid only a few
    times a worker.  No chunk holds more than ``_CHUNK_SITE_TRIALS`` trials x
    sites, or one trial, so a long run yields more chunks instead of larger
    ones.
    """
    parts = pool._parts(workers)
    batch = max(1, min(-(-trials // parts), _CHUNK_SITE_TRIALS // (2 * L + 1) ** 2))
    return ((t0, min(t0 + batch, trials)) for t0 in range(0, trials, batch))


def _count_events(counter, L: int, c, trials: int, seed: int, workers: int):
    """Sum of ``counter(seed, L, c, t0, t1)`` over the chunks of the run (:func:`_chunks`), on ``workers`` processes.

    The counter returns a trial count, or for bisection (with ``c`` the grid
    exponent m) a histogram :class:`~collections.Counter`.
    """
    tasks = ((counter, seed, L, c, t0, t1) for t0, t1 in _chunks(L, trials, workers))
    with pool._fan_out(tasks, workers) as results:
        return reduce(add, (count for _, count in results))


#: Sites in one field.  A flood takes about 10 bytes of scratch a site of its
#: framed window, the int32 bucket links and packed coordinates and the seen
#: and target bytes, and no key array is ever built.  So 2**30 sites, radius
#: 16383, flood in about 10 GiB; radius 100000 would need 400 GB.
_SITE_LIMIT = 1 << 30
#: Trials x sites in one run.  Memory stays bounded at any trial count, since
#: chunks are made lazily, each of at most ``_CHUNK_SITE_TRIALS``, and few
#: are in flight, so this bounds run time only:
#: at about 5 ns of CPU a site-trial (hash and flood), 2**48 is about two
#: weeks of CPU.  A trillion trials at radius 8 (2.9e14) are past it.
_SITE_TRIAL_LIMIT = 1 << 48


def _check_run(L: int, trials: int, seed: int, workers: int) -> None:
    """Reject a radius, trial count, seed or worker count that is no integer, one out of range, and work past the caps.

    Any integer seed is taken, a negative one too: the kernel takes it mod 2**64.
    """
    check_integer(L, "L")
    check_integer(trials, "trials")
    check_integer(seed, "seed")
    check_workers(workers)
    sites = Window(L).site_count
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if sites > _SITE_LIMIT:
        raise CapExceeded(f"window has {sites} sites; a Monte Carlo field is capped at {_SITE_LIMIT}")
    if trials * sites > _SITE_TRIAL_LIMIT:
        raise CapExceeded(
            f"{trials} trials of {sites} sites exceed the Monte Carlo cap of {_SITE_TRIAL_LIMIT} site-trials"
        )


def _estimate(counter, L: int, c: float, trials: int, seed: int, workers: int) -> McEstimate:
    _check_run(L, trials, seed, workers)
    check_concentration(c, "c")
    kernel.load(_NEED)  # built and loaded before the workers fork
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
    an unbounded cluster; vacant origins never count.  Each trial is one
    flood from the origin to the window border (:func:`_reach_count`), which
    hashes only the sites it borders.  The flood is compiled C, built on the first call
    (:func:`peierls.kernel.load`), which raises :class:`BuildError` when no C
    compiler ``cc`` can build it.  Raises :class:`CapExceeded` when a field
    has more than ``_SITE_LIMIT`` sites or the run more than
    ``_SITE_TRIAL_LIMIT`` trials x sites.
    """
    return _estimate(_reach_count, L, c, trials, seed, workers)


def estimate_crossing(L: int, c: float, trials: int, seed: int, *, workers: int = 1) -> McEstimate:
    """Fraction of trials with an occupied left-right crossing of the window.

    Each trial is one flood from the left column (:func:`_crossing_count`).
    Built and capped like :func:`estimate_origin_reach`.
    """
    return _estimate(_crossing_count, L, c, trials, seed, workers)


class ThresholdResult(NamedTuple):
    """Bisection output: the midpoint estimate and the evaluation trace."""

    estimate: float
    tol: float
    trace: tuple[tuple[float, float], ...]
    L: int
    trials: int
    seed: int


def _midpoint_count(tol: float) -> int:
    """Midpoints bisection on [0, 1] takes before its bracket is at most ``tol`` wide."""
    m, width = 0, 1.0
    while width > tol:
        width /= 2.0
        m += 1
    return m


def _critical_indices(seed: int, L: int, m: int, t0: int, t1: int) -> array:
    """Critical grid index of each trial t0..t1-1.

    The critical index j*_t is the largest j in [0, 2**m) such that field t has
    no left-right crossing at c = j / 2**m; crossing is monotone in c, so the
    field crosses at j / 2**m exactly when j > j*_t.  j*_t is the result of a
    flood (:func:`_flood`) on the keys ``hash >> (64 - m)`` from the field's
    left column to its right one.
    """
    return _flood(seed, t0, t1 - t0, L, 1 << (64 - m), m, *_left_right(L))


def _critical_histogram(seed: int, L: int, m: int, t0: int, t1: int) -> Counter:
    """Histogram of the critical indices of trials t0..t1-1 (:func:`_critical_indices`), each index's trials."""
    return Counter(_critical_indices(seed, L, m, t0, t1))


def bisect_threshold(L: int, trials: int, tol: float, seed: int, *, workers: int = 1) -> ThresholdResult:
    """Bisection on c for crossing probability 1/2.

    The same trial fields are reused at every concentration (only the
    threshold changes), so each field's crossing indicator is monotone in c
    and the bisection is well defined for each seed.

    The bracket halves whichever way a step goes, so the m midpoints all lie
    on the grid j / 2**m, with m fixed by ``tol``.  The hit count at c = j / 2**m
    is the number of trials whose critical index j*_t (see
    :func:`_critical_indices`) is below j, so one flood per trial replaces
    re-thresholding every field at every midpoint; the float loop then replays
    over the j* histogram, giving the same trace and estimate.  The trials
    are flooded in a few chunks a worker on ``workers`` processes, each chunk
    returned as its j* histogram (:func:`_count_events`).  Built and capped like
    :func:`estimate_origin_reach`.
    """
    _check_run(L, trials, seed, workers)
    check_real(tol, "tol")
    if not 1e-3 <= tol < 1.0:
        raise ValueError(f"tolerance must lie in [1e-3, 1), got {tol}")
    m = _midpoint_count(tol)
    grid = 1 << m
    kernel.load(_NEED)  # built and loaded before the workers fork
    histogram = _count_events(_critical_histogram, L, m, trials, seed, workers)
    # hits[j]: trials crossing at c = j / grid, i.e. with j* < j
    hits = list(accumulate((histogram[j] for j in range(grid)), initial=0))
    lo, hi = 0.0, 1.0
    trace: list[tuple[float, float]] = []
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        value = hits[int(mid * grid)] / trials
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


#: Most sites of an exhaustive window: the sum runs over 2**sites configurations.
_EXHAUSTIVE_SITE_LIMIT = 20


def exact_origin_reach_probability(L: int, c: float) -> float:
    """Exhaustive origin-reach probability over all occupancy configurations.

    Feasible only for tiny windows; raises :class:`CapExceeded` beyond
    ``_EXHAUSTIVE_SITE_LIMIT`` sites.
    """
    check_integer(L, "L")
    check_concentration(c, "c")
    window = Window(L)
    side = window.side
    n = window.site_count
    if n > _EXHAUSTIVE_SITE_LIMIT:
        raise CapExceeded(f"window has {n} sites; exhaustive enumeration capped at {_EXHAUSTIVE_SITE_LIMIT}")

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
