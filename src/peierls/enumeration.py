"""Exact census of outer contours around the origin, and walk bounds.

The census counts, for each length k, the distinct outer contours of finite
occupied clusters containing the origin.  It enumerates free-anchored cluster
shapes once each (Redelmeier's algorithm), extracts their outer contours in
the same compiled pass, and then accounts for the translates that place the
origin inside the cluster; translates of one shape share one contour shape,
so the per-translate work is a set union instead of a fresh traversal.
Distinct positions of the origin give distinct contours, exactly as distinct
clusters at different positions are distinct events.

Completeness of a size-capped enumeration rests on two facts.  A cluster
always lies strictly inside its own contour, and a closed king-move cycle
through k sites encloses at most ``(k*k - 4*k + 8) // 8`` lattice sites (the
diagonal square is extremal; Pick's theorem turns the area bound into a site
bound).  A cap at that capacity therefore sees every realizable contour of
length <= k.  The census additionally verifies that the counts have
stabilized over the last three cap values.

Redelmeier's search tree is grown depth-first in C (``peierls_shapes`` of
:mod:`peierls.kernel`, called by :func:`_shape_block`).  A shape carries its
untried sites; the child that takes the lowest keeps the untried sites above
it and adds the new cell's unseen neighbours, so the tree meets every fixed
shape once (Redelmeier, *Counting polyominoes: yet another attack*, Discrete
Math. 36 (1981) 191-203).

Most capped shapes are too wide for a short contour (the span lemma).  If a
shape's bounding box is w x h, its contour holds a site in column xmin - 1
and one in column xmax + 1, and a king step changes the column by at most 1,
so a closed cycle through both has length >= 2*w + 2; rows alike.  A shape
with ``max(w, h) > (k - 2) // 2`` therefore has a contour longer than k, and
skipping its contour extraction loses nothing.  Adding cells never shrinks
the box, so the census and :func:`contour_event_table` grow one tree, and
drop such a shape with its subtree.  At k = 12, 345,600 of the 2,595,167
capped shapes fit the 5 x 5 box and are built.  ``meta["shapes"]`` reports
every capped shape: their number is the total of the fixed polyominoes
(OEIS A001168) up to the cap, from ``_FIXED_SHAPES``, which also refuses
before any work a cap whose total passes ``_SHAPE_LIMIT``.

The kernel takes each shape it builds through the steps of
:func:`clusters._contour` (boundary, exterior fill, contour) on 64-bit
rows, and hands back only the shapes whose contour is short enough: 2,797 of
the 345,600 at k = 12.  It hands them back in the census's own format: the
contour moved to its bounding-box corner, which is its stride-32 key, the
cells moved the same way, which are the cover of the shape's origin
positions, and the cell, boundary and enclosed counts.
:func:`contour_event_table` counts their (|W|, |boundary|) pairs in a
:class:`~collections.Counter`.  The census reads each record as Python ints,
checks its contour length and enclosed sites, and ORs its cover into those
of its key and size (:func:`_census_covers`); the trajectories are sums of
Python int bit counts.  Everything else about a contour follows from its
key: the kernel's class pass (``peierls_classes``, called by
:func:`_classes`) traces the cycles of all distinct contours with the edge
walk of :func:`clusters._cycle`, and checks and classifies every origin
position of every contour.  Only the witnesses, one per length, become
:class:`Contour` objects.

Both halves of the census run on ``workers`` forked processes and give the
same results for every worker count.  Redelmeier's search tree splits into
disjoint subtrees: every part grows the tree down to the shapes of size 6
(``_SPLIT_SIZE``), and the j-th of those met in depth-first order goes with
its subtree to part j % P of P; the smaller shapes come from part 0.  The
kernel grows one part in one call, and the part hands its records to the
parent, which ORs them into the covers as the parts come in, before the
trajectory, stabilisation and class passes.  :func:`full_count_table` puts
the circuit walk and the census parts on one pool, the walk, the longest
task, first, so that the parts run beside it and the census is merged, and
fails, while the walk still runs.

The module also bounds the census analytically: a contour of length k hits
the positive horizontal axis at some nearest site, continues with one of a
handful of first steps, and each later step has at most 5 continuations
(never turning by more than 90 degrees), giving the closed-form bound
4 * 5**(k-2) * (k-1).  The refined count enumerates those restricted walks
exactly, discarding self-intersections, which lowers the effective growth
rate below 5.

The circuits are walked in C (``peierls_walk`` of :mod:`peierls.kernel`),
one depth-first walk for every start.  Relative to its start, start l's walks
are those of start 1 that avoid the sites (-2, 0) .. (-l, 0), so one walk of
start 1's tree carries, per walk, the nearest such site it holds and one
running winding sum per start, and each step counts as a node of every start
whose tree holds it.  A walk's sites are a bitmask over the window of king
distance k_max // 2 around its start, the only sites a closing walk reaches
(169 sites in 3 words at k = 12).  A closed walk is recorded as its length,
its mask and one bit for each start it winds around; at the end of the walk
the records go into a hash set keyed by (length, mask), which ORs the bits of
equal keys, and each distinct key adds the starts in the union of its bits to
the distinct-set count.  The subtree of the first step SE is the mirror
image of NE's in y -> -y, which keeps the turn rules, the pruning, the ray
sites and each walk's starts, so the walk takes NE's subtree once and adds
its nodes, its counts and its records, reflected, a second time.  At k = 12
that is 6.4M nodes, 5.0M of them walked, and 161,180 records.
"""

from __future__ import annotations

import ctypes
import sys
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import accumulate, islice
from typing import Iterable, NamedTuple

# Functions of other peierls modules are called through their modules:
# perfbench/tracing.py records a span for every call of a function imported
# by name into this module.
from . import kernel, pool
from .clusters import Contour
from .errors import CapExceeded, ContourError, IncompletenessError, NoRayIntersection, check_integer, check_workers

__all__ = [
    "ClassKey",
    "CountTable",
    "SelfAvoidingCounts",
    "class_decomposition",
    "contour_event_table",
    "exact_contour_counts",
    "full_count_table",
    "interior_capacity",
    "self_avoiding_circuit_count",
    "walk_bound",
]

#: Class index of each offset (dx, dy) a counter-clockwise contour can take
#: after its nearest ray site: E 1, NE 2, N 3, NW 4, plus the east dip SE.
#: The dip occurs when the nearest ray site is a pocket mouth and the contour
#: touches the axis from below (both cycle neighbours have y = -1); it is
#: classified together with the straight east step, keeping four classes per
#: ray distance.  The kernel's class pass holds the same table.
_FIRST_STEPS = {(1, 0): 1, (1, 1): 2, (0, 1): 3, (-1, 1): 4, (1, -1): 1}


def walk_bound(k: int) -> int:
    """Closed-form contour-count bound 4 * 5**(k-2) * (k-1), exact integer."""
    check_integer(k, "k")
    if k < 2:
        raise ValueError(f"walk bound defined for k >= 2, got {k}")
    return 4 * 5 ** (k - 2) * (k - 1)


def _max_span(k: int) -> int:
    """Widest bounding-box side of a shape whose contour can have length <= k (span lemma)."""
    return (k - 2) // 2


def interior_capacity(k: int) -> int:
    """Largest cluster size compatible with a contour of length k.

    A closed king cycle through k sites encloses at most k*k/8 area, hence at
    most ``(k*k - 4*k + 8) // 8`` interior lattice sites, and every realizing
    cluster lies inside its contour.
    """
    check_integer(k, "k")
    if k < 4:
        raise ValueError(f"contours have length >= 4, got {k}")
    return (k * k - 4 * k + 8) // 8


# ---------------------------------------------------------------------------
# Fixed-shape enumeration (Redelmeier), in the kernel's peierls_shapes.
# ---------------------------------------------------------------------------

#: Largest shape the census grows, the kernel's MAX_CAP: a 30-cell shape's
#: contour spans at most 32 columns, a row of a stride-32 key (``_CANON_STRIDE``).
_MAX_SHAPE = 30
#: Shape size at which the search tree splits into parts (the kernel's SPLIT).
_SPLIT_SIZE = 6
#: Most fixed polyominoes up to a census's cap, over all parts; a larger cap is
#: refused before any work.  The span lemma prunes most of them, so their
#: number bounds the census's work from above.
_SHAPE_LIMIT = 50_000_000
#: Fixed polyominoes of each size from 1 (OEIS A001168), up to the first size
#: at which their running total passes ``_SHAPE_LIMIT``.
_FIXED_SHAPES = (
    1, 2, 6, 19, 63, 216, 760, 2725, 9910, 36446, 135268, 505861,
    1903890, 7204874, 27394666, 104592937,
)
#: Row stride of the census's canonical contour keys and origin covers.
_CANON_STRIDE = 32
#: What needs the kernel, named in a :class:`BuildError` when it cannot be
#: built: the census and the walk, and the event table.
_NEED = "the census and the circuit walk (counts, bounds --mode exact|sa)"
_EVENT_NEED = "the event table of the truncated polynomial (bounds --r >= 5)"


def _shape_size_error(cap: int) -> CapExceeded:
    fits = f"the largest shape whose contour fits a {_CANON_STRIDE}-column census key"
    return CapExceeded(f"shape size {cap} exceeds {_MAX_SHAPE}, {fits}")


def _check_shape_limit(cap: int) -> None:
    """Refuse, before any work, a cap whose fixed polyominoes number more than ``_SHAPE_LIMIT``."""
    if cap > len(_FIXED_SHAPES) or sum(_FIXED_SHAPES[:cap]) > _SHAPE_LIMIT:
        raise CapExceeded(f"shape enumeration exceeded the limit of {_SHAPE_LIMIT}")


class _Shapes(NamedTuple):
    """The shapes of one part of the span-pruned tree whose contour is short enough (:func:`_shape_block`)."""

    #: ``2 * height + 3`` ``uint32`` words a shape, in the machine's byte
    #: order: its contour's rows moved to the contour's bounding-box corner,
    #: which are its stride-32 census key, its cell rows moved the same way,
    #: which are the cover of its origin positions, and its cell, boundary
    #: and enclosed counts.
    records: bytes
    #: the rows of a key and of a cover, ``box + 2``
    height: int
    #: the shapes of the part built, short contour or not
    built: int


def _shape_block(max_len: int, cap: int, part: int, parts: int) -> _Shapes:
    """Part ``part`` of ``parts`` of Redelmeier's tree of shapes up to size ``cap``, pruned by the span lemma.

    One call of the kernel's ``peierls_shapes`` grows the part and keeps its
    shapes whose contour has at most ``max_len`` sites, each as a key and a
    cover of ``min(_max_span(max_len), cap) + 2`` rows.  The j-th shape
    of size ``_SPLIT_SIZE`` met in depth-first order goes with its subtree to
    part j % ``parts``; part 0 keeps the smaller shapes.  Raises
    :class:`MemoryError` when the kernel cannot allocate its records.
    """
    if cap > _MAX_SHAPE:
        raise _shape_size_error(cap)
    height = min(_max_span(max_len), cap) + 2
    library = kernel.load(_NEED)
    records, kept, built = ctypes.c_void_p(), ctypes.c_int64(), ctypes.c_int64()
    if library.peierls_shapes(max_len, cap, part, parts, *map(ctypes.byref, (records, kept, built))) < 0:
        raise MemoryError(f"cannot allocate the shape tree's records at cap {cap}")
    try:
        data = ctypes.string_at(records, 4 * kept.value * (2 * height + 3))
    finally:
        library.peierls_free(records)
    return _Shapes(data, height, built.value)


# ---------------------------------------------------------------------------
# Count table and class decomposition.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassKey:
    """Class labels of a contour around the origin.

    ``ray_distance`` is the distance from the origin to the nearest contour
    site on the positive horizontal axis; ``first_step`` in 1..4 indexes the
    family of the site that follows it in the counter-clockwise cycle
    (east-going, north-east, north, north-west).
    """

    ray_distance: int
    first_step: int


@dataclass
class CountTable:
    """Per-length contour counts with the analytic and refined walk bounds."""

    k_max: int
    exact: dict[int, int]
    sa_walk: dict[int, int]
    sa_sets: dict[int, int]
    walk_bound: dict[int, int]
    classes: dict[tuple[int, int, int], int]
    witnesses: dict[int, Contour] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def class_decomposition(contour: Contour) -> ClassKey:
    """Assign a contour around the origin to its (ray distance, first step) class.

    Finds the nearest intersection of the contour with the ray of sites
    (j, 0), j >= 1, then maps the successor of that site in the
    counter-clockwise cycle onto the fixed first-step set.  The two
    east-going steps (straight east, and the east dip through (l+1, -1)
    at a pocket mouth) share class 1, so ``first_step`` is always in 1..4
    and the classes partition the census.  Raises
    :class:`NoRayIntersection` if the contour misses the positive horizontal
    ray, and :class:`ContourError` if the site after its nearest ray site is
    not a first step.  The census classifies all its positioned contours by
    the same rule in the kernel's class pass (:func:`_classes`).
    """
    cycle = contour.cycle
    hits = [(x, t) for t, (x, y) in enumerate(cycle) if y == 0 and x >= 1]
    if not hits:
        raise NoRayIntersection("contour never meets the positive horizontal ray")
    l, at = min(hits)
    x, y = cycle[(at + 1) % len(cycle)]
    step = _FIRST_STEPS.get((x - l, y))
    if step is None:
        raise ContourError(f"successor offset {(x - l, y)} of ray site {(l, 0)} is not an admissible first step")
    return ClassKey(ray_distance=l, first_step=step)


def _census_covers(k_max: int, blocks: Iterable[_Shapes]) -> dict[int, dict[int, int]]:
    """The census's ``covers`` by contour key, read from the parts' records as they come in.

    ``covers[key][n]`` is the union of the origin positions, in the key's
    frame, of the size-n shapes whose contour is ``key``: each record's cover
    ORed in, whichever part it comes from.  A contour shorter than 4 or
    enclosing more sites than its length allows fails the census once every
    part is read.  The error names the first such shape by size, then by
    cover read as an integer, over the whole census, so it does not depend
    on the parts or the order they come in.
    """
    # interior_capacity by length; a length below 4 fails before it is read
    capacity = [interior_capacity(max(k, 4)) for k in range(k_max + 1)]
    covers: dict[int, dict[int, int]] = defaultdict(dict)
    bad = []
    read = int.from_bytes  # looked up once: the loop below runs once a record, in the parent process
    for shapes in blocks:
        data, height = shapes.records, shapes.height
        size, shift = 8 * height, 32 * height  # bytes of a key and its cover, and bits of a key
        mask = (1 << shift) - 1
        words = memoryview(data).cast("I")
        if sys.byteorder == "big":  # the rows below are read as little-endian ints
            swapped = array("I", data)
            swapped.byteswap()
            data = swapped.tobytes()
        counts = words[2 * height :: 2 * height + 3], words[2 * height + 2 :: 2 * height + 3]
        for at, n, enclosed in zip(range(0, len(data), size + 12), *counts):
            rows = read(data[at : at + size], "little")
            key = rows & mask
            length = key.bit_count()
            if length < 4 or enclosed > capacity[length]:
                bad.append((n, rows >> shift, length, enclosed))
                continue
            by_size = covers[key]
            by_size[n] = by_size.get(n, 0) | rows >> shift
    if bad:
        _, _, length, enclosed = min(bad)
        if length < 4:
            raise ContourError(f"shape produced a contour of impossible length {length}")
        raise IncompletenessError(
            f"a contour of length {length} encloses {enclosed} sites, more than the capacity "
            "bound allows; the completeness cap is unsound for this input"
        )
    return covers


def _census_cap(k_max: int, cluster_cap: int | None, workers: int) -> int:
    """The cluster-size cap of a census, for valid arguments."""
    check_integer(k_max, "k_max")
    if k_max < 4:
        raise ValueError("k_max must be >= 4")
    check_workers(workers)
    if cluster_cap is not None:
        check_integer(cluster_cap, "cluster_cap")
    cap = interior_capacity(k_max) if cluster_cap is None else cluster_cap
    if cap < 1:
        raise ValueError("cluster cap must be >= 1")
    # refused before any work, which grows with k_max as well as with the cap
    if cap > _MAX_SHAPE:
        raise _shape_size_error(cap)
    if k_max > 2 * _MAX_SHAPE + 2:
        longest = 2 * _MAX_SHAPE + 2
        raise CapExceeded(f"contour length {k_max} exceeds {longest}, the longest contour of a {_MAX_SHAPE}-cell shape")
    _check_shape_limit(cap)
    return cap


def _census_tasks(k_max: int, cap: int, workers: int) -> list[tuple]:
    """The census parts as :func:`pool._fan_out` tasks."""
    parts = pool._parts(workers)
    return [(_shape_block, k_max, cap, p, parts) for p in range(parts)]


def _census_table(k_max: int, cap: int, covers: dict[int, dict[int, int]]) -> CountTable:
    """The census table of the merged ``covers`` of :func:`_census_covers`.

    Raises as soon as the passes over the covers show the census to be
    incomplete or inconsistent.
    """
    needed = interior_capacity(k_max)
    guaranteed = cap >= needed

    # Per-size trajectories, the counts as a function of the size cap: a
    # contour counts the positions of its shapes up to each size.  gains[k][n]
    # sums the positions the contours of length k gain at size n.
    keys = sorted(covers)
    reach = []
    gains: dict[int, list[int]] = defaultdict(lambda: [0] * (cap + 1))
    for key in keys:
        gain = gains[key.bit_count()]
        positions = seen = 0
        for n, pos in sorted(covers[key].items()):
            positions |= pos
            count = positions.bit_count()
            gain[n] += count - seen
            seen = count
        reach.append(positions)
    totals = {k: list(accumulate(gains[k])) for k in sorted(gains)}
    trajectory = {s: {k: run[s] for k, run in totals.items() if run[s]} for s in range(1, cap + 1)}

    exact = {k: trajectory[cap].get(k, 0) for k in range(4, k_max + 1)}
    stabilized = cap >= 3 and all(
        trajectory[cap].get(k, 0) == trajectory[cap - 1].get(k, 0) == trajectory[cap - 2].get(k, 0)
        for k in range(4, k_max + 1)
    )
    if not (guaranteed or stabilized):
        raise IncompletenessError(
            f"cluster cap {cap} is below the guaranteed capacity {needed} for k_max={k_max} "
            f"and the counts did not stabilize over sizes {cap - 2}..{cap}"
        )
    classes, witnesses = _classes(keys, reach)
    meta = {
        "cluster_cap": cap,
        "capacity_needed": needed,
        "guaranteed": guaranteed,
        "stabilized": stabilized,
        "shapes": sum(_FIXED_SHAPES[:cap]),
        "distinct_contour_shapes": len(covers),
        "trajectory": trajectory,
    }
    return CountTable(
        k_max=k_max,
        exact=exact,
        sa_walk={},
        sa_sets={},
        walk_bound={k: walk_bound(k) for k in range(4, k_max + 1)},
        classes=classes,
        witnesses=witnesses,
        meta=meta,
    )


def _stride_rows(bitboards: list[int], height: int) -> array:
    """The ``height`` 32-bit rows of each stride-32 bitboard, one bitboard after another, in native byte order."""
    rows = array("I", b"".join(b.to_bytes(4 * height, "little") for b in bitboards))
    if sys.byteorder == "big":
        rows.byteswap()
    return rows


#: The census's class-pass checks (``peierls_classes`` of :mod:`peierls.kernel`),
#: by the kernel's code less 1, with the message the kernel's ``where`` completes.
_CLASS_ERRORS = (
    (ContourError, "a cluster cell coincides with its own contour"),
    (ContourError, "pinched outer boundary at corner ({}, {})"),
    (ContourError, "perimeter walk does not match the exposed boundary set"),
    (ContourError, "outer boundary revisits a site; no simple cycle exists"),
    (ContourError, "outer boundary is not a single closed curve"),
    (ContourError, "perimeter walk came out clockwise"),
    (NoRayIntersection, "contour never meets the positive horizontal ray"),
    (ContourError, "successor offset ({}, {}) of ray site ({}, 0) is not an admissible first step"),
    (ContourError, "an origin position is not enclosed by its contour"),
)


def _class_pass(keys: list[int], covers: list[int]) -> tuple[array, array]:
    """The kernel's class pass over the contours ``keys`` around their origin positions ``covers``.

    ``keys[j]`` and ``covers[j]`` are stride-32 bitboards of at most
    ``_CANON_STRIDE`` rows.  Returns the class counts, the count of class
    (k, l, i) at ``(k * _CANON_STRIDE + l) * 5 + i``, and the cycles of every
    contour, traced from its smallest site by (x, y) in the key's
    coordinates, contour after contour, each site's x and then y.  Raises the
    error of :data:`_CLASS_ERRORS` that the first failed check names.
    """
    height = -(-max(map(int.bit_length, keys + covers)) // _CANON_STRIDE)
    if height > _CANON_STRIDE:
        raise ValueError(f"a census key spans at most {_CANON_STRIDE} rows, got {height}")
    lengths = [key.bit_count() for key in keys]
    counts = array("q", bytes(8 * (max(lengths) + 1) * _CANON_STRIDE * 5))
    cycles = array("i", bytes(8 * sum(lengths)))
    where = array("i", bytes(12))
    rows = _stride_rows(keys, height), _stride_rows(covers, height)
    code = kernel.load(_NEED).peierls_classes(
        len(keys), height, *(a.buffer_info()[0] for a in (*rows, counts, cycles, where))
    )
    if code:
        error, message = _CLASS_ERRORS[code - 1]
        raise error(message.format(*where))
    return counts, cycles


def _classes(keys: list[int], covers: list[int]) -> tuple[dict, dict[int, Contour]]:
    """Class counts and witnesses of each contour around each of its origin positions.

    ``keys[j]`` is a canonical contour and ``covers[j]`` its origin
    positions, as stride-32 bitboards.  The kernel's class pass
    (:func:`_class_pass`) checks and traces every contour, and checks and
    classifies every positioned contour: the origin must be off the contour,
    its ray must meet the contour, the step after the ray site must be a
    first step, and the winding number must be 1.  The witness of a length
    is its first positioned contour, by key and then by position.
    """
    counts, cycles = _class_pass(keys, covers)
    per_length = _CANON_STRIDE * 5
    classes = {(c // per_length, c // 5 % _CANON_STRIDE, c % 5): n for c, n in enumerate(counts) if n}
    witnesses = {}
    at = 0
    for key, cover in zip(keys, covers):
        k = key.bit_count()
        if cover and k not in witnesses:
            bit = (cover & -cover).bit_length() - 1
            ox, oy = bit % _CANON_STRIDE, bit // _CANON_STRIDE
            cycle = tuple(zip([x - ox for x in cycles[at : at + 2 * k : 2]], [y - oy for y in cycles[at + 1 : at + 2 * k : 2]]))
            witnesses[k] = Contour(sites=frozenset(cycle), cycle=cycle)
        at += 2 * k
    return classes, dict(sorted(witnesses.items()))


def exact_contour_counts(
    k_max: int,
    *,
    cluster_cap: int | None = None,
    workers: int = 1,
) -> CountTable:
    """Exact number of distinct origin-enclosing contours for each length <= k_max.

    Parameters
    ----------
    k_max : largest contour length to count (>= 4).
    cluster_cap : optional override of the cluster-size cap.  The default is
        ``interior_capacity(k_max)``, which provably sees every contour.  A
        smaller cap is accepted only if the counts are verified stable over
        the top three sizes; otherwise :class:`IncompletenessError` is raised.
    workers : processes the shape tree is split over; the result does not
        depend on it.

    Returns a :class:`CountTable` with the ``exact`` counts, the per-class
    breakdown, and the analytic ``walk_bound`` column filled in.  Raises
    :class:`CapExceeded`, before any work, if the fixed polyominoes up to the
    cap, every shape of the unpruned tree, number more than ``_SHAPE_LIMIT``.
    The shape tree is grown in the compiled kernel of :mod:`peierls.kernel`,
    built and loaded after the arguments are checked and before the workers
    fork; it raises :class:`BuildError` when no C compiler ``cc`` can build it.
    """
    cap = _census_cap(k_max, cluster_cap, workers)
    kernel.load(_NEED)  # built and loaded before the workers fork
    with pool._fan_out(_census_tasks(k_max, cap, workers), workers) as results:
        return _census_table(k_max, cap, _census_covers(k_max, (shapes for _, shapes in results)))


def _event_part(max_len: int, cap: int, part: int, parts: int) -> dict[tuple[int, int], int]:
    """Event multiplicities of one part of the (span-pruned) shape tree, from one kernel call."""
    shapes = _shape_block(max_len, cap, part, parts)
    words, stride = memoryview(shapes.records).cast("I"), 2 * shapes.height + 3
    pairs = Counter(zip(words[stride - 3 :: stride], words[stride - 2 :: stride]))
    return {(n, b): n * count for (n, b), count in pairs.items()}


def contour_event_table(max_len: int, *, workers: int = 1) -> dict[tuple[int, int], int]:
    """Multiplicities of (|W|, |boundary|) over origin clusters with contour length <= max_len.

    Every cluster whose contour is that short has size at most
    ``interior_capacity(max_len)``, so the table is a complete, exact census
    of the events feeding the truncated polynomial.  ``workers`` processes
    share the shape tree; the table does not depend on it.  The tree is grown
    in the compiled kernel, and a cap past ``_SHAPE_LIMIT`` refused before
    any work, as for :func:`exact_contour_counts`.
    """
    check_integer(max_len, "max_len")
    if max_len < 4:
        raise ValueError("max_len must be >= 4")
    check_workers(workers)
    cap = interior_capacity(max_len)
    _check_shape_limit(cap)
    parts = pool._parts(workers)
    kernel.load(_EVENT_NEED)  # built and loaded before the workers fork
    events: Counter[tuple[int, int]] = Counter()
    with pool._fan_out([(_event_part, max_len, cap, p, parts) for p in range(parts)], workers) as results:
        for _, part_events in results:
            events.update(part_events)
    return dict(sorted(events.items()))


# ---------------------------------------------------------------------------
# Self-avoiding restricted circuits.
# ---------------------------------------------------------------------------


@dataclass
class SelfAvoidingCounts:
    """Counts of restricted self-avoiding circuits enclosing the origin."""

    k_max: int
    rule: str
    walks: dict[int, int]
    distinct_sets: dict[int, int]
    nodes: int


#: Largest turn, in eighths of a full turn, each continuation rule allows a step.
_TURNS = {"five": 2, "seven": 3}


#: Most starts of the circuit walk: a closed walk records one bit per start in a 64-bit word.
_MAX_STARTS = 64
#: The largest node cap the walk takes: it counts nodes in a signed 64-bit integer.
_MAX_NODES = (1 << 63) - 1


def _circuit_walk(k_max: int, rule: str, max_nodes: int) -> SelfAvoidingCounts:
    """Walk every circuit of every start, in the kernel's ``peierls_walk``, for valid arguments.

    Raises :class:`CapExceeded` as soon as the nodes pass ``max_nodes``.
    """
    walks, distinct, nodes = array("q", bytes(8 * (k_max + 1))), array("q", bytes(8 * (k_max + 1))), array("q", [0])
    code = kernel.load(_NEED).peierls_walk(
        k_max, _TURNS[rule], min(max_nodes, _MAX_NODES), *(a.buffer_info()[0] for a in (walks, distinct, nodes))
    )
    if code < 0:
        raise MemoryError(f"cannot allocate the circuit walk's records at length {k_max}")
    if code:
        raise CapExceeded(f"circuit search exceeded {max_nodes} nodes; raise max_nodes")
    return SelfAvoidingCounts(
        k_max=k_max,
        rule=rule,
        walks=dict(enumerate(walks[4:], 4)),
        distinct_sets=dict(enumerate(distinct[4:], 4)),
        nodes=nodes[0],
    )


def self_avoiding_circuit_count(
    k_max: int,
    *,
    rule: str = "five",
    max_nodes: int = 200_000_000,
    workers: int = 1,
) -> SelfAvoidingCounts:
    """Count restricted self-avoiding circuits that enclose the origin.

    A circuit of length k starts at a site (l, 0), takes one of the
    admissible first steps (east, north-east, north, north-west, or the east
    dip to (l+1, -1)), continues with at most 5 king-move options per step
    under the ``five`` rule (turns of more than 90 degrees are excluded;
    ``seven`` relaxes this to everything except reversal), never revisits a
    site, avoids ray sites nearer the origin than its start, closes after k
    steps, and must wind around the origin.  Walks are counted individually
    and after deduplication by site set.  ``nodes`` counts the steps taken;
    :class:`CapExceeded` is raised as soon as it exceeds ``max_nodes``.

    A move is kept when its king distance to the start is within the
    remaining step budget, which prunes walks that could no longer return,
    and its site is not on the walk.  The winding number is a running sum of
    the :func:`clusters._crossing` terms of the steps taken, so a walk next
    to the start closes when that sum plus the closing step's term is
    nonzero.  Every start is walked at once, in the compiled walk of
    :mod:`peierls.kernel`, which raises :class:`BuildError` when no C
    compiler ``cc`` can build it.  ``workers`` is checked as for the census;
    the walk is one task and runs in the caller.
    """
    return _circuit_walk(*_walk_args(k_max, rule, max_nodes, workers))


def _walk_or_error(k_max: int, rule: str, max_nodes: int) -> SelfAvoidingCounts | Exception:
    """:func:`_circuit_walk`, or the error it raises, a node-cap overrun included, returned as a value.

    The walk task of :func:`full_count_table`: the pool raises a task's error
    as soon as it comes in, and the table raises the walk's only after the
    census.
    """
    try:
        return _circuit_walk(k_max, rule, max_nodes)
    except Exception as exc:
        return exc


def _walk_args(k_max: int, rule: str, max_nodes: int, workers: int) -> tuple[int, str, int]:
    """The checked arguments of :func:`_circuit_walk`."""
    check_integer(k_max, "k_max")
    check_integer(max_nodes, "max_nodes")
    if k_max < 4:
        raise ValueError("k_max must be >= 4")
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
    check_workers(workers)
    if (k_max - 2) // 2 > _MAX_STARTS:
        raise CapExceeded(f"circuit length {k_max} exceeds the walker's start-bit encoding")
    if rule not in _TURNS:
        raise ValueError(f"unknown continuation rule {rule!r}; expected 'five' or 'seven'")
    return int(k_max), rule, int(max_nodes)


def _parts_past(results: Iterable[tuple[int, object]], walk: int, walked: list) -> Iterable:
    """The census parts' results of :func:`full_count_table`'s pool; the result of task ``walk`` goes to ``walked`` as it passes."""
    for index, value in results:
        if index == walk:
            walked.append(value)
        else:
            yield value


def full_count_table(
    k_max: int,
    *,
    rule: str = "five",
    cluster_cap: int | None = None,
    max_nodes: int = 200_000_000,
    workers: int = 1,
) -> CountTable:
    """Exact counts, restricted-circuit counts, and the analytic bound, merged.

    The census parts and the circuit walk share one pool of ``workers``
    processes; the table does not depend on it.  The walk, the longest
    task, goes first (longest task first; Graham, SIAM J. Appl. Math. 17
    (1969) 416-429), and the parts run beside it on the other workers and on
    its worker once it is done.  The parts are merged as they come in, and
    the passes over the merge run while the walk may still run.  The walk
    task returns its error, a node-cap overrun included, as a value, raised
    only after the census is done, so a census error wins over a walk
    error, as when the census ran before the walk, and leaving the pool on
    it ends the walk early.  A worker that dies is raised at once.  At one
    worker the tasks run in order in the caller, the census first, so a
    census error comes before the walk starts.  The census's arguments are
    checked first.  A walk argument's error waits for the census only when
    a ``cluster_cap`` below ``interior_capacity(k_max)`` could make the
    census fail; otherwise it is raised before any work.  The kernel is
    built and loaded after every argument is checked and before the workers
    fork.
    """
    cap = _census_cap(k_max, cluster_cap, workers)
    census = _census_tasks(k_max, cap, workers)
    try:
        walk = _walk_args(k_max, rule, max_nodes, workers)
    except (ValueError, CapExceeded):
        if cap < interior_capacity(k_max):
            # an error of the census itself still comes first
            exact_contour_counts(k_max, cluster_cap=cluster_cap, workers=workers)
        raise
    kernel.load(_NEED)
    # at one worker the tasks run in order in the caller: the census first, so that its error ends the run unwalked
    tasks = [(_walk_or_error, *walk), *census] if workers > 1 else [*census, (_walk_or_error, *walk)]
    walked = []
    with pool._fan_out(tasks, workers) as results:
        parts = _parts_past(results, 0 if workers > 1 else len(census), walked)
        table = _census_table(k_max, cap, _census_covers(k_max, islice(parts, len(census))))
        sa = walked[0] if walked else next(results)[1]
    if isinstance(sa, Exception):
        raise sa
    table.sa_walk = sa.walks
    table.sa_sets = sa.distinct_sets
    table.meta["rule"] = rule
    table.meta["sa_nodes"] = sa.nodes
    return table


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def count_table_csv(table: CountTable) -> str:
    lines = ["k,exact,sa_walk,walk_bound"]
    for k in range(4, table.k_max + 1):
        sa = table.sa_walk.get(k, "")
        lines.append(f"{k},{table.exact.get(k, '')},{sa},{table.walk_bound[k]}")
    return "\n".join(lines) + "\n"


def class_counts_csv(table: CountTable) -> str:
    lines = ["k,l,i,count"]
    for (k, l, i) in sorted(table.classes):
        lines.append(f"{k},{l},{i},{table.classes[(k, l, i)]}")
    return "\n".join(lines) + "\n"


def count_table_json_dict(table: CountTable) -> dict:
    meta = {k: v for k, v in table.meta.items() if k != "trajectory"}
    return {
        "meta": meta,
        "counts": [
            {
                "k": k,
                "exact": table.exact.get(k),
                "sa_walk": table.sa_walk.get(k),
                "sa_distinct": table.sa_sets.get(k),
                "walk_bound": table.walk_bound[k],
            }
            for k in range(4, table.k_max + 1)
        ],
        "classes": [
            {"k": k, "l": l, "i": i, "count": table.classes[(k, l, i)]}
            for (k, l, i) in sorted(table.classes)
        ],
        "witnesses": [
            {"k": k, **table.witnesses[k].to_json_dict()} for k in sorted(table.witnesses)
        ],
    }
