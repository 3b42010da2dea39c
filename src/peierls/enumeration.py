"""Exact census of outer contours around the origin, and walk bounds.

The census counts, for each length k, the distinct outer contours of finite
occupied clusters containing the origin.  It enumerates free-anchored cluster
shapes once each (Redelmeier's algorithm), extracts their outer contours a
block of shapes at a time with the row-mask kernel of :mod:`peierls.clusters`,
and then accounts for the translates that place the origin inside the cluster;
translates of one shape share one contour shape, so the per-translate work is
a set union instead of a fresh traversal.  Distinct positions of the origin
give distinct contours, exactly as distinct clusters at different positions
are distinct events.

Completeness of a size-capped enumeration rests on two facts.  A cluster
always lies strictly inside its own contour, and a closed king-move cycle
through k sites encloses at most ``(k*k - 4*k + 8) // 8`` lattice sites (the
diagonal square is extremal; Pick's theorem turns the area bound into a site
bound).  A cap at that capacity therefore sees every realizable contour of
length <= k.  The census additionally verifies that the counts have
stabilized over the last three cap values.

Most capped shapes are too wide for a short contour (the span lemma).  If a
shape's bounding box is w x h, its contour holds a site in column xmin - 1
and one in column xmax + 1, and a king step changes the column by at most 1,
so a closed cycle through both has length >= 2*w + 2; rows alike.  A shape
with ``max(w, h) > (k - 2) // 2`` therefore has a contour longer than k, and
skipping its contour extraction loses nothing.  Adding cells never shrinks
the box, so such a shape is never grown: :func:`contour_event_table` drops
its subtree, and the census counts the subtree without building its shapes,
since ``meta["shapes"]`` reports every capped shape.  At k = 12, 345,600 of
the 2,595,167 capped shapes fit the 5 x 5 box, 495,640 are built, and the
other 2,099,527 are only counted.

The shapes that fit the box go to the contour kernel in blocks of
``_BLOCK_SHAPES``: an ``(N, box + 4)`` numpy array of row masks (uint16 up to
a box of 12, uint64 beyond), every shape padded by 2 in one square frame.
:func:`clusters._contour_rows` and :func:`clusters._popcounts` find the
boundaries, exteriors, contours and bit counts of the whole block at once,
and memory does not grow with the part.  The shape iterator keeps each
shape's cell mask as it adds and removes cells, so a kept shape costs one
list append.
:func:`contour_event_table` counts the (|W|, |boundary|) pairs of a block
with ``np.unique``.  The census checks a block's contour lengths and enclosed
sites, moves each contour and its cells to the contour's bounding-box
corner, groups the shapes by canonical contour and size, and ORs each
group's cells into one cover; only the distinct groups become the stride-32
ints of the merge, and each new contour becomes a :class:`Contour` once.

Both halves of the census run on ``workers`` forked processes and give the
same results for every worker count.  Redelmeier's search tree splits into
disjoint subtrees: the shapes of size 6 (``_SPLIT_SIZE``) are numbered in
search order, part p of P grows only those with index % P == p, and the
smaller shapes above them come from part 0.  Each part returns its shape
count, its per-size covers and the first contour it met for each canonical
key (all contours of one key are equal, since the cycle starts at the
smallest site), and the parent merges them by sum, OR per size and first
entry before the unchanged trajectory, stabilisation and class passes.  The
circuit walker splits by start: a circuit's nearest ray site is its start
(l, 0), so walks from different starts never share a site set, and the
distinct-set counts of the starts add up exactly.  :func:`full_count_table`
puts the census parts and the walker starts on one pool: the census parts
first, so that the census is merged, and fails, while the walker still runs,
then the starts nearest first, which is longest first (at k = 12 the starts
l = 1..5 take 1.55M down to 1.17M nodes).

The module also bounds the census analytically: a contour of length k hits
the positive horizontal axis at some nearest site, continues with one of a
handful of first steps, and each later step has at most 5 continuations
(never turning by more than 90 degrees), giving the closed-form bound
4 * 5**(k-2) * (k-1).  The refined count enumerates those restricted walks
exactly, discarding self-intersections, which lowers the effective growth
rate below 5.

The walker expands the walks of one start a length at a time, in numpy
chunks of up to ``_WALK_CHUNK`` walks kept on a last-in first-out stack, so
memory stays bounded by a few chunks per length.  A walk is its site, entry
direction, running winding sum and a bitmask of its sites over the window of
king distance k_max // 2 around the start, the only sites a closing walk
reaches (169 sites in 3 words at k = 12); the distinct site sets are counted
by sorting the closed walks' masks.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

# Functions of peierls.clusters are called through the module:
# perfbench/tracing.py records a span for every call of a function imported
# by name into this module, and winding_number runs once per positioned
# contour (12,368 calls at k=12).
from . import clusters
from .clusters import Contour
from .errors import CapExceeded, ContourError, IncompletenessError, NoRayIntersection, check_workers
from .lattice import NEIGHBOR_OFFSETS_8

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

#: Class index of each offset a counter-clockwise contour can take after its
#: nearest ray site: E, NE, N, NW, plus the east dip SE.  The dip occurs when
#: the nearest ray site is a pocket mouth and the contour touches the axis
#: from below (both cycle neighbours have y = -1); it is classified together
#: with the straight east step, keeping four classes per ray distance.
_FIRST_STEP_INDEX = {(1, 0): 1, (1, 1): 2, (0, 1): 3, (-1, 1): 4, (1, -1): 1}


def walk_bound(k: int) -> int:
    """Closed-form contour-count bound 4 * 5**(k-2) * (k-1), exact integer."""
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
    if k < 4:
        raise ValueError(f"contours have length >= 4, got {k}")
    return (k * k - 4 * k + 8) // 8


# ---------------------------------------------------------------------------
# Fan-out over worker processes.
# ---------------------------------------------------------------------------

#: Parts of the shape tree per worker process, so that uneven subtrees even out.
_PARTS_PER_WORKER = 4


def _tree_parts(workers: int) -> int:
    """Number of parts :func:`_iter_shapes` splits the shape tree into for ``workers`` processes."""
    return 1 if workers == 1 else _PARTS_PER_WORKER * workers


@contextmanager
def _fan_out(tasks: list[tuple], workers: int) -> Iterator[Iterator]:
    """``fn(*args)`` for each task ``(fn, *args)``, spread over ``workers`` forked processes.

    Used as ``with _fan_out(tasks, workers) as results``: ``results`` yields
    the results in task order, each as soon as it is in, while later tasks
    still run, and re-raises a task's exception when its turn comes.  Tasks
    start in list order.  An exception that leaves the ``with`` block ends
    the running tasks and starts no others, so a caller that fails on an
    early result does not wait for the rest.  Forked workers inherit the
    imported package instead of importing it again; the pool forks all of
    them before it starts its own thread, so the caller must not be running
    other threads.  ``multiprocessing`` is imported only here, which keeps it
    out of every command's start-up.
    """
    if workers == 1 or len(tasks) <= 1:
        yield (fn(*args) for fn, *args in tasks)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks)), mp_context=context) as pool:
        futures = [pool.submit(*task) for task in tasks]
        try:
            yield (f.result() for f in futures)
        except BaseException:
            # Executor.terminate_workers from Python 3.14 on; the pool sees
            # its workers gone, fails the tasks left, and its exit joins them
            for process in pool._processes.values():
                process.terminate()
            raise


# ---------------------------------------------------------------------------
# Fixed-shape enumeration (Redelmeier).
#
# Cells are encoded as (y << 6) | (x + 32).  Admissible cells satisfy y > 0
# or (y == 0 and x >= 0), i.e. encoded >= _ORIGIN, which anchors every shape
# at its lexicographically smallest cell in (y, x) order.
# ---------------------------------------------------------------------------

_ORIGIN = 32
_STEPS = (1, -1, 64, -64)
#: Shape size at which :func:`_iter_shapes` splits its search tree into parts.
_SPLIT_SIZE = 6
#: Most shapes one census may enumerate, counted ones included, over all parts.
_SHAPE_LIMIT = 50_000_000


@dataclass
class _ShapeTally:
    """Shapes of one part of the search tree, built or only counted, and the limit on them."""

    limit: int
    shapes: int = 0


def _shape_limit_error(limit: int) -> CapExceeded:
    return CapExceeded(f"shape enumeration exceeded the limit of {limit}")


def _count_below(untried: list[int], seen: set[int], left: int, budget: int) -> int:
    """Number of shapes below a node of Redelmeier's search tree, none of them built.

    ``untried`` and ``seen`` are the node's state in :func:`_iter_shapes`,
    and the shapes below it have 1..``left`` more cells.  ``untried`` is
    consumed and ``seen`` is left as it was.  Counting stops as soon as the
    count passes ``budget``, and returns that partial count.
    """
    n = len(untried)
    if left == 1:
        return n
    if left == 2:
        # popping the j-th last untried cell gives one shape plus one leaf
        # per cell still untried (j - 1) or newly opened by it
        return n * (n + 1) // 2 + len(
            [nb for c in untried for nb in (c + 1, c - 1, c + 64, c - 64) if nb >= _ORIGIN and nb not in seen]
        )
    total = 0
    while untried:
        c = untried.pop()
        new = [nb for nb in (c + 1, c - 1, c + 64, c - 64) if nb >= _ORIGIN and nb not in seen]
        seen.update(new)
        total += 1 + _count_below(untried + new, seen, left - 1, budget - total - 1)
        seen.difference_update(new)
        if total > budget:
            break
    return total


def _iter_shapes(
    max_size: int,
    max_span: int | None = None,
    part: int = 0,
    parts: int = 1,
    tally: _ShapeTally | None = None,
) -> Iterator[tuple[list[int], int, int, int, int]]:
    """Every free-anchored 4-connected shape of size <= max_size, once each.

    Yields ``(cells, mask, xmin, w, h)``: the internal mutable cell list,
    which callers must consume before advancing the iterator, the cell mask
    (an int with bit e set for every encoded cell e, so that row y of the
    shape is bits 64*y to 64*y + 63), the smallest encoded column, and the
    bounding box width and height (the anchor row is y = 0).  The mask is
    kept up to date as cells are added and removed, so it costs no loop over
    the cells.
    The box is tracked as cells are added; it only grows.  With ``max_span``,
    a shape whose box is wider or taller than that is still yielded, but never
    grown: every shape below it in the search tree is a superset, hence at
    least as wide.

    With a ``tally``, the shapes below each shape not grown for its span are
    counted by :func:`_count_below` instead of being dropped.  ``tally.shapes``
    then runs over every shape of the part, yielded or counted, and
    :class:`CapExceeded` is raised as soon as it passes ``tally.limit``, in
    the middle of a counted subtree too.

    With ``parts > 1`` only part ``part`` of the search tree is yielded: the
    shapes of size ``_SPLIT_SIZE`` are numbered in search order, and the part
    keeps those with ``index % parts == part`` and the subtrees below them;
    smaller shapes belong to part 0.  The parts together yield, or with a
    tally count, every shape exactly once.  The numbering is that of the
    span-pruned tree, so the parts of one ``max_span`` share nothing, but
    need not match the parts of another.
    """
    if max_size > 30:
        raise CapExceeded(f"shape size {max_size} exceeds the coordinate encoding range")
    if max_span is None:
        max_span = max_size
    # stack depth at which a popped cell completes a shape of the split size;
    # 0 (never reached) when the whole tree is wanted
    split = _SPLIT_SIZE if parts > 1 else 0
    index = -1
    show = True
    shape: list[int] = []
    bits = 0
    seen = {_ORIGIN}
    # Redelmeier's recursion with an explicit stack, so that each shape is one
    # yield of this frame rather than one per level of nested generators.  A
    # level holds its untried cells, the cells it added to ``seen`` and the
    # box of the shape that opened it.
    stack = [([_ORIGIN], [], _ORIGIN, _ORIGIN, 0)]
    while stack:
        untried, added, xmin, xmax, ymax = stack[-1]
        if not untried:
            stack.pop()
            for nb in added:
                seen.discard(nb)
            if shape:
                bits ^= 1 << shape.pop()
            continue
        c = untried.pop()
        if len(stack) <= split:
            # the top of the tree, which every part walks
            if len(stack) == split:
                index += 1
                if index % parts != part:
                    continue
                show = True
            else:
                show = part == 0
        shape.append(c)
        bits |= 1 << c
        cx = c & 63
        cy = c >> 6
        x0 = cx if cx < xmin else xmin
        x1 = cx if cx > xmax else xmax
        y1 = cy if cy > ymax else ymax
        w = x1 - x0 + 1
        if show:
            if tally is not None:
                tally.shapes += 1
                if tally.shapes > tally.limit:
                    raise _shape_limit_error(tally.limit)
            yield shape, bits, x0, w, y1 + 1
        if len(shape) < max_size:
            if w <= max_span and y1 < max_span:
                new = []
                for d in _STEPS:
                    nb = c + d
                    if nb >= _ORIGIN and nb not in seen:
                        seen.add(nb)
                        new.append(nb)
                stack.append((untried + new, new, x0, x1, y1))
                continue
            if tally is not None and show:
                new = [nb for nb in (c + 1, c - 1, c + 64, c - 64) if nb >= _ORIGIN and nb not in seen]
                seen.update(new)
                left = max_size - len(shape)
                tally.shapes += _count_below(untried + new, seen, left, tally.limit - tally.shapes)
                seen.difference_update(new)
                if tally.shapes > tally.limit:
                    raise _shape_limit_error(tally.limit)
        bits ^= 1 << shape.pop()


# ---------------------------------------------------------------------------
# Shapes in blocks of row masks.
#
# A block's frame is box + 4 sites square, with shape cell (x, y) at column
# x - xmin + 2 and row y + 2, so the padding of 2 keeps the boundary off the
# border as in clusters._contour_bits.
# ---------------------------------------------------------------------------

#: Shapes per block of the contour kernel; a part holds one block at a time.
_BLOCK_SHAPES = 1 << 14
#: Row stride of the census's canonical contour keys and origin covers.
_CANON_STRIDE = 32


def _block_rows(masks: list[int], xmins: list[int], box: int) -> tuple[np.ndarray, int]:
    """``(rows, width)``: the row masks of packed shapes at most ``box`` wide and tall, in one frame."""
    width = box + 4
    words = np.frombuffer(b"".join([m.to_bytes(8 * box, "little") for m in masks]), "<u8").reshape(-1, box)
    rows = np.zeros((len(masks), width), clusters._row_dtype(width))
    rows[:, 2 : box + 2] = words >> (np.array(xmins, np.uint64) - 2)[:, None]
    return rows, width


def _shape_blocks(max_len: int, cap: int, part: int, parts: int, tally: _ShapeTally | None = None):
    """The shapes of one part that fit the span box of ``max_len``, as :func:`_block_rows` blocks.

    The shapes are those of ``_iter_shapes(cap, span, part, parts, tally)``
    no wider or taller than the span, in search order.  If the iterator
    raises, the shapes met before still come as a block first, so that an
    error the caller finds in them wins, as it would shape by shape.
    """
    span = _max_span(max_len)
    box = min(span, cap)  # a shape of n cells is at most n wide
    masks: list[int] = []
    xmins: list[int] = []
    error = None
    try:
        for _, bits, xmin, w, h in _iter_shapes(cap, span, part, parts, tally):
            if w <= span and h <= span:
                masks.append(bits)
                xmins.append(xmin)
                if len(masks) == _BLOCK_SHAPES:
                    yield _block_rows(masks, xmins, box)
                    masks, xmins = [], []
    except CapExceeded as exc:
        error = exc
    if masks:
        yield _block_rows(masks, xmins, box)
    if error is not None:
        raise error


def _to_corner(rows: np.ndarray, ox: np.ndarray, oy: np.ndarray) -> np.ndarray:
    """Each cluster's row masks moved by ``(-ox, -oy)``, its own offsets."""
    height = rows.shape[1]
    moved = np.zeros((len(rows), 2 * height), rows.dtype)
    moved[:, :height] = rows >> ox.astype(rows.dtype)[:, None]
    return np.take_along_axis(moved, oy[:, None] + np.arange(height), axis=1)


def _row_bits(rows: np.ndarray, stride: int) -> int:
    """The bitboard with row y of ``rows`` at bit ``y * stride``."""
    return sum(v << (y * stride) for y, v in enumerate(rows.tolist()))


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
    and the classes partition the census.
    """
    hits = [x for (x, y) in contour.sites if y == 0 and x >= 1]
    if not hits:
        raise NoRayIntersection("contour never meets the positive horizontal ray")
    l = min(hits)
    anchor = (l, 0)
    idx = contour.cycle.index(anchor)
    sx, sy = contour.cycle[(idx + 1) % len(contour.cycle)]
    step = (sx - l, sy)
    i = _FIRST_STEP_INDEX.get(step)
    if i is None:
        raise ContourError(f"successor offset {step} of ray site {anchor} is not an admissible first step")
    return ClassKey(ray_distance=l, first_step=i)


def _census_part(k_max: int, cap: int, part: int, parts: int):
    """One part of the shape tree: ``(shapes, covers, contours)`` keyed by canonical contour.

    ``shapes`` counts every shape of the part, those below a shape too wide
    for the span lemma included, without building the latter.  ``covers[key][n]``
    is the union of the origin positions, in the canonical frame, of the
    size-n shapes whose contour is ``key``; ``contours[key]`` is that contour,
    built once from the first shape that shows it.  Raises
    :class:`CapExceeded` past ``_SHAPE_LIMIT`` shapes.

    Each block of shapes is reduced at once: its contours and cells move to
    the contour's bounding-box corner, the shapes are grouped by canonical
    contour and size, and each group's cells are ORed into one cover before
    any of it becomes an int.
    """
    contours: dict[int, Contour] = {}
    covers: dict[int, dict[int, int]] = {}
    tally = _ShapeTally(_SHAPE_LIMIT)
    # interior_capacity by length; a length below 4 fails before it is read
    capacity = np.array([interior_capacity(max(k, 4)) for k in range(k_max + 1)])
    for rows, width in _shape_blocks(k_max, cap, part, parts, tally):
        _, gamma, ext = clusters._contour_rows(rows, width)
        lengths = clusters._popcounts(gamma, width)
        kept = lengths <= k_max
        rows, gamma, ext, lengths = rows[kept], gamma[kept], ext[kept], lengths[kept]
        short = lengths < 4
        enclosed = width * width - clusters._popcounts(ext, width) - lengths
        bad = short | (enclosed > capacity[lengths])
        if bad.any():
            i = bad.argmax()
            if short[i]:
                raise ContourError(f"shape produced a contour of impossible length {lengths[i]}")
            raise IncompletenessError(
                f"a contour of length {lengths[i]} encloses {enclosed[i]} sites, more than the capacity "
                "bound allows; the completeness cap is unsound for this input"
            )
        # the corner of each contour's bounding box: its first row, and the
        # trailing zeros of the OR of its rows
        columns = np.bitwise_or.reduce(gamma, axis=1)
        ox = clusters._popcounts(((columns & ~columns + 1) - 1)[:, None], width)
        oy = (gamma != 0).argmax(axis=1)
        canon = _to_corner(gamma, ox, oy)
        groups, first, inverse, sizes = np.unique(
            np.column_stack([canon, clusters._popcounts(rows, width).astype(canon.dtype)]),
            axis=0,
            return_index=True,
            return_inverse=True,
            return_counts=True,
        )
        order = np.argsort(inverse.reshape(-1), kind="stable")
        cells = np.bitwise_or.reduceat(_to_corner(rows, ox, oy)[order], np.cumsum(sizes) - sizes, axis=0)
        frame = clusters._frame(width, width)
        # groups in search order, so that keys and sizes are listed as first met
        for g in np.argsort(first).tolist():
            key = _row_bits(groups[g, :-1], _CANON_STRIDE)
            by_size = covers.get(key)
            if by_size is None:
                covers[key] = by_size = {}
                i = first[g]
                contours[key] = clusters._bits_contour(
                    _row_bits(gamma[i], width), _row_bits(ext[i], width), frame, -int(ox[i]), -int(oy[i])
                )
            n = int(groups[g, -1])
            by_size[n] = by_size.get(n, 0) | _row_bits(cells[g], _CANON_STRIDE)
    return tally.shapes, covers, contours


def _census_cap(k_max: int, cluster_cap: int | None, workers: int) -> int:
    """The cluster-size cap of a census, for valid arguments."""
    if k_max < 4:
        raise ValueError("k_max must be >= 4")
    check_workers(workers)
    cap = interior_capacity(k_max) if cluster_cap is None else cluster_cap
    if cap < 1:
        raise ValueError("cluster cap must be >= 1")
    return cap


def _census_tasks(k_max: int, cap: int, workers: int) -> list[tuple]:
    """The census parts as :func:`_fan_out` tasks."""
    parts = _tree_parts(workers)
    return [(_census_part, k_max, cap, p, parts) for p in range(parts)]


def _census_table(k_max: int, cap: int, results: Iterable) -> CountTable:
    """Merge the results of the census parts into the census table.

    Raises as soon as the parts, or the passes over their merge, show the
    census to be over its limit, incomplete or inconsistent.
    """
    contours: dict[int, Contour] = {}
    covers: dict[int, dict[int, int]] = {}
    shapes_seen = 0
    for n, part_covers, part_contours in results:
        shapes_seen += n
        for key, by_size in part_covers.items():
            merged = covers.setdefault(key, {})
            for size, pos in by_size.items():
                merged[size] = merged.get(size, 0) | pos
        for key, contour in part_contours.items():
            contours.setdefault(key, contour)
    if shapes_seen > _SHAPE_LIMIT:
        raise _shape_limit_error(_SHAPE_LIMIT)
    needed = interior_capacity(k_max)
    guaranteed = cap >= needed

    # Accumulate per-size trajectories: counts as a function of the size cap.
    trajectory: dict[int, dict[int, int]] = {s: {} for s in range(1, cap + 1)}
    final_cover: dict[int, int] = {}
    for key, by_size in covers.items():
        k = contours[key].length
        acc = 0
        for s in range(1, cap + 1):
            b = by_size.get(s)
            if b:
                acc |= b
            cnt = acc.bit_count()
            if cnt:
                traj_s = trajectory[s]
                traj_s[k] = traj_s.get(k, 0) + cnt
        final_cover[key] = acc

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

    # Class decomposition of every positioned contour.
    classes: dict[tuple[int, int, int], int] = {}
    witnesses: dict[int, Contour] = {}
    for key in sorted(covers):
        contour = contours[key]
        if final_cover[key] & key:
            raise ContourError("a cluster cell coincides with its own contour")
        for ox, oy in clusters._bits_to_sites(final_cover[key], _CANON_STRIDE):
            positioned = contour.translate(-ox, -oy)
            if clusters.winding_number(positioned.cycle) != 1:
                raise ContourError("an origin position is not enclosed by its contour")
            witnesses.setdefault(contour.length, positioned)
            ck = class_decomposition(positioned)
            ci = (contour.length, ck.ray_distance, ck.first_step)
            classes[ci] = classes.get(ci, 0) + 1

    meta = {
        "cluster_cap": cap,
        "capacity_needed": needed,
        "guaranteed": guaranteed,
        "stabilized": stabilized,
        "shapes": shapes_seen,
        "distinct_contour_shapes": len(covers),
        "trajectory": {s: dict(sorted(d.items())) for s, d in trajectory.items()},
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
    :class:`CapExceeded` if the census would enumerate more than
    ``_SHAPE_LIMIT`` shapes, counted ones included.
    """
    cap = _census_cap(k_max, cluster_cap, workers)
    with _fan_out(_census_tasks(k_max, cap, workers), workers) as results:
        return _census_table(k_max, cap, results)


def _event_part(max_len: int, cap: int, part: int, parts: int) -> dict[tuple[int, int], int]:
    """Event multiplicities of one part of the (span-pruned) shape tree."""
    events: dict[tuple[int, int], int] = {}
    for rows, width in _shape_blocks(max_len, cap, part, parts):
        bnd, gamma, _ = clusters._contour_rows(rows, width)
        kept = clusters._popcounts(gamma, width) <= max_len
        pairs, counts = np.unique(
            np.column_stack([clusters._popcounts(rows[kept], width), clusters._popcounts(bnd[kept], width)]),
            axis=0,
            return_counts=True,
        )
        for (n, b), count in zip(pairs.tolist(), counts.tolist()):
            events[n, b] = events.get((n, b), 0) + n * count
    return events


def contour_event_table(max_len: int, *, workers: int = 1) -> dict[tuple[int, int], int]:
    """Multiplicities of (|W|, |boundary|) over origin clusters with contour length <= max_len.

    Every cluster whose contour is that short has size at most
    ``interior_capacity(max_len)``, so the table is a complete, exact census
    of the events feeding the truncated polynomial.  ``workers`` processes
    share the shape tree; the table does not depend on it.
    """
    if max_len < 4:
        raise ValueError("max_len must be >= 4")
    check_workers(workers)
    cap = interior_capacity(max_len)
    if cap > 15:
        raise CapExceeded(
            f"contours of length {max_len} require clusters up to size {cap}; "
            "beyond the feasible enumeration range"
        )
    parts = _tree_parts(workers)
    events: dict[tuple[int, int], int] = {}
    with _fan_out([(_event_part, max_len, cap, p, parts) for p in range(parts)], workers) as results:
        for part_events in results:
            for pair, count in part_events.items():
                events[pair] = events.get(pair, 0) + count
    return events


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


@lru_cache(maxsize=None)
def _allowed_dirs(rule: str) -> tuple[tuple[int, ...], ...]:
    if rule == "five":
        return tuple(tuple((d + t) % 8 for t in (-2, -1, 0, 1, 2)) for d in range(8))
    if rule == "seven":
        return tuple(tuple(d2 for d2 in range(8) if d2 != (d + 4) % 8) for d in range(8))
    raise ValueError(f"unknown continuation rule {rule!r}; expected 'five' or 'seven'")


#: Level of a site the walk may not enter (the start, a nearer ray site, or
#: the ring around the window); above every step budget while k_max - 2 < _BLOCKED.
_BLOCKED = 255
#: Walks per chunk of the circuit walker; a start holds a few chunks per length at a time.
_WALK_CHUNK = 4096


def _circuits_from(k_max: int, rule: str, l: int, max_nodes: int) -> tuple[list[int], list[int], int]:
    """Walk every circuit that starts at (l, 0): ``(walks, distinct sets, nodes)`` per length.

    The two lists are indexed by length 0..k_max.  Raises :class:`CapExceeded`
    as soon as the nodes pass ``max_nodes``.
    """
    allowed = np.array(_allowed_dirs(rule))
    m = allowed.shape[1]
    # Grid site i is the start plus (dx[i], dy[i]): a site of the window within
    # king distance r, which a closing walk never leaves, or of the ring around it.
    r = k_max // 2
    side = 2 * r + 3
    dx, dy = np.arange(side**2) % side - r - 1, np.arange(side**2) // side - r - 1
    dist = np.maximum(abs(dx), abs(dy))
    inside = dist <= r
    start = (r + 1) * side + r + 1
    level = np.where(inside, dist, _BLOCKED).astype(np.uint8)
    level[start - np.arange(l + 1)] = _BLOCKED
    # one visited bit per window site, in words of 64
    width = -(-((2 * r + 1) ** 2) // 64)
    index = np.where(inside, (dy + r) * (2 * r + 1) + dx + r, 0)
    words = index >> 6
    bits = np.where(inside, np.uint64(1) << (index & 63).astype(np.uint64), np.uint64(0))
    steps = np.array([oy * side + ox for ox, oy in NEIGHBOR_OFFSETS_8])
    sites = list(zip((l + dx).tolist(), dy.tolist()))
    crossing = np.array(
        [[clusters._crossing(x, y, x + u, y + v) for x, y in sites] for u, v in NEIGHBOR_OFFSETS_8], np.int8
    )
    # the closing step's winding term, for the sites next to the start
    close = np.zeros(side**2, np.int8)
    close[start + steps] = crossing[(np.arange(8) + 4) % 8, start + steps]

    # A walk state is site * 8 + the direction the site was entered in.
    # Per state and allowed move: the level of the site ahead, the next state
    # and the move's winding term; the ring's moves, never taken, are clipped.
    site = np.arange(8 * side**2) >> 3
    turns = allowed[np.arange(8 * side**2) & 7]
    ahead = np.clip(site[:, None] + steps[turns], 0, side**2 - 1)
    ahead_level = level[ahead]
    successor = (ahead * 8 + turns).ravel()
    step_cross = crossing[turns, site[:, None]].ravel()
    # the first steps, each a walk of two sites (the start is in no mask)
    first = np.array([0, 1, 2, 3, 7])
    masks = np.zeros((len(first), width), np.uint64)
    masks[np.arange(len(first)), words[start + steps[first]]] = bits[start + steps[first]]
    stack = [(2, (start + steps[first]) * 8 + first, crossing[first, start], masks)]
    level, close, words, bits = level[site], close[site], words[site], bits[site]

    walks = [0] * (k_max + 1)
    circuits = [[masks[:0]] for _ in range(k_max + 1)]
    nodes = 0
    # chunks of walks of one length (sites walked); np.take gathers several
    # times faster than fancy indexing here
    while stack:
        depth, state, wind, masks = stack.pop()
        kept = np.flatnonzero(np.take(ahead_level, state, axis=0) <= k_max - depth)
        depth += 1
        src = kept // m
        move = np.take(state, src) * m + kept % m
        nxt = np.take(successor, move)
        visited = np.take(masks.ravel(), src * width + np.take(words, nxt)) & np.take(bits, nxt)
        free = np.flatnonzero(visited == 0)
        src, move, nxt = np.take(src, free), np.take(move, free), np.take(nxt, free)
        nodes += len(nxt)
        if nodes > max_nodes:
            raise CapExceeded(f"circuit search exceeded {max_nodes} nodes; raise max_nodes")
        wind = np.take(wind, src) + np.take(step_cross, move)
        closed = (np.take(level, nxt) == 1) & (wind + np.take(close, nxt) != 0) & (depth >= 4)
        if depth == k_max:
            # a last step can only close: only the closed walks need masks
            src, nxt, closed = src[closed], nxt[closed], closed[closed]
        masks = np.take(masks, src, axis=0)
        masks.ravel()[np.arange(len(src)) * width + np.take(words, nxt)] |= np.take(bits, nxt)
        walks[depth] += int(np.count_nonzero(closed))
        circuits[depth].append(masks[closed])
        if depth < k_max:
            for i in range(0, len(nxt), _WALK_CHUNK):
                stack.append((depth, nxt[i : i + _WALK_CHUNK], wind[i : i + _WALK_CHUNK], masks[i : i + _WALK_CHUNK]))

    distinct = [0] * (k_max + 1)
    for k, found in enumerate(circuits):
        sets = np.concatenate(found)
        if len(sets):
            sets = sets[np.lexsort(sets.T)]
            distinct[k] = 1 + int(np.count_nonzero((sets[1:] != sets[:-1]).any(axis=1)))
    return walks, distinct, nodes


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
    :class:`CapExceeded` is raised if it exceeds ``max_nodes``.

    Per start, each site of the window has a level: its king distance to the
    start, or ``_BLOCKED`` for the start and the ray sites nearer the origin.
    A move is kept when its level is within the remaining step budget, which
    prunes walks that could no longer return, and its bit is clear in the
    walk's mask.  The winding number is a running sum of the
    :func:`clusters._crossing` terms of the steps taken, so a walk next to the
    start closes when that sum plus the closing step's term is nonzero.

    Each start is one task for ``workers`` processes (the counts do not depend
    on it); every task is capped at ``max_nodes`` on its own, and the total
    is checked after.
    """
    tasks = _walker_tasks(k_max, rule, max_nodes, workers)
    with _fan_out(tasks, workers) as results:
        return _walker_counts(k_max, rule, max_nodes, results)


def _walker_tasks(k_max: int, rule: str, max_nodes: int, workers: int) -> list[tuple]:
    """The walker's starts as :func:`_fan_out` tasks, nearest (most nodes) first, for valid arguments."""
    if k_max < 4:
        raise ValueError("k_max must be >= 4")
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
    check_workers(workers)
    if k_max - 2 >= _BLOCKED:
        raise CapExceeded(f"circuit length {k_max} exceeds the walker's distance encoding")
    _allowed_dirs(rule)  # rejects an unknown rule before any task starts
    return [(_circuits_from, k_max, rule, l, max_nodes) for l in range(1, (k_max - 2) // 2 + 1)]


def _walker_counts(k_max: int, rule: str, max_nodes: int, results: Iterable) -> SelfAvoidingCounts:
    """Sum the results of the walker's starts."""
    walks = [0] * (k_max + 1)
    distinct = [0] * (k_max + 1)
    nodes = 0
    for part_walks, part_distinct, part_nodes in results:
        # a circuit's nearest ray site is its start, so the site sets of
        # different starts are disjoint and their counts add
        walks = [a + b for a, b in zip(walks, part_walks)]
        distinct = [a + b for a, b in zip(distinct, part_distinct)]
        nodes += part_nodes
    if nodes > max_nodes:
        raise CapExceeded(f"circuit search exceeded {max_nodes} nodes; raise max_nodes")
    return SelfAvoidingCounts(
        k_max=k_max,
        rule=rule,
        walks={k: walks[k] for k in range(4, k_max + 1)},
        distinct_sets={k: distinct[k] for k in range(4, k_max + 1)},
        nodes=nodes,
    )


def full_count_table(
    k_max: int,
    *,
    rule: str = "five",
    cluster_cap: int | None = None,
    max_nodes: int = 200_000_000,
    workers: int = 1,
) -> CountTable:
    """Exact counts, restricted-circuit counts, and the analytic bound, merged.

    Both halves share one pool of ``workers`` processes; the table does not
    depend on it.  The census parts go first and are merged while the walker
    runs, so a census error ends the walker early, and wins over a walker
    error, as when the census ran before the walker.
    """
    cap = _census_cap(k_max, cluster_cap, workers)
    census = _census_tasks(k_max, cap, workers)
    try:
        walker = _walker_tasks(k_max, rule, max_nodes, workers)
    except (ValueError, CapExceeded):
        # an error of the census itself still comes first
        exact_contour_counts(k_max, cluster_cap=cluster_cap, workers=workers)
        raise
    with _fan_out(census + walker, workers) as results:
        table = _census_table(k_max, cap, islice(results, len(census)))
        sa = _walker_counts(k_max, rule, max_nodes, results)
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
