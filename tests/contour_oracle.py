"""Scalar references for clusters and outer contours, and the slow shape walk.

The library extracts contours and traces their cycles on row masks: the
one-cluster functions on Python-int rows (``clusters._contour`` and
``clusters._cycle``), the census in its compiled kernel.  The references
here take one cluster at a time.  ``oracle_outer_boundary`` works on Python
sets of sites: the exterior is an explicit flood fill over a padded
bounding box, and the filled silhouette is everything in the box that the
fill did not reach.  ``_contour_bits`` runs the same steps on one
big-integer bitboard, and ``_ccw_cycle`` orders a contour into its cycle by
walking the edges of the filled site set.  The origin clusters of the census
come from ``_iter_shapes``, each shape placed once at every cell, and the
origin cluster of an occupancy grid from a depth-first search.

``_iter_shapes`` is Redelmeier's recursion one shape at a time, the
reference for the kernel's shape tree (``enumeration._shape_block``): it
grows the tree in the same order and splits it into the same parts.
``shape_block`` is the reference for the kernel's records, each shape
embedded by ``_embed`` in its own big-integer bitboard for
``_contour_bits``.  ``census_part`` is the reference for the census's
reduction: it extracts one shape at a time and keys it by
``_canonical_contour``.
``census_classes`` is the reference for the census's class pass: it builds
each distinct contour with ``_ccw_cycle`` from its key alone, and
translates, winds and classifies one positioned contour at a time, with
``oracle_class`` for the class rule.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

from peierls import (
    CapExceeded,
    Cluster,
    Contour,
    ContourError,
    IncompletenessError,
    NoRayIntersection,
    Site,
    interior_capacity,
    neighbors4,
    site_boundary,
    winding_number,
)
from peierls.enumeration import _CANON_STRIDE, _SPLIT_SIZE, _max_span

# ---------------------------------------------------------------------------
# Redelmeier's recursion, one shape at a time.
#
# Cells are encoded as (y << 6) | (x + 32).  Admissible cells satisfy y > 0
# or (y == 0 and x >= 0), i.e. encoded >= _ORIGIN, which anchors every shape
# at its lexicographically smallest cell in (y, x) order.
# ---------------------------------------------------------------------------

_ORIGIN = 32
_STEPS = (1, -1, 64, -64)


def _iter_shapes(
    max_size: int,
    max_span: int | None = None,
    part: int = 0,
    parts: int = 1,
) -> Iterator[tuple[list[int], int, int, int, int]]:
    """Every free-anchored 4-connected shape of size <= max_size, once each.

    Yields ``(cells, mask, xmin, w, h)``: the internal mutable cell list,
    which callers must consume before advancing the iterator, the cell mask
    (an int with bit e set for every encoded cell e, so that row y of the
    shape is bits 64*y to 64*y + 63), the smallest encoded column, and the
    bounding box width and height (the anchor row is y = 0).  A shape takes
    its untried cells smallest first, and each child keeps the larger ones,
    so the tree is that of the frontier.  With ``max_span``, a shape whose
    box is wider or taller than that is still yielded, but never grown: every
    shape below it in the search tree is a superset, hence at least as wide.

    With ``parts > 1`` only part ``part`` of the search tree is yielded: the
    j-th shape of size ``_SPLIT_SIZE`` met in depth-first order, j = 0, 1,
    ..., goes with its subtree to part j modulo ``parts``; smaller shapes
    belong to part 0.  These are the parts of ``enumeration._shape_block``.
    """
    if max_size > 30:
        raise CapExceeded(f"shape size {max_size} exceeds the coordinate encoding range")
    if max_span is None:
        max_span = max_size
    # stack depth at which a popped cell completes a shape of the split size;
    # 0 (never reached) when the whole tree is wanted
    split = _SPLIT_SIZE if parts > 1 else 0
    met = 0  # split-size shapes met
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
                met += 1
                if (met - 1) % parts != part:
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
            yield shape, bits, x0, w, y1 + 1
        if len(shape) < max_size:
            if w <= max_span and y1 < max_span:
                new = []
                for d in _STEPS:
                    nb = c + d
                    if nb >= _ORIGIN and nb not in seen:
                        seen.add(nb)
                        new.append(nb)
                # the smallest untried cell first, keeping the larger ones, as the frontier does
                stack.append((sorted(untried + new, reverse=True), new, x0, x1, y1))
                continue
        bits ^= 1 << shape.pop()


def frame_rows(mask: int, xmin: int, box: int) -> list[int]:
    """The ``box + 4`` frame rows of an ``_iter_shapes`` shape at most ``box`` wide and tall, as Python ints.

    Shape cell (x, y) sits at column x - xmin + 2 and row y + 2, as in the
    records of ``enumeration._shape_block``.
    """
    rows = [0] * (box + 4)
    for y in range(box):
        rows[y + 2] = (mask >> 64 * y & (1 << 64) - 1) >> (xmin - 2)
    return rows


# ---------------------------------------------------------------------------
# Scalar contours: one big-integer bitboard, and one edge walk.
#
# A site set is embedded as a bitboard in a w x h frame (bit y*w + x), padded
# by 2 on every side so that its vacant boundary stays off the frame border
# and the border ring lies in the exterior.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _frame(w: int, h: int):
    """(universe, not_left, not_right, border, w) masks of a w x h frame."""
    universe = (1 << (w * h)) - 1
    left = 0
    for r in range(h):
        left |= 1 << (r * w)
    right = left << (w - 1)
    row0 = (1 << w) - 1
    rowtop = row0 << ((h - 1) * w)
    return (universe, universe ^ left, universe ^ right, left | right | row0 | rowtop, w)


def _nb4(bits: int, frame) -> int:
    universe, not_left, not_right, _, w = frame
    return (((bits & not_right) << 1) | ((bits & not_left) >> 1) | (bits << w) | (bits >> w)) & universe


def _contour_bits(wbits: int, frame) -> tuple[int, int, int]:
    """Bitboards ``(boundary, contour, exterior)`` of the cluster ``wbits``.

    The exterior is the axis flood fill from the frame border over the sites
    outside the cluster and its boundary, clipped to the frame.  The contour
    keeps the boundary sites with an axis neighbour in it.
    """
    bnd = _nb4(wbits, frame) & ~wbits
    free = frame[0] & ~(wbits | bnd)
    ext = frame[3] & free
    while True:
        grown = (ext | _nb4(ext, frame)) & free
        if grown == ext:
            break
        ext = grown
    return bnd, bnd & _nb4(ext, frame), ext


def _bits_to_sites(bits: int, w: int) -> list[Site]:
    out = []
    while bits:
        low = bits & -bits
        idx = low.bit_length() - 1
        out.append((idx % w, idx // w))
        bits ^= low
    return out


def _ccw_cycle(filled: set[Site], contour: set[Site]) -> tuple[Site, ...]:
    """Order the contour sites into a counter-clockwise king-move cycle.

    Walks the unit edges separating ``filled`` from its exterior with the
    region kept on the left, then reads off the cell each edge borders.  Cell
    (x, y) is treated as the unit square with corners (x, y)..(x+1, y+1).
    """
    edges: dict[tuple[int, int], tuple[tuple[int, int], Site]] = {}

    def add(start, end, cell):
        if start in edges:
            raise ContourError(f"pinched outer boundary at corner {start}")
        edges[start] = (end, cell)

    for cell in filled:
        x, y = cell
        if (x, y - 1) not in filled:
            add((x, y), (x + 1, y), cell)
        if (x + 1, y) not in filled:
            add((x + 1, y), (x + 1, y + 1), cell)
        if (x, y + 1) not in filled:
            add((x + 1, y + 1), (x, y + 1), cell)
        if (x - 1, y) not in filled:
            add((x, y + 1), (x, y), cell)

    start = min(edges)
    cells: list[Site] = []
    corner = start
    for _ in range(len(edges) + 1):
        nxt, cell = edges.pop(corner)
        if not cells or cells[-1] != cell:
            cells.append(cell)
        corner = nxt
        if corner == start:
            break
    if edges:
        raise ContourError("outer boundary is not a single closed curve")
    while len(cells) > 1 and cells[-1] == cells[0]:
        cells.pop()

    if set(cells) != contour:
        raise ContourError("perimeter walk does not match the exposed boundary set")
    if len(cells) != len(contour):
        raise ContourError("outer boundary revisits a site; no simple cycle exists")

    area2 = 0
    for i, (x, y) in enumerate(cells):
        nx, ny = cells[(i + 1) % len(cells)]
        area2 += x * ny - nx * y
    if area2 <= 0:
        raise ContourError("perimeter walk came out clockwise")

    k = cells.index(min(cells))
    return tuple(cells[k:] + cells[:k])


# ---------------------------------------------------------------------------
# Set-based contours.
# ---------------------------------------------------------------------------


def _box(region):
    xs = [x for x, _ in region]
    ys = [y for _, y in region]
    return min(xs) - 2, max(xs) + 2, min(ys) - 2, max(ys) + 2


def exterior_of(region):
    """Free sites of the bounding box (padded by 2) reachable from its border.

    Axis flood fill over the complement of ``region``; because axis steps
    cannot cross between diagonally adjacent region sites, the result is
    exactly the unbounded complement component, clipped to the box.
    """
    x0, x1, y0, y1 = _box(region)
    start = (x0, y0)
    ext = {start}
    stack = [start]
    while stack:
        x, y = stack.pop()
        for nb in ((x + 1, y), (x, y + 1), (x - 1, y), (x, y - 1)):
            nx, ny = nb
            if x0 <= nx <= x1 and y0 <= ny <= y1 and nb not in ext and nb not in region:
                ext.add(nb)
                stack.append(nb)
    return ext


def filled_silhouette(region, exterior):
    x0, x1, y0, y1 = _box(region)
    return {(x, y) for y in range(y0, y1 + 1) for x in range(x0, x1 + 1) if (x, y) not in exterior}


def oracle_outer_boundary(cluster: Cluster) -> Contour:
    """Outer contour of a finite nonempty cluster, from site sets only."""
    region = frozenset(cluster.sites | cluster.boundary)
    ext = exterior_of(region)
    gamma = frozenset(u for u in cluster.boundary if any(nb in ext for nb in neighbors4(u)))
    return Contour(sites=gamma, cycle=_ccw_cycle(filled_silhouette(region, ext), gamma))


def enumerate_origin_clusters(max_cluster_size: int) -> Iterator[Cluster]:
    """All finite 4-connected clusters containing the origin, each exactly once.

    Each of the |W| cells of a shape serves as the origin of one translate.
    No symmetry deduplication is performed, since clusters at distinct
    positions are distinct events.
    """
    for shape, *_ in _iter_shapes(max_cluster_size):
        cells = [((e & 63) - 32, e >> 6) for e in shape]  # cell e is (y << 6) | (x + 32)
        bnd = site_boundary(frozenset(cells))
        for cx, cy in cells:
            yield Cluster(
                sites=frozenset((x - cx, y - cy) for x, y in cells),
                boundary=frozenset((x - cx, y - cy) for x, y in bnd),
                origin=(0, 0),
            )


def cluster_event_probability(cluster: Cluster, c: float) -> float:
    """Probability ``c**|W| * (1-c)**|boundary|`` that the cluster of its origin site is exactly this set."""
    return float(c ** len(cluster.sites) * (1.0 - c) ** len(cluster.boundary))


def origin_cluster(grid: np.ndarray) -> frozenset[Site]:
    """Occupied sites joined to the origin of ``grid`` (indexed ``[y + L, x + L]``); empty if it is vacant."""
    L = grid.shape[0] // 2
    seen = {(0, 0)} if grid[L, L] else set()
    stack = list(seen)
    while stack:
        for x, y in neighbors4(stack.pop()):
            if max(abs(x), abs(y)) <= L and (x, y) not in seen and grid[y + L, x + L]:
                seen.add((x, y))
                stack.append((x, y))
    return frozenset(seen)


def reaches_border(grid: np.ndarray) -> bool:
    """Does the origin cluster of ``grid`` touch the border of its window?"""
    L = grid.shape[0] // 2
    return any(max(abs(x), abs(y)) == L for x, y in origin_cluster(grid))


def _embed(shape: list[int], xmin: int, w: int, h: int):
    """Bitboard of a w x h shape in a frame padded by 2: ``(wbits, frame)``."""
    fw = w + 4
    base = 2 * fw + 2 - xmin
    wbits = 0
    for e in shape:
        wbits |= 1 << ((e >> 6) * fw + (e & 63) + base)
    return wbits, _frame(fw, h + 4)


def _canonical_contour(gamma: int, w: int):
    """Translate a contour bitboard so its bounding box starts at (0, 0).

    Returns ``(key, ox, oy)`` where key is the contour re-encoded with stride
    32 and (ox, oy) is the frame offset of the bounding-box corner.
    """
    cells = _bits_to_sites(gamma, w)
    ox = min(c[0] for c in cells)
    oy = min(c[1] for c in cells)
    key = 0
    for x, y in cells:
        key |= 1 << ((y - oy) * _CANON_STRIDE + (x - ox))
    return key, ox, oy


def census_part(k_max: int, cap: int, part: int, parts: int):
    """Shape-by-shape twin of ``enumeration._census_part``: one bitboard contour per shape.

    A bad shape fails the part as there: the first in the order of size, then
    of the cell mask moved to the box corner.
    """
    covers: dict[int, dict[int, int]] = {}
    span = _max_span(k_max)
    first_bad = None
    for shape, bits, xmin, w, h in _iter_shapes(cap, span, part, parts):
        if w > span or h > span:
            continue
        wbits, frame = _embed(shape, xmin, w, h)
        _, gamma, ext = _contour_bits(wbits, frame)
        glen = gamma.bit_count()
        if glen > k_max:
            continue
        enclosed = (frame[0] & ~ext & ~gamma).bit_count()
        if glen < 4 or enclosed > interior_capacity(glen):
            order = (len(shape), sum(1 << ((e >> 6) * 64 + (e & 63) - xmin) for e in shape))
            if first_bad is None or order < first_bad[0]:
                if glen < 4:
                    error = ContourError(f"shape produced a contour of impossible length {glen}")
                else:
                    error = IncompletenessError(
                        f"a contour of length {glen} encloses {enclosed} sites, more than the "
                        "capacity bound allows; the completeness cap is unsound for this input"
                    )
                first_bad = order, error
            continue
        key, ox, oy = _canonical_contour(gamma, frame[4])
        # origin positions in the canonical frame: shape cells shifted like gamma
        n = len(shape)
        pos = 0
        for e in shape:
            cx = (e & 63) - xmin + 2 - ox
            cy = (e >> 6) + 2 - oy
            pos |= 1 << (cy * _CANON_STRIDE + cx)
        by_size = covers.setdefault(key, {})
        by_size[n] = by_size.get(n, 0) | pos
    if first_bad is not None:
        raise first_bad[1]
    return {key: dict(sorted(covers[key].items())) for key in sorted(covers)}


def shape_block(max_len: int, cap: int, part: int, parts: int) -> tuple[list[tuple], int]:
    """Shape-by-shape twin of ``enumeration._shape_block``: the kept records and the count of shapes built.

    A record is ``(cell rows, contour rows, cells, boundary sites, exterior
    sites)`` of a shape in its square frame of ``box + 4`` rows, the rows as
    tuples of ints.
    """
    box = min(_max_span(max_len), cap)
    side = box + 4
    records, built = [], 0
    for shape, _, xmin, w, h in _iter_shapes(cap, _max_span(max_len), part, parts):
        if w > box or h > box:
            continue
        built += 1
        wbits, frame = _embed(shape, xmin, box, box)
        bnd, gamma, ext = _contour_bits(wbits, frame)
        if gamma.bit_count() <= max_len:
            rows = [tuple(bits >> (y * side) & (1 << side) - 1 for y in range(side)) for bits in (wbits, gamma)]
            records.append((*rows, len(shape), bnd.bit_count(), ext.bit_count()))
    return records, built


def contour_cycle(sites) -> tuple[Site, ...]:
    """The cycle of a contour given by its sites alone: ``_ccw_cycle`` around all but the contour's exterior."""
    return _ccw_cycle(filled_silhouette(sites, exterior_of(sites)), set(sites))


def key_contour(key: int) -> Contour:
    """The contour of a census key (stride 32), by :func:`contour_cycle`."""
    sites = frozenset(_bits_to_sites(key, _CANON_STRIDE))
    return Contour(sites=sites, cycle=contour_cycle(sites))


#: Class of each step after the nearest ray site: east, north-east, north,
#: north-west, and the east dip south-east in the class of east.
FIRST_STEPS = {(1, 0): 1, (1, 1): 2, (0, 1): 3, (-1, 1): 4, (1, -1): 1}


def oracle_class(contour: Contour) -> tuple[int, int]:
    """``(ray distance, first step)`` of a contour around the origin, one site at a time."""
    hits = [x for (x, y) in contour.sites if y == 0 and x >= 1]
    if not hits:
        raise NoRayIntersection("contour never meets the positive horizontal ray")
    l = min(hits)
    sx, sy = contour.cycle[(contour.cycle.index((l, 0)) + 1) % len(contour.cycle)]
    i = FIRST_STEPS.get((sx - l, sy))
    if i is None:
        raise ContourError(f"successor offset {(sx - l, sy)} of ray site {(l, 0)} is not an admissible first step")
    return l, i


def census_classes(results) -> tuple[dict[tuple[int, int, int], int], dict[int, Contour]]:
    """The class counts and witnesses of census parts' covers, one positioned contour at a time."""
    final: dict[int, int] = {}
    for covers in results:
        for key, by_size in covers.items():
            for pos in by_size.values():
                final[key] = final.get(key, 0) | pos
    classes: dict[tuple[int, int, int], int] = {}
    witnesses: dict[int, Contour] = {}
    for key in sorted(final):
        contour = key_contour(key)
        if final[key] & key:
            raise ContourError("a cluster cell coincides with its own contour")
        for ox, oy in _bits_to_sites(final[key], _CANON_STRIDE):
            positioned = contour.translate(-ox, -oy)
            if winding_number(positioned.cycle) != 1:
                raise ContourError("an origin position is not enclosed by its contour")
            witnesses.setdefault(contour.length, positioned)
            ci = (contour.length, *oracle_class(positioned))
            classes[ci] = classes.get(ci, 0) + 1
    return classes, witnesses
