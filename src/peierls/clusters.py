"""Vacant boundaries, outer contours and winding numbers of occupied clusters.

A cluster is a maximal 4-connected set W of occupied sites.  Its site
boundary is the set of vacant sites with an axis neighbour in W.  The outer
contour keeps only the boundary sites that can be reached from infinity by an
axis path whose other sites avoid both the cluster and its boundary; these
sites always form a closed king-move cycle around the cluster, which this
module constructs explicitly with counter-clockwise orientation.  Clusters
come in as site sets: the census enumerates them as shapes and the Monte
Carlo labels whole occupancy grids, so no cluster is grown here.

The package has one contour extractor, the bitboard steps below, in two
forms: :func:`_contour_bits` on one big-integer bitboard, which
:func:`outer_boundary` builds on for single clusters of any size, and
:func:`_contour_rows` on a numpy block of row masks, which runs the same
steps for thousands of small shapes at once for the census and the event
table of :mod:`peierls.enumeration`.  The cycle tracer comes in the same two
forms: :func:`_ccw_cycle` walks the edges of one filled site set, and
:func:`_cycle_rows` runs the same edge-walk rule on a block of contours given
as row masks, which the census uses for all its distinct contours at once.
The tests check each block form against its single one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ContourError, EmptyClusterError
from .lattice import Site, neighbors4

__all__ = [
    "Cluster",
    "Contour",
    "outer_boundary",
    "site_boundary",
    "winding_number",
]


@dataclass(frozen=True)
class Cluster:
    """A finite 4-connected occupied set with its vacant site boundary."""

    sites: frozenset[Site]
    boundary: frozenset[Site]
    origin: Site


@dataclass(frozen=True)
class Contour:
    """Outer boundary of a finite cluster.

    ``cycle`` is a closed king-move path through every contour site exactly
    once, oriented counter-clockwise and starting at the lexicographically
    smallest site.  ``sites`` is the same data as a set.
    """

    sites: frozenset[Site]
    cycle: tuple[Site, ...]

    @property
    def length(self) -> int:
        return len(self.sites)

    def translate(self, dx: int, dy: int) -> "Contour":
        return Contour(
            sites=frozenset((x + dx, y + dy) for x, y in self.sites),
            cycle=tuple((x + dx, y + dy) for x, y in self.cycle),
        )

    def to_json_dict(self) -> dict:
        return {"length": self.length, "cycle": [[x, y] for x, y in self.cycle]}


def site_boundary(sites: frozenset[Site]) -> frozenset[Site]:
    """Vacant axis neighbours of a site set."""
    out = set()
    for s in sites:
        for nb in neighbors4(s):
            if nb not in sites:
                out.add(nb)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Bit-parallel contour extraction.
#
# A site set is embedded as a bitboard in a w x h frame (bit y*w + x), padded
# by 2 on every side so that its vacant boundary stays off the frame border
# and the border ring lies in the exterior.  The site boundary, the exterior
# flood fill, and the exposed contour are then a few big-integer operations
# each.
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
    outside the cluster and its boundary; because axis steps cannot cross
    between diagonally adjacent blocked sites, it is exactly the unbounded
    complement component, clipped to the frame.  The contour keeps the
    boundary sites with an axis neighbour in it.
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


# The census runs the steps of _contour_bits on blocks of thousands of small
# clusters at once.  A block is an (N, H) numpy array of row masks: entry
# [i, y] holds row y of cluster i's frame, bit x for column x.  The frame is
# ``width`` columns wide, shared by the block, and every cluster in it is
# padded by 2.


def _row_dtype(width: int):
    """The numpy type of a row of ``width`` bits (at most 64).

    uint16 holds the frames of the benchmarked census and polynomial (9
    columns at k = 12 and r = 13), where it is faster than uint64; wider
    frames only come from a raised cluster cap.
    """
    return np.uint16 if width <= 16 else np.uint64


@lru_cache(maxsize=None)
def _bit_counts(width: int) -> np.ndarray:
    """Number of set bits of every integer below ``2**width``, as uint8."""
    values = np.arange(1 << width)
    counts = np.zeros(1 << width, np.uint8)
    for b in range(width):
        counts += (values >> b & 1).astype(np.uint8)
    return counts


def _popcounts(rows: np.ndarray, width: int) -> np.ndarray:
    """Set bits per cluster of a block of ``width``-bit row masks, by table lookup in 16-bit slices."""
    table = _bit_counts(min(width, 16))
    return sum(table[rows >> s & (len(table) - 1)].sum(axis=1, dtype=np.int64) for s in range(0, width, 16))


def _nb4_rows(rows: np.ndarray, full) -> np.ndarray:
    """Axis neighbours of every cluster of a block, within the frame's ``full`` row mask."""
    out = (rows << 1 | rows >> 1) & full
    out[:, 1:] |= rows[:, :-1]
    out[:, :-1] |= rows[:, 1:]
    return out


def _contour_rows(rows: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row masks ``(boundary, contour, exterior)`` of a block of clusters, as :func:`_contour_bits`.

    ``rows`` is the block's ``(N, H)`` array of ``width``-bit row masks; the
    exterior is :func:`_exterior_rows` of the clusters and their boundaries.
    """
    full = rows.dtype.type((1 << width) - 1)
    bnd = _nb4_rows(rows, full) & ~rows
    ext = _exterior_rows(rows | bnd, full)
    return bnd, bnd & _nb4_rows(ext, full), ext


def _exterior_rows(blocked: np.ndarray, full) -> np.ndarray:
    """The free sites of each frame of a block joined to the frame's edge by axis steps over free sites.

    The fill starts from the free sites that see the frame's top or bottom
    edge along their column, which include the frame's ring when it is free,
    and grows the whole block until no frame's exterior grows.
    """
    free = ~blocked & full
    below = np.bitwise_or.accumulate(blocked, axis=1)
    above = np.bitwise_or.accumulate(blocked[:, ::-1], axis=1)[:, ::-1]
    ext = free & ~(below & above)
    while True:
        grown = (ext | _nb4_rows(ext, full)) & free
        if np.array_equal(grown, ext):
            return ext
        ext = grown


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


#: King step from a contour site to the next, per last exposed side (bottom,
#: right, top, left) and then per diagonal cell past its end corner (free,
#: filled): the walk goes on straight or turns right.
_TURNS = np.array([(1, 0), (1, -1), (0, 1), (1, 1), (-1, 0), (-1, 1), (0, -1), (-1, -1)])


def _cycle_rows(rows: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The counter-clockwise cycles of a block of contours, by the rule of :func:`_ccw_cycle`.

    ``rows`` holds each contour's sites as ``(N, H)`` row masks of ``width``
    bits, with a free ring around every contour.  A contour's filled set is
    what :func:`_exterior_rows` of the contour leaves, as its cluster's
    exterior leaves it.  The edge walk keeps the filled set on its left, so
    it leaves a site at the end of the site's last exposed side (bottom,
    right, top and left in turn) and goes on to the diagonal cell past that
    corner if it is filled, a right turn, or else straight on to the cell
    ahead.  The cycle follows these successors from the smallest site by
    (x, y).

    Returns the ``(N, n)`` x and y of the cycles' sites in order, as int16,
    n the longest contour, each row padded by repeating its last site.  Raises
    :class:`ContourError` if any contour fails a check of
    :func:`_ccw_cycle`: a pinched corner, a contour site with no exposed side
    or a filled site with one outside the contour, a site with two runs of
    exposed sides or four, more than one closed curve, or a clockwise walk.
    """
    full = rows.dtype.type((1 << width) - 1)
    filled = ~_exterior_rows(rows, full) & full
    below, above = np.zeros_like(filled), np.zeros_like(filled)
    below[:, 1:], above[:, :-1] = filled[:, :-1], filled[:, 1:]
    # corners with filled cells on one diagonal and free ones on the other
    low, high = filled[:, :-1], filled[:, 1:]
    pinched = (low << 1 & high & ~low & ~(high << 1)) | (low & high << 1 & ~(low << 1) & ~high)
    if pinched.any():
        i, y = np.argwhere(pinched)[0]
        bits = int(pinched[i, y])
        raise ContourError(f"pinched outer boundary at corner {((bits & -bits).bit_length() - 1, int(y) + 1)}")
    bottom, right, top, left = filled & ~below, filled & ~(filled >> 1), filled & ~above, filled & ~(filled << 1)
    if not np.array_equal(bottom | right | top | left, rows):
        raise ContourError("perimeter walk does not match the exposed boundary set")
    last = (bottom & ~right, right & ~top, top & ~left, left & ~bottom)
    if ((last[0] & last[2]) | (last[1] & last[3]) | (bottom & right & top & left)).any():
        raise ContourError("outer boundary revisits a site; no simple cycle exists")
    diagonal = (below >> 1, above >> 1, above << 1, below << 1)
    moves = np.stack([m for side, d in zip(last, diagonal) for m in (side & ~d, side & d)], axis=-1)

    n = _popcounts(rows, width)
    columns = np.bitwise_or.reduce(rows, axis=1)
    x = _popcounts(((columns & ~columns + 1) - 1)[:, None], width)
    y = (rows >> x[:, None] & 1).argmax(axis=1)
    block = np.arange(len(rows))
    xs, ys = np.empty((2, len(rows), n.max(initial=0) + 1), np.int16)
    xs[:, 0], ys[:, 0] = x, y
    for t in range(1, xs.shape[1]):
        turn = _TURNS[(moves[block, y] >> x[:, None] & 1).argmax(axis=1)]
        x, y = x + turn[:, 0], y + turn[:, 1]
        xs[:, t], ys[:, t] = x, y
    home = (xs[:, 1:] == xs[:, :1]) & (ys[:, 1:] == ys[:, :1])
    if (home.argmax(axis=1) + 1 != n).any():
        raise ContourError("outer boundary is not a single closed curve")
    on_cycle = np.arange(xs.shape[1] - 1) < n[:, None]
    xs = np.where(on_cycle, xs[:, :-1], xs[block, n - 1][:, None])
    ys = np.where(on_cycle, ys[:, :-1], ys[block, n - 1][:, None])
    if ((xs * np.roll(ys, -1, axis=1) - np.roll(xs, -1, axis=1) * ys).sum(axis=1) <= 0).any():
        raise ContourError("perimeter walk came out clockwise")
    return xs, ys


def outer_boundary(cluster: Cluster) -> Contour:
    """Outer contour of a finite nonempty cluster.

    Flood-fills the exterior of sites-plus-boundary inside a frame padded by
    2, keeps the boundary sites with an axis neighbour in the unbounded
    exterior component (discarding sites that face only enclosed holes), and
    orders them into a counter-clockwise king-move cycle.
    """
    if not cluster.sites:
        raise EmptyClusterError("cannot take the outer boundary of an empty cluster")
    x0 = min(x for x, _ in cluster.sites) - 2
    y0 = min(y for _, y in cluster.sites) - 2
    w = max(x for x, _ in cluster.sites) - x0 + 3
    frame = _frame(w, max(y for _, y in cluster.sites) - y0 + 3)
    wbits = 0
    for x, y in cluster.sites:
        wbits |= 1 << ((y - y0) * w + x - x0)
    _, gamma, ext = _contour_bits(wbits, frame)
    sites = frozenset((x + x0, y + y0) for x, y in _bits_to_sites(gamma, w))
    filled = {(x + x0, y + y0) for x, y in _bits_to_sites(frame[0] & ~ext, w)}
    return Contour(sites=sites, cycle=_ccw_cycle(filled, sites))


def _crossing(x0, y0, x1, y1):
    """Signed crossing of the edge (x0, y0) -> (x1, y1) with the ray from the origin.

    Half-open rule: +1 for an edge from y <= 0 to y > 0 passing right of the
    origin, -1 for one from y > 0 to y <= 0 passing right of it, else 0.  The
    winding number of a cycle is the sum over its edges.  Takes integers, or
    integer arrays for many edges at once.
    """
    up = (y1 > 0) * 1 - (y0 > 0) * 1  # +1 from y <= 0 to y > 0, -1 back
    return up * (up * (x0 * y1 - x1 * y0) > 0)


def _windings(sites):
    """Winding number around the origin of the closed cycle through ``sites``, a sequence of (x, y).

    Coordinates are integers, or arrays whose entries at one index make up
    the cycles of a batch: then the result is an array of winding numbers.
    A cycle may repeat a site; its zero-length edges cross nothing.
    """
    wn = 0
    x0, y0 = sites[-1]
    for x1, y1 in sites:
        wn += _crossing(x0, y0, x1, y1)
        x0, y0 = x1, y1
    return wn


def winding_number(cycle: Sequence[Site], point: Site = (0, 0)) -> int:
    """Integer winding number of a closed lattice cycle around ``point``.

    Exact integer arithmetic; ``point`` must not lie on the cycle.  For the
    unit and diagonal steps used here a segment can only pass through a
    lattice point at its endpoints, so vertex avoidance is sufficient.
    """
    if point in cycle:
        raise ContourError(f"winding number undefined: {point} lies on the cycle")
    px, py = point
    return _windings([(x - px, y - py) for x, y in cycle])
