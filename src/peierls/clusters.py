"""Vacant boundaries, outer contours and winding numbers of occupied clusters.

A cluster is a maximal 4-connected set W of occupied sites.  Its site
boundary is the set of vacant sites with an axis neighbour in W.  The outer
contour keeps only the boundary sites that can be reached from infinity by an
axis path whose other sites avoid both the cluster and its boundary; these
sites always form a closed king-move cycle around the cluster, which this
module constructs explicitly with counter-clockwise orientation.  Clusters
come in as site sets: the census enumerates them as shapes and the Monte
Carlo floods occupancy grids without naming clusters, so none is grown here.

The package has one contour extractor, :func:`_contour_rows`, and one cycle
tracer, :func:`_cycle_rows`.  Both run on a numpy block of row masks:
:func:`outer_boundary` extracts and traces a block of one cluster of any
size, and the census of :mod:`peierls.enumeration` traces all its distinct
contours at once.  The census and the event table take their shapes'
contours from the compiled shape tree (``peierls_shapes`` of
:mod:`peierls.kernel`), which runs the steps of :func:`_contour_rows` one
shape at a time as it builds them.  The tests keep set-based references for
both, and check the kernel's contours against them.
"""

from __future__ import annotations

from dataclasses import dataclass
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
# A block of clusters is an (N, H) numpy array of row masks: entry [i, y]
# holds row y of cluster i's frame, bit x for column x.  The frame is
# ``width`` columns wide, shared by the block, and every cluster in it is
# padded by 2 on every side, so that its vacant boundary stays off the frame
# border and the border ring lies in the exterior.  The site boundary, the
# exterior flood fill and the exposed contour are then a few operations on
# the whole block each.
# ---------------------------------------------------------------------------


def _row_dtype(width: int):
    """The numpy type of a row of ``width`` bits.

    uint16 holds the frames of the census's distinct contours at k = 12,
    which :func:`_cycle_rows` traces in 9 columns, where it is faster than
    uint64.  Wider frames come from longer contours or from
    :func:`outer_boundary`, and past 64 columns a row is a Python int in an
    object array, which the kernels take as they take fixed-width rows.
    """
    return np.uint16 if width <= 16 else np.uint64 if width <= 64 else object


def _popcounts(rows: np.ndarray) -> np.ndarray:
    """Set bits per cluster of a block of row masks."""
    return np.bitwise_count(rows).sum(axis=1, dtype=np.int64)


def _nb4_rows(rows: np.ndarray, full) -> np.ndarray:
    """Axis neighbours of every cluster of a block, within the frame's ``full`` row mask."""
    out = (rows << 1 | rows >> 1) & full
    out[:, 1:] |= rows[:, :-1]
    out[:, :-1] |= rows[:, 1:]
    return out


def _contour_rows(rows: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row masks ``(boundary, contour, exterior)`` of a block of clusters.

    ``rows`` is the block's ``(N, H)`` array of ``width``-bit row masks.  The
    exterior is :func:`_exterior_rows` of the clusters and their boundaries;
    because axis steps cannot cross between diagonally adjacent blocked
    sites, it is exactly the unbounded free component, clipped to the frame.
    The contour keeps the boundary sites with an axis neighbour in it.
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


#: King step from a contour site to the next, per last exposed side (bottom,
#: right, top, left) and then per diagonal cell past its end corner (free,
#: filled): the walk goes on straight or turns right.
_TURNS = np.array([(1, 0), (1, -1), (0, 1), (1, 1), (-1, 0), (-1, 1), (0, -1), (-1, -1)])


def _cycle_rows(rows: np.ndarray, width: int, offset: Site = (0, 0)) -> tuple[np.ndarray, np.ndarray]:
    """The counter-clockwise cycles of a block of contours, by an edge walk.

    ``rows`` holds each contour's sites as ``(N, H)`` row masks of ``width``
    bits, with a free ring around every contour.  A contour's filled set is
    what :func:`_exterior_rows` of the contour leaves, as its cluster's
    exterior leaves it.  Cell (x, y) is the unit square with corners (x, y)
    and (x + 1, y + 1), and the walk follows the unit edges between the
    filled set and the exterior, keeping the filled set on its left.  So it
    leaves a site at the end of the site's last exposed side (bottom, right,
    top and left in turn) and goes on to the diagonal cell past that corner
    if it is filled, a right turn, or else straight on to the cell ahead.
    The cycle follows these successors from the smallest site by (x, y).

    Returns the ``(N, n)`` x and y of the cycles' sites in order, n the
    longest contour, each row padded by repeating its last site.  They are
    int16, which keeps the census's arrays of positioned cycles small, while
    the frame is at most 2**15 sites wide and high, and int64 beyond.  Raises
    :class:`ContourError` if any contour is not a simple counter-clockwise
    cycle: a pinched corner, a contour site with no exposed side or a filled
    site with one outside the contour, a site with two runs of exposed sides
    or four, more than one closed curve, or a clockwise walk.  A pinched
    corner is named in frame coordinates shifted by ``offset``.
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
        corner = ((bits & -bits).bit_length() - 1 + offset[0], int(y) + 1 + offset[1])
        raise ContourError(f"pinched outer boundary at corner {corner}")
    bottom, right, top, left = filled & ~below, filled & ~(filled >> 1), filled & ~above, filled & ~(filled << 1)
    if not np.array_equal(bottom | right | top | left, rows):
        raise ContourError("perimeter walk does not match the exposed boundary set")
    last = (bottom & ~right, right & ~top, top & ~left, left & ~bottom)
    if ((last[0] & last[2]) | (last[1] & last[3]) | (bottom & right & top & left)).any():
        raise ContourError("outer boundary revisits a site; no simple cycle exists")
    diagonal = (below >> 1, above >> 1, above << 1, below << 1)
    moves = np.stack([m for side, d in zip(last, diagonal) for m in (side & ~d, side & d)], axis=-1)

    n = _popcounts(rows)
    columns = np.bitwise_or.reduce(rows, axis=1)
    x = _popcounts(((columns & ~columns + 1) - 1)[:, None])
    # shifts in the rows' own type, which uint64 and object rows need
    y = (rows >> x.astype(rows.dtype)[:, None] & 1 != 0).argmax(axis=1)
    block = np.arange(len(rows))
    small = max(width, rows.shape[1]) <= 1 << 15
    xs, ys = np.empty((2, len(rows), n.max(initial=0) + 1), np.int16 if small else np.int64)
    xs[:, 0], ys[:, 0] = x, y
    for t in range(1, xs.shape[1]):
        turn = _TURNS[(moves[block, y] >> x.astype(rows.dtype)[:, None] & 1 != 0).argmax(axis=1)]
        x, y = x + turn[:, 0], y + turn[:, 1]
        xs[:, t], ys[:, t] = x, y
    home = (xs[:, 1:] == xs[:, :1]) & (ys[:, 1:] == ys[:, :1])
    if (home.argmax(axis=1) + 1 != n).any():
        raise ContourError("outer boundary is not a single closed curve")
    on_cycle = np.arange(xs.shape[1] - 1) < n[:, None]
    xs = np.where(on_cycle, xs[:, :-1], xs[block, n - 1][:, None])
    ys = np.where(on_cycle, ys[:, :-1], ys[block, n - 1][:, None])
    # twice the signed area, in int64: products of int16 coordinates wrap
    x, y = xs.astype(np.int64), ys.astype(np.int64)
    if ((x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y).sum(axis=1) <= 0).any():
        raise ContourError("perimeter walk came out clockwise")
    return xs, ys


def outer_boundary(cluster: Cluster) -> Contour:
    """Outer contour of a finite nonempty cluster.

    Embeds the cluster as a block of one in a frame padded by 2, keeps the
    boundary sites with an axis neighbour in the unbounded exterior
    (:func:`_contour_rows`; sites that face only enclosed holes drop out),
    and orders them into a counter-clockwise king-move cycle
    (:func:`_cycle_rows`).  A cluster of any size fits, its rows past 64
    columns as Python ints.
    """
    if not cluster.sites:
        raise EmptyClusterError("cannot take the outer boundary of an empty cluster")
    x0 = min(x for x, _ in cluster.sites) - 2
    y0 = min(y for _, y in cluster.sites) - 2
    width = max(x for x, _ in cluster.sites) - x0 + 3
    masks = [0] * (max(y for _, y in cluster.sites) - y0 + 3)
    for x, y in cluster.sites:
        masks[y - y0] |= 1 << (x - x0)
    _, gamma, _ = _contour_rows(np.array([masks], _row_dtype(width)), width)
    xs, ys = _cycle_rows(gamma, width, (x0, y0))
    cycle = tuple((x + x0, y + y0) for x, y in zip(xs[0].tolist(), ys[0].tolist()))
    return Contour(sites=frozenset(cycle), cycle=cycle)


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
