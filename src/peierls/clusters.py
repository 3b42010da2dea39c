"""Vacant boundaries, outer contours and winding numbers of occupied clusters.

A cluster is a maximal 4-connected set W of occupied sites.  Its site
boundary is the set of vacant sites with an axis neighbour in W.  The outer
contour keeps only the boundary sites that can be reached from infinity by an
axis path whose other sites avoid both the cluster and its boundary; these
sites always form a closed king-move cycle around the cluster, which this
module constructs explicitly with counter-clockwise orientation.  Clusters
come in as site sets: the census enumerates them as shapes and the Monte
Carlo floods occupancy grids without naming clusters, so none is grown here.

:func:`outer_boundary` extracts a cluster's contour (:func:`_contour`) and
traces its cycle (:func:`_cycle`) on row masks held as Python ints, so a
cluster of any width fits.  The census and the event table of
:mod:`peierls.enumeration` take their shapes' contours from the compiled
shape tree (``peierls_shapes`` of :mod:`peierls.kernel`), which runs the
steps of :func:`_contour` one shape at a time as it builds them on 64-bit
rows, and the census traces its distinct contours with the same edge walk
as :func:`_cycle` in the kernel's class pass (``peierls_classes``).  The
tests keep set-based references for both, and check the kernel's contours
and cycles against them.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate
from operator import or_
from typing import NamedTuple, Sequence

from .errors import ContourError, EmptyClusterError
from .lattice import Site, neighbors4

__all__ = [
    "Cluster",
    "Contour",
    "outer_boundary",
    "site_boundary",
    "winding_number",
]


class Cluster(NamedTuple):
    """A finite 4-connected occupied set with its vacant site boundary."""

    sites: frozenset[Site]
    boundary: frozenset[Site]
    origin: Site


class Contour(NamedTuple):
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
# Contour extraction on row masks.
#
# A cluster sits in a frame of rows: entry y of a list is row y of the frame
# as a Python int, bit x for column x, so a frame of any width fits.  The
# frame is ``width`` columns wide, and the cluster in it is padded by 2 on
# every side, so that its vacant boundary stays off the frame border and the
# border ring lies in the exterior.  The site boundary, the exterior flood
# fill and the exposed contour are then a few operations on each row.
# ---------------------------------------------------------------------------


def _nb4(rows: list[int], full: int) -> list[int]:
    """Axis neighbours of the sites of ``rows``, within the frame's ``full`` row mask."""
    below, above = [0, *rows[:-1]], [*rows[1:], 0]
    return [(r << 1 | r >> 1 | b | a) & full for r, b, a in zip(rows, below, above)]


def _contour(cells: list[int], width: int) -> tuple[list[int], list[int], list[int]]:
    """Row masks ``(boundary, contour, exterior)`` of the cluster of rows ``cells`` in a frame ``width`` columns wide.

    The exterior is :func:`_exterior` of the cluster and its boundary;
    because axis steps cannot cross between diagonally adjacent blocked
    sites, it is exactly the unbounded free component, clipped to the frame.
    The contour keeps the boundary sites with an axis neighbour in it.
    """
    full = (1 << width) - 1
    bnd = [n & ~r for n, r in zip(_nb4(cells, full), cells)]
    ext = _exterior([r | b for r, b in zip(cells, bnd)], full)
    return bnd, [b & n for b, n in zip(bnd, _nb4(ext, full))], ext


def _exterior(blocked: list[int], full: int) -> list[int]:
    """The free sites of a frame joined to its edge by axis steps over free sites.

    The fill starts from the free sites that see the frame's top or bottom
    edge along their column, which include the frame's ring when it is free,
    and grows until it stops growing.
    """
    free = [~b & full for b in blocked]
    below = list(accumulate(blocked, or_))
    above = list(accumulate(reversed(blocked), or_))[::-1]
    ext = [f & ~(b & a) for f, b, a in zip(free, below, above)]
    while True:
        grown = [(e | n) & f for e, n, f in zip(ext, _nb4(ext, full), free)]
        if grown == ext:
            return ext
        ext = grown


#: King step from a contour site to the next, per last exposed side (bottom,
#: right, top, left) and then per diagonal cell past its end corner (free,
#: filled): the walk goes on straight or turns right.
_TURNS = ((1, 0), (1, -1), (0, 1), (1, 1), (-1, 0), (-1, 1), (0, -1), (-1, -1))


def _cycle(rows: list[int], width: int, offset: Site = (0, 0)) -> tuple[Site, ...]:
    """The counter-clockwise cycle of a contour, by an edge walk.

    ``rows`` holds the contour's sites as row masks of a frame ``width``
    columns wide, with a free ring around the contour.  Its filled set is
    what :func:`_exterior` of the contour leaves, as its cluster's exterior
    leaves it.  Cell (x, y) is the unit square with corners (x, y) and
    (x + 1, y + 1), and the walk follows the unit edges between the filled
    set and the exterior, keeping the filled set on its left.  So it leaves
    a site at the end of the site's last exposed side (bottom, right, top and
    left in turn) and goes on to the diagonal cell past that corner if it is
    filled, a right turn, or else straight on to the cell ahead.  The cycle
    follows these successors from the smallest site by (x, y), and its sites
    are shifted by ``offset``.

    Raises :class:`ContourError` if the contour is not a simple
    counter-clockwise cycle: a pinched corner, a contour site with no exposed
    side or a filled site with one outside the contour, a site with two runs
    of exposed sides or four, more than one closed curve, or a clockwise walk.
    A pinched corner is named in frame coordinates shifted by ``offset``.
    The census's class pass (``peierls_classes`` of :mod:`peierls.kernel`)
    makes the same walk and the same checks on its contours.
    """
    full = (1 << width) - 1
    filled = [~e & full for e in _exterior(rows, full)]
    # corners with filled cells on one diagonal and free ones on the other
    for y, (low, high) in enumerate(zip(filled, filled[1:])):
        pinched = (low << 1 & high & ~low & ~(high << 1)) | (low & high << 1 & ~(low << 1) & ~high)
        if pinched:
            corner = ((pinched & -pinched).bit_length() - 1 + offset[0], y + 1 + offset[1])
            raise ContourError(f"pinched outer boundary at corner {corner}")
    sides = [
        (f & ~below, f & ~(f >> 1), f & ~above, f & ~(f << 1))
        for f, below, above in zip(filled, [0, *filled[:-1]], [*filled[1:], 0])
    ]
    if any(bottom | right | top | left != row for (bottom, right, top, left), row in zip(sides, rows)):
        raise ContourError("perimeter walk does not match the exposed boundary set")
    last = [(bottom & ~right, right & ~top, top & ~left, left & ~bottom) for bottom, right, top, left in sides]
    if any((b & t) | (r & l) for b, r, t, l in last) or any(b & r & t & l for b, r, t, l in sides):
        raise ContourError("outer boundary revisits a site; no simple cycle exists")

    n = sum(row.bit_count() for row in rows)
    if not n:
        raise ContourError("outer boundary is not a single closed curve")
    columns = reduce(or_, rows)
    x = (columns & -columns).bit_length() - 1
    y = next(y for y, row in enumerate(rows) if row >> x & 1)
    start, cycle, area = (x, y), [], 0  # area: twice the signed area
    for t in range(n):
        cycle.append((x + offset[0], y + offset[1]))
        # a contour site has one last exposed side, and its successor is a
        # contour site inside the ring, so its diagonal cells lie in the frame
        side = next(s for s in range(4) if last[y][s] >> x & 1)
        diagonal = filled[y - 1] if side in (0, 3) else filled[y + 1]
        dx, dy = _TURNS[2 * side + (diagonal >> (x + 1 if side < 2 else x - 1) & 1)]
        area += x * (y + dy) - (x + dx) * y
        x, y = x + dx, y + dy
        if ((x, y) == start) != (t == n - 1):
            raise ContourError("outer boundary is not a single closed curve")
    if area <= 0:
        raise ContourError("perimeter walk came out clockwise")
    return tuple(cycle)


def outer_boundary(cluster: Cluster) -> Contour:
    """Outer contour of a finite nonempty cluster.

    Embeds the cluster in a frame of row masks padded by 2, keeps the
    boundary sites with an axis neighbour in the unbounded exterior
    (:func:`_contour`; sites that face only enclosed holes drop out), and
    orders them into a counter-clockwise king-move cycle (:func:`_cycle`).
    The rows are Python ints, so a cluster of any size fits.
    """
    if not cluster.sites:
        raise EmptyClusterError("cannot take the outer boundary of an empty cluster")
    x0 = min(x for x, _ in cluster.sites) - 2
    y0 = min(y for _, y in cluster.sites) - 2
    width = max(x for x, _ in cluster.sites) - x0 + 3
    cells = [0] * (max(y for _, y in cluster.sites) - y0 + 3)
    for x, y in cluster.sites:
        cells[y - y0] |= 1 << (x - x0)
    _, gamma, _ = _contour(cells, width)
    cycle = _cycle(gamma, width, (x0, y0))
    return Contour(sites=frozenset(cycle), cycle=cycle)


def _crossing(x0, y0, x1, y1):
    """Signed crossing of the edge (x0, y0) -> (x1, y1) with the ray from the origin.

    Half-open rule: +1 for an edge from y <= 0 to y > 0 passing right of the
    origin, -1 for one from y > 0 to y <= 0 passing right of it, else 0.  The
    winding number of a cycle is the sum over its edges.
    """
    up = (y1 > 0) - (y0 > 0)  # +1 from y <= 0 to y > 0, -1 back
    return up * (up * (x0 * y1 - x1 * y0) > 0)


def winding_number(cycle: Sequence[Site], point: Site = (0, 0)) -> int:
    """Integer winding number of a closed lattice cycle around ``point``.

    Exact integer arithmetic; ``point`` must not lie on the cycle.  For the
    unit and diagonal steps used here a segment can only pass through a
    lattice point at its endpoints, so vertex avoidance is sufficient.
    """
    if point in cycle:
        raise ContourError(f"winding number undefined: {point} lies on the cycle")
    px, py = point
    # the sum of the crossings of the cycle's edges, relative to the point; a
    # cycle may repeat a site, and its zero-length edges cross nothing
    wn = 0
    x0, y0 = cycle[-1]
    for x1, y1 in cycle:
        wn += _crossing(x0 - px, y0 - py, x1 - px, y1 - py)
        x0, y0 = x1, y1
    return wn
