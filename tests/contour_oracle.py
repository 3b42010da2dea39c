"""Set-based outer contour: the slow reference for the bitboard extractor.

Every step works on Python sets of sites, with no bitboards: the exterior is
an explicit flood fill over a padded bounding box, and the filled silhouette
is everything in the box that the fill did not reach.  Only the cycle
ordering is shared with the library (``_ccw_cycle``); the tests check the
resulting cycle's shape independently.
"""

from __future__ import annotations

from peierls import Cluster, Contour, neighbors4
from peierls.clusters import _ccw_cycle


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
