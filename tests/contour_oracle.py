"""Set-based references for clusters and outer contours.

Every step works on Python sets of sites, with no bitboards: the exterior is
an explicit flood fill over a padded bounding box, and the filled silhouette
is everything in the box that the fill did not reach.  Only the cycle
ordering is shared with the library (``_ccw_cycle``); the tests check the
resulting cycle's shape independently.  The origin clusters of the census
come from the library's shape iterator, each shape placed once at every
cell, and the origin cluster of an occupancy grid from a depth-first search.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from peierls import Cluster, Contour, Site, neighbors4, site_boundary
from peierls.clusters import _ccw_cycle
from peierls.enumeration import _iter_shapes


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
