"""Set-based references for clusters and outer contours.

Every step works on Python sets of sites, with no bitboards: the exterior is
an explicit flood fill over a padded bounding box, and the filled silhouette
is everything in the box that the fill did not reach.  Only the cycle
ordering is shared with the library (``_ccw_cycle``); the tests check the
resulting cycle's shape independently.  The origin clusters of the census
come from the library's shape iterator, each shape placed once at every
cell, and the origin cluster of an occupancy grid from a depth-first search.

``census_part`` is the reference for the census's block kernel: it extracts
one shape at a time, each embedded by ``_embed`` in its own big-integer
bitboard for ``clusters._contour_bits``, and keys it by ``_canonical_contour``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from peierls import (
    Cluster,
    Contour,
    ContourError,
    IncompletenessError,
    Site,
    clusters,
    interior_capacity,
    neighbors4,
    site_boundary,
)
from peierls.clusters import _ccw_cycle
from peierls.enumeration import _CANON_STRIDE, _SHAPE_LIMIT, _ShapeTally, _iter_shapes, _max_span


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
    return wbits, clusters._frame(fw, h + 4)


def _canonical_contour(gamma: int, w: int):
    """Translate a contour bitboard so its bounding box starts at (0, 0).

    Returns ``(key, ox, oy)`` where key is the contour re-encoded with stride
    32 and (ox, oy) is the frame offset of the bounding-box corner.
    """
    cells = clusters._bits_to_sites(gamma, w)
    ox = min(c[0] for c in cells)
    oy = min(c[1] for c in cells)
    key = 0
    for x, y in cells:
        key |= 1 << ((y - oy) * _CANON_STRIDE + (x - ox))
    return key, ox, oy


def census_part(k_max: int, cap: int, part: int, parts: int):
    """Shape-by-shape twin of ``enumeration._census_part``: one bitboard contour per shape."""
    contours: dict[int, Contour] = {}
    covers: dict[int, dict[int, int]] = {}
    span = _max_span(k_max)
    tally = _ShapeTally(_SHAPE_LIMIT)
    for shape, _, xmin, w, h in _iter_shapes(cap, span, part, parts, tally):
        if w > span or h > span:
            continue
        wbits, frame = _embed(shape, xmin, w, h)
        _, gamma, ext = clusters._contour_bits(wbits, frame)
        glen = gamma.bit_count()
        if glen > k_max:
            continue
        if glen < 4:
            raise ContourError(f"shape produced a contour of impossible length {glen}")
        enclosed = (frame[0] & ~ext & ~gamma).bit_count()
        if enclosed > interior_capacity(glen):
            raise IncompletenessError(
                f"a contour of length {glen} encloses {enclosed} sites, more than the capacity "
                "bound allows; the completeness cap is unsound for this input"
            )
        key, ox, oy = _canonical_contour(gamma, frame[4])
        if key not in contours:
            contours[key] = clusters._bits_contour(gamma, ext, frame, -ox, -oy)
        # origin positions in the canonical frame: shape cells shifted like gamma
        n = len(shape)
        pos = 0
        for e in shape:
            cx = (e & 63) - xmin + 2 - ox
            cy = (e >> 6) + 2 - oy
            pos |= 1 << (cy * _CANON_STRIDE + cx)
        by_size = covers.setdefault(key, {})
        by_size[n] = by_size.get(n, 0) | pos
    return tally.shapes, covers, contours
