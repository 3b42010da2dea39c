"""Square-lattice geometry, finite windows, and the counter-based field hash.

Sites are plain ``(x, y)`` integer tuples.  Two adjacency relations are used
throughout the package: the 4-site axis neighbourhood (von Neumann) and the
8-site king-move neighbourhood (Moore).  Their orderings are fixed once so
every traversal, contour orientation, and enumeration is reproducible:

* 4-neighbour order: E, N, W, S
* 8-neighbour order: E, NE, N, NW, W, SW, S, SE (counter-clockwise)

A random field attaches one 64-bit hash to each site, a pure function of
``(seed, x, y)``; the site is occupied at concentration c when the 53-bit
uniform the hash encodes is below c.  The hash of a site never depends on
the window radius, so enlarging a window extends a field without disturbing
existing sites, and thresholding one field at growing concentrations yields
nested occupied sets (coupled sampling).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Site = tuple[int, int]

#: Axis offsets in E, N, W, S order.
NEIGHBOR_OFFSETS_4: tuple[Site, ...] = ((1, 0), (0, 1), (-1, 0), (0, -1))

#: King-move offsets in counter-clockwise order starting east.
NEIGHBOR_OFFSETS_8: tuple[Site, ...] = (
    (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1),
)


def neighbors4(site: Site) -> list[Site]:
    """The 4 axis neighbours of ``site`` in E, N, W, S order."""
    x, y = site
    return [(x + dx, y + dy) for dx, dy in NEIGHBOR_OFFSETS_4]


# ---------------------------------------------------------------------------
# Counter-based site hashes.
#
# A splitmix-style avalanche over (seed, x, y): with ``mix`` the 64-bit
# finalizer of :func:`_np_mix64`, a site's hash is
# mix(mix(mix(seed ^ _GOLDEN) + x * _XSALT) + y * _YSALT), all mod 2**64.
# :func:`_hash_windows` computes it with numpy uint64 arithmetic over whole
# windows or their central bands of rows, one cache-sized block of sites at a
# time.
# ---------------------------------------------------------------------------

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_XSALT = 0xD1B54A32D192ED03
_YSALT = 0x8CB92BA72F3D8DD7
_TRIALSALT = 0xD1342543DE82EF95

#: Sites hashed per block: the block's uint64 hashes and the mixer's scratch
#: (512 KiB together) stay in L2 while the block is mixed and reduced.  On a
#: 2-core Xeon with 2 MiB of L2 a core, hashing radius-128 windows in blocks of
#: 32K-64K sites took 4-5 ns a site, 16K up to 6.5 ns and 4K about 10 ns.
_BLOCK_SITES = 1 << 15
#: Per process, the two block buffers of :func:`_hash_windows`, kept from
#: call to call under the key "pair".  Two fresh arrays of up to 256 KiB a
#: call lie past glibc's default mmap threshold, so each call would map them
#: anew and fault their pages in: about 13,000 page faults and 15 % of the
#: run time of 2,500 origin-reach trials at radius 128.  A call takes the
#: pair out while it runs, so calls on two threads of one process never
#: share it.
_block_buffers: dict[str, np.ndarray] = {}


def _hash_windows(seeds: np.ndarray, radius: int, out: np.ndarray, reduce) -> None:
    """Hash the central band of one window per uint64 seed and reduce the hashes into ``out``.

    ``out`` has shape ``(seeds.size, 2*h + 1, side)`` with ``side = 2*radius+1``
    and ``0 <= h <= radius``, any strides; it holds the band of rows |y| <= h,
    the whole window when h is the radius.  Entry ``[t, y + h, x + radius]``
    belongs to the hash of site (x, y) under seed ``seeds[t]``, which does not
    depend on the window or the band.  The sites are hashed in blocks of
    about ``_BLOCK_SITES``: whole bands when several fit in a block, else row
    slices of one band.  For each block, ``reduce(z, dst)`` writes ``dst``,
    the block's slice of ``out``, from ``z``, the block's hashes laid out
    like ``dst``; it may overwrite ``z``.  No hash array larger than a block
    ever exists, and the process reuses its two block buffers from call to
    call (``_block_buffers``).
    """
    side = 2 * radius + 1
    height = out.shape[1]
    coords = np.arange(-radius, radius + 1, dtype=np.int64).view(np.uint64)
    h0 = _np_mix64(seeds ^ np.uint64(_GOLDEN), np.empty_like(seeds))
    hx = h0[:, np.newaxis] + coords[np.newaxis, :] * np.uint64(_XSALT)
    _np_mix64(hx, np.empty_like(hx))
    band = coords[radius - height // 2 : radius + height // 2 + 1]
    yterm = (band * np.uint64(_YSALT))[:, np.newaxis]
    trials = _even_piece(seeds.size, _BLOCK_SITES // (height * side))
    rows = _even_piece(height, _BLOCK_SITES // side)
    n = trials * rows * side
    pair = _block_buffers.pop("pair", None)
    if pair is None or pair.shape[1] < n:
        pair = np.empty((2, n), dtype=np.uint64)
    z, tmp = (buf[:n].reshape(trials, rows, side) for buf in pair)
    for t0 in range(0, seeds.size, trials):
        t1 = min(t0 + trials, seeds.size)
        for y0 in range(0, height, rows):
            y1 = min(y0 + rows, height)
            zb = z[: t1 - t0, : y1 - y0]
            np.add(hx[t0:t1, np.newaxis, :], yterm[y0:y1], out=zb)
            reduce(_np_mix64(zb, tmp[: t1 - t0, : y1 - y0]), out[t0:t1, y0:y1])
    _block_buffers["pair"] = pair


def _even_piece(n: int, most: int) -> int:
    """Piece size when ``n`` items are cut into the fewest pieces of at most ``max(most, 1)``, evened out.

    Evening out keeps a last sliver block from costing a block's Python
    overhead for a few sites.
    """
    pieces = max(1, -(-n // max(most, 1)))
    return max(1, -(-n // pieces))


def _np_mix64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer applied in place to a uint64 array, with scratch ``tmp`` of its shape; returns ``z``."""
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= np.uint64(0x94D049BB133111EB)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


@dataclass(frozen=True)
class Window:
    """Centered square region {(x, y) : max(|x|, |y|) <= radius} of the lattice."""

    radius: int

    def __post_init__(self) -> None:
        if self.radius < 1:
            raise ValueError(f"window radius must be >= 1, got {self.radius}")

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    @property
    def site_count(self) -> int:
        return self.side * self.side
