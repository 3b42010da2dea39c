"""Square-lattice geometry, finite windows, and reproducible random fields.

Sites are plain ``(x, y)`` integer tuples.  Two adjacency relations are used
throughout the package: the 4-site axis neighbourhood (von Neumann) and the
8-site king-move neighbourhood (Moore).  Their orderings are fixed once so
every traversal, contour orientation, and enumeration is reproducible:

* 4-neighbour order: E, N, W, S
* 8-neighbour order: E, NE, N, NW, W, SW, S, SE (counter-clockwise)

Random fields attach one uniform value in ``[0, 1)`` to each site through a
counter-based hash of ``(seed, x, y)``.  The value of a site never depends on
the window radius, so enlarging a window extends a field without disturbing
existing values, and thresholding one field at growing concentrations yields
nested occupied sets (coupled sampling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import SiteOutsideWindow

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


def neighbors8(site: Site) -> list[Site]:
    """The 8 king-move neighbours of ``site``, counter-clockwise from east."""
    x, y = site
    return [(x + dx, y + dy) for dx, dy in NEIGHBOR_OFFSETS_8]


# ---------------------------------------------------------------------------
# Counter-based uniforms.
#
# A splitmix-style avalanche over (seed, x, y).  The same integer pipeline is
# implemented twice: in pure Python for single sites and with numpy uint64
# arithmetic for whole grids; both produce bit-identical doubles.
# ---------------------------------------------------------------------------

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_XSALT = 0xD1B54A32D192ED03
_YSALT = 0x8CB92BA72F3D8DD7
_TRIALSALT = 0xD1342543DE82EF95


def mix64(z: int) -> int:
    """64-bit finalizer: maps any integer to a well-scrambled 64-bit value."""
    z &= _M64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _M64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _site_hash(seed: int, x: int, y: int) -> int:
    h = mix64((seed ^ _GOLDEN) & _M64)
    h = mix64((h + (x & _M64) * _XSALT) & _M64)
    h = mix64((h + (y & _M64) * _YSALT) & _M64)
    return h


def site_uniform(seed: int, x: int, y: int) -> float:
    """Uniform value in [0, 1) for one site, a pure function of (seed, x, y)."""
    return (_site_hash(seed, x, y) >> 11) * 2.0**-53


def trial_seed(seed: int, index: int) -> int:
    """Derived seed for an independent trial; any subset of trials can be redone."""
    return mix64((seed ^ (index & _M64) * _TRIALSALT) & _M64)


def uniform_grid(seed: int, radius: int) -> np.ndarray:
    """Uniform values for the window of given radius.

    Returns an array of shape ``(2*radius+1, 2*radius+1)`` indexed
    ``[y + radius, x + radius]``.  Entries equal :func:`site_uniform` for the
    same (seed, x, y) bit-exactly, so grids of different radii agree on their
    common sites.
    """
    h = _hash_grids(np.array([seed & _M64], dtype=np.uint64), radius)[0]
    return (h >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _hash_grids(seeds: np.ndarray, radius: int) -> np.ndarray:
    """Site hashes of one window per uint64 seed.

    Entry ``[t, y + radius, x + radius]`` equals ``_site_hash(seeds[t], x, y)``.
    """
    coords = np.arange(-radius, radius + 1, dtype=np.int64).view(np.uint64)
    h0 = _np_mix64(seeds ^ np.uint64(_GOLDEN))
    hx = _np_mix64(h0[:, np.newaxis] + coords[np.newaxis, :] * np.uint64(_XSALT))
    yterm = coords * np.uint64(_YSALT)
    z = np.empty((seeds.size, coords.size, coords.size), dtype=np.uint64)
    np.add(hx[:, np.newaxis, :], yterm[np.newaxis, :, np.newaxis], out=z)
    return _np_mix64(z)


def _np_mix64(z: np.ndarray) -> np.ndarray:
    """:func:`mix64` applied in place to a uint64 array; returns ``z``."""
    tmp = np.empty_like(z)
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

    def contains(self, site: Site) -> bool:
        x, y = site
        return max(abs(x), abs(y)) <= self.radius

    def on_border(self, site: Site) -> bool:
        x, y = site
        return max(abs(x), abs(y)) == self.radius

    def sites(self) -> Iterator[Site]:
        r = self.radius
        for y in range(-r, r + 1):
            for x in range(-r, r + 1):
                yield (x, y)


@dataclass(frozen=True, eq=False)
class CoupledField:
    """One uniform value per window site; occupation is thresholding at c.

    The values are a pure deterministic function of (seed, x, y), so
    regenerating with the same seed reproduces the field bit-exactly, and the
    occupied set at concentration c is a subset of the occupied set at any
    c' >= c on the same field.
    """

    window: Window
    seed: int
    uniforms: np.ndarray

    def value(self, site: Site) -> float:
        if not self.window.contains(site):
            raise SiteOutsideWindow(f"site {site} outside window of radius {self.window.radius}")
        x, y = site
        r = self.window.radius
        return float(self.uniforms[y + r, x + r])

    def is_occupied(self, site: Site, c: float) -> bool:
        return self.value(site) < c

    def occupied_grid(self, c: float) -> np.ndarray:
        """Boolean occupancy grid at concentration c, indexed [y+radius, x+radius]."""
        return self.uniforms < c


def sample_field(window: Window, seed: int) -> CoupledField:
    """Draw the coupled uniform field for ``window`` from ``seed``."""
    grid = uniform_grid(seed, window.radius)
    grid.setflags(write=False)
    return CoupledField(window=window, seed=seed, uniforms=grid)
