"""Square-lattice geometry and finite windows.

Sites are plain ``(x, y)`` integer tuples.  Two adjacency relations are used
throughout the package: the 4-site axis neighbourhood (von Neumann) and the
8-site king-move neighbourhood (Moore).  Their orderings are fixed once so
every traversal, contour orientation, and enumeration is reproducible:

* 4-neighbour order: E, N, W, S
* 8-neighbour order: E, NE, N, NW, W, SW, S, SE (counter-clockwise)

The Monte Carlo draws its random fields on windows; their site hash lives
in its flood kernel (see :mod:`peierls.montecarlo`).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import check_integer

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


class _Window(NamedTuple):
    radius: int

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    @property
    def site_count(self) -> int:
        return self.side * self.side


class Window(_Window):
    """Centered square region {(x, y) : max(|x|, |y|) <= radius} of the lattice."""

    __slots__ = ()

    def __new__(cls, radius: int) -> "Window":
        check_integer(radius, "radius")
        if radius < 1:
            raise ValueError(f"window radius must be >= 1, got {radius}")
        return super().__new__(cls, radius)

    @classmethod
    def _make(cls, iterable) -> "Window":
        """The window of the fields in ``iterable``, checked: ``_replace`` builds its copy here."""
        return cls(*iterable)
