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

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Window:
    """Centered square region {(x, y) : max(|x|, |y|) <= radius} of the lattice."""

    radius: int

    def __post_init__(self) -> None:
        check_integer(self.radius, "radius")
        if self.radius < 1:
            raise ValueError(f"window radius must be >= 1, got {self.radius}")

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    @property
    def site_count(self) -> int:
        return self.side * self.side
