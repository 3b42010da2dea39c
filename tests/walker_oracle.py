"""Recursive circuit walker on site tuples: the slow reference for the frontier walker.

A depth-first walk, one site at a time: each closure candidate runs the full
``winding_number`` of its path, visited and forbidden sites are Python sets,
and the set key is a frozenset of the path, so none of the library walker's
tables, masks or running winding sums are shared.  It visits the same nodes,
in its own order, and raises ``CapExceeded`` under the same condition: more
than ``max_nodes`` nodes.
"""

from __future__ import annotations

from peierls import CapExceeded, SelfAvoidingCounts, winding_number
from peierls.lattice import NEIGHBOR_OFFSETS_8


def oracle_circuit_count(k_max: int, *, rule: str = "five", max_nodes: int = 200_000_000) -> SelfAvoidingCounts:
    # a step turns the heading d by at most 90 degrees (five) or 135 (seven)
    turns = {"five": 2, "seven": 3}[rule]
    allowed = [[(d + t) % 8 for t in range(-turns, turns + 1)] for d in range(8)]
    offsets = NEIGHBOR_OFFSETS_8
    walks = {k: 0 for k in range(4, k_max + 1)}
    distinct: dict[int, set[frozenset]] = {k: set() for k in range(4, k_max + 1)}
    nodes = 0

    for l in range(1, (k_max - 2) // 2 + 1):
        start = (l, 0)
        forbidden = {(j, 0) for j in range(l)}
        for first_dir in (0, 1, 2, 3, 7):
            dx, dy = offsets[first_dir]
            x1 = (l + dx, dy)
            path = [start, x1]
            visited = {start, x1}

            def extend(pos, d: int, depth: int) -> None:
                nonlocal nodes
                px, py = pos
                if depth >= 4 and max(abs(px - l), abs(py)) == 1:
                    if winding_number(path) != 0:
                        walks[depth] += 1
                        distinct[depth].add(frozenset(path))
                if depth == k_max:
                    return
                budget = k_max - depth
                for nd in allowed[d]:
                    ox, oy = offsets[nd]
                    nxt = (px + ox, py + oy)
                    if nxt in visited or nxt in forbidden:
                        continue
                    if max(abs(nxt[0] - l), abs(nxt[1])) > budget:
                        continue
                    nodes += 1
                    if nodes > max_nodes:
                        raise CapExceeded(f"circuit search exceeded {max_nodes} nodes; raise max_nodes")
                    visited.add(nxt)
                    path.append(nxt)
                    extend(nxt, nd, depth + 1)
                    path.pop()
                    visited.discard(nxt)

            extend(x1, first_dir, 2)

    return SelfAvoidingCounts(
        k_max=k_max,
        rule=rule,
        walks=walks,
        distinct_sets={k: len(s) for k, s in distinct.items()},
        nodes=nodes,
    )
