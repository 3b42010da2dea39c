"""In-memory spans around the calls into each ``peierls`` module.

The recorder wraps, from outside the package, every function that
``peierls.cli``, ``peierls.bounds`` and ``peierls.enumeration`` import from
another ``peierls`` module, plus the two functions ``full_count_table`` calls
through ``peierls.enumeration``'s own globals.  Nothing under ``src/`` is
edited: the wrappers replace module attributes in the process that runs the
traced command, which exits afterwards.

All wrapped calls happen on the calling thread (the Monte Carlo worker
threads only run package-internal functions), so one parent stack suffices.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

#: Modules whose imports from other ``peierls`` modules are layer boundaries.
BOUNDARY_MODULES = ("peierls.cli", "peierls.bounds", "peierls.enumeration")

#: Calls that stay inside ``peierls.enumeration`` but split the census into
#: its two costly halves.
INTERNAL_CALLS = {"peierls.enumeration": ("exact_contour_counts", "self_avoiding_circuit_count")}


#: Counts taken from a layer's return value, at the boundary where the work happens.
COUNTERS: dict[str, Callable[[object], dict]] = {
    "enumeration.exact_contour_counts": lambda t: {
        "shapes": t.meta["shapes"],
        "distinct_contours": t.meta["distinct_contour_shapes"],
    },
    "enumeration.self_avoiding_circuit_count": lambda sa: {"circuit_nodes": sa.nodes},
    "enumeration.contour_event_table": lambda events: {"event_clusters": sum(events.values())},
    "montecarlo.estimate_origin_reach": lambda est: {"site_trials": (2 * est.L + 1) ** 2 * est.trials},
    "montecarlo.bisect_threshold": lambda res: {
        "midpoints": len(res.trace),
        "field_evals": res.trials * len(res.trace),
    },
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    cpu_start: float
    cpu_end: float
    parent: int
    run: str
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def cpu_seconds(self) -> float:
        return self.cpu_end - self.cpu_start


class Recorder:
    """Collects spans (name, start, end, parent, run id) in memory."""

    def __init__(self, run: str) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run = run

    def call(self, name: str, fn: Callable, *args, **kwargs):
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, time.process_time(), 0.0,
                    self._stack[-1] if self._stack else -1, self.run)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span.cpu_end = time.process_time()
            span.end = time.perf_counter()
        counter = COUNTERS.get(name)
        if counter is not None:
            span.counts = counter(result)
        return result

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Replace every boundary function of the imported ``peierls`` modules by a traced wrapper."""
        for mod_name in BOUNDARY_MODULES:
            mod = sys.modules[mod_name]
            for attr, obj in list(vars(mod).items()):
                imported = (
                    inspect.isfunction(obj)
                    and obj.__module__.startswith("peierls.")
                    and obj.__module__ != mod_name
                )
                if imported or attr in INTERNAL_CALLS.get(mod_name, ()):
                    name = f"{obj.__module__.removeprefix('peierls.')}.{obj.__name__}"
                    setattr(mod, attr, self.wrap(name, obj))

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the part of it covered by its direct children."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            children.setdefault(s.parent, []).append(s)
        out = []
        for i, span in enumerate(self.spans):
            covered = 0.0
            edge = span.start
            for child in sorted(children.get(i, ()), key=lambda c: c.start):
                lo, hi = max(child.start, edge), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out.append(span.seconds - covered)
        return out

    def to_records(self) -> list[dict]:
        return [
            {
                "id": i,
                "name": s.name,
                "run": s.run,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "cpu_s": s.cpu_seconds,
                "self_s": own,
                "counts": s.counts,
            }
            for i, (s, own) in enumerate(zip(self.spans, self.self_seconds()))
        ]
