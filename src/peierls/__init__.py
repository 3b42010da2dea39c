"""Site percolation on the square lattice: exact contour census, series
bounds on the percolation threshold, and Monte Carlo validation.

The library is organized around one chain of ideas.  A vacant circuit of
king-move neighbours around the origin blocks percolation; counting such
circuits per length, exactly and through walk bounds, turns the geometric
series in (1 - c) into a threshold bound and into a truncated polynomial for
the no-percolation probability with a guaranteed tail error.  Finite-window
Monte Carlo with coupled, counter-based random fields cross-checks every
piece at desk scale.
"""

from .bounds import (
    BoundReport,
    evaluate_polynomial,
    growth_rate_estimate,
    polynomial_coefficients,
    series_bound,
    tail_bound,
    threshold_upper_bound,
    truncated_q,
)
from .clusters import (
    Cluster,
    Contour,
    outer_boundary,
    site_boundary,
    winding_number,
)
from .enumeration import (
    ClassKey,
    CountTable,
    SelfAvoidingCounts,
    class_decomposition,
    contour_event_table,
    exact_contour_counts,
    full_count_table,
    interior_capacity,
    self_avoiding_circuit_count,
    walk_bound,
)
from .errors import (
    BuildError,
    CapExceeded,
    ContourError,
    DivergentSeries,
    EmptyClusterError,
    IncompletenessError,
    InsufficientData,
    NoRayIntersection,
    PeierlsError,
    WorkerDied,
)
from .lattice import Site, Window, neighbors4
from .montecarlo import (
    McEstimate,
    ThresholdResult,
    bisect_threshold,
    estimate_crossing,
    estimate_origin_reach,
    exact_origin_reach_probability,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BuildError",
    "CapExceeded",
    "ClassKey",
    "Cluster",
    "Contour",
    "ContourError",
    "CountTable",
    "DivergentSeries",
    "EmptyClusterError",
    "IncompletenessError",
    "InsufficientData",
    "McEstimate",
    "NoRayIntersection",
    "PeierlsError",
    "SelfAvoidingCounts",
    "Site",
    "ThresholdResult",
    "Window",
    "WorkerDied",
    "bisect_threshold",
    "class_decomposition",
    "contour_event_table",
    "estimate_crossing",
    "estimate_origin_reach",
    "evaluate_polynomial",
    "exact_contour_counts",
    "exact_origin_reach_probability",
    "full_count_table",
    "growth_rate_estimate",
    "interior_capacity",
    "neighbors4",
    "outer_boundary",
    "polynomial_coefficients",
    "self_avoiding_circuit_count",
    "series_bound",
    "site_boundary",
    "tail_bound",
    "threshold_upper_bound",
    "truncated_q",
    "walk_bound",
    "winding_number",
]
