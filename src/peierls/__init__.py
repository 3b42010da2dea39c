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
    EMPTY_CLUSTER,
    ESCAPES_WINDOW,
    Cluster,
    Contour,
    cluster_at,
    cluster_event_probability,
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
    enumerate_origin_clusters,
    exact_contour_counts,
    full_count_table,
    interior_capacity,
    self_avoiding_circuit_count,
    walk_bound,
)
from .errors import (
    CapExceeded,
    ContourError,
    DivergentSeries,
    EmptyClusterError,
    IncompletenessError,
    InsufficientData,
    NoRayIntersection,
    PeierlsError,
    SiteOutsideWindow,
)
from .lattice import (
    CoupledField,
    Site,
    Window,
    neighbors4,
    neighbors8,
    sample_field,
    site_uniform,
    trial_seed,
    uniform_grid,
)
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
    "CapExceeded",
    "ClassKey",
    "Cluster",
    "Contour",
    "ContourError",
    "CountTable",
    "CoupledField",
    "DivergentSeries",
    "EMPTY_CLUSTER",
    "ESCAPES_WINDOW",
    "EmptyClusterError",
    "IncompletenessError",
    "InsufficientData",
    "McEstimate",
    "NoRayIntersection",
    "PeierlsError",
    "SelfAvoidingCounts",
    "Site",
    "SiteOutsideWindow",
    "ThresholdResult",
    "Window",
    "bisect_threshold",
    "class_decomposition",
    "cluster_at",
    "cluster_event_probability",
    "contour_event_table",
    "enumerate_origin_clusters",
    "estimate_crossing",
    "estimate_origin_reach",
    "evaluate_polynomial",
    "exact_contour_counts",
    "exact_origin_reach_probability",
    "full_count_table",
    "growth_rate_estimate",
    "interior_capacity",
    "neighbors4",
    "neighbors8",
    "outer_boundary",
    "polynomial_coefficients",
    "sample_field",
    "self_avoiding_circuit_count",
    "series_bound",
    "site_boundary",
    "site_uniform",
    "tail_bound",
    "threshold_upper_bound",
    "trial_seed",
    "truncated_q",
    "uniform_grid",
    "walk_bound",
    "winding_number",
]
