"""One property over every public entry point: a bad integer, seed, concentration or tolerance is refused alike.

Each entry point checks its parameters first, so a value of the wrong kind
raises before the kernel loads or a pool starts, with one exception type per
kind of value and a message that names the parameter.
"""

import inspect
import re
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import peierls
from peierls import (
    Window,
    bisect_threshold,
    contour_event_table,
    estimate_crossing,
    estimate_origin_reach,
    evaluate_polynomial,
    exact_contour_counts,
    exact_origin_reach_probability,
    full_count_table,
    growth_rate_estimate,
    interior_capacity,
    self_avoiding_circuit_count,
    series_bound,
    tail_bound,
    truncated_q,
    walk_bound,
)
from peierls import kernel, pool

#: A count table with circuit counts to length 10, enough for growth_rate_estimate.
_COUNTS = SimpleNamespace(k_max=10, sa_walk={k: 5**k for k in range(4, 11)})

#: (entry point, parameter, kind, the entry point called with that parameter and valid others); the kinds are
#: "integer" (seeds included), "concentration" and "tolerance".
_PARAMETERS = [
    ("walk_bound", "k", "integer", walk_bound),
    ("interior_capacity", "k", "integer", interior_capacity),
    ("Window", "radius", "integer", Window),
    ("exact_contour_counts", "k_max", "integer", lambda v: exact_contour_counts(v)),
    ("exact_contour_counts", "cluster_cap", "integer", lambda v: exact_contour_counts(8, cluster_cap=v)),
    ("exact_contour_counts", "workers", "integer", lambda v: exact_contour_counts(8, workers=v)),
    ("contour_event_table", "max_len", "integer", lambda v: contour_event_table(v)),
    ("contour_event_table", "workers", "integer", lambda v: contour_event_table(8, workers=v)),
    ("self_avoiding_circuit_count", "k_max", "integer", lambda v: self_avoiding_circuit_count(v)),
    ("self_avoiding_circuit_count", "max_nodes", "integer", lambda v: self_avoiding_circuit_count(8, max_nodes=v)),
    ("self_avoiding_circuit_count", "workers", "integer", lambda v: self_avoiding_circuit_count(8, workers=v)),
    ("full_count_table", "k_max", "integer", lambda v: full_count_table(v)),
    ("full_count_table", "cluster_cap", "integer", lambda v: full_count_table(8, cluster_cap=v)),
    ("full_count_table", "max_nodes", "integer", lambda v: full_count_table(8, max_nodes=v)),
    ("full_count_table", "workers", "integer", lambda v: full_count_table(8, workers=v)),
    ("tail_bound", "c", "concentration", lambda v: tail_bound(v, 6)),
    ("tail_bound", "r", "integer", lambda v: tail_bound(0.9, v)),
    ("series_bound", "c", "concentration", series_bound),
    ("truncated_q", "c", "concentration", lambda v: truncated_q(v, 6)),
    ("truncated_q", "r", "integer", lambda v: truncated_q(0.9, v)),
    ("evaluate_polynomial", "c", "concentration", lambda v: evaluate_polynomial((0, 1), v)),
    ("growth_rate_estimate", "last", "integer", lambda v: growth_rate_estimate(_COUNTS, v)),
    ("estimate_origin_reach", "L", "integer", lambda v: estimate_origin_reach(v, 0.5, 10, 1)),
    ("estimate_origin_reach", "c", "concentration", lambda v: estimate_origin_reach(4, v, 10, 1)),
    ("estimate_origin_reach", "trials", "integer", lambda v: estimate_origin_reach(4, 0.5, v, 1)),
    ("estimate_origin_reach", "seed", "integer", lambda v: estimate_origin_reach(4, 0.5, 10, v)),
    ("estimate_origin_reach", "workers", "integer", lambda v: estimate_origin_reach(4, 0.5, 10, 1, workers=v)),
    ("estimate_crossing", "L", "integer", lambda v: estimate_crossing(v, 0.5, 10, 1)),
    ("estimate_crossing", "c", "concentration", lambda v: estimate_crossing(4, v, 10, 1)),
    ("estimate_crossing", "trials", "integer", lambda v: estimate_crossing(4, 0.5, v, 1)),
    ("estimate_crossing", "seed", "integer", lambda v: estimate_crossing(4, 0.5, 10, v)),
    ("estimate_crossing", "workers", "integer", lambda v: estimate_crossing(4, 0.5, 10, 1, workers=v)),
    ("bisect_threshold", "L", "integer", lambda v: bisect_threshold(v, 10, 0.1, 1)),
    ("bisect_threshold", "trials", "integer", lambda v: bisect_threshold(4, v, 0.1, 1)),
    ("bisect_threshold", "tol", "tolerance", lambda v: bisect_threshold(4, 10, v, 1)),
    ("bisect_threshold", "seed", "integer", lambda v: bisect_threshold(4, 10, 0.1, v)),
    ("bisect_threshold", "workers", "integer", lambda v: bisect_threshold(4, 10, 0.1, 1, workers=v)),
    ("exact_origin_reach_probability", "L", "integer", lambda v: exact_origin_reach_probability(v, 0.5)),
    ("exact_origin_reach_probability", "c", "concentration", lambda v: exact_origin_reach_probability(2, v)),
]

#: Values of no numeric kind the package takes: no integer, and no real number.
_NOT_REAL = st.one_of(st.booleans(), st.text(max_size=4), st.none(), st.complex_numbers(allow_nan=False))
#: The bad values of each kind of parameter: an integer takes no float, nan included, and a real parameter no nan.
_BAD = {
    "integer": st.one_of(_NOT_REAL, st.floats(), st.just(float("nan"))),
    "concentration": st.one_of(_NOT_REAL, st.just(float("nan"))),
    "tolerance": st.one_of(_NOT_REAL, st.just(float("nan"))),
}

#: Parameters that take None, for their default.
_TAKE_NONE = {"cluster_cap"}


def _refusal(kind: str, name: str, value) -> tuple[type, str]:
    """The exception type, and a pattern of its message, with which a parameter of ``kind`` refuses ``value``.

    A real parameter refuses nan by its range, and names itself there by
    its noun: the concentration, the tolerance.
    """
    if kind == "integer":
        return TypeError, f"^{re.escape(f'{name} must be an integer, got {value!r}')}$"
    if isinstance(value, float):
        return ValueError, f"^{kind} must lie in .*, got nan$"
    return TypeError, f"^{re.escape(f'{name} must be a real number, got {value!r}')}$"


@settings(max_examples=400, deadline=None)
@given(parameter=st.sampled_from(_PARAMETERS), data=st.data())
def test_every_entry_point_refuses_a_bad_value_of_each_parameter_before_any_work(parameter, data):
    entry, name, kind, call = parameter
    value = data.draw(_BAD[kind].filter(lambda v: v is not None or name not in _TAKE_NONE), label=name)
    error, message = _refusal(kind, name, value)
    with (
        mock.patch.object(kernel, "load", side_effect=AssertionError(f"{entry} loaded the kernel")),
        mock.patch.object(pool, "_fan_out", side_effect=AssertionError(f"{entry} started a pool")),
        pytest.raises(error, match=message),
    ):
        call(value)


def test_every_public_function_with_such_a_parameter_is_covered():
    names = {"k", "k_max", "cluster_cap", "workers", "max_len", "max_nodes", "r", "c", "last", "L", "trials", "seed", "tol"}
    covered = {(entry, name) for entry, name, _, _ in _PARAMETERS}
    for entry in peierls.__all__:
        function = getattr(peierls, entry)
        if inspect.isfunction(function):
            for name in inspect.signature(function).parameters.keys() & names:
                assert (entry, name) in covered
