import math

import pytest

from peierls import bounds

from contour_oracle import cluster_event_probability, enumerate_origin_clusters
from peierls import (
    DivergentSeries,
    contour_event_table,
    InsufficientData,
    evaluate_polynomial,
    full_count_table,
    growth_rate_estimate,
    interior_capacity,
    outer_boundary,
    polynomial_coefficients,
    series_bound,
    tail_bound,
    threshold_upper_bound,
    truncated_q,
    walk_bound,
)


# ---------------------------------------------------------------------------
# tail bound
# ---------------------------------------------------------------------------


def test_tail_hand_values():
    assert tail_bound(0.9, 4) == pytest.approx(0.08, rel=1e-12)
    assert tail_bound(0.95, 4) == pytest.approx(1 / 360, rel=1e-12)


def test_tail_matches_direct_summation():
    for c in (0.85, 0.9, 0.95):
        direct = math.fsum((1 - c) ** k * walk_bound(k) for k in range(4, 201))
        remainder = tail_bound(c, 201)
        assert abs(tail_bound(c, 4) - direct) <= remainder * (1 + 1e-9) + 1e-15


def test_tail_monotone_decreasing_in_r():
    values = [tail_bound(0.9, r) for r in range(4, 60)]
    for a, b in zip(values, values[1:]):
        assert b <= a
    assert values[-1] < 1e-12


def test_tail_diverges_toward_four_fifths():
    values = [tail_bound(0.8 + eps, 4) for eps in (1e-2, 1e-3, 1e-4, 1e-5)]
    assert values == sorted(values)
    assert values[-1] > 1e6
    with pytest.raises(DivergentSeries):
        tail_bound(0.8, 4)
    with pytest.raises(DivergentSeries):
        tail_bound(0.5, 4)


def test_tail_argument_validation():
    with pytest.raises(ValueError):
        tail_bound(0.9, 3)
    with pytest.raises(ValueError):
        tail_bound(1.5, 4)
    with pytest.raises(ValueError):
        tail_bound(0.9, 4, mode="bogus")


def test_table_mode_ordering(table10):
    c = 0.9
    exact_val = series_bound(c, table10, "exact")
    sa_val = series_bound(c, table10, "sa")
    analytic = series_bound(c)
    assert exact_val <= sa_val <= analytic
    # table tails are still tails: decreasing in r
    assert tail_bound(c, 8, table10, "exact") <= tail_bound(c, 4, table10, "exact")


def test_series_bound_is_tail_from_four():
    assert series_bound(0.9) == tail_bound(0.9, 4)
    assert series_bound(0.95) == tail_bound(0.95, 4)


# ---------------------------------------------------------------------------
# threshold bounds
# ---------------------------------------------------------------------------


def test_analytic_threshold_exact():
    assert threshold_upper_bound() == 0.8


def test_refined_threshold_strictly_inside(table10):
    refined = threshold_upper_bound(table10, "refined")
    assert 1 / 3 < refined < 0.8
    rate, spread = growth_rate_estimate(table10)
    assert rate < 5
    assert spread >= 0
    assert refined == 1 - 1 / rate


def test_refined_threshold_needs_depth():
    shallow = full_count_table(7)
    with pytest.raises(InsufficientData):
        threshold_upper_bound(shallow, "refined")


# ---------------------------------------------------------------------------
# truncated polynomial
# ---------------------------------------------------------------------------


def test_truncated_hand_value():
    rep = truncated_q(0.9, 5)
    assert abs(rep.q_truncated - 0.89991) <= 1e-12
    assert rep.guarantee == "tail"
    assert rep.tail == pytest.approx(0.05, rel=1e-12)


def test_truncated_at_full_concentration():
    for r in (4, 6, 10):
        assert truncated_q(1.0, r).q_truncated == 1.0


def test_truncated_monotone_in_r():
    values = [truncated_q(0.9, r).q_truncated for r in range(4, 13)]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-15


def test_successive_truncations_within_tail():
    c = 0.9
    for r in (5, 7, 9):
        a = truncated_q(c, r).q_truncated
        b = truncated_q(c, r + 2).q_truncated
        assert abs(a - b) <= tail_bound(c, r) + 1e-15


def test_polynomial_coefficients_evaluate_exactly():
    for c in (0.82, 0.9, 0.97, 1.0):
        rep = truncated_q(c, 9)
        assert evaluate_polynomial(rep.coefficients, c) == pytest.approx(rep.q_truncated, abs=1e-12)
    rep = truncated_q(0.9, 9)
    assert all(isinstance(a, int) for a in rep.coefficients)


def test_sweep_expands_the_polynomial_once(monkeypatch):
    calls = []

    def counted(events):
        calls.append(len(events))
        return polynomial_coefficients(events)

    monkeypatch.setattr(bounds, "polynomial_coefficients", counted)
    bounds._coefficients.cache_clear()
    events = contour_event_table(8)
    reports = [truncated_q(c, 9, events=events) for c in (0.85, 0.9, 0.95)]
    assert calls == [len(events)]
    assert all(rep.coefficients == polynomial_coefficients(events) for rep in reports)
    # another census expands its own polynomial
    assert truncated_q(0.9, 7).coefficients == polynomial_coefficients(contour_event_table(6))
    assert len(calls) == 2


def test_per_contour_events_dominated_by_contour_weight():
    # P(contour) as an exact sum over realizing clusters never exceeds
    # (1-c)**length, for every contour seen at small scale
    c = 0.9
    by_contour = {}
    for cl in enumerate_origin_clusters(interior_capacity(7)):
        ct = outer_boundary(cl)
        if ct.length <= 7:
            by_contour.setdefault(ct.sites, []).append(cl)
    assert by_contour
    for sites, clusters in by_contour.items():
        p = math.fsum(cluster_event_probability(cl, c) for cl in clusters)
        assert p <= (1 - c) ** len(sites) + 1e-15


def test_series_floor_consistent_with_truncation():
    # the series floor bounds the contour sum only; adding back the vacant
    # origin term makes it comparable with the truncated polynomial
    for c in (0.85, 0.9, 0.95):
        for r in (5, 8, 11):
            rep = truncated_q(c, r)
            assert rep.q_lower <= rep.q_truncated + (1 - c) + 1e-12


def test_no_guarantee_below_four_fifths():
    rep = truncated_q(0.7, 6)
    assert rep.guarantee == "none"
    assert rep.tail is None and rep.series_bound is None
    assert rep.q_lower == 0.0
    # the polynomial itself is still a valid polynomial value
    assert 0.0 <= rep.q_truncated <= 1.0


def test_truncated_argument_validation():
    with pytest.raises(ValueError):
        truncated_q(1.2, 5)
    with pytest.raises(ValueError):
        truncated_q(0.9, 3)


def test_report_json_roundtrip():
    rep = truncated_q(0.9, 6)
    doc = rep.to_json_dict()
    assert doc["c"] == 0.9 and doc["r"] == 6
    assert doc["q_truncated"] == rep.q_truncated
    assert doc["guarantee"] == "tail"
