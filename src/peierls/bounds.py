"""Series bounds on the no-percolation probability and the truncated polynomial.

Summing (1-c)^k over enclosing contours, with the per-length counts bounded
by 4 * 5**(k-2) * (k-1), gives a geometric-type series in zeta = 5 * (1 - c).
It converges exactly when c > 4/5, which bounds the percolation threshold
from above, and its tail past a truncation length r has the closed form

    4 * (1-c)**2 * zeta**(r-2) * ((r-1) * (1-zeta) + zeta) / (1-zeta)**2.

The truncated polynomial sums the exact probabilities of all contours shorter
than r (grouped over every cluster realizing each contour), plus the explicit
vacant-origin event, and carries the tail as a guaranteed error bar whenever
c > 4/5.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .enumeration import CountTable, contour_event_table
from .errors import DivergentSeries, InsufficientData, check_concentration, check_integer

__all__ = [
    "BoundReport",
    "evaluate_polynomial",
    "growth_rate_estimate",
    "polynomial_coefficients",
    "series_bound",
    "tail_bound",
    "threshold_upper_bound",
    "truncated_q",
]

THRESHOLD_ANALYTIC = 0.8

_TABLE_MODES = {"exact": "exact", "sa": "sa_walk"}


def _check_point(c: float, r: int) -> None:
    """Reject a concentration that is no real number in [0, 1], NaN included, and a truncation length below 4 or no integer."""
    check_integer(r, "r")
    check_concentration(c, "c")
    if r < 4:
        raise ValueError(f"truncation length must be >= 4, got {r}")


def _analytic_tail(c: float, r: int) -> float:
    # compare on c itself: rounding in 5 * (1 - c) can land just below 1 at c = 4/5
    if c <= 0.8:
        raise DivergentSeries(f"contour series diverges for c <= 4/5 (c={c})")
    zeta = 5.0 * (1.0 - c)
    return 4.0 * (1.0 - c) ** 2 * zeta ** (r - 2) * ((r - 1) * (1.0 - zeta) + zeta) / (1.0 - zeta) ** 2


def tail_bound(c: float, r: int, counts: CountTable | None = None, mode: str = "analytic") -> float:
    """Upper bound on the contour series restricted to lengths >= r.

    In ``analytic`` mode this is the closed form above.  In ``exact`` or
    ``sa`` mode the lengths covered by ``counts`` are summed directly and the
    analytic form bounds the remainder beyond the table, so the result is
    dominated by the analytic value.  Raises :class:`DivergentSeries` when
    c <= 4/5, where no finite bound exists.
    """
    _check_point(c, r)
    if mode == "analytic":
        return _analytic_tail(c, r)
    column = _TABLE_MODES.get(mode)
    if column is None:
        raise ValueError(f"unknown mode {mode!r}; expected 'analytic', 'exact' or 'sa'")
    if counts is None:
        raise ValueError(f"mode {mode!r} requires a CountTable")
    table = getattr(counts, column)
    if not table:
        raise ValueError(f"count table has no {mode!r} data")
    q = 1.0 - c
    head = math.fsum(q**k * table[k] for k in range(r, counts.k_max + 1))
    return head + _analytic_tail(c, max(r, counts.k_max + 1))


def series_bound(c: float, counts: CountTable | None = None, mode: str = "analytic") -> float:
    """Upper bound on the full contour series (all lengths from 4 up)."""
    return tail_bound(c, 4, counts, mode)


def growth_rate_estimate(counts: CountTable, last: int = 3) -> tuple[float, float]:
    """Largest ratio of consecutive restricted-circuit counts over the last lengths.

    Returns ``(rate, spread)`` where spread is the range of the ratios used,
    a residual-uncertainty indicator for the estimate.  ``last`` is an
    integer >= 1.
    """
    check_integer(last, "last")
    if last < 1:
        raise ValueError(f"last must be >= 1, got {last}")
    if counts.k_max < 8:
        raise InsufficientData(f"need circuit counts up to length >= 8, got {counts.k_max}")
    ratios = []
    for k in range(counts.k_max - last + 1, counts.k_max + 1):
        prev = counts.sa_walk.get(k - 1, 0)
        cur = counts.sa_walk.get(k, 0)
        if prev <= 0 or cur <= 0:
            raise InsufficientData(f"missing circuit counts near length {k}")
        ratios.append(cur / prev)
    return max(ratios), max(ratios) - min(ratios)


def threshold_upper_bound(counts: CountTable | None = None, mode: str = "analytic") -> float:
    """Upper bound on the percolation threshold.

    ``analytic`` mode returns 4/5 exactly, the convergence boundary of the
    series built from the 4 * 5**(k-2) * (k-1) counts.  ``refined`` mode uses
    the measured growth rate of the self-avoiding restricted circuits, whose
    exclusion of self-intersections pushes the rate strictly below 5 and the
    bound strictly below 4/5.
    """
    if mode == "analytic":
        return THRESHOLD_ANALYTIC
    if mode == "refined":
        if counts is None:
            raise ValueError("refined mode requires a CountTable with circuit counts")
        rate, _ = growth_rate_estimate(counts)
        return 1.0 - 1.0 / rate
    raise ValueError(f"unknown mode {mode!r}; expected 'analytic' or 'refined'")


class BoundReport(NamedTuple):
    """Everything the series machinery can say at one (c, r).

    ``q_truncated`` is the truncated polynomial: certainty minus the vacant
    origin event minus every contour event of length < r, summed exactly over
    realizing clusters.  ``q_lower`` is the series floor 1 - series_bound
    clamped to [0, 1]; it bounds the contour sum only, so it exceeds
    ``q_truncated`` by at most the vacant-origin probability plus the tail.
    ``tail`` bounds |Q - q_truncated| whenever ``guarantee`` is ``"tail"``;
    for c <= 4/5 the polynomial is still reported but carries no guarantee.
    """

    c: float
    r: int
    series_bound: float | None
    tail: float | None
    q_lower: float
    q_truncated: float
    threshold_bound: float
    guarantee: str
    coefficients: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return self._asdict() | {"coefficients": list(self.coefficients)}


def polynomial_coefficients(events: dict[tuple[int, int], int]) -> tuple[int, ...]:
    """Exact integer coefficients of the truncated polynomial in c.

    The polynomial is 1 - (1 - c) - sum over events of n * c**w * (1-c)**b,
    expanded with integer arithmetic.
    """
    degree = max((w + b for (w, b) in events), default=1)
    coeffs = [0] * (max(degree, 1) + 1)
    coeffs[1] = 1
    for (w, b), n in events.items():
        for j in range(b + 1):
            coeffs[w + j] -= n * math.comb(b, j) * (-1) ** j
    return tuple(coeffs)


@lru_cache(maxsize=4)
def _coefficients(events: frozenset) -> tuple[int, ...]:
    """:func:`polynomial_coefficients` once per census, for all the concentrations of a sweep."""
    return polynomial_coefficients(dict(events))


def evaluate_polynomial(coefficients: tuple[int, ...], c: float) -> float:
    """Compensated evaluation of an integer-coefficient polynomial at the concentration c."""
    check_concentration(c, "c")
    return math.fsum(a * c**i for i, a in enumerate(coefficients) if a)


def truncated_q(
    c: float,
    r: int,
    *,
    events: dict[tuple[int, int], int] | None = None,
    counts: CountTable | None = None,
    mode: str = "analytic",
) -> BoundReport:
    """Truncated no-contour polynomial at concentration c with error control.

    Sums the exact probability of every contour of length < r via its
    realizing clusters (``events`` may carry a precomputed census to share
    across concentrations), subtracts the vacant-origin probability, and
    attaches the analytic tail as a guaranteed error bound when c > 4/5.
    """
    _check_point(c, r)
    if events is None:
        events = contour_event_table(r - 1) if r >= 5 else {}
    terms = [n * c**w * (1.0 - c) ** b for (w, b), n in sorted(events.items())]
    q_truncated = 1.0 - (1.0 - c) - math.fsum(terms)
    coeffs = _coefficients(frozenset(events.items()))

    try:
        tail = tail_bound(c, r, counts, mode)
        series = series_bound(c, counts, mode)
        guarantee = "tail"
        q_lower = min(1.0, max(0.0, 1.0 - series))
    except DivergentSeries:
        tail = None
        series = None
        guarantee = "none"
        q_lower = 0.0

    threshold = THRESHOLD_ANALYTIC
    if mode in _TABLE_MODES and counts is not None and counts.sa_walk and counts.k_max >= 8:
        threshold = threshold_upper_bound(counts, "refined")

    return BoundReport(
        c=c,
        r=r,
        series_bound=series,
        tail=tail,
        q_lower=q_lower,
        q_truncated=q_truncated,
        threshold_bound=threshold,
        guarantee=guarantee,
        coefficients=coeffs,
    )
