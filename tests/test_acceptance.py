"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; the full run takes a few minutes, dominated by the exact census to
length 12 and the radius-128 Monte Carlo cross-check.
"""

import math
import time

from peierls import (
    DivergentSeries,
    bisect_threshold,
    estimate_crossing,
    estimate_origin_reach,
    exact_origin_reach_probability,
    tail_bound,
    threshold_upper_bound,
    truncated_q,
    walk_bound,
)
from hash_oracle import occupied
from kernel_keys import occupied as library_occupied
from peierls.montecarlo import _crossing_count, _reach_count


def _criterion(number: int, description: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {description}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def test_criterion_1_bound_domination(table12):
    failures = []
    if table12.exact.get(4) != 1:
        failures.append(f"count at length 4 is {table12.exact.get(4)}, want 1")
    if min(table12.exact) != 4 or any(k < 4 for k in table12.exact):
        failures.append("counts reported below length 4")
    for k in range(4, 13):
        if not isinstance(table12.exact[k], int):
            failures.append(f"non-integer count at {k}")
        if table12.exact[k] > walk_bound(k):
            failures.append(f"count {table12.exact[k]} exceeds bound {walk_bound(k)} at length {k}")
    built = table12.meta["build_seconds"]
    if built > 600:
        failures.append(f"census took {built:.0f}s")
    _criterion(1, f"exact counts to length 12 dominated by 4*5^(k-2)*(k-1), built in {built:.0f}s", failures)


def test_criterion_2_class_partition(table12):
    failures = []
    sums = {k: 0 for k in range(4, 13)}
    for (k, l, i), n in table12.classes.items():
        if not 1 <= l <= k - 1:
            failures.append(f"ray distance {l} out of range for length {k}")
        if not 1 <= i <= 4:
            failures.append(f"first-step class {i} out of range")
        sums[k] += n
    for k in range(4, 13):
        if sums[k] != table12.exact[k]:
            failures.append(f"classes sum to {sums[k]} at length {k}, census says {table12.exact[k]}")
    _criterion(2, "class counts partition the census exactly, ray distances in 1..k-1", failures)


def test_criterion_3_tail_formula():
    failures = []
    value = tail_bound(0.9, 4)
    if abs(value - 0.08) > 1e-12 * 0.08:
        failures.append(f"closed form gives {value!r}, want 0.08 to 1e-12 relative")
    direct = math.fsum((1 - 0.9) ** k * walk_bound(k) for k in range(4, 201))
    remainder = tail_bound(0.9, 201)
    if abs(value - direct) > remainder * (1 + 1e-9) + 1e-15:
        failures.append(f"closed form {value!r} vs partial sum {direct!r} beyond remainder {remainder!r}")
    tails = [tail_bound(0.9, r) for r in range(4, 40)]
    if any(b > a for a, b in zip(tails, tails[1:])):
        failures.append("tail not monotone decreasing in the truncation length")
    approach = [tail_bound(0.8 + eps, 4) for eps in (1e-2, 1e-3, 1e-4, 1e-6)]
    if approach != sorted(approach) or approach[-1] < 1e8:
        failures.append("tail does not blow up approaching c = 4/5")
    try:
        tail_bound(0.8, 4)
        failures.append("no divergence flag at c = 4/5")
    except DivergentSeries:
        pass
    _criterion(3, "tail closed form = 0.08 at (0.9, 4), matches summation, monotone, flagged divergence", failures)


def test_criterion_4_threshold_interval(table12):
    failures = []
    if threshold_upper_bound() != 0.8:
        failures.append("analytic threshold bound is not exactly 0.8")
    refined = threshold_upper_bound(table12, "refined")
    if not (1 / 3 < refined < 0.8):
        failures.append(f"refined bound {refined} outside (1/3, 0.8)")
    result = bisect_threshold(64, 10_000, 0.005, 11, workers=2)
    est = result.estimate
    if not (1 / 3 < est < 4 / 5):
        failures.append(f"bisection estimate {est} outside (1/3, 4/5)")
    margin = result.tol + 3 * 0.002
    if not (0.55 - margin <= est <= 0.65 + margin):
        failures.append(f"bisection estimate {est} outside [0.55, 0.65] plus margin {margin}")
    if not all(b > 1 / 3 for b in (0.8, refined, est)):
        failures.append("a bound fell below 1/3")
    _criterion(4, f"thresholds: analytic 0.8, refined {refined:.4f}, bisection {est:.4f}", failures)


def test_criterion_5_truncated_polynomial():
    failures = []
    rep = truncated_q(0.9, 5)
    if abs(rep.q_truncated - 0.89991) > 1e-12:
        failures.append(f"single-contour value {rep.q_truncated!r}, want 0.89991 to 1e-12")
    t0 = time.time()
    mc = estimate_origin_reach(128, 0.9, 100_000, 2, workers=2)
    for r in (5, 8, 10, 12):
        q_r = truncated_q(0.9, r).q_truncated
        allowed = tail_bound(0.9, r) + 3 * mc.std_error
        if abs(q_r - mc.value) > allowed:
            failures.append(f"|Q_{r} - MC| = {abs(q_r - mc.value):.2e} exceeds {allowed:.2e}")
    elapsed = time.time() - t0
    if elapsed > 600:
        failures.append(f"Monte Carlo cross-check took {elapsed:.0f}s")
    _criterion(5, f"truncated polynomial matches Monte Carlo at radius 128 within tail+3se ({elapsed:.0f}s)", failures)


def test_criterion_6_small_window_exactness():
    failures = []
    for c in (0.3, 0.5, 0.7):
        exact = exact_origin_reach_probability(1, c)
        est = estimate_origin_reach(1, c, 200_000, 6)
        dev = abs(est.value - exact)
        if dev > 4 * est.std_error:
            failures.append(f"c={c}: |{est.value} - {exact}| > 4 sigma")
    _criterion(6, "radius-1 Monte Carlo matches the 512-configuration exact sum within 4 sigma", failures)


def test_criterion_7_determinism_and_monotonicity():
    failures = []
    # coupled monotonicity in c over 1000 sampled fields, zero exceptions, in
    # the reference occupancy and in the library's own
    occ_low = occupied(9, 8, 0.4, 0, 1000)
    occ_high = occupied(9, 8, 0.7, 0, 1000)
    if int((occ_low & ~occ_high).sum()) != 0:
        failures.append("reference occupancy not monotone in concentration on a coupled field")
    if int((library_occupied(9, 8, 0.4, 0, 1000) & ~library_occupied(9, 8, 0.7, 0, 1000)).sum()) != 0:
        failures.append("library occupancy not monotone in concentration on a coupled field")
    # window monotonicity per configuration
    exceptions = sum(
        int(_reach_count(4, 10, 0.62, t, t + 1) > _reach_count(4, 5, 0.62, t, t + 1))
        for t in range(1000)
    )
    if exceptions:
        failures.append(f"{exceptions} configurations escaped the large window but not the small one")
    # crossing monotone in c per configuration
    exceptions = sum(
        int(_crossing_count(8, 8, 0.45, t, t + 1) > _crossing_count(8, 8, 0.7, t, t + 1))
        for t in range(1000)
    )
    if exceptions:
        failures.append(f"{exceptions} configurations crossed at low c but not high c")
    # parallel and serial runs are bit-identical
    serial = estimate_crossing(16, 0.6, 2000, 5, workers=1)
    forked = estimate_crossing(16, 0.6, 2000, 5, workers=4)
    if serial != forked:
        failures.append("estimate on worker processes differs from serial")
    serial_r = estimate_origin_reach(16, 0.62, 2000, 5, workers=1)
    forked_r = estimate_origin_reach(16, 0.62, 2000, 5, workers=3)
    if serial_r != forked_r:
        failures.append("reach estimate on worker processes differs from serial")
    _criterion(7, "coupled-field monotonicity holds with zero exceptions; parallel == serial bit-exactly", failures)
