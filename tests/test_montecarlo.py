import ctypes
import itertools
import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
import time
from collections import Counter
from collections.abc import Iterator
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hash_oracle
import kernel_keys
from bisect_oracle import oracle_bisect, oracle_critical_indices, oracle_crossing, oracle_labels
from contour_oracle import reaches_border
from peierls import enumeration, kernel, montecarlo, pool
from peierls import (
    BuildError,
    CapExceeded,
    Window,
    bisect_threshold,
    estimate_crossing,
    estimate_origin_reach,
    exact_origin_reach_probability,
    self_avoiding_circuit_count,
)
from peierls.montecarlo import (
    _M64,
    _chunks,
    _critical_histogram,
    _critical_indices,
    _crossing_count,
    _flood,
    _hash_threshold,
    _left_right,
    _reach_count,
)
from peierls.pool import _fan_out


def test_extreme_concentrations():
    assert estimate_origin_reach(8, 1.0, 50, 0).value == 1.0
    assert estimate_origin_reach(8, 0.0, 50, 0).value == 0.0
    assert estimate_crossing(8, 1.0, 50, 0).value == 1.0
    assert estimate_crossing(8, 0.0, 50, 0).value == 0.0


def test_estimates_are_deterministic():
    a = estimate_origin_reach(12, 0.65, 500, 9)
    b = estimate_origin_reach(12, 0.65, 500, 9)
    assert a == b


def test_parallel_equals_serial():
    a = estimate_crossing(16, 0.6, 1500, 4, workers=1)
    b = estimate_crossing(16, 0.6, 1500, 4, workers=3)
    assert a.value == b.value
    c = estimate_origin_reach(16, 0.62, 1500, 4, workers=1)
    d = estimate_origin_reach(16, 0.62, 1500, 4, workers=4)
    assert c.value == d.value


def test_trials_recomputable_independently():
    total = _reach_count(3, 10, 0.6, 0, 200)
    split = sum(_reach_count(3, 10, 0.6, a, a + 25) for a in range(0, 200, 25))
    assert total == split


def test_std_error_formula():
    est = estimate_crossing(8, 0.6, 400, 1)
    assert est.std_error == pytest.approx(math.sqrt(est.value * (1 - est.value) / 400))


def test_vectorized_reach_matches_cluster_walk():
    # dual route: per-trial indicator from the flood vs a direct
    # depth-first search of the origin cluster on the reference occupancy
    L, c, seed = 6, 0.58, 21
    grids = hash_oracle.occupied(seed, L, c, 0, 60)
    for t in range(60):
        assert _reach_count(seed, L, c, t, t + 1) == int(reaches_border(grids[t]))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-(1 << 70), 1 << 70),
    st.integers(1, 40),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    st.integers(0, (1 << 64) - 9),
)
def test_reach_matches_border_search(seed, L, c, t0):
    # eight trials an example, alone and together
    grids = hash_oracle.occupied(seed, L, c, t0, t0 + 8)
    reached = [int(reaches_border(grid)) for grid in grids]
    assert [_reach_count(seed, L, c, t, t + 1) for t in range(t0, t0 + 8)] == reached
    assert _reach_count(seed, L, c, t0, t0 + 8) == sum(reached)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-(1 << 70), 1 << 70),
    st.integers(1, 24),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    st.integers(0, (1 << 64) - 9),
    st.integers(1, 8),
)
def test_reach_and_crossing_match_border_search_and_labels(seed, L, c, t0, n):
    # reach against a depth-first search of the origin cluster and against
    # ndimage labels, crossing against the labels of the left and right columns
    grids = hash_oracle.occupied(seed, L, c, t0, t0 + n)
    labelled = oracle_labels(grids)
    origin = labelled[:, L, L, np.newaxis]
    border = np.concatenate([labelled[:, 0], labelled[:, -1], labelled[:, :, 0], labelled[:, :, -1]], axis=1)
    reached = [int(reaches_border(grid)) for grid in grids]
    assert reached == ((origin > 0) & (border == origin)).any(axis=1).astype(int).tolist()
    crossed = oracle_crossing(labelled).astype(int).tolist()
    assert [_reach_count(seed, L, c, t, t + 1) for t in range(t0, t0 + n)] == reached
    assert [_crossing_count(seed, L, c, t, t + 1) for t in range(t0, t0 + n)] == crossed
    assert _reach_count(seed, L, c, t0, t0 + n) == sum(reached)
    assert _crossing_count(seed, L, c, t0, t0 + n) == sum(crossed)


@pytest.mark.parametrize("seed, c", [(11, 0.59), (12, 0.6), (16, 0.62)])
def test_reach_decided_at_the_window_stage_matches_border_search(seed, c):
    # near the threshold some origin clusters span most of a radius-64 window;
    # every trial is decided by one flood over the whole window, from the
    # origin to the border
    L, trials = 64, 24
    with mock.patch.object(montecarlo, "_flood", wraps=montecarlo._flood) as flood:
        hits = _reach_count(seed, L, c, 0, trials)
    assert [call.args[2:4] for call in flood.call_args_list] == [(trials, L)]
    grids = hash_oracle.occupied(seed, L, c, 0, trials)
    assert hits == sum(int(reaches_border(grid)) for grid in grids)


def test_crossing_monotone_in_concentration_per_trial():
    L, seed = 10, 13
    for t in range(80):
        low = _crossing_count(seed, L, 0.45, t, t + 1)
        high = _crossing_count(seed, L, 0.70, t, t + 1)
        assert low <= high


def test_reach_monotone_in_window_radius_per_trial():
    # field values are window independent, so escaping a larger window
    # implies escaping a smaller one, configuration by configuration
    seed, c = 2, 0.62
    exceptions = 0
    for t in range(1000):
        big = _reach_count(seed, 12, c, t, t + 1)
        small = _reach_count(seed, 6, c, t, t + 1)
        exceptions += int(big > small)
    assert exceptions == 0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, (1 << 64) - 1),
    st.integers(0, 1 << 40),
    st.integers(1, 12),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
def test_occupancy_crossing_and_reach_monotone_in_concentration(seed, t, L, a, b):
    lo, hi = sorted((a, b))
    assert not (kernel_keys.occupied(seed, L, lo, t, t + 1) & ~kernel_keys.occupied(seed, L, hi, t, t + 1)).any()
    for counter in (_crossing_count, _reach_count):
        assert counter(seed, L, lo, t, t + 1) <= counter(seed, L, hi, t, t + 1)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, (1 << 64) - 1),
    st.integers(0, 1 << 40),
    st.floats(0.0, 1.0),
    st.integers(1, 14),
    st.integers(1, 14),
)
def test_occupancy_and_reach_monotone_in_window_radius(seed, t, c, a, b):
    # the larger window holds the smaller one site for site, so escaping it
    # means escaping the smaller one too
    small, big = sorted((a, b))
    occ_small, occ_big = kernel_keys.occupied(seed, small, c, t, t + 1), kernel_keys.occupied(seed, big, c, t, t + 1)
    inner = slice(big - small, big + small + 1)
    assert np.array_equal(occ_small[0], occ_big[0, inner, inner])
    assert _reach_count(seed, big, c, t, t + 1) <= _reach_count(seed, small, c, t, t + 1)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.sampled_from([0, (1 << 64) - 1]), st.integers(-(1 << 70), 1 << 70)),
    st.one_of(st.sampled_from([0, 1 << 63, (1 << 64) - 3]), st.integers(0, (1 << 64) - 1)),
    st.integers(0, 20),
)
def test_trial_seeds_match_scalar_trial_seed(seed, t0, n):
    # the kernel derives the seed of trial t0 + i itself; the origin's hash is
    # a bijection of the trial seed, and an m = 1 flood from the origin to
    # itself is vacant (1) at the bound of that hash and occupied (0) one
    # above it, so the hash, and with it the trial seed, is pinned bit for bit
    origin = np.zeros((3, 3), dtype=bool)
    origin[1, 1] = True
    origin[:, -1] = True
    hashes = [hash_oracle._site_hash(hash_oracle.trial_seed(seed, t), 0, 0) for t in range(t0, t0 + n)]
    # one call walks the trial index from t0, past 2**64 as the oracle's does
    keys = _flood(seed, t0, n, 1, 0, 16, [4], origin)
    assert keys.tolist() == [max(1, h >> 48) for h in hashes]
    for t, h in zip(range(t0, t0 + n), hashes):
        assert _flood(seed, t, 1, 1, h, 1, [4], origin).tolist() == [1]
        if h < _M64:
            assert _flood(seed, t, 1, 1, h + 1, 1, [4], origin).tolist() == [0]


def test_crossing_higher_at_higher_concentration():
    lo = estimate_crossing(32, 0.45, 800, 5)
    hi = estimate_crossing(32, 0.70, 800, 5)
    assert lo.value < hi.value


def test_reach_respects_series_floor():
    # failure to reach needs either a vacant origin or an enclosing contour,
    # so the reach probability is at least 1 - (1-c) - series_bound(c)
    from peierls import tail_bound

    c = 0.9
    est = estimate_origin_reach(64, c, 4000, 10, workers=2)
    floor = 1.0 - (1.0 - c) - tail_bound(c, 4)
    assert est.value >= floor - 3 * est.std_error


def test_bisection_inside_proven_interval():
    res = bisect_threshold(24, 800, 0.01, 3)
    assert 1 / 3 < res.estimate < 4 / 5
    assert len(res.trace) == math.ceil(math.log2(1 / res.tol))


def test_bisection_nesting_under_smaller_tolerance():
    coarse = bisect_threshold(16, 400, 0.02, 8)
    fine = bisect_threshold(16, 400, 0.004, 8)
    assert abs(fine.estimate - coarse.estimate) <= coarse.tol


def test_bisection_tolerance_validated():
    for tol in (1e-4, float("nan"), 1.0, 2.0):
        with pytest.raises(ValueError):
            bisect_threshold(8, 100, tol, 0)


def test_workers_validated():
    for workers in (0, -3):
        with pytest.raises(ValueError):
            estimate_crossing(8, 0.5, 10, 0, workers=workers)
        with pytest.raises(ValueError):
            estimate_origin_reach(8, 0.5, 10, 0, workers=workers)
        with pytest.raises(ValueError):
            bisect_threshold(8, 10, 0.01, 0, workers=workers)


def test_radius_trials_and_workers_must_be_integers_before_any_work():
    runs = (
        lambda L, trials, workers: estimate_origin_reach(L, 0.5, trials, 1, workers=workers),
        lambda L, trials, workers: estimate_crossing(L, 0.5, trials, 1, workers=workers),
        lambda L, trials, workers: bisect_threshold(L, trials, 0.1, 1, workers=workers),
    )
    bad = {"L": (True, 8.0, 2.5), "trials": (True, 10.0, 1e3), "workers": (True, False, 2.0)}
    with mock.patch.object(kernel, "load", side_effect=AssertionError("the kernel was loaded")):
        with mock.patch.object(pool, "_fan_out", side_effect=AssertionError("a pool was started")):
            for run in runs:
                for name, values in bad.items():
                    for value in values:
                        args = {"L": 4, "trials": 10, "workers": 2, name: value}
                        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {value!r}$"):
                            run(**args)
    # numpy integers are integers
    for run in runs:
        assert run(np.int64(4), np.int32(10), np.int64(2)) == run(4, 10, 2)


#: Every Monte Carlo entry point that takes a seed, called with it.
_SEED_ENTRIES = {
    "estimate_origin_reach": lambda seed: estimate_origin_reach(4, 0.5, 10, seed),
    "estimate_crossing": lambda seed: estimate_crossing(4, 0.5, 10, seed),
    "bisect_threshold": lambda seed: bisect_threshold(4, 10, 0.1, seed),
}


@pytest.mark.parametrize(
    "entry, bad, error, message",
    [
        *[(entry, bad, TypeError, "seed must be an integer") for entry in _SEED_ENTRIES for bad in (1.5, "3", None, True)],
        *[("tol", bad, TypeError, "tol must be a real number") for bad in ("0.1", None, True, 0.1 + 0j)],
        ("tol", 1.5, ValueError, "tolerance must lie in [1e-3, 1)"),
    ],
)
def test_seed_and_tolerance_are_checked_before_any_work(entry, bad, error, message):
    call = _SEED_ENTRIES.get(entry, lambda tol: bisect_threshold(4, 10, tol, 1))
    with (
        mock.patch.object(kernel, "load", side_effect=AssertionError("the kernel was loaded")),
        mock.patch.object(pool, "_fan_out", side_effect=AssertionError("a pool was started")),
        pytest.raises(error, match=f"^{re.escape(f'{message}, got {bad!r}')}$"),
    ):
        call(bad)
    # seeds are taken mod 2**64, and numpy numbers are numbers
    if entry in _SEED_ENTRIES:
        runs = [call(seed)._replace(seed=None) for seed in (np.int64(-3), -3, (1 << 64) - 3)]
        assert runs[0] == runs[1] == runs[2]
    else:
        assert call(np.float64(0.1)) == call(0.1)


@pytest.mark.parametrize("L", [8, 24, 64])
def test_bisection_matches_oracle(L):
    # 59 trials fill one of the oracle's chunks at L=64, so 59/60/61 straddle
    # its edge; the library's chunks split the trials a few a worker
    for trials in (1, 59, 60, 61, 300):
        for tol in (1e-3, 0.004, 0.005, 0.3):
            expected = oracle_bisect(L, trials, tol, 7)
            for workers in (1, 2, 3):
                res = bisect_threshold(L, trials, tol, 7, workers=workers)
                assert (res.estimate, res.trace) == expected, (trials, tol, workers)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-(1 << 70), 1 << 70),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 10_000),
    st.integers(1, 5),
    st.data(),
)
def test_critical_index_matches_crossing_predicate(seed, L, m, t0, n, data):
    # the oracle's j* must not depend on its probe order, so its prior is drawn too
    grid = 1 << m
    prior = np.array(data.draw(st.lists(st.integers(0, 50), min_size=grid, max_size=grid)))
    critical = _critical_indices(seed, L, m, t0, t0 + n)
    steered, passes = oracle_critical_indices(seed, L, m, t0, t0 + n, prior)
    bisected, bisect_passes = oracle_critical_indices(seed, L, m, t0, t0 + n, np.zeros(grid, dtype=np.int64))
    assert np.array_equal(critical, steered) and np.array_equal(critical, bisected)
    assert bisect_passes == n * m and n <= passes <= n * (grid - 1)
    for t, j_star in zip(range(t0, t0 + n), critical):
        for j in range(grid + 1):
            assert _crossing_count(seed, L, j / grid, t, t + 1) == int(j > j_star)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(-(1 << 70), 1 << 70),
    st.integers(1, 24),
    st.integers(1, 16),
    st.integers(0, (1 << 64) - 9),
    st.integers(1, 8),
)
def test_sweep_matches_oracle(seed, L, m, t0, n):
    critical = _critical_indices(seed, L, m, t0, t0 + n)
    assert critical.typecode == "i"
    assert np.array_equal(critical, oracle_critical_indices(seed, L, m, t0, t0 + n, np.zeros(1 << m, dtype=np.int64))[0])


@pytest.mark.parametrize("seed", [3, 11])
def test_sweep_matches_oracle_at_radius_64(seed):
    expected, _ = oracle_critical_indices(seed, 64, 8, 0, 300, np.zeros(1 << 8, dtype=np.int64))
    assert np.array_equal(_critical_indices(seed, 64, 8, 0, 300), expected)
    assert _critical_histogram(seed, 64, 8, 0, 300) == Counter(expected.tolist())


def _oracle_keys(seed: int, L: int, bound: int, m: int, t0: int, t1: int) -> np.ndarray:
    """The flood's keys of trials t0..t1-1 by the hash oracle: 0 below ``bound``, else max(1, hash >> (64 - m))."""
    hashes = hash_oracle.trial_hashes(seed, L, t0, t1)
    return np.where(hashes < np.uint64(bound), 0, np.maximum(1, (hashes >> np.uint64(64 - m)).astype(np.int64)))


def _assert_critical_by_crossing(keys: np.ndarray, m: int, critical) -> None:
    # crossing is monotone in j, so j* is pinned by no crossing at j* and,
    # below the top of the grid, a crossing at j* + 1
    critical = np.asarray(critical)
    for j, crosses in ((critical, False), (critical + 1, True)):
        crossed = oracle_crossing(oracle_labels(keys < j.astype(np.int64)[:, np.newaxis, np.newaxis]))
        assert np.array_equal(crossed, np.where(j < 1 << m, crosses, True))


def test_concentration_one_counts_every_trial_without_a_flood():
    # no 64-bit bound lies above every hash, so c = 1 needs no flood; c = 0 floods at bound 0
    with mock.patch.object(kernel, "load", side_effect=AssertionError("the kernel was called")):
        assert _reach_count(3, 8, 1.0, 0, 40) == _crossing_count(3, 8, 1.0, 5, 45) == 40
    assert _hash_threshold(0.0) == 0
    assert all(_hash_threshold(j / 1024) == j << 54 for j in range(1024))


def test_kernel_at_side_3():
    # m = 1: 6,000 radius-1 fields at c = 1/2 take every binary field of
    # side 3; m = 16: keys over the whole 16-bit range
    for m, n in ((1, 6000), (16, 300)):
        keys = _oracle_keys(5, 1, 1 << (64 - m), m, 0, n)
        critical = _critical_indices(5, 1, m, 0, n)
        assert min(critical) >= 0 and max(critical) < 1 << m
        _assert_critical_by_crossing(keys, m, critical)
    binary = _oracle_keys(5, 1, 1 << 63, 1, 0, 6000)
    assert len(np.unique(binary.reshape(-1, 9), axis=0)) == 1 << 9


@settings(max_examples=40, deadline=None)
@given(st.integers(-(1 << 70), 1 << 70), st.integers(0, 1 << 40), st.integers(1, 10), st.integers(1, 16), st.integers(1, 6))
def test_kernel_fields_do_not_leak_into_the_next(seed, t0, L, m, n):
    # a field's result does not depend on the fields flooded before it in the
    # same call, which may leave bucket entries at any level
    alone = np.concatenate([_critical_indices(seed, L, m, t, t + 1) for t in range(t0, t0 + n)])
    assert np.array_equal(_critical_indices(seed, L, m, t0, t0 + n), alone)
    _assert_critical_by_crossing(_oracle_keys(seed, L, 1 << (64 - m), m, t0, t0 + n), m, alone)


@pytest.mark.parametrize(
    "L, c, m, seed, path",
    [
        (8, 0.5, 1, 10, "reach"),  # the origin to the border
        (6, 0.4, 1, 26, "crossing"),  # the left column to the right
        (8, None, 8, 10, "crossing"),  # bisection's keys, the left column to the right
    ],
)
def test_one_call_past_the_stamps_wraps_equals_a_call_a_field(L, c, m, seed, path):
    # each field bumps the seen stamp, which wraps past 255: 600 fields in one
    # call take it past two wraps, and must give what 600 one-field calls give.
    # Most floods border again the sites an earlier field bordered, so a wrap
    # that kept the old stamps changes a result only now and then: the m = 1
    # seeds are ones where it does
    side = 2 * L + 1
    border = np.ones((side, side), dtype=bool)
    border[1:-1, 1:-1] = False
    sources, target = ([L * side + L], border) if path == "reach" else _left_right(L)
    bound = 1 << (64 - m) if c is None else _hash_threshold(c)
    whole = _flood(seed, 0, 600, L, bound, m, sources, target)
    alone = np.concatenate([_flood(seed, t, 1, L, bound, m, sources, target) for t in range(600)])
    assert np.array_equal(whole, alone) and len(np.unique(whole)) > 1


def _oracle_flood(field: np.ndarray, m: int, sources, target: np.ndarray) -> int:
    """The least j at which the sites of key <= j join a source to a target, by labels; 2**m - 1 if none."""
    for j in range((1 << m) - 1):
        lab = oracle_labels(field[np.newaxis] <= j)[0]
        if set(lab.flat[list(sources)]) & set(lab[target]) - {0}:
            return j
    return (1 << m) - 1


@settings(max_examples=150, deadline=None)
@given(st.integers(-(1 << 70), 1 << 70), st.integers(0, (1 << 64) - 1), st.integers(1, 4), st.integers(1, 8), st.data())
def test_flood_matches_labelling_oracle(seed, t0, L, m, data):
    # any source set and any target mask, one without the right column or
    # empty too, over hashed windows keyed at the bisection bound 2**(64 - m)
    # or at any other, m up to 8, the grid of --tol 0.005
    side = 2 * L + 1
    bound = data.draw(st.one_of(st.just(1 << (64 - m)), st.integers(0, _M64)))
    sources = data.draw(st.lists(st.integers(0, side * side - 1), max_size=6))
    target = np.array(data.draw(st.lists(st.booleans(), min_size=side * side, max_size=side * side))).reshape(side, side)
    expected = [_oracle_flood(field, m, sources, target) for field in _oracle_keys(seed, L, bound, m, t0, t0 + 3)]
    assert _flood(seed, t0, 3, L, bound, m, sources, target).tolist() == expected


def test_flood_refuses_bad_masks_sources_m_and_bounds_before_the_kernel():
    whole = np.ones((5, 5), dtype=bool)
    bad = (
        (whole[:, :4], [0], 1, 0),
        (whole, [25], 1, 0),
        (whole, [-1], 1, 0),
        (whole, [0], 0, 0),
        (whole, [0], 17, 0),
        (whole, [0], 1, -1),
        (whole, [0], 1, 1 << 64),
    )
    with mock.patch.object(kernel, "load", side_effect=AssertionError("the kernel was called")):
        for target, sources, m, bound in bad:
            with pytest.raises(ValueError, match="sources and a target mask on its 5 x 5 window"):
                _flood(3, 0, 2, 2, bound, m, sources, target)


def test_kernel_compiles_without_warnings(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler cc on PATH")
    flags = ("-std=c99", "-Wall", "-Wextra", "-Werror", "-O2", "-shared", "-fPIC", "-pthread")
    build = subprocess.run(
        ["cc", *flags, "-o", str(tmp_path / "kernel.so"), kernel.SOURCE],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert build.returncode == 0 and build.stderr == "", build.stderr
    # the strict build's circuit walk gives the package's counts at 1, 2 and
    # 3 threads, and stops with code 1 when its cap is passed mid-walk
    library = ctypes.CDLL(str(tmp_path / "kernel.so"))
    walk = library.peierls_walk
    walk.argtypes = [ctypes.c_int32, ctypes.c_int32, ctypes.c_int64, ctypes.c_int32, *[ctypes.c_void_p] * 3]
    for rule, turns in (("five", 2), ("seven", 3)):
        for k, threads in itertools.product(range(4, 11), (1, 2, 3)):
            walks, distinct, nodes = np.zeros(k + 1, np.int64), np.zeros(k + 1, np.int64), np.zeros(1, np.int64)
            sa = self_avoiding_circuit_count(k, rule=rule)
            for cap, code in ((sa.nodes // 2, 1), (sa.nodes, 0)):
                assert walk(k, turns, cap, threads, walks.ctypes.data, distinct.ctypes.data, nodes.ctypes.data) == code
            assert (walks[4:].tolist(), distinct[4:].tolist(), int(nodes[0])) == (
                list(sa.walks.values()),
                list(sa.distinct_sets.values()),
                sa.nodes,
            )
    # and its shape tree keeps the package's shapes
    library.peierls_shapes.argtypes = [*[ctypes.c_int32] * 2, *[ctypes.c_void_p] * 3]
    library.peierls_free.argtypes = [ctypes.c_void_p]
    for max_len, cap in ((8, 5), (12, 13), (13, 15), (28, 9)):
        records, kept, built = ctypes.c_void_p(), ctypes.c_int64(), ctypes.c_int64()
        code = library.peierls_shapes(max_len, cap, *map(ctypes.byref, (records, kept, built)))
        shapes = enumeration._shape_block(max_len, cap)
        block = ctypes.string_at(records, 4 * kept.value * (2 * shapes.height + 3))
        library.peierls_free(records)
        assert (code, built.value, block) == (0, shapes.built, shapes.records)
    # and its class pass classifies the census's contours at k = 10 as the package does
    library.peierls_classes.argtypes = [ctypes.c_int32, ctypes.c_int32, *[ctypes.c_void_p] * 5]
    with mock.patch.object(kernel, "_library", library):
        strict = enumeration.exact_contour_counts(10)
    package = enumeration.exact_contour_counts(10)
    assert (strict.classes, strict.witnesses) == (package.classes, package.witnesses)


#: The test program of the sanitizer build, which includes the kernel's source to reach its static functions.  The
#: circuit walk of both rules at k_max = 4..10 and of the five rule at k_max = 12, at 1, 2 and 3 threads, whole and cut
#: short, and the longest walk cut short; the subtree of the first step SE as NE's reflection against SE's walked, at
#: k_max = 12 and, under the seven rule, 10; and the walk's shards fed crafted records of one key, with different start
#: bits, from two threads.  The shape tree at
#: max_len = 4..13 with the census's cap, its shapes of full box height among them, every record checked, and crafted
#: shapes built in the widest frame, 34 columns at cap 30.  The class pass on the widest and the tallest contours a census key
#: holds, and on a contour for each check that fails.  Floods at radii 1-6 and m = 1, 6, 11 and 16 from the left column,
#: the origin, every site and no site, into arrays of exactly their size, checking every result against [0, 2**m); and
#: from the origin and every site to no target, which take every site they reach, the window's edges included, and
#: end at 2**m - 1.  At radius 3, 600 fields in one call, past two wraps of the flood's seen stamp, against the same
#: fields one call each.
_SANITIZER_DRIVER = r"""
#include <stdio.h>

#include "_kernel.c"

/* Records from two threads in two shards: key 0x15 with the start bits 011 from one thread and 110 from the other, and
 * 0x17 and 0x1F with 001 and 100, one each.  Each key's shard ORs the bits of its equals, so distinct[2], the length of
 * the 3-site key 0x15, counts the 3 starts of their union, and distinct[3] and distinct[4] 1 each: 1 unless it does. */
static int dedup(void)
{
    struct circuits c = {.threads = 2};
    const uint64_t keys[4] = {0x15, 0x17, 0x15, 0x1F}, bits[4] = {0x3, 0x1, 0x6, 0x4};
    int64_t distinct[5] = {0};
    int bad = 0;
    for (int32_t t = 0; t < 2; t++)
        c.walkers[t] = (struct walker){.c = &c, .width = 1};
    for (int32_t i = 0; i < 4; i++)
        bad |= record(&c.walkers[i / 2], &keys[i], bits[i]);
    for (int32_t s = 0; s < 2; s++)
        bad |= dedupe(&c, s, distinct);
    for (int32_t t = 0; t < 2; t++)
        for (int32_t s = 0; s < 2; s++)
            free(c.walkers[t].out[s].rec);
    return bad || distinct[2] != 3 || distinct[3] != 1 || distinct[4] != 1;
}

/* The class pass over one contour of `height` key rows, around the positions of the rows cover: its code, with the
 * classes of at most 62-site contours counted in counts and the cycle in cycle. */
static int64_t counts[63 * 32 * 5];
static int32_t cycle[2 * 62], where[3];
static int class_pass(int32_t height, const uint32_t *key, const uint32_t *cover)
{
    memset(counts, 0, sizeof counts);
    return peierls_classes(1, height, key, cover, counts, cycle, where);
}

/* The positions counted in counts. */
static int64_t positions(void)
{
    int64_t n = 0;
    for (size_t c = 0; c < sizeof counts / sizeof *counts; c++)
        n += counts[c];
    return n;
}

/* The contour length of the record r of a key of `height` rows, -1 when the record is out of range: its cell count,
 * its contour length, its boundary and enclosed counts, a row past the key's columns, a key with no site in row 0 or in
 * column 0, a cell on the contour or in its first row. */
static int64_t record_length(const uint32_t *r, int32_t height, int32_t cap, int32_t max_len)
{
    int64_t length = 0, cells = 0;
    uint32_t columns = 0;
    int bad = 0;
    for (int32_t y = 0; y < height; y++) {
        bad |= (uint64_t)r[y] >> height != 0 || (uint64_t)r[height + y] >> height != 0 || (r[y] & r[height + y]);
        length += __builtin_popcount(r[y]);
        cells += __builtin_popcount(r[height + y]);
        columns |= r[y];
    }
    /* the contour's bounding-box corner is the key's (0, 0) */
    bad |= r[0] == 0 || !(columns & 1) || r[height] != 0;
    bad |= r[2 * height] < 1 || r[2 * height] > (uint32_t)cap || cells != r[2 * height] || length < 4 ||
           length > max_len;
    bad |= r[2 * height + 1] < (uint32_t)length || r[2 * height + 2] < r[2 * height] ||
           r[2 * height + 2] >= (uint32_t)((height + 2) * (height + 2));
    return bad ? -1 : length;
}

/* The shape tree at max_len and cap, its kept and built shapes in *kept and *built, and in *high its kept shapes with a
 * cell in the box's top row: 1 when the call fails or a record is out of range, else 0. */
static int shapes(int32_t max_len, int32_t cap, int64_t *kept, int64_t *built, int64_t *high)
{
    const int32_t span = (max_len - 2) / 2, height = (span < cap ? span : cap) + 2, stride = 2 * height + 3;
    uint32_t *records;
    if (peierls_shapes(max_len, cap, &records, kept, built) || *kept > *built)
        return 1;
    int bad = 0;
    *high = 0;
    for (int64_t i = 0; i < *kept; i++) {
        const uint32_t *r = records + i * stride;
        bad |= record_length(r, height, cap, max_len) < 0;
        *high += r[2 * height - 2] != 0; /* a cell in the box's top row, ymax = box - 1: the shape pass runs every row */
    }
    peierls_free(records);
    return bad;
}

/* A crafted shape of `size` cells, row y of it the bits rows[y] for y <= ymax, x from bit 0, built by shape() in the
 * frame of the largest cap, 34 rows of 34 columns: 1 unless its one record is in range, with a contour of `length`
 * sites and `enclosed` enclosed sites, else 0. */
static int crafted(const uint64_t *rows, int32_t ymax, int32_t size, int32_t length, uint32_t enclosed)
{
    const int32_t box = MAX_CAP, height = box + 2;
    struct tree t = {.max_len = 2 * box + 2, .cap = box, .box = box, .side = 2 * box + 1, .height = box + 4,
                     .maxrec = 1, .stride = 2 * (size_t)height + 3};
    t.full = ((uint64_t)1 << t.height) - 1;
    t.rec = malloc(t.stride * sizeof *t.rec);
    for (int32_t y = 0; y <= ymax; y++)
        t.cells[y] = rows[y] << box;
    int bad = !t.rec || shape(&t, size, 0, ymax) || t.built != 1 || t.nrec != 1;
    bad = bad || record_length(t.rec, height, box, t.max_len) != length || t.rec[2 * height + 2] != enclosed;
    free(t.rec);
    return bad;
}

/* The records of a walk compare word by word, RECORD words each. */
static size_t RECORD;
static int by_words(const void *a, const void *b)
{
    return memcmp(a, b, RECORD * sizeof(uint64_t));
}

/* The subtree of the first step SE, walked as NE's reflection and walked as it is: NE's subtrees at weight 2 against
 * NE's and SE's at weight 1, on one thread each, give the same nodes, the same walks[d], and the same records, in
 * another order.  1 when they differ or a walk fails, else 0. */
static int mirrored(int32_t k_max, int32_t turns)
{
    struct circuits a, b;
    int bad = open_walk(&a, k_max, turns, INT64_MAX, 1) | open_walk(&b, k_max, turns, INT64_MAX, 1);
    struct walker *reflected = &a.walkers[0], *walked = &b.walkers[0];
    for (int32_t t = -turns; t <= turns && !bad; t++)
        bad = subtree(reflected, 1, t, 2) || subtree(walked, 1, t, 1) || subtree(walked, 7, t, 1);
    flush(reflected);
    flush(walked);
    const size_t n = reflected->out[0].n;
    bad = bad || a.total != b.total || n != walked->out[0].n || n < 2;
    bad = bad || memcmp(reflected->walks, walked->walks, (size_t)(k_max + 1) * sizeof *walked->walks);
    if (!bad) {
        RECORD = (size_t)reflected->width + 1;
        qsort(reflected->out[0].rec, n, RECORD * sizeof(uint64_t), by_words);
        qsort(walked->out[0].rec, n, RECORD * sizeof(uint64_t), by_words);
        bad = memcmp(reflected->out[0].rec, walked->out[0].rec, n * RECORD * sizeof(uint64_t)) != 0;
    }
    close_walk(&a);
    close_walk(&b);
    return bad;
}

/* The walk at k_max on `threads` threads, into arrays of exactly its size: whole, then cut short one node before its
 * end, and, for the five rule, the pinned counts walks[10] = 8383 and distinct[10] = 6643 at k_max = 10, and
 * walks[12] = 178443, distinct[12] = 133545 and 6,401,240 nodes at k_max = 12, whose distinct sets come from 161,180
 * closed-walk records. */
static int walk(int32_t k_max, int32_t turns, int32_t threads)
{
    int64_t *walks = malloc((k_max + 1) * sizeof *walks), *distinct = malloc((k_max + 1) * sizeof *distinct), nodes;
    int bad = peierls_walk(k_max, turns, INT64_MAX, threads, walks, distinct, &nodes) != 0 || nodes < 1 ||
              (k_max == 10 && turns == 2 && (walks[10] != 8383 || distinct[10] != 6643)) ||
              (k_max == 12 && turns == 2 && (walks[12] != 178443 || distinct[12] != 133545 || nodes != 6401240));
    for (int32_t k = 4; k <= k_max; k++)
        bad |= distinct[k] < 0 || distinct[k] > walks[k];
    bad |= peierls_walk(k_max, turns, nodes - 1, threads, walks, distinct, &nodes) != 1;
    free(walks);
    free(distinct);
    return bad;
}

/* 600 fields of the radius-3 window in one call, against the same fields flooded one call each. */
static int wrap(const int32_t *sources, int32_t nsources, const uint8_t *target, uint64_t bound, int32_t m)
{
    int32_t *whole = malloc(600 * sizeof *whole), one;
    int bad = peierls_flood(0xC0FFEEu, 40, 600, 3, bound, m, sources, nsources, target, whole) != 0;
    for (int32_t f = 0; f < 600 && !bad; f++)
        bad = peierls_flood(0xC0FFEEu, 40 + f, 1, 3, bound, m, sources, nsources, target, &one) != 0 || one != whole[f];
    free(whole);
    return bad;
}

int main(void)
{
    if (dedup())
        return 9;
    /* the diamond around (1, 1): class (4, 1, 4), cycle (0, 1), (1, 0), (2, 1), (1, 2) */
    const uint32_t diamond[3] = {2, 5, 2}, inside[3] = {0, 2, 0};
    if (class_pass(3, diamond, inside) || counts[(4 * 32 + 1) * 5 + 4] != 1 || positions() != 1 || cycle[0] != 0 ||
        cycle[1] != 1 || cycle[6] != 1 || cycle[7] != 2)
        return 10;
    /* the contours of the 30-cell lines, 32 columns or 32 rows, around each of their cells */
    uint32_t wide[3] = {0x7FFFFFFEu, 0x80000001u, 0x7FFFFFFEu}, wide_cells[3] = {0, 0x7FFFFFFEu, 0};
    uint32_t tall[32] = {2}, tall_cells[32] = {0};
    for (int32_t y = 1; y <= 30; y++) {
        tall[y] = 5;
        tall_cells[y] = 2;
    }
    tall[31] = 2;
    if (class_pass(3, wide, wide_cells) || positions() != 30 || class_pass(32, tall, tall_cells) || positions() != 30)
        return 10;
    /* a position on the contour; a pinched corner at (2, 2), a filled site off the contour, a revisit, two curves and
     * a clockwise walk; a ray past the contour, a step down and left after the ray site, and a position outside */
    const struct { int32_t height; uint32_t key[5], cover[5]; int code; } bad[9] = {
        {3, {2, 5, 2}, {2, 2, 0}, ON_CONTOUR}, {4, {1, 2}, {0, 0, 0, 8}, PINCHED},
        {5, {7, 7, 7}, {0, 0, 0, 0, 16}, PERIMETER}, {3, {7}, {0, 0, 2}, REVISIT},
        {3, {0x22, 0x55, 0x22}, {0, 2, 0}, CURVES}, {4, {3}, {0, 0, 0, 8}, CLOCKWISE},
        {3, {2, 5, 2}, {0, 10, 0}, NO_RAY}, {3, {0x80, 0x140, 0x80}, {0, 0, 2}, FIRST_STEP},
        {3, {2, 5, 2}, {1, 2, 0}, WINDING}};
    for (int i = 0; i < 9; i++)
        if (class_pass(bad[i].height, bad[i].key, bad[i].cover) != bad[i].code)
            return 11;
    if (class_pass(4, (const uint32_t[4]){1, 2}, (const uint32_t[4]){0, 0, 0, 8}) != PINCHED || where[0] != 2 ||
        where[1] != 2 || class_pass(3, (const uint32_t[3]){0x80, 0x140, 0x80}, (const uint32_t[3]){0, 0, 2}) !=
        FIRST_STEP || where[0] != -1 || where[1] != -1 || where[2] != 6)
        return 11;
    for (int32_t threads = 1; threads <= 3; threads++) {
        for (int32_t k = 4; k <= 10; k++)
            if (walk(k, 2, threads) || walk(k, 3, threads))
                return 4;
        if (walk(12, 2, threads))
            return 4;
    }
    /* SE's subtree as NE's reflection, against SE's walked: at k_max = 12, 21,557 reflected records */
    if (mirrored(12, 2) || mirrored(10, 3))
        return 12;
    /* the longest walk the start bits allow, its 64th start included, cut short at once */
    int64_t walks[132], distinct[132], nodes;
    for (int32_t threads = 1; threads <= 3; threads++)
        if (peierls_walk(131, 3, 1000, threads, walks, distinct, &nodes) != 1)
            return 5;
    /* the census's tree, every record checked: at max_len = 12, 2,797 kept of 2,813 built, at 13, 13,357 of 13,597 */
    for (int32_t k = 4; k <= 13; k++) {
        const int32_t cap = (k * k - 4 * k + 8) / 8;
        int64_t kept, built, high;
        if (shapes(k, cap, &kept, &built, &high) || kept < 1 || high < 1 ||
            (k == 12 && (kept != 2797 || built != 2813)) || (k == 13 && (kept != 13357 || built != 13597)))
            return 7;
    }
    /* the widest frames: 30-cell shapes, a row and a column 30 long and a staircase 16 wide, and an 8 x 8 ring
     * around 36 free sites */
    uint64_t row[1] = {(1u << 30) - 1}, column[30], stairs[15], ring[8];
    for (int32_t y = 0; y < 30; y++)
        column[y] = 1;
    for (int32_t y = 0; y < 15; y++)
        stairs[y] = (uint64_t)3 << y;
    for (int32_t y = 0; y < 8; y++)
        ring[y] = y == 0 || y == 7 ? 0xFF : 0x81;
    if (crafted(row, 0, 30, 62, 30) || crafted(column, 29, 30, 62, 30) || crafted(stairs, 14, 30, 34, 30) ||
        crafted(ring, 7, 28, 32, 64))
        return 8;
    const int32_t ms[4] = {1, 6, 11, 16};
    for (int32_t L = 1; L <= 6; L++) {
        const int32_t side = 2 * L + 1, n = side * side;
        int32_t *all = malloc(n * sizeof *all), *left = malloc(side * sizeof *left), origin = L * side + L;
        uint8_t *right = malloc(n), *border = malloc(n), *none = calloc(n, 1);
        int32_t *out = malloc(5 * sizeof *out);
        for (int32_t s = 0; s < n; s++) {
            const int32_t x = s % side, y = s / side;
            all[s] = s;
            right[s] = x == side - 1;
            border[s] = x == 0 || y == 0 || x == side - 1 || y == side - 1;
        }
        for (int32_t y = 0; y < side; y++)
            left[y] = y * side;
        /* reach at c = 0.6 from the origin to the border, m = 1; crossing at m = 8 from the left column to the right */
        if (L == 3 && (wrap(&origin, 1, border, 0x999999999999999Au, 1) || wrap(left, side, right, (uint64_t)1 << 56, 8)))
            return 6;
        for (int i = 0; i < 4; i++) {
            const int32_t m = ms[i];
            const uint64_t bounds[3] = {0, (uint64_t)1 << (64 - m), UINT64_MAX};
            for (int b = 0; b < 3; b++) {
                const struct { const int32_t *sources; int32_t nsources; const uint8_t *target; } runs[6] = {
                    {left, side, right}, {&origin, 1, border}, {all, n, right}, {left, 0, right}, {&origin, 1, none},
                    {all, n, none}};
                for (int r = 0; r < 6; r++) {
                    if (peierls_flood(0x5EEDu + L, UINT64_MAX - 2, 5, L, bounds[b], m, runs[r].sources,
                                      runs[r].nsources, runs[r].target, out))
                        return 2;
                    for (int f = 0; f < 5; f++)
                        if (out[f] < 0 || out[f] >= 1 << m || (runs[r].target == none && out[f] != (1 << m) - 1))
                            return 3;
                }
            }
        }
        free(all);
        free(left);
        free(right);
        free(border);
        free(none);
        free(out);
    }
    puts("ok");
    return 0;
}
"""


def test_kernel_runs_clean_under_address_and_undefined_behaviour_sanitizers(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler cc on PATH")
    flags = ("-std=c99", "-g", "-O1", "-pthread", "-fsanitize=address,undefined", "-fno-sanitize-recover=all")
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    if subprocess.run(["cc", *flags, "-o", str(tmp_path / "probe"), str(probe)], capture_output=True, timeout=300).returncode:
        pytest.skip("cc cannot link the address and undefined behaviour sanitizer runtimes")
    driver = tmp_path / "driver.c"
    driver.write_text(_SANITIZER_DRIVER)
    build = subprocess.run(
        ["cc", *flags, "-I", os.path.dirname(kernel.SOURCE), "-o", str(tmp_path / "driver"), str(driver)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert build.returncode == 0, build.stderr
    run = subprocess.run([str(tmp_path / "driver")], capture_output=True, text=True, timeout=300)
    assert (run.returncode, run.stdout, run.stderr) == (0, "ok\n", "")


#: The test program of the thread sanitizer build, which includes the kernel's source with pthread_create counted, and
#: refused past a limit.  The circuit walk of both rules at k_max = 4..10 on 1, 2 and 3 threads, whole and cut short,
#: against the counts of the first thread count and the pinned counts at k_max = 10; the longest walk cut short at
#: once; 32 threads asked for at k_max = 6, which sets up one walker a subtree; and walks of 3 threads, all of them
#: started, or not all.  No walk starts more than 3 threads.
_THREAD_SANITIZER_DRIVER = r"""
#include <errno.h>
#include <pthread.h>
#include <stdio.h>

/* The threads started, and the number after which pthread_create fails, or -1 for none. */
static int started, refuse = -1;

static int start(pthread_t *id, const pthread_attr_t *attr, void *(*body)(void *), void *arg)
{
    if (refuse >= 0 && started >= refuse)
        return EAGAIN;
    started++;
    return pthread_create(id, attr, body, arg);
}

#define pthread_create start
#include "_kernel.c"

/* walks[10], distinct[10] and the nodes at k_max = 10, under the five rule and the seven */
static const int64_t PINNED[2][3] = {{8383, 6643, 327086}, {48924, 22700, 2590361}};

/* The walk at k_max under `turns` on 1, 2 and 3 threads, and cut short one node before its end: 1 unless every thread
 * count gives the counts of one thread, and the pinned counts at k_max = 10, else 0. */
static int walks(int32_t k_max, int32_t turns)
{
    int64_t first[2][11] = {{0}}, counts[2][11] = {{0}}, nodes1 = 0, nodes;
    int bad = 0;
    for (int32_t threads = 1; threads <= 3; threads++) {
        int64_t(*into)[11] = threads == 1 ? first : counts;
        bad |= peierls_walk(k_max, turns, INT64_MAX, threads, into[0], into[1], &nodes) != 0;
        if (threads == 1)
            nodes1 = nodes;
        else
            bad |= nodes != nodes1 || memcmp(first, counts, sizeof first) != 0;
        bad |= peierls_walk(k_max, turns, nodes1 - 1, threads, counts[0], counts[1], &nodes) != 1;
    }
    const int64_t *pinned = PINNED[turns - 2];
    return bad || (k_max == 10 && (first[0][10] != pinned[0] || first[1][10] != pinned[1] || nodes1 != pinned[2]));
}

int main(void)
{
    for (int32_t k = 4; k <= 10; k++)
        if (walks(k, 2) || walks(k, 3))
            return 1;
    int64_t counts[2][132], nodes;
    for (int32_t threads = 1; threads <= 3; threads++)
        if (peierls_walk(131, 3, 1000, threads, counts[0], counts[1], &nodes) != 1)
            return 2;
    /* 32 threads asked for: one a subtree, 20 under the five rule and 28 under the seven, set up and none started */
    struct circuits c;
    for (int32_t turns = 2; turns <= 3; turns++) {
        const int bad = open_walk(&c, 6, turns, INT64_MAX, 32) || c.threads != 4 * (2 * turns + 1);
        close_walk(&c);
        if (bad)
            return 3;
    }
    /* 3 threads asked for: 2 started besides the caller's in each of the two rounds, and then none, and one only:
     * the caller walks what the missing threads would have */
    int64_t one[2][7], many[2][7], nodes1;
    for (refuse = -1; refuse <= 1; refuse++) {
        started = 0;
        if (peierls_walk(6, 2, INT64_MAX, 1, one[0], one[1], &nodes1) || started != 0 ||
            peierls_walk(6, 2, INT64_MAX, 3, many[0], many[1], &nodes) || started != (refuse < 0 ? 4 : refuse) ||
            nodes != nodes1 || memcmp(one, many, sizeof one))
            return 4;
    }
    puts("ok");
    return 0;
}
"""


def test_the_walk_runs_clean_under_the_thread_sanitizer(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler cc on PATH")
    flags = ("-std=c99", "-g", "-O1", "-pthread", "-fsanitize=thread")
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    if subprocess.run(["cc", *flags, "-o", str(tmp_path / "probe"), str(probe)], capture_output=True, timeout=300).returncode:
        pytest.skip("cc cannot link the thread sanitizer runtime")
    driver = tmp_path / "driver.c"
    driver.write_text(_THREAD_SANITIZER_DRIVER)
    build = subprocess.run(
        ["cc", *flags, "-I", os.path.dirname(kernel.SOURCE), "-o", str(tmp_path / "driver"), str(driver)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert build.returncode == 0, build.stderr
    run = subprocess.run([str(tmp_path / "driver")], capture_output=True, text=True, timeout=300)
    assert (run.returncode, run.stdout, run.stderr) == (0, "ok\n", "")


def _env_with_src(**extra: str) -> dict[str, str]:
    """The test's environment with ``src`` on ``PYTHONPATH``, updated by ``extra``."""
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        **extra,
    }


def test_import_loads_no_scipy_and_not_the_kernel(tmp_path):
    # in a fresh interpreter: the CLI's import loads no scipy module and not
    # the flood kernel, and builds nothing into the kernel cache.  (ctypes
    # itself is loaded: the census and the Monte Carlo hand the kernel their
    # buffers through it.)
    script = textwrap.dedent(
        """
        import os
        import sys
        import peierls.cli
        from peierls import kernel, montecarlo
        assert [name for name in sys.modules if name.split(".")[0] == "scipy"] == []
        assert "concurrent.futures" not in sys.modules
        assert kernel._library is None
        if os.path.exists("/proc/self/maps"):
            with open("/proc/self/maps") as maps:
                assert "kernel-" not in maps.read()
        """
    )
    env = _env_with_src(XDG_CACHE_HOME=str(tmp_path / "cache"))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert not (tmp_path / "cache").exists()


def test_concurrent_builds_into_a_fresh_cache_agree(tmp_path):
    # two interpreters build the kernel into the same empty cache at once;
    # each loads a whole library, and one file is left, no temporary
    script = "from peierls.montecarlo import _critical_indices; print(_critical_indices(5, 12, 8, 0, 40).tolist())"
    env = _env_with_src(XDG_CACHE_HOME=str(tmp_path))
    runs = [
        subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outputs = [run.communicate(timeout=300) for run in runs]
    assert [run.returncode for run in runs] == [0, 0], [err for _, err in outputs]
    assert outputs[0][0] == outputs[1][0] == f"{_critical_indices(5, 12, 8, 0, 40).tolist()}\n"
    built = os.listdir(tmp_path / "peierls")
    assert len(built) == 1 and built[0].startswith("kernel-") and built[0].endswith(".so")
    # loading the cached kernel imports nothing it needs only to build
    script = "import sys; from peierls import kernel; kernel.load('a test'); assert 'subprocess' not in sys.modules"
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr


def test_a_cached_kernel_cut_short_is_built_anew(tmp_path):
    # a kernel cut to 100 bytes in the cache fails to load; the next load
    # builds it once more, through a temporary name, and runs on it
    script = "from peierls.montecarlo import _critical_indices; print(_critical_indices(5, 12, 8, 0, 40).tolist())"
    env = _env_with_src(XDG_CACHE_HOME=str(tmp_path))
    want = f"{_critical_indices(5, 12, 8, 0, 40).tolist()}\n"
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert (run.returncode, run.stdout) == (0, want), run.stderr
    [built] = os.listdir(tmp_path / "peierls")
    with open(tmp_path / "peierls" / built, "r+b") as fh:
        fh.truncate(100)
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert (run.returncode, run.stdout) == (0, want), run.stderr
    assert os.listdir(tmp_path / "peierls") == [built] and os.path.getsize(tmp_path / "peierls" / built) > 100


def test_sweep_cache_follows_xdg_cache_home(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert kernel._cache() == os.path.join(str(tmp_path), "peierls")
    monkeypatch.setenv("XDG_CACHE_HOME", "")
    monkeypatch.setenv("HOME", str(tmp_path))
    assert kernel._cache() == os.path.join(str(tmp_path), ".cache", "peierls")


def test_a_build_removes_the_cached_kernels_not_loaded_for_thirty_days(monkeypatch, tmp_path):
    # a build removes the other kernels of the cache last loaded more than
    # kernel.STALE_S ago, and no other file; a load touches the kernel it loads
    monkeypatch.setattr(kernel, "_library", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = tmp_path / "peierls"
    cache.mkdir()
    now = time.time()
    ages = {"kernel-stale.so": kernel.STALE_S + 60, "kernel-recent.so": kernel.STALE_S - 60, "notes.so": 2 * kernel.STALE_S}
    for name, age in ages.items():
        (cache / name).write_bytes(b"")
        os.utime(cache / name, (now - age, now - age))
    kernel.load("a test")
    [built] = set(os.listdir(cache)) - set(ages)
    assert sorted(os.listdir(cache)) == sorted([built, "kernel-recent.so", "notes.so"])
    os.utime(cache / built, (now - 2 * kernel.STALE_S, now - 2 * kernel.STALE_S))
    monkeypatch.setattr(kernel, "_library", None)
    kernel.load("a test")
    assert now - 60 < os.stat(cache / built).st_mtime
    # the file a build keeps, the one it built and loads, is never removed, however old
    monkeypatch.setattr(kernel, "STALE_S", -1)
    kernel._prune(str(cache), str(cache / built))
    assert sorted(os.listdir(cache)) == sorted([built, "notes.so"])


def test_sweep_build_failures_raise_build_error(monkeypatch, tmp_path):
    # a source that does not compile leaves no temporary in the cache, and a
    # cache path that is a file cannot take the library
    (tmp_path / "bad.c").write_text("not C\n")
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(kernel, "_library", None)
    monkeypatch.setattr(kernel, "SOURCE", str(tmp_path / "bad.c"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    with pytest.raises(BuildError, match=r"cc could not build the kernel bad\.c for a test: .*error") as err:
        kernel.load("a test")
    assert "\n" not in str(err.value)
    assert os.listdir(tmp_path / "cache" / "peierls") == []
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    with pytest.raises(BuildError, match=r"cannot write the kernel bad\.c for a test to "):
        kernel.load("a test")
    assert kernel._library is None


def test_the_kernel_source_is_package_data():
    # an installed package builds its kernel from the source it ships
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(kernel.SOURCE), "..", "..", "pyproject.toml"), "rb") as fh:
        package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["peierls"]
    assert os.path.basename(kernel.SOURCE) in package_data
    assert os.path.isfile(kernel.SOURCE)


def test_flood_allocation_failure_raises_memory_error():
    runs = (
        lambda: bisect_threshold(8, 10, 0.3, 0),
        lambda: estimate_origin_reach(8, 0.5, 10, 0),
        lambda: estimate_crossing(8, 0.5, 10, 0),
    )
    with mock.patch.object(kernel, "_library", SimpleNamespace(peierls_flood=lambda *args: -1)):
        for run in runs:
            with pytest.raises(MemoryError, match="flood"):
                run()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["counts", "--k-max", "8"],
        ["bounds", "--mode", "analytic", "--r", "9", "--c", "0.9"],
        ["bounds", "--mode", "exact", "--c", "0.9"],
        ["simulate", "--L", "8", "--c", "0.6", "--trials", "20", "--observable", "reach"],
        ["simulate", "--L", "8", "--c", "0.6", "--trials", "20", "--observable", "crossing"],
        ["simulate", "--L", "8", "--bisect", "--tol", "0.1", "--trials", "20"],
    ],
    ids=["import", "counts", "bounds-analytic", "bounds-exact", "reach", "crossing", "bisect"],
)
def test_the_cli_and_its_commands_leave_numpy_unloaded(argv, tmp_path):
    # in a fresh interpreter: import peierls.cli, then run the command, if any
    script = textwrap.dedent(
        """
        import sys
        import peierls.cli
        assert not sys.argv[1:] or peierls.cli.main(sys.argv[1:]) == 0
        print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
        """
    )
    out = [] if not argv else ["--out", str(tmp_path / "run")]
    run = subprocess.run([sys.executable, "-c", script, *argv, *out], env=_env_with_src(), capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr


def test_bisection_pinned():
    # three chunks at L=64; the values are the oracle's (oracle_bisect), hit
    # counts out of 150 trials at each midpoint
    expected = (
        0.591796875,
        tuple(
            (c, hits / 150)
            for c, hits in (
                (0.5, 0),
                (0.75, 150),
                (0.625, 150),
                (0.5625, 1),
                (0.59375, 85),
                (0.578125, 16),
                (0.5859375, 41),
                (0.58984375, 58),
            )
        ),
    )
    for workers in (1, 3):
        res = bisect_threshold(64, 150, 0.005, 3, workers=workers)
        assert (res.estimate, res.trace) == expected


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-(1 << 70), 1 << 70),
    st.integers(1, 6),
    st.integers(0, 1 << 40),
    st.integers(1, 7),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    st.integers(1, 10),
)
def test_blocked_kernel_matches_whole_array_oracle(seed, L, t0, n, c, m):
    # one kernel call floods a block of n whole windows in turn; its occupancy
    # at c and its keys at every m match the oracle's whole-array hashes
    side = 2 * L + 1
    t1 = t0 + n
    occ = kernel_keys.occupied(seed, L, c, t0, t1)
    keys = kernel_keys.site_keys(seed, L, 1 << (64 - m), m, t0, t1)
    hashes = hash_oracle.trial_hashes(seed, L, t0, t1)
    expected = (hashes >> np.uint64(11)).astype(np.float64) * 2.0**-53
    assert occ.shape == keys.shape == (n, side, side)
    assert np.array_equal(occ, hash_oracle.occupied(seed, L, c, t0, t1))
    assert np.array_equal(keys, hashes >> np.uint64(64 - m))
    j = int(c * (1 << m))
    assert np.array_equal(keys < j, expected < j / (1 << m))
    for t, x, y in ((t0, 0, 0), (t1 - 1, -L, L), (t1 - 1, L, -L)):
        assert occ[t - t0, y + L, x + L] == (hash_oracle.site_uniform(hash_oracle.trial_seed(seed, t), x, y) < c)
        assert keys[t - t0, y + L, x + L] == hash_oracle._site_hash(hash_oracle.trial_seed(seed, t), x, y) >> (64 - m)


def test_row_slice_blocks_match_oracle():
    # a radius-100 window, 40,401 sites a trial, matches the oracle site for site
    assert np.array_equal(kernel_keys.occupied(5, 100, 0.6, 3, 5), hash_oracle.occupied(5, 100, 0.6, 3, 5))
    keys = kernel_keys.site_keys(5, 100, 1 << 54, 10, 3, 5)
    assert np.array_equal(keys, hash_oracle.trial_hashes(5, 100, 3, 5) >> np.uint64(54))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 1 << 64),
    st.integers(1, 12),
    st.floats(0.3, 0.8),
    st.lists(st.integers(1, 40), min_size=1, max_size=8),
    st.sampled_from([1, 2, 3]),
)
def test_any_split_of_the_trials_gives_the_same_results(seed, L, c, sizes, workers):
    bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
    ranges = list(zip(bounds, bounds[1:]))
    trials = bounds[-1]
    m = 6
    for counter in (_reach_count, _crossing_count):
        with _fan_out(((counter, seed, L, c, a, b) for a, b in ranges), workers) as results:
            assert sum(count for _, count in results) == counter(seed, L, c, 0, trials)
    with _fan_out(((_critical_histogram, seed, L, m, a, b) for a, b in ranges), workers) as results:
        assert sum((histogram for _, histogram in results), Counter()) == _critical_histogram(seed, L, m, 0, trials)


def test_chunks_are_lazy_and_few_in_flight():
    # 10**15 radius-8 trials, far past the run cap: each chunk is cut at the
    # ceiling of 2**25 site-trials, 116,105 trials of 289 sites
    assert montecarlo._CHUNK_SITE_TRIALS == 1 << 25
    for workers in (1, 2, 3):
        chunks = _chunks(8, 10**15, workers)
        assert isinstance(chunks, Iterator) and next(chunks) == (0, 116_105) and next(chunks) == (116_105, 232_210)
    drawn = []

    def tasks():
        for a in range(100):
            drawn.append(a)
            yield abs, a

    for workers in (1, 2, 3):
        drawn.clear()
        with _fan_out(tasks(), workers) as results:
            for i, (index, value) in enumerate(results):
                # beyond the results taken, at most one running task and one received result a worker
                assert value == index and len(drawn) <= i + 1 + 2 * workers
        assert len(drawn) == 100


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 300), st.integers(1, 10**6), st.integers(1, 6))
def test_chunks_tile_the_trials_in_at_most_the_pools_parts(L, trials, workers):
    chunks = list(_chunks(L, trials, workers))
    starts, ends = [a for a, _ in chunks], [b for _, b in chunks]
    assert starts == [0, *ends[:-1]] and ends[-1] == trials and all(a < b for a, b in chunks)
    sites, parts = (2 * L + 1) ** 2, pool._parts(workers)
    assert max(b - a for a, b in chunks) <= max(1, montecarlo._CHUNK_SITE_TRIALS // sites)
    if -(-trials // parts) * sites <= montecarlo._CHUNK_SITE_TRIALS:
        # the ceiling does not bind: the pool's parts, one at one worker
        assert len(chunks) <= parts and (workers > 1 or chunks == [(0, trials)])


def test_monte_carlo_caps_threshold():
    sites = Window(8).site_count
    runs = (
        lambda: estimate_origin_reach(8, 0.5, 10, 0, workers=2),
        lambda: estimate_crossing(8, 0.5, 10, 0),
        lambda: bisect_threshold(8, 10, 0.3, 0, workers=2),
    )
    for run in runs:
        uncapped = run()
        with mock.patch.object(montecarlo, "_SITE_LIMIT", sites - 1), pytest.raises(CapExceeded):
            run()
        with mock.patch.object(montecarlo, "_SITE_TRIAL_LIMIT", 10 * sites - 1), pytest.raises(CapExceeded):
            run()
        with mock.patch.object(montecarlo, "_SITE_LIMIT", sites):
            with mock.patch.object(montecarlo, "_SITE_TRIAL_LIMIT", 10 * sites):
                assert run() == uncapped


def test_default_caps_reject_oversized_runs():
    # radius 16383 is the largest field admitted, and a trillion radius-8
    # trials are past the site-trial cap; both are refused before any work
    with pytest.raises(CapExceeded):
        estimate_origin_reach(16384, 0.5, 1, 0)
    with pytest.raises(CapExceeded):
        bisect_threshold(8, 10**12, 0.01, 0)
    assert Window(16383).site_count <= montecarlo._SITE_LIMIT < Window(16384).site_count
    assert 10**12 * Window(8).site_count > montecarlo._SITE_TRIAL_LIMIT
    # runs the caps must still admit: a radius-2048 field, and 5M radius-128 trials
    assert Window(2048).site_count <= montecarlo._SITE_LIMIT
    assert 5_000_000 * Window(128).site_count <= montecarlo._SITE_TRIAL_LIMIT


def brute_reach_probability(c):
    """Independent oracle for the 3x3 window: iterate occupancy patterns."""
    import itertools

    cells = [(x, y) for y in (-1, 0, 1) for x in (-1, 0, 1)]
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=9):
        occ = {s for s, bit in zip(cells, pattern) if bit}
        if (0, 0) not in occ:
            continue
        seen = {(0, 0)}
        stack = [(0, 0)]
        reached = False
        while stack:
            x, y = stack.pop()
            if max(abs(x), abs(y)) == 1:
                reached = True
                break
            for nb in ((x + 1, y), (x, y + 1), (x - 1, y), (x, y - 1)):
                if nb in occ and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if reached:
            total += c ** len(occ) * (1 - c) ** (9 - len(occ))
    return total


def test_exact_reach_probability_small_window():
    for c in (0.3, 0.5, 0.7):
        assert exact_origin_reach_probability(1, c) == pytest.approx(brute_reach_probability(c), abs=1e-14)


def test_exact_reach_probability_rejects_bad_radius():
    for L in (0, -1):
        with pytest.raises(ValueError):
            exact_origin_reach_probability(L, 0.3)


def test_exact_reach_probability_infeasible_window():
    with pytest.raises(CapExceeded):
        exact_origin_reach_probability(2, 0.5)


def test_monte_carlo_matches_exact_small_window():
    c = 0.5
    exact = exact_origin_reach_probability(1, c)
    est = estimate_origin_reach(1, c, 20_000, 6)
    assert abs(est.value - exact) <= 4 * est.std_error
