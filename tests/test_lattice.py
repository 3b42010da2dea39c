import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_keys
from hash_oracle import _site_hash, site_uniform, trial_hashes, trial_seed
from peierls import Window, neighbors4
from peierls.lattice import NEIGHBOR_OFFSETS_4, NEIGHBOR_OFFSETS_8
from peierls.montecarlo import _critical_indices, _crossing_count, _flood, _reach_count


def occupancy(seed, L, c, t0=0, t1=1):
    """The library's occupancy grids of trials t0..t1-1, read out of its flood kernel."""
    return kernel_keys.occupied(seed, L, c, t0, t1)


def test_neighbors4_origin_order():
    assert neighbors4((0, 0)) == [(1, 0), (0, 1), (-1, 0), (0, -1)]


def test_neighbors4_translation():
    base = neighbors4((0, 0))
    for sx, sy in [(5, -3), (-17, 2), (1000, 999)]:
        assert neighbors4((sx, sy)) == [(x + sx, y + sy) for x, y in base]


def test_neighbors8_counts_and_subset():
    assert len(set(NEIGHBOR_OFFSETS_8)) == 8
    assert all(max(abs(dx), abs(dy)) == 1 for dx, dy in NEIGHBOR_OFFSETS_8)
    assert set(NEIGHBOR_OFFSETS_4) < set(NEIGHBOR_OFFSETS_8)


def test_neighbors8_counterclockwise():
    # 45 degrees apart from east: the circuit walker reverses direction d as
    # (d + 4) % 8 and turns by at most 90 degrees as d +- 2
    angles = [math.atan2(y, x) % (2 * math.pi) for x, y in NEIGHBOR_OFFSETS_8]
    assert angles == pytest.approx([d * math.pi / 4 for d in range(8)])


def test_window_validation_and_counts():
    with pytest.raises(ValueError):
        Window(0)
    w = Window(3)
    assert w.side == 7 and w.site_count == 49
    # a copy is checked as the window is
    assert w._replace(radius=4) == Window(4)
    with pytest.raises(ValueError):
        w._replace(radius=0)


def test_field_deterministic_and_scalar_match():
    first = occupancy(123, 4, 0.5, 0, 3)
    assert np.array_equal(occupancy(123, 4, 0.5, 0, 3), first)
    for t in range(3):
        for y in range(-4, 5):
            for x in range(-4, 5):
                assert first[t, y + 4, x + 4] == (site_uniform(trial_seed(123, t), x, y) < 0.5)
    assert not np.array_equal(occupancy(124, 4, 0.5, 0, 3), first)


def test_field_window_independent():
    small = occupancy(7, 2, 0.5)
    big = occupancy(7, 5, 0.5)
    assert (big[:, 3:8, 3:8] == small).all()


def test_law_of_large_numbers():
    fracs = occupancy(0, 64, 0.5, 0, 100).mean(axis=(1, 2))
    assert abs(np.mean(fracs) - 0.5) < 0.01


def test_occupation_frequency_three_sigma():
    c = 0.3
    g = occupancy(0, 64, c)
    sigma = math.sqrt(c * (1 - c) / g.size)
    assert abs(g.mean() - c) < 3 * sigma


def test_threshold_coupling_monotone():
    low = occupancy(5, 16, 0.3)
    high = occupancy(5, 16, 0.7)
    assert (low <= high).all()
    assert low.sum() < high.sum()


@settings(max_examples=60, deadline=None)
@given(st.integers(-(1 << 70), 1 << 70), st.integers(0, (1 << 64) - 1), st.integers(1, 8), st.integers(1, 16), st.data())
def test_band_hashes_are_the_central_rows_of_the_window(seed, t0, radius, m, data):
    # a site's hash does not depend on the window, so the keys of a radius-h
    # window are the central rows and columns -h..h of a wider one's
    h = data.draw(st.integers(0, radius))
    bound = 1 << (64 - m)
    wide = kernel_keys.site_keys(seed, radius, bound, m, t0, t0 + 2)
    band = slice(radius - h, radius + h + 1)
    assert np.array_equal(kernel_keys.site_keys(seed, h, bound, m, t0, t0 + 2), wide[:, band, band])
    assert np.array_equal(wide, trial_hashes(seed, radius, t0, t0 + 2) >> np.uint64(64 - m))


def test_hash_windows_on_threads_match_the_serial_result():
    # the kernel allocates its scratch per call and runs without the GIL, so
    # calls on several threads of one process hash and flood their windows
    # side by side and never share a buffer
    def results(seed):
        return (
            _reach_count(seed, 20, 0.6, 0, 60),
            _crossing_count(seed, 20, 0.6, 0, 60),
            _critical_indices(seed, 20, 8, 0, 30).tolist(),
        )

    expected = [results(seed) for seed in range(6)]
    found: dict[int, list] = {}

    def run_repeatedly(seed):
        found[seed] = [results(seed) for _ in range(10)]

    threads = [threading.Thread(target=run_repeatedly, args=(seed,)) for seed in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    for seed in range(6):
        assert found[seed] == [expected[seed]] * 10


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.sampled_from([0, -1, 1 << 63, (1 << 64) - 1, (1 << 64) + 5]), st.integers(-(1 << 70), 1 << 70)),
    st.one_of(st.sampled_from([0, 1 << 63, (1 << 64) - 2]), st.integers(0, (1 << 64) - 1)),
    st.integers(1, 4),
    st.integers(1, 3),
)
def test_kernel_keys_match_the_hash_oracle_bit_for_bit(seed, t0, L, n):
    # every site of every trial, trial indices past 2**64 wrapping as the
    # oracle's do; a flood from a site s to s returns the key of s
    # (kernel_keys.site_keys)
    side = 2 * L + 1
    hashes = trial_hashes(seed, L, t0, t0 + n)
    assert np.array_equal(kernel_keys.site_keys(seed, L, 1 << 48, 16, t0, t0 + n), hashes >> np.uint64(48))
    for t in range(n):
        # the window's corners and centre by the scalar oracle, which knows no window
        for x, y in ((-L, -L), (L, -L), (-L, L), (L, L), (0, 0)):
            assert int(hashes[t, y + L, x + L]) == _site_hash(trial_seed(seed, t0 + t), x, y)
    # at m = 1 a site is vacant (key 1) at the bound of its own hash and occupied (key 0) one above it
    for t in range(n):
        for s in range(side * side):
            target = np.zeros(side * side, dtype=bool)
            target[s] = True
            h = int(hashes[t].flat[s])
            assert _flood(seed, t0 + t, 1, L, h, 1, [s], target).tolist() == [1]
            if h < (1 << 64) - 1:
                assert _flood(seed, t0 + t, 1, L, h + 1, 1, [s], target).tolist() == [0]
