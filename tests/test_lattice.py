import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hash_oracle import hash_grids, site_uniform, trial_seed
from peierls import Window, lattice, neighbors4
from peierls.lattice import NEIGHBOR_OFFSETS_4, NEIGHBOR_OFFSETS_8, _hash_windows
from peierls.montecarlo import _trial_seeds, _vacant


def occupancy(seed, L, c, t0=0, t1=1):
    """The library's occupancy grids of trials t0..t1-1."""
    side = 2 * L + 1
    vacant = np.zeros((t1 - t0, side, side), dtype=bool)
    _vacant(_trial_seeds(seed, t0, t1), L, c, vacant)
    return ~vacant


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


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=4),
    st.integers(1, 40),
    st.data(),
    st.integers(1, 4000),
)
def test_band_hashes_are_the_central_rows_of_the_window(seeds, radius, data, block):
    # a site's hash does not depend on the window, so the band |y| <= h is
    # the window's rows -h..h, whether blocks hold whole bands or row slices
    h = data.draw(st.integers(0, radius))
    seeds = np.array(seeds, dtype=np.uint64)
    band = np.zeros((seeds.size, 2 * h + 1, 2 * radius + 1), dtype=np.uint64)
    with mock.patch.object(lattice, "_BLOCK_SITES", block):
        _hash_windows(seeds, radius, band, lambda z, dst: np.copyto(dst, z))
    assert np.array_equal(band, hash_grids(seeds, radius)[:, radius - h : radius + h + 1])


def test_hash_windows_on_threads_match_the_serial_result():
    # a call takes the block buffers out while it runs, so calls on several
    # threads of one process never hash into the same buffer
    expected = [occupancy(seed, 20, 0.5, 0, 8) for seed in range(6)]
    found: dict[int, list] = {}

    def hash_repeatedly(seed):
        found[seed] = [occupancy(seed, 20, 0.5, 0, 8) for _ in range(30)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hash_repeatedly, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for seed in range(6):
        assert all(np.array_equal(grid, expected[seed]) for grid in found[seed])
