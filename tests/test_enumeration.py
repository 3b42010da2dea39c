from collections import Counter, defaultdict
from functools import lru_cache
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contour_oracle
from contour_oracle import (
    _contour_bits,
    _embed,
    _iter_shapes,
    census_classes,
    census_part,
    enumerate_origin_clusters,
    frame_rows,
    oracle_outer_boundary,
    shape_block,
)
from walker_oracle import oracle_circuit_count
from peierls import (
    CapExceeded,
    ContourError,
    IncompletenessError,
    NoRayIntersection,
    Window,
    class_decomposition,
    contour_event_table,
    estimate_crossing,
    estimate_origin_reach,
    exact_contour_counts,
    exact_origin_reach_probability,
    full_count_table,
    interior_capacity,
    outer_boundary,
    self_avoiding_circuit_count,
    series_bound,
    tail_bound,
    truncated_q,
    walk_bound,
)
from peierls import clusters, enumeration, kernel, pool
from peierls.enumeration import (
    _CANON_STRIDE,
    _SPLIT_SIZE,
    _census_covers,
    _census_table,
    _circuit_walk,
    _event_part,
    _shape_block,
    class_counts_csv,
    count_table_csv,
    count_table_json_dict,
)


def brute_force_free_shapes(n_max):
    """Independent oracle: all 4-connected shapes up to translation, by growth."""
    def canonical(sites):
        x0 = min(x for x, _ in sites)
        y0 = min(y for _, y in sites)
        return frozenset((x - x0, y - y0) for x, y in sites)

    levels = [{canonical({(0, 0)})}]
    for _ in range(n_max - 1):
        nxt = set()
        for shape in levels[-1]:
            for x, y in shape:
                for nb in ((x + 1, y), (x, y + 1), (x - 1, y), (x, y - 1)):
                    if nb not in shape:
                        nxt.add(canonical(shape | {nb}))
        levels.append(nxt)
    return [len(level) for level in levels]


# ---------------------------------------------------------------------------
# cluster enumeration
# ---------------------------------------------------------------------------


def test_cluster_counts_small_caps():
    assert sum(1 for _ in enumerate_origin_clusters(1)) == 1
    assert sum(1 for _ in enumerate_origin_clusters(2)) == 5
    assert sum(1 for _ in enumerate_origin_clusters(3)) == 23


def test_cluster_counts_match_shape_oracle():
    # clusters of size n containing the origin = n * (free shapes of size n)
    shapes = brute_force_free_shapes(6)
    assert shapes == [1, 2, 6, 19, 63, 216]
    by_size = defaultdict(int)
    for cl in enumerate_origin_clusters(6):
        by_size[len(cl.sites)] += 1
    assert [by_size[n] for n in range(1, 7)] == [n * s for n, s in enumerate(shapes, start=1)]


def test_clusters_contain_origin_and_are_unique():
    seen = set()
    for cl in enumerate_origin_clusters(4):
        assert (0, 0) in cl.sites
        assert cl.sites not in seen
        seen.add(cl.sites)
        assert cl.boundary.isdisjoint(cl.sites)


def test_shape_boxes_are_tracked():
    for shape, bits, xmin, w, h in _iter_shapes(7):
        assert bits == sum(1 << e for e in shape)
        xs = [e & 63 for e in shape]
        assert (xmin, w, h) == (min(xs), max(xs) - min(xs) + 1, max(e >> 6 for e in shape) + 1)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    span=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    parts=st.integers(min_value=1, max_value=7),
)
def test_shape_tree_parts_partition_the_shapes(n, span, parts):
    whole = Counter((tuple(s), b, x, w, h) for s, b, x, w, h in _iter_shapes(n, span))
    split = Counter()
    for part in range(parts):
        split.update((tuple(s), b, x, w, h) for s, b, x, w, h in _iter_shapes(n, span, part, parts))
    assert split == whole
    if n < _SPLIT_SIZE and parts > 1:
        assert not list(_iter_shapes(n, span, parts - 1, parts))


def shape_records(shapes):
    """The records of a ``_shape_block`` as ``(key rows, cover rows, cells, boundary sites, enclosed sites)``."""
    h = shapes.height
    words = np.frombuffer(shapes.records, np.uint32).reshape(-1, 2 * h + 3).tolist()
    return [(tuple(r[:h]), tuple(r[h : 2 * h]), *r[2 * h :]) for r in words]


def _kernel_records(max_len, cap, part, parts):
    """The kernel's kept records of a part, as ``shape_block`` gives them, and its count of shapes built."""
    shapes = _shape_block(max_len, cap, part, parts)
    return Counter(shape_records(shapes)), shapes.built


@settings(max_examples=40, deadline=None)
@given(
    tree=st.one_of(
        # (cap, span, parts): small trees, every part of them
        st.tuples(st.integers(1, 9), st.integers(1, 5), st.integers(1, 7)),
        # 17-column frames, one part of at most one of the 216 split-size shapes
        st.tuples(st.just(13), st.integers(13, 14), st.integers(216, 432)),
    ),
    longer=st.booleans(),
    data=st.data(),
)
def test_shape_kernel_matches_the_oracle_walk(tree, longer, data):
    # per part, the kernel keeps the oracle's in-span shapes with contours of
    # at most max_len sites: key and cover rows, and cell, boundary and
    # enclosed counts, and builds as many; a contour may be one site longer
    # than the span
    cap, span, parts = tree
    max_len = 2 * span + 2 + longer
    whole = parts <= 7
    chosen = range(parts) if whole else [data.draw(st.integers(0, parts - 1), label="part")]
    union, built = Counter(), 0
    for part in chosen:
        got, got_built = _kernel_records(max_len, cap, part, parts)
        want, want_built = shape_block(max_len, cap, part, parts)
        assert got == Counter(want) and got_built == want_built
        if part:
            assert min((n for *_, n, _, _ in got), default=_SPLIT_SIZE) >= _SPLIT_SIZE
        union += got
        built += got_built
    if whole:
        # the parts are disjoint, and together they are the whole tree
        assert (union, built) == _kernel_records(max_len, cap, 0, 1)


def test_cluster_enumeration_cap():
    # the oracle encodes cells in 6-bit columns, and a census key holds a
    # contour of at most 32 columns, so shapes are capped at 30 cells
    with pytest.raises(CapExceeded, match="coordinate encoding range"):
        next(_iter_shapes(31))
    with mock.patch.object(kernel, "load", side_effect=AssertionError("the kernel was loaded")):
        fits = "the largest shape whose contour fits a 32-column census key"
        with pytest.raises(CapExceeded, match=f"^shape size 31 exceeds 30, {fits}$"):
            _shape_block(12, 31, 0, 1)


# ---------------------------------------------------------------------------
# exact contour counts
# ---------------------------------------------------------------------------


def test_small_exact_counts_frozen():
    t = exact_contour_counts(8)
    assert t.exact == {4: 1, 5: 0, 6: 4, 7: 12, 8: 47}


def test_exact_counts_match_reference_path():
    # slow reference: every origin cluster, set-based contour, dedup by site set
    distinct = set()
    for cl in enumerate_origin_clusters(interior_capacity(9)):
        ct = oracle_outer_boundary(cl)
        if ct.length <= 9:
            distinct.add(ct.sites)
    reference = defaultdict(int)
    for sites in distinct:
        reference[len(sites)] += 1
    t = exact_contour_counts(9)
    assert {k: reference[k] for k in range(4, 10)} == t.exact


@pytest.mark.parametrize("k_max, shapes", [(8, 91), (10, 3_792), (11, 50_148)])
def test_shape_count_is_the_fixed_polyomino_total(k_max, shapes):
    # sum of OEIS A001168 (fixed polyominoes) up to the cap, most of them
    # below a shape too wide for the span lemma
    assert exact_contour_counts(k_max).meta["shapes"] == shapes


@pytest.mark.parametrize("cap, shapes", [(14, 9_800_041), (15, 37_194_707)])
def test_shape_count_at_the_largest_caps_below_the_limit(cap, shapes):
    # A001168's totals past the sizes the oracle's walk can check; the span
    # lemma prunes nearly all of these shapes at k = 8, so the census is quick
    assert exact_contour_counts(8, cluster_cap=cap).meta["shapes"] == shapes


def test_fixed_shape_table_matches_the_unpruned_walk():
    by_size = Counter(len(shape) for shape, *_ in _iter_shapes(10))
    assert list(enumeration._FIXED_SHAPES[:10]) == [by_size[n] for n in range(1, 11)]
    # the table ends at the first size whose running total passes the limit
    totals = np.cumsum(enumeration._FIXED_SHAPES)
    assert totals[-1] > enumeration._SHAPE_LIMIT >= totals[-2]


def test_shape_count_at_length_twelve(table12):
    assert table12.meta["cluster_cap"] == 13
    assert table12.meta["shapes"] == 2_595_167


def test_shapes_in_the_span_box_at_length_twelve():
    # the shapes of up to 13 cells that fit the 5 x 5 box, built by the
    # kernel; the other 2,249,567 are never built, and 2,797 are kept
    shapes = _shape_block(12, 13, 0, 1)
    assert (shapes.built, len(shape_records(shapes))) == (345_600, 2_797)
    assert sum(_shape_block(12, 13, part, 8).built for part in range(8)) == 345_600


@pytest.mark.parametrize("cap", [16, 25])
def test_shape_limit_is_checked_before_any_work(cap):
    # 141,787,644 fixed shapes up to size 16; at 25 the table has no total
    with mock.patch.object(pool, "_fan_out", side_effect=AssertionError("a pool was started")):
        for count in (exact_contour_counts, full_count_table):
            with pytest.raises(CapExceeded, match="^shape enumeration exceeded the limit of 50000000$"):
                count(12, cluster_cap=cap)


def test_counts_idempotent_under_larger_cap():
    t8 = exact_contour_counts(8)
    t10 = exact_contour_counts(10)
    assert all(t10.exact[k] == t8.exact[k] for k in range(4, 9))
    # raising the cap never decreases a count
    for traj in (t10.meta["trajectory"],):
        sizes = sorted(traj)
        for k in range(4, 11):
            counts = [traj[s].get(k, 0) for s in sizes]
            assert counts == sorted(counts)


def test_exact_counts_below_walk_bound():
    t = exact_contour_counts(10)
    for k in range(4, 11):
        assert t.exact[k] <= walk_bound(k)


def test_incomplete_cap_raises():
    with pytest.raises(IncompletenessError):
        exact_contour_counts(12, cluster_cap=4)


def test_clusters_fit_inside_their_contours():
    for cl in enumerate_origin_clusters(6):
        ct = outer_boundary(cl)
        assert len(cl.sites) <= interior_capacity(ct.length)


def test_interior_capacity_values():
    assert [interior_capacity(k) for k in range(4, 13)] == [1, 1, 2, 3, 5, 6, 8, 10, 13]


# ---------------------------------------------------------------------------
# walk bound
# ---------------------------------------------------------------------------


def test_walk_bound_values():
    assert walk_bound(4) == 300
    assert walk_bound(5) == 2000
    assert walk_bound(6) == 12500
    with pytest.raises(ValueError):
        walk_bound(1)


def test_walk_bound_ratio_tends_to_five():
    ratios = [walk_bound(k + 1) / walk_bound(k) for k in range(40, 60)]
    assert abs(ratios[-1] - 5) < 0.2
    assert ratios == sorted(ratios, reverse=True)


# ---------------------------------------------------------------------------
# class decomposition
# ---------------------------------------------------------------------------


def test_diamond_class():
    from peierls import Cluster, site_boundary

    sites = frozenset({(0, 0)})
    key = class_decomposition(outer_boundary(Cluster(sites, site_boundary(sites), (0, 0))))
    assert key.ray_distance == 1
    assert key.first_step == 4


def test_no_ray_intersection():
    from peierls import Cluster, site_boundary

    sites = frozenset({(0, 3)})
    ct = outer_boundary(Cluster(sites, site_boundary(sites), (0, 3)))
    with pytest.raises(NoRayIntersection):
        class_decomposition(ct)


def test_class_partition(table10):
    sums = defaultdict(int)
    for (k, l, i), n in table10.classes.items():
        assert 1 <= l <= k - 1
        assert 1 <= i <= 4
        sums[k] += n
    assert {k: sums[k] for k in range(4, 11)} == table10.exact


def test_class_decomposition_total_on_reference_path():
    for cl in enumerate_origin_clusters(5):
        key = class_decomposition(outer_boundary(cl))
        assert 1 <= key.first_step <= 4


# ---------------------------------------------------------------------------
# self-avoiding circuits
# ---------------------------------------------------------------------------


def test_smallest_circuit_counts():
    sa = self_avoiding_circuit_count(5)
    # length 4: only the diamond; length 5: the diamond with one corner split
    assert sa.walks[4] == 1 and sa.distinct_sets[4] == 1
    assert sa.walks[5] == 4 and sa.distinct_sets[5] == 4


def test_sandwich(table10):
    sa_sets = table10.sa_sets
    sa_walks = table10.sa_walk
    for k in range(4, 11):
        assert table10.exact[k] <= sa_sets[k] <= sa_walks[k] <= walk_bound(k)


def test_seven_rule_dominates_five_rule():
    five = self_avoiding_circuit_count(8, rule="five")
    seven = self_avoiding_circuit_count(8, rule="seven")
    for k in range(4, 9):
        assert five.walks[k] <= seven.walks[k]


def test_walker_counts_pinned(table10):
    assert table10.sa_walk[10] == 8383
    assert table10.sa_sets[10] == 6643


def test_walker_counts_pinned_at_length_twelve(table12):
    assert table12.sa_walk == {4: 1, 5: 4, 6: 17, 7: 82, 8: 384, 9: 1800, 10: 8383, 11: 38_776, 12: 178_443}
    assert table12.sa_sets == {4: 1, 5: 4, 6: 16, 7: 73, 8: 325, 9: 1477, 10: 6643, 11: 29_831, 12: 133_545}
    assert table12.meta["sa_nodes"] == 6_401_240


def test_growth_below_five(table10):
    assert table10.sa_walk[10] / table10.sa_walk[9] < 5


def test_circuit_node_cap():
    with pytest.raises(CapExceeded):
        self_avoiding_circuit_count(10, max_nodes=50)
    with pytest.raises(ValueError):
        self_avoiding_circuit_count(10, max_nodes=0)


@pytest.mark.parametrize("rule", ["five", "seven"])
def test_walker_matches_recursive_oracle(rule):
    for k in range(4, 11):
        fast = self_avoiding_circuit_count(k, rule=rule)
        slow = oracle_circuit_count(k, rule=rule)
        assert (fast.walks, fast.distinct_sets, fast.nodes) == (slow.walks, slow.distinct_sets, slow.nodes)


@pytest.mark.parametrize("workers", [1, 2])
def test_walker_node_cap_threshold_matches_oracle(workers):
    # the cap is checked on the running total, so it is passed in the middle
    # of the walk; full_count_table runs the walk on a forked worker at 2
    nodes = self_avoiding_circuit_count(8).nodes
    walk = lambda k, max_nodes: self_avoiding_circuit_count(k, max_nodes=max_nodes, workers=workers)  # noqa: E731
    table = lambda k, max_nodes: full_count_table(k, max_nodes=max_nodes, workers=workers)  # noqa: E731
    for count in (walk, oracle_circuit_count):
        with pytest.raises(CapExceeded, match=f"circuit search exceeded {nodes - 1} nodes"):
            count(8, max_nodes=nodes - 1)
        assert count(8, max_nodes=nodes).nodes == nodes
    with pytest.raises(CapExceeded, match=f"circuit search exceeded {nodes - 1} nodes"):
        table(8, max_nodes=nodes - 1)
    assert table(8, max_nodes=nodes).meta["sa_nodes"] == nodes


def test_node_caps_past_64_bits_do_not_wrap():
    # the kernel counts in int64: a larger cap is clamped, never wrapped to 0 or below
    nodes = self_avoiding_circuit_count(8).nodes
    for cap in (1 << 63, 1 << 64, 10**30):
        assert self_avoiding_circuit_count(8, max_nodes=cap).nodes == nodes
        assert full_count_table(6, max_nodes=cap).meta["sa_nodes"] == self_avoiding_circuit_count(6).nodes


def test_walk_arguments_must_be_integers_before_the_kernel_loads():
    with mock.patch.object(kernel, "load", side_effect=AssertionError("the kernel was loaded")):
        for count in (self_avoiding_circuit_count, full_count_table):
            for bad in (8.0, 8.5, True, "8", None):
                with pytest.raises(TypeError, match=f"k_max must be an integer, got {bad!r}"):
                    count(bad)
            for bad in (1e6, False, True, "1000"):
                with pytest.raises(TypeError, match=f"max_nodes must be an integer, got {bad!r}"):
                    count(8, max_nodes=bad)
    # numpy integers are integers
    assert self_avoiding_circuit_count(np.int64(8), max_nodes=np.int32(10**9)) == self_avoiding_circuit_count(8)


#: (parameter, entry point called with it, an integer it takes)
_INTEGER_PARAMETERS = {
    "exact_contour_counts-workers": ("workers", lambda v: exact_contour_counts(8, workers=v), 2),
    "exact_contour_counts-cluster_cap": ("cluster_cap", lambda v: exact_contour_counts(8, cluster_cap=v), 5),
    "full_count_table-workers": ("workers", lambda v: full_count_table(6, workers=v), 2),
    "full_count_table-cluster_cap": ("cluster_cap", lambda v: full_count_table(6, cluster_cap=v), 2),
    "self_avoiding_circuit_count-workers": ("workers", lambda v: self_avoiding_circuit_count(6, workers=v), 2),
    "contour_event_table-max_len": ("max_len", lambda v: contour_event_table(v), 8),
    "contour_event_table-workers": ("workers", lambda v: contour_event_table(8, workers=v), 2),
    "walk_bound-k": ("k", walk_bound, 6),
    "interior_capacity-k": ("k", interior_capacity, 12),
    "Window-radius": ("radius", Window, 3),
    "exact_origin_reach_probability-L": ("L", lambda v: exact_origin_reach_probability(v, 0.5), 1),
    "tail_bound-r": ("r", lambda v: tail_bound(0.9, v), 6),
    "truncated_q-r": ("r", lambda v: truncated_q(0.9, v), 6),
}


@pytest.mark.parametrize("entry", list(_INTEGER_PARAMETERS))
def test_integer_parameters_are_checked_before_any_work(entry):
    name, call, good = _INTEGER_PARAMETERS[entry]
    with (
        mock.patch.object(kernel, "load", side_effect=AssertionError("the kernel was loaded")),
        mock.patch.object(pool, "_fan_out", side_effect=AssertionError("a pool was started")),
    ):
        for bad in (1.0, True, "3"):
            with pytest.raises(TypeError, match=f"^{name} must be an integer, got {bad!r}$"):
                call(bad)
    # numpy integers are integers
    assert call(np.int64(good)) == call(good)


#: Every public entry point that takes a concentration c, called with it.
_CONCENTRATION_ENTRIES = {
    "estimate_origin_reach": lambda c: estimate_origin_reach(4, c, 10, 1),
    "estimate_crossing": lambda c: estimate_crossing(4, c, 10, 1),
    "exact_origin_reach_probability": lambda c: exact_origin_reach_probability(2, c),
    "tail_bound": lambda c: tail_bound(c, 6),
    "series_bound": lambda c: series_bound(c),
    "truncated_q": lambda c: truncated_q(c, 6),
}


@pytest.mark.parametrize(
    "bad, error, message",
    [
        (True, TypeError, "^c must be a real number, got True$"),
        ("0.5", TypeError, "^c must be a real number, got '0.5'$"),
        (None, TypeError, "^c must be a real number, got None$"),
        (0.5 + 0j, TypeError, r"^c must be a real number, got \(0\.5\+0j\)$"),
        (float("nan"), ValueError, r"^concentration must lie in \[0, 1\], got nan$"),
        (-0.1, ValueError, r"^concentration must lie in \[0, 1\], got -0\.1$"),
        (1.5, ValueError, r"^concentration must lie in \[0, 1\], got 1\.5$"),
    ],
)
@pytest.mark.parametrize("entry", list(_CONCENTRATION_ENTRIES))
def test_concentrations_are_checked_before_any_work(entry, bad, error, message):
    call = _CONCENTRATION_ENTRIES[entry]
    with (
        mock.patch.object(kernel, "load", side_effect=AssertionError("the kernel was loaded")),
        mock.patch.object(pool, "_fan_out", side_effect=AssertionError("a pool was started")),
        pytest.raises(error, match=message),
    ):
        call(bad)


def test_walk_allocation_failure_raises_memory_error():
    library = kernel.load("a test")
    failing = SimpleNamespace(
        peierls_walk=lambda *args: -1,
        peierls_shapes=library.peierls_shapes,
        peierls_free=library.peierls_free,
        peierls_classes=library.peierls_classes,
    )
    with mock.patch.object(kernel, "_library", failing):
        for count in (self_avoiding_circuit_count, full_count_table):
            with pytest.raises(MemoryError, match="circuit walk"):
                count(6)


@pytest.mark.parametrize("workers", [1, 2])
def test_shape_tree_allocation_failure_raises_memory_error(workers):
    # the kernel hands back no records; forked workers inherit the patch
    freed = []
    failing = SimpleNamespace(peierls_shapes=lambda *args: -1, peierls_free=freed.append)
    with mock.patch.object(kernel, "_library", failing):
        for census in (exact_contour_counts, full_count_table, contour_event_table):
            with pytest.raises(MemoryError, match="^cannot allocate the shape tree's records at cap 2$"):
                census(6, workers=workers)
    assert freed == []


def test_walk_past_the_start_bits_is_capped():
    # (k_max - 2) // 2 starts, one bit each in a 64-bit word: k_max = 131 is
    # the longest, and its walk starts (to pass a small node cap at once)
    with pytest.raises(CapExceeded, match="circuit search exceeded 1000 nodes"):
        self_avoiding_circuit_count(131, max_nodes=1000)
    with mock.patch.object(kernel, "load", side_effect=AssertionError("the kernel was loaded")):
        for k in (132, 133, 10**6):
            with pytest.raises(CapExceeded, match=f"circuit length {k} exceeds the walker's start-bit encoding"):
                self_avoiding_circuit_count(k)


def test_shape_limit_threshold():
    # k = 10 caps shapes at size 8, past the split size, so no part holds
    # them all; forked workers inherit the patched limit
    shapes = exact_contour_counts(10).meta["shapes"]
    for workers in (1, 2):
        with mock.patch.object(enumeration, "_SHAPE_LIMIT", shapes - 1), pytest.raises(CapExceeded):
            exact_contour_counts(10, workers=workers)
        with mock.patch.object(enumeration, "_SHAPE_LIMIT", shapes):
            assert exact_contour_counts(10, workers=workers).meta["shapes"] == shapes


def test_the_walk_task_is_capped_on_its_own():
    with pytest.raises(CapExceeded):
        _circuit_walk(10, "five", 100)
    # the shape limit is checked once, before the census parts start
    shapes = _shape_block(10, interior_capacity(10), 1, 8)
    with mock.patch.object(enumeration, "_SHAPE_LIMIT", 100):
        assert _shape_block(10, interior_capacity(10), 1, 8) == shapes


@pytest.mark.parametrize("workers", [1, 2])
def test_census_error_wins_over_walker_error(workers):
    with mock.patch.object(enumeration, "_SHAPE_LIMIT", 100):
        with pytest.raises(CapExceeded, match="shape enumeration exceeded the limit of 100$"):
            full_count_table(10, max_nodes=100, workers=workers)
    with pytest.raises(IncompletenessError, match="cluster cap 4"):
        full_count_table(12, cluster_cap=4, max_nodes=100, workers=workers)
    # invalid walker arguments too: the census fails first
    with pytest.raises(IncompletenessError, match="cluster cap 4"):
        full_count_table(12, cluster_cap=4, max_nodes=0, workers=workers)
    with pytest.raises(ValueError, match="max_nodes must be >= 1"):
        full_count_table(8, max_nodes=0, workers=workers)
    with pytest.raises(CapExceeded, match="circuit search exceeded 100 nodes"):
        full_count_table(10, max_nodes=100, workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_walk_argument_error_waits_for_no_census_it_cannot_lose_to(workers):
    # the census's own arguments are checked first, and the census runs ahead
    # of a walk argument's error only under a cap that could leave it incomplete
    with mock.patch.object(enumeration, "_shape_block", side_effect=AssertionError("the census ran")):
        with pytest.raises(ValueError, match="max_nodes must be >= 1"):
            full_count_table(12, workers=workers, max_nodes=0)
        with pytest.raises(ValueError, match="max_nodes must be >= 1"):
            full_count_table(12, cluster_cap=interior_capacity(12), workers=workers, max_nodes=0)
        with pytest.raises(ValueError, match="unknown"):
            full_count_table(12, rule="nine", workers=workers)
        with pytest.raises(ValueError, match="cluster cap must be >= 1"):
            full_count_table(12, cluster_cap=0, workers=workers, max_nodes=0)
        with pytest.raises(CapExceeded, match="contour length 64 exceeds 62"):
            full_count_table(64, cluster_cap=5, workers=workers, max_nodes=0)


def test_full_count_table_fans_out_once(monkeypatch):
    calls = []
    fan_out = pool._fan_out

    def counted(tasks, workers):
        calls.append(len(tasks))
        return fan_out(tasks, workers)

    monkeypatch.setattr(pool, "_fan_out", counted)
    for workers, parts in ((1, 1), (2, 8)):
        calls.clear()
        full_count_table(8, workers=workers)
        # the census parts and the circuit walk
        assert calls == [parts + 1]


def test_census_rejects_fewer_than_one_worker():
    for census in (exact_contour_counts, self_avoiding_circuit_count, contour_event_table, full_count_table):
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers must be >= 1"):
                census(6, workers=workers)


@pytest.mark.parametrize("k", [8, 10])
def test_full_count_table_independent_of_workers(k):
    # every field: exact, sa_walk, sa_sets, classes, witness contours and meta
    serial = full_count_table(k)
    for workers in (2, 3):
        assert full_count_table(k, workers=workers) == serial


def test_unknown_rule_rejected():
    with pytest.raises(ValueError):
        self_avoiding_circuit_count(6, rule="six")


# ---------------------------------------------------------------------------
# event table
# ---------------------------------------------------------------------------


def test_event_table_matches_reference_path():
    max_len = 7
    reference = defaultdict(int)
    for cl in enumerate_origin_clusters(interior_capacity(max_len)):
        if oracle_outer_boundary(cl).length <= max_len:
            reference[(len(cl.sites), len(cl.boundary))] += 1
    assert contour_event_table(max_len) == dict(reference)


@pytest.mark.parametrize("max_len", [8, 9, 10])
def test_pruned_event_table_matches_unpruned(max_len):
    # reference: every shape up to the capacity, none skipped by its span
    reference = defaultdict(int)
    for shape, _, xmin, w, h in _iter_shapes(interior_capacity(max_len)):
        bnd, gamma, _ = _contour_bits(*_embed(shape, xmin, w, h))
        if gamma.bit_count() <= max_len:
            reference[(len(shape), bnd.bit_count())] += len(shape)
    assert contour_event_table(max_len) == dict(reference)


@pytest.mark.parametrize("max_len", [8, 10])
def test_event_table_independent_of_workers(max_len):
    serial = contour_event_table(max_len)
    for workers in (2, 3):
        assert contour_event_table(max_len, workers=workers) == serial


def test_event_table_infeasible_length():
    with pytest.raises(CapExceeded, match="^shape enumeration exceeded the limit of 50000000$"):
        contour_event_table(20)


def test_event_table_refuses_by_the_census_shape_limit_before_any_work():
    # the census's shape limit refuses the event table's cap too, with its message
    with (
        mock.patch.object(enumeration, "_SHAPE_LIMIT", 100),
        mock.patch.object(kernel, "load", side_effect=AssertionError("the kernel was loaded")),
        mock.patch.object(pool, "_fan_out", side_effect=AssertionError("a pool was started")),
        pytest.raises(CapExceeded, match="^shape enumeration exceeded the limit of 100$"),
    ):
        contour_event_table(10)


# ---------------------------------------------------------------------------
# contours on row masks
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _box_shapes(span):
    """``(cells, mask, xmin)`` of every shape of up to 9 cells that fits the span x span box."""
    return [(list(shape), bits, xmin) for shape, bits, xmin, w, h in _iter_shapes(9, span) if w <= span and h <= span]


def _bitboard(row_masks, width):
    return sum(int(v) << (y * width) for y, v in enumerate(row_masks))


def _check_shapes(shapes, box):
    """The row extractor against the scalar extractor, shape by shape, each in a square frame of ``box + 4`` rows."""
    width = box + 4
    out = []
    for cells, bits, xmin in shapes:
        assert bits == sum(1 << e for e in cells)
        rows = frame_rows(bits, xmin, box)
        masks = clusters._contour(rows, width)
        wbits, frame = _embed(cells, xmin, box, box)
        assert tuple(_bitboard(m, width) for m in (rows, *masks)) == (wbits, *_contour_bits(wbits, frame))
        out.append((rows, masks))
    return out


@settings(max_examples=80, deadline=None)
@given(
    span=st.integers(1, 7),
    # frames of 16, 17, 32, 33 and 34 columns, the census's widest
    box=st.one_of(st.none(), st.sampled_from([12, 13, 28, 29, 30])),
    picks=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=300),
)
def test_row_extractor_matches_scalar_extractor(span, box, picks):
    shapes = _box_shapes(span)
    _check_shapes([shapes[i % len(shapes)] for i in picks], box or span)


def test_row_extractor_keeps_an_enclosed_free_site_out_of_the_exterior():
    # the corners (+-1, +-1) joined below, right and above by 3-cell bridges:
    # the cluster and its boundary close around the free site (0, 0)
    sites = [(x, y) for x in (-1, 1) for y in (-1, 1)]
    sites += [(x, -2) for x in (-1, 0, 1)] + [(2, y) for y in (-1, 0, 1)] + [(x, 2) for x in (-1, 0, 1)]
    assert len(sites) == 13
    cells = [((y + 2) << 6) | (x + 32) for x, y in sites]
    [(rows, (bnd, _, ext))] = _check_shapes([(cells, sum(1 << e for e in cells), 31)], 5)
    # (0, 0) sits in frame column 0 - xmin + 2 = 3 and row 0 + 2 + 2 = 4
    assert not (rows[4] | bnd[4] | ext[4]) & 1 << 3


@pytest.mark.parametrize(
    "k_max, cap, part, parts",
    # the next to last part keys its contours in 15 rows, a box of 13; at cap 1
    # the one shape is part 0's, so the last part keeps no shape and is empty
    [(10, interior_capacity(10), part, 8) for part in range(8)] + [(28, 13, 7, 1000), (4, 1, 1, 2)],
)
def test_census_part_matches_scalar_reference(k_max, cap, part, parts):
    # the covers of one part's records against the oracle's, shape by shape
    got, want = _census_covers(k_max, [_shape_block(k_max, cap, part, parts)]), census_part(k_max, cap, part, parts)
    assert got == want
    assert (got == {}) == (cap == 1)


@settings(max_examples=40, deadline=None)
@given(cap=st.integers(1, 9), span=st.integers(1, 5), longer=st.booleans(), parts=st.integers(1, 3))
def test_every_record_is_keyed_at_its_contour_corner(cap, span, longer, parts):
    # the kernel moves each record by (-1, -1), so its contour's bounding-box
    # corner is the key's (0, 0): a site in row 0 and one in column 0; the
    # cover holds the record's n cells, off the contour and inside its rows
    max_len = 2 * span + 2 + longer
    column = sum(1 << _CANON_STRIDE * y for y in range(_CANON_STRIDE))
    for part in range(parts):
        shapes = _shape_block(max_len, cap, part, parts)
        for key_rows, cover_rows, n, boundary, enclosed in shape_records(shapes):
            key, cover = (sum(v << _CANON_STRIDE * y for y, v in enumerate(rows)) for rows in (key_rows, cover_rows))
            height = -(-key.bit_length() // _CANON_STRIDE)
            assert key & (1 << _CANON_STRIDE) - 1 and key & column
            assert cover.bit_count() == n and not cover & key
            assert not cover & (1 << _CANON_STRIDE) - 1 and not cover >> _CANON_STRIDE * (height - 1)
            assert 4 <= key.bit_count() <= min(max_len, boundary) and n <= enclosed


@settings(max_examples=12, deadline=None)
@given(k_max=st.integers(4, 10), parts=st.integers(1, 3))
def test_classes_and_witnesses_match_the_oracle(k_max, parts):
    cap = interior_capacity(k_max)
    covers = _census_covers(k_max, [_shape_block(k_max, cap, part, parts) for part in range(parts)])
    table = _census_table(k_max, cap, covers)
    assert (table.classes, table.witnesses) == census_classes([covers])


def test_kernel_class_pass_matches_the_oracle_on_every_contour_to_length_twelve():
    # the 1,566 distinct contours of the census at k = 12 around their 12,368
    # origin positions, checked and classified one at a time by the oracle
    covers = _census_covers(12, [_shape_block(12, 13, 0, 1)])
    table = _census_table(12, 13, covers)
    assert (table.classes, table.witnesses) == census_classes([covers])
    assert sum(table.classes.values()) == sum(table.exact.values()) == 12_368


_DIAMOND = frozenset({(1, 0), (0, 1), (2, 1), (1, 2)})


def _covers_of(contour, positions):
    """The census covers of one canonical contour around the given origin positions."""
    key, cover = (sum(1 << (y * _CANON_STRIDE + x) for x, y in sites) for sites in (contour, positions))
    return {key: {1: cover}}


def _census_of(contour, positions):
    """The census table of one canonical contour around the given origin positions."""
    return _census_table(4, 1, _covers_of(contour, positions))


def test_crafted_census_classifies_its_contour():
    table = _census_of(_DIAMOND, {(1, 1)})
    assert table.classes == {(4, 1, 4): 1}
    assert table.witnesses[4].cycle == ((-1, 0), (0, -1), (1, 0), (0, 1))


@pytest.mark.parametrize(
    "contour, positions, error, message",
    [
        (_DIAMOND, {(1, 1), (1, 0)}, ContourError, "a cluster cell coincides with its own contour"),
        (_DIAMOND, {(1, 1), (0, 0)}, ContourError, "an origin position is not enclosed by its contour"),
        (_DIAMOND, {(1, 1), (3, 1)}, NoRayIntersection, "contour never meets the positive horizontal ray"),
        ({(0, 0), (1, 1)}, {(3, 3)}, ContourError, r"pinched outer boundary at corner \(2, 2\)"),
        (_DIAMOND | {(x + 4, y) for x, y in _DIAMOND}, {(1, 1)}, ContourError, "not a single closed curve"),
        ({(0, 0), (1, 0), (2, 0)}, {(1, 2)}, ContourError, "revisits a site"),
        ({(x, y) for x in range(3) for y in range(3)}, {(4, 4)}, ContourError, "does not match the exposed boundary set"),
        ({(0, 0), (1, 0)}, {(3, 3)}, ContourError, "came out clockwise"),
        # the diamond 6 sites right of the position: the ray meets its top,
        # whose successor is a step down and left
        (
            {(x + 6, y) for x, y in _DIAMOND},
            {(1, 2)},
            ContourError,
            r"successor offset \(-1, -1\) of ray site \(6, 0\) is not an admissible first step$",
        ),
    ],
)
def test_census_class_pass_rejects_crafted_contours(contour, positions, error, message):
    # the kernel's class pass and the oracle both fail; the oracle winds each
    # position before it classifies it, so its error may be another one
    with pytest.raises(error, match=message):
        _census_of(contour, positions)
    with pytest.raises((ContourError, NoRayIntersection)):
        census_classes([_covers_of(contour, positions)])


@pytest.mark.parametrize("parts", [2, 7, 300])
def test_any_number_of_parts_merges_to_the_whole_tree(parts):
    # the covers merge by OR and the events by sum, as the parent merges them
    census, events = _census_covers(10, [_shape_block(10, 8, 0, 1)]), _event_part(10, 8, 0, 1)
    merged = _census_covers(10, [_shape_block(10, 8, part, parts) for part in range(parts)])
    counted = Counter()
    for part in range(parts):
        counted.update(_event_part(10, 8, part, parts))
    assert merged == census
    assert dict(counted) == events


@pytest.mark.parametrize(
    "tight, cleared, error",
    # among the 177 shapes of _shape_block(10, 8, 0, 1) with contours of
    # length <= 10, ordered by size and then cover: the first over a
    # capacity one lower at lengths 9 and 10 is the 93rd (6 cells, length 9),
    # at lengths 7 and 8 the 5th (3 cells, length 7), as at length 7; the
    # first with a contour of length 9 is the 11th (4 cells)
    [
        ({9, 10}, None, "length 9 encloses 6 sites"),
        ({7, 8}, None, "length 7 encloses 3 sites"),
        ({7}, None, "length 7 encloses 3 sites"),
        (set(), 9, "impossible length 0"),
        ({9, 10}, 9, "impossible length 0"),
        ({7}, 9, "length 7 encloses 3 sites"),
    ],
)
def test_census_part_fails_on_the_first_bad_shape(tight, cleared, error):
    # no cluster's contour is shorter than 4 (the span lemma gives 2*w + 2),
    # so that check is reached by clearing every contour of length ``cleared``
    shape_block, contour_bits = enumeration._shape_block, contour_oracle._contour_bits

    def clear_block(*args):
        shapes = shape_block(*args)
        h = shapes.height
        words = np.frombuffer(shapes.records, np.uint32).reshape(-1, 2 * h + 3).copy()
        keys = words[:, :h]
        keys[np.bitwise_count(keys).sum(axis=1) == cleared] = 0
        return shapes._replace(records=words.tobytes())

    def clear_bits(wbits, frame):
        bnd, gamma, ext = contour_bits(wbits, frame)
        return bnd, 0 if gamma.bit_count() == cleared else gamma, ext

    def capacity(k):
        return interior_capacity(k) - (k in tight)

    with (
        mock.patch.object(enumeration, "interior_capacity", capacity),
        mock.patch.object(contour_oracle, "interior_capacity", capacity),
        mock.patch.object(enumeration, "_shape_block", clear_block),
        mock.patch.object(contour_oracle, "_contour_bits", clear_bits),
    ):
        with pytest.raises((ContourError, IncompletenessError), match=error) as want:
            census_part(10, 8, 0, 1)
        with pytest.raises(type(want.value)) as got:
            _census_covers(10, [enumeration._shape_block(10, 8, 0, 1)])
        # over the whole census: the same first shape, in whatever parts and order they come
        with pytest.raises(type(want.value)) as split:
            _census_covers(10, [enumeration._shape_block(10, 8, part, 3) for part in (2, 0, 1)])
    assert str(got.value) == str(split.value) == str(want.value)


def test_a_bad_shape_fails_the_census_part_and_its_oracle():
    capacity = lambda k: interior_capacity(k) - 1  # noqa: E731
    with (
        mock.patch.object(enumeration, "interior_capacity", capacity),
        mock.patch.object(contour_oracle, "interior_capacity", capacity),
    ):
        with pytest.raises(IncompletenessError):
            census_part(10, 8, 0, 1)
        with pytest.raises(IncompletenessError):
            _census_covers(10, [_shape_block(10, 8, 0, 1)])
        # the parent checks every part's records, so the census names one bad shape whatever the workers
        messages = set()
        for workers in (1, 2, 3):
            with pytest.raises(IncompletenessError) as bad:
                exact_contour_counts(10, workers=workers)
            messages.add(str(bad.value))
        assert len(messages) == 1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_csv_and_json_output(table10):
    csv = count_table_csv(table10)
    lines = csv.strip().split("\n")
    assert lines[0] == "k,exact,sa_walk,walk_bound"
    assert lines[1] == "4,1,1,300"
    assert lines[2].startswith("5,0,")
    assert lines[2].endswith(",2000")
    assert csv == count_table_csv(table10)

    classes = class_counts_csv(table10)
    assert classes.startswith("k,l,i,count\n")

    doc = count_table_json_dict(table10)
    assert doc["counts"][0] == {"k": 4, "exact": 1, "sa_walk": 1, "sa_distinct": 1, "walk_bound": 300}
    assert doc["meta"]["guaranteed"] is True
    assert sum(row["count"] for row in doc["classes"] if row["k"] == 10) == table10.exact[10]

    # witness contours: one positioned example per length, origin enclosed
    from peierls import winding_number

    by_k = {w["k"]: w for w in doc["witnesses"]}
    assert by_k[4]["length"] == 4
    assert sorted(map(tuple, by_k[4]["cycle"])) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    for k, witness in table10.witnesses.items():
        assert witness.length == k
        assert winding_number(witness.cycle, (0, 0)) == 1
