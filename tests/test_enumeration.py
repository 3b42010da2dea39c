import multiprocessing
import signal
import time
from collections import Counter, defaultdict
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contour_oracle import enumerate_origin_clusters, oracle_outer_boundary
from walker_oracle import oracle_circuit_count
from peierls import (
    CapExceeded,
    ContourError,
    IncompletenessError,
    NoRayIntersection,
    class_decomposition,
    contour_event_table,
    exact_contour_counts,
    full_count_table,
    interior_capacity,
    outer_boundary,
    self_avoiding_circuit_count,
    walk_bound,
)
from peierls import clusters, enumeration
from peierls.enumeration import (
    _SPLIT_SIZE,
    _ShapeTally,
    _census_part,
    _circuits_from,
    _embed,
    _fan_out,
    _iter_shapes,
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
    for shape, xmin, w, h in _iter_shapes(7):
        xs = [e & 63 for e in shape]
        assert (xmin, w, h) == (min(xs), max(xs) - min(xs) + 1, max(e >> 6 for e in shape) + 1)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    span=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    parts=st.integers(min_value=1, max_value=7),
)
def test_shape_tree_parts_partition_the_shapes(n, span, parts):
    whole = Counter((tuple(s), x, w, h) for s, x, w, h in _iter_shapes(n, span))
    split = Counter()
    for part in range(parts):
        split.update((tuple(s), x, w, h) for s, x, w, h in _iter_shapes(n, span, part, parts))
    assert split == whole
    if n < _SPLIT_SIZE and parts > 1:
        assert not list(_iter_shapes(n, span, parts - 1, parts))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=9),
    span=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    parts=st.integers(min_value=1, max_value=7),
)
def test_counted_subtrees_complete_the_pruned_walk(n, span, parts):
    # the parts, each yielding the span-pruned tree and counting what it
    # prunes, hold exactly the shapes of the unpruned tree
    unpruned = sum(1 for part in range(parts) for _ in _iter_shapes(n, None, part, parts))
    total = 0
    for part in range(parts):
        tally = _ShapeTally(limit=unpruned)
        counting = [(tuple(s), x, w, h) for s, x, w, h in _iter_shapes(n, span, part, parts, tally)]
        assert counting == [(tuple(s), x, w, h) for s, x, w, h in _iter_shapes(n, span, part, parts)]
        assert tally.shapes >= len(counting)
        total += tally.shapes
    assert total == unpruned


def test_cluster_enumeration_cap():
    # cells are encoded in 6-bit columns, so shapes are capped at 30 cells
    with pytest.raises(CapExceeded, match="coordinate encoding range"):
        next(_iter_shapes(31))


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
    # only counted below a shape too wide for the span lemma
    assert exact_contour_counts(k_max).meta["shapes"] == shapes


def test_shape_count_at_length_twelve(table12):
    assert table12.meta["cluster_cap"] == 13
    assert table12.meta["shapes"] == 2_595_167


def test_shape_limit_stops_inside_a_counted_subtree():
    # at cap 25 nearly every shape sits below a shape wider than 5 cells,
    # in subtrees far too large to count to the end
    def hung(signum, frame):
        raise TimeoutError("the shape limit was not checked while counting a subtree")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with mock.patch.object(enumeration, "_SHAPE_LIMIT", 10**6):
            with pytest.raises(CapExceeded, match="limit of 1000000"):
                exact_contour_counts(12, cluster_cap=25)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


def test_walker_node_cap_threshold_matches_oracle():
    nodes = self_avoiding_circuit_count(8).nodes
    fanned_out = lambda k, max_nodes: self_avoiding_circuit_count(k, max_nodes=max_nodes, workers=2)  # noqa: E731
    for count in (self_avoiding_circuit_count, fanned_out, oracle_circuit_count):
        with pytest.raises(CapExceeded):
            count(8, max_nodes=nodes - 1)
        assert count(8, max_nodes=nodes).nodes == nodes


def test_shape_limit_threshold():
    # k = 10 caps shapes at size 8, past the split size, so no part holds
    # them all; forked workers inherit the patched limit
    shapes = exact_contour_counts(10).meta["shapes"]
    for workers in (1, 2):
        with mock.patch.object(enumeration, "_SHAPE_LIMIT", shapes - 1), pytest.raises(CapExceeded):
            exact_contour_counts(10, workers=workers)
        with mock.patch.object(enumeration, "_SHAPE_LIMIT", shapes):
            assert exact_contour_counts(10, workers=workers).meta["shapes"] == shapes


def test_each_task_is_capped_on_its_own():
    with pytest.raises(CapExceeded):
        _circuits_from(10, "five", 1, 100)
    with mock.patch.object(enumeration, "_SHAPE_LIMIT", 100), pytest.raises(CapExceeded):
        _census_part(10, interior_capacity(10), 1, 8)


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


def test_full_count_table_fans_out_once(monkeypatch):
    calls = []

    def counted(tasks, workers):
        calls.append(len(tasks))
        return _fan_out(tasks, workers)

    monkeypatch.setattr(enumeration, "_fan_out", counted)
    for workers, parts in ((1, 1), (2, 8)):
        calls.clear()
        full_count_table(8, workers=workers)
        # the census parts and the walker's three starts
        assert calls == [parts + 3]


def test_fan_out_ends_running_tasks_when_the_caller_fails():
    t0 = time.perf_counter()
    with pytest.raises(KeyError):
        with _fan_out([(abs, -1), (time.sleep, 60), (time.sleep, 60)], 2) as results:
            assert next(results) == 1
            raise KeyError("merge failed")
    assert time.perf_counter() - t0 < 30
    deadline = time.perf_counter() + 30
    while multiprocessing.active_children() and time.perf_counter() < deadline:
        time.sleep(0.05)
    assert not multiprocessing.active_children()


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
    for shape, xmin, w, h in _iter_shapes(interior_capacity(max_len)):
        bnd, gamma, _ = clusters._contour_bits(*_embed(shape, xmin, w, h))
        if gamma.bit_count() <= max_len:
            reference[(len(shape), bnd.bit_count())] += len(shape)
    assert contour_event_table(max_len) == dict(reference)


@pytest.mark.parametrize("max_len", [8, 10])
def test_event_table_independent_of_workers(max_len):
    serial = contour_event_table(max_len)
    for workers in (2, 3):
        assert contour_event_table(max_len, workers=workers) == serial


def test_event_table_infeasible_length():
    with pytest.raises(CapExceeded):
        contour_event_table(20)


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
