import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contour_oracle import (
    cluster_event_probability,
    contour_cycle,
    enumerate_origin_clusters,
    exterior_of,
    oracle_outer_boundary,
    origin_cluster,
    reaches_border,
)
from peierls import (
    Cluster,
    ContourError,
    EmptyClusterError,
    clusters,
    neighbors4,
    outer_boundary,
    site_boundary,
    winding_number,
)
from bisect_oracle import oracle_labels
from kernel_keys import occupied as occupancy
from peierls import enumeration
from peierls.enumeration import _CANON_STRIDE, _max_span
from peierls.montecarlo import _reach_count


def make_cluster(sites):
    s = frozenset(sites)
    return Cluster(s, site_boundary(s), next(iter(s)))


def cyclic_equal(a, b):
    if len(a) != len(b):
        return False
    doubled = list(a) + list(a)
    return any(doubled[i:i + len(b)] == list(b) for i in range(len(a)))


# ---------------------------------------------------------------------------
# origin clusters of a field
# ---------------------------------------------------------------------------


def test_isolated_origin_cluster():
    # trial 0 of seed 0 leaves the origin occupied at c = 0.5 with all 4 neighbours vacant
    sites = origin_cluster(occupancy(0, 3, 0.5, 0, 1)[0])
    assert sites == {(0, 0)}
    assert site_boundary(sites) == {(1, 0), (0, 1), (-1, 0), (0, -1)}


def test_full_window_escapes():
    occ = occupancy(0, 3, 1.0, 0, 1)
    assert occ.all() and reaches_border(occ[0])
    assert _reach_count(0, 3, 1.0, 0, 1) == 1


def test_cluster_independent_of_traversal_order():
    # the two references the Monte Carlo tests use agree: one labels whole
    # grids in one pass, the other grows the origin cluster depth first
    L, trials = 8, 40
    occ = occupancy(17, L, 0.55, 0, trials)
    for grid, lab in zip(occ, oracle_labels(occ)):
        ys, xs = np.nonzero(lab == lab[L, L]) if lab[L, L] else ((), ())
        assert origin_cluster(grid) == {(x - L, y - L) for x, y in zip(xs, ys)}


def test_domino_boundary_has_six_sites():
    cl = make_cluster({(0, 0), (1, 0)})
    assert len(cl.boundary) == 6
    assert cl.boundary == {(-1, 0), (0, 1), (0, -1), (2, 0), (1, 1), (1, -1)}


def test_boundary_at_least_four():
    for cl in enumerate_origin_clusters(5):
        assert len(cl.boundary) >= 4


# ---------------------------------------------------------------------------
# outer_boundary
# ---------------------------------------------------------------------------


def test_single_site_contour_is_diamond():
    ct = outer_boundary(make_cluster({(0, 0)}))
    assert ct.sites == {(1, 0), (0, 1), (-1, 0), (0, -1)}
    assert ct.length == 4
    assert cyclic_equal(ct.cycle, ((1, 0), (0, 1), (-1, 0), (0, -1)))
    assert winding_number(ct.cycle, (0, 0)) == 1


def test_domino_contour_is_whole_boundary():
    cl = make_cluster({(0, 0), (1, 0)})
    ct = outer_boundary(cl)
    assert ct.sites == cl.boundary
    assert ct.length == 6


def test_ring_cluster_contour_excludes_hole():
    ring = {(x, y) for x in range(3) for y in range(3)} - {(1, 1)}
    cl = make_cluster(ring)
    ct = outer_boundary(cl)
    assert (1, 1) in cl.boundary
    assert (1, 1) not in ct.sites
    assert ct.length == 12
    assert ct.sites < cl.boundary


def test_pocket_cluster_contour_excludes_shielded_site():
    # U shape opening north; (1, 1) faces only the pocket, (1, 2) is the mouth
    u = {(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (2, 2)}
    cl = make_cluster(u)
    ct = outer_boundary(cl)
    assert len(cl.boundary) == 13
    assert ct.length == 12
    assert cl.boundary - ct.sites == {(1, 1)}
    assert (1, 2) in ct.sites


def test_contour_cycles_are_simple_king_cycles():
    for cl in enumerate_origin_clusters(5):
        ct = outer_boundary(cl)
        cyc = ct.cycle
        assert len(cyc) == len(set(cyc)) == ct.length
        for i, (x, y) in enumerate(cyc):
            nx, ny = cyc[(i + 1) % len(cyc)]
            assert max(abs(nx - x), abs(ny - y)) == 1
        assert winding_number(cyc, (0, 0)) == 1
        assert ct.sites <= cl.boundary


def test_empty_cluster_raises():
    with pytest.raises(EmptyClusterError):
        outer_boundary(Cluster(frozenset(), frozenset(), (0, 0)))


def test_contour_json_shape():
    d = outer_boundary(make_cluster({(0, 0)})).to_json_dict()
    assert d["length"] == 4
    assert sorted(map(tuple, d["cycle"])) == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_winding_number_point_on_cycle_raises():
    ct = outer_boundary(make_cluster({(0, 0)}))
    with pytest.raises(ContourError):
        winding_number(ct.cycle, (1, 0))


def test_winding_number_orientation_and_position():
    ct = outer_boundary(make_cluster({(5, 5), (6, 5), (6, 6)}))
    assert winding_number(ct.cycle[::-1], (6, 5)) == -1
    assert winding_number(ct.cycle, (0, 0)) == 0
    for site in ((5, 5), (6, 5), (6, 6)):
        assert winding_number(ct.cycle, site) == 1


def test_outer_boundary_matches_oracle_on_small_clusters():
    for cl in enumerate_origin_clusters(7):
        assert outer_boundary(cl) == oracle_outer_boundary(cl)


_AXIS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def random_walk(n, seed):
    """The first ``n`` distinct sites of a seeded random walk from (0, 0): a 4-connected cluster."""
    rng = random.Random(seed)
    x = y = 0
    cells = {(0, 0)}
    while len(cells) < n:
        dx, dy = rng.choice(_AXIS)
        x, y = x + dx, y + dy
        cells.add((x, y))
    return frozenset(cells)


def frame_width(sites, pad):
    """Columns of the frame of ``sites`` padded by ``pad`` on each side."""
    return max(x for x, _ in sites) - min(x for x, _ in sites) + 1 + 2 * pad


@pytest.mark.parametrize(
    "n, seed, dtype",
    # frames of 42 and 62 columns, whose rows fit a 64-bit word, and of 103
    # and 150, whose rows do not
    [(400, 0, np.uint64), (2000, 2, np.uint64), (3000, 0, object), (2000, 3, object)],
)
def test_outer_boundary_matches_oracle_on_wide_clusters(n, seed, dtype):
    sites = random_walk(n, seed)
    assert np.min_scalar_type((1 << frame_width(sites, 2)) - 1) == dtype
    cl = make_cluster(sites)
    assert outer_boundary(cl) == oracle_outer_boundary(cl)


@pytest.mark.parametrize("step", [(1, 0), (0, 1)])
def test_outer_boundary_of_a_line_past_int16_coordinates(step):
    # the frame is 2**15 + 4 sites long, past the tracer's int16 coordinates
    n = 1 << 15
    cl = make_cluster((step[0] * i, step[1] * i) for i in range(n))
    ct = outer_boundary(cl)
    assert ct.length == 2 * n + 2
    assert ct == oracle_outer_boundary(cl)


@st.composite
def polyominoes(draw):
    """A 4-connected site set grown from (0, 0), one axis neighbour at a time."""
    cells = [(0, 0)]
    for i, d in draw(st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 3)), max_size=40)):
        x, y = cells[i % len(cells)]
        nb = (x + _AXIS[d][0], y + _AXIS[d][1])
        if nb not in cells:
            cells.append(nb)
    return frozenset(cells)


@settings(max_examples=300, deadline=None)
@given(polyominoes())
def test_contour_of_random_polyomino_is_simple_ccw_king_cycle(sites):
    cl = make_cluster(sites)
    ct = outer_boundary(cl)
    assert ct == oracle_outer_boundary(cl)
    cyc = ct.cycle
    assert len(cyc) == len(set(cyc)) == ct.length
    for (x, y), (nx, ny) in zip(cyc, cyc[1:] + cyc[:1]):
        assert max(abs(nx - x), abs(ny - y)) == 1
    for site in sites:
        assert winding_number(cyc, site) == 1


@st.composite
def site_sets(draw):
    """Any site set: a polyomino with a bar of 0, 20 or 70 sites, scattered sites up to 80 columns apart, or both."""
    kind = draw(st.sampled_from(["polyomino", "scattered", "both"]))
    sites = frozenset()
    if kind != "scattered":
        sites = draw(polyominoes()) | {(-x, 0) for x in range(draw(st.sampled_from([0, 20, 70])))}
    if kind != "polyomino":
        xmax = draw(st.sampled_from([6, 20, 80]))
        sites |= draw(st.frozensets(st.tuples(st.integers(0, xmax), st.integers(0, 6)), min_size=1, max_size=20))
    return sites


@settings(max_examples=300, deadline=None)
@given(site_sets())
def test_outer_boundary_matches_oracle_on_any_site_set(sites):
    # the two tracers make their checks in different orders, so a set that
    # is not 4-connected may fail them with different messages, but fails both
    cl = make_cluster(sites)
    try:
        want = oracle_outer_boundary(cl)
    except ContourError:
        with pytest.raises(ContourError):
            outer_boundary(cl)
    else:
        assert outer_boundary(cl) == want


def test_outer_boundary_names_a_pinched_corner_in_the_clusters_coordinates():
    # the tracer works in a frame padded by 2 around the cluster, here at
    # (8, 10); its message must not report the frame's corner (8, 4)
    cl = make_cluster({(10, 15), (12, 15), (15, 15), (16, 12)})
    for trace in (oracle_outer_boundary, outer_boundary):
        with pytest.raises(ContourError, match=r"pinched outer boundary at corner \(16, 14\)$"):
            trace(cl)


@settings(max_examples=300, deadline=None)
@given(polyominoes())
def test_contour_length_bounds_the_span(sites):
    # the contour meets columns xmin-1 and xmax+1 (rows alike), a king step
    # moves one column, so a closed cycle through both takes 2*(w+1) steps
    length = outer_boundary(make_cluster(sites)).length
    w = max(x for x, _ in sites) - min(x for x, _ in sites) + 1
    h = max(y for _, y in sites) - min(y for _, y in sites) + 1
    assert length >= 2 * max(w, h) + 2
    assert max(w, h) <= _max_span(length)


# ---------------------------------------------------------------------------
# cycle tracers: one contour of any width, and the kernel's block of census keys
# ---------------------------------------------------------------------------


def one_cycle(sites):
    """``clusters._cycle`` of a contour site set, in its own frame with a free ring."""
    x0, y0 = min(x for x, _ in sites) - 1, min(y for _, y in sites) - 1
    width = frame_width(sites, 1)
    rows = [0] * (max(y for _, y in sites) - y0 + 2)
    for x, y in sites:
        rows[y - y0] |= 1 << (x - x0)
    return clusters._cycle(rows, width, (x0, y0))


def fits_a_key(sites):
    """Does a site set fit the 32 columns and rows of a census key?"""
    return frame_width(sites, 0) <= _CANON_STRIDE and max(y for _, y in sites) - min(y for _, y in sites) < _CANON_STRIDE


def block_cycles(contours):
    """The cycles the kernel's class pass traces for contour site sets, each moved to its corner as a census key."""
    corners = [(min(x for x, _ in c), min(y for _, y in c)) for c in contours]
    keys = [sum(1 << ((y - y0) * _CANON_STRIDE + x - x0) for x, y in c) for c, (x0, y0) in zip(contours, corners)]
    _, cycles = enumeration._class_pass(keys, [0] * len(keys), _CANON_STRIDE)
    out, at = [], 0
    for c, (x0, y0) in zip(contours, corners):
        out.append(tuple(zip([x + x0 for x in cycles[at : at + 2 * len(c) : 2]], [y + y0 for y in cycles[at + 1 : at + 2 * len(c) : 2]])))
        at += 2 * len(c)
    return out


_DIAMOND = frozenset({(1, 0), (0, 1), (2, 1), (1, 2)})
_TWO_DIAMONDS = _DIAMOND | {(x + 4, y) for x, y in _DIAMOND}


@pytest.mark.parametrize(
    "sites, message",
    [
        ({(0, 0), (1, 1)}, "pinched outer boundary"),
        (_TWO_DIAMONDS, "not a single closed curve"),
        ({(0, 0), (1, 0), (2, 0)}, "revisits a site"),
        ({(0, 0), (1, 0)}, "came out clockwise"),
        ({(x, y) for x in range(3) for y in range(3)}, "does not match the exposed boundary set"),
    ],
)
def test_tracer_rejects_what_is_not_a_simple_ccw_cycle(sites, message):
    for trace in (contour_cycle, one_cycle):
        with pytest.raises(ContourError, match=message):
            trace(sites)
    with pytest.raises(ContourError, match=message):
        block_cycles([_DIAMOND, sites])


@st.composite
def contour_candidates(draw):
    """Site sets to trace: contours of polyominoes and of scattered sites, and scattered sites themselves."""
    kind = draw(st.sampled_from(["polyomino", "scattered", "raw"]))
    if kind == "polyomino":
        return outer_boundary(make_cluster(draw(polyominoes()))).sites
    sites = draw(st.frozensets(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=20))
    if kind == "raw":
        return sites
    boundary = site_boundary(sites)
    exterior = exterior_of(sites | boundary)
    return frozenset(u for u in boundary if any(nb in exterior for nb in neighbors4(u)))


@settings(max_examples=300, deadline=None)
@given(st.lists(contour_candidates(), min_size=1, max_size=6))
def test_block_tracer_matches_ccw_cycle(contours):
    # each contour alone gives the cycle of _ccw_cycle or fails as it does, in
    # the one-contour tracer and, when it fits a census key, in a block of one
    # of the kernel's; the good ones that fit together give their cycles, and
    # any bad one that fits fails a block
    want = []
    for sites in contours:
        try:
            want.append(contour_cycle(sites))
        except ContourError:
            want.append(None)
        traces = (one_cycle, lambda c: block_cycles([c])[0]) if fits_a_key(sites) else (one_cycle,)
        for trace in traces:
            try:
                assert trace(sites) == want[-1]
            except ContourError:
                assert want[-1] is None
    want = [w for c, w in zip(contours, want) if fits_a_key(c)]
    contours = [c for c in contours if fits_a_key(c)]
    good = [c for c, w in zip(contours, want) if w]
    if good:
        assert block_cycles(good) == [w for w in want if w]
    if None in want:
        with pytest.raises(ContourError):
            block_cycles(contours)


@pytest.mark.parametrize(
    "walks, dtype",
    # frames of 42 and 62 columns, whose rows fit a 64-bit word, and of 103, whose rows do not
    [([(120, 0), (400, 0)], np.uint64), ([(2000, 2)], np.uint64), ([(3000, 0), (120, 1)], object)],
)
def test_tracer_matches_ccw_cycle_on_wide_frames(walks, dtype):
    contours = [oracle_outer_boundary(make_cluster(random_walk(n, seed))).sites for n, seed in walks]
    assert np.min_scalar_type((1 << max(frame_width(c, 1) for c in contours)) - 1) == dtype
    assert [one_cycle(c) for c in contours] == [contour_cycle(c) for c in contours]


# ---------------------------------------------------------------------------
# event probabilities
# ---------------------------------------------------------------------------


def test_event_probability_single_site():
    cl = make_cluster({(0, 0)})
    assert cluster_event_probability(cl, 0.5) == pytest.approx(1 / 32, rel=1e-15)
    assert cluster_event_probability(cl, 0.25) == pytest.approx(0.25 * 0.75**4, rel=1e-15)


def test_event_probability_full_concentration():
    cl = make_cluster({(0, 0), (1, 0)})
    assert cluster_event_probability(cl, 1.0) == 0.0


def exhaustive_window_oracle(c):
    """Exact origin-event probabilities over the 4x4 grid [-1, 2]^2.

    Returns (vacant_prob, {cluster sites: prob}, total) summed over all 2**16
    occupancy configurations.
    """
    cells = [(x, y) for y in range(-1, 3) for x in range(-1, 3)]
    index = {s: i for i, s in enumerate(cells)}
    vacant = 0.0
    by_cluster = {}
    total = 0.0
    for mask in range(1 << 16):
        occupied = mask.bit_count()
        weight = c**occupied * (1 - c) ** (16 - occupied)
        total += weight
        if not (mask >> index[(0, 0)]) & 1:
            vacant += weight
            continue
        seen = {(0, 0)}
        stack = [(0, 0)]
        while stack:
            x, y = stack.pop()
            for nb in ((x + 1, y), (x, y + 1), (x - 1, y), (x, y - 1)):
                if nb in index and nb not in seen and (mask >> index[nb]) & 1:
                    seen.add(nb)
                    stack.append(nb)
        key = frozenset(seen)
        by_cluster[key] = by_cluster.get(key, 0.0) + weight
    return vacant, by_cluster, total


def test_event_probabilities_against_exhaustive_enumeration():
    c = 0.2
    vacant, by_cluster, total = exhaustive_window_oracle(c)
    assert total == pytest.approx(1.0, abs=1e-12)
    assert vacant == pytest.approx(1 - c, abs=1e-12)
    # every cluster of size <= 3 fitting inside [0, 1]^2 keeps its whole
    # boundary inside the grid, so the formula applies without truncation
    candidates = [
        {(0, 0)},
        {(0, 0), (1, 0)},
        {(0, 0), (0, 1)},
        {(0, 0), (1, 0), (0, 1)},
        {(0, 0), (1, 0), (1, 1)},
        {(0, 0), (0, 1), (1, 1)},
    ]
    for sites in candidates:
        cl = make_cluster(sites)
        assert by_cluster[frozenset(sites)] == pytest.approx(
            cluster_event_probability(cl, c), abs=1e-12
        )
