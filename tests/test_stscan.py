import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenspot import (
    CylinderFamily,
    InputError,
    NeighborMatrix,
    ScanCylinder,
    ScanResult,
    enumerate_cylinders,
    monte_carlo_p,
    read_report,
    scan,
    score,
    write_json,
)
from conftest import ring_adjacency
from eigenspot import stscan
from eigenspot.dataio import scan_to_dict
from eigenspot.stscan import _count_bounds, _llr, _scores, expected_baseline


# ---------------------------------------------------------------------------
# score


def test_score_equal_rates_everywhere():
    assert score(10, 10, 100, 100) == 0.0
    assert score(10, 10, 100, 100, elevated_only=False) == 0.0


def test_score_zero_count_with_indicator():
    assert score(0, 5, 100, 100) == 0.0


def test_score_reference_value_against_mpmath():
    import mpmath

    mpmath.mp.dps = 50
    expected = 10 * mpmath.log(mpmath.mpf(10) / 5) + 90 * mpmath.log(
        mpmath.mpf(90) / 95
    )
    got = score(10, 5, 100, 100)
    assert got == pytest.approx(float(expected), rel=1e-14)
    # and the literal double-precision expression
    assert got == 10 * math.log(10 / 5) + 90 * math.log(90 / 95)


def test_score_error_conditions():
    with pytest.raises(InputError):
        score(5, 0, 100, 100)  # infinite rate
    with pytest.raises(InputError):
        score(5, 120, 100, 100)  # baseline above the total
    with pytest.raises(InputError):
        score(-1, 5, 100, 100)
    with pytest.raises(InputError):
        score(101, 5, 100, 100)


def test_score_degenerate_full_coverage():
    # whole-area cylinder with all the cases is finite
    assert score(100, 100, 100, 100, elevated_only=False) == 0.0
    # covering the whole baseline but missing cases is unbounded
    with pytest.raises(InputError):
        score(90, 100, 100, 100, elevated_only=False)
    # the indicator masks that same configuration
    assert score(90, 100, 100, 100, elevated_only=True) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    c=st.integers(1, 98),
    b=st.floats(0.5, 50.0),
)
def test_score_strictly_increasing_in_count(c, b):
    ct, bt = 100, 100.0
    if c / b <= ct / bt or (c + 1) > ct:
        return
    assert score(c + 1, b, ct, bt) > score(c, b, ct, bt)


def test_expected_baseline_matches_totals():
    cases = np.array([[3.0, 1.0], [0.0, 6.0]])
    pop = np.array([[100.0, 100.0], [300.0, 500.0]])
    base = expected_baseline(cases, pop)
    assert base.sum() == pytest.approx(cases.sum(), rel=1e-12)
    assert base[1, 1] / base[0, 0] == pytest.approx(5.0, rel=1e-12)
    with pytest.raises(InputError):
        expected_baseline(cases, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# enumeration


def test_single_region_three_times_gives_six_cylinders():
    cands = enumerate_cylinders(times=3, coords=np.array([[0.0, 0.0]]))
    windows = sorted(c.window for c in cands)
    assert len(cands) == 6
    assert windows == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert all(c.members == (0,) for c in cands)


def test_collinear_disks_grow_by_distance():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    cands = enumerate_cylinders(times=1, coords=coords)
    from_zero = sorted(
        {c.members for c in cands if c.center == 0}, key=len
    )
    assert from_zero == [(0,), (0, 1), (0, 1, 2)]


def test_enumeration_matches_brute_force_oracle():
    rng = np.random.default_rng(99)
    coords = rng.random((12, 2))
    rb = rng.integers(10, 60, size=12).astype(float)
    cands = enumerate_cylinders(
        times=4, coords=coords, region_baseline=rb, max_fraction=0.5
    )

    # independent double-loop enumeration
    cap = 0.5 * rb.sum()
    expected = set()
    for c in range(12):
        def key(j):
            dx = coords[j, 0] - coords[c, 0]
            dy = coords[j, 1] - coords[c, 1]
            return (j != c, dx * dx + dy * dy, j)

        order = sorted(range(12), key=key)
        for k in range(1, 13):
            members = tuple(order[:k])
            if k > 1 and sum(rb[m] for m in members) > cap:
                break
            for t0 in range(4):
                for t1 in range(t0, 4):
                    expected.add((c, members, (t0, t1)))
    got = {(c.center, c.members, c.window) for c in cands}
    assert got == expected


def test_adjacency_rings_grow_whole_levels():
    # star: 0 at the middle of 1..3, and 4 hanging off 3
    adj = np.zeros((5, 5), dtype=bool)
    for j in (1, 2, 3):
        adj[0, j] = adj[j, 0] = True
    adj[3, 4] = adj[4, 3] = True
    nb = NeighborMatrix(adj)
    cands = enumerate_cylinders(times=1, neighbors=nb)
    disks0 = sorted({c.members for c in cands if c.center == 0}, key=len)
    assert disks0 == [(0,), (0, 1, 2, 3), (0, 1, 2, 3, 4)]
    disks4 = sorted({c.members for c in cands if c.center == 4}, key=len)
    assert disks4 == [(4,), (4, 3), (4, 3, 0), (4, 3, 0, 1, 2)]


def test_adjacency_disconnected_component_never_joins():
    adj = np.zeros((4, 4), dtype=bool)
    adj[0, 1] = adj[1, 0] = True  # 2 and 3 isolated from 0-1
    adj[2, 3] = adj[3, 2] = True
    nb = NeighborMatrix(adj)
    cands = enumerate_cylinders(times=1, neighbors=nb)
    disks0 = {c.members for c in cands if c.center == 0}
    assert disks0 == {(0,), (0, 1)}


def reference_disks_from_adjacency(nb):
    """The per-center breadth-first search that ``_disks_from_adjacency`` replaced."""
    orders, disk_sizes = [], []
    for c in range(nb.n):
        seen = {c}
        order = [c]
        sizes = [1]
        frontier = [c]
        while frontier:
            nxt = sorted(
                {j for i in frontier for j in np.flatnonzero(nb.adjacency[i]) if j not in seen}
            )
            if not nxt:
                break
            seen.update(nxt)
            order.extend(nxt)
            sizes.append(len(order))
            frontier = nxt
        orders.append(order + [c] * (nb.n - len(order)))
        disk_sizes.append(sizes)
    return np.array(orders, np.intp).reshape(nb.n, nb.n), disk_sizes


@pytest.mark.parametrize("seed", range(12))
def test_ring_orders_match_per_center_search(seed):
    # sparse random graphs, split into components, some regions isolated
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    adj = np.triu(rng.random((n, n)) < rng.uniform(0.0, 6.0 / n), 1)
    part = rng.integers(0, 1 + seed % 3, n)  # edges only within a part
    adj &= part[:, None] == part[None, :]
    gone = rng.random(n) < 0.1
    adj[gone] = False
    adj[:, gone] = False
    nb = NeighborMatrix(adj | adj.T)
    orders, sizes = stscan._disks_from_adjacency(nb)
    expected_orders, expected_sizes = reference_disks_from_adjacency(nb)
    assert orders.dtype == expected_orders.dtype
    assert np.array_equal(orders, expected_orders)
    assert sizes == expected_sizes


def test_ring_orders_match_per_center_search_on_a_grid_with_removed_regions():
    side = 12
    adj = np.zeros((side * side, side * side), dtype=bool)
    for i in range(side * side):
        if i % side + 1 < side:
            adj[i, i + 1] = adj[i + 1, i] = True
        if i + side < side * side:
            adj[i, i + side] = adj[i + side, i] = True
    # removing column 3 of rows 0-4 and row 4 of columns 0-3 cuts off a 4x3 corner
    for gone in [r * side + 3 for r in range(5)] + [4 * side + c for c in range(3)]:
        adj[gone] = adj[:, gone] = False
    nb = NeighborMatrix(adj)
    orders, sizes = stscan._disks_from_adjacency(nb)
    expected_orders, expected_sizes = reference_disks_from_adjacency(nb)
    assert np.array_equal(orders, expected_orders) and sizes == expected_sizes


def test_baseline_cap_drops_large_disks():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    rb = np.array([10.0, 10.0, 10.0])
    cands = enumerate_cylinders(
        times=1, coords=coords, region_baseline=rb, max_fraction=0.5
    )
    sizes = {len(c.members) for c in cands}
    assert sizes == {1}  # any two regions exceed half of 30


def test_enumeration_validation():
    with pytest.raises(InputError):
        enumerate_cylinders(times=2)
    with pytest.raises(InputError):
        enumerate_cylinders(times=0, coords=np.zeros((1, 2)))
    with pytest.raises(InputError):
        enumerate_cylinders(times=2, coords=np.zeros((2, 2)), max_fraction=0.7)


def test_cylinder_validation():
    with pytest.raises(InputError):
        ScanCylinder(center=0, members=(1,), window=(0, 0))
    with pytest.raises(InputError):
        ScanCylinder(center=0, members=(0,), window=(2, 1))


# ---------------------------------------------------------------------------
# scan


def grid_instance(seed, n=9, times=4, rate=0.2):
    rng = np.random.default_rng(seed)
    coords = rng.random((n, 2))
    pop = rng.integers(50, 150, size=(n, times)).astype(float)
    cases = rng.poisson(pop * rate).astype(float)
    if cases.sum() == 0:
        cases[0, 0] = 1.0
    return coords, cases, pop


def centroid_disks():
    coords, cases, pop = grid_instance(21, n=7, times=5)
    return enumerate_cylinders(times=5, coords=coords), cases, pop


def two_component_rings():
    # a path over regions 0-7 and a triangle over 8-10, with a baseline cap:
    # the triangle's centers reach fewer regions than their order rows hold
    coords, cases, pop = grid_instance(21, n=11, times=5)
    adj = np.zeros((11, 11), dtype=bool)
    for i, j in [(i, i + 1) for i in range(7)] + [(8, 9), (9, 10), (8, 10)]:
        adj[i, j] = adj[j, i] = True
    cands = enumerate_cylinders(
        times=5, neighbors=NeighborMatrix(adj), region_baseline=pop.sum(axis=1)
    )
    assert cands.orders.shape[1] > 3 and cands.sizes[cands.centers == 10].max() == 3
    return cands, cases, pop


def large_counts():
    # cells near 1e9 put the case total above 2**31, so disk sums run in
    # int64, over ring disks whose padded order rows are summed too; the raw
    # population stays far above the case total
    cands, cases, pop = two_component_rings()
    cases, pop = cases * 5e7, pop * 1e9
    assert cases.sum() >= 2**31
    return cands, cases, pop


def padded_near_the_int32_limit():
    # nearly every case in region 10, a triangle center whose order row
    # repeats it twice past its last disk: below a total of 2**31 (here, and
    # scaled by 0.37) the running sums over that padding pass 2**31 and wrap
    # in int32, where no disk reads them
    cands, cases, pop = two_component_rings()
    cases = np.zeros_like(cases)
    cases[10] = (2**31 - 100) // cases.shape[1]
    cases[0, 0] = 7.0
    assert cases.sum() < 2**31 and list(cands.orders[10, 3:]) == [10, 10]
    return cands, cases, pop


def test_scan_equal_matrices_all_zero_scores():
    coords = np.array([[0.0, 0.0], [1.0, 0.0]])
    m = np.array([[4.0, 4.0], [4.0, 4.0]])
    cands = enumerate_cylinders(times=2, coords=coords)
    res = scan(m, m, cands).result(top=None)
    assert all(c.score == 0.0 for c in res.cylinders)
    # tie rule: smallest member count, then center, then window
    assert res.cylinders[0].members == (0,)
    assert res.cylinders[0].window == (0, 0)


def test_scan_single_doubled_cell_wins():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    baseline = np.full((3, 4), 10.0)
    cases = baseline.copy()
    cases[1, 2] *= 2
    cands = enumerate_cylinders(times=4, coords=coords)
    res = scan(cases, baseline, cands).result(top=None)
    # exhaustive oracle over all scored candidates
    best = max(
        res.cylinders,
        key=lambda c: (c.score, -len(c.members), -c.center),
    )
    top = res.cylinders[0]
    assert top.members == (1,)
    assert top.window == (2, 2)
    assert top.score == best.score


def test_scan_brute_force_equivalence_smoke():
    coords, cases, pop = grid_instance(5)
    baseline = expected_baseline(cases, pop)
    rb = baseline.sum(axis=1)
    cands = enumerate_cylinders(times=4, coords=coords, region_baseline=rb)
    top = scan(cases, baseline, cands).result(top=1).cylinders[0]

    ct, bt = float(cases.sum()), float(baseline.sum())
    best_key, best = None, None
    for cyl in cands:
        t0, t1 = cyl.window
        c = float(cases[list(cyl.members)][:, t0 : t1 + 1].sum())
        b = float(baseline[list(cyl.members)][:, t0 : t1 + 1].sum())
        if c * bt > b * ct:
            s = (c * math.log(c / b) if c else 0.0) + (
                (ct - c) * math.log((ct - c) / (bt - b)) if ct - c > 0 else 0.0
            )
        else:
            s = 0.0
        key = (-s, len(cyl.members), cyl.center, cyl.window)
        if best_key is None or key < best_key:
            best_key, best = key, (set(cyl.members), cyl.window, s)
    assert set(top.members) == best[0]
    assert top.window == best[1]
    assert top.score == best[2]


@pytest.mark.parametrize("bufsize", [None, 16])
def test_scan_sums_follow_cell_order(bufsize):
    # non-integer baselines, blocks of up to 24 x 9 cells (past numpy's
    # 128-cell pairwise blocking) and windows of 8 or more steps; a small
    # buffer makes numpy split the narrower blocks into runs of rows
    rng = np.random.default_rng(41)
    coords = rng.random((24, 2))
    cases = rng.poisson(6.0, size=(24, 9)).astype(float)
    baseline = expected_baseline(cases, rng.integers(50, 150, size=(24, 9)))
    cands = enumerate_cylinders(times=9, coords=coords)
    old = np.setbufsize(bufsize) if bufsize else None
    try:
        res = scan(cases, baseline, cands, elevated_only=False).result(top=None)
        direct = [
            (
                float(cases[list(c.members)][:, c.window[0] : c.window[1] + 1].sum()),
                float(baseline[list(c.members)][:, c.window[0] : c.window[1] + 1].sum()),
            )
            for c in res.cylinders
        ]
    finally:
        if old is not None:
            np.setbufsize(old)
    assert max(len(c.members) * (c.window[1] - c.window[0] + 1) for c in cands) > 128
    assert [(c.count, c.baseline) for c in res.cylinders] == direct
    # a score is the difference of two terms of up to about c_total, so a
    # last-digit difference between np.log and math.log shows at that scale
    for cyl in res.cylinders:
        expected = score(cyl.count, cyl.baseline, res.c_total, res.b_total, elevated_only=False)
        assert cyl.score == pytest.approx(expected, rel=1e-12, abs=1e-12 * res.c_total)


@pytest.mark.parametrize("scale", [1000, 0.37])
@pytest.mark.parametrize("block", [None, 1])
@pytest.mark.parametrize("bufsize", [None, 16])
@pytest.mark.parametrize(
    "instance", [centroid_disks, two_component_rings, large_counts, padded_near_the_int32_limit]
)
def test_observed_counts_equal_cell_sums_bit_for_bit(instance, bufsize, block, scale, monkeypatch):
    # case counts take the blocked running sums along each order row; they
    # are exact, so they equal the cell-order sums whatever numpy's buffer,
    # and a budget below one center's row puts every center in its own block;
    # large counts, and small ones (scaled by 0.37 and rounded) with many zeros
    cands, cases, pop = instance()
    cases = np.round(cases * scale)
    if block:
        monkeypatch.setattr(stscan, "_BLOCK", block)
        assert len(cands.blocks()) == np.unique(cands.centers).size
    old = np.setbufsize(bufsize) if bufsize else None
    try:
        counts = scan(cases, expected_baseline(cases, pop), cands).counts
        expected = cands.cell_sums(cases)
    finally:
        if old is not None:
            np.setbufsize(old)
    assert counts.tobytes() == expected.tobytes()


def test_scan_exact_ties_keep_documented_order():
    # times 0 and 2 and region 1 carry no baseline and no cases, so adding
    # them to region 0's hot cell leaves (c, b) = (8, 2.5) exactly; ties go
    # to fewer members, then the lower center, then the earlier window
    coords = np.array([[0.0, 0.0], [0.5, 0.0], [10.0, 0.0], [11.0, 0.0]])
    baseline = np.zeros((4, 3))
    baseline[:, 1] = [2.5, 0.0, 7.75, 9.75]
    cases = np.zeros((4, 3))
    cases[:, 1] = [8.0, 0.0, 6.0, 6.0]
    res = scan(cases, baseline, enumerate_cylinders(times=3, coords=coords)).result(top=None)
    tied, top = res.cylinders[:12], res.cylinders[0]
    assert all((c.count, c.baseline, c.score) == (8.0, 2.5, top.score) for c in tied)
    assert res.cylinders[12].score < top.score
    windows = [(0, 1), (0, 2), (1, 1), (1, 2)]
    assert [(c.members, c.window) for c in tied] == [
        (members, w) for members in [(0,), (0, 1), (1, 0)] for w in windows
    ]


def repeated_cells(layout):
    # cases of 0-2 over a flat baseline: cylinders of one size and window
    # length share their baselines exactly and often their counts, and the
    # cold ones score 0 with elevated-only scoring
    rng = np.random.default_rng(7)
    coords, cases = rng.random((8, 2)), rng.integers(0, 3, size=(8, 5)).astype(float)
    if layout == "rings":
        return enumerate_cylinders(times=5, neighbors=ring_adjacency(8)), cases
    fam = enumerate_cylinders(times=5, coords=coords)
    if layout == "reversed":
        # disks in reverse center order, windows in reverse triu order
        fam = CylinderFamily(
            fam.orders, fam.centers[::-1], fam.sizes[::-1], fam.t0[::-1], fam.t1[::-1]
        )
    return fam, cases


@pytest.mark.parametrize("elevated_only", [True, False])
@pytest.mark.parametrize("layout", ["flat-pair", "centroids", "rings", "reversed"])
def test_scan_tie_ordering_is_total(layout, elevated_only):
    if layout == "flat-pair":
        cases = np.full((2, 2), 5.0)
        cands = enumerate_cylinders(times=2, coords=np.array([[0.0, 0.0], [3.0, 0.0]]))
    else:
        cands, cases = repeated_cells(layout)
    res = scan(cases, expected_baseline(cases, np.ones(cases.shape)), cands, elevated_only)
    rows = list(res.result(top=None).cylinders)
    assert len({c.score for c in rows}) <= len(rows) // 4  # ties are the rule here
    ranked = sorted(rows, key=lambda c: (-c.score, len(c.members), c.center, c.window))
    assert [(c.center, c.members, c.window) for c in rows] == [
        (c.center, c.members, c.window) for c in ranked
    ]


def test_scan_validation():
    coords = np.array([[0.0, 0.0]])
    cands = enumerate_cylinders(times=2, coords=coords)
    with pytest.raises(InputError):
        scan(np.ones((1, 2)), np.ones((2, 2)), cands)
    with pytest.raises(InputError):
        scan(np.ones((1, 2)), np.zeros((1, 2)), cands)
    with pytest.raises(InputError):
        scan(np.ones((1, 2)), np.ones((1, 2)), [])
    # cell errors the per-cylinder score used to raise
    for bad_cases in ([[-1.0, 3.0]], [[np.nan, 3.0]], [[np.inf, 3.0]]):
        with pytest.raises(InputError):
            scan(np.array(bad_cases), np.ones((1, 2)), cands)
    for bad_baseline in ([[-1.0, 3.0]], [[np.nan, 3.0]]):
        with pytest.raises(InputError, match="non-negative"):
            scan(np.ones((1, 2)), np.array(bad_baseline), cands)
    for elevated_only in (True, False):
        with pytest.raises(InputError, match="zero baseline"):
            scan(np.ones((1, 2)), np.array([[0.0, 2.0]]), cands, elevated_only=elevated_only)
    # a family of only region 0's singleton disk: that cylinder covers the
    # whole baseline and misses region 1's case
    zero, one = np.array([0]), np.array([1])
    whole = CylinderFamily(np.array([[0]]), zero, one, zero, zero)
    with pytest.raises(InputError, match="unbounded"):
        scan(np.array([[1.0], [1.0]]), np.array([[2.0], [0.0]]), whole, elevated_only=False)
    # candidates come as a family, not as a list of rows
    with pytest.raises(InputError, match="CylinderFamily"):
        scan(np.ones((1, 2)), np.ones((1, 2)), list(cands))
    # a family whose regions or steps reach past the matrices: two regions,
    # three steps, and a negative member that numpy would wrap around
    two_regions = enumerate_cylinders(times=2, coords=np.array([[0.0, 0.0], [1.0, 0.0]]))
    three_steps = enumerate_cylinders(times=3, coords=coords)
    wrapped = CylinderFamily(np.array([[-1]]), zero, one, zero, one)
    for family in (two_regions, three_steps, wrapped):
        with pytest.raises(InputError, match="does not cover"):
            scan(np.ones((1, 2)), np.ones((1, 2)), family)


def test_scan_requires_whole_number_cases():
    # the Poisson statistic is defined on counts, so fractional cells are
    # rejected before any cylinder is summed or scored
    rng = np.random.default_rng(41)
    coords = rng.random((24, 2))
    cases = rng.poisson(6.0, size=(24, 9)).astype(float)
    baseline = expected_baseline(cases, rng.integers(50, 150, size=(24, 9)))
    cands = enumerate_cylinders(times=9, coords=coords)
    with pytest.raises(InputError, match="whole numbers"):
        scan(cases * 0.37, baseline, cands, elevated_only=False)
    # from 2**53 on, integer cases and their sums are no longer exact
    one = enumerate_cylinders(times=2, coords=np.array([[0.0, 0.0]]))
    for huge in (2.0**53 - 1.0, 2.0**53, 2.0**60):
        matrix = np.array([[huge, 0.0]])
        if huge < 2.0**53:
            assert scan(matrix, np.ones((1, 2)), one).c_total == huge
        else:
            with pytest.raises(InputError, match="whole numbers.*2\\*\\*53"):
                scan(matrix, np.ones((1, 2)), one)


# ---------------------------------------------------------------------------
# Monte Carlo


def test_monte_carlo_null_top_score_gives_p_one():
    coords = np.array([[0.0, 0.0], [1.0, 0.0]])
    m = np.array([[8.0, 8.0], [8.0, 8.0]])
    cands = enumerate_cylinders(times=2, coords=coords)
    res = scan(m, m, cands)
    assert res.result(top=1).cylinders[0].score == 0.0
    out = monte_carlo_p(res, replications=19, seed=1).result(top=None)
    # replica maxima are always >= 0, so a zero observed score ranks last
    assert all(c.p_value == 1.0 for c in out.cylinders)


def test_monte_carlo_extreme_observation_gets_smallest_p():
    coords = np.array([[float(i), 0.0] for i in range(5)])
    baseline = np.full((5, 3), 10.0)
    cases = np.zeros((5, 3))
    cases[0, 0] = 150.0  # all mass in one cell; replicas spread it out
    cands = enumerate_cylinders(times=3, coords=coords)
    res = scan(cases, baseline, cands)
    out = monte_carlo_p(res, replications=19, seed=3).result(top=1)
    assert out.cylinders[0].p_value == pytest.approx(1 / 20)


def test_monte_carlo_p_bounds_and_determinism():
    coords, cases, pop = grid_instance(11, n=6, times=3)
    baseline = expected_baseline(cases, pop)
    cands = enumerate_cylinders(times=3, coords=coords)
    res = scan(cases, baseline, cands)
    a = monte_carlo_p(res, replications=49, seed=7).result(top=None)
    b = monte_carlo_p(res, replications=49, seed=7).result(top=None)
    for ca, cb in zip(a.cylinders, b.cylinders):
        assert ca.p_value == cb.p_value
        assert 1 / 50 <= ca.p_value <= 1.0
    c = monte_carlo_p(res, replications=49, seed=8).result(top=None)
    assert any(
        x.p_value != y.p_value for x, y in zip(a.cylinders, c.cylinders)
    )  # different seed, different draw


@settings(max_examples=400, deadline=None)
@given(
    total=st.integers(1, 2**40),
    # Bt / N: an expected-count baseline, or a raw population above or below N
    ratio=st.just(1.0) | st.floats(1e-3, 1e3),
    # B / Bt: empty, nearly empty, whole (and an ulp above, as a float sum may land)
    share=st.sampled_from([0.0, 5e-324, 1e-300, 1e-12, 1.0, 1.0 + 2**-52]) | st.floats(0.0, 1.0),
    # tau near 0, or up to 3, itself or as a multiple of N
    tau=st.floats(5e-324, 1e-6) | st.floats(1e-9, 3.0),
    per_case=st.booleans(),
)
def test_count_bounds_leave_out_no_count_that_reaches_the_floor(total, ratio, share, tau, per_case):
    n = float(total)
    tau = tau * n if per_case else tau
    bt = n * ratio
    b = bt * share
    (lo,), (hi,) = _count_bounds(np.array([b]), n, bt, tau)
    # the score is convex in C, so over the whole counts strictly inside the
    # bounds it peaks at the first or the last of them; among the elevated
    # counts below hi, at the first elevated one or the last below hi
    near = [math.ceil(lo), math.floor(hi), math.floor(n * b / bt) + 1] if hi > -math.inf else []
    counts = {c + d for c in near if abs(c) < 2**60 for d in range(-2, 3)}
    counts |= set(np.linspace(0, n, 17).round().tolist())
    counts = np.array(sorted(c for c in counts if 0 <= c <= n), dtype=float)
    with np.errstate(over="ignore"):  # C / B overflows for a subnormal B
        scores = _llr(counts, np.full(counts.size, b), n, bt)
    inside = (lo < counts) & (counts < hi)
    assert not np.any(inside & (scores >= tau))
    # with elevated_only only the upper bound applies; counts below it score 0 or stay below tau
    hot = counts * bt > b * n
    assert not np.any((counts < hi) & hot & (scores >= tau))
    if b <= 0 or b >= bt:
        assert lo == hi == -math.inf


@pytest.mark.parametrize("instance", [centroid_disks, two_component_rings, large_counts])
def test_monte_carlo_replicas_match_a_full_rescan(instance, monkeypatch):
    # replica counts come from window prefix sums and running sums along each
    # center's order row, one block of centers at a time, and only the
    # maximum score is kept; every replica maximum must equal the top score
    # of the whole family rescored from the replica's cell-order sums, for
    # one block, for the 4096-value budget, and for one center per block;
    # replicas after the first score only the counts that can reach a floor
    # of a share of the smallest maximum so far, the default or another, and
    # a share of 1.0 sends every replica that sets a new low back through a
    # full rescore, which lowers the floor and recomputes the bounds
    cands, cases, pop = instance()
    floors = []
    monkeypatch.setattr(
        stscan, "_count_bounds", lambda b, c, t, tau: floors.append(tau) or _count_bounds(b, c, t, tau)
    )
    # with the raw population as the baseline (a total far above the case
    # total) elevated cylinders score below 0, so a replica's maximum of 0
    # comes from the cylinders that are not elevated
    for baseline, elevated_only in itertools.product(
        (expected_baseline(cases, pop), pop), (True, False)
    ):
        probs = (baseline / baseline.sum()).ravel()
        baselines = cands.cell_sums(baseline)
        draws = [
            np.random.default_rng(ss).multinomial(int(cases.sum()), probs).reshape(cases.shape)
            for ss in np.random.SeedSequence(4).spawn(19)
        ]
        res = scan(cases, baseline, cands, elevated_only=elevated_only)
        maxima = [
            _scores(cands.cell_sums(draw.astype(float)), baselines, res.c_total, res.b_total,
                    elevated_only).max()
            for draw in draws
        ]
        ranked = res.result(top=None).cylinders
        expected = [(1 + sum(m >= c.score for m in maxima)) / 20 for c in ranked]
        for floor, block in itertools.product((stscan._FLOOR, 0.25, 1.0), (1 << 20, 4096, 1)):
            monkeypatch.setattr(stscan, "_FLOOR", floor)
            monkeypatch.setattr(stscan, "_BLOCK", block)
            assert (len(cands.blocks()) > 1) == (block == 1)
            floors.clear()
            out = monte_carlo_p(res, replications=19, seed=4).result(top=None)
            assert [c.p_value for c in out.cylinders] == expected
            if baseline is pop:
                assert not floors  # every maximum is 0 or below, so nothing is pruned
            else:
                assert len(set(floors)) >= (2 if floor == 1.0 else 1)


@pytest.mark.parametrize("block", [1 << 20, 1])
@pytest.mark.parametrize("elevated_only", [True, False])
def test_replica_keep_rules_include_their_thresholds(elevated_only, block, monkeypatch):
    # thresholds equal to each cylinder's own count in the replica: the
    # rules C >= hi and C <= lo are inclusive, so every cylinder is kept and
    # the pruned maximum equals the unpruned one, in one block and in many
    monkeypatch.setattr(stscan, "_BLOCK", block)
    coords, cases, pop = grid_instance(5, n=12, times=4)
    fam = enumerate_cylinders(times=4, coords=coords)
    baseline = expected_baseline(cases, pop)
    c_total, b_total = float(cases.sum()), float(baseline.sum())
    probs = (baseline / b_total).ravel()
    draw = np.random.default_rng(9).multinomial(int(c_total), probs).reshape(cases.shape)
    blocks = fam.blocks()
    assert (len(blocks) > 1) == (block == 1)
    baselines = fam.cell_sums(baseline).reshape(-1, fam.t0.size)
    totals = (c_total, b_total, elevated_only)
    counts = [sums.ravel() for _, sums in stscan._disk_sums(draw, c_total, fam, blocks)]
    if elevated_only:
        bounds = [(None, c) for c in counts]
    else:
        bounds = [(c, np.full_like(c, int(c_total) + 1)) for c in counts]
    full = stscan._replica_max(draw, fam, blocks, baselines, *totals)
    assert math.isfinite(full)
    assert stscan._replica_max(draw, fam, blocks, baselines, *totals, bounds) == full


@pytest.mark.parametrize("seed, regions, times, share", [(21, 7, 5, 0.25), (41, 20, 8, 0.1)])
def test_monte_carlo_scores_few_cylinders_after_the_first_replica(
    seed, regions, times, share, monkeypatch
):
    # the first replica scores every elevated cylinder, about half of them,
    # and later ones only the counts that can reach the floor. On the 735
    # cylinders of centroid_disks 6-12% of a replica's cylinders score above
    # the floor, and the bound keeps about twice that; the kept share falls
    # as the family grows, to 4-7% on 14,400 cylinders
    coords, cases, pop = grid_instance(seed, n=regions, times=times)
    cands = enumerate_cylinders(times=times, coords=coords)
    res = scan(cases, expected_baseline(cases, pop), cands)
    scored = []
    monkeypatch.setattr(stscan, "_llr", lambda c, *args: scored.append(c.size) or _llr(c, *args))
    monte_carlo_p(res, replications=49, seed=3)
    assert 0 < sum(scored) < share * len(cands) * 49


def test_monte_carlo_working_set_stays_near_the_family_size(monkeypatch):
    # a replica sums one block of centers at a time from integer time
    # prefixes and keeps only its maximum score, and the result keeps only
    # the sorted maxima. The default budget holds this whole family in one
    # block, whose scoring peaks at 4.91 per-cylinder float arrays; a
    # 4096-value budget peaks at 0.235 of one (numpy 2.4). The bounds leave
    # about 10% over those, and sit below the 6.14 and 0.29 that float64
    # sums of every region over every window took
    import tracemalloc

    coords, cases, pop = grid_instance(41, n=40, times=12)
    baseline = expected_baseline(cases, pop)
    cands = enumerate_cylinders(times=12, coords=coords)
    assert len(cands) == 124_800
    res = scan(cases, baseline, cands)
    for block, bound in ((1 << 20, 5.4), (4096, 0.26)):
        monkeypatch.setattr(stscan, "_BLOCK", block)
        tracemalloc.start()
        try:
            monte_carlo_p(res, replications=1, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * len(cands) * np.dtype(float).itemsize


def test_monte_carlo_streams_are_made_as_they_are_used():
    # replica i draws from SeedSequence(seed, spawn_key=(i,)), the stream
    # SeedSequence(seed).spawn(replications)[i] gives, made in its turn:
    # spawning every stream up front held about 370 bytes per replication
    # (1.5 MB here) for the whole run. What is left is the sorted maxima,
    # 8 bytes per replication (32 KB here), under a bound that does not
    # grow with the replication count
    import tracemalloc

    one = enumerate_cylinders(times=2, coords=np.array([[0.0, 0.0]]))
    m = np.array([[3.0, 5.0]])
    res = scan(m, m, one, elevated_only=False)
    monte_carlo_p(res, replications=1, seed=7)  # first-call set-up, outside the trace
    tracemalloc.start()
    try:
        out = monte_carlo_p(res, replications=4000, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.maxima.size == 4000
    assert peak < 256 * 1024


def test_monte_carlo_validation(tmp_path, monkeypatch):
    coords = np.array([[0.0, 0.0]])
    m = np.ones((1, 2))
    cands = enumerate_cylinders(times=2, coords=coords)
    res = scan(m, m, cands, elevated_only=False)
    with pytest.raises(InputError):
        monte_carlo_p(res, replications=0, seed=1)
    with pytest.raises(InputError, match="seed"):
        monte_carlo_p(res, replications=9, seed=-1)
    # the replicas need every cylinder scored by scan, not ranked rows or a
    # part of the family
    for partial in (res.result(top=None), dataclasses.replace(res, kept=np.array([0]))):
        with pytest.raises(InputError, match="scan"):
            monte_carlo_p(partial, replications=9, seed=1)
    write_json(scan_to_dict(res.result(top=None)), tmp_path / "scan.json")
    back = read_report(tmp_path / "scan.json")
    assert isinstance(back, ScanResult) and not hasattr(back, "matrix")
    with pytest.raises(InputError, match="scan"):
        monte_carlo_p(back, replications=9, seed=1)
    # a replica maximum that is not finite is an unbounded score
    for bad in (np.inf, np.nan):
        monkeypatch.setattr(stscan, "_llr", lambda c, *args, bad=bad: np.full(c.shape, bad))
        with pytest.raises(InputError, match="unbounded"):
            monte_carlo_p(res, replications=1, seed=1)


def test_monte_carlo_draws_from_the_scanned_baseline():
    cands, cases, pop = centroid_disks()
    baseline = expected_baseline(cases, pop)
    res = scan(cases, baseline, cands)
    assert not res.matrix.flags.writeable and not np.shares_memory(res.matrix, baseline)

    def p_values():
        out = monte_carlo_p(res, replications=19, seed=6).result(top=None)
        return [c.p_value for c in out.cylinders]

    expected = p_values()
    baseline[0] *= 40.0  # the caller's array changes; the scanned copy does not
    assert p_values() == expected
    # region 0 and time 0 carry no baseline, so no replica puts a case there
    half = np.array([[0.0, 0.0], [0.0, 2.0]])
    two = enumerate_cylinders(times=2, coords=np.array([[0.0, 0.0], [1.0, 0.0]]))
    for elevated_only in (True, False):
        scored = monte_carlo_p(scan(half, half, two, elevated_only), replications=9, seed=1)
        out = scored.result(top=None)
        assert [c.p_value for c in out.cylinders] == [1.0] * len(two)


def test_family_rows_slices_and_significant_prefix():
    coords, cases, pop = grid_instance(31, n=8, times=4, rate=0.3)
    cases[2, :] += 40.0
    baseline = expected_baseline(cases, pop)
    cands = enumerate_cylinders(times=4, coords=coords)
    # cylinder i is disk i // W over window i % W, W = 10 windows here
    rows = list(cands)
    assert len(rows) == len(cands) == cands.sizes.size * 10
    assert [c.window for c in rows[:10]] == [(t0, t1) for t0 in range(4) for t1 in range(t0, 4)]
    assert rows[10].center == 0 and len(rows[10].members) == 2 and rows[10].window == (0, 0)

    scored = monte_carlo_p(scan(cases, baseline, cands), replications=99, seed=5)
    # scanning leaves the candidate family as it was: geometry only
    assert scored.family is cands and not hasattr(cands, "scores")
    res = scored.result(top=None)
    ranked = list(res.cylinders)
    head = scored.result(top=5).cylinders
    assert isinstance(head, tuple) and len(head) == 5
    assert [c.score for c in head] == [c.score for c in ranked[:5]]
    assert res.cylinders[-1].score == ranked[-1].score and len(ranked) == len(cands)
    # p-values never fall along the ranking, so the significant set is a prefix
    sig = ranked[: res.significant_total]
    assert 0 < len(sig) < len(ranked)
    prefix = [(c.center, c.members, c.window) for c in sig]
    assert prefix == [(c.center, c.members, c.window) for c in ranked if c.p_value <= 0.05]


@pytest.mark.parametrize("instance", [centroid_disks, two_component_rings])
def test_the_family_counts_what_the_benchmark_tracer_reads(instance):
    # bench/tracer.py counts a family's cylinders with len() and its member
    # references over its rows in index order; the ring family's order rows
    # are padded past their last disk
    fam, _, _ = instance()
    assert len(fam) == fam.sizes.size * fam.t0.size == fam.sizes.size * 15
    assert sum(len(c.members) for c in fam) == fam.sizes.sum() * fam.t0.size


def test_significant_clusters_are_disjoint():
    coords, cases, pop = grid_instance(31, n=8, times=4, rate=0.3)
    cases[2, :] += 40.0  # force a hot region
    baseline = expected_baseline(cases, pop)
    cands = enumerate_cylinders(times=4, coords=coords)
    res = monte_carlo_p(scan(cases, baseline, cands), replications=99, seed=5).result(0.05, None)
    clusters = res.significant_clusters(0.05)
    seen = set()
    for cyl in clusters:
        assert seen.isdisjoint(cyl.members)
        seen.update(cyl.members)
    assert len(clusters) <= res.significant_total
