"""The scan's one flow, :func:`stscan.monte_carlo_scan`, against the full path.

The flow runs the replicas first and then scores and ranks only the
observed counts that the replicas' last floor keeps (or, in a second pass,
the counts that can reach a lower cut). Its document must be the bytes of the
reference chain, which scores and ranks every cylinder:
``scan_to_dict(monte_carlo_p(scan(...)).result(alpha, top))`` at the same
``alpha`` and ``top``, whichever pass or fallback the flow took.
"""

import itertools
import json
import subprocess
import sys

import numpy as np
import pytest

from eigenspot import InputError, SynthConfig, enumerate_cylinders, generate, monte_carlo_p, scan
from eigenspot import stscan
from eigenspot.dataio import dumps_stable, scan_to_dict
from eigenspot.stscan import CylinderFamily, monte_carlo_scan

REPLICATIONS = 39
SEED = 3


def document(result):
    return dumps_stable(scan_to_dict(result))


def reference_document(scored, alpha, top):
    """The document of the reference chain, from every cylinder scored and priced."""
    return document(scored.result(alpha, top))


def full_document(cases, population, fam, elevated_only, alpha, top, replications=REPLICATIONS):
    scored = monte_carlo_p(scan(cases, population, fam, elevated_only), replications, SEED)
    return reference_document(scored, alpha, top)


def flow_document(cases, population, fam, elevated_only, alpha, top, replications=REPLICATIONS):
    res = monte_carlo_scan(cases, population, fam, replications, SEED, elevated_only, alpha, top)
    return document(res)


@pytest.fixture
def passes(monkeypatch):
    """What each observed pass kept: the cylinder indices, or None for every cylinder."""
    kept = []
    scored = stscan._scored

    def record(*args, **run):
        out = scored(*args, **run)
        kept.append(out.kept)
        return out

    monkeypatch.setattr(stscan, "_scored", record)
    return kept


def sizes(passes):
    return [None if kept is None else kept.size for kept in passes]


def synth(kind):
    """(cases, population, centroid family, ring family) of a 25-region, 8-step grid."""
    inject = {"injected": (("r06", "r07", "r11", "r12"), (2, 4), 3.0), "null": ((), (0, 0), 1.0)}
    regions, window, risk = inject[kind]
    data = generate(SynthConfig(
        regions=25, times=8, injected_regions=regions, window=window, relative_risk=risk, seed=1,
    ))
    cases, population = data.cases.values, data.population.values
    cap = {"region_baseline": population.sum(axis=1)}
    return (
        cases, population,
        enumerate_cylinders(times=8, coords=data.coords, **cap),
        enumerate_cylinders(times=8, neighbors=data.neighbors, **cap),
    )


@pytest.mark.parametrize("elevated_only", [True, False])
@pytest.mark.parametrize("geometry", ["centroids", "adjacency"])
@pytest.mark.parametrize("kind", ["null", "injected"])
def test_the_flow_writes_the_full_paths_document(kind, geometry, elevated_only, passes):
    # --top 0, 1, 100, past the family and None (every row), at alpha 0.05
    # and 1 (every cylinder significant, so the flow scores all of them); on
    # these grids the flow takes one pass, two passes and the fallback to
    # every cylinder
    cases, population, centroids, rings = synth(kind)
    fam = centroids if geometry == "centroids" else rings
    full = monte_carlo_p(scan(cases, population, fam, elevated_only), REPLICATIONS, SEED)
    for alpha, top in itertools.product((0.05, 1.0), (0, 1, 100, len(fam) + 1, None)):
        passes.clear()  # of the flow alone, not of scan
        flow = monte_carlo_scan(cases, population, fam, REPLICATIONS, SEED, elevated_only, alpha, top)
        assert document(flow) == reference_document(full, alpha, top), (
            alpha, top, sizes(passes)
        )
        if alpha == 1.0 or top is None or top > len(fam):
            assert passes[-1] is None  # every cylinder
        else:
            assert None not in sizes(passes) and 0 < max(sizes(passes)) < len(fam)


def test_a_second_pass_runs_when_fewer_than_top_clear_the_floor(monkeypatch, passes):
    # on the null grid 134 observed scores reach the replicas' last floor,
    # and 838 counts are kept, so 200 rows need a second pass, whose cut is
    # the 200th best score of those 838
    cases, population, fam, _ = synth("null")
    full = monte_carlo_p(scan(cases, population, fam), REPLICATIONS, SEED)
    floors = []
    bounds = stscan._bounds

    def record(baselines, blocks, tau, *totals):
        floors.append(tau)
        return bounds(baselines, blocks, tau, *totals)

    monkeypatch.setattr(stscan, "_bounds", record)
    passes.clear()
    flow = flow_document(cases, population, fam, True, 0.05, 200)
    assert flow == reference_document(full, 0.05, 200)
    assert sizes(passes)[0] == 838 and 838 < sizes(passes)[1] < len(fam)
    scores = full.scores
    assert np.count_nonzero(scores >= floors[-2]) == 134
    assert floors[-1] == np.sort(scores[passes[0]])[-200] < floors[-2]


def tied_block():
    """Twelve cylinders tie at the top, (c, b) = (8, 2.5), of 68 cases and 68 population."""
    # times 0 and 2 and region 1 carry no population and no cases, as in
    # test_scan_exact_ties_keep_documented_order; regions 4-11 add
    # cylinders above parity and below it
    coords = np.array([[0.0, 0.0], [0.5, 0.0], [10.0, 0.0], [11.0, 0.0]]
                      + [[20.0 + i, 5.0] for i in range(8)])
    population = np.zeros((12, 3))
    population[:, 1] = [2.5, 0.0, 7.75, 9.75] + [6.0] * 8
    cases = np.zeros((12, 3))
    cases[:, 1] = [8.0, 0.0, 6.0, 6.0, 6.0, 6.0, 7.0, 4.0, 6.0, 8.0, 5.0, 6.0]
    return cases, population, enumerate_cylinders(times=3, coords=coords)


@pytest.mark.parametrize("layout", ["nearest", "reversed"])
@pytest.mark.parametrize("top", [5, 12, 13])
def test_exact_ties_straddling_the_top_cut_keep_their_order(top, layout, passes):
    # the reversed family lists its disks and windows against tie order, so
    # that the kept cylinders' indices do not give their places in it
    cases, population, fam = tied_block()
    if layout == "reversed":
        fam = CylinderFamily(
            fam.orders, fam.centers[::-1], fam.sizes[::-1], fam.t0[::-1], fam.t1[::-1]
        )
    full = monte_carlo_p(scan(cases, population, fam), 19, SEED)
    scores = [c.score for c in full.result(top=13).cylinders]
    assert scores[:12] == [scores[0]] * 12 and scores[12] < scores[0]
    passes.clear()
    flow = flow_document(cases, population, fam, True, 0.05, top, 19)
    assert flow == reference_document(full, 0.05, top)
    assert None not in sizes(passes)


def test_a_score_equal_to_the_floor_is_kept(monkeypatch, passes):
    # the floor is set to the best observed score below every replica
    # maximum, at rank k, with a lower score at rank k + 1: the bounds must
    # keep that cylinder, so the first pass has k rows that reach the floor
    # and no second pass runs
    cases, population, fam, _ = synth("null")
    full = monte_carlo_p(scan(cases, population, fam), REPLICATIONS, SEED)
    scores = np.sort(full.scores)[::-1]  # in rank order
    below = (scores[:-1] < full.maxima[0]) & (scores[1:] < scores[:-1])
    k = np.flatnonzero(below)[0] + 1
    tau = float(scores[k - 1])
    assert tau > 0
    replicas = stscan._replicas
    monkeypatch.setattr(stscan, "_replicas", lambda *args: (replicas(*args)[0], tau, None))
    passes.clear()
    assert flow_document(cases, population, fam, True, 0.05, k) == reference_document(full, 0.05, k)
    assert len(passes) == 1 and k <= passes[0].size < len(fam)


@pytest.mark.parametrize("elevated_only", [True, False])
def test_a_floor_at_or_below_0_scores_every_cylinder(elevated_only, passes):
    # every case and all the population in one cell, at C_tot = P_tot: a
    # cylinder holds that cell, with every case and all the baseline, or
    # neither, and scores 0 either way, so every replica maximum is 0
    _, _, fam, _ = synth("null")
    cases = np.zeros((25, 8))
    cases[12, 3] = 40.0
    for top in (1, 100):
        full = full_document(cases, cases, fam, elevated_only, 0.05, top)
        passes.clear()
        assert flow_document(cases, cases, fam, elevated_only, 0.05, top) == full
        assert passes == [None]


def test_the_flow_raises_the_errors_of_the_full_path(monkeypatch):
    # a zero baseline under a positive count, and a cylinder that covers the
    # whole baseline but not every case (region 0's singleton disk alone),
    # raised as scan raises them, before any replica
    def no_replicas(*args):
        raise AssertionError("a replica ran")

    monkeypatch.setattr(stscan, "_replicas", no_replicas)
    one = enumerate_cylinders(times=2, coords=np.array([[0.0, 0.0]]))
    zero, single = np.array([0]), np.array([1])
    whole = CylinderFamily(np.array([[0]]), zero, single, zero, zero)
    bad = [
        (np.ones((1, 2)), np.array([[0.0, 2.0]]), one, True),
        (np.ones((1, 2)), np.array([[0.0, 2.0]]), one, False),
        (np.array([[1.0], [1.0]]), np.array([[2.0], [0.0]]), whole, False),
        (np.ones((1, 2)), np.ones((2, 2)), one, True),
        (np.ones((1, 2)) * 0.5, np.ones((1, 2)), one, True),
    ]
    for cases, population, fam, elevated_only in bad:
        with pytest.raises(InputError) as full:
            monte_carlo_p(scan(cases, population, fam, elevated_only), 9, SEED)
        with pytest.raises(InputError) as flow:
            monte_carlo_scan(cases, population, fam, 9, SEED, elevated_only)
        assert (flow.value.module, str(flow.value)) == (full.value.module, str(full.value))
    # and the options: replications, seed, alpha and top; a replication
    # count or a seed that is a bool or a float once raised numpy's TypeError
    m = np.ones((1, 2))
    for options in ((0, 1, True, 0.05, 1), (9, -1, True, 0.05, 1), (9, 1, True, 0.0, 1),
                    (9, 1, True, 0.05, -1), (True, 1), (9.5, 1), (9, 1.5), (9, True)):
        with pytest.raises(InputError):
            monte_carlo_scan(m, m, one, *options)


@pytest.mark.parametrize("labels", ["regions", "times"])
@pytest.mark.parametrize("extra", [-1, 1], ids=["too-short", "too-long"])
@pytest.mark.parametrize("entry", ["scan", "monte_carlo_scan"])
def test_labels_of_the_wrong_length_are_refused(entry, extra, labels):
    # a list one short once failed inside scan_to_dict, and one too long was
    # written as given; both are refused with the other argument checks
    cases, population, fam, _ = synth("null")
    size = cases.shape[labels == "times"] + extra
    given = {labels: [f"x{i}" for i in range(size)]}
    with pytest.raises(InputError) as err:
        if entry == "scan":
            scan(cases, population, fam, **given)
        else:
            monte_carlo_scan(cases, population, fam, 9, SEED, **given)
    assert err.value.module == "stscan"
    assert str(err.value) == f"{labels} must be {size - extra} labels, got {size}"


def write_grid(path, population, cases):
    """Regions A and B over t0 and t1, with centroids and a schema."""
    for name, counts in (("population", population), ("cases", cases)):
        cells = zip(itertools.product("AB", ("t0", "t1")), counts)
        lines = ["region,time,count", *(f"{r},{t},{c}" for (r, t), c in cells)]
        (path / f"{name}.csv").write_text("\n".join(lines) + "\n")
    (path / "centroids.csv").write_text("region,x,y\nA,0,0\nB,1,0\n")
    modes = [
        {"name": kind, "kind": kind, "columns": [column]}
        for kind, column in (("space", "region"), ("time", "time"))
    ]
    (path / "schema.json").write_text(json.dumps({"modes": modes, "count_column": "count"}))


@pytest.mark.parametrize(
    "population, cases, message",
    [
        (["10", "10", "0", "10"], ["1", "2", "3", "1"],
         "zero baseline with positive count gives an infinite rate"),
        # B's baseline is far below one ulp of A's, so A's singleton over both
        # steps holds the whole baseline and misses B's case
        (["10", "10", "1e-300", "0"], ["1", "1", "1", "0"],
         "cylinder covers the whole baseline but not all cases; the score is unbounded"),
    ],
    ids=["zero-baseline", "unbounded"],
)
def test_a_scan_command_that_cannot_score_exits_2(tmp_path, population, cases, message):
    write_grid(tmp_path, population, cases)
    args = [
        "scan", "--cases", str(tmp_path / "cases.csv"),
        "--population", str(tmp_path / "population.csv"),
        "--schema", str(tmp_path / "schema.json"),
        "--centroids", str(tmp_path / "centroids.csv"),
        "--elevated-only", "off", "--replications", "9", "--out", str(tmp_path / "s.json"),
    ]
    res = subprocess.run([sys.executable, "-m", "eigenspot", *args], capture_output=True, text=True)
    assert res.returncode == 2 and res.stdout == ""
    (line,) = res.stderr.splitlines()
    error = {"module": "stscan", "type": "InputError", "message": message}
    assert json.loads(line)["error"] == error
    assert not (tmp_path / "s.json").exists()


def test_the_flow_keeps_about_12_bytes_per_cylinder(monkeypatch):
    # while the replicas run, and into the observed pass, the flow holds one
    # float64 baseline and one int32 threshold per cylinder (two with
    # elevated-only scoring off), 12.4-12.6 and 16.4-16.6 bytes here; the
    # full path held the counts, baselines, scores and ranking too. The
    # baselines are summed once from integer population prefixes, and every
    # float pass over the family goes in slices, so its peak is a block's
    # disk sums on top of that: with the default budget, which holds this
    # family in one block, 23.7 and 27.1 bytes, and with a 4096-value budget
    # 14.3 and 18.6 bytes (numpy 2.4), where summing every baseline in cell
    # order and the bounds of a whole block peaked at 50.2-50.7 and 18.5
    # bytes. The bounds are those set over float prefix-sum baselines, whose
    # peaks were 25.8, 27.3, 15.3 and 19.0 bytes
    import tracemalloc

    from test_stscan import grid_instance

    coords, cases, pop = grid_instance(41, n=40, times=12)
    fam = enumerate_cylinders(times=12, coords=coords)
    assert len(fam) == 124_800
    monte_carlo_scan(cases, pop, fam, 1, SEED)  # first-call set-up, outside the trace
    held = []
    scored = stscan._scored

    def record(*args, **run):
        held.append(tracemalloc.get_traced_memory()[0])
        return scored(*args, **run)

    monkeypatch.setattr(stscan, "_scored", record)
    peak_bounds = {(1 << 20, True): 28.5, (1 << 20, False): 30, (4096, True): 17, (4096, False): 20.5}
    for (block, elevated_only), peak_bound in peak_bounds.items():
        monkeypatch.setattr(stscan, "_BLOCK", block)
        held_bound = 14 if elevated_only else 18.5
        held.clear()
        tracemalloc.start()
        try:
            monte_carlo_scan(cases, pop, fam, 9, SEED, elevated_only)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held and max(held) < held_bound * len(fam)
        assert peak < peak_bound * len(fam)


# ---------------------------------------------------------------------------
# ties and near-ties: twin disks over a fractional population, and cylinders
# with no baseline or all of it


def twins(two_hot_pairs=False):
    """Regions in pairs 0.01 apart, so that each pair's two-region disks are one region set.

    The two disks add their cells in different member orders, so their
    fractional baselines (a population near 1000.5) may differ in the last
    bit, and their scores tie or nearly tie. With ``two_hot_pairs`` a
    second pair is hot, and disks are capped at a fifth of the baseline.
    """
    rng = np.random.default_rng(17)
    centers = rng.random((8, 2)) * 10
    coords = np.repeat(centers, 2, axis=0) + np.tile([[0.0, 0.0], [0.01, 0.0]], (8, 1))
    population = 1000.5 + rng.integers(0, 3, size=(16, 6)) + rng.random((16, 6)) / 7
    cases = rng.poisson(population / 100).astype(float)
    cases[4:6, 2:4] += 6  # a hot pair
    if two_hot_pairs:
        cases[12:14, 0:2] += 6
    cap = {"max_fraction": 0.2, "region_baseline": population.sum(axis=1)} if two_hot_pairs else {}
    return cases, population, enumerate_cylinders(times=6, coords=coords, **cap)


def same_region_sets(fam):
    """Pairs of disks with one region set around different centers."""
    sets = {}
    for d, (c, k) in enumerate(zip(fam.centers.tolist(), fam.sizes.tolist())):
        sets.setdefault(frozenset(fam.orders[c, :k].tolist()), []).append(d)
    return [d for d in sets.values() if len(d) > 1]


@pytest.mark.parametrize("bufsize", [None, 16])
@pytest.mark.parametrize("elevated_only", [True, False])
def test_twin_disks_and_a_fractional_population_keep_the_documents(
    elevated_only, bufsize, passes, monkeypatch
):
    # every top from 0 to past the family cuts somewhere among twins, and
    # the twins tie at the top, in the significant set, among the clusters
    # and at replica maxima; the flow's maxima must be the reference
    # chain's, bit for bit, and its documents the reference chain's bytes
    cases, population, fam = twins()
    assert len(same_region_sets(fam)) >= 8
    maxima = []
    replicas = stscan._replicas
    monkeypatch.setattr(stscan, "_replicas", lambda *args: maxima.append(replicas(*args)) or maxima[-1])
    old = np.setbufsize(bufsize) if bufsize else None
    try:
        full = monte_carlo_p(scan(cases, population, fam, elevated_only), REPLICATIONS, SEED)
        rows = full.result(top=None).cylinders
        assert any(a.score == b.score and a.members != b.members for a, b in zip(rows, rows[1:]))
        for top in (*range(0, 41), 100, len(fam) + 1):
            passes.clear()
            flow = flow_document(cases, population, fam, elevated_only, 0.05, top)
            assert flow == reference_document(full, 0.05, top), top
            assert maxima[-1][0].tobytes() == full.maxima.tobytes()
    finally:
        if old is not None:
            np.setbufsize(old)


@pytest.mark.parametrize("elevated_only", [True, False])
def test_several_significant_twin_disks_keep_the_clusters(elevated_only):
    # two hot pairs and capped disks: at alpha 0.5 with elevated-only
    # scoring, 18 cylinders are significant, 16 of them twins, and of the
    # three clusters two are disks whose twins are significant too, one
    # tied with its twin to the bit and one apart from it in the last bits
    cases, population, fam = twins(two_hot_pairs=True)
    full = monte_carlo_p(scan(cases, population, fam, elevated_only), REPLICATIONS, SEED)
    if elevated_only:
        res = full.result(0.5, None)
        centers = {}  # per significant region set, the centers of its disks
        for c in res.cylinders[: res.significant_total]:
            centers.setdefault(frozenset(c.members), set()).add(c.center)
        assert res.significant_total == 18 and len(res.clusters) == 3
        assert sum(len(centers[frozenset(c.members)]) == 2 for c in res.clusters) == 2
    for alpha, top in itertools.product((0.05, 0.5), (0, 1, 10)):
        flow = flow_document(cases, population, fam, elevated_only, alpha, top)
        assert flow == reference_document(full, alpha, top), (alpha, top)


def test_significance_at_and_beside_a_replica_maximum(monkeypatch):
    # replica maxima equal to observed scores, and one ulp either side of
    # them, so that the significance threshold falls on a score, between
    # two twins, and beside them
    cases, population, fam = twins()
    full = scan(cases, population, fam)
    scores = np.unique(full.scores)[::-1]
    assert scores[0] > 5
    picks = scores[[0, 1, 2, 5, 9]]
    maxima = np.sort(np.concatenate([
        picks, np.nextafter(picks, np.inf), np.nextafter(picks, -np.inf), np.full(4, 50.0),
    ]))
    tau = 0.75 * maxima[0]
    monkeypatch.setattr(stscan, "_replicas", lambda *args: (maxima.copy(), tau, None))
    priced = monte_carlo_p(full, maxima.size, SEED)
    for alpha in np.unique((np.arange(1, maxima.size + 1)) / (maxima.size + 1)):
        alpha = float(alpha)
        if alpha >= 1:
            continue
        for top in (0, 3, 20):
            flow = flow_document(cases, population, fam, True, alpha, top, maxima.size)
            assert flow == reference_document(priced, alpha, top), (alpha, top)


def zero_and_whole():
    """No population at step 1, and region 0's singleton over every step holding all of it."""
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    population = np.array([[4.0, 0.0, 4.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    cases = np.array([[5.0, 0.0, 3.0], [0.0] * 3, [0.0] * 3, [0.0] * 3])
    return cases, population, enumerate_cylinders(times=3, coords=coords)


@pytest.mark.parametrize("elevated_only", [True, False])
def test_zero_baselines_and_full_coverage_keep_the_documents(elevated_only):
    # every cylinder without region 0, or over step 1 alone, has no
    # baseline, and each one with region 0 over all three steps has all of
    # it; the flow scores them before any replica, and they are ranked as
    # scan ranks them
    cases, population, fam = zero_and_whole()
    res = scan(cases, population, fam)
    edges = (res.baselines == 0) | (res.baselines >= res.b_total)
    assert np.count_nonzero(edges) > len(fam) // 2
    for alpha, top in itertools.product((0.05, 0.5, 1.0), (0, 1, 5, len(fam) + 1)):
        assert (flow_document(cases, population, fam, elevated_only, alpha, top, 19)
                == full_document(cases, population, fam, elevated_only, alpha, top, 19))
