"""The scan's one flow, :func:`stscan.monte_carlo_scan`, against the full path.

The flow runs the replicas first and then scores and ranks only the
observed counts that the replicas' last floor keeps (or, in a second pass,
the counts that can reach a lower cut). Its document must be the bytes that
``scan_to_dict(monte_carlo_p(scan(...)))`` writes at the same ``alpha`` and
``top``, whichever pass or fallback it took.
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
from eigenspot.stscan import CylinderFamily, expected_baseline, monte_carlo_scan

REPLICATIONS = 39
SEED = 3


def document(result, alpha, top):
    return dumps_stable(scan_to_dict(result, alpha=alpha, top=top))


def full_document(cases, baseline, fam, elevated_only, alpha, top, replications=REPLICATIONS):
    res = scan(cases, baseline, fam, elevated_only)
    return document(monte_carlo_p(res, replications, SEED), alpha, top)


def flow_document(cases, baseline, fam, elevated_only, alpha, top, replications=REPLICATIONS):
    res = monte_carlo_scan(cases, baseline, fam, replications, SEED, elevated_only, alpha, top)
    return document(res, alpha, top)


@pytest.fixture
def passes(monkeypatch):
    """What each observed pass kept: the cylinder indices, or None for every cylinder."""
    kept = []
    observed = stscan._observed

    def record(*args):
        out = observed(*args)
        kept.append(out[0])
        return out

    monkeypatch.setattr(stscan, "_observed", record)
    return kept


def sizes(passes):
    return [None if kept is None else kept.size for kept in passes]


def synth(kind):
    """(cases, baseline, centroid family, ring family) of a 25-region, 8-step grid."""
    inject = {"injected": (("r06", "r07", "r11", "r12"), (2, 4), 3.0), "null": ((), (0, 0), 1.0)}
    regions, window, risk = inject[kind]
    data = generate(SynthConfig(
        regions=25, times=8, injected_regions=regions, window=window, relative_risk=risk, seed=1,
    ))
    cases, population = data.cases.values, data.population.values
    baseline = expected_baseline(cases, population)
    cap = {"region_baseline": baseline.sum(axis=1)}
    return (
        cases, baseline,
        enumerate_cylinders(times=8, coords=data.coords, **cap),
        enumerate_cylinders(times=8, neighbors=data.neighbors, **cap),
    )


@pytest.mark.parametrize("elevated_only", [True, False])
@pytest.mark.parametrize("geometry", ["centroids", "adjacency"])
@pytest.mark.parametrize("kind", ["null", "injected"])
def test_the_flow_writes_the_full_paths_document(kind, geometry, elevated_only, passes):
    # --top 0, 1, 100 and past the family, at alpha 0.05 and 1 (every
    # cylinder significant, so the flow scores all of them); on these grids
    # the flow takes one pass, two passes and the fallback to every cylinder
    cases, baseline, centroids, rings = synth(kind)
    fam = centroids if geometry == "centroids" else rings
    full = monte_carlo_p(scan(cases, baseline, fam, elevated_only), REPLICATIONS, SEED)
    for alpha, top in itertools.product((0.05, 1.0), (0, 1, 100, len(fam) + 1)):
        passes.clear()  # of the flow alone, not of scan
        flow = monte_carlo_scan(cases, baseline, fam, REPLICATIONS, SEED, elevated_only, alpha, top)
        assert document(flow, alpha, top) == document(full, alpha, top), (alpha, top, sizes(passes))
        if alpha == 1.0 or top > len(fam):
            assert passes[-1] is None  # every cylinder
        else:
            assert None not in sizes(passes) and 0 < max(sizes(passes)) < len(fam)


def test_a_second_pass_runs_when_fewer_than_top_clear_the_floor(monkeypatch, passes):
    # on the null grid 134 observed scores reach the replicas' last floor,
    # and 838 counts are kept, so 200 rows need a second pass, whose cut is
    # the 200th best score of those 838
    cases, baseline, fam, _ = synth("null")
    full = monte_carlo_p(scan(cases, baseline, fam), REPLICATIONS, SEED)
    floors = []
    bounds = stscan._bounds

    def record(baselines, blocks, tau, *totals):
        floors.append(tau)
        return bounds(baselines, blocks, tau, *totals)

    monkeypatch.setattr(stscan, "_bounds", record)
    passes.clear()
    assert flow_document(cases, baseline, fam, True, 0.05, 200) == document(full, 0.05, 200)
    assert sizes(passes)[0] == 838 and 838 < sizes(passes)[1] < len(fam)
    scores = full.cylinders.scores
    assert np.count_nonzero(scores >= floors[-2]) == 134
    assert floors[-1] == np.sort(scores[passes[0]])[-200] < floors[-2]


def tied_block():
    """Twelve cylinders tie at the top, (c, b) = (8, 2.5), of 68 cases and 68 baseline."""
    # times 0 and 2 and region 1 carry no baseline and no cases, as in
    # test_scan_exact_ties_keep_documented_order; regions 4-11 add
    # cylinders above parity and below it
    coords = np.array([[0.0, 0.0], [0.5, 0.0], [10.0, 0.0], [11.0, 0.0]]
                      + [[20.0 + i, 5.0] for i in range(8)])
    baseline = np.zeros((12, 3))
    baseline[:, 1] = [2.5, 0.0, 7.75, 9.75] + [6.0] * 8
    cases = np.zeros((12, 3))
    cases[:, 1] = [8.0, 0.0, 6.0, 6.0, 6.0, 6.0, 7.0, 4.0, 6.0, 8.0, 5.0, 6.0]
    return cases, baseline, enumerate_cylinders(times=3, coords=coords)


@pytest.mark.parametrize("layout", ["nearest", "reversed"])
@pytest.mark.parametrize("top", [5, 12, 13])
def test_exact_ties_straddling_the_top_cut_keep_their_order(top, layout, passes):
    # the reversed family lists its disks and windows against tie order, so
    # that the kept cylinders' indices do not give their places in it
    cases, baseline, fam = tied_block()
    if layout == "reversed":
        fam = CylinderFamily(
            fam.orders, fam.centers[::-1], fam.sizes[::-1], fam.t0[::-1], fam.t1[::-1]
        )
    full = monte_carlo_p(scan(cases, baseline, fam), 19, SEED)
    scores = [c.score for c in full.cylinders[:13]]
    assert scores[:12] == [scores[0]] * 12 and scores[12] < scores[0]
    passes.clear()
    assert flow_document(cases, baseline, fam, True, 0.05, top, 19) == document(full, 0.05, top)
    assert None not in sizes(passes)


def test_a_score_equal_to_the_floor_is_kept(monkeypatch, passes):
    # the floor is set to the best observed score below every replica
    # maximum, at rank k, with a lower score at rank k + 1: the bounds must
    # keep that cylinder, so the first pass has k rows that reach the floor
    # and no second pass runs
    cases, baseline, fam, _ = synth("null")
    full = monte_carlo_p(scan(cases, baseline, fam), REPLICATIONS, SEED)
    scores = full.cylinders.scores[full.cylinders.order]
    below = (scores[:-1] < full.cylinders.maxima[0]) & (scores[1:] < scores[:-1])
    k = np.flatnonzero(below)[0] + 1
    tau = float(scores[k - 1])
    assert tau > 0
    replicas = stscan._replicas
    monkeypatch.setattr(stscan, "_replicas", lambda *args: (replicas(*args)[0], tau, None))
    passes.clear()
    assert flow_document(cases, baseline, fam, True, 0.05, k) == document(full, 0.05, k)
    assert len(passes) == 1 and k <= passes[0].size < len(fam)


@pytest.mark.parametrize("elevated_only", [True, False])
def test_a_floor_at_or_below_0_scores_every_cylinder(elevated_only, passes):
    # with the raw population as the baseline (a total far above the case
    # total) every replica maximum is 0 or below
    cases, baseline, fam, _ = synth("injected")
    population = baseline * 50.0
    for top in (1, 100):
        full = full_document(cases, population, fam, elevated_only, 0.05, top)
        passes.clear()
        assert flow_document(cases, population, fam, elevated_only, 0.05, top) == full
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
    for cases, baseline, fam, elevated_only in bad:
        with pytest.raises(InputError) as full:
            monte_carlo_p(scan(cases, baseline, fam, elevated_only), 9, SEED)
        with pytest.raises(InputError) as flow:
            monte_carlo_scan(cases, baseline, fam, 9, SEED, elevated_only)
        assert (flow.value.module, str(flow.value)) == (full.value.module, str(full.value))
    # and the options: replications, seed, alpha and top
    m = np.ones((1, 2))
    for options in ((0, 1, True, 0.05, 1), (9, -1, True, 0.05, 1), (9, 1, True, 0.0, 1),
                    (9, 1, True, 0.05, -1)):
        with pytest.raises(InputError):
            monte_carlo_scan(m, m, one, *options)


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
    # elevated-only scoring off), 12.4-13.1 and 16.4-16.9 bytes here; the
    # full path held the counts, baselines, scores and ranking too. Its peak
    # is the baselines' cell sums with a 4096-value budget, 18.5 bytes,
    # and with the default one, which holds this family in one block, the
    # bounds of that block, 50.2-50.7 bytes; the full path peaked at 50.1
    # and 74.3 (numpy 2.4). The bounds leave about 10% over those
    import tracemalloc

    from test_stscan import grid_instance

    coords, cases, pop = grid_instance(41, n=40, times=12)
    baseline = expected_baseline(cases, pop)
    fam = enumerate_cylinders(times=12, coords=coords)
    assert len(fam) == 124_800
    monte_carlo_scan(cases, baseline, fam, 1, SEED)  # first-call set-up, outside the trace
    held = []
    observed = stscan._observed

    def record(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return observed(*args)

    monkeypatch.setattr(stscan, "_observed", record)
    for block, peak_bound in ((1 << 20, 56), (4096, 20.5)):
        monkeypatch.setattr(stscan, "_BLOCK", block)
        for elevated_only, held_bound in ((True, 14), (False, 18.5)):
            held.clear()
            tracemalloc.start()
            try:
                monte_carlo_scan(cases, baseline, fam, 9, SEED, elevated_only)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert held and max(held) < held_bound * len(fam)
            assert peak < peak_bound * len(fam)
