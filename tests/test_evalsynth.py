import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenspot import (
    DiffVector,
    HotspotReport,
    InputError,
    SynthConfig,
    compare,
    generate,
    precision_recall_f1,
    run_sst_hotspot,
    write_comparison,
)
from eigenspot.eigenmatch import ClusterSet, SpatialPartition, TemporalResult
from eigenspot.evalsynth import (
    comparison_to_dict,
    pruning_fraction,
    scan_detected,
    sst_detected,
)
from eigenspot import enumerate_cylinders, monte_carlo_p, scan
from eigenspot.dataio import dumps_stable
from eigenspot.stscan import expected_baseline


# ---------------------------------------------------------------------------
# metrics


def test_f1_published_first_priority_column():
    # precision 100, recall 40: 4 detected, all right, out of 10 to find
    m = precision_recall_f1({"a", "b", "c", "d"}, set("abcdefghij"))
    assert m.precision == 100.0
    assert m.recall == 40.0
    assert m.f1 == pytest.approx(57.14, abs=0.01)


def test_f1_second_priority_column():
    # precision 75, recall 60: 6 of 8 detected are right, 6 of 10 found
    detected = {"a", "b", "c", "d", "e", "f", "x", "y"}
    reference = set("abcdefghij")
    m = precision_recall_f1(detected, reference)
    assert m.precision == 75.0
    assert m.recall == 60.0
    assert m.f1 == pytest.approx(66.67, abs=0.01)


def test_f1_perfect_and_empty():
    m = precision_recall_f1({"a", "b"}, {"a", "b"})
    assert (m.precision, m.recall, m.f1) == (100.0, 100.0, 100.0)
    z = precision_recall_f1(set(), {"a"})
    assert (z.precision, z.recall, z.f1) == (0.0, 0.0, 0.0)
    z2 = precision_recall_f1({"a"}, set())
    assert z2.recall == 0.0 and z2.f1 == 0.0


@settings(max_examples=60, deadline=None)
@given(
    detected=st.frozensets(st.integers(0, 15), max_size=12),
    reference=st.frozensets(st.integers(0, 15), max_size=12),
)
def test_f1_harmonic_identity(detected, reference):
    m = precision_recall_f1({str(x) for x in detected}, {str(x) for x in reference})
    p, r = m.precision, m.recall
    expected = 2 * p * r / (p + r) if p + r > 0 else 0.0
    assert m.f1 == pytest.approx(expected, abs=1e-9)
    assert m.intersection <= m.detected and m.intersection <= m.reference


# ---------------------------------------------------------------------------
# generator


def test_generate_deterministic():
    cfg = SynthConfig(regions=9, times=5, injected_regions=("r04",), window=(1, 2), relative_risk=2.0, seed=5)
    a = generate(cfg)
    b = generate(cfg)
    assert np.array_equal(a.cases.values, b.cases.values)
    assert np.array_equal(a.population.values, b.population.values)
    assert np.array_equal(a.neighbors.adjacency, b.neighbors.adjacency)


def test_generate_unpacks_like_a_tuple():
    population, cases, truth, neighbors = generate(SynthConfig(regions=4, times=3))
    assert population.dims == (4, 3)
    assert truth.relative_risk == 1.0
    assert neighbors.n == 4


def test_generate_rejects_bad_configs():
    with pytest.raises(InputError):
        generate(SynthConfig(regions=0, times=3))
    with pytest.raises(InputError):
        generate(SynthConfig(regions=3, times=0))
    with pytest.raises(InputError):
        generate(SynthConfig(regions=4, times=3, relative_risk=0.5))
    with pytest.raises(InputError):
        generate(SynthConfig(regions=4, times=3, injected_regions=("r09",), window=(0, 1), relative_risk=2.0))
    with pytest.raises(InputError):
        generate(SynthConfig(regions=4, times=3, injected_regions=("r00",), window=(0, 5), relative_risk=2.0))
    # truth.json names the window with nothing injected too
    for window in ((0, 9), (2, 1)):
        with pytest.raises(InputError, match="window"):
            generate(SynthConfig(regions=4, times=3, window=window))
    with pytest.raises(InputError, match="seed"):
        generate(SynthConfig(regions=4, times=3, seed=-1))


INJECTED = dict(regions=4, times=3, injected_regions=("r00",), window=(0, 1))


@pytest.mark.parametrize("params", [
    dict(relative_risk=float("nan")),
    dict(relative_risk=float("inf")),
    dict(baseline=float("nan")),
    dict(baseline=float("inf")),
    dict(case_rate=float("nan")),
    dict(growth=float("nan")),
    dict(growth=float("inf")),
    # finite, but past the largest mean numpy draws from, or overflowing to it
    dict(case_rate=1e300),
    dict(baseline=1e308, case_rate=10.0),
    dict(growth=1e308),
], ids=repr)
def test_generate_rejects_non_finite_and_undrawable_parameters(params):
    with pytest.raises(InputError) as info:
        generate(SynthConfig(**{**INJECTED, **params}))
    assert info.value.module == "evalsynth"


def test_generate_rejects_disconnected_injection():
    # 3x3 grid: r00 and r08 are opposite corners
    with pytest.raises(InputError):
        generate(
            SynthConfig(
                regions=9,
                times=3,
                injected_regions=("r00", "r08"),
                window=(0, 1),
                relative_risk=2.0,
            )
        )


def test_generate_injected_block_carries_excess_in_every_seed():
    # direct count check: with triple risk over a 3-step window, block
    # cases exceed twice their null expectation
    for seed in range(10):
        cfg = SynthConfig(
            regions=25,
            times=12,
            baseline=1000.0,
            case_rate=0.02,
            injected_regions=("r12", "r13"),
            window=(5, 7),
            relative_risk=3.0,
            seed=seed,
        )
        d = generate(cfg)
        idx = [12, 13]
        block = d.cases.values[np.ix_(idx, range(5, 8))]
        null_expect = 0.02 * d.population.values[np.ix_(idx, range(5, 8))].sum()
        assert block.sum() > 2 * null_expect


def test_generate_null_detections_stay_small_and_unbiased():
    # measured behavior under pure noise (thresholds fixed from a 40-seed
    # calibration run): centers appear, but few, and no region repeats in
    # more than half the runs
    freq = collections.Counter()
    for seed in range(20):
        cfg = SynthConfig(regions=25, times=12, baseline=1000.0, case_rate=0.02, seed=seed)
        d = generate(cfg)
        rep = run_sst_hotspot(d.population, d.cases, d.neighbors)
        assert len(rep.spatial.sc) <= 8
        freq.update(rep.spatial.sc)
    assert max(freq.values()) <= 10  # no systematic false hotspot


def test_generate_growth_is_linear_in_time():
    cfg = SynthConfig(regions=4, times=4, baseline=100.0, growth=0.1, seed=1)
    d = generate(cfg)
    col0 = d.population.values[:, 0]
    col3 = d.population.values[:, 3]
    assert np.allclose(col0, 100.0)
    assert np.allclose(col3, 130.0)


def test_generate_random_geometric_layout():
    cfg = SynthConfig(regions=12, times=3, adjacency="random-geometric", seed=9)
    d = generate(cfg)
    assert d.coords.shape == (12, 2)
    a = d.neighbors.adjacency
    assert np.array_equal(a, a.T)
    assert not a.diagonal().any()


# ---------------------------------------------------------------------------
# comparison


def null_scan_result(regions=("r0", "r1")):
    coords = np.array([[0.0, 0.0], [1.0, 0.0]])
    m = np.full((2, 3), 5.0)
    cands = enumerate_cylinders(times=3, coords=coords)
    return scan(m, m, cands, regions=regions, times=("t0", "t1", "t2")).result(top=None)


def test_compare_truth_equals_centers(rng):
    from conftest import make_tensor, ring_adjacency
    from eigenspot import CountTensor

    pop = np.full((6, 5), 100.0)
    cases = pop * 0.02
    cases[2, :] *= 3.0
    p = make_tensor(pop, kinds=("space", "time"))
    c = CountTensor(p.modes, cases)
    report = run_sst_hotspot(p, c, ring_adjacency(6))
    truth = tuple(report.spatial.sc)
    table = compare(report, null_scan_result(), truth)
    centers_row = next(r for r in table.rows if r.level == "centers")
    assert centers_row.metrics.precision == 100.0
    assert centers_row.metrics.recall == 100.0


def synthetic_report(n_regions, n_times, centers, first_intervals, second_intervals):
    """Hand-built report for counting-oracle tests."""
    r_names = tuple(f"r{i}" for i in range(n_regions))
    t_names = tuple(f"t{i}" for i in range(n_times))
    ds = DiffVector(
        axis="space",
        categories=r_names,
        entries=np.zeros(n_regions),
        std_all=0.0,
    )
    dt = DiffVector(
        axis="time", categories=t_names, entries=np.zeros(n_times), std_all=0.0
    )
    part = SpatialPartition(
        ds=ds, sl=centers, sc=centers, st=(), s1=(), s2=(), std_st=0.0, likely_cluster=()
    )
    return HotspotReport(
        ranks=(2, 2),
        dims=(n_regions, n_times),
        likely_threshold="st",
        fits_population=(1.0, 1.0),
        fits_cases=(1.0, 1.0),
        ds=ds,
        dt=dt,
        spatial=part,
        clusters_first=ClusterSet({c: (c,) for c in centers}, kind="first"),
        clusters_second=ClusterSet({c: (c,) for c in centers}, kind="second"),
        temporal=TemporalResult(
            tc=(), t1=(), t_first=first_intervals, t_second=second_intervals
        ),
    )


def test_pruning_fraction_counting_oracle():
    # 32 regions, 19 time steps: full space is 32 * 19*20/2 = 6080
    # candidates; 2 centers x 4 distinct intervals prune it below 1%.
    report = synthetic_report(
        32,
        19,
        centers=("r0", "r5"),
        first_intervals=(("t3", "t7"),),
        second_intervals=(("t1", "t3"), ("t3", "t9"), ("t2", "t7")),
    )
    frac = pruning_fraction(report)
    assert frac == pytest.approx((2 * 4) / (32 * 19 * 20 / 2), rel=1e-12)
    assert frac < 0.01


def test_pruning_fraction_empty_report():
    report = synthetic_report(5, 4, centers=(), first_intervals=(), second_intervals=())
    assert pruning_fraction(report) == 0.0


def test_sst_detected_levels():
    report = synthetic_report(
        5, 4, centers=("r1",), first_intervals=(), second_intervals=()
    )
    assert sst_detected(report, "centers") == {"r1"}
    assert sst_detected(report, "first") == {"r1"}
    assert sst_detected(report, "likely") == frozenset()
    with pytest.raises(InputError):
        sst_detected(report, "third")


def test_scan_detected_falls_back_to_top_cylinder():
    res = null_scan_result()
    assert scan_detected(res) == {"r0"}  # no p-values anywhere


def test_scan_detected_uses_significant_clusters(rng):
    coords = np.array([[float(i), 0.0] for i in range(5)])
    pop = np.full((5, 4), 100.0)
    cases = rng.poisson(pop * 0.2).astype(float)
    cases[3, :] += 120.0
    baseline = expected_baseline(cases, pop)
    cands = enumerate_cylinders(times=4, coords=coords)
    res = scan(
        cases,
        baseline,
        cands,
        regions=tuple(f"r{i}" for i in range(5)),
        times=tuple(f"t{i}" for i in range(4)),
    )
    res = monte_carlo_p(res, replications=99, seed=4).result(alpha=0.05, top=None)
    detected = scan_detected(res, alpha=0.05)
    assert "r3" in detected


def test_comparison_document_and_csv(tmp_path):
    report = synthetic_report(
        5, 4, centers=("r1",), first_intervals=(("t0", "t2"),), second_intervals=()
    )
    table = compare(report, null_scan_result(), ("r1", "r2"))
    doc = comparison_to_dict(table)
    centers = next(r for r in doc["rows"] if r["level"] == "centers")
    assert centers["precision"] == 100.0
    assert centers["recall"] == 50.0
    assert centers["f1"] == pytest.approx(66.67, abs=0.01)

    csv_path = tmp_path / "cmp.csv"
    write_comparison(table, csv_destination=csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "method,level,precision,recall,f1"
    assert any(line.startswith("st-scan,") for line in lines)
    assert lines[-1].startswith("pruning_fraction,")
    # byte stability
    again = compare(report, null_scan_result(), ("r1", "r2"))
    assert dumps_stable(comparison_to_dict(table)) == dumps_stable(comparison_to_dict(again))
