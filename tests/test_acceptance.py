"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines and timings. Every tolerance is pinned here; nothing is
calibrated at run time.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from eigenspot import (
    CountTensor,
    ModeLabel,
    NeighborMatrix,
    SynthConfig,
    enumerate_cylinders,
    generate,
    gram_eigen,
    monte_carlo_p,
    precision_recall_f1,
    run_sst_hotspot,
    scan,
)


def _verdict(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------


def test_f1_arithmetic_reproduction():
    first = precision_recall_f1({"a", "b", "c", "d"}, set("abcdefghij"))
    second = precision_recall_f1(
        {"a", "b", "c", "d", "e", "f", "x", "y"}, set("abcdefghij")
    )
    ok = (
        (first.precision, first.recall) == (100.0, 40.0)
        and abs(first.f1 - 57.14) <= 0.01
        and (second.precision, second.recall) == (75.0, 60.0)
        and abs(second.f1 - 66.67) <= 0.01
    )
    _verdict(
        "f1-arithmetic",
        ok,
        f"(100,40)->F1={first.f1:.4f}; (75,60)->F1={second.f1:.4f}",
    )


def test_null_identity_property():
    start = time.time()
    rng = np.random.default_rng(20240)
    worst = 0.0
    for trial in range(100):
        dims = (
            int(rng.integers(3, 8)),
            int(rng.integers(3, 7)),
            int(rng.integers(2, 5)),
        )
        vals = rng.uniform(0.5, 2.0, size=dims)
        modes = (
            ModeLabel("space", tuple(f"s{i}" for i in range(dims[0]))),
            ModeLabel("time", tuple(f"t{i}" for i in range(dims[1]))),
            ModeLabel("attribute", tuple(f"a{i}" for i in range(dims[2]))),
        )
        population = CountTensor(modes, vals)
        k = (0.5, 1.0, 3.0)[trial % 3]
        cases = CountTensor(modes, vals * k)
        adj = np.zeros((dims[0], dims[0]), dtype=bool)
        for i in range(dims[0] - 1):
            adj[i, i + 1] = adj[i + 1, i] = True
        report = run_sst_hotspot(population, cases, NeighborMatrix(adj))
        worst = max(
            worst,
            float(np.abs(report.ds.entries).max()),
            float(np.abs(report.dt.entries).max()),
        )
        assert report.spatial.sc == ()
        assert report.spatial.s1 == ()
        assert report.spatial.s2 == ()
        assert report.temporal.tc == ()
    elapsed = time.time() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _verdict(
        "null-identity",
        ok,
        f"max |entry| = {worst:.2e} over 100 tensors in {elapsed:.2f}s",
    )


def test_eigensolver_correctness():
    start = time.time()
    worst_res = worst_orth = worst_val = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        rows = int(rng.integers(3, 41))
        cols = int(rng.integers(rows, 61))
        m = rng.standard_normal((rows, cols)) / np.sqrt(cols)
        r = min(rows, 3)
        vals, vecs = gram_eigen(m, r)
        gram = np.einsum("ij,kj->ik", m, m)
        fro = float(np.linalg.norm(gram, "fro"))
        oracle = np.linalg.eigh(gram)[0][::-1][:r]
        worst_val = max(worst_val, float(np.abs(vals - oracle).max()))
        for lam, v in zip(vals, vecs):
            worst_res = max(
                worst_res, float(np.linalg.norm(gram @ v - lam * v)) / fro
            )
        gramian = vecs @ vecs.T - np.eye(r)
        worst_orth = max(worst_orth, float(np.abs(gramian).max()))
    elapsed = time.time() - start
    ok = (
        worst_res <= 1e-8
        and worst_orth <= 1e-8
        and worst_val <= 1e-8
        and elapsed < 10.0
    )
    _verdict(
        "eigensolver",
        ok,
        f"residual {worst_res:.2e}, orth {worst_orth:.2e}, "
        f"value-vs-oracle {worst_val:.2e} in {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# exhaustive scan oracle, written independently of the library


def _oracle_score(c, b, ct, bt):
    # numpy's log, one value at a time: its vectorized log may differ from
    # math.log in the last bit, and the scores are compared bit for bit
    if not c * bt > b * ct:
        return 0.0
    inside = c * float(np.log(c / b)) if c > 0 else 0.0
    rest, rest_base = ct - c, bt - b
    outside = rest * float(np.log(rest / rest_base)) if rest > 0 else 0.0
    return inside + outside


def _oracle_disks_coords(coords, max_fraction, rb):
    n = len(coords)
    cap = max_fraction * float(sum(rb))
    disks = []
    for c in range(n):
        def key(j):
            dx = coords[j][0] - coords[c][0]
            dy = coords[j][1] - coords[c][1]
            return (j != c, dx * dx + dy * dy, j)

        order = sorted(range(n), key=key)
        for k in range(1, n + 1):
            members = tuple(order[:k])
            if k > 1 and sum(rb[m] for m in members) > cap:
                break
            disks.append((c, members))
    return disks


def _oracle_disks_adjacency(adj, max_fraction, rb):
    n = adj.shape[0]
    cap = max_fraction * float(sum(rb))
    disks = []
    for c in range(n):
        seen, order, frontier = {c}, [c], [c]
        sizes = [1]
        while True:
            ring = sorted(
                {
                    int(j)
                    for i in frontier
                    for j in np.flatnonzero(adj[i])
                    if int(j) not in seen
                }
            )
            if not ring:
                break
            seen.update(ring)
            order.extend(ring)
            sizes.append(len(ring))
            frontier = ring
        acc = 0
        for s in sizes:
            acc += s
            members = tuple(order[:acc])
            if acc > 1 and sum(rb[m] for m in members) > cap:
                break
            disks.append((c, members))
    return disks


def _oracle_best(cases, population, disks, times):
    # a baseline is the cylinder's population times C_tot / P_tot, and the
    # total baseline the sum of every cell's
    ct = float(cases.sum())
    scale = ct / float(population.sum())
    bt = float((population * scale).sum())
    best_key, best = None, None
    for center, members in disks:
        rows = cases[list(members)]
        rows_p = population[list(members)]
        for t0 in range(times):
            for t1 in range(t0, times):
                c = float(rows[:, t0 : t1 + 1].sum())
                b = float(rows_p[:, t0 : t1 + 1].sum()) * scale
                s = _oracle_score(c, b, ct, bt)
                key = (-s, len(members), center, (t0, t1))
                if best_key is None or key < best_key:
                    best_key = key
                    best = (frozenset(members), (t0, t1), s)
    return best


def test_stscan_oracle_equivalence():
    start = time.time()
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(4, 13))
        times = int(rng.integers(2, 7))
        # integer-valued populations and cases keep every sum exact, so the
        # two implementations must agree bit for bit
        population = rng.integers(20, 120, size=(n, times)).astype(float)
        cases = rng.poisson(population * 0.15).astype(float)
        if cases.sum() == 0:
            cases[0, 0] = 1.0
        rb = population.sum(axis=1)
        if seed % 2 == 0:
            coords = rng.random((n, 2))
            candidates = enumerate_cylinders(
                times=times, coords=coords, region_baseline=rb
            )
            disks = _oracle_disks_coords(
                [tuple(p) for p in coords], 0.5, list(rb)
            )
        else:
            adj = np.zeros((n, n), dtype=bool)
            for i in range(n - 1):
                adj[i, i + 1] = adj[i + 1, i] = True
            extra = rng.integers(0, n, size=(n // 2, 2))
            for i, j in extra:
                if i != j:
                    adj[i, j] = adj[j, i] = True
            nb = NeighborMatrix(adj)
            candidates = enumerate_cylinders(
                times=times, neighbors=nb, region_baseline=rb
            )
            disks = _oracle_disks_adjacency(adj, 0.5, list(rb))
        result = scan(cases, population, candidates).result(top=1)
        om, ow, oscore = _oracle_best(cases, population, disks, times)
        top = result.cylinders[0]
        assert frozenset(top.members) == om, f"seed {seed}: member sets differ"
        assert top.window == ow, f"seed {seed}: windows differ"
        assert top.score == oscore, f"seed {seed}: scores differ"
    elapsed = time.time() - start
    _verdict("stscan-oracle", elapsed < 30.0, f"20 instances in {elapsed:.2f}s")


def test_monte_carlo_calibration():
    start = time.time()
    rejections = 0
    trials = 200
    for trial in range(trials):
        cfg = SynthConfig(
            regions=16,
            times=6,
            adjacency="grid",
            baseline=1000.0,
            case_rate=0.03,
            seed=50_000 + trial,
        )
        data = generate(cfg)
        cases_m, population_m = data.cases.values, data.population.values
        candidates = enumerate_cylinders(
            times=6, coords=data.coords, region_baseline=population_m.sum(axis=1)
        )
        result = scan(cases_m, population_m, candidates)
        result = monte_carlo_p(result, replications=99, seed=90_000 + trial).result(top=1)
        if result.cylinders[0].p_value <= 0.05:
            rejections += 1
    fraction = rejections / trials
    elapsed = time.time() - start
    ok = 0.02 <= fraction <= 0.09 and elapsed < 300.0
    _verdict(
        "monte-carlo-calibration",
        ok,
        f"{rejections}/{trials} null trials rejected ({fraction:.3f}) in {elapsed:.1f}s",
    )


def test_synthetic_recovery():
    start = time.time()
    sst_hits = 0
    scan_hits = 0
    block = ("r12", "r13")
    for seed in range(20):
        cfg = SynthConfig(
            regions=25,
            times=12,
            adjacency="grid",
            baseline=1000.0,
            case_rate=0.02,
            injected_regions=block,
            window=(5, 7),
            relative_risk=3.0,
            seed=seed,
        )
        data = generate(cfg)
        report = run_sst_hotspot(data.population, data.cases, data.neighbors)
        top_injected = max(block, key=report.ds.value)
        if top_injected in report.spatial.sc:
            sst_hits += 1

        cases_m, population_m = data.cases.values, data.population.values
        candidates = enumerate_cylinders(
            times=12, coords=data.coords, region_baseline=population_m.sum(axis=1)
        )
        result = scan(cases_m, population_m, candidates).result(top=1)
        regions = data.population.modes[0].categories
        top_regions = {regions[m] for m in result.cylinders[0].members}
        if top_regions & set(block):
            scan_hits += 1
    elapsed = time.time() - start
    ok = sst_hits >= 18 and scan_hits >= 19 and elapsed < 60.0
    _verdict(
        "synthetic-recovery",
        ok,
        f"detector {sst_hits}/20, scan {scan_hits}/20 in {elapsed:.1f}s",
    )


def test_new_mexico_reproduction():
    """Best-effort real-data criterion; needs the public registry extract.

    The dataset (the New Mexico brain-cancer incidence and population
    extract, 32 sub-regions, years 1973 to 1991, 1175 cases) is not
    redistributable with this repository and cannot be fetched in this
    environment. Point EIGENSPOT_NM_DIR at a directory holding
    cases.csv, population.csv, adjacency.csv, and schema.json to run it;
    otherwise the synthetic-recovery criterion above stands in, as
    documented in the README.
    """
    nm_dir = os.environ.get("EIGENSPOT_NM_DIR")
    if not nm_dir:
        print(
            "ACCEPTANCE new-mexico: SKIP (dataset unavailable; replaced by "
            "synthetic-recovery per the documented fallback)"
        )
        pytest.skip("New Mexico dataset not available; synthetic recovery stands in")
    from eigenspot import ingest_pair, load_schema, parse_adjacency

    base = Path(nm_dir)
    schema = load_schema(base / "schema.json")
    cases_t, population_t, _ = ingest_pair(
        base / "cases.csv", base / "population.csv", schema
    )
    space = cases_t.modes[cases_t.space_axis].categories
    neighbors = parse_adjacency(base / "adjacency.csv", space)
    report = run_sst_hotspot(population_t, cases_t, neighbors)
    ok = any("bernalillo" in s.lower() for s in report.spatial.sc) and set(
        report.temporal.tc
    ) >= {"85", "89"}
    _verdict("new-mexico", ok, f"sc={report.spatial.sc}, tc={report.temporal.tc}")


def test_cli_determinism_across_runs_and_threads(tmp_path):
    start = time.time()
    cli = [sys.executable, "-m", "eigenspot"]
    data = tmp_path / "data"
    synth = subprocess.run(
        cli
        + [
            "synth",
            "--regions", "16",
            "--times", "6",
            "--baseline", "800",
            "--case-rate", "0.03",
            "--risk", "2.5",
            "--inject", "r05,r06",
            "--window", "2:4",
            "--seed", "7",
            "--out-dir", str(data),
        ],
        capture_output=True,
        text=True,
    )
    assert synth.returncode == 0, synth.stderr

    outputs = {}
    for threads in ("1", "4"):
        for attempt in ("a", "b"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            rep = tmp_path / f"report_{threads}_{attempt}.json"
            det = subprocess.run(
                cli
                + [
                    "detect",
                    "--cases", str(data / "cases.csv"),
                    "--population", str(data / "population.csv"),
                    "--adjacency", str(data / "adjacency.csv"),
                    "--schema", str(data / "schema.json"),
                    "--out", str(rep),
                ],
                capture_output=True,
                text=True,
                env=env,
            )
            assert det.returncode == 0, det.stderr
            sc = tmp_path / f"scan_{threads}_{attempt}.json"
            scn = subprocess.run(
                cli
                + [
                    "scan",
                    "--cases", str(data / "cases.csv"),
                    "--population", str(data / "population.csv"),
                    "--schema", str(data / "schema.json"),
                    "--centroids", str(data / "centroids.csv"),
                    "--replications", "99",
                    "--seed", "13",
                    "--out", str(sc),
                ],
                capture_output=True,
                text=True,
                env=env,
            )
            assert scn.returncode == 0, scn.stderr
            outputs[(threads, attempt)] = (rep.read_bytes(), sc.read_bytes())

    reference = outputs[("1", "a")]
    ok = all(v == reference for v in outputs.values())
    elapsed = time.time() - start
    _verdict(
        "determinism",
        ok,
        f"4 runs x 2 artifacts byte-identical in {elapsed:.1f}s",
    )


def test_cli_detect_determinism_across_threads_with_a_fractional_population(tmp_path):
    # a population of 800.5 per cell takes the index-order Gram contraction,
    # whole-number counts the BLAS product: both must not depend on threads
    cli = [sys.executable, "-m", "eigenspot"]
    data = tmp_path / "data"
    synth = subprocess.run(
        cli + ["synth", "--regions", "16", "--times", "6", "--baseline", "800.5",
               "--case-rate", "0.03", "--risk", "2.5", "--inject", "r05,r06",
               "--window", "2:4", "--seed", "7", "--out-dir", str(data)],
        capture_output=True,
        text=True,
    )
    assert synth.returncode == 0, synth.stderr
    reports = []
    for threads in ("1", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        rep = tmp_path / f"report_{threads}.json"
        det = subprocess.run(
            cli + ["detect", "--cases", str(data / "cases.csv"),
                   "--population", str(data / "population.csv"),
                   "--adjacency", str(data / "adjacency.csv"),
                   "--schema", str(data / "schema.json"), "--out", str(rep)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert det.returncode == 0, det.stderr
        reports.append(rep.read_bytes())
    _verdict(
        "determinism-fractional",
        reports[0] == reports[1],
        "reports at 1 and 4 BLAS threads byte-identical",
    )
