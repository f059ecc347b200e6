"""Benchmark workloads: their CLI commands and their seeded input files.

Every input is a pure function of (workload, seed). The scan workloads
take their files from ``eigenspot synth``; ``detect-linelist`` is written
by :func:`write_linelist`, a generator that lives in the benchmark so the
program under test sees only the CSV files.
"""

from __future__ import annotations

import json
import os
import subprocess
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "scan" or "detect"
    why: str
    synth: tuple[str, ...] = ()  # eigenspot synth arguments; empty for the line list
    geometry: tuple[str, ...] = ()  # --centroids/--adjacency plus its file name
    replications: int = 0
    dims: tuple[int, ...] = ()
    linelist: tuple[int, int, int] = ()  # (grid side, weeks, cases) for write_linelist

    def command(self, inputs: Path, seed: int, out: Path) -> list[str]:
        """The eigenspot arguments of one invocation on ``inputs``."""
        files = ["--cases", str(inputs / "cases.csv"),
                 "--population", str(inputs / "population.csv"),
                 "--schema", str(inputs / "schema.json")]
        flag, name = self.geometry
        args = [self.kind, *files, flag, str(inputs / name)]
        if self.kind == "scan":
            args += ["--replications", str(self.replications), "--seed", str(seed)]
        return args + ["--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scan-centroid", "scan",
            "nested k-nearest disks, 39,936 cylinders, 49 replicas: "
            "the observed scan and the replica path both carry weight",
            synth=("--regions", "32", "--times", "12", "--risk", "3",
                   "--inject", "r09,r10", "--window", "5:7"),
            geometry=("--centroids", "centroids.csv"), replications=49, dims=(32, 12),
        ),
        Workload(
            "scan-rings-mc", "scan",
            "breadth-first ring disks, 26,520 cylinders, 199 replicas: "
            "the replica path dominates over a small family",
            synth=("--regions", "64", "--times", "12", "--risk", "3",
                   "--inject", "r09,r10", "--window", "5:7"),
            geometry=("--adjacency", "adjacency.csv"), replications=199, dims=(64, 12),
        ),
        Workload(
            "detect-linelist", "detect",
            "150,000-row case line list over a 256x24x16 tensor: "
            "CSV parsing and tensor building dominate",
            geometry=("--adjacency", "adjacency.csv"), dims=(256, 24, 16),
            linelist=(16, 24, 150_000),
        ),
    )
}

# detect-linelist attributes: sex x age band, a 16-category bundle.
SEXES = ("F", "M")
AGES = ("00-09", "10-19", "20-29", "30-39", "40-49", "50-59", "60-69", "70+")
AGE_SHARE = np.array([0.12, 0.13, 0.14, 0.14, 0.13, 0.13, 0.11, 0.10])
AGE_RATE = np.array([0.6, 0.5, 0.7, 0.8, 0.9, 1.1, 1.5, 2.0])
BLOCK_RISK = 3.0


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def linelist_counts(seed: int, grid: int, weeks: int, cases: int):
    """Population tensor, per-case cell indices, injected regions and weeks.

    Population is deterministic given the seed, like a census count: a
    log-normal size per region, fixed sex and age shares and a
    region-specific linear trend over the weeks, rounded to whole people.
    Each case falls in a cell drawn with probability proportional to
    population times an age-specific rate, times ``BLOCK_RISK`` inside a
    2x2-region by 3-week block at the middle of the grid.

    The trend keeps every mode's second eigenvalue well clear of the
    third. With Poisson noise in the population instead, the time mode's
    second and third eigenvalues are near-tied on some seeds, so the
    power iteration's cost would swing with the seed and a few seeds
    would raise ConvergenceError.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x11e1157]))
    n = grid * grid
    size = 1000.0 * rng.lognormal(0.0, 0.5, n)
    trend = 1.0 + np.outer(rng.normal(0.0, 0.6, n), np.linspace(-0.5, 0.5, weeks))
    shares = np.outer([0.49, 0.51], AGE_SHARE).ravel()  # sex-major, age fastest
    pop = np.maximum(1.0, np.rint(
        (size[:, None] * np.clip(trend, 0.2, None))[:, :, None] * shares[None, None, :]))
    mid = grid // 2
    block = [r * grid + c for r in (mid - 1, mid) for c in (mid - 1, mid)]
    window = (max(0, weeks // 2 - 2), weeks // 2)
    risk = np.ones(pop.shape)
    risk[np.ix_(block, range(window[0], window[1] + 1))] = BLOCK_RISK
    weight = (pop * np.tile(AGE_RATE, len(SEXES)) * risk).ravel()
    cells = rng.choice(weight.size, size=cases, p=weight / weight.sum())
    return pop.astype(np.int64), cells, block, window


def write_linelist(out: Path, seed: int, grid: int, weeks: int, cases: int) -> None:
    """Aggregated population plus a one-row-per-case line list."""
    pop, cells, block, (w0, w1) = linelist_counts(seed, grid, weeks, cases)
    regions = [f"r{i:03d}" for i in range(grid * grid)]
    week_names = [f"w{t:02d}" for t in range(weeks)]
    attrs = [f"{s},{a}" for s in SEXES for a in AGES]
    keys = [f"{r},{w},{a}" for r in regions for w in week_names for a in attrs]
    _write_lines(out / "population.csv", ["region,week,sex,age,count"]
                 + [f"{k},{c}" for k, c in zip(keys, pop.ravel().tolist())])
    _write_lines(out / "cases.csv", ["region,week,sex,age,count"]
                 + [keys[i] + ",1" for i in cells.tolist()])
    pairs = [(r * grid + c, r * grid + c + 1) for r in range(grid) for c in range(grid - 1)]
    pairs += [(r * grid + c, (r + 1) * grid + c) for r in range(grid - 1) for c in range(grid)]
    _write_lines(out / "adjacency.csv", [f"{regions[i]},{regions[j]}" for i, j in sorted(pairs)])
    schema = {
        "modes": [
            {"name": "region", "kind": "space", "columns": ["region"]},
            {"name": "week", "kind": "time", "columns": ["week"]},
            {"name": "demo", "kind": "attribute", "columns": ["sex", "age"]},
        ],
        "count_column": "count",
    }
    (out / "schema.json").write_text(json.dumps(schema, indent=2) + "\n", encoding="utf-8")
    truth = {"regions": [regions[i] for i in block], "window": [w0, w1],
             "window_labels": [week_names[w0], week_names[w1]],
             "relative_risk": BLOCK_RISK, "seed": seed}
    (out / "truth.json").write_text(json.dumps(truth, indent=2) + "\n", encoding="utf-8")


def generate(workload: Workload, seed: int, out: Path, python: str, env: dict) -> None:
    """Write the input files of ``workload`` at ``seed`` into ``out``.

    The files are flushed to disk before this returns, so that their
    write-back does not overlap the timed part of the run.
    """
    out.mkdir(parents=True, exist_ok=True)
    if workload.synth:
        subprocess.run(
            [python, "-m", "eigenspot", "synth", *workload.synth,
             "--seed", str(seed), "--out-dir", str(out)],
            env=env, check=True, stdout=subprocess.DEVNULL,
        )
    else:
        write_linelist(out, seed, *workload.linelist)
    for path in out.iterdir():
        with open(path, "rb") as fh:
            os.fsync(fh.fileno())
