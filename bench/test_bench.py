"""Smoke test of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "bench"), str(REPO / "src")]

import run  # noqa: E402
from workloads import Workload  # noqa: E402

TINY = {
    w.name: w
    for w in (
        Workload("scan-tiny", "scan", "9x4 grid scan",
                 synth=("--regions", "9", "--times", "4", "--risk", "3",
                        "--inject", "r04", "--window", "1:2"),
                 geometry=("--centroids", "centroids.csv"), replications=9, dims=(9, 4)),
        Workload("detect-tiny", "detect", "16x6x16 line list",
                 geometry=("--adjacency", "adjacency.csv"), dims=(16, 6, 16),
                 linelist=(4, 6, 3000)),
    )
}
SEED = 3  # not the pinned seed, which has recorded digests only for the real workloads
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_spec_lists_the_benchmark_workloads():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in run.WORKLOADS.values()
    ]


@pytest.fixture
def bench(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", REPO)
    monkeypatch.setattr(run, "SRC", REPO / "src")
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    return run


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_reported_with_its_unit(bench, name, trace):
    result = bench.run_workload(name, SEED, 0.0, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == bench.MIN_INVOCATIONS + trace
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: m["unit"] for k, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _corrupting(spawn, corrupt):
    def wrapped(cmd, env, stderr):
        outcome = spawn(cmd, env, stderr)
        if "eigenspot" in cmd and "--out" in cmd:
            out = Path(cmd[cmd.index("--out") + 1])
            out.write_text(corrupt(out.read_text(encoding="utf-8")), encoding="utf-8")
        return outcome
    return wrapped


def _bump_top_score(text: str) -> str:
    doc = json.loads(text)
    doc["cylinders"][0]["score"] *= 1.001
    return json.dumps(doc)


@pytest.mark.parametrize("name, corrupt", [
    ("scan-tiny", _bump_top_score),
    ("scan-tiny", lambda text: text[: len(text) // 2]),
    ("detect-tiny", lambda text: text.replace('"hotspot-report/1"', '"hotspot-report/9"')),
])
def test_corrupted_output_counts_as_failed(bench, monkeypatch, name, corrupt):
    monkeypatch.setattr(bench, "spawn", _corrupting(bench.spawn, corrupt))
    result = bench.run_workload(name, SEED, 0.0, False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == bench.MIN_INVOCATIONS


def test_pinned_digest_mismatch_counts_as_failed(bench, monkeypatch, tmp_path):
    digests = tmp_path / "bench"
    digests.mkdir()
    (digests / "digests.json").write_text(json.dumps({"seed": SEED, "sha256": {"scan-tiny": "0" * 64}}))
    monkeypatch.setattr(bench, "BENCH", digests)
    result = bench.run_workload("scan-tiny", SEED, 0.0, False)
    assert result["failed"] == result["attempted"]


def test_killed_traced_run_counts_as_failed(bench, monkeypatch):
    stale = bench.WORK / "spans" / f"scan-tiny-seed{SEED}.jsonl"
    stale.parent.mkdir(parents=True)
    stale.write_text(json.dumps({"id": 0, "name": "cli.main", "parent": None,
                                 "start": 0.0, "end": 1.0}) + "\n")
    spawn = bench.spawn

    def kill_traced(cmd, env, stderr):
        if any(arg.endswith("tracer.py") for arg in cmd):
            cmd = [sys.executable, "-c", "import os, signal; os.kill(os.getpid(), signal.SIGKILL)"]
        return spawn(cmd, env, stderr)

    monkeypatch.setattr(bench, "spawn", kill_traced)
    result = bench.run_workload("scan-tiny", SEED, 0.0, True)
    assert result["attempted"] == bench.MIN_INVOCATIONS + 1
    assert result["failed"] == 1 and not result["correct"]
    assert result["metrics"] == {}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-rings-mc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
