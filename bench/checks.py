"""Output checks for one benchmark invocation.

Each check returns a list of problems; an empty list means the output is
correct. The scan check recomputes the top cylinder from the raw CSV
files with plain Python sums and the scalar ``stscan.score``, so it does
not share the code path that produced the output.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from eigenspot import dataio, evalsynth, stscan


def read_matrix(path: Path, regions: tuple[str, ...], times: tuple[str, ...]) -> list[list[float]]:
    """A region x time matrix from a ``region,time,count`` CSV file."""
    r_index = {r: i for i, r in enumerate(regions)}
    t_index = {t: j for j, t in enumerate(times)}
    matrix = [[0.0] * len(times) for _ in regions]
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            matrix[r_index[row["region"]]][t_index[row["time"]]] += float(row["count"])
    return matrix


def check_scan(data: bytes, inputs: Path, replications: int) -> list[str]:
    """Re-read a scan result, rescore its top cylinder, bound its p-values."""
    try:
        result = dataio.read_report(_text(data))
    except Exception as exc:  # any parse failure is a wrong output
        return [f"scan result does not re-read: {exc!r}"]
    if not isinstance(result, stscan.ScanResult) or not result.cylinders:
        return ["output is not a non-empty scan result"]
    problems = []
    if result.replications != replications:
        problems.append(f"replications {result.replications} != {replications}")
    cases = read_matrix(inputs / "cases.csv", result.regions, result.times)
    population = read_matrix(inputs / "population.csv", result.regions, result.times)
    c_total = sum(map(sum, cases))
    p_total = sum(map(sum, population))
    baseline = [[p * c_total / p_total for p in row] for row in population]
    b_total = sum(map(sum, baseline))

    top = result.cylinders[0]
    t0, t1 = top.window
    c = sum(cases[m][t] for m in top.members for t in range(t0, t1 + 1))
    b = sum(baseline[m][t] for m in top.members for t in range(t0, t1 + 1))
    expected = stscan.score(c, b, c_total, b_total, elevated_only=result.elevated_only)
    if c != top.count or not math.isclose(b, top.baseline, rel_tol=1e-9):
        problems.append(f"top cylinder sums ({top.count}, {top.baseline}) != ({c}, {b})")
    if not math.isclose(expected, top.score, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"top cylinder score {top.score} != rescored {expected}")
    scores = [cyl.score for cyl in result.cylinders]
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("cylinders are not ranked by descending score")

    doc = json.loads(data)
    floor = 1.0 / (replications + 1)
    p_values = [cyl["p_value"] for cyl in doc["cylinders"] + doc.get("significant", [])]
    if any(p is None or not floor - 1e-12 <= p <= 1.0 for p in p_values):
        problems.append(f"a p-value lies outside [1/{replications + 1}, 1]")
    return problems


def check_detect(data: bytes, dims: tuple[int, ...]) -> list[str]:
    """Re-read a hotspot report and check its tensor dims."""
    try:
        report = dataio.read_report(_text(data))
    except Exception as exc:
        return [f"hotspot report does not re-read: {exc!r}"]
    if not isinstance(report, dataio.HotspotReport):
        return ["output is not a hotspot report"]
    if tuple(report.dims) != tuple(dims):
        return [f"report dims {tuple(report.dims)} != {tuple(dims)}"]
    return []


def quality(kind: str, data: bytes, truth_path: Path) -> dict[str, float]:
    """F1 against the injected truth plus detector-specific counts."""
    truth = json.loads(truth_path.read_text(encoding="utf-8"))["regions"]
    out = dataio.read_report(_text(data))
    if kind == "scan":
        doc = json.loads(data)
        detected = evalsynth.scan_detected(out, alpha=doc["alpha"])
        extra = {"significant_total": doc["significant_total"],
                 "significant_clusters": len(doc["significant"])}
    else:
        detected = evalsynth.sst_detected(out, "first")
        extra = {"centers": len(out.spatial.sc),
                 "clusters_first": len(out.clusters_first.clusters),
                 "pruning_fraction": evalsynth.pruning_fraction(out)}
    return {"f1_pct": evalsynth.precision_recall_f1(detected, truth).f1, **extra}


def _text(data: bytes) -> io.StringIO:
    return io.StringIO(data.decode("utf-8"))
