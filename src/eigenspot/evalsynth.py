"""Detection metrics, synthetic outbreak generation, and method comparison.

The generator lays regions out on a grid or as a random geometric graph,
fills the population tensor with a per-cell baseline (optionally with a
linear temporal growth factor), and draws case counts from a Poisson law
whose mean is ``case_rate * population``, multiplied by the relative risk
inside the injected region block and time window. Everything is
deterministic for a fixed config.

The comparison harness scores both detectors against the injected truth
with precision/recall/F1 (reported in percent, two decimals when
serialized) and computes the pruning fraction: how many region-window
candidates a scan would need to test when restricted to the eigenvector
detector's centers and intervals instead of the full enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Literal

import numpy as np

from .errors import InputError
from .dataio import _open_text
from .eigenmatch import HotspotReport, NeighborMatrix
from .stscan import ScanResult, _disks_from_adjacency
from .tensors import CountTensor, ModeLabel


@dataclass(frozen=True, eq=False)
class Metrics:
    """Precision, recall, and F1 in percent, plus the underlying sets."""

    precision: float
    recall: float
    f1: float
    detected: frozenset[str]
    reference: frozenset[str]
    intersection: frozenset[str]


def precision_recall_f1(
    detected: Iterable[str], reference: Iterable[str]
) -> Metrics:
    """Set-overlap detection metrics in percent.

    Empty detected or reference sets contribute 0 to the respective
    metric, and F1 is the harmonic mean 2PR/(P+R), 0 when both vanish.
    """
    d = frozenset(detected)
    r = frozenset(reference)
    inter = d & r
    precision = 100.0 * len(inter) / len(d) if d else 0.0
    recall = 100.0 * len(inter) / len(r) if r else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return Metrics(
        precision=precision,
        recall=recall,
        f1=f1,
        detected=d,
        reference=r,
        intersection=inter,
    )


AdjacencyModel = Literal["grid", "random-geometric"]


@dataclass(frozen=True)
class SynthConfig:
    """Configuration of one synthetic outbreak scenario."""

    regions: int
    times: int
    adjacency: AdjacencyModel = "grid"
    baseline: float = 1000.0  # population per cell
    case_rate: float = 0.02  # expected cases per unit population
    injected_regions: tuple[str, ...] = ()
    window: tuple[int, int] = (0, 0)
    relative_risk: float = 1.0
    growth: float = 0.0  # linear temporal growth of the population per step
    seed: int = 0


@dataclass(frozen=True)
class InjectedTruth:
    """Ground truth of the injected cluster."""

    regions: tuple[str, ...]
    window: tuple[int, int]
    relative_risk: float


@dataclass(frozen=True, eq=False)
class SynthData:
    """Generated scenario; iterates as (population, cases, truth, neighbors)."""

    population: CountTensor
    cases: CountTensor
    truth: InjectedTruth
    neighbors: NeighborMatrix
    coords: np.ndarray

    def __iter__(self) -> Iterator[Any]:
        return iter((self.population, self.cases, self.truth, self.neighbors))


def region_labels(n: int) -> tuple[str, ...]:
    width = max(2, len(str(n - 1)))
    return tuple(f"r{i:0{width}d}" for i in range(n))


def time_labels(n: int) -> tuple[str, ...]:
    width = max(2, len(str(n - 1)))
    return tuple(f"t{i:0{width}d}" for i in range(n))


def _grid_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    rows = int(math.isqrt(n))
    cols = (n + rows - 1) // rows
    i = np.arange(n)
    coords = np.column_stack((i % cols, i // cols)).astype(float)
    adj = np.zeros((n, n), dtype=bool)
    # the cells with a right neighbour in their row, and those with one below
    right = i[(i % cols < cols - 1) & (i + 1 < n)]
    down = i[i + cols < n]
    for a, step in ((right, 1), (down, cols)):
        adj[a, a + step] = adj[a + step, a] = True
    return coords, adj


def _geometric_layout(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    coords = rng.random((n, 2))
    radius2 = 2.0 / n  # keeps the expected degree modest but nonzero
    x, y = coords.T
    adj = (x - x[:, None]) ** 2 + (y - y[:, None]) ** 2 <= radius2
    np.fill_diagonal(adj, False)
    return coords, adj


def generate(cfg: SynthConfig) -> SynthData:
    """Generate one scenario: population, Poisson cases, truth, adjacency."""
    if cfg.regions < 1 or cfg.times < 1:
        raise InputError("need at least one region and one time step", module="evalsynth")
    if not (0 < cfg.baseline < math.inf and 0 < cfg.case_rate < math.inf):
        raise InputError("baseline and case_rate must be positive and finite", module="evalsynth")
    if not 1 <= cfg.relative_risk < math.inf:  # NaN fails every comparison
        raise InputError("relative risk must be finite and at least 1", module="evalsynth")
    if not 0 <= cfg.growth < math.inf:
        raise InputError("growth must be finite and non-negative", module="evalsynth")
    if cfg.seed < 0:
        raise InputError(f"seed must be non-negative, got {cfg.seed}", module="evalsynth")
    t0, t1 = cfg.window
    if not 0 <= t0 <= t1 < cfg.times:  # truth.json names the window even with nothing injected
        raise InputError(
            f"window {cfg.window} must satisfy 0 <= t0 <= t1 < {cfg.times}", module="evalsynth"
        )

    geometry_stream, count_stream = np.random.SeedSequence(cfg.seed).spawn(2)
    if cfg.adjacency == "grid":
        coords, adj = _grid_layout(cfg.regions)
    elif cfg.adjacency == "random-geometric":
        coords, adj = _geometric_layout(cfg.regions, np.random.default_rng(geometry_stream))
    else:
        raise InputError(f"unknown adjacency model {cfg.adjacency!r}", module="evalsynth")

    regions = region_labels(cfg.regions)
    r_index = {r: i for i, r in enumerate(regions)}
    injected = []
    for r in dict.fromkeys(cfg.injected_regions):  # a region may be named twice
        if r not in r_index:
            raise InputError(f"unknown injected region {r!r}", module="evalsynth")
        injected.append(r_index[r])
    induced = NeighborMatrix(adj[np.ix_(injected, injected)])
    # the rings around the first member reach every member of a connected set
    if injected and _disks_from_adjacency(induced)[1][0][-1] < len(injected):
        raise InputError(
            "injected regions must form a connected set under the adjacency",
            module="evalsynth",
        )

    try:
        with np.errstate(over="raise"):  # a mean that overflows is refused too
            growth_factor = 1.0 + cfg.growth * np.arange(cfg.times)
            pop = np.tile(cfg.baseline * growth_factor, (cfg.regions, 1))
            mean = cfg.case_rate * pop
            if injected:
                mean[np.ix_(injected, range(t0, t1 + 1))] *= cfg.relative_risk
            cases = np.random.default_rng(count_stream).poisson(mean).astype(float)
    except (FloatingPointError, ValueError):  # numpy draws from means up to about 9.2e18
        raise InputError("expected case counts too large to draw", module="evalsynth") from None

    # the time labels, a Python object each, come after the numeric arrays, so
    # that too many steps to hold fail at numpy's first allocation, at once
    modes = (
        ModeLabel(kind="space", categories=regions, name="region"),
        ModeLabel(kind="time", categories=time_labels(cfg.times), name="time"),
    )
    return SynthData(
        population=CountTensor(modes, pop),
        cases=CountTensor(modes, cases),
        truth=InjectedTruth(
            regions=tuple(cfg.injected_regions),
            window=(t0, t1),
            relative_risk=cfg.relative_risk,
        ),
        neighbors=NeighborMatrix(adjacency=adj, regions=regions),
        coords=coords,
    )


# ---------------------------------------------------------------------------
# comparison harness

SstLevel = Literal["centers", "likely", "first", "second"]


def sst_detected(report: HotspotReport, level: SstLevel = "first") -> frozenset[str]:
    """Flatten a report into a region set at the requested priority level."""
    if level == "centers":
        return frozenset(report.spatial.sc)
    if level == "likely":
        return frozenset(report.spatial.likely_cluster)
    if level == "first":
        return frozenset(
            m for members in report.clusters_first.clusters.values() for m in members
        )
    if level == "second":
        return frozenset(
            m for members in report.clusters_second.clusters.values() for m in members
        )
    raise InputError(f"unknown level {level!r}", module="evalsynth")


def scan_detected(result: ScanResult, alpha: float = 0.05) -> frozenset[str]:
    """Regions covered by the non-overlapping significant cylinders.

    Falls back to the top-ranked cylinder when no p-values are attached
    or nothing clears the threshold, and is empty when there is no cylinder.
    """
    name = str if result.regions is None else result.regions.__getitem__
    kept = result.significant_clusters(alpha) or result.cylinders[:1]
    return frozenset(name(m) for cyl in kept for m in cyl.members)


@dataclass(frozen=True, eq=False)
class ComparisonRow:
    method: str
    level: str
    metrics: Metrics


@dataclass(frozen=True, eq=False)
class ComparisonTable:
    """Per-method metrics against the truth plus the pruning fraction."""

    rows: tuple[ComparisonRow, ...]
    pruning_fraction: float
    alpha: float


def pruning_fraction(report: HotspotReport) -> float:
    """Share of region-window candidates left after center/interval pruning.

    The full search space is every region crossed with every contiguous
    time window; the pruned space is the report's hotspot centers crossed
    with its distinct candidate intervals.
    """
    n_regions = len(report.ds.categories)
    n_times = len(report.dt.categories)
    full = n_regions * n_times * (n_times + 1) // 2
    if full == 0:
        return 0.0
    intervals = set(report.temporal.t_first) | set(report.temporal.t_second)
    return len(report.spatial.sc) * len(intervals) / full


def compare(
    sst: HotspotReport,
    scan_result: ScanResult,
    truth: InjectedTruth | Iterable[str],
    alpha: float = 0.05,
) -> ComparisonTable:
    """Score both methods against a reference region set."""
    reference = truth.regions if isinstance(truth, InjectedTruth) else tuple(truth)
    rows = [
        ComparisonRow("sst-hotspot", level, precision_recall_f1(sst_detected(sst, level), reference))
        for level in ("centers", "likely", "first", "second")
    ]
    rows.append(
        ComparisonRow("st-scan", "significant", precision_recall_f1(scan_detected(scan_result, alpha), reference))
    )
    return ComparisonTable(
        rows=tuple(rows),
        pruning_fraction=pruning_fraction(sst),
        alpha=alpha,
    )


def comparison_to_dict(table: ComparisonTable) -> dict[str, Any]:
    return {
        "schema": "comparison/1",
        "alpha": table.alpha,
        "pruning_fraction": table.pruning_fraction,
        "rows": [
            {
                "method": row.method,
                "level": row.level,
                "precision": round(row.metrics.precision, 2),
                "recall": round(row.metrics.recall, 2),
                "f1": round(row.metrics.f1, 2),
                "detected": sorted(row.metrics.detected),
                "reference": sorted(row.metrics.reference),
            }
            for row in table.rows
        ],
    }


def write_comparison(table: ComparisonTable, csv_destination: Any) -> None:
    """Emit the comparison table as CSV (JSON goes through :func:`comparison_to_dict`)."""
    lines = ["method,level,precision,recall,f1"]
    for row in table.rows:
        lines.append(
            f"{row.method},{row.level},{row.metrics.precision:.2f},"
            f"{row.metrics.recall:.2f},{row.metrics.f1:.2f}"
        )
    lines.append(f"pruning_fraction,,{table.pruning_fraction:.6f},,")
    with _open_text(csv_destination, "w") as fh:
        fh.write("\n".join(lines) + "\n")
