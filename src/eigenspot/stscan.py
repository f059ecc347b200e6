"""Space-time scan statistic baseline: cylinder search plus randomization.

Candidate cylinders are spatial disks (nested region sets around each
center) crossed with contiguous time windows. Each cylinder is scored by
the Poisson likelihood ratio, computed in log space,

    log F = C ln(C / B) + (C_tot - C) ln((C_tot - C) / (B_tot - B)),

with the convention x ln(x/y) = 0 when x = 0. By default only cylinders
whose inside rate exceeds the outside rate score (the elevated-only
indicator); everything else scores 0, i.e. F = 1.

Significance comes from a conditional Monte Carlo test: each replica
redistributes the observed case total over every space-time cell with a
multinomial draw proportional to the baseline, the replica statistic is
the maximum cylinder score, and the p-value of a cylinder is
(1 + #{replica maxima >= score}) / (replications + 1).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError
from .eigenmatch import NeighborMatrix


@dataclass(frozen=True, eq=False, slots=True)
class ScanCylinder:
    """One spatial disk crossed with one inclusive time window."""

    center: int
    members: tuple[int, ...]
    window: tuple[int, int]
    count: float = 0.0  # observed count C inside the cylinder
    baseline: float = 0.0  # baseline B inside the cylinder
    score: float = 0.0
    p_value: float | None = None

    def __post_init__(self) -> None:
        if not self.members or self.center not in self.members:
            raise InputError(
                "cylinder members must be nonempty and include the center",
                module="stscan",
            )
        t0, t1 = self.window
        if t0 > t1:
            raise InputError("window start must not exceed its end", module="stscan")


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Scored cylinders in descending order plus run metadata."""

    cylinders: tuple[ScanCylinder, ...]
    c_total: float
    b_total: float
    elevated_only: bool = True
    replications: int = 0
    seed: int | None = None
    regions: tuple[str, ...] | None = None
    times: tuple[str, ...] | None = None

    @property
    def top(self) -> ScanCylinder:
        return self.cylinders[0]

    def significant(self, alpha: float = 0.05) -> tuple[ScanCylinder, ...]:
        """Cylinders with a p-value at or below alpha (empty before the MC step)."""
        return tuple(
            c for c in self.cylinders if c.p_value is not None and c.p_value <= alpha
        )

    def significant_clusters(self, alpha: float = 0.05) -> tuple[ScanCylinder, ...]:
        """Non-overlapping significant cylinders, best first.

        Nested disks make thousands of cylinders significant around one
        hot block; the conventional report keeps a cylinder only when its
        region set is disjoint from every better one already kept.
        """
        kept: list[ScanCylinder] = []
        covered: set[int] = set()
        for cyl in self.significant(alpha):
            if covered.isdisjoint(cyl.members):
                kept.append(cyl)
                covered.update(cyl.members)
        return tuple(kept)


def score(
    count: float,
    baseline: float,
    total_count: float,
    total_baseline: float,
    elevated_only: bool = True,
) -> float:
    """Log likelihood-ratio score of one cylinder.

    With ``elevated_only`` (the default) a cylinder whose inside rate does
    not exceed the overall rate scores 0. The comparison uses the
    cross-product form C * B_tot > B * C_tot to stay exact for integer
    counts.
    """
    if not 0 <= count <= total_count:
        raise InputError(
            f"count {count} outside [0, {total_count}]", module="stscan"
        )
    if baseline < 0 or total_baseline <= 0:
        raise InputError("baselines must be non-negative with a positive total", module="stscan")
    if baseline == 0 and count > 0:
        raise InputError(
            "zero baseline with positive count gives an infinite rate", module="stscan"
        )
    # summation order can leave a full-coverage cylinder a few ulp above
    # the grand total; only a real excess is an error
    if baseline > total_baseline and not math.isclose(
        baseline, total_baseline, rel_tol=1e-9
    ):
        raise InputError("cylinder baseline exceeds the total baseline", module="stscan")

    if elevated_only and not count * total_baseline > baseline * total_count:
        return 0.0
    inside = count * math.log(count / baseline) if count > 0 else 0.0
    rest = total_count - count
    rest_base = total_baseline - baseline
    if rest > 0:
        if rest_base <= 0:
            raise InputError(
                "cylinder covers the whole baseline but not all cases; "
                "the score is unbounded",
                module="stscan",
            )
        outside = rest * math.log(rest / rest_base)
    else:
        outside = 0.0
    return inside + outside


def expected_baseline(cases: np.ndarray, population: np.ndarray) -> np.ndarray:
    """Scale a population matrix into an expected-count baseline.

    The returned matrix distributes the observed case total proportionally
    to population, so its grand total equals the case total. With such a
    baseline the log score is non-negative and zero exactly at parity,
    which is what the ranking relies on; feeding raw population counts in
    instead would shift every score by an arbitrary amount.
    """
    cases_m = np.asarray(cases, dtype=float)
    pop_m = np.asarray(population, dtype=float)
    if cases_m.shape != pop_m.shape:
        raise InputError("cases and population must have equal shapes", module="stscan")
    pop_total = float(pop_m.sum())
    if pop_total <= 0:
        raise InputError("total population must be positive", module="stscan")
    return pop_m * (float(cases_m.sum()) / pop_total)


def _disks_from_coords(coords: np.ndarray) -> list[list[int]]:
    """Per center: region indices by growing squared centroid distance.

    Distance ties keep index order; the center itself always comes first.
    """
    n = coords.shape[0]
    orders = []
    for c in range(n):
        d2 = (coords[:, 0] - coords[c, 0]) ** 2 + (coords[:, 1] - coords[c, 1]) ** 2
        d2[c] = -1.0  # pin the center to the front
        orders.append(list(np.argsort(d2, kind="stable")))
    return orders


def _disks_from_adjacency(nb: NeighborMatrix) -> list[list[int]]:
    """Per center: breadth-first rings; each disk adds one whole ring."""
    n = nb.n
    orders = []
    for c in range(n):
        seen = {c}
        order = [c]
        ring_sizes = [1]
        frontier = [c]
        while frontier:
            nxt = sorted(
                {j for i in frontier for j in np.flatnonzero(nb.adjacency[i]) if j not in seen}
            )
            if not nxt:
                break
            seen.update(nxt)
            order.extend(nxt)
            ring_sizes.append(len(nxt))
            frontier = nxt
        orders.append((order, ring_sizes))
    return orders


def enumerate_cylinders(
    times: int,
    coords: np.ndarray | None = None,
    neighbors: NeighborMatrix | None = None,
    max_fraction: float = 0.5,
    region_baseline: np.ndarray | None = None,
) -> list[ScanCylinder]:
    """All candidate cylinders for a region geometry and a time count.

    Spatial disks are nested around each center: with centroid coordinates
    a disk is the k nearest regions (ties by index, center first); with
    only adjacency, disks grow one breadth-first ring at a time. Every
    disk is crossed with every contiguous time window. When a per-region
    baseline is supplied, disks holding more than ``max_fraction`` of the
    total baseline are dropped (nesting makes the cut monotone); the
    singleton center disk always survives so every region stays scannable,
    and without a baseline no disk is dropped.
    """
    if times < 1:
        raise InputError("need at least one time step", module="stscan")
    if not 0 < max_fraction <= 0.5:
        raise InputError("max_fraction must lie in (0, 0.5]", module="stscan")
    if coords is None and neighbors is None:
        raise InputError(
            "supply region coordinates or an adjacency matrix", module="stscan"
        )

    if coords is not None:
        pts = np.asarray(coords, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InputError("coordinates must be an (n, 2) array", module="stscan")
        n = pts.shape[0]
        disk_sizes = [list(range(1, n + 1))] * n
        orders = _disks_from_coords(pts)
    else:
        n = neighbors.n
        ring_orders = _disks_from_adjacency(neighbors)
        orders = [order for order, _ in ring_orders]
        disk_sizes = [list(itertools.accumulate(rings)) for _, rings in ring_orders]

    cap = None
    if region_baseline is not None:
        rb = np.asarray(region_baseline, dtype=float)
        if rb.shape != (n,):
            raise InputError(
                f"region baseline must have length {n}", module="stscan"
            )
        if np.any(rb < 0) or rb.sum() <= 0:
            raise InputError(
                "region baseline must be non-negative with a positive sum",
                module="stscan",
            )
        cap = max_fraction * float(rb.sum())

    windows = [(t0, t1) for t0 in range(times) for t1 in range(t0, times)]
    out: list[ScanCylinder] = []
    for c in range(n):
        order = orders[c]
        for k in disk_sizes[c]:
            members = tuple(int(i) for i in order[:k])
            if k > 1 and cap is not None and float(rb[list(members)].sum()) > cap:
                break  # disks are nested, larger ones only grow
            for window in windows:
                out.append(ScanCylinder(center=c, members=members, window=window))
    return out


class _CylinderIndex:
    """A candidate family as flat arrays, one entry per cylinder."""

    def __init__(self, cylinders: Sequence[ScanCylinder]):
        n = len(cylinders)
        self.sizes = np.fromiter((len(c.members) for c in cylinders), np.intp, n)
        self.centers = np.fromiter((c.center for c in cylinders), np.intp, n)
        self.t0 = np.fromiter((c.window[0] for c in cylinders), np.intp, n)
        self.t1 = np.fromiter((c.window[1] for c in cylinders), np.intp, n)
        self.members = np.fromiter(
            itertools.chain.from_iterable(c.members for c in cylinders), np.intp
        )
        self.offsets = np.cumsum(self.sizes) - self.sizes
        span = int(self.t1.max()) + 1
        windows, window_of = np.unique(self.t0 * span + self.t1, return_inverse=True)
        self.window_t0, self.window_t1 = np.divmod(windows, span)
        self.member_windows = np.repeat(window_of, self.sizes)

    def cell_sums(self, matrix: np.ndarray) -> np.ndarray:
        """Per-cylinder sums that add cells as ``matrix[members][:, t0:t1+1].sum()`` does.

        numpy adds a block's cells pairwise in row-major order; a block that
        is neither one step nor the whole matrix wide goes through numpy's
        buffer in runs of whole rows that fit ``np.getbufsize()`` cells.
        Following that order keeps float sums, and so tie order, equal to a
        per-cylinder sum.
        """
        out = np.empty(len(self.sizes))
        widths = self.t1 - self.t0 + 1
        key = self.sizes * (matrix.shape[1] + 1) + widths
        order = np.argsort(key, kind="stable")
        for idx in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
            k, w = int(self.sizes[idx[0]]), int(widths[idx[0]])
            rows = self.members[self.offsets[idx, None] + np.arange(k)]
            cells = matrix[rows[:, :, None], self.t0[idx, None, None] + np.arange(w)]
            step = k if w in (1, matrix.shape[1]) else max(1, np.getbufsize() // w)
            out[idx] = cells[:, :step].sum(axis=(1, 2))
            for s in range(step, k, step):
                out[idx] += cells[:, s : s + step].sum(axis=(1, 2))
        return out

    def window_sums(self, matrix: np.ndarray) -> np.ndarray:
        """Per-cylinder sums from per-window prefix sums; exact on integer cells."""
        cum = np.zeros((matrix.shape[1] + 1, matrix.shape[0]))
        np.cumsum(matrix.T, axis=0, out=cum[1:])
        per_window = cum[self.window_t1 + 1] - cum[self.window_t0]
        return np.add.reduceat(per_window[self.member_windows, self.members], self.offsets)


def _scores(
    counts: np.ndarray,
    baselines: np.ndarray,
    c_total: float,
    b_total: float,
    elevated_only: bool,
) -> np.ndarray:
    """:func:`score` for a whole family of cylinders at once."""
    if np.any((baselines == 0) & (counts > 0)):
        raise InputError(
            "zero baseline with positive count gives an infinite rate", module="stscan"
        )
    included = (counts * b_total > baselines * c_total) | (not elevated_only)
    rest = c_total - counts
    rest_base = b_total - baselines
    if np.any(included & (rest > 0) & (rest_base <= 0)):
        raise InputError(
            "cylinder covers the whole baseline but not all cases; "
            "the score is unbounded",
            module="stscan",
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = np.where(counts > 0, counts * np.log(counts / baselines), 0.0)
        outside = np.where(rest > 0, rest * np.log(rest / rest_base), 0.0)
    return np.where(included, inside + outside, 0.0)


def scan(
    cases: np.ndarray,
    baseline: np.ndarray,
    candidates: Sequence[ScanCylinder],
    elevated_only: bool = True,
    regions: Sequence[str] | None = None,
    times: Sequence[str] | None = None,
) -> ScanResult:
    """Score every candidate cylinder and rank them.

    Ties sort the smaller member set first, then the lower center index,
    then the earlier window, which makes the ordering total and the output
    deterministic.
    """
    cases_m = np.asarray(cases, dtype=float)
    base_m = np.asarray(baseline, dtype=float)
    if cases_m.shape != base_m.shape or cases_m.ndim != 2:
        raise InputError(
            "cases and baseline must be equal-shape space-by-time matrices",
            module="stscan",
        )
    if not candidates:
        raise InputError("no candidate cylinders supplied", module="stscan")
    c_total = float(cases_m.sum())
    b_total = float(base_m.sum())
    # NaN fails the comparison and an infinite cell makes its total infinite
    if not (np.all(cases_m >= 0) and np.all(base_m >= 0) and math.isfinite(c_total + b_total)):
        raise InputError("cases and baseline cells must be finite and non-negative", module="stscan")
    if b_total <= 0:
        raise InputError("total baseline must be positive", module="stscan")

    index = _CylinderIndex(candidates)
    counts = index.cell_sums(cases_m)
    baselines = index.cell_sums(base_m)
    scores = _scores(counts, baselines, c_total, b_total, elevated_only)
    ranked = np.lexsort((index.t1, index.t0, index.centers, index.sizes, -scores))
    rows = zip(counts[ranked].tolist(), baselines[ranked].tolist(), scores[ranked].tolist())
    return ScanResult(
        cylinders=tuple(
            ScanCylinder(cyl.center, cyl.members, cyl.window, c, b, s)
            for cyl, (c, b, s) in zip((candidates[i] for i in ranked.tolist()), rows)
        ),
        c_total=c_total,
        b_total=b_total,
        elevated_only=elevated_only,
        regions=tuple(regions) if regions is not None else None,
        times=tuple(times) if times is not None else None,
    )


def monte_carlo_p(
    result: ScanResult,
    baseline: np.ndarray,
    replications: int,
    seed: int,
) -> ScanResult:
    """Attach Monte Carlo p-values to a scan result.

    Replica case matrices are multinomial redistributions of the observed
    total over all cells with probabilities proportional to the baseline,
    which must be the same matrix the result was scanned against (the
    per-cylinder baselines are reused, not recomputed). Replica streams
    are spawned per replica index from the seed, so the outcome does not
    depend on evaluation order.
    """
    if replications < 1:
        raise InputError("need at least one replication", module="stscan")
    base_m = np.asarray(baseline, dtype=float)
    if base_m.ndim != 2:
        raise InputError("baseline must be a space-by-time matrix", module="stscan")
    index = _CylinderIndex(result.cylinders)
    if index.members.max() >= base_m.shape[0] or index.t1.max() >= base_m.shape[1]:
        raise InputError(
            f"baseline shape {base_m.shape} cannot cover the scanned cylinders",
            module="stscan",
        )
    b_total = float(base_m.sum())
    if b_total <= 0:
        raise InputError("total baseline must be positive", module="stscan")
    total = int(round(result.c_total))
    if abs(result.c_total - total) > 1e-9:
        raise InputError(
            "Monte Carlo randomization needs an integer case total", module="stscan"
        )

    n = len(result.cylinders)
    baselines = np.fromiter((c.baseline for c in result.cylinders), float, n)
    probs = (base_m / b_total).ravel()
    streams = np.random.SeedSequence(seed).spawn(replications)
    maxima = np.empty(replications)
    for i, ss in enumerate(streams):
        rng = np.random.default_rng(ss)
        replica = rng.multinomial(total, probs).reshape(base_m.shape).astype(float)
        counts = index.window_sums(replica)
        maxima[i] = _scores(
            counts, baselines, result.c_total, result.b_total, result.elevated_only
        ).max()

    maxima.sort()
    observed = np.fromiter((c.score for c in result.cylinders), float, n)
    ge = replications - np.searchsorted(maxima, observed, side="left")
    p_values = ((1 + ge) / (replications + 1)).tolist()
    return dataclasses.replace(
        result,
        cylinders=tuple(
            ScanCylinder(c.center, c.members, c.window, c.count, c.baseline, c.score, p)
            for c, p in zip(result.cylinders, p_values)
        ),
        replications=replications,
        seed=seed,
    )
