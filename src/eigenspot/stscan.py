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

import bisect
import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

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
class CylinderFamily(Sequence[ScanCylinder]):
    """Every spatial disk crossed with every time window, held as arrays.

    Disk ``d`` is ``orders[centers[d], :sizes[d]]``: a center's nested disks
    are prefixes of its one order row, center first. Cylinder ``i`` is disk
    ``i // W`` over window ``i % W``, and the per-cylinder arrays follow that
    index. The sequence runs in ``order`` (the ranking, once scanned),
    builds :class:`ScanCylinder` rows on access and slices to views.
    """

    orders: np.ndarray
    centers: np.ndarray
    sizes: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    counts: np.ndarray | None = None
    baselines: np.ndarray | None = None
    scores: np.ndarray | None = None
    p_values: np.ndarray | None = None
    order: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.order is None:
            object.__setattr__(self, "order", np.arange(self.sizes.size * self.t0.size))

    def __len__(self) -> int:
        return self.order.size

    def __getitem__(self, i):
        view = dataclasses.replace(self, order=self.order[i if isinstance(i, slice) else [i]])
        return view if isinstance(i, slice) else next(iter(view))

    def __iter__(self) -> Iterator[ScanCylinder]:
        disk, window = np.divmod(self.order, self.t0.size)
        disks = zip(self.centers[disk].tolist(), self.sizes[disk].tolist())
        spans = zip(self.t0[window].tolist(), self.t1[window].tolist())
        arrays = (self.counts, self.baselines, self.scores, self.p_values)
        columns = [
            itertools.repeat(default) if a is None else a[self.order].tolist()
            for a, default in zip(arrays, (0.0, 0.0, 0.0, None))
        ]
        for (c, k), span, *values in zip(disks, spans, *columns):
            yield ScanCylinder(c, tuple(self.orders[c, :k].tolist()), span, *values)

    def cell_sums(self, matrix: np.ndarray) -> np.ndarray:
        """Per-cylinder sums that add cells as ``matrix[members][:, t0:t1+1].sum()`` does.

        numpy adds a block's cells pairwise in row-major order; a block that
        is neither one step nor the whole matrix wide goes through numpy's
        buffer in runs of whole rows that fit ``np.getbufsize()`` cells.
        Following that order keeps float sums, and so tie order, equal to a
        per-cylinder sum.
        """
        out = np.empty((self.sizes.size, self.t0.size))
        widths = self.t1 - self.t0 + 1
        for k in np.unique(self.sizes).tolist():
            disks = np.flatnonzero(self.sizes == k)
            rows = self.orders[self.centers[disks], :k]
            for w in np.unique(widths).tolist():
                wins = np.flatnonzero(widths == w)
                steps = (self.t0[wins, None] + np.arange(w))[None, :, None, :]
                cells = matrix[rows[:, None, :, None], steps].reshape(-1, k, w)
                step = k if w in (1, matrix.shape[1]) else max(1, np.getbufsize() // w)
                sums = cells[:, :step].sum(axis=(1, 2))
                for s in range(step, k, step):
                    sums += cells[:, s : s + step].sum(axis=(1, 2))
                out[np.ix_(disks, wins)] = sums.reshape(disks.size, wins.size)
        return out.ravel()


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Ranked cylinders (the family from :func:`scan`, or rows read back) plus run metadata."""

    cylinders: Sequence[ScanCylinder]
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

    def significant(self, alpha: float = 0.05) -> Sequence[ScanCylinder]:
        """Cylinders with p <= alpha: a prefix of the ranking, as p never falls along it."""
        end = bisect.bisect_right(
            self.cylinders, alpha, key=lambda c: math.inf if c.p_value is None else c.p_value
        )
        return self.cylinders[:end]

    def significant_clusters(self, alpha: float = 0.05) -> tuple[ScanCylinder, ...]:
        """Non-overlapping significant cylinders, best first.

        Nested disks make thousands of cylinders significant around one
        hot block; the conventional report keeps a cylinder only when its
        region set is disjoint from every better one already kept.
        """
        kept: list[ScanCylinder] = []
        covered: set[int] = set()
        significant = self.significant(alpha)
        if isinstance(significant, CylinderFamily):
            # a disk's later cylinders overlap whatever its first one left covered
            first = np.unique(significant.order // significant.t0.size, return_index=True)[1]
            significant = dataclasses.replace(significant, order=significant.order[np.sort(first)])
        for cyl in significant:
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


def _orders_from_coords(coords: np.ndarray) -> np.ndarray:
    """Per center (one row each): region indices by growing squared centroid distance.

    Distance ties keep index order; the center itself always comes first.
    """
    dx, dy = (coords[None] - coords[:, None]).transpose(2, 0, 1)
    d2 = dx**2 + dy**2
    np.fill_diagonal(d2, -1.0)  # pin each center to the front of its row
    return np.argsort(d2, axis=1, kind="stable")


def _disks_from_adjacency(nb: NeighborMatrix) -> tuple[np.ndarray, list[list[int]]]:
    """Per center: breadth-first ring order (padded with the center), and disk sizes by ring."""
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


def enumerate_cylinders(
    times: int,
    coords: np.ndarray | None = None,
    neighbors: NeighborMatrix | None = None,
    max_fraction: float = 0.5,
    region_baseline: np.ndarray | None = None,
) -> CylinderFamily:
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
        orders = _orders_from_coords(pts)
        disk_sizes = [range(1, len(pts) + 1)] * len(pts)
    else:
        orders, disk_sizes = _disks_from_adjacency(neighbors)
    n = len(orders)

    cap = None
    if region_baseline is not None:
        rb = np.asarray(region_baseline, dtype=float)
        if rb.shape != (n,) or np.any(rb < 0) or rb.sum() <= 0:
            raise InputError(
                f"region baseline must be {n} non-negative values with a positive sum",
                module="stscan",
            )
        cap = max_fraction * float(rb.sum())

    centers, sizes = [], []
    for c, (order, ks) in enumerate(zip(orders, disk_sizes)):
        for k in ks:
            if k > 1 and cap is not None and float(rb[order[:k]].sum()) > cap:
                break  # disks are nested, larger ones only grow
            centers.append(c)
            sizes.append(k)
    t0, t1 = np.triu_indices(times)
    centers, sizes = np.array([centers, sizes], np.intp)
    # no disk reads past the largest one, and so neither do the replica sums
    return CylinderFamily(orders[:, : sizes.max(initial=0)], centers, sizes, t0, t1)


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


def _check_covers(fam: CylinderFamily, matrix: np.ndarray, what: str) -> None:
    """Reject a family whose disks or windows reach outside a space-by-time matrix."""
    rows, steps = matrix.shape if matrix.ndim == 2 else (0, 0)
    if fam.orders.min() < 0 or fam.orders.max() >= rows or fam.t0.min() < 0 or fam.t1.max() >= steps:
        raise InputError(
            f"{what} shape {matrix.shape} does not cover the scanned cylinders", module="stscan"
        )


def scan(
    cases: np.ndarray,
    baseline: np.ndarray,
    candidates: CylinderFamily,
    elevated_only: bool = True,
    regions: Sequence[str] | None = None,
    times: Sequence[str] | None = None,
) -> ScanResult:
    """Score every cylinder of a family and rank them.

    Every disk crossed with every window is scored, whatever ranking the
    family carries. Ties sort the smaller member set first, then the lower
    center index, then the earlier window, which makes the ordering total
    and the output deterministic.
    """
    cases_m = np.asarray(cases, dtype=float)
    base_m = np.asarray(baseline, dtype=float)
    if cases_m.shape != base_m.shape or cases_m.ndim != 2:
        raise InputError(
            "cases and baseline must be equal-shape space-by-time matrices", module="stscan"
        )
    if not isinstance(candidates, CylinderFamily) or not len(candidates):
        raise InputError("candidates must be a non-empty CylinderFamily", module="stscan")
    _check_covers(candidates, cases_m, "matrix")
    c_total = float(cases_m.sum())
    b_total = float(base_m.sum())
    # NaN fails the comparison and an infinite cell makes its total infinite
    finite = math.isfinite(c_total + b_total)
    if not (finite and b_total > 0 and np.all(cases_m >= 0) and np.all(base_m >= 0)):
        raise InputError(
            "cells must be finite and non-negative with a positive baseline total", module="stscan"
        )

    fam = candidates
    counts = fam.cell_sums(cases_m)
    baselines = fam.cell_sums(base_m)
    scores = _scores(counts, baselines, c_total, b_total, elevated_only)
    disk, window = np.divmod(np.arange(scores.size), fam.t0.size)
    keys = (fam.t1[window], fam.t0[window], fam.centers[disk], fam.sizes[disk])
    order = np.lexsort((*keys, -scores))
    return ScanResult(
        cylinders=dataclasses.replace(
            fam, counts=counts, baselines=baselines, scores=scores, p_values=None, order=order
        ),
        c_total=c_total,
        b_total=b_total,
        elevated_only=elevated_only,
        regions=tuple(regions) if regions is not None else None,
        times=tuple(times) if times is not None else None,
    )


def monte_carlo_p(
    result: ScanResult, baseline: np.ndarray, replications: int, seed: int
) -> ScanResult:
    """Attach Monte Carlo p-values to a result from :func:`scan`.

    Replica case matrices are multinomial redistributions of the observed
    total over all cells with probabilities proportional to the baseline,
    which must be the same matrix the result was scanned against (the
    per-cylinder baselines are reused, not recomputed). Replica streams
    are spawned per replica index from the seed, so the outcome does not
    depend on evaluation order.
    """
    fam = result.cylinders
    if not isinstance(fam, CylinderFamily) or fam.scores is None:
        raise InputError("Monte Carlo p-values need a result from scan()", module="stscan")
    if replications < 1:
        raise InputError("need at least one replication", module="stscan")
    base_m = np.asarray(baseline, dtype=float)
    _check_covers(fam, base_m, "baseline")
    b_total = float(base_m.sum())
    if not (np.all(base_m >= 0) and 0 < b_total < math.inf):
        raise InputError(
            "baseline cells must be finite and non-negative with a positive total", module="stscan"
        )
    total = int(round(result.c_total))
    if abs(result.c_total - total) > 1e-9:
        raise InputError(
            "Monte Carlo randomization needs an integer case total", module="stscan"
        )

    probs = (base_m / b_total).ravel()
    totals = (result.c_total, result.b_total, result.elevated_only)
    streams = np.random.SeedSequence(seed).spawn(replications)
    maxima = np.empty(replications)
    # window sums from time prefix sums, disk sums along each order row: exact on integer draws
    cum = np.zeros((base_m.shape[0], base_m.shape[1] + 1))
    for i, ss in enumerate(streams):
        rng = np.random.default_rng(ss)
        np.cumsum(rng.multinomial(total, probs).reshape(base_m.shape), axis=1, out=cum[:, 1:])
        nested = (cum[:, fam.t1 + 1] - cum[:, fam.t0])[fam.orders]
        counts = np.cumsum(nested, axis=1, out=nested)[fam.centers, fam.sizes - 1].ravel()
        maxima[i] = _scores(counts, fam.baselines, *totals).max()

    maxima.sort()
    ge = replications - np.searchsorted(maxima, fam.scores, side="left")
    return dataclasses.replace(
        result,
        cylinders=dataclasses.replace(fam, p_values=(1 + ge) / (replications + 1)),
        replications=replications,
        seed=seed,
    )
