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
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError

if TYPE_CHECKING:
    from .eigenmatch import NeighborMatrix

# values one block of disk sums may hold, its gathered time prefixes or its
# window counts, whichever is more; bounds the replica loop's working set
_BLOCK = 1 << 20

# integers below this, and sums of them that stay below it, are exact in float64
_EXACT = 2.0**53

# a replica scores only counts that can reach this share of the smallest replica maximum
_FLOOR = 0.75


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
    index. ``maxima`` holds the sorted replica maxima, which price each row's
    p-value as it is built. The sequence runs in ``order`` (the ranking, once
    scanned), builds :class:`ScanCylinder` rows on access and slices to views.
    """

    orders: np.ndarray
    centers: np.ndarray
    sizes: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    counts: np.ndarray | None = None
    baselines: np.ndarray | None = None
    scores: np.ndarray | None = None
    maxima: np.ndarray | None = None
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
        columns = (self.counts, self.baselines, self.scores)
        values = [a if a is None else a[self.order] for a in columns]
        return _rows(self, self.order, *values, self.maxima)

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
        # bincount, not np.unique, which imports numpy.ma on every call
        for k in np.flatnonzero(np.bincount(self.sizes)).tolist():
            disks = np.flatnonzero(self.sizes == k)
            slab = matrix[self.orders[self.centers[disks], :k]]  # disks × k × T
            for w in np.flatnonzero(np.bincount(widths)).tolist():
                wins = np.flatnonzero(widths == w)
                # each (disk, window) block of k × w cells, copied once and
                # contiguous, in the order a per-cylinder sum reads them
                windows = sliding_window_view(slab, w, axis=2).transpose(0, 2, 1, 3)
                cells = windows[np.arange(disks.size)[:, None], self.t0[wins]].reshape(-1, k, w)
                step = k if w in (1, matrix.shape[1]) else max(1, np.getbufsize() // w)
                sums = cells[:, :step].sum(axis=(1, 2))
                for s in range(step, k, step):
                    sums += cells[:, s : s + step].sum(axis=(1, 2))
                out[np.ix_(disks, wins)] = sums.reshape(disks.size, wins.size)
        return out.ravel()

    def blocks(self) -> list[tuple[slice, np.ndarray, tuple[np.ndarray, np.ndarray]]]:
        """Runs of whole centers, each holding at most ``_BLOCK`` values (or one center).

        A run is a stretch of consecutive disks around one center. Each block
        gives its disks, its centers' order rows step-major (steps × centers,
        cut to its largest disk) and each disk's (step, center) in them. A
        center takes the larger of its gather of time prefix sums (its order
        row × (T + 1)) and its window counts (at most one disk per step × W);
        from two time steps on that is the counts, as W = T (T + 1) / 2.
        """
        centers = self.centers
        new_run = np.r_[True, centers[1:] != centers[:-1]]
        starts, run = np.flatnonzero(new_run), np.cumsum(new_run) - 1
        per_center = self.orders.shape[1] * max(self.t0.size, self.t1.max() + 2)  # W or T + 1
        per_block = max(1, _BLOCK // per_center)
        bounds = [*starts[::per_block].tolist(), centers.size]
        out = []
        for b, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            firsts = starts[b * per_block : (b + 1) * per_block]
            steps = self.sizes[lo:hi] - 1
            rows = self.orders[centers[firsts], : steps.max() + 1].T
            out.append((slice(lo, hi), rows, (steps, run[lo:hi] - b * per_block)))
        return out


def _rows(
    fam: CylinderFamily,
    cylinders: np.ndarray,
    counts: np.ndarray | None,
    baselines: np.ndarray | None,
    scores: np.ndarray | None,
    maxima: np.ndarray | None,
) -> Iterator[ScanCylinder]:
    """Rows of the family's cylinders at indices ``cylinders``.

    ``counts``, ``baselines`` and ``scores`` run alongside ``cylinders`` (0.0
    where one is None), and the sorted ``maxima``, if any, price each p-value.
    """
    disk, window = np.divmod(cylinders, fam.t0.size)
    disks = zip(fam.centers[disk].tolist(), fam.sizes[disk].tolist())
    spans = zip(fam.t0[window].tolist(), fam.t1[window].tolist())
    columns = [
        itertools.repeat(0.0) if a is None else a.tolist() for a in (counts, baselines, scores)
    ]
    priced = itertools.repeat(None) if maxima is None else _p_values(maxima, scores).tolist()
    for (c, k), span, *values in zip(disks, spans, *columns, priced):
        yield ScanCylinder(c, tuple(fam.orders[c, :k].tolist()), span, *values)


def _p_values(maxima: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """(1 + #{maxima >= score}) / (R + 1) for the sorted ``maxima``: integers, then one division."""
    r = maxima.size + 1
    return (r - np.searchsorted(maxima, scores)) / r


def _first_per_disk(cylinders: np.ndarray, windows: int) -> np.ndarray:
    """Positions in ``cylinders`` of each disk's first cylinder, in their order."""
    return np.sort(np.unique(cylinders // windows, return_index=True)[1])


def _disjoint(ranked: Iterable[ScanCylinder]) -> tuple[ScanCylinder, ...]:
    """The rows whose region sets miss those of every better row kept before them."""
    kept: list[ScanCylinder] = []
    covered: set[int] = set()
    for cyl in ranked:
        if covered.isdisjoint(cyl.members):
            kept.append(cyl)
            covered.update(cyl.members)
    return tuple(kept)


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Ranked cylinders plus run metadata.

    The cylinders are the family from :func:`scan`, or the rows a document
    holds: read back, or from :func:`monte_carlo_scan`.
    """

    cylinders: Sequence[ScanCylinder]
    c_total: float
    b_total: float
    elevated_only: bool = True
    replications: int = 0
    seed: int | None = None
    regions: tuple[str, ...] | None = None
    times: tuple[str, ...] | None = None
    # read-only copy of the scanned baseline matrix, for the replicas; None for rows
    baseline: np.ndarray | None = None
    # for rows: the document's alpha, and the significant clusters and the
    # count of significant cylinders it records at it
    alpha: float | None = None
    clusters: tuple[ScanCylinder, ...] = ()
    significant_total: int | None = None

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
        region set is disjoint from every better one already kept. A result
        of rows with an ``alpha`` gives the clusters its document records,
        chosen from every cylinder, and raises :class:`InputError` at any other.
        """
        if self.alpha is not None:
            if alpha != self.alpha:
                raise InputError(
                    f"alpha {alpha} differs from the scan's alpha {self.alpha}", module="stscan"
                )
            return self.clusters
        significant = self.significant(alpha)
        if isinstance(significant, CylinderFamily):
            # a disk's later cylinders overlap whatever its first one left covered
            order = significant.order
            significant = dataclasses.replace(
                significant, order=order[_first_per_disk(order, significant.t0.size)]
            )
        return _disjoint(significant)


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
    """Per center: breadth-first ring order (padded with the center), and disk sizes by ring.

    Every center's search advances one ring per step: the frontier holds
    (center, region) pairs and grows over the regions' neighbour lists. Ring
    order is then one stable sort of each center's hop counts, so a ring
    keeps index order.
    """
    n = nb.n
    degree = nb.adjacency.sum(axis=1)
    start = np.cumsum(degree) - degree  # neighbours of i: nbrs[start[i]:start[i] + degree[i]]
    nbrs = np.nonzero(nb.adjacency)[1]
    hops = np.full(n * n, n, dtype=np.int32)  # [c * n + r]: rings from c out to r; n if never
    pairs = np.arange(n) * (n + 1)  # the frontier's (center, region) pairs, as c * n + r
    hops[pairs] = 0
    for ring in range(1, n):
        region = pairs % n
        deg = degree[region]
        ends = np.cumsum(deg)
        # where each frontier region's neighbours sit in nbrs, one run per pair
        at = np.arange(ends[-1]) + np.repeat(start[region] - ends + deg, deg)
        reached = np.repeat(pairs - region, deg) + nbrs[at]
        reached = np.sort(reached[hops[reached] == n])
        pairs = reached[np.diff(reached, prepend=-1) != 0]
        if not pairs.size:
            break
        hops[pairs] = ring
    hops = hops.reshape(n, n)
    order = np.argsort(hops, axis=1, kind="stable")
    known = (hops < n).sum(axis=1, keepdims=True)
    order = np.where(np.arange(n) < known, order, np.arange(n)[:, None])
    disk_sizes = [np.cumsum(np.bincount(h[h < n])).tolist() for h in hops]
    return order, disk_sizes


def check_max_fraction(max_fraction: float) -> None:
    """Reject a disk cap outside (0, 0.5], as :func:`enumerate_cylinders` does."""
    if not 0 < max_fraction <= 0.5:
        raise InputError("max_fraction must lie in (0, 0.5]", module="stscan")


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
    check_max_fraction(max_fraction)
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


def _disk_sums(
    matrix: np.ndarray, total: float, fam: CylinderFamily, blocks: list
) -> Iterator[tuple[slice, np.ndarray]]:
    """Per block of :meth:`CylinderFamily.blocks`: its disks and their counts over every window.

    ``matrix`` holds whole numbers that add up to ``total``. Each region's
    time prefix sums (regions × (T + 1), zero first column) are integers,
    int32 when ``total`` is below 2**31 and int64 otherwise, so no sum a
    disk reads can overflow. A block gathers them along its order rows
    (steps × centers × (T + 1)), adds each step into the next, reads disk
    ``d``'s prefix row at step ``sizes[d] - 1`` and forms each window
    ``(t0, t1)`` as ``prefix[t1 + 1] - prefix[t0]``, disks × windows in the
    family's order, in the prefixes' type. Integer sums are exact, so each
    count equals a sum in any other order. Steps past a row's last disk
    repeat its center and may wrap; no disk reads them.
    """
    whole = np.int32 if total < 2**31 else np.int64
    prefix = np.zeros((matrix.shape[0], matrix.shape[1] + 1), whole)
    np.cumsum(matrix, axis=1, dtype=whole, out=prefix[:, 1:])
    for disks, rows, at in blocks:
        nested = prefix.take(rows, axis=0)
        for j in range(1, len(nested)):
            np.add(nested[j - 1], nested[j], out=nested[j])
        # window-major, so that each window is one subtraction of whole rows
        ends = nested[at].T.copy()
        del nested
        counts = ends[fam.t1 + 1]
        counts -= ends[fam.t0]
        yield disks, np.ascontiguousarray(counts.T)


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
    if np.any(included & (c_total - counts > 0) & (b_total - baselines <= 0)):
        raise InputError(
            "cylinder covers the whole baseline but not all cases; "
            "the score is unbounded",
            module="stscan",
        )
    return np.where(included, _llr(counts, baselines, c_total, b_total), 0.0)


def _llr(counts: np.ndarray, baselines: np.ndarray, c_total: float, b_total: float) -> np.ndarray:
    """The unmasked log likelihood ratio of every cylinder, unchecked."""
    rest = c_total - counts
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = np.where(counts > 0, counts * np.log(counts / baselines), 0.0)
        outside = np.where(rest > 0, rest * np.log(rest / (b_total - baselines)), 0.0)
    return inside + outside


def _count_bounds(
    baselines: np.ndarray, c_total: float, b_total: float, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per cylinder, bounds ``(lo, hi)`` such that no count ``lo < C < hi`` reaches ``tau``.

    ln x <= x - 1 on both terms of the score gives
    llr(C, B) <= U = C²/B + (N - C)²/(Bt - B) - N, a parabola in C with its
    minimum at C = N B / Bt, which equals ``tau`` at
    C = (N B ± sqrt(B (Bt - B) (Bt (N + tau) - N²))) / Bt. The roots are
    taken for ``tau`` less 1e-12 (|tau| + N + Bt), far more than the
    rounding error of :func:`_llr`, and each moves toward the other by 1e-9
    of the upper root, against their own rounding. Where a root is not
    finite (B = 0, B >= Bt, or U above ``tau`` everywhere) both bounds are
    -inf, which keeps every count.
    """
    n, bt = c_total, b_total
    target = tau - 1e-12 * (abs(tau) + n + bt)
    # in place where it can be: a replica's peak memory is often here
    with np.errstate(invalid="ignore", over="ignore"):
        rest = bt - baselines
        half = baselines * rest
        half[~((baselines > 0) & (rest > 0))] = np.nan
        del rest
        half *= bt * (n + target) - n * n
        np.sqrt(half, out=half)
        half /= bt
        mid = baselines * (n / bt)
        margin = mid + half
        margin *= 1e-9
        lo = mid - half
        lo += margin
        hi = np.add(mid, half, out=mid)
        hi -= margin
    lo[~np.isfinite(lo)] = -np.inf
    hi[~np.isfinite(hi)] = -np.inf
    return lo, hi


def _kept(counts: np.ndarray, lo: np.ndarray | None, hi: np.ndarray) -> np.ndarray:
    """Positions of the counts that a block's bounds keep: ``C >= hi``, or ``C <= lo`` if given."""
    keep = counts >= hi
    if lo is not None:
        keep |= counts <= lo
    return np.flatnonzero(keep)


def _bounds(
    baselines: np.ndarray,
    blocks: list,
    tau: float,
    c_total: float,
    b_total: float,
    elevated_only: bool,
) -> list[tuple[np.ndarray | None, np.ndarray]]:
    """Per block, the roots of :func:`_count_bounds` at ``tau`` as whole-count thresholds.

    Counts are whole: C >= hi exactly when C >= ceil(hi), and C <= lo when
    C <= floor(lo); -1 and N + 1 stand for anything past an end. ``lo`` is
    None with elevated-only scoring, where only the upper bound applies.
    """
    whole = np.int32 if c_total + 1 < 2**31 else np.int64
    out = []
    for disks, _, _ in blocks:
        lo, hi = _count_bounds(baselines[disks].ravel(), c_total, b_total, tau)
        hi = np.clip(np.ceil(hi, out=hi), -1, c_total + 1, out=hi).astype(whole)
        if not elevated_only:
            lo = np.clip(np.floor(lo, out=lo), -1, c_total + 1, out=lo).astype(whole)
        out.append((None if elevated_only else lo, hi))
    return out


def _replica_max(
    draw: np.ndarray,
    fam: CylinderFamily,
    blocks: list,
    baselines: np.ndarray,
    c_total: float,
    b_total: float,
    elevated_only: bool,
    bounds: list | None = None,
) -> float:
    """One replica's maximum score, block by block; with ``bounds``, over the counts they keep.

    ``draw`` is the replica's case matrix and ``baselines`` the family's
    (disks × windows). ``bounds`` holds one ``(lo, hi)`` per block from
    :func:`_bounds`; a count is kept when ``C >= hi`` or ``C <= lo``.
    """
    best = -math.inf
    for b, (disks, counts) in enumerate(_disk_sums(draw, c_total, fam, blocks)):
        c, base = counts.ravel(), baselines[disks].ravel()
        if bounds is not None:
            keep = _kept(c, *bounds[b])
            c, base = c[keep], base[keep]
        if elevated_only:
            # the rest score 0, and only the maximum is kept
            hot = np.flatnonzero(c * b_total > base * c_total)
            if hot.size < c.size:
                best = max(best, 0.0)
            c, base = c[hot], base[hot]
        best = _llr(c, base, c_total, b_total).max(initial=best)
    return best


def _replicas(
    fam: CylinderFamily,
    blocks: list,
    base_m: np.ndarray,
    baselines: np.ndarray,
    c_total: float,
    b_total: float,
    elevated_only: bool,
    replications: int,
    seed: int,
) -> tuple[np.ndarray, float, list | None]:
    """The replica loop of :func:`monte_carlo_p`: sorted maxima, the last floor and its bounds.

    The bounds are None when no replica needed them after the floor last
    fell. A floor only falls, to ``_FLOOR`` times a maximum below it, so when
    the last floor is above 0 every maximum is at or above it.
    """
    probs = (base_m / b_total).ravel()
    try:
        maxima = np.empty(replications)
    except (ValueError, MemoryError):  # past numpy's largest array, or past memory
        raise InputError(f"cannot hold {replications} replica maxima", module="stscan") from None
    tau, bounds = math.nan, None  # the floor (NaN before the first replica) and its bounds
    totals = (c_total, b_total, elevated_only)
    for i in range(replications):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        draw = rng.multinomial(int(c_total), probs).reshape(base_m.shape)
        best = math.nan
        if tau > 0:
            if bounds is None:
                bounds = _bounds(baselines, blocks, tau, *totals)
            best = _replica_max(draw, fam, blocks, baselines, *totals, bounds)
        if not best >= tau:
            best = _replica_max(draw, fam, blocks, baselines, *totals)
            if not best >= tau:
                tau, bounds = _FLOOR * best, None
        if not math.isfinite(best):
            # a cylinder whose baseline sum reaches the total but misses a drawn case
            raise InputError(
                "cylinder covers the whole baseline but not all cases; "
                "the score is unbounded",
                module="stscan",
            )
        maxima[i] = best
    maxima.sort()
    return maxima, tau, bounds


def _observed(
    matrix: np.ndarray,
    c_total: float,
    fam: CylinderFamily,
    blocks: list,
    bounds: list | None = None,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Observed counts as floats: of every cylinder, or of those that ``bounds`` keep.

    ``bounds`` are per block, as :func:`_bounds` gives them. The indices of
    the kept cylinders, ascending, come first; None for every cylinder.
    """
    kept, counts = [], []
    for b, (disks, sums) in enumerate(_disk_sums(matrix, c_total, fam, blocks)):
        sums = sums.ravel()
        if bounds is not None:
            keep = _kept(sums, *bounds[b])
            kept.append(keep + disks.start * fam.t0.size)
            sums = sums[keep]
        counts.append(sums)
    return (np.concatenate(kept) if kept else None), np.concatenate(counts, dtype=float)


def _ranking(fam: CylinderFamily, scores: np.ndarray, kept: np.ndarray | None = None) -> np.ndarray:
    """Positions in ``scores`` by descending score, ties in layout order.

    ``scores`` belong to every cylinder, or to the ``kept`` cylinder indices.
    The layout lists every cylinder in tie order: the disks by size, then
    center, each crossed with the windows by ``t0``, then ``t1``. One stable
    sort by score over the layout keeps that order among equal scores.
    """
    per_disk = fam.t0.size
    disks, windows = np.lexsort((fam.centers, fam.sizes)), np.lexsort((fam.t1, fam.t0))
    if kept is None:
        layout = (disks[:, None] * per_disk + windows).ravel()
    else:
        # each kept cylinder's place in the layout, from its disk's and its window's
        disk, window = np.divmod(kept, per_disk)
        layout = np.argsort(np.argsort(disks)[disk] * per_disk + np.argsort(windows)[window])
    return layout[np.argsort(-scores[layout], kind="stable")]


def _check_covers(fam: CylinderFamily, matrix: np.ndarray) -> None:
    """Reject a family whose disks or windows reach outside a space-by-time matrix."""
    rows, steps = matrix.shape
    if fam.orders.min() < 0 or fam.orders.max() >= rows or fam.t0.min() < 0 or fam.t1.max() >= steps:
        raise InputError(
            f"matrix shape {matrix.shape} does not cover the scanned cylinders", module="stscan"
        )


def _checked(
    cases: np.ndarray, baseline: np.ndarray, candidates: CylinderFamily
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The case matrix, a read-only copy of the baseline and both totals, checked for a scan."""
    cases_m = np.asarray(cases, dtype=float)
    base_m = np.array(baseline, dtype=float)
    base_m.setflags(write=False)
    if cases_m.shape != base_m.shape or cases_m.ndim != 2:
        raise InputError(
            "cases and baseline must be equal-shape space-by-time matrices", module="stscan"
        )
    if not isinstance(candidates, CylinderFamily) or not len(candidates):
        raise InputError("candidates must be a non-empty CylinderFamily", module="stscan")
    _check_covers(candidates, cases_m)
    c_total = float(cases_m.sum())
    b_total = float(base_m.sum())
    # NaN fails the comparison and an infinite cell makes its total infinite
    finite = math.isfinite(c_total + b_total)
    if not (finite and b_total > 0 and np.all(cases_m >= 0) and np.all(base_m >= 0)):
        raise InputError(
            "cells must be finite and non-negative with a positive baseline total", module="stscan"
        )
    if not (c_total < _EXACT and np.array_equal(cases_m, np.trunc(cases_m))):
        raise InputError(
            "case cells must be whole numbers with a total below 2**53", module="stscan"
        )
    return cases_m, base_m, c_total, b_total


def scan(
    cases: np.ndarray,
    baseline: np.ndarray,
    candidates: CylinderFamily,
    elevated_only: bool = True,
    regions: Sequence[str] | None = None,
    times: Sequence[str] | None = None,
) -> ScanResult:
    """Score every cylinder of a family and rank them.

    Case cells must be whole numbers with a total below 2**53, the counts
    the Poisson statistic is defined on; their disk sums are then exact.
    Every disk crossed with every window is scored, whatever ranking the
    family carries. Ties sort the smaller member set first, then the lower
    center index, then the earlier window: every cylinder is listed in that
    order and one stable sort by score runs over the list, so the ordering
    is total and the output deterministic. The result keeps a read-only
    copy of the baseline, which :func:`monte_carlo_p` draws replicas from.
    """
    cases_m, base_m, c_total, b_total = _checked(cases, baseline, candidates)
    fam = candidates
    _, counts = _observed(cases_m, c_total, fam, fam.blocks())
    baselines = fam.cell_sums(base_m)
    scores = _scores(counts, baselines, c_total, b_total, elevated_only)
    return ScanResult(
        cylinders=dataclasses.replace(
            fam, counts=counts, baselines=baselines, scores=scores, maxima=None,
            order=_ranking(fam, scores),
        ),
        c_total=c_total,
        b_total=b_total,
        elevated_only=elevated_only,
        regions=tuple(regions) if regions is not None else None,
        times=tuple(times) if times is not None else None,
        baseline=base_m,
    )


def check_replications(replications: int, seed: int) -> None:
    """Reject fewer than one replication or a negative seed, as :func:`monte_carlo_p` does."""
    if replications < 1:
        raise InputError("need at least one replication", module="stscan")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}", module="stscan")


def monte_carlo_p(result: ScanResult, replications: int, seed: int) -> ScanResult:
    """Attach Monte Carlo p-values to a result from :func:`scan`, as sorted replica ``maxima``.

    Replica case matrices are multinomial redistributions of the observed
    total over all cells with probabilities proportional to the baseline
    the result was scanned against, so a replica puts no case where that
    baseline is zero. Replica ``i`` draws from ``SeedSequence(seed,
    spawn_key=(i,))``, the stream ``SeedSequence(seed).spawn(replications)[i]``
    gives, made in its turn: the outcome does not depend on evaluation
    order, and no stream is held past its replica. A replica sums one block
    of centers at a time (:meth:`CylinderFamily.blocks`) from its integer
    time prefixes, which is exact (:func:`_disk_sums`), and keeps only its
    maximum score.

    The first replica is scored in full and sets a floor of ``_FLOOR`` times
    its maximum. Later replicas score only the counts that can reach the
    floor (:func:`_count_bounds`); a best score at or above the floor is then
    the replica's exact maximum. A replica whose best falls below the floor,
    or is NaN, is scored again in full, and its maximum sets the new floor.
    At a floor of 0 or below nothing is left out.
    """
    fam = result.cylinders
    if result.baseline is None or not isinstance(fam, CylinderFamily) or fam.scores is None:
        raise InputError("Monte Carlo p-values need a result from scan()", module="stscan")
    check_replications(replications, seed)
    maxima, _, _ = _replicas(
        fam, fam.blocks(), result.baseline, fam.baselines.reshape(-1, fam.t0.size),
        result.c_total, result.b_total, result.elevated_only, replications, seed,
    )
    return dataclasses.replace(
        result,
        cylinders=dataclasses.replace(fam, maxima=maxima),
        replications=replications,
        seed=seed,
    )


def monte_carlo_scan(
    cases: np.ndarray,
    baseline: np.ndarray,
    candidates: CylinderFamily,
    replications: int,
    seed: int,
    elevated_only: bool = True,
    alpha: float = 0.05,
    top: int = 100,
    regions: Sequence[str] | None = None,
    times: Sequence[str] | None = None,
) -> ScanResult:
    """:func:`scan` and :func:`monte_carlo_p` in one flow, kept to what a document holds.

    The result holds the ``top`` best rows, priced, the count of cylinders
    with p <= ``alpha`` and their clusters, as a document read back does, and
    :func:`~eigenspot.dataio.scan_to_dict` writes it at ``alpha`` and ``top``
    in the same bytes as ``monte_carlo_p(scan(...), replications, seed)``.
    The arguments are checked as those functions and ``scan_to_dict`` check
    them, and the same errors are raised, the observed scan's before any
    replica.

    The replicas run first, on the baselines alone. When their last floor τ
    is above 0, every maximum is at or above it, so a cylinder with
    p <= ``alpha`` < 1 scores above τ. One pass over the observed counts then
    keeps only those that τ's bounds keep, which include every count that
    scores τ or more, and only those are scored and ranked. If fewer than
    ``top`` of them score τ or more, a second pass keeps the counts that can
    reach the ``top``-th best score of the first: the best ``top`` of any
    subset score no more than the family's. Every cylinder is scored and
    ranked, as :func:`scan` does, at ``alpha`` = 1, at a floor or a cut of 0
    or below, and when the first pass keeps fewer than ``top`` cylinders.
    """
    from .dataio import check_scan_options  # loaded by any caller that writes the document

    cases_m, base_m, c_total, b_total = _checked(cases, baseline, candidates)
    check_replications(replications, seed)
    check_scan_options(alpha, top)
    fam = candidates
    blocks = fam.blocks()
    baselines = fam.cell_sums(base_m).reshape(-1, fam.t0.size)
    totals = (c_total, b_total, elevated_only)
    # only a cylinder with no baseline or all of it can be refused a score:
    # score those first, so that the observed scan's errors come before any
    # replica, as scan raises them
    edge = (baselines == 0) | (baselines >= b_total)
    if edge.any():
        sums = [s[edge[disks]] for disks, s in _disk_sums(cases_m, c_total, fam, blocks)]
        _scores(np.concatenate(sums, dtype=float), baselines[edge], *totals)
    del edge
    maxima, tau, bounds = _replicas(fam, blocks, base_m, baselines, *totals, replications, seed)

    def observe(bounds: list | None) -> tuple:
        """The kept cylinders (None for all), and their counts, baselines and scores."""
        kept, counts = _observed(cases_m, c_total, fam, blocks, bounds)
        base = baselines.ravel() if kept is None else baselines.ravel()[kept]
        return kept, counts, base, _scores(counts, base, *totals)

    kept = None
    if alpha < 1 and tau > 0:
        if bounds is None:
            bounds = _bounds(baselines, blocks, tau, *totals)
        kept, counts, base, scores = observe(bounds)
        bounds = None
        if kept.size < top:
            kept = None
        elif np.count_nonzero(scores >= tau) < top:
            cut = float(np.partition(scores, kept.size - top)[kept.size - top])
            kept = None
            if cut > 0:
                kept, counts, base, scores = observe(_bounds(baselines, blocks, cut, *totals))
    if kept is None:
        bounds = None
        kept, counts, base, scores = observe(None)

    rank = _ranking(fam, scores, kept)
    ranked = rank if kept is None else kept[rank]  # cylinder indices, best first
    total = int(np.count_nonzero(_p_values(maxima, scores) <= alpha))

    def rows(at) -> Iterator[ScanCylinder]:
        """Rows of the cylinders at ranks ``at``, an index array or a slice."""
        scored = rank[at]
        return _rows(fam, ranked[at], counts[scored], base[scored], scores[scored], maxima)

    return ScanResult(
        cylinders=tuple(rows(slice(top))),
        c_total=c_total,
        b_total=b_total,
        elevated_only=elevated_only,
        replications=replications,
        seed=seed,
        regions=tuple(regions) if regions is not None else None,
        times=tuple(times) if times is not None else None,
        alpha=alpha,
        # a disk's later cylinders overlap whatever its first one left covered
        clusters=_disjoint(rows(_first_per_disk(ranked[:total], fam.t0.size))),
        significant_total=total,
    )
