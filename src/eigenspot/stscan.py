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

A cylinder's baseline is defined as the sum of its cells in the order
``matrix[members][:, t0:t1+1].sum()`` adds them (:meth:`CylinderFamily.cell_sums`).
:func:`scan` and :func:`monte_carlo_p`, the reference chain, score every
cylinder on that definition. :func:`monte_carlo_scan`, the command's flow,
writes the same document from fast baselines, each within a proven bound
of its definition (:mod:`eigenspot.sums`), and sums cells in the
definition's order only for the cylinders whose decisions the bound cannot
settle.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError
from .sums import _SLICE, _FastBaselines, _disk_sums, _intervals
from .sums import cell_sums as _cell_sums

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
class CylinderFamily:
    """Every spatial disk crossed with every time window, held as arrays.

    Disk ``d`` is ``orders[centers[d], :sizes[d]]``: a center's nested disks
    are prefixes of its one order row, center first. Cylinder ``i`` is disk
    ``i // W`` over window ``i % W``. The family holds geometry only;
    :func:`scan` scores it.
    """

    orders: np.ndarray
    centers: np.ndarray
    sizes: np.ndarray
    t0: np.ndarray
    t1: np.ndarray

    # the benchmark's tracer counts the cylinders with len() and their member
    # references over unscored rows in index order, until it counts them from
    # the arrays (ROADMAP item 5)
    def __len__(self) -> int:
        return self.sizes.size * self.t0.size

    def __iter__(self) -> Iterator[ScanCylinder]:
        return _rows(self, np.arange(len(self)))

    def cell_sums(self, matrix: np.ndarray, cylinders: np.ndarray | None = None) -> np.ndarray:
        """Per-cylinder sums that add cells as ``matrix[members][:, t0:t1+1].sum()`` does.

        The sums of every cylinder in index order, or of the cylinder
        indices ``cylinders``, in their order. Each cylinder's k × w cells
        are copied out contiguous, in the order a per-cylinder sum reads
        them, and added as :func:`_cell_order_sums` adds them; a sum reads
        its own cells alone, so it does not depend on which others are
        summed with it. The whole family goes by disk size, in runs of disks
        whose member rows (disks × k × T) and window blocks of any one width
        hold at most ``_BLOCK`` values (or one disk). The indices go by
        (disk size, window width), gathered straight from ``matrix`` in runs
        of at most ``_BLOCK`` cells (or one cylinder).
        """
        return _cell_sums(self, matrix, cylinders, _BLOCK)

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


def _rows(fam: CylinderFamily, cylinders: np.ndarray, *columns: Iterable) -> Iterator[ScanCylinder]:
    """Rows of the family's cylinders at indices ``cylinders``.

    ``columns`` (counts, baselines, scores and p-values, in that order, as
    many as given) run alongside ``cylinders``.
    """
    disk, window = np.divmod(cylinders, fam.t0.size)
    disks = zip(fam.centers[disk].tolist(), fam.sizes[disk].tolist())
    spans = zip(fam.t0[window].tolist(), fam.t1[window].tolist())
    for (c, k), span, *values in zip(disks, spans, *columns):
        yield ScanCylinder(c, tuple(fam.orders[c, :k].tolist()), span, *values)




def _p_values(maxima: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """(1 + #{maxima >= score}) / (R + 1) for the sorted ``maxima``: integers, then one division."""
    r = maxima.size + 1
    return (r - np.searchsorted(maxima, scores)) / r


def _first_per_disk(cylinders: np.ndarray, windows: int) -> np.ndarray:
    """Positions in ``cylinders`` of each disk's first cylinder, in their order."""
    return np.sort(np.unique(cylinders // windows, return_index=True)[1])


def _disjoint(ranked: Iterable[Iterable[int]]) -> list[int]:
    """Positions in ``ranked``, region sets best first, of those that miss every better one kept before them."""
    kept: list[int] = []
    covered: set[int] = set()
    for at, members in enumerate(ranked):
        if covered.isdisjoint(members):
            kept.append(at)
            covered.update(members)
    return kept


@dataclass(frozen=True, eq=False)
class ScanResult:
    """The ranked rows a scan document holds, and the run's metadata.

    ``cylinders`` are the best rows, best first, cut to ``top`` (every row
    at None). At its ``alpha`` the result records ``significant_total``, the
    count of cylinders with p <= ``alpha`` among every cylinder, and their
    non-overlapping ``clusters``. A computed result
    (:meth:`ScoredFamily.result`) always records them; a document read back
    records them when it has an ``alpha``.
    """

    cylinders: tuple[ScanCylinder, ...]
    c_total: float
    b_total: float
    elevated_only: bool = True
    replications: int = 0
    seed: int | None = None
    regions: tuple[str, ...] | None = None
    times: tuple[str, ...] | None = None
    alpha: float | None = None
    clusters: tuple[ScanCylinder, ...] = ()
    significant_total: int | None = None
    top: int | None = None

    def significant_clusters(self, alpha: float = 0.05) -> tuple[ScanCylinder, ...]:
        """Non-overlapping significant cylinders, best first.

        Nested disks make thousands of cylinders significant around one
        hot block; the conventional report keeps a cylinder only when its
        region set is disjoint from every better one already kept. A result
        with an ``alpha`` gives the clusters it records, chosen from every
        cylinder, and raises :class:`InputError` at any other. A document
        read back without one gives the clusters among its rows with
        p <= ``alpha``, a prefix of them, as p never falls along the ranking.
        """
        if self.alpha is None:
            rows = tuple(itertools.takewhile(
                lambda c: c.p_value is not None and c.p_value <= alpha, self.cylinders
            ))
            return tuple(rows[at] for at in _disjoint(c.members for c in rows))
        if alpha != self.alpha:
            raise InputError(
                f"alpha {alpha} differs from the scan's alpha {self.alpha}", module="stscan"
            )
        return self.clusters


@dataclass(frozen=True, eq=False)
class ScoredFamily:
    """A family's observed counts, baselines and scores, as arrays.

    The arrays run over every cylinder in index order (``kept`` None, as
    :func:`scan` gives them) or over the ``kept`` cylinder indices,
    ascending. ``matrix`` is a read-only copy of the scanned baseline, which
    :func:`monte_carlo_p` draws replicas from; ``maxima`` are their sorted
    maxima, which price each p-value, and None before any replica.
    """

    family: CylinderFamily
    kept: np.ndarray | None
    counts: np.ndarray
    baselines: np.ndarray
    scores: np.ndarray
    c_total: float
    b_total: float
    elevated_only: bool
    matrix: np.ndarray
    regions: tuple[str, ...] | None = None
    times: tuple[str, ...] | None = None
    maxima: np.ndarray | None = None
    replications: int = 0
    seed: int | None = None

    def result(self, alpha: float = 0.05, top: int | None = 100) -> ScanResult:
        """What a document at ``alpha`` and ``top`` holds; every computed result is built here.

        The rows are the ``top`` best (all of them at None), priced from the
        maxima (None without), by descending score with ties in layout order
        (:func:`_ranking`). ``significant_total`` counts the scored cylinders
        with p <= ``alpha``, none without maxima, and the clusters are chosen
        from them.
        """
        from .dataio import check_scan_options  # loaded by any caller that writes the document

        check_scan_options(alpha, top)
        fam, kept, scores, maxima = self.family, self.kept, self.scores, self.maxima
        rank = _ranking(fam, scores, kept)
        ranked = rank if kept is None else kept[rank]  # cylinder indices, best first
        total = 0 if maxima is None else int(np.count_nonzero(_p_values(maxima, scores) <= alpha))

        def rows(at) -> Iterator[ScanCylinder]:
            """Rows of the cylinders at ranks ``at``, an index array or a slice."""
            scored = rank[at]
            values = [a[scored].tolist() for a in (self.counts, self.baselines, scores)]
            if maxima is not None:
                values.append(_p_values(maxima, scores[scored]).tolist())
            return _rows(fam, ranked[at], *values)

        # a disk's later cylinders overlap whatever its first one left covered
        firsts = tuple(rows(_first_per_disk(ranked[:total], fam.t0.size)))
        return ScanResult(
            cylinders=tuple(rows(slice(top))),
            c_total=self.c_total,
            b_total=self.b_total,
            elevated_only=self.elevated_only,
            replications=self.replications,
            seed=self.seed,
            regions=self.regions,
            times=self.times,
            alpha=alpha,
            clusters=tuple(firsts[at] for at in _disjoint(c.members for c in firsts)),
            significant_total=total,
            top=top,
        )


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


def _scores(
    counts: np.ndarray,
    baselines: np.ndarray,
    c_total: float,
    b_total: float,
    elevated_only: bool,
) -> np.ndarray:
    """:func:`score` for many cylinders at once, in slices of ``_SLICE``."""
    if np.any((baselines == 0) & (counts > 0)):
        raise InputError(
            "zero baseline with positive count gives an infinite rate", module="stscan"
        )
    out = np.empty(counts.size)
    for s in range(0, counts.size, _SLICE):
        c, b = counts[s : s + _SLICE], baselines[s : s + _SLICE]
        included = (c * b_total > b * c_total) | (not elevated_only)
        if np.any(included & (c < c_total) & (b >= b_total)):
            raise InputError(
                "cylinder covers the whole baseline but not all cases; "
                "the score is unbounded",
                module="stscan",
            )
        out[s : s + _SLICE] = np.where(included, _llr(c, b, c_total, b_total), 0.0)
    return out


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
    fast: _FastBaselines | None = None,
) -> list[tuple[np.ndarray | None, np.ndarray]]:
    """Per block, the roots of :func:`_count_bounds` at ``tau`` as whole-count thresholds.

    Counts are whole: C >= hi exactly when C >= ceil(hi), and C <= lo when
    C <= floor(lo); -1 and N + 1 stand for anything past an end. ``lo`` is
    None with elevated-only scoring, where only the upper bound applies.
    The roots are formed in slices of ``_SLICE`` cylinders.

    With ``fast``, whose values ``baselines`` are, the roots are taken at
    ``tau`` less Δ = N ``fast.spread`` + 1e-12 (|tau| + N + 2 B_tot), at
    least the slack (:func:`_intervals`) of any count scoring below ``tau``,
    as a score is at least -B_tot. A count strictly between them scores
    below tau - Δ on F, so below ``tau`` on D. With elevated-only scoring a
    count at or below the lower root sits below parity on F; if it is above
    parity on D, it lies between the two parities, where the convex score
    is at most its value at one of them: at D's, N ln(N / B_tot), which is
    at most the parabola's vertex, below tau - Δ where there are roots; at
    F's, within Δ of that same value on F. Either way it scores below
    ``tau``, so the thresholds keep every count whose definition score
    reaches ``tau``.
    """
    whole = np.int32 if c_total + 1 < 2**31 else np.int64
    if fast is not None:
        tau = tau - fast.spread * c_total - 1e-12 * (abs(tau) + c_total + 2 * b_total)
    out = []
    for disks, _, _ in blocks:
        flat = baselines[disks].reshape(-1)
        hi = np.empty(flat.size, whole)
        lo = None if elevated_only else np.empty(flat.size, whole)
        for s in range(0, flat.size, _SLICE):
            at = slice(s, s + _SLICE)
            low, high = _count_bounds(flat[at], c_total, b_total, tau)
            hi[at] = np.clip(np.ceil(high, out=high), -1, c_total + 1, out=high)
            if lo is not None:
                lo[at] = np.clip(np.floor(low, out=low), -1, c_total + 1, out=low)
        out.append((lo, hi))
    return out


def _top(
    counts: np.ndarray, baselines: np.ndarray, c_total: float, b_total: float, elevated_only: bool,
    best: float,
) -> float:
    """The greater of ``best`` and the best score of ``counts`` over ``baselines``."""
    if elevated_only:
        # the rest score 0, and only the maximum is kept
        hot = np.flatnonzero(counts * b_total > baselines * c_total)
        if hot.size < counts.size:
            best = max(best, 0.0)
        counts, baselines = counts[hot], baselines[hot]
    return _llr(counts, baselines, c_total, b_total).max(initial=best)


def _replica_max(
    draw: np.ndarray,
    fam: CylinderFamily,
    blocks: list,
    baselines: np.ndarray,
    c_total: float,
    b_total: float,
    elevated_only: bool,
    bounds: list | None = None,
    fast: _FastBaselines | None = None,
) -> float:
    """One replica's maximum score, block by block; with ``bounds``, over the counts they keep.

    ``draw`` is the replica's case matrix and ``baselines`` the family's
    (disks × windows). ``bounds`` holds one ``(lo, hi)`` per block from
    :func:`_bounds`; a count is kept when ``C >= hi`` or ``C <= lo``. The
    kept counts are scored in slices of ``_SLICE``.

    With ``fast``, whose values ``baselines`` are, each kept count's
    definition score lies within its slack of its score (:func:`_intervals`).
    The greatest lower end is at most the definition maximum, so only a
    count whose upper end reaches it can score that maximum. Those are
    scored again on their definition baselines, and the maximum is the
    greatest of those scores and of the exact ones (slack 0): the
    definition maximum over the kept counts.
    """
    totals = (c_total, b_total, elevated_only)
    per_disk = fam.t0.size
    best = floor = -math.inf  # the best exact score; with fast, the best lower end too
    near: list = []  # with fast: (cylinders, counts, upper ends) that can reach the floor
    for b, (disks, counts) in enumerate(_disk_sums(draw, c_total, fam, blocks)):
        c, base = counts.ravel(), baselines[disks].ravel()
        keep = None if bounds is None else _kept(c, *bounds[b])
        for s in range(0, c.size if keep is None else keep.size, _SLICE):
            at = slice(s, s + _SLICE) if keep is None else keep[s : s + _SLICE]
            if fast is None:
                best = _top(c[at], base[at], *totals, best)
                continue
            if keep is None:
                at = np.arange(s, min(s + _SLICE, c.size))
            cc, bb = c[at], base[at]
            if elevated_only:
                # far below parity on F, so on D too: an exact 0
                live = np.flatnonzero(cc * b_total >= bb * c_total * (1 - 2 * fast.spread))
                if live.size < cc.size:
                    best = max(best, 0.0)
                at, cc, bb = at[live], cc[live], bb[live]
            scores, slack = _intervals(cc, bb, _llr(cc, bb, c_total, b_total), *totals, fast.spread)
            exact = slack == 0
            best = scores[exact].max(initial=best)
            floor = np.fmax.reduce(scores - slack, initial=floor)
            up = scores + slack
            reach = np.flatnonzero(~exact & ~(up < floor))  # NaN (an edge's) reaches it
            near.append((disks.start * per_disk + at[reach], cc[reach], up[reach]))
        if len(near) > 1:  # at most one block's worth is held
            cylinders, cc, up = (np.concatenate(x) for x in zip(*near))
            reach = ~(up < floor)
            near = [(cylinders[reach], cc[reach], up[reach])]
    if near:
        cylinders, cc, up = near[0]
        reach = ~(up < floor)
        best = _top(cc[reach], fast.resolve(cylinders[reach]), *totals, best)
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
    fast: _FastBaselines | None = None,
) -> tuple[np.ndarray, float, list | None]:
    """The replica loop of :func:`monte_carlo_p`: sorted maxima, the last floor and its bounds.

    The bounds are None when no replica needed them after the floor last
    fell. A floor only falls, to ``_FLOOR`` times a maximum below it, so when
    the last floor is above 0 every maximum is at or above it. With
    ``fast`` the baselines are its fast ones, and the maxima, floors and
    bounds are still the definition's (:func:`_replica_max`, :func:`_bounds`).
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
                bounds = _bounds(baselines, blocks, tau, *totals, fast)
            best = _replica_max(draw, fam, blocks, baselines, *totals, bounds, fast)
        if not best >= tau:
            best = _replica_max(draw, fam, blocks, baselines, *totals, None, fast)
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


def _scored(
    cases_m: np.ndarray, base_m: np.ndarray, fam: CylinderFamily, blocks: list,
    baselines: np.ndarray, totals: tuple[float, float, bool], bounds: list | None = None, **run,
) -> ScoredFamily:
    """Observed counts, baselines and scores of every cylinder, or of those ``bounds`` keep.

    Every scoring of observed counts runs here, :func:`scan`'s and
    :func:`monte_carlo_scan`'s; the counts are floats. ``baselines`` are
    every cylinder's, flat, ``totals`` are ``(c_total, b_total,
    elevated_only)``, ``bounds`` are per block, as :func:`_bounds` gives
    them, and ``run`` holds the remaining fields of the result.
    """
    kept, counts = [], []
    for b, (disks, sums) in enumerate(_disk_sums(cases_m, totals[0], fam, blocks)):
        sums = sums.ravel()
        if bounds is not None:
            keep = _kept(sums, *bounds[b])
            kept.append(keep + disks.start * fam.t0.size)
            sums = sums[keep]
        counts.append(sums)
    kept = np.concatenate(kept) if kept else None
    counts = np.concatenate(counts, dtype=float)
    base = baselines if kept is None else baselines[kept]
    scores = _scores(counts, base, *totals)
    return ScoredFamily(fam, kept, counts, base, scores, *totals, base_m, **run)


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
    cases: np.ndarray, baseline: np.ndarray, candidates: CylinderFamily,
    regions: Sequence[str] | None, times: Sequence[str] | None,
) -> tuple[np.ndarray, np.ndarray, float, float, dict]:
    """The case matrix, a read-only copy of the baseline, both totals and the label tuples, checked for a scan."""
    cases_m = np.asarray(cases, dtype=float)
    base_m = np.array(baseline, dtype=float)
    base_m.setflags(write=False)
    if cases_m.shape != base_m.shape or cases_m.ndim != 2:
        raise InputError(
            "cases and baseline must be equal-shape space-by-time matrices", module="stscan"
        )
    labels = {}  # the result's regions and times: one label per row and per column, or None
    for (name, given), size in zip((("regions", regions), ("times", times)), cases_m.shape):
        labels[name] = None if given is None else tuple(given)
        if given is not None and len(labels[name]) != size:
            raise InputError(f"{name} must be {size} labels, got {len(labels[name])}", module="stscan")
    if not (isinstance(candidates, CylinderFamily) and candidates.sizes.size and candidates.t0.size):
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
    return cases_m, base_m, c_total, b_total, labels


def scan(
    cases: np.ndarray,
    baseline: np.ndarray,
    candidates: CylinderFamily,
    elevated_only: bool = True,
    regions: Sequence[str] | None = None,
    times: Sequence[str] | None = None,
) -> ScoredFamily:
    """Score every cylinder of a family: the one call that scores the whole family.

    Case cells must be whole numbers with a total below 2**53, the counts
    the Poisson statistic is defined on; their disk sums are then exact.
    The counts, baselines and scores come back as arrays over every
    cylinder in index order, with a read-only copy of the baseline, which
    :func:`monte_carlo_p` draws replicas from. :meth:`ScoredFamily.result`
    ranks them: ties sort the smaller member set first, then the lower
    center index, then the earlier window, so the ordering is total and the
    output deterministic.
    """
    cases_m, base_m, c_total, b_total, labels = _checked(cases, baseline, candidates, regions, times)
    fam = candidates
    return _scored(
        cases_m, base_m, fam, fam.blocks(), fam.cell_sums(base_m), (c_total, b_total, elevated_only),
        **labels,
    )


def check_replications(replications: int, seed: int) -> None:
    """Reject fewer than one replication or a negative seed, as :func:`monte_carlo_p` does."""
    if replications < 1:
        raise InputError("need at least one replication", module="stscan")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}", module="stscan")


def monte_carlo_p(scored: ScoredFamily, replications: int, seed: int) -> ScoredFamily:
    """Add the sorted replica ``maxima`` to what :func:`scan` returns, which price each p-value.

    Replica case matrices are multinomial redistributions of the observed
    total over all cells with probabilities proportional to the baseline
    the family was scanned against, so a replica puts no case where that
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
    if not isinstance(scored, ScoredFamily) or scored.kept is not None:
        raise InputError(
            "Monte Carlo p-values need every cylinder scored by scan()", module="stscan"
        )
    check_replications(replications, seed)
    fam = scored.family
    maxima, _, _ = _replicas(
        fam, fam.blocks(), scored.matrix, scored.baselines.reshape(-1, fam.t0.size),
        scored.c_total, scored.b_total, scored.elevated_only, replications, seed,
    )
    return dataclasses.replace(scored, maxima=maxima, replications=replications, seed=seed)


def _settle(scored: ScoredFamily, slack: np.ndarray, fast: _FastBaselines, at: np.ndarray) -> None:
    """Give the kept cylinders at positions ``at`` their definition baselines and scores, and no slack."""
    at = at[slack[at] > 0]
    if at.size:
        base = fast.resolve(scored.kept[at])
        scored.baselines[at] = base
        scored.scores[at] = _scores(
            scored.counts[at], base, scored.c_total, scored.b_total, scored.elevated_only
        )
        slack[at] = 0.0


def _settle_clusters(scored: ScoredFamily, slack: np.ndarray, fast: _FastBaselines, alpha: float) -> None:
    """Settle whatever ``significant_total`` and the clusters at ``alpha`` read.

    p never rises with the score, so a cylinder whose p is at most
    ``alpha`` at both ends of its interval, or at neither, has that
    significance on the definition too; the rest are settled. ``result``
    prices p as :func:`_p_values` does; here significance is read from one
    line, the maximum above which a score is priced at ``alpha`` or less.
    Then, per significant disk, every significant cylinder whose upper end
    reaches the greatest lower end among them is settled. The disk's best
    on the definition scores at least that lower end, so it is settled, as
    is every cylinder tied with it, and every one left unsettled ranks
    strictly below it: the disks' best, their order and the clusters chosen
    among them are the definition's, with exact rows.
    """
    fam, kept, scores, maxima = scored.family, scored.kept, scored.scores, scored.maxima
    # p <= alpha exactly when more than the first j maxima lie below the
    # score, for the least such j: when the score is above maxima[j - 1]
    r = maxima.size + 1
    j = np.flatnonzero((r - np.arange(r)) / r <= alpha)
    line = math.inf if not j.size else -math.inf if not j[0] else maxima[j[0] - 1]
    _settle(scored, slack, fast, np.flatnonzero((scores - slack > line) != (scores + slack > line)))
    sig = np.flatnonzero(scores > line)
    disk = kept[sig] // fam.t0.size
    low = np.full(fam.sizes.size, -math.inf)  # per disk, the greatest lower end of its significant cylinders
    np.maximum.at(low, disk, scores[sig] - slack[sig])
    _settle(scored, slack, fast, sig[scores[sig] + slack[sig] >= low[disk]])


def monte_carlo_scan(
    cases: np.ndarray,
    baseline: np.ndarray,
    candidates: CylinderFamily,
    replications: int,
    seed: int,
    elevated_only: bool = True,
    alpha: float = 0.05,
    top: int | None = 100,
    regions: Sequence[str] | None = None,
    times: Sequence[str] | None = None,
) -> ScanResult:
    """:func:`scan` and :func:`monte_carlo_p` in one flow, summing and scoring only what a document needs.

    The result is ``monte_carlo_p(scan(...), replications, seed).result(alpha,
    top)``, the same rows, ``significant_total`` and clusters, built by the
    same :meth:`ScoredFamily.result` from fewer scored cylinders. The
    arguments are checked as those functions check them, and the same errors
    are raised, the observed scan's before any replica.

    The baselines are fast ones (:class:`_FastBaselines`), each within a
    proven bound of its definition sum, and a cylinder gets its definition
    sum (:meth:`CylinderFamily.cell_sums` at its index) only where that
    bound cannot settle a decision. First the cylinders with no baseline or
    all of it, the only kind that can be refused a score. The replicas run
    next, on the baselines alone, and give the definition's maxima
    (:func:`_replica_max`). When their last floor τ is above 0, every
    maximum is at or above it, so a cylinder with p <= ``alpha`` < 1 scores
    above τ. One pass over the observed counts then keeps only those that
    τ's bounds keep, which include every count whose definition score is τ
    or more, and scores them on the fast baselines. Every kept cylinder
    that can rank among the ``top`` best is settled on its definition; if
    fewer than ``top`` of them score τ or more, a second pass keeps the
    counts that can reach the ``top``-th best score of the first: the best
    ``top`` of any subset score no more than the family's. Then whatever
    the significance of a cylinder or the choice of clusters reads is
    settled (:func:`_settle_clusters`), so every row, the ranking and each
    count are the definition's. Every cylinder is summed, scored and
    ranked, as :func:`scan` does, at ``alpha`` = 1, at ``top`` None, at a
    floor or a cut of 0 or below, and when the first pass keeps fewer than
    ``top`` cylinders.
    """
    from .dataio import check_scan_options  # loaded by any caller that writes the document

    cases_m, base_m, c_total, b_total, labels = _checked(cases, baseline, candidates, regions, times)
    check_replications(replications, seed)
    check_scan_options(alpha, top)
    fam = candidates
    blocks = fam.blocks()
    fast = _FastBaselines(fam, base_m, blocks, b_total)
    totals = (c_total, b_total, elevated_only)
    # score the cylinders that can be refused a score first, on their
    # definition sums, so that the observed scan's errors come before any
    # replica, as scan raises them
    if fast.edges.size:
        base = fast.values.reshape(-1)[fast.edges]  # resolved
        hit = (base == 0) | (base >= b_total)
        _scores(fam.cell_sums(cases_m, fast.edges[hit]), base[hit], *totals)
    maxima, tau, bounds = _replicas(fam, blocks, base_m, fast.values, *totals, replications, seed, fast)
    run = dict(labels, maxima=maxima, replications=replications, seed=seed)

    def settled(scored: ScoredFamily) -> tuple[ScoredFamily, np.ndarray] | None:
        """The kept counts' slacks, with every one that can rank among the ``top`` best settled; None if fewer are kept."""
        if scored.kept.size < top:
            return None
        llr = _llr(scored.counts, scored.baselines, c_total, b_total)
        _, slack = _intervals(scored.counts, scored.baselines, llr, *totals, fast.spread)
        del llr
        slack[fast.known(scored.kept)] = 0.0
        if top:
            at = scored.kept.size - top
            floor = np.partition(scored.scores - slack, at)[at]
            _settle(scored, slack, fast, np.flatnonzero(scored.scores + slack >= floor))
        return scored, slack

    flat = fast.values.reshape(-1)
    found = None
    if alpha < 1 and tau > 0 and top is not None:
        if bounds is None:
            bounds = _bounds(fast.values, blocks, tau, *totals, fast)
        scored = _scored(cases_m, base_m, fam, blocks, flat, totals, bounds, **run)
        bounds = None
        found = settled(scored)
        if found is not None and top:
            scores = scored.scores  # of the kept cylinders, the top best settled
            cut = float(np.partition(scores, scores.size - top)[scores.size - top])
            if cut < tau:
                found = scored = None
                if cut > 0:
                    cut_bounds = _bounds(fast.values, blocks, cut, *totals, fast)
                    found = settled(_scored(cases_m, base_m, fam, blocks, flat, totals, cut_bounds, **run))
    if found is None:
        scored = flat = fast = None
        scored = _scored(cases_m, base_m, fam, blocks, fam.cell_sums(base_m), totals, **run)
    else:
        scored, slack = found
        _settle_clusters(scored, slack, fast, alpha)
    found = slack = fast = flat = None  # from here on only the kept cylinders' arrays are read
    return scored.result(alpha, top)
