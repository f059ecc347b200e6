"""Hotspot detection by matching eigenvector elements of two count tensors.

The detector decomposes a population tensor and a cases tensor, aligns the
signs of their leading spatial and temporal eigenvectors, and subtracts
them element by element. Regions (or time points) whose difference stands
out beyond one standard deviation of the difference vector become hotspot
centers; the remaining positive-difference entries are split into first
and second priority tiers and grown into clusters over a region adjacency
graph. Temporal centers are paired into candidate intervals instead.

Differences are oriented so that a category with more case mass than
population mass scores positive; hotspots therefore always sit on the
positive side regardless of the sign conventions of the underlying
eigensolver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import InputError
from .tensors import CountTensor, canonicalize_sign, decompose

Axis = Literal["space", "time"]
LikelyThreshold = Literal["st", "ds"]

#: Entries whose magnitude falls at or below this floor are treated as zero
#: when deciding positivity. Eigenvector elements are O(1), so this only
#: suppresses floating-point noise (e.g. cases = k * population should
#: produce no hotspots even though the two solves differ in the last bits).
ZERO_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class NeighborMatrix:
    """Symmetric boolean region adjacency, aligned with the space mode."""

    adjacency: np.ndarray
    regions: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        adj = np.array(self.adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise InputError("adjacency must be a square matrix", module="eigenmatch")
        if not np.array_equal(adj, adj.T):
            raise InputError("adjacency must be symmetric", module="eigenmatch")
        if np.any(np.diag(adj)):
            raise InputError("adjacency diagonal must be zero", module="eigenmatch")
        if self.regions is not None and len(self.regions) != adj.shape[0]:
            raise InputError(
                f"{len(self.regions)} region names for {adj.shape[0]} rows",
                module="eigenmatch",
            )
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)
        if self.regions is not None:
            object.__setattr__(self, "regions", tuple(self.regions))

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


@dataclass(frozen=True, eq=False)
class DiffVector:
    """Per-category signed differences between two matched eigenvectors."""

    axis: Axis
    categories: tuple[str, ...]
    entries: np.ndarray
    std_all: float  # population standard deviation over every entry

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 1 or arr.size != len(self.categories):
            raise InputError(
                "entry count must equal the category count", module="eigenmatch"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "categories", tuple(self.categories))

    def value(self, category: str) -> float:
        return float(self.entries[self.categories.index(category)])


@dataclass(frozen=True, eq=False)
class SpatialPartition:
    """Threshold partition of the spatial difference vector.

    ``sl`` holds every positive-difference region in descending order;
    ``sc`` are the hotspot centers (difference above the overall standard
    deviation), ``s1``/``s2`` split the remainder at the standard deviation
    of the non-center tier, and ``likely_cluster`` is the largest subset of
    ``s1`` whose pairwise differences all stay below the threshold.
    """

    ds: DiffVector
    sl: tuple[str, ...]
    sc: tuple[str, ...]
    st: tuple[str, ...]
    s1: tuple[str, ...]
    s2: tuple[str, ...]
    std_st: float
    likely_cluster: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class ClusterSet:
    """Spatial clusters keyed by center, members listed center-first."""

    clusters: dict[str, tuple[str, ...]]
    kind: Literal["first", "second"]


@dataclass(frozen=True, eq=False)
class TemporalResult:
    """Temporal hotspot centers, first-priority points, and intervals."""

    tc: tuple[str, ...]
    t1: tuple[str, ...]
    t_first: tuple[tuple[str, str], ...]
    t_second: tuple[tuple[str, str], ...]


@dataclass(frozen=True, eq=False)
class HotspotReport:
    """Full output of one detector run, kept audit-friendly.

    Carries the configuration echo, the per-mode fits of both models, the
    raw difference vectors, and every derived partition so downstream
    serialization or inspection never needs to recompute anything.
    """

    ranks: tuple[int, ...]
    dims: tuple[int, ...]
    likely_threshold: LikelyThreshold
    fits_population: tuple[float, ...]
    fits_cases: tuple[float, ...]
    ds: DiffVector
    dt: DiffVector
    spatial: SpatialPartition
    clusters_first: ClusterSet
    clusters_second: ClusterSet
    temporal: TemporalResult

    @property
    def order(self) -> int:
        return len(self.dims)


def population_std(values: Sequence[float] | np.ndarray) -> float:
    """Population (divide-by-n) standard deviation; 0 for empty input."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return 0.0
    return float(np.sqrt(np.mean((arr - arr.mean()) ** 2)))


def sign_correct(
    e_ref: np.ndarray, e_other: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve the +/- ambiguity of an eigenvector pair before comparison.

    The reference vector is canonicalized (largest-magnitude element made
    positive); the other vector is negated if needed so the two point the
    same way (non-negative dot product). An exactly orthogonal pair leaves
    nothing to align, so the other vector is canonicalized independently.
    """
    ref = np.asarray(e_ref, dtype=float)
    other = np.asarray(e_other, dtype=float)
    if ref.shape != other.shape or ref.ndim != 1:
        raise InputError("vectors must be 1-D and the same length", module="eigenmatch")
    ref_c = canonicalize_sign(ref)  # raises on the zero vector
    if not np.any(other):
        raise InputError("cannot sign-correct the zero vector", module="eigenmatch")
    d = float(ref_c @ other)
    if d > 0:
        return ref_c, other.copy()
    if d < 0:
        return ref_c, -other
    return ref_c, canonicalize_sign(other)


def element_diff(
    e_a: np.ndarray,
    e_b: np.ndarray,
    axis: Axis,
    categories: Sequence[str],
) -> DiffVector:
    """Element-wise difference ``e_a - e_b`` of two sign-corrected vectors."""
    a = np.asarray(e_a, dtype=float)
    b = np.asarray(e_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise InputError("vectors must be 1-D and the same length", module="eigenmatch")
    if len(categories) != a.size:
        raise InputError(
            f"{len(categories)} categories for {a.size} entries", module="eigenmatch"
        )
    entries = a - b
    return DiffVector(
        axis=axis,
        categories=tuple(categories),
        entries=entries,
        std_all=population_std(entries),
    )


def _threshold_tiers(
    diff: DiffVector,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, np.ndarray, np.ndarray]:
    """Shared center/tier split used by both axes.

    Returns (positives, centers, remainder, std_remainder, tier1, tier2),
    each an index array in descending entry order, exact ties by index.
    """
    entries = diff.entries
    order = np.argsort(-entries, kind="stable")
    positives = order[entries[order] > ZERO_TOL]
    is_center = entries[positives] > diff.std_all
    centers, remainder = positives[is_center], positives[~is_center]
    std_rem = population_std(entries[remainder])
    low = entries[remainder] < std_rem
    return positives, centers, remainder, std_rem, remainder[~low], remainder[low]


def _labels(names: tuple[str, ...], indices: np.ndarray) -> tuple[str, ...]:
    """The names at the given indices, in index-array order."""
    return tuple(names[i] for i in indices.tolist())


def _largest_tight_window(
    names: Sequence[str], values: Sequence[float], threshold: float
) -> tuple[str, ...]:
    """Longest run of descending-sorted values with spread below threshold.

    Every pair inside the returned window differs by strictly less than
    the threshold. Length ties keep the earliest window, i.e. the one whose
    top value is largest. Windows of size one are not reported.
    """
    n = len(values)
    best_len, best_start = 0, -1
    j = 0
    for i in range(n):
        if j < i:
            j = i
        while j + 1 < n and values[i] - values[j + 1] < threshold:
            j += 1
        if j - i + 1 > best_len:
            best_len, best_start = j - i + 1, i
    if best_len < 2:
        return ()
    return tuple(names[best_start : best_start + best_len])


def partition_spatial(
    ds: DiffVector, likely_threshold: LikelyThreshold = "st"
) -> SpatialPartition:
    """Split the spatial difference vector into centers and priority tiers.

    ``likely_threshold`` selects the spread bound for the likely cluster:
    ``"st"`` uses the standard deviation of the non-center tier (the
    default), ``"ds"`` uses the standard deviation of the whole vector.
    An empty or singleton non-center tier has standard deviation 0, which
    makes tier one the whole tier and tier two empty.
    """
    if ds.axis != "space":
        raise InputError("partition_spatial needs a space-axis vector", module="eigenmatch")
    sl, sc, st, std_st, s1, s2 = _threshold_tiers(ds)
    bound = std_st if likely_threshold == "st" else ds.std_all
    tier1_values = ds.entries[s1].tolist()
    sl, sc, st, s1, s2 = (_labels(ds.categories, ix) for ix in (sl, sc, st, s1, s2))
    return SpatialPartition(
        ds=ds,
        sl=sl,
        sc=sc,
        st=st,
        s1=s1,
        s2=s2,
        std_st=std_st,
        likely_cluster=_largest_tight_window(s1, tier1_values, bound),
    )


def _region_index(regions: tuple[str, ...], nb: NeighborMatrix) -> dict[str, int]:
    """Index of each space-mode region, once the adjacency matches them in count and order."""
    if nb.n != len(regions):
        raise InputError(
            f"adjacency has {nb.n} regions but the space mode has {len(regions)}",
            module="eigenmatch",
        )
    if nb.regions is not None and nb.regions != regions:
        extra = set(nb.regions) ^ set(regions)
        detail = f"; mismatched: {sorted(extra)}" if extra else " (order differs)"
        raise InputError(
            f"adjacency regions do not match the space mode{detail}",
            module="eigenmatch",
        )
    return {c: i for i, c in enumerate(regions)}


def grow_first_priority(part: SpatialPartition, nb: NeighborMatrix) -> ClusterSet:
    """Attach tier-one regions to every adjacent hotspot center.

    One cluster per center, listed center-first then by descending
    difference. A region adjacent to several centers appears in each of
    their clusters.
    """
    idx = _region_index(part.ds.categories, nb)
    touches = nb.adjacency[np.ix_([idx[c] for c in part.sc], [idx[s] for s in part.s1])]
    clusters = {
        center: (center, *_labels(part.s1, np.flatnonzero(row)))
        for center, row in zip(part.sc, touches)
    }
    return ClusterSet(clusters=clusters, kind="first")


def grow_second_priority(
    first: ClusterSet, part: SpatialPartition, nb: NeighborMatrix
) -> ClusterSet:
    """Extend copies of the first-priority clusters with adjacent tier-two regions.

    A tier-two region joins a cluster only when it touches one of that
    cluster's first-priority members (center included); contact with
    another tier-two addition is not enough.
    """
    if first.kind != "first":
        raise InputError("expected a first-priority cluster set", module="eigenmatch")
    idx = _region_index(part.ds.categories, nb)
    s2 = np.array([idx[x] for x in part.s2], dtype=np.intp)
    clusters: dict[str, tuple[str, ...]] = {}
    for center, base in first.clusters.items():
        # the adjacency is symmetric; gathering whole base rows is the cheaper read
        touches = nb.adjacency[np.ix_([idx[m] for m in base], s2)].any(axis=0)
        clusters[center] = base + _labels(part.s2, np.flatnonzero(touches))
    return ClusterSet(clusters=clusters, kind="second")


def partition_temporal(
    dt: DiffVector,
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Temporal analog of the spatial split, through the tier-one stage.

    Returns ``(tc, t1)``: the temporal hotspot centers and the first
    priority time points. No second tier exists on the time axis.
    """
    if dt.axis != "time":
        raise InputError("partition_temporal needs a time-axis vector", module="eigenmatch")
    _, tc, _, _, t1, _ = _threshold_tiers(dt)
    return _labels(dt.categories, tc), _labels(dt.categories, t1)


def temporal_intervals(
    tc: Iterable[str],
    t1: Iterable[str],
    categories: Sequence[str],
) -> TemporalResult:
    """Pair temporal hotspots into candidate intervals.

    First-priority intervals connect every unordered pair of centers
    (each pair once); second-priority intervals connect each tier-one
    point with each center. Endpoints are ordered by position in the
    time mode's category list, and interval lists are emitted sorted by
    (start, end) position for stable output.
    """
    tc = tuple(tc)
    t1 = tuple(t1)
    pos = {c: i for i, c in enumerate(categories)}
    for label in itertools.chain(tc, t1):
        if label not in pos:
            raise InputError(f"unknown time category {label!r}", module="eigenmatch")
    overlap = set(tc) & set(t1)
    if overlap:
        raise InputError(
            f"centers and tier-one points must be disjoint; both contain {sorted(overlap)}",
            module="eigenmatch",
        )

    def interval(a: str, b: str) -> tuple[str, str]:
        return (a, b) if pos[a] <= pos[b] else (b, a)

    first = sorted(
        {interval(a, b) for a, b in itertools.combinations(tc, 2)},
        key=lambda iv: (pos[iv[0]], pos[iv[1]]),
    )
    second = sorted(
        (interval(x, h) for x in t1 for h in tc),
        key=lambda iv: (pos[iv[0]], pos[iv[1]]),
    )
    return TemporalResult(tc=tc, t1=t1, t_first=tuple(first), t_second=tuple(second))


def run_sst_hotspot(
    population: CountTensor,
    cases: CountTensor,
    neighbors: NeighborMatrix,
    ranks: Sequence[int] | None = None,
    likely_threshold: LikelyThreshold = "st",
) -> HotspotReport:
    """Run the full eigenvector-matching detector.

    Decomposes both tensors, sign-corrects the leading spatial and
    temporal eigenvector pairs, forms the case-minus-population difference
    vectors (so case excess is positive), and derives every spatial and
    temporal partition. Deterministic for fixed inputs; no randomness is
    involved anywhere in this module.
    """
    if population.dims != cases.dims or not population.same_layout(cases):
        raise InputError(
            "population and cases tensors must share dims and mode labels",
            module="eigenmatch",
        )
    space_ax = population.space_axis
    time_ax = population.time_axis
    space_cats = population.modes[space_ax].categories
    time_cats = population.modes[time_ax].categories
    _region_index(space_cats, neighbors)

    model_p = decompose(population, ranks)
    model_c = decompose(cases, ranks)

    es_p, es_c = sign_correct(model_p.first_vector(space_ax), model_c.first_vector(space_ax))
    et_p, et_c = sign_correct(model_p.first_vector(time_ax), model_c.first_vector(time_ax))

    # Case-minus-population orientation: an excess of case mass in a
    # category produces a positive entry, which is the side every
    # threshold below selects on.
    ds = element_diff(es_c, es_p, axis="space", categories=space_cats)
    dt = element_diff(et_c, et_p, axis="time", categories=time_cats)

    spatial = partition_spatial(ds, likely_threshold=likely_threshold)
    first = grow_first_priority(spatial, neighbors)
    second = grow_second_priority(first, spatial, neighbors)
    tc, t1 = partition_temporal(dt)
    temporal = temporal_intervals(tc, t1, time_cats)

    return HotspotReport(
        ranks=model_p.ranks,
        dims=population.dims,
        likely_threshold=likely_threshold,
        fits_population=model_p.fits,
        fits_cases=model_c.fits,
        ds=ds,
        dt=dt,
        spatial=spatial,
        clusters_first=first,
        clusters_second=second,
        temporal=temporal,
    )
