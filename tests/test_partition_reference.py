"""The detector's center/tier split, cluster growth and GeoJSON roles
against the label-based loops they replaced.

``reference_threshold_tiers``, ``reference_grow_first``,
``reference_grow_second`` and ``reference_region_role`` are the per-label
versions: each tier looks its values up by name and tests membership in a
list, growth reads the adjacency one region pair at a time, and a region's
role and cluster list search every cluster. The index-array passes must
give equal partitions, clusters (in the same order) and GeoJSON bytes on
random vectors with exact ties, zero entries and isolated regions.
"""

import io

import numpy as np
import pytest

from eigenspot import (
    DiffVector,
    NeighborMatrix,
    grow_first_priority,
    grow_second_priority,
    partition_spatial,
    partition_temporal,
    population_std,
)
from eigenspot.dataio import RegionGeometry, write_geojson, write_json
from eigenspot.eigenmatch import (
    ZERO_TOL,
    HotspotReport,
    TemporalResult,
    _largest_tight_window,
)


def reference_threshold_tiers(diff):
    entries = diff.entries
    cats = diff.categories
    order = list(np.argsort(-entries, kind="stable"))
    positives = [cats[i] for i in order if entries[i] > ZERO_TOL]
    centers = [s for s in positives if diff.value(s) > diff.std_all]
    remainder = [s for s in positives if s not in centers]
    std_rem = population_std([diff.value(s) for s in remainder])
    tier1 = [s for s in remainder if diff.value(s) >= std_rem]
    tier2 = [s for s in remainder if diff.value(s) < std_rem]
    return positives, centers, remainder, std_rem, tier1, tier2


def reference_partition_spatial(ds, likely_threshold):
    sl, sc, st, std_st, s1, s2 = reference_threshold_tiers(ds)
    bound = std_st if likely_threshold == "st" else ds.std_all
    likely = _largest_tight_window(s1, [ds.value(s) for s in s1], bound)
    return tuple(sl), tuple(sc), tuple(st), tuple(s1), tuple(s2), std_st, likely


def reference_grow_first(part, nb):
    idx = {c: i for i, c in enumerate(part.ds.categories)}
    clusters = {}
    for center in part.sc:
        members = [center]
        members += [s for s in part.s1 if nb.adjacency[idx[s], idx[center]]]
        clusters[center] = tuple(members)
    return clusters


def reference_grow_second(first, part, nb):
    idx = {c: i for i, c in enumerate(part.ds.categories)}
    clusters = {}
    for center, base in first.items():
        added = [x for x in part.s2 if any(nb.adjacency[idx[x], idx[m]] for m in base)]
        clusters[center] = base + tuple(added)
    return clusters


def reference_region_role(report, region):
    if region in report.spatial.sc:
        return "center"
    if region in report.spatial.likely_cluster:
        return "likely"
    if any(region in m for m in report.clusters_first.clusters.values()):
        return "first"
    if any(region in m for m in report.clusters_second.clusters.values()):
        return "second"
    return "none"


def reference_geojson(report, geometry):
    features = []
    for region in report.ds.categories:
        geom = geometry.geometries.get(region)
        if geom is None:
            continue
        clusters = [
            center
            for center, members in report.clusters_second.clusters.items()
            if region in members
        ]
        features.append(
            {
                "type": "Feature",
                "geometry": geom,
                "properties": {
                    "region": region,
                    "ds": report.ds.value(region),
                    "role": reference_region_role(report, region),
                    "clusters": clusters,
                },
            }
        )
    buf = io.StringIO()
    write_json({"type": "FeatureCollection", "features": features}, buf)
    return buf.getvalue()


#: Vectors that sit on each boundary: an entry equal to the overall std
#: (not a center), a tier entry equal to the tier std (tier one), entries
#: at and just above ZERO_TOL, and an all-zero vector.
EDGE_VECTORS = [
    [1.0, -1.0, 1.0, -1.0],
    [10.0, 3.0, 1.0, -10.0],
    [ZERO_TOL, 2 * ZERO_TOL, 0.0, -ZERO_TOL],
    [0.0, 0.0, 0.0],
    [],
    [0.5],
]


def random_vectors(rng, count):
    yield from EDGE_VECTORS
    for k in range(count):
        n = int(rng.integers(1, 40))
        kind = k % 3
        if kind == 0:  # few distinct values: exact ties and exact zeros
            yield rng.integers(-3, 7, n) * 0.125
        elif kind == 1:
            yield rng.normal(size=n)
        else:
            yield rng.choice([0.0, ZERO_TOL, 2 * ZERO_TOL, 0.25, 0.5, 1.0, -0.5], n)


def diff_vector(entries, axis, rng):
    entries = np.asarray(entries, dtype=float)
    # labels out of index order, so a label-order slip shows
    names = tuple(f"c{i:02d}" for i in rng.permutation(entries.size))
    return DiffVector(
        axis=axis, categories=names, entries=entries, std_all=population_std(entries)
    )


def random_neighbors(names, rng):
    n = len(names)
    upper = np.triu(rng.random((n, n)) < rng.choice([0.0, 0.05, 0.2, 0.6]), 1)
    adj = upper | upper.T
    isolated = rng.random(n) < 0.2
    adj[isolated] = False
    adj[:, isolated] = False
    return NeighborMatrix(adj, regions=names)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_partitions_match_reference(seed):
    rng = np.random.default_rng(seed)
    for entries in random_vectors(rng, 300):
        ds = diff_vector(entries, "space", rng)
        for likely_threshold in ("st", "ds"):
            part = partition_spatial(ds, likely_threshold=likely_threshold)
            got = (part.sl, part.sc, part.st, part.s1, part.s2, part.std_st, part.likely_cluster)
            expected = reference_partition_spatial(ds, likely_threshold)
            assert got == expected, (entries, likely_threshold)
        dt = diff_vector(entries, "time", rng)
        _, tc, _, _, t1, _ = reference_threshold_tiers(dt)
        assert partition_temporal(dt) == (tuple(tc), tuple(t1)), entries


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_growth_and_geojson_match_reference(seed):
    rng = np.random.default_rng([seed, 1])
    for entries in random_vectors(rng, 300):
        ds = diff_vector(entries, "space", rng)
        nb = random_neighbors(ds.categories, rng)
        likely_threshold = ("st", "ds")[int(rng.integers(2))]
        part = partition_spatial(ds, likely_threshold=likely_threshold)
        first = grow_first_priority(part, nb)
        second = grow_second_priority(first, part, nb)
        ref_first = reference_grow_first(part, nb)
        assert list(first.clusters.items()) == list(ref_first.items()), entries
        ref_second = reference_grow_second(ref_first, part, nb)
        assert list(second.clusters.items()) == list(ref_second.items()), entries

        report = HotspotReport(
            ranks=(1, 1),
            dims=(ds.entries.size, 1),
            likely_threshold=likely_threshold,
            fits_population=(1.0, 1.0),
            fits_cases=(1.0, 1.0),
            ds=ds,
            dt=DiffVector(axis="time", categories=("t0",), entries=[0.0], std_all=0.0),
            spatial=part,
            clusters_first=first,
            clusters_second=second,
            temporal=TemporalResult(tc=(), t1=(), t_first=(), t_second=()),
        )
        # a partial geometry that also names a region the report lacks
        kept = [r for r in ds.categories if rng.random() < 0.7]
        points = enumerate([*kept, "elsewhere"])
        geometry = RegionGeometry({r: {"type": "Point", "coordinates": [i, 0]} for i, r in points})
        buf = io.StringIO()
        skipped = write_geojson(report, geometry, buf)
        assert buf.getvalue() == reference_geojson(report, geometry), entries
        assert skipped == tuple(r for r in ds.categories if r not in kept)
