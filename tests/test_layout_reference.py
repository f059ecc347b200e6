"""Synthetic layouts and the injected-region connectivity check against
pairwise-loop references.

``reference_grid_layout``, ``reference_geometric_layout`` and
``reference_connected`` are the loop versions that the array layouts and
the breadth-first ring search replaced. The generator must return equal
coordinates and adjacency, and accept exactly the injected sets the
reference calls connected, duplicates included.
"""

import math

import numpy as np
import pytest

from eigenspot import InputError, SynthConfig, generate
from eigenspot.evalsynth import _geometric_layout, _grid_layout, region_labels

SIZES = [*range(1, 65), 100, 400]


def reference_grid_layout(n):
    rows = int(math.isqrt(n))
    cols = (n + rows - 1) // rows
    coords = np.array([(i % cols, i // cols) for i in range(n)], dtype=float)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(coords[i, 0] - coords[j, 0]) + abs(coords[i, 1] - coords[j, 1]) == 1:
                adj[i, j] = adj[j, i] = True
    return coords, adj


def reference_geometric_layout(n, rng):
    coords = rng.random((n, 2))
    radius2 = 2.0 / n
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            d2 = (coords[i, 0] - coords[j, 0]) ** 2 + (coords[i, 1] - coords[j, 1]) ** 2
            if d2 <= radius2:
                adj[i, j] = adj[j, i] = True
    return coords, adj


def reference_connected(members, adj):
    if not members:
        return True
    member_set = set(members)
    seen = {members[0]}
    frontier = [members[0]]
    while frontier:
        nxt = []
        for i in frontier:
            for j in np.flatnonzero(adj[i]):
                if j in member_set and j not in seen:
                    seen.add(int(j))
                    nxt.append(int(j))
        frontier = nxt
    return len(seen) == len(member_set)


def test_grid_layout_matches_reference():
    for n in SIZES:
        coords, adj = _grid_layout(n)
        ref_coords, ref_adj = reference_grid_layout(n)
        assert coords.dtype == ref_coords.dtype and coords.tobytes() == ref_coords.tobytes(), n
        assert adj.dtype == bool and np.array_equal(adj, ref_adj), n


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_geometric_layout_matches_reference(seed):
    for n in SIZES:
        coords, adj = _geometric_layout(n, np.random.default_rng([seed, n]))
        ref_coords, ref_adj = reference_geometric_layout(n, np.random.default_rng([seed, n]))
        assert coords.tobytes() == ref_coords.tobytes(), n
        assert adj.dtype == bool and np.array_equal(adj, ref_adj), n


def injected_sets(adj, rng, count):
    """Random member lists with repeats: half drawn at random, half walked
    along the adjacency, so both connected and disconnected sets occur."""
    n = len(adj)
    for k in range(count):
        size = int(rng.integers(0, 9))
        if k % 2:
            yield [int(i) for i in rng.integers(0, n, size)]
            continue
        walk = [int(rng.integers(0, n))]
        for _ in range(size):
            nbrs = np.flatnonzero(adj[walk[-1]])
            walk.append(int(rng.choice(nbrs)) if nbrs.size else walk[-1])
        rng.shuffle(walk)
        yield walk


@pytest.mark.parametrize("adjacency, regions", [("grid", 30), ("random-geometric", 40)])
def test_injection_connectivity_matches_reference(adjacency, regions):
    rng = np.random.default_rng(7)
    names = region_labels(regions)
    adj = generate(SynthConfig(regions=regions, times=2, adjacency=adjacency, seed=3)).neighbors.adjacency
    outcomes = []
    for members in injected_sets(adj, rng, 150):
        cfg = SynthConfig(
            regions=regions,
            times=2,
            adjacency=adjacency,
            injected_regions=tuple(names[i] for i in members),
            window=(0, 1),
            relative_risk=2.0,
            seed=3,
        )
        connected = reference_connected(members, adj)
        outcomes.append(connected)
        if connected:
            assert generate(cfg).truth.regions == cfg.injected_regions
        else:
            with pytest.raises(InputError, match="connected set"):
                generate(cfg)
    assert 20 < sum(outcomes) < len(outcomes) - 20
