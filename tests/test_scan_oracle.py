"""A sampled oracle for the scan at 100 regions x 20 steps.

The exact oracles in ``test_stscan.py`` run at toy sizes. Here three synths
of about a million centroid cylinders each (a null grid, an injected block
whose significant set runs to tens of thousands, and a uniform grid where
every cylinder ties) go through :func:`scan` and :func:`monte_carlo_p`, and
the result is held to the definitions: sampled and emitted cylinders against
their cell sums and the scalar :func:`score`, the whole ranking against a
reference sort, the significant count against a full count, and replica
maxima against replicas rescored in full.
"""

import math

import numpy as np
import pytest

from eigenspot import SynthConfig, enumerate_cylinders, generate, monte_carlo_p, scan
from eigenspot.stscan import expected_baseline, score

ALPHA = 0.05
REPLICATIONS = 99
SEED = 7


def synth(kind):
    """(cases, population, coords) of one 100 x 20 scenario."""
    if kind == "injected":
        cfg = SynthConfig(
            regions=100, times=20, injected_regions=("r44", "r45", "r54"), window=(5, 8),
            relative_risk=3.0, seed=1,
        )
    else:
        cfg = SynthConfig(regions=100, times=20, seed=1)
    data = generate(cfg)
    cases, population = data.cases.values, data.population.values
    if kind == "uniform":  # every cell alike, so every cylinder scores 0
        cases = np.full_like(cases, 20.0)
    return cases, population, data.coords


def reference_ranking(fam, scores):
    """Every cylinder by score, then member count, center, window start and end."""
    disk, window = np.divmod(np.arange(scores.size), fam.t0.size)
    return np.lexsort(
        (fam.t1[window], fam.t0[window], fam.centers[disk], fam.sizes[disk], -scores)
    )


def reference_llr(counts, baselines, c_total, b_total):
    """The elevated-only score of every cylinder, in full."""
    rest = c_total - counts
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = np.where(counts > 0, counts * np.log(counts / baselines), 0.0)
        outside = np.where(rest > 0, rest * np.log(rest / (b_total - baselines)), 0.0)
    return np.where(counts * b_total > baselines * c_total, inside + outside, 0.0)


@pytest.fixture(scope="module", params=["null", "injected", "uniform"])
def scanned(request):
    cases, population, coords = synth(request.param)
    baseline = expected_baseline(cases, population)
    fam = enumerate_cylinders(
        cases.shape[1], coords=coords, max_fraction=0.5, region_baseline=baseline.sum(axis=1)
    )
    res = monte_carlo_p(scan(cases, baseline, fam), REPLICATIONS, SEED)
    return request.param, cases, baseline, res


def test_sampled_and_emitted_cylinders_equal_their_cell_sums(scanned):
    kind, cases, baseline, res = scanned
    fam = res.cylinders
    rng = np.random.default_rng(20261020)
    # every significant row, the first 100 rows and 3,000 rows at random
    sampled = [fam[i] for i in rng.integers(len(fam), size=3000).tolist()]
    rows = [*res.significant(ALPHA), *fam[:100], *sampled]
    for cyl in rows:
        members = list(cyl.members)
        t0, t1 = cyl.window
        c = cases[members][:, t0 : t1 + 1].sum()
        b = baseline[members][:, t0 : t1 + 1].sum()
        assert (cyl.count, cyl.baseline) == (c, b), (kind, cyl)
        expected = score(c, b, res.c_total, res.b_total)
        assert math.isclose(cyl.score, expected, rel_tol=1e-9), (kind, cyl, expected)


def test_the_ranking_is_the_reference_sort_of_every_score(scanned):
    kind, _, _, res = scanned
    fam = res.cylinders
    assert np.array_equal(fam.order, reference_ranking(fam, fam.scores))
    if kind == "uniform":
        assert not fam.scores.any()


def test_the_significant_count_is_a_full_count(scanned):
    kind, _, _, res = scanned
    fam = res.cylinders
    r = REPLICATIONS + 1
    significant = 0
    for part in np.array_split(fam.scores, 20):  # each score against every maximum
        p = (1 + (fam.maxima >= part[:, None]).sum(axis=1)) / r
        significant += int(np.count_nonzero(p <= ALPHA))
    assert len(res.significant(ALPHA)) == significant
    if kind == "injected":
        assert significant > 10_000
    elif kind == "uniform":
        assert significant == 0


def test_replica_maxima_equal_replicas_rescored_in_full(scanned):
    _, cases, baseline, res = scanned
    fam = res.cylinders
    three = monte_carlo_p(res, 3, SEED).cylinders.maxima
    probs = (baseline / res.b_total).ravel()
    maxima = []
    for i in range(3):
        rng = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(i,)))
        draw = rng.multinomial(int(res.c_total), probs).reshape(cases.shape).astype(float)
        counts = fam.cell_sums(draw)
        maxima.append(reference_llr(counts, fam.baselines, res.c_total, res.b_total).max())
    np.testing.assert_allclose(three, sorted(maxima), rtol=1e-12, atol=0)
