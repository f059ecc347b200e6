"""A sampled oracle for the scan at 100 regions x 20 steps.

The exact oracles in ``test_stscan.py`` run at toy sizes. Here three synths
of about a million centroid cylinders each (a null grid, an injected block
whose significant set runs to tens of thousands, and a uniform grid where
every cylinder ties) go through :func:`scan`, :func:`monte_carlo_p` and the
ranked result, and are held to the definitions: sampled and emitted
cylinders against their cell sums (a baseline is its whole-number
population times C_tot / P_tot) and the scalar :func:`score`, the whole
ranking against a reference sort, the significant count against a full
count, and replica maxima against replicas rescored in full.
"""

import math

import numpy as np
import pytest

from conftest import cylinder_sums
from eigenspot import SynthConfig, enumerate_cylinders, generate, monte_carlo_p, scan, stscan
from eigenspot.stscan import score

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
    fam = enumerate_cylinders(
        cases.shape[1], coords=coords, max_fraction=0.5, region_baseline=population.sum(axis=1)
    )
    scored = monte_carlo_p(scan(cases, population, fam), REPLICATIONS, SEED)
    return request.param, cases, population, scored


def test_sampled_and_emitted_cylinders_equal_their_cell_sums(scanned):
    kind, cases, population, scored = scanned
    fam = scored.family
    scale = scored.c_total / population.sum()
    rng = np.random.default_rng(20261020)
    # every significant row, the first 100 rows and 3,000 cylinders at random
    total = scored.result(ALPHA, top=0).significant_total
    res = scored.result(ALPHA, top=max(100, total))
    at = rng.integers(len(fam), size=3000)
    columns = (a[at].tolist() for a in (scored.counts, scored.baselines, scored.scores))
    sampled = stscan._rows(fam, at, *columns)
    rows = [*res.cylinders, *sampled]
    for cyl in rows:
        members = list(cyl.members)
        t0, t1 = cyl.window
        c = cases[members][:, t0 : t1 + 1].sum()
        b = population[members][:, t0 : t1 + 1].sum() * scale
        assert (cyl.count, cyl.baseline) == (c, b), (kind, cyl)
        expected = score(c, b, scored.c_total, scored.b_total)
        assert math.isclose(cyl.score, expected, rel_tol=1e-9), (kind, cyl, expected)


def test_the_ranking_is_the_reference_sort_of_every_score(scanned):
    kind, _, _, scored = scanned
    fam = scored.family
    reference = reference_ranking(fam, scored.scores)
    assert np.array_equal(stscan._ranking(fam, scored.scores), reference)
    # and the result's rows are the cylinders it ranks first
    disk, window = np.divmod(reference[:100], fam.t0.size)
    first = list(zip(fam.centers[disk].tolist(), fam.sizes[disk].tolist(),
                     zip(fam.t0[window].tolist(), fam.t1[window].tolist())))
    assert [(c.center, len(c.members), c.window) for c in scored.result(ALPHA).cylinders] == first
    if kind == "uniform":
        assert not scored.scores.any()


def test_the_significant_count_is_a_full_count(scanned):
    kind, _, _, scored = scanned
    r = REPLICATIONS + 1
    significant = 0
    for part in np.array_split(scored.scores, 20):  # each score against every maximum
        p = (1 + (scored.maxima >= part[:, None]).sum(axis=1)) / r
        significant += int(np.count_nonzero(p <= ALPHA))
    assert scored.result(ALPHA, top=0).significant_total == significant
    if kind == "injected":
        assert significant > 10_000
    elif kind == "uniform":
        assert significant == 0


def test_replica_maxima_equal_replicas_rescored_in_full(scanned):
    _, cases, _, scored = scanned
    fam = scored.family
    three = monte_carlo_p(scored, 3, SEED).maxima
    probs = (scored.matrix / scored.b_total).ravel()
    maxima = []
    for i in range(3):
        rng = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(i,)))
        draw = rng.multinomial(int(scored.c_total), probs).reshape(cases.shape).astype(float)
        counts = cylinder_sums(fam, draw)
        maxima.append(reference_llr(counts, scored.baselines, scored.c_total, scored.b_total).max())
    np.testing.assert_allclose(three, sorted(maxima), rtol=1e-12, atol=0)
