import numpy as np
import pytest

from eigenspot import CountTensor, ModeLabel, NeighborMatrix
from eigenspot.dataio import ParsedRecords


def make_tensor(values, kinds=("space", "time", "attribute")):
    """Wrap an array as a CountTensor with generated category names."""
    values = np.asarray(values, dtype=float)
    modes = tuple(
        ModeLabel(kind, tuple(f"{kind[0]}{i}" for i in range(dim)))
        for kind, dim in zip(kinds, values.shape)
    )
    return CountTensor(modes, values)


def ring_adjacency(n):
    """Cycle graph over n regions (path for n == 2)."""
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = True
    if n > 2:
        adj[0, n - 1] = adj[n - 1, 0] = True
    return NeighborMatrix(adj)


def cylinder_sums(fam, matrix):
    """Every cylinder's sum of ``matrix``, in cylinder index order, apart from the library's kernel.

    Per disk size the member rows are added, and each window is a
    difference of that sum's time prefix sums. For whole numbers whose
    total is below 2**53 every step is exact, so each sum equals a sum in
    any other order.
    """
    matrix = np.asarray(matrix, dtype=float)
    out = np.empty((fam.sizes.size, fam.t0.size))
    for k in np.unique(fam.sizes).tolist():
        disks = np.flatnonzero(fam.sizes == k)
        rows = matrix[fam.orders[fam.centers[disks], :k]].sum(axis=1)  # disks × T
        prefix = np.concatenate([np.zeros((disks.size, 1)), rows.cumsum(axis=1)], axis=1)
        out[disks] = prefix[:, fam.t1 + 1] - prefix[:, fam.t0]
    return out.ravel()


def columns_of(parsed):
    """A ParsedRecords' columns decoded back to their values, in row order."""
    return {c: tuple(parsed.categories[c][i] for i in codes) for c, codes in parsed.codes.items()}


def records_from_columns(columns, counts, unknown=None, rows=None):
    """ParsedRecords holding value columns, each coded in first appearance."""
    categories = {c: tuple(dict.fromkeys(v)) for c, v in columns.items()}
    codes = {
        c: np.array([categories[c].index(x) for x in v], dtype=np.intp)
        for c, v in columns.items()
    }
    counts = np.asarray(counts, dtype=float)
    return ParsedRecords(codes, categories, counts, unknown or {}, len(counts) if rows is None else rows)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
