import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenspot import (
    ConvergenceError,
    CountTensor,
    DegenerateModeError,
    InputError,
    ModeLabel,
    SynthConfig,
    canonicalize_sign,
    decompose,
    generate,
    gram_eigen,
    top_eigenpairs,
    unfold,
)
from eigenspot.tensors import _START_SEED, DEFAULT_MAX_ITER, DEFAULT_TOL
from conftest import make_tensor


def eigh_oracle(sym, r):
    """Brute-force dense symmetric eigendecomposition, top r descending."""
    w, v = np.linalg.eigh(np.asarray(sym, dtype=float))
    order = np.argsort(w)[::-1][:r]
    return w[order], v[:, order].T


# ---------------------------------------------------------------------------
# CountTensor basics


def test_tensor_requires_one_space_one_time():
    modes = (
        ModeLabel("space", ("a", "b")),
        ModeLabel("space", ("c", "d")),
    )
    with pytest.raises(InputError):
        CountTensor(modes, np.ones((2, 2)))


def test_tensor_rejects_negative_and_nonfinite():
    with pytest.raises(InputError):
        make_tensor([[-1.0, 0.0], [0.0, 0.0]], kinds=("space", "time"))
    with pytest.raises(InputError):
        make_tensor([[np.nan, 0.0], [0.0, 0.0]], kinds=("space", "time"))


def test_tensor_shape_must_match_categories():
    modes = (
        ModeLabel("space", ("a", "b", "c")),
        ModeLabel("time", ("x", "y")),
    )
    with pytest.raises(InputError):
        CountTensor(modes, np.ones((2, 2)))


def test_flat_linearization_first_mode_fastest():
    modes = (
        ModeLabel("space", ("s0", "s1")),
        ModeLabel("time", ("t0", "t1")),
        ModeLabel("attribute", ("a0", "a1")),
    )
    t = CountTensor.from_flat(np.arange(1.0, 9.0), modes)
    # flat index k = i + 2j + 4l for indices (i, j, l)
    assert t.values[1, 0, 0] == 2.0
    assert t.values[0, 1, 0] == 3.0
    assert t.values[0, 0, 1] == 5.0
    assert np.array_equal(t.flat_values(), np.arange(1.0, 9.0))


def test_tensor_values_are_read_only():
    t = make_tensor(np.ones((2, 2)), kinds=("space", "time"))
    with pytest.raises(ValueError):
        t.values[0, 0] = 5.0


# ---------------------------------------------------------------------------
# unfold


def test_unfold_matrix_identity_case():
    vals = np.array([[1.0, 2.0], [3.0, 4.0]])
    t = make_tensor(vals, kinds=("space", "time"))
    assert np.array_equal(unfold(t, 0), vals)


def test_unfold_rows_hold_exactly_the_mode_slices():
    # oracle: enumerate entries by index arithmetic and compare multisets
    t = CountTensor.from_flat(
        np.arange(1.0, 9.0),
        (
            ModeLabel("space", ("s0", "s1")),
            ModeLabel("time", ("t0", "t1")),
            ModeLabel("attribute", ("a0", "a1")),
        ),
    )
    m = unfold(t, 0)
    assert m.shape == (2, 4)
    for i in range(2):
        expected = sorted(
            t.values[i, j, l] for j in range(2) for l in range(2)
        )
        assert sorted(m[i]) == expected
    assert m[0].sum() == t.values[0].sum()
    assert m[1].sum() == t.values[1].sum()


def test_unfold_zero_tensor():
    t = make_tensor(np.zeros((3, 4, 5)))
    m = unfold(t, 1)
    assert m.shape == (4, 15)
    assert not m.any()


def test_unfold_mode_out_of_range():
    t = make_tensor(np.ones((2, 2)), kinds=("space", "time"))
    with pytest.raises(InputError):
        unfold(t, 2)
    with pytest.raises(InputError):
        unfold(t, -1)


def test_unfold_column_permutation_leaves_gram_invariant(rng):
    t = make_tensor(rng.uniform(0.0, 3.0, size=(4, 5, 3)))
    m = unfold(t, 0)
    gram = np.einsum("ij,kj->ik", m, m)
    perm = rng.permutation(m.shape[1])
    mp = m[:, perm]
    gram_p = np.einsum("ij,kj->ik", mp, mp)
    assert np.allclose(gram, gram_p, atol=1e-12)


# ---------------------------------------------------------------------------
# canonicalization


def test_canonicalize_flips_to_positive_max():
    v = np.array([0.1, -0.9, 0.3])
    out = canonicalize_sign(v)
    assert np.array_equal(out, -v)


def test_canonicalize_is_idempotent(rng):
    for _ in range(20):
        v = rng.standard_normal(6)
        once = canonicalize_sign(v)
        assert np.array_equal(canonicalize_sign(once), once)


def test_canonicalize_tie_breaks_on_lowest_index():
    v = np.array([-0.5, 0.5])
    out = canonicalize_sign(v)  # index 0 wins the tie, so flip
    assert np.array_equal(out, np.array([0.5, -0.5]))


def test_canonicalize_rejects_zero_vector():
    with pytest.raises(InputError):
        canonicalize_sign(np.zeros(3))


# ---------------------------------------------------------------------------
# gram_eigen / top_eigenpairs


def test_gram_eigen_diagonal_case():
    vals, vecs = gram_eigen(np.diag([2.0, 1.0]), r=1)
    assert vals[0] == pytest.approx(4.0, abs=1e-10)
    assert np.allclose(vecs[0], [1.0, 0.0], atol=1e-8)


def test_symmetric_two_by_two_analytic():
    vals, vecs = top_eigenpairs(np.array([[2.0, 1.0], [1.0, 2.0]]), r=2)
    assert np.allclose(vals, [3.0, 1.0], atol=1e-9)
    assert np.allclose(vecs[0], [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-8)


def test_gram_eigen_via_symmetric_square_root():
    # m chosen so that m @ m.T equals [[2, 1], [1, 2]]
    target = np.array([[2.0, 1.0], [1.0, 2.0]])
    w, v = np.linalg.eigh(target)
    m = v @ np.diag(np.sqrt(w)) @ v.T
    vals, vecs = gram_eigen(m, r=2)
    assert np.allclose(vals, [3.0, 1.0], atol=1e-9)
    assert np.allclose(vecs[0], [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-8)


def test_gram_eigen_matches_dense_oracle():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((6, 10))
    r = 4
    vals, vecs = gram_eigen(m, r)
    gram = np.einsum("ij,kj->ik", m, m)
    ow, _ = eigh_oracle(gram, r)
    assert np.allclose(vals, ow, atol=1e-8)
    fro = np.linalg.norm(gram, "fro")
    for lam, v in zip(vals, vecs):
        assert np.linalg.norm(gram @ v - lam * v) <= 1e-8 * fro
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-9
    # pairwise orthogonality
    dots = vecs @ vecs.T - np.eye(r)
    assert np.abs(dots).max() <= 1e-8


def test_gram_eigen_rank_too_large():
    with pytest.raises(InputError):
        gram_eigen(np.ones((3, 5)), r=4)


def test_top_eigenpairs_reports_residual_on_nonconvergence():
    # two disjoint 2x2 blocks whose masses differ by 1e-4 (relative) leave
    # the two leading Gram eigenvalues nearly tied: power iteration runs
    # out of iterations and reports how far it got; a 1e-3 gap converges
    def blocks(high):
        values = np.zeros((4, 4))
        values[:2, :2] = 1.0
        values[2:, 2:] = high
        return make_tensor(values, kinds=("space", "time"))

    with pytest.raises(ConvergenceError) as exc:
        decompose(blocks(1.0001))
    assert exc.value.iterations == 10_000
    assert exc.value.residual > 0
    model = decompose(blocks(1.001))
    assert model.eigenvalues[0][0] > model.eigenvalues[0][1] > 0


def test_top_eigenpairs_zero_matrix():
    vals, vecs = top_eigenpairs(np.zeros((3, 3)), r=2)
    assert np.allclose(vals, 0.0)
    assert abs(np.linalg.norm(vecs[0]) - 1.0) <= 1e-12
    assert abs(vecs[0] @ vecs[1]) <= 1e-10


def reference_top_eigenpairs(sym, r):
    """The solver as it was when it also deflated each converged pair out of
    a fresh n x n array: its first pair is the solver's, bit for bit."""
    a = np.array(sym, dtype=float)
    n = a.shape[0]
    a = (a + a.T) / 2.0
    threshold = DEFAULT_TOL * float(np.linalg.norm(a, "fro"))
    rng = np.random.default_rng(_START_SEED)
    deflated = a.copy()
    values, basis = [], []
    for _ in range(r):
        v = rng.standard_normal(n)
        for u in basis:
            v -= (u @ v) * u
        v /= np.linalg.norm(v)
        for _ in range(DEFAULT_MAX_ITER):
            w = deflated @ v
            for u in basis:
                w -= (u @ w) * u
            lam = float(v @ w)
            if float(np.linalg.norm(w - lam * v)) <= threshold:
                break
            v = w / float(np.linalg.norm(w))
        else:
            raise AssertionError("the reference did not converge")
        v = canonicalize_sign(v)
        values.append(lam)
        basis.append(v)
        deflated -= lam * np.outer(v, v)
    order = np.argsort(-np.asarray(values), kind="stable")
    return np.asarray(values)[order], np.vstack([basis[i] for i in order])


def projecting_top_eigenpairs(sym, r):
    """The deflating reference without its deflation: later pairs are kept
    apart by projecting every iterate off the converged vectors."""
    a = np.array(sym, dtype=float)
    n = a.shape[0]
    a = (a + a.T) / 2.0
    threshold = DEFAULT_TOL * float(np.linalg.norm(a, "fro"))
    rng = np.random.default_rng(_START_SEED)
    values, basis = [], []
    for _ in range(r):
        v = rng.standard_normal(n)
        for u in basis:
            v -= (u @ v) * u
        v /= np.linalg.norm(v)
        for _ in range(DEFAULT_MAX_ITER):
            w = a @ v
            for u in basis:
                w -= (u @ w) * u
            lam = float(v @ w)
            if float(np.linalg.norm(w - lam * v)) <= threshold:
                break
            v = w / float(np.linalg.norm(w))
        else:
            raise AssertionError("the reference did not converge")
        v = canonicalize_sign(v)
        values.append(lam)
        basis.append(v)
    order = np.argsort(-np.asarray(values), kind="stable")
    return np.asarray(values)[order], np.vstack([basis[i] for i in order])


def solve_outcome(solve, *args):
    """A solve's (values, vectors) as bytes, or its error's type and message."""
    try:
        vals, vecs = solve(*args)
    except ConvergenceError as exc:
        return type(exc), str(exc)
    return vals.tobytes(), vecs.tobytes()


def test_top_eigenpairs_matches_the_references_bit_for_bit_and_keeps_its_argument(rng):
    # the first pair never saw a deflation, so it keeps the deflating
    # reference's bits; every pair keeps the projecting reference's bits
    for n, r in [(1, 1), (2, 2), (7, 3), (30, 2), (64, 4)]:
        m = rng.standard_normal((n, n + 3))
        sym = m @ m.T + 1e-3 * rng.standard_normal((n, n))  # symmetrized by the solve
        before = sym.copy()
        vals, vecs = top_eigenpairs(sym, r)
        old_vals, old_vecs = reference_top_eigenpairs(sym, r)
        assert vals[0].tobytes() == old_vals[0].tobytes()
        assert vecs[0].tobytes() == old_vecs[0].tobytes()
        assert (vals.tobytes(), vecs.tobytes()) == solve_outcome(projecting_top_eigenpairs, sym, r)
        assert sym.tobytes() == before.tobytes()


def space_gram_of_a_synth_population():
    # a synth population gives every region the same time profile, so its
    # space Gram matrix has rank 1
    pop = generate(SynthConfig(regions=9, times=5, growth=0.3, seed=2)).population
    m = unfold(pop, 0)
    return m @ m.T


@pytest.mark.parametrize(
    "sym, r",
    [
        (space_gram_of_a_synth_population(), 4),
        (np.outer(np.arange(1.0, 9.0), np.arange(1.0, 9.0)), 4),
        (np.zeros((6, 6)), 4),
    ],
    ids=["synth-space-gram", "outer", "zero"],
)
def test_later_pairs_stay_orthonormal_past_the_rank(sym, r):
    # beyond the rank every eigenvalue is 0, and only the projection keeps
    # the later vectors off the earlier ones
    _, vecs = top_eigenpairs(sym, r)
    assert np.abs(vecs @ vecs.T - np.eye(r)).max() <= 1e-10


def test_top_eigenpairs_holds_one_matrix_at_its_peak(rng):
    n = 600
    m = rng.integers(0, 5, (n, 40)).astype(float)
    sym = m @ m.T
    tracemalloc.start()
    try:
        top_eigenpairs(sym, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * n * n * 8


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_is_an_input_error_before_any_work(bad):
    # the suite turns a RuntimeWarning from any iteration into an error
    with pytest.raises(InputError, match="^matrix values must be finite$"):
        top_eigenpairs(np.full((3, 3), bad), 1)
    m = np.ones((3, 4))
    m[1, 2] = bad
    with pytest.raises(InputError, match="^matrix values must be finite$"):
        gram_eigen(m, 1)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 70),
    near_bound=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_whole_number_gram_equals_the_index_order_contraction(rows, cols, near_bound, seed, data):
    # with max|x|**2 * columns below 2**53 every partial sum is exact, so
    # the BLAS product gives the contraction's bits
    peak = math.isqrt((2**53 - 1) // cols) if near_bound else 50
    assert peak * peak * cols < 2**53
    rng = np.random.default_rng(seed)
    m = rng.integers(-peak, peak + 1, (rows, cols)).astype(float)
    m[rng.integers(rows), rng.integers(cols)] = rng.choice([-peak, peak])
    r = data.draw(st.integers(1, rows))
    expected = solve_outcome(top_eigenpairs, np.einsum("ij,kj->ik", m, m), r)
    assert solve_outcome(gram_eigen, m, r) == expected


def test_gram_eigen_contracts_by_index_order_unless_the_sum_is_exact(monkeypatch):
    calls = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *args: calls.append(1) or einsum(*args))
    gram_eigen(np.array([[3.0, -1.0, 0.0], [2.0, 5.0, -4.0]]), 1)
    assert not calls  # whole numbers, far below the bound
    gram_eigen(np.array([[3.0, -1.0, 0.5], [2.0, 5.0, -4.0]]), 1)
    assert len(calls) == 1  # a fraction
    gram_eigen(np.array([[2.0**26, -(2.0**26)]]), 1)
    assert len(calls) == 2  # max|x|**2 * columns is 2**53
    gram_eigen(np.array([[2.0**26 - 1, -(2.0**26) + 1]]), 1)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# decompose


def test_decompose_rank_one_tensor():
    u = np.array([1.0, 2.0, 3.0])
    v = np.array([2.0, 1.0])
    w = np.array([1.0, 1.0, 4.0])
    t = make_tensor(np.einsum("i,j,k->ijk", u, v, w))
    model = decompose(t, ranks=(1, 1, 1))
    assert np.allclose(model.first_vector(0), u / np.linalg.norm(u), atol=1e-9)
    assert model.fits[0] == pytest.approx(1.0, abs=1e-12)
    assert min(model.fits) == pytest.approx(1.0, abs=1e-12)


def test_decompose_matches_oracle_per_mode(rng):
    t = make_tensor(rng.uniform(0.0, 2.0, size=(4, 5, 3)))
    ranks = (2, 2, 1)
    model = decompose(t, ranks=ranks)
    for mode in range(3):
        m = unfold(t, mode)
        gram = np.einsum("ij,kj->ik", m, m)
        ow, _ = eigh_oracle(gram, ranks[mode])
        assert np.allclose(model.eigenvalues[mode], ow, atol=1e-8)
        # fit oracle: retained mass over the full spectrum
        full = np.linalg.eigh(gram)[0]
        assert model.fits[mode] == pytest.approx(ow.sum() / full.sum(), abs=1e-9)


def test_decompose_zero_tensor_names_degenerate_mode():
    t = make_tensor(np.zeros((3, 3, 2)))
    with pytest.raises(DegenerateModeError) as exc:
        decompose(t)
    assert exc.value.mode == 0
    assert "mode 0" in str(exc.value)


def test_decompose_rank_exceeding_dim():
    t = make_tensor(np.ones((2, 3, 2)))
    with pytest.raises(InputError):
        decompose(t, ranks=(3, 1, 1))


def test_decompose_default_ranks_capped_by_dim():
    vals = np.ones((1, 4, 2))
    t = make_tensor(vals)
    model = decompose(t)
    assert model.ranks == (1, 2, 1)


def test_decompose_scale_invariance(rng):
    t = make_tensor(rng.uniform(0.5, 2.0, size=(4, 3, 2)))
    scaled = CountTensor(t.modes, t.values * 3.0)
    a = decompose(t, ranks=(2, 2, 1))
    b = decompose(scaled, ranks=(2, 2, 1))
    for mode in range(3):
        assert np.allclose(a.eigenvectors[mode], b.eigenvectors[mode], atol=1e-9)
        assert np.allclose(b.eigenvalues[mode], 9.0 * a.eigenvalues[mode], rtol=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    dims=st.tuples(
        st.integers(2, 5), st.integers(2, 5), st.integers(2, 4)
    ),
    seed=st.integers(0, 10_000),
)
def test_decompose_invariants_hold(dims, seed):
    rng = np.random.default_rng(seed)
    t = make_tensor(rng.uniform(0.1, 2.0, size=dims))
    model = decompose(t)
    for mode in range(3):
        vals = model.eigenvalues[mode]
        vecs = model.eigenvectors[mode]
        assert np.all(np.diff(vals) <= 1e-12)  # descending
        assert np.all(vals >= 0.0)  # clamped PSD spectrum
        assert 0.0 <= model.fits[mode] <= 1.0
        for v in vecs:
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-9
            idx = int(np.argmax(np.abs(v)))
            assert v[idx] > 0  # canonical orientation
        r = vecs.shape[0]
        if r > 1:
            assert np.abs(vecs @ vecs.T - np.eye(r)).max() <= 1e-8


def test_gram_psd_eigenvalues_not_meaningfully_negative(rng):
    for _ in range(10):
        m = rng.standard_normal((5, 8))
        vals, _ = gram_eigen(m, r=5)
        assert np.all(vals >= -1e-10)
