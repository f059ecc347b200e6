"""Labeled dense count tensors and per-mode Gram-matrix eigendecomposition.

A :class:`CountTensor` holds non-negative counts over exactly one spatial
mode, exactly one temporal mode, and any number of categorical attribute
modes. Unfolding a mode lays its slices side by side as a matrix M; the
Gram matrix M.Mt is symmetric positive semidefinite, and its leading
eigenvectors are the mode's principal directions. Those per-mode
eigenpairs (plus a retained-eigenvalue-mass fit ratio) are what the
hotspot matching stage consumes.

Conventions fixed here and relied on by tests and serialization:

* tensor linearization: the first mode varies fastest (Fortran order);
* unfolding columns: remaining modes keep their relative order with the
  last remaining mode varying fastest (C order after moving the unfolded
  mode to the front); the Gram matrix is invariant to this choice;
* eigenvector sign: the element of largest absolute value is positive,
  ties resolved by the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import ConvergenceError, DegenerateModeError, InputError

ModeKind = Literal["space", "time", "attribute"]

#: Relative residual tolerance for the power-iteration eigensolver.
DEFAULT_TOL = 1e-10
#: Iteration cap per eigenpair; plenty for the small Gram matrices here.
DEFAULT_MAX_ITER = 10_000

_START_SEED = 0x51E9  # fixed seed for start vectors: deterministic solves
# a sum of whole numbers whose magnitudes add up to less than this is exact
# in any order of summation
_EXACT_SUM = 2.0**53


@dataclass(frozen=True, eq=False)
class ModeLabel:
    """One tensor axis: its kind and the ordered category names along it."""

    kind: ModeKind
    categories: tuple[str, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("space", "time", "attribute"):
            raise InputError(f"unknown mode kind {self.kind!r}", module="tensors")
        if len(self.categories) == 0:
            raise InputError("mode must have at least one category", module="tensors")
        if len(set(self.categories)) != len(self.categories):
            raise InputError(
                f"duplicate category names in mode {self.name or self.kind!r}",
                module="tensors",
            )
        if not self.name:
            object.__setattr__(self, "name", self.kind)

    @property
    def dim(self) -> int:
        return len(self.categories)


@dataclass(frozen=True, eq=False)
class CountTensor:
    """Dense multiway array of non-negative counts with labeled modes.

    Immutable after construction; the value array is copied and marked
    read-only so instances can be shared freely across threads.
    """

    modes: tuple[ModeLabel, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        modes = tuple(self.modes)
        arr = np.array(self.values, dtype=float)
        expected = tuple(m.dim for m in modes)
        if arr.shape != expected:
            raise InputError(
                f"value array shape {arr.shape} does not match mode dims {expected}",
                module="tensors",
            )
        kinds = [m.kind for m in modes]
        if kinds.count("space") != 1 or kinds.count("time") != 1:
            raise InputError(
                "tensor needs exactly one space mode and one time mode",
                module="tensors",
            )
        if not np.all(np.isfinite(arr)):
            raise InputError("tensor values must be finite", module="tensors")
        if np.any(arr < 0):
            raise InputError("tensor values must be non-negative", module="tensors")
        arr.setflags(write=False)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "values", arr)

    @classmethod
    def from_flat(cls, flat: Sequence[float], modes: Sequence[ModeLabel]) -> "CountTensor":
        """Build from a flat value list in linearization order (first mode fastest)."""
        modes = tuple(modes)
        dims = tuple(m.dim for m in modes)
        arr = np.asarray(flat, dtype=float)
        if arr.size != int(np.prod(dims)):
            raise InputError(
                f"flat value count {arr.size} does not match product of dims {dims}",
                module="tensors",
            )
        return cls(modes, arr.reshape(dims, order="F"))

    @property
    def dims(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def order(self) -> int:
        return self.values.ndim

    @property
    def space_axis(self) -> int:
        return next(i for i, m in enumerate(self.modes) if m.kind == "space")

    @property
    def time_axis(self) -> int:
        return next(i for i, m in enumerate(self.modes) if m.kind == "time")

    @property
    def total(self) -> float:
        return float(self.values.sum())

    def flat_values(self) -> np.ndarray:
        """Values in linearization order (first mode varies fastest)."""
        return self.values.ravel(order="F")

    def same_layout(self, other: "CountTensor") -> bool:
        """True when mode kinds and category lists match position by position."""
        return len(self.modes) == len(other.modes) and all(
            a.kind == b.kind and a.categories == b.categories
            for a, b in zip(self.modes, other.modes)
        )


def unfold(t: CountTensor, mode: int) -> np.ndarray:
    """Mode-n unfolding: rows are the mode's categories, columns the rest.

    Column order follows the documented convention (remaining modes in
    original order, last varying fastest). Downstream Gram matrices do
    not depend on it.
    """
    if not 0 <= mode < t.order:
        raise InputError(
            f"mode {mode} out of range for order-{t.order} tensor", module="tensors"
        )
    return np.moveaxis(t.values, mode, 0).reshape(t.dims[mode], -1).copy()


def canonicalize_sign(v: np.ndarray) -> np.ndarray:
    """Flip a vector, if needed, so its largest-magnitude element is positive.

    Exact ties pick the lowest index. Idempotent; raises on the zero vector
    because its sign is meaningless.
    """
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise InputError("expected a 1-D vector", module="tensors")
    idx = int(np.argmax(np.abs(arr)))
    if arr[idx] == 0.0:
        raise InputError("cannot canonicalize the zero vector", module="tensors")
    return -arr if arr[idx] < 0 else arr.copy()


def top_eigenpairs(sym: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-r eigenpairs of a symmetric PSD matrix by power iteration.

    Each eigenpair is accepted once the residual ||A v - lambda v|| drops
    below ``DEFAULT_TOL`` times the Frobenius norm of the input matrix, and
    the next pair is sought. Later pairs are kept apart from earlier ones by
    projection alone: each start vector and each product A v is projected
    off the converged vectors every step.

    Returns ``(values, vectors)`` with values sorted descending and
    vectors stacked row-wise, each unit norm and sign-canonicalized.
    Raises :class:`ConvergenceError` with the achieved residual if any
    pair fails to converge within ``DEFAULT_MAX_ITER`` iterations, and
    :class:`InputError` on a non-finite matrix. The solve holds one
    symmetrized copy of the matrix.
    """
    a = np.asarray(sym, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("expected a square matrix", module="tensors")
    n = a.shape[0]
    if not 1 <= r <= n:
        raise InputError(f"rank {r} out of range for {n}x{n} matrix", module="tensors")
    if not np.isfinite(a).all():
        raise InputError("matrix values must be finite", module="tensors")
    a = a + a.T  # enforce exact symmetry in one new array
    a /= 2.0
    threshold = DEFAULT_TOL * float(np.linalg.norm(a, "fro"))

    rng = np.random.default_rng(_START_SEED)
    values: list[float] = []
    basis: list[np.ndarray] = []

    for _ in range(r):
        v = rng.standard_normal(n)
        for u in basis:
            v -= (u @ v) * u
        v /= np.linalg.norm(v)

        lam = 0.0
        resid = np.inf
        converged = False
        for _ in range(DEFAULT_MAX_ITER):
            w = a @ v
            for u in basis:
                w -= (u @ w) * u
            lam = float(v @ w)
            resid = float(np.linalg.norm(w - lam * v))
            if resid <= threshold:
                converged = True
                break
            v = w / float(np.linalg.norm(w))  # w = 0 has a residual of 0, accepted above
        if not converged:
            raise ConvergenceError(
                f"power iteration did not converge within {DEFAULT_MAX_ITER} iterations "
                f"(residual {resid:.3e}, threshold {threshold:.3e})",
                residual=resid,
                iterations=DEFAULT_MAX_ITER,
            )
        v = canonicalize_sign(v)
        values.append(lam)
        basis.append(v)

    order = np.argsort(-np.asarray(values), kind="stable")
    vals = np.asarray(values)[order]
    vecs = np.vstack([basis[i] for i in order])
    return vals, vecs


def gram_eigen(m: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-r eigenpairs of the Gram matrix M.Mt of an unfolding.

    When M holds whole numbers and max|x|**2 times its column count is
    below 2**53, every product and partial sum is an integer below 2**53,
    so the Gram matrix is exact in any order of summation and comes from
    one BLAS product; any other M goes through a plain index-order
    contraction. Either way results do not depend on BLAS threading. A
    non-finite M raises :class:`InputError`.
    """
    mat = np.asarray(m, dtype=float)
    if mat.ndim != 2:
        raise InputError("expected a 2-D unfolding", module="tensors")
    if r > mat.shape[0]:
        raise InputError(
            f"rank {r} exceeds row count {mat.shape[0]}", module="tensors"
        )
    if not np.isfinite(mat).all():
        raise InputError("matrix values must be finite", module="tensors")
    peak = float(np.abs(mat).max(initial=0.0))
    if peak * peak * mat.shape[1] < _EXACT_SUM and (np.trunc(mat) == mat).all():
        gram = mat @ mat.T
    else:
        gram = np.einsum("ij,kj->ik", mat, mat)
    return top_eigenpairs(gram, r)


@dataclass(frozen=True, eq=False)
class EigenModel:
    """Per-mode top-r eigenpairs of a tensor's unfolding Gram matrices.

    ``eigenvalues[i]`` is descending and clamped at zero, ``eigenvectors[i]``
    stacks the corresponding unit vectors row-wise, and ``fits[i]`` is the
    retained share of the Gram eigenvalue mass (trace) for mode ``i``.
    """

    modes: tuple[ModeLabel, ...]
    ranks: tuple[int, ...]
    eigenvalues: tuple[np.ndarray, ...]
    eigenvectors: tuple[np.ndarray, ...]
    fits: tuple[float, ...]

    def first_vector(self, mode: int) -> np.ndarray:
        return self.eigenvectors[mode][0]


def default_ranks(t: CountTensor) -> tuple[int, ...]:
    """Two eigenvectors for space and time, one for attribute modes."""
    return tuple(
        min(2, m.dim) if m.kind in ("space", "time") else 1 for m in t.modes
    )


def decompose(t: CountTensor, ranks: Sequence[int] | None = None) -> EigenModel:
    """Per-mode unfolding -> Gram -> eigenpairs, with fit ratios.

    The fit for a mode is the retained eigenvalue mass divided by the
    trace of the Gram matrix, clamped into [0, 1]. A mode whose unfolding
    is entirely zero has no meaningful eigen-direction and raises
    :class:`DegenerateModeError` naming the mode.
    """
    if ranks is None:
        use_ranks = default_ranks(t)
    else:
        use_ranks = tuple(int(r) for r in ranks)
        if len(use_ranks) != t.order:
            raise InputError(
                f"expected {t.order} ranks, got {len(use_ranks)}", module="tensors"
            )
        for i, (r, m) in enumerate(zip(use_ranks, t.modes)):
            if not 1 <= r <= m.dim:
                raise InputError(
                    f"rank {r} invalid for mode {i} ({m.name!r}, dim {m.dim})",
                    module="tensors",
                )

    all_values: list[np.ndarray] = []
    all_vectors: list[np.ndarray] = []
    fits: list[float] = []
    for i, mode_label in enumerate(t.modes):
        mat = unfold(t, i)
        trace = float(np.sum(mat * mat))  # trace of M.Mt
        if trace == 0.0:
            raise DegenerateModeError(
                f"mode {i} ({mode_label.name!r}) has an all-zero unfolding",
                mode=i,
            )
        vals, vecs = gram_eigen(mat, use_ranks[i])
        vals = np.maximum(vals, 0.0)
        all_values.append(vals)
        all_vectors.append(vecs)
        fits.append(min(1.0, float(vals.sum()) / trace))

    return EigenModel(
        modes=t.modes,
        ranks=use_ranks,
        eigenvalues=tuple(all_values),
        eigenvectors=tuple(all_vectors),
        fits=tuple(fits),
    )
