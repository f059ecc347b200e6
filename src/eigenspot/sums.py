"""Cylinder sums: cell-order definitions, exact integer counts and fast baselines.

A cylinder's baseline is defined as ``matrix[members][:, t0:t1+1].sum()``
(:func:`cell_sums`); its counts, whole numbers, come from time prefix sums
(:func:`_disk_sums`), exact in any order. Float baselines from those prefix
sums are fast, and :class:`_FastBaselines` bounds how far they lie from the
definition, so that a scan sums cells in the definition's order only where
that bound cannot settle a decision (:func:`eigenspot.stscan.monte_carlo_scan`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

if TYPE_CHECKING:
    from .stscan import CylinderFamily

# values one slice of a float pass over cylinders holds: each pass's temporaries stay this size
_SLICE = 1 << 13


def cell_sums(fam: CylinderFamily, matrix: np.ndarray, cylinders: np.ndarray | None, block: int) -> np.ndarray:
    """:meth:`CylinderFamily.cell_sums`, whose runs hold at most ``block`` values."""
    steps, per_disk = matrix.shape[1], fam.t0.size
    widths = fam.t1 - fam.t0 + 1
    if cylinders is not None:
        cylinders = np.asarray(cylinders, dtype=np.intp)
        out = np.empty(cylinders.size)
        disk, window = np.divmod(cylinders, per_disk)
        size, width = fam.sizes[disk], widths[window]
        key = size * (steps + 1) + width
        order = np.argsort(key, kind="stable")
        cuts = [0, *(np.flatnonzero(np.diff(key[order])) + 1).tolist(), order.size] if order.size else []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            at = order[lo:hi]
            k, w = int(size[at[0]]), int(width[at[0]])
            run = max(1, block // (k * w))
            for s in range(0, at.size, run):
                one = at[s : s + run]
                rows = fam.orders[fam.centers[disk[one]], :k, None]  # run × k × 1
                cells = matrix[rows, fam.t0[window[one], None, None] + np.arange(w)]  # run × k × w
                out[one] = _cell_order_sums(cells, steps)
        return out
    out = np.empty((fam.sizes.size, per_disk))
    # bincount, not np.unique, which imports numpy.ma on every call
    per_width = np.bincount(widths)
    span = int((per_width * np.arange(per_width.size)).max())  # cells of one width per disk row
    for k in np.flatnonzero(np.bincount(fam.sizes)).tolist():
        sized = np.flatnonzero(fam.sizes == k)
        run = max(1, block // (k * max(span, steps)))
        for s in range(0, sized.size, run):
            disks = sized[s : s + run]
            slab = matrix[fam.orders[fam.centers[disks], :k]]  # disks × k × T
            for w in np.flatnonzero(per_width).tolist():
                wins = np.flatnonzero(widths == w)
                windows = sliding_window_view(slab, w, axis=2).transpose(0, 2, 1, 3)
                cells = windows[np.arange(disks.size)[:, None], fam.t0[wins]].reshape(-1, k, w)
                out[np.ix_(disks, wins)] = _cell_order_sums(cells, steps).reshape(disks.size, wins.size)
    return out.ravel()


def _cell_order_sums(cells: np.ndarray, steps: int) -> np.ndarray:
    """Sums of contiguous (n, k, w) cell blocks, each as ``block.sum()`` adds a k × w slice of a T-step matrix.

    numpy adds a block's cells pairwise in row-major order; a block that is
    neither one step nor all ``steps`` wide goes through numpy's buffer in
    runs of whole rows that fit ``np.getbufsize()`` cells.
    """
    _, k, w = cells.shape
    step = k if w in (1, steps) else max(1, np.getbufsize() // w)
    sums = cells[:, :step].sum(axis=(1, 2))
    for j in range(step, k, step):
        sums += cells[:, j : j + step].sum(axis=(1, 2))
    return sums


def _disk_sums(
    matrix: np.ndarray, total: float | None, fam: CylinderFamily, blocks: list
) -> Iterator[tuple[slice, np.ndarray]]:
    """Per block of :meth:`CylinderFamily.blocks`: its disks and their sums over every window.

    ``matrix`` holds whole numbers that add up to ``total``. Each region's
    time prefix sums (regions × (T + 1), zero first column) are integers,
    int32 when ``total`` is below 2**31 and int64 otherwise, so no sum a
    disk reads can overflow. A block gathers them along its order rows
    (steps × centers × (T + 1)), adds each step into the next, reads disk
    ``d``'s prefix row at step ``sizes[d] - 1`` and forms each window
    ``(t0, t1)`` as ``prefix[t1 + 1] - prefix[t0]``, disks × windows in the
    family's order, in the prefixes' type. Integer sums are exact, so each
    count equals a sum in any other order. Steps past a row's last disk
    repeat its center and may wrap; no disk reads them. With ``total``
    None the matrix may hold any non-negative floats and the prefixes are
    float64: the fast baselines, whose error :class:`_FastBaselines` bounds.
    """
    whole = np.float64 if total is None else np.int32 if total < 2**31 else np.int64
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
        yield disks, counts.T  # a view; ravel() copies it disk-major


class _FastBaselines:
    """Every cylinder's baseline from the disk-sum kernel, each within a proven bound of its definition.

    ``values`` (disks × windows) start as what :func:`_disk_sums` gives for
    the baseline matrix: F = P[t1 + 1] - P[t0], where P is a disk's running
    sum, over its members, of their time prefix sums. The definition sum D
    is ``matrix[members][:, t0:t1+1].sum()`` (:meth:`CylinderFamily.cell_sums`).
    Every cell is >= 0, so with u = 2**-53, γ_m = m u / (1 - m u), S the
    exact sum, k the disk's size and R its exact total over all T steps
    (Higham, "Accuracy and Stability of Numerical Algorithms", ch. 4): D
    adds S's k w cells in some order, |D - S| <= γ_{kw-1} S; a cell reaches
    P through at most T - 1 + k - 1 additions, and the subtraction rounds
    once more, |F - S| <= 2 γ_{T+k-1} R + u S. So |F - D| <= 1.01 u (k T +
    2 k + 2 T) R while m u < 0.01, and ``err`` = 8 u (k T + 2 k + 2 T) times
    the disk's total as summed here is at least twice that: F - err and
    F + err, each rounded, bracket D.

    ``edges`` are the cylinders whose bracket reaches 0 or ``b_total``;
    only their definition sums can say whether, and how, they score, and
    they are resolved at once. ``spread`` is the largest err / min(F - err,
    b_total - (F + err)) of any other cylinder: as the score's derivative in
    B, (N - C) / (B_tot - B) - C / B, is at most N / min(B, B_tot - B) in
    size, a score on a fast baseline lies within N ``spread`` of the
    definition's, before rounding. :meth:`resolve` writes definition sums
    into ``values`` (keeping every bound) and lists their cylinders in
    ``resolved``, sorted. Nothing else is held per cylinder.
    """

    def __init__(self, fam: CylinderFamily, matrix: np.ndarray, blocks: list, b_total: float) -> None:
        self.family, self.matrix = fam, matrix
        self.values = np.empty((fam.sizes.size, fam.t0.size))
        for disks, sums in _disk_sums(matrix, None, fam, blocks):
            self.values[disks] = sums
        k, steps = fam.sizes, matrix.shape[1]
        totals = np.cumsum(matrix.sum(axis=1)[fam.orders], axis=1)[fam.centers, k - 1]
        self.err = (k * steps + 2 * (k + steps)) * totals * 2.0**-50  # per disk
        edges, self.spread, rows = [], 0.0, max(1, _SLICE // fam.t0.size)
        for d in range(0, k.size, rows):
            base, e = self.values[d : d + rows], self.err[d : d + rows, None]
            room = np.minimum(base - e, b_total - (base + e))
            inner = room > 0
            edges.append(np.flatnonzero(~inner) + d * fam.t0.size)
            self.spread = max(self.spread, float((e / np.where(inner, room, np.inf)).max(initial=0.0)))
        self.resolved = np.empty(0, np.intp)
        self.edges = np.concatenate(edges)
        self.resolve(self.edges)

    def known(self, cylinders: np.ndarray) -> np.ndarray:
        """Which of ``cylinders`` hold their definition baselines."""
        at = np.searchsorted(self.resolved, cylinders)
        out = at < self.resolved.size
        out[out] = self.resolved[at[out]] == cylinders[out]
        return out

    def resolve(self, cylinders: np.ndarray) -> np.ndarray:
        """The definition baselines of distinct ``cylinders``, each summed once and then kept in ``values``."""
        flat = self.values.reshape(-1)
        new = cylinders[~self.known(cylinders)]
        if new.size:
            flat[new] = self.family.cell_sums(self.matrix, new)
            self.resolved = np.sort(np.concatenate([self.resolved, new]))
        return flat[cylinders]


def _intervals(
    counts: np.ndarray, baselines: np.ndarray, llr: np.ndarray, c_total: float, b_total: float,
    elevated_only: bool, spread: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Scores of ``counts`` on fast baselines, and slacks that their definition scores lie within.

    ``llr`` is their unmasked score, :func:`eigenspot.stscan._llr`, and
    ``spread`` is :attr:`_FastBaselines.spread`. Each evaluation of the score
    rounds by less than 1e-14 (|score| + N + B_tot), as its
    negative terms are each at most B_tot, so the slack is N ``spread`` +
    1e-12 (|score| + N + B_tot). With elevated-only scoring the rate test
    C B_tot > B N can differ on F and on D only where |C B_tot - F N| <=
    err N < ``spread`` F N; any other count is masked alike on both (a 0
    is exact, slack 0), and such a count may score 0 or its score, so its
    slack grows by the score's size.
    """
    slack = spread * c_total + 1e-12 * (np.abs(llr) + c_total + b_total)
    if not elevated_only:
        return llr, slack
    rate, line = counts * b_total, baselines * c_total
    hot, sure = rate > line, np.abs(rate - line) > 2 * spread * line
    return np.where(hot, llr, 0.0), np.where(sure, np.where(hot, slack, 0.0), slack + np.abs(llr))
