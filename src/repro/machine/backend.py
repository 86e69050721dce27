"""NumPy group-by helpers shared by the pricing and analysis paths.

* :func:`unique_rows` — ``np.unique(axis=0)`` with counts, on packed
  int64 keys when the rows are small ints (the executor's phase
  partition, the contention kernels' fan-out counts and the
  Fourier–Motzkin dedupe all group small-int rows);
* :func:`rows_equal` — row-wise equality by full-length column passes;
* :func:`segment_max` — the scatter-max of the fused pricing kernel.
"""

from __future__ import annotations

import numpy as np


def unique_rows(stacked, select=None):
    """``np.unique(stacked[select], axis=0, return_counts=True)``.

    ``stacked`` is an ``(n, k)`` matrix or the sequence of its ``k``
    ``(n,)`` columns (the executor passes a batch's separate time and
    coordinate arrays without stacking them); ``select``, when given,
    indexes the rows to group.

    ``np.unique(..., axis=0)`` compares rows as opaque byte strings,
    which makes its sort the single hottest call of a pricing run.
    Rows here are small ints (phase times, mesh coordinates — and the
    Fourier–Motzkin kernel's signed inequality rows), so after shifting
    each column by its minimum every row packs into one int64 key whose
    scalar order equals the row's lexicographic order — a 1-D unique
    over the keys returns the same rows in the same order and the same
    counts, roughly an order of magnitude faster.  The key is packed
    over all ``n`` rows and only the key is gathered at ``select``, so
    no column is gathered.  Rows that cannot pack (> 63 key bits of
    per-column span) fall back to the axis unique.
    """
    if isinstance(stacked, np.ndarray):
        n, ncols = stacked.shape
        cols = list(stacked.T)
    else:
        cols = list(stacked)
        n, ncols = cols[0].shape[0], len(cols)
        stacked = None
    if n and ncols and np.issubdtype(cols[0].dtype, np.integer):
        # per-column bounds as exact Python ints: the shifted values are
        # non-negative and the bit-width check can't itself overflow
        mins = [int(c.min()) for c in cols]
        spans = [int(c.max()) - lo for c, lo in zip(cols, mins)]
        bits = [max(s.bit_length(), 1) for s in spans]
        if sum(bits) <= 63:
            # int64 shifts (wrap-safe: every shifted value fits)
            lows = [np.int64(lo) for lo in mins]
            keys = cols[0].astype(np.int64) - lows[0]
            for j in range(1, ncols):
                keys <<= bits[j]
                keys |= cols[j] - lows[j]
            if select is not None:
                keys = keys[select]
            ukeys, counts = np.unique(keys, return_counts=True)
            # column-major, like the extraction arrays it is built from
            uniq = np.empty((ncols, ukeys.shape[0]), dtype=np.int64).T
            for j in range(ncols - 1, 0, -1):
                uniq[:, j] = (ukeys & ((1 << bits[j]) - 1)) + lows[j]
                ukeys = ukeys >> bits[j]
            uniq[:, 0] = ukeys + lows[0]
            return uniq, counts
    if stacked is None:
        stacked = np.stack(cols, axis=1)
    if select is not None:
        stacked = stacked[select]
    return np.unique(stacked, axis=0, return_counts=True)


def rows_equal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise equality of two ``(n, k)`` matrices as an ``(n,)`` bool
    mask, compared column by column — a few full-length elementwise
    passes instead of a reduction along the short row axis, which
    NumPy runs several times slower on tall matrices."""
    eq = np.ones(a.shape[0], dtype=bool)
    for j in range(a.shape[1]):
        eq &= a[:, j] == b[:, j]
    return eq


def segment_max(values: np.ndarray, segment_ids: np.ndarray, n_segments: int):
    """Per-segment maximum of ``values`` grouped by ``segment_ids``
    (dense ``(n_segments,)`` output, ``0`` for empty segments — the
    identity of every quantity the contention kernel reduces: link
    loads, hop counts, sender fanouts are all non-negative)."""
    out = np.zeros(n_segments, dtype=values.dtype)
    np.maximum.at(out, segment_ids, values)
    return out
