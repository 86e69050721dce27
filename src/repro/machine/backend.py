"""Pluggable array backend for the batched pricing path.

The batched group executor (:func:`repro.runtime.executor.execute_group`)
is written against a small duck-typed slice of the array API —
``asarray`` / ``concatenate`` / ``unique`` over int64 matrices — so the
same code can run its group-by reductions on a GPU.  This module owns
the selection knob:

* ``REPRO_PRICE_BACKEND`` — environment default (``numpy`` when unset);
* :func:`set_price_backend` / :func:`price_backend` — process-local
  override, passed through executor worker init so spawn-context
  workers honour a parent's choice (see
  :class:`repro.campaign.executors.ExecutorConfig`);
* :func:`array_namespace` — the live module (``numpy`` or ``cupy``).

``cupy`` is **optional and never imported eagerly**: selecting it on a
box without the package raises a friendly error naming the knob, and
the numpy path never pays an import attempt.  Results are bit-identical
across backends by construction — the backend only executes the stacked
``unique`` group-bys; all float cost arithmetic stays in the Python/
NumPy scalar path (:func:`repro.machine.contention.phase_time_arrays`).
"""

from __future__ import annotations

import os
from typing import Dict, Optional

import numpy as np

from ..obs.metrics import register_provider as _register_provider

#: the environment knob read once at first use
BACKEND_ENV = "REPRO_PRICE_BACKEND"

#: selectable backends (``cupy`` is gated on the package being present)
KNOWN_BACKENDS = ("numpy", "cupy")

#: current backend name; ``None`` = not resolved from the env yet
_backend_name: Optional[str] = None
#: imported array modules by backend name
_modules: Dict[str, object] = {"numpy": np}


def _import_backend(name: str):
    """Import (and cache) the array module of a known backend name.

    Raises a friendly error for an unknown name or a missing optional
    package — the message names the knob so a misconfigured campaign
    fails actionably instead of with a bare ``ModuleNotFoundError``.
    """
    if name not in KNOWN_BACKENDS:
        raise ValueError(
            f"unknown price backend {name!r} (known: "
            f"{', '.join(KNOWN_BACKENDS)}; set {BACKEND_ENV} or call "
            "set_price_backend)"
        )
    mod = _modules.get(name)
    if mod is not None:
        return mod
    try:
        import cupy as mod  # the only backend not imported eagerly
    except ImportError as exc:
        raise RuntimeError(
            f"price backend {name!r} selected (via {BACKEND_ENV} or "
            "set_price_backend) but the cupy package is not installed: "
            "install cupy matching your CUDA toolkit, or select the "
            "'numpy' backend"
        ) from exc
    _modules[name] = mod
    return mod


def price_backend() -> str:
    """The active backend name (resolving ``REPRO_PRICE_BACKEND`` on
    first use; an unknown/unavailable env value fails at first pricing
    rather than at import)."""
    global _backend_name
    if _backend_name is None:
        _backend_name = os.environ.get(BACKEND_ENV, "numpy").strip() or "numpy"
    return _backend_name


def set_price_backend(name: str) -> str:
    """Select the array backend for this process; returns the previous
    name.  Validates eagerly — selecting ``cupy`` without the package
    raises immediately, not mid-campaign."""
    global _backend_name
    _import_backend(name)
    prev = price_backend()
    _backend_name = name
    return prev


def array_namespace():
    """The live array module of the active backend (duck-typed: numpy
    or cupy, both expose ``asarray``/``concatenate``/``unique``)."""
    return _import_backend(price_backend())


def to_host(arr) -> np.ndarray:
    """Bring a backend array to host memory as ``np.ndarray`` (identity
    for numpy; ``.get()`` for device arrays, duck-typed)."""
    if isinstance(arr, np.ndarray):
        return arr
    get = getattr(arr, "get", None)
    if get is not None:
        return np.asarray(get())
    return np.asarray(arr)


def unique_rows(stacked: np.ndarray, return_inverse: bool = False):
    """``np.unique(stacked, axis=0, return_counts=True)`` on the active
    backend, results on host.  With ``return_inverse`` the row -> unique
    index map rides along (packed keys sort exactly like the rows, so
    the inverse is the same one the axis unique would return).

    ``np.unique(..., axis=0)`` compares rows as opaque byte strings,
    which makes its sort the single hottest call of a batched pricing
    run.  Rows here are small ints (cell ids, phase times, mesh
    coordinates — and the Fourier–Motzkin kernel's signed inequality
    rows), so after shifting each column by its minimum every row packs
    into one int64 key whose scalar order equals the row's
    lexicographic order — a 1-D unique over the keys returns the same
    rows in the same order and the same counts, roughly an order of
    magnitude faster.  Rows that cannot pack (> 63 key bits of
    per-column span) fall back to the axis unique.

    This is the one group-by the batched pricing path runs per label —
    routing it (and only it) through the backend keeps every float cost
    computation on the exact scalar path while letting the heavy int64
    sort/dedup run on a device when ``cupy`` is selected.
    """
    xp = array_namespace()
    arr = xp.asarray(stacked)
    n, ncols = arr.shape
    if n and ncols and np.issubdtype(np.dtype(arr.dtype), np.integer):
        cols = [arr[:, j] for j in range(ncols)]
        # per-column bounds as exact Python ints: the shifted values are
        # non-negative and the bit-width check can't itself overflow
        mins = [int(c.min()) for c in cols]
        spans = [int(c.max()) - lo for c, lo in zip(cols, mins)]
        bits = [max(s.bit_length(), 1) for s in spans]
        if sum(bits) <= 63:
            # int64 shifts (wrap-safe: every shifted value fits)
            lows = [np.int64(lo) for lo in mins]
            keys = cols[0].astype(xp.int64) - lows[0]
            for j in range(1, ncols):
                keys <<= bits[j]
                keys |= cols[j] - lows[j]
            if return_inverse:
                ukeys, inverse, counts = xp.unique(
                    keys, return_inverse=True, return_counts=True
                )
            else:
                ukeys, counts = xp.unique(keys, return_counts=True)
            # column-major, like the extraction arrays it is built from
            uniq = xp.empty((ncols, ukeys.shape[0]), dtype=xp.int64).T
            for j in range(ncols - 1, 0, -1):
                uniq[:, j] = (ukeys & ((1 << bits[j]) - 1)) + lows[j]
                ukeys = ukeys >> bits[j]
            uniq[:, 0] = ukeys + lows[0]
            if return_inverse:
                return (
                    to_host(uniq),
                    to_host(counts),
                    np.asarray(to_host(inverse)).ravel(),
                )
            return to_host(uniq), to_host(counts)
    if xp is np:
        if return_inverse:
            uniq, inverse, counts = np.unique(
                stacked, axis=0, return_inverse=True, return_counts=True
            )
            return uniq, counts, np.asarray(inverse).ravel()
        return np.unique(stacked, axis=0, return_counts=True)
    if return_inverse:
        uniq, inverse, counts = xp.unique(
            arr, axis=0, return_inverse=True, return_counts=True
        )
        return to_host(uniq), to_host(counts), np.asarray(to_host(inverse)).ravel()
    uniq, counts = xp.unique(arr, axis=0, return_counts=True)
    return to_host(uniq), to_host(counts)


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
    loads, hop counts, sender fanouts are all non-negative).

    The scatter-max of the fused pricing kernel: numpy uses
    ``np.maximum.at``; a device backend uses ``cupyx.scatter_max``
    (duck-typed, imported lazily alongside cupy) with a host fallback.
    """
    xp = array_namespace()
    if xp is np:
        out = np.zeros(n_segments, dtype=np.asarray(values).dtype)
        np.maximum.at(out, segment_ids, values)
        return out
    try:  # pragma: no cover - exercised only with cupy installed
        import cupyx

        out = xp.zeros(n_segments, dtype=xp.asarray(values).dtype)
        cupyx.scatter_max(out, xp.asarray(segment_ids), xp.asarray(values))
        return to_host(out)
    except Exception:  # pragma: no cover
        vals = to_host(values)
        out = np.zeros(n_segments, dtype=np.asarray(vals).dtype)
        np.maximum.at(out, to_host(segment_ids), vals)
        return out


def backend_stats() -> Dict[str, object]:
    """Snapshot row for the obs metrics registry."""
    return {"backend": price_backend()}


_register_provider("machine.price_backend", backend_stats)
