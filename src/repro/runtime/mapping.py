"""Mapped programs: loop nest + allocations + folding + machine.

The executor enumerates the (bounded) iteration space of a scheduled,
aligned loop nest and derives the concrete message sets between
*physical* processors, which a machine model then prices.  This is the
substitution for running the compiled HPF program on real hardware: the
paper's claims are about which messages exist, how they group into
macro-communications and how they collide — all of which the executor
reproduces exactly.

Folding is dimension-generic: the physical target may be any N-D mesh
(2-D Paragon, 3-D T3D, …) and one 1-D distribution scheme is applied
per physical dimension.  The virtual grid dimension ``m`` must equal
the mesh rank — a mismatch raises a friendly error instead of the old
silent collapse-by-summation of extra virtual dimensions.

The communication extraction is **vectorized**: each statement's
polyhedral iteration domain becomes one dense integer index matrix —
the rectangular *bounding box* (``np.meshgrid`` over the bounds, points
in ``itertools.product`` order) filtered by the domain's vectorized
membership mask (one int64 matmul against the half-space system; see
:meth:`repro.ir.Domain.point_matrix`), so triangular/trapezoidal nests
ride the same dense path and rectangular nests skip the mask entirely.
Placements are single integer matmuls over the whole domain — an array
owner one composed stage ``(M_x F) I + (M_x c + a_x)`` — giving
column-major arrays, and :class:`Folding` applies its modular
arithmetic to whole columns, once per distinct virtual array
(:meth:`Folding.fold_array`).  The executor prices the pre-masked
batches directly — it never re-enumerates a domain.  The arrays — one :class:`CommBatch` per
access — feed the executor's group-by pricing directly; the original
per-element path is kept as :meth:`MappedProgram.comm_events_python`,
the measured baseline that the vectorized path is asserted bit-identical
against (same pattern as ``phase_time_python`` in the machine layer).
The virtual-grid stage (schedule times, sender/receiver virtual
coordinates) depends only on the mapping and the size bindings, so it is
cached **on the mapping** and shared by every folding of the same
compiled nest — the compile-once/price-many situation of the campaign
runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..alignment import MappingResult
from ..distribution import Distribution1D, make_1d
from ..ir import AccessKind
from ..linalg import IntMat
from ..machine.backend import rows_equal, unique_rows

Virtual = Tuple[int, ...]
Phys = Tuple[int, ...]

#: int64 safety bound shared with the IntMat fast paths: intermediate
#: products beyond this fall back to the exact per-element Python path
_INT64_SAFE = 2 ** 62


@dataclass
class Folding:
    """Folds the (unbounded) m-D virtual grid onto a physical mesh.

    The virtual coordinates produced by allocation matrices can be
    negative and unbounded; we first shift-and-clamp them into an
    ``extent``-sized window per dimension (modulo), then apply one 1-D
    distribution per physical mesh dimension.  ``mesh`` may be any
    mesh exposing ``dims`` (:class:`~repro.machine.Mesh2D`,
    :class:`~repro.machine.Mesh3D`, …); the virtual rank must equal the
    mesh rank — :meth:`fold` raises a friendly ``ValueError`` on
    mismatch (pick ``m = len(mesh.dims)`` when compiling).

    Schemes: ``schemes``/``scheme_kw`` give one 1-D scheme name (and
    keyword dict) per mesh dimension.  For 2-D meshes the historical
    ``row_scheme``/``col_scheme`` (+ ``row_kw``/``col_kw``) spelling is
    still accepted; when neither is given every dimension defaults to
    ``cyclic``.
    """

    mesh: object
    extent: int
    schemes: Optional[Sequence[str]] = None
    scheme_kw: Optional[Sequence[Dict]] = None
    row_scheme: str = "cyclic"
    col_scheme: str = "cyclic"
    row_kw: Dict = field(default_factory=dict)
    col_kw: Dict = field(default_factory=dict)

    def __post_init__(self):
        dims = tuple(self.mesh.dims)
        schemes = self.schemes
        kws = self.scheme_kw
        legacy = (
            self.row_scheme != "cyclic"
            or self.col_scheme != "cyclic"
            or bool(self.row_kw)
            or bool(self.col_kw)
        )
        if schemes is None:
            if len(dims) == 2:
                schemes = (self.row_scheme, self.col_scheme)
                if kws is None:
                    kws = (self.row_kw, self.col_kw)
            elif legacy:
                raise ValueError(
                    "row_scheme/col_scheme/row_kw/col_kw only apply to "
                    f"2-D meshes; this mesh is {len(dims)}-D — pass "
                    "schemes=(...) with one scheme per dimension"
                )
            else:
                schemes = ("cyclic",) * len(dims)
        elif legacy:
            raise ValueError(
                "pass either schemes=/scheme_kw= or the 2-D "
                "row_scheme/col_scheme spelling, not both"
            )
        if kws is None:
            kws = ({},) * len(dims)
        if len(schemes) != len(dims) or len(kws) != len(dims):
            raise ValueError(
                f"need one distribution scheme per mesh dimension: mesh "
                f"has {len(dims)} dimension(s), got {len(schemes)} "
                f"scheme(s) and {len(kws)} kwarg dict(s)"
            )
        self._dists: Tuple[Distribution1D, ...] = tuple(
            make_1d(s, self.extent, p, **kw)
            for s, p, kw in zip(schemes, dims, kws)
        )

    @property
    def rank(self) -> int:
        """Number of physical mesh dimensions."""
        return len(self._dists)

    def fold(self, virtual: Sequence[int]) -> Phys:
        if len(virtual) != self.rank:
            raise ValueError(
                f"cannot fold a {len(virtual)}-D virtual coordinate onto "
                f"a {self.rank}-D mesh: the virtual grid dimension m must "
                f"equal the mesh rank (compile with m={self.rank} or "
                f"target a {len(virtual)}-D mesh)"
            )
        return tuple(
            d.phys(v % self.extent) for d, v in zip(self._dists, virtual)
        )

    def fold_array(self, virtual: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`fold` over an ``(n, rank)`` coordinate array.

        Applies the shift-and-clamp modulo and the per-dimension 1-D
        distribution to whole columns at once; bit-identical to the
        scalar path (``%`` floor-mod semantics match between Python ints
        and numpy int64).
        """
        if virtual.ndim != 2 or virtual.shape[1] != self.rank:
            raise ValueError(
                f"cannot fold a {virtual.shape}-shaped coordinate array "
                f"onto a {self.rank}-D mesh: expected (n, {self.rank})"
            )
        out = np.empty_like(virtual)
        for j, d in enumerate(self._dists):
            out[:, j] = d.phys_array(virtual[:, j] % self.extent)
        return out


@dataclass
class CommEvent:
    """One element-level communication produced by the executor."""

    access_label: str
    time: Tuple[int, ...]
    sender_virtual: Virtual
    receiver_virtual: Virtual
    sender: Phys
    receiver: Phys

    @property
    def is_local_phys(self) -> bool:
        return self.sender == self.receiver


@dataclass
class PhaseSegments:
    """Segment-id layout of one label's priced phases — the input of
    the fused segmented pricing kernel.

    The coalesced ``(sender | receiver)`` rows of **all** phases sit in
    one phase-major matrix; ``starts`` delimits the segments (phase
    ``i`` owns rows ``starts[i]:starts[i+1]``, in the same ascending
    time order — and with the same lex-sorted rows per phase — that the
    per-phase ``np.unique`` group-bys used to produce one sub-array at
    a time).  ``counts`` carries each unique pair's multiplicity,
    ``n_events`` each phase's pre-coalescing event count.
    """

    #: (U, 2*rank) unique coalesced pair rows of all phases, phase-major
    pairs: np.ndarray
    #: (U,) multiplicity of each unique pair within its phase
    counts: np.ndarray
    #: (S+1,) segment offsets into ``pairs``/``counts``
    starts: np.ndarray
    #: (S,) events per phase before pair coalescing
    n_events: np.ndarray

    @property
    def n_phases(self) -> int:
        return self.starts.shape[0] - 1

    def phase_ids(self) -> np.ndarray:
        """The ``(U,)`` int64 segment column (``pairs`` row -> phase id),
        memoized."""
        ids = self.__dict__.get("_phase_ids")
        if ids is None:
            ids = np.repeat(
                np.arange(self.n_phases, dtype=np.int64),
                np.diff(self.starts),
            )
            self.__dict__["_phase_ids"] = ids
        return ids


def build_phase_segments(
    rows: np.ndarray, time_width: int = 0
) -> PhaseSegments:
    """Group raw ``[time | sender | receiver]`` event rows (the first
    ``time_width`` columns are the time vector) into the
    :class:`PhaseSegments` layout with **one** ``unique_rows`` call.

    Events group into one phase per distinct time vector: the unique
    sorts time-major, so segment boundaries are where the time prefix
    changes — phases come out in ascending time order with lex-sorted
    unique pairs and their multiplicities, exactly what a per-phase
    ``np.unique`` group-by produced.  With ``time_width == 0``
    (vectorizable access, or a width-0 schedule) every event lands in
    one phase; no events means no phases.
    """
    uniq, counts = unique_rows(rows)
    pairs = uniq[:, time_width:]
    u = pairs.shape[0]
    if u == 0:
        starts = np.zeros(1, dtype=np.int64)
        n_events = np.empty(0, dtype=np.int64)
    else:
        if time_width == 0:
            starts = np.array([0, u], dtype=np.int64)
        else:
            prefix = uniq[:, :time_width]
            change = np.flatnonzero(~rows_equal(prefix[1:], prefix[:-1]))
            starts = np.concatenate(([0], change + 1, [u])).astype(np.int64)
        n_events = np.add.reduceat(counts, starts[:-1]).astype(np.int64)
    return PhaseSegments(
        pairs=pairs, counts=counts, starts=starts, n_events=n_events
    )


@dataclass
class CommBatch:
    """Dense array form of one access's element communications.

    One row per iteration-domain point, in ``itertools.product`` order
    (the exact order :meth:`MappedProgram.comm_events_python` emits
    events in).  All arrays are int64.

    The executor's group-by reductions over a batch — locality masks
    and the per-phase ``np.unique`` pair coalescing — are **memoized on
    the instance** (:meth:`locality_masks`, :meth:`phase_partition`):
    pricing the same program again (the heuristic-vs-baseline
    comparison, bench reruns) reuses one
    extraction instead of re-uniquing per call.  Batches are rebuilt
    whenever the mapping mutates (see
    :meth:`MappedProgram.comm_batches`), so the caches can never serve
    stale arrays.
    """

    access_label: str
    stmt: str
    #: (n, t) schedule time vectors
    times: np.ndarray
    #: (n, m) virtual coordinates
    sender_virtual: np.ndarray
    receiver_virtual: np.ndarray
    #: (n, rank) folded physical coordinates
    sender: np.ndarray
    receiver: np.ndarray

    @property
    def n(self) -> int:
        return self.sender_virtual.shape[0]

    def virtual_local_mask(self) -> np.ndarray:
        """Rows local on the *virtual* grid (folding-independent), so
        the group executor seeds it across the K cells of one
        compiled nest — their virtual arrays are the same objects."""
        mask = self.__dict__.get("_virt_local")
        if mask is None:
            mask = rows_equal(self.sender_virtual, self.receiver_virtual)
            self.__dict__["_virt_local"] = mask
        return mask

    def locality_masks(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(virtual_local, phys_local, send)`` row masks, memoized.

        ``phys_local`` counts only rows *not* already virtual-local
        (matching the per-event path's early-continue order); ``send``
        is what survives both filters.
        """
        cached = self.__dict__.get("_locality")
        if cached is None:
            virt_local = self.virtual_local_mask()
            nonlocal_mask = ~virt_local
            phys_local = nonlocal_mask & rows_equal(self.sender, self.receiver)
            send = nonlocal_mask & ~phys_local
            cached = (virt_local, phys_local, send)
            self.__dict__["_locality"] = cached
        return cached

    def send_rows(self) -> np.ndarray:
        """``time | sender | receiver`` rows of the surviving (send)
        events, memoized; gathered column by column into a column-major
        array (an index gather per column is several times faster than
        a boolean row mask over the whole matrix)."""
        rows = self.__dict__.get("_send_rows")
        if rows is None:
            send = np.flatnonzero(self.locality_masks()[2])
            cols = [
                a[:, j]
                for a in (self.times, self.sender, self.receiver)
                for j in range(a.shape[1])
            ]
            rows = np.empty((len(cols), send.shape[0]), dtype=np.int64)
            for out, col in zip(rows, cols):
                np.take(col, send, out=out)
            rows = rows.T
            self.__dict__["_send_rows"] = rows
        return rows

    def send_pairs(self) -> np.ndarray:
        """``sender | receiver`` columns of :meth:`send_rows` — the
        executor's phase group-by input."""
        return self.send_rows()[:, self.times.shape[1]:]

    def phase_partition(self, vectorizable: bool) -> PhaseSegments:
        """The batch's send events grouped into priced phases, in the
        segment-id layout (:class:`PhaseSegments`) the fused pricing
        kernel consumes — no per-phase sub-arrays are materialized.

        Vectorizable accesses merge every time step into one phase;
        otherwise phases follow ascending time order (matching the
        per-event path's sorted bucket keys), each phase's rows
        lex-sorted — exactly the per-phase ``np.unique`` outputs,
        concatenated.  One packed ``unique_rows`` call per batch,
        memoized per ``vectorizable`` flag.
        """
        cache = self.__dict__.setdefault("_phase_partition", {})
        hit = cache.get(vectorizable)
        if hit is not None:
            return hit
        if vectorizable:
            seg = build_phase_segments(self.send_pairs())
        else:
            seg = build_phase_segments(self.send_rows(), self.times.shape[1])
        cache[vectorizable] = seg
        return seg


def _domain_matrix(stmt, params: Dict[str, int]) -> np.ndarray:
    """The statement's iteration domain as an ``(n, d)`` int64 matrix,
    points in bounding-box ``itertools.product`` row-major order.

    Delegates to :meth:`repro.ir.Domain.point_matrix`: rectangular
    domains return the dense box unchanged (the historical layout);
    triangular/trapezoidal domains return the box rows that survive the
    vectorized membership mask — the exact rows (and order)
    ``Statement.iteration_domain`` enumerates."""
    return stmt.domain.point_matrix(params)


def _affine_rows(idx: np.ndarray, mat: IntMat, off: Optional[IntMat]) -> np.ndarray:
    """Evaluate ``mat @ I + off`` for every domain row of ``idx`` in one
    integer matmul: returns an ``(n, mat.nrows)`` column-major array
    (``mat @ idx.T`` transposed — several times faster than
    ``idx @ mat.T`` on tall ``idx``, and later stages read columns)."""
    out = mat.to_numpy() @ idx.T
    if off is not None:
        out = out + off.to_numpy()
    return out.T


def _vector_bound_ok(idx: np.ndarray, *stages) -> bool:
    """Prove no int64 overflow is possible through the chained affine
    stages ``(mat, off)`` applied to ``idx`` (same style as the IntMat
    matmul fast-path bound).  Conservative: uses max-abs magnitudes."""
    bound = max(-int(idx.min()), int(idx.max())) if idx.size else 0
    for mat, off in stages:
        k = mat.ncols
        bound = k * mat.max_abs() * bound + (off.max_abs() if off is not None else 0)
        if bound >= _INT64_SAFE:
            return False
    return True


@dataclass
class MappedProgram:
    """A fully mapped program ready for execution on a machine model."""

    mapping: MappingResult
    folding: Folding
    params: Dict[str, int]

    def __post_init__(self):
        m = self.mapping.alignment.m
        if m != self.folding.rank:
            raise ValueError(
                f"mapping targets an m={m} virtual grid but the folding "
                f"is onto a {self.folding.rank}-D mesh: the two ranks "
                f"must match (compile with m={self.folding.rank} or fold "
                f"onto a {m}-D mesh)"
            )

    def virtual_of_stmt(self, stmt: str, index: Sequence[int]) -> Virtual:
        al = self.mapping.alignment
        m = al.allocation_of_stmt(stmt)
        a = al.offset_of_stmt(stmt)
        return (m @ IntMat.col(list(index)) + a).column_tuple(0)

    def virtual_of_array(self, array: str, subscripts: Sequence[int]) -> Virtual:
        al = self.mapping.alignment
        m = al.allocation_of_array(array)
        a = al.offset_of_array(array)
        return (m @ IntMat.col(list(subscripts)) + a).column_tuple(0)

    def comm_events_python(self) -> List[CommEvent]:
        """Element-level communications of the whole execution, one
        Python object per access per domain point.

        For a read, data flows array-owner -> statement processor; for
        a write, statement processor -> array owner.

        This is the pre-vectorization reference path — the measured
        baseline of ``bench_runtime_exec.py`` and the bit-identity
        cross-check for :meth:`comm_batches` (see
        ``tests/runtime/test_runtime_vectorized.py``).
        """
        out: List[CommEvent] = []
        nest = self.mapping.alignment.nest
        sched = self.mapping.schedules
        for stmt in nest.statements:
            theta = sched.schedule_of(stmt.name)
            for acc in stmt.accesses:
                label = acc.label or f"{stmt.name}:{acc.array}"
                for idx in stmt.iteration_domain(self.params):
                    subs = acc.apply(idx)
                    owner_v = self.virtual_of_array(acc.array, subs)
                    stmt_v = self.virtual_of_stmt(stmt.name, idx)
                    if acc.kind is AccessKind.READ:
                        sv, rv = owner_v, stmt_v
                    else:
                        sv, rv = stmt_v, owner_v
                    out.append(
                        CommEvent(
                            access_label=label,
                            time=theta.time_of(idx),
                            sender_virtual=sv,
                            receiver_virtual=rv,
                            sender=self.folding.fold(sv),
                            receiver=self.folding.fold(rv),
                        )
                    )
        return out

    # -- vectorized communication extraction ----------------------------

    def _virtual_batches(self) -> List[Tuple[str, str, np.ndarray, np.ndarray, np.ndarray]]:
        """Per access: ``(label, stmt, times, sender_v, receiver_v)``
        arrays over the whole iteration domain.

        Depends only on the mapping and the size bindings — not on the
        folding — so the result is cached **on the mapping object**,
        keyed by the bindings: every folding of the same compiled nest
        (the campaign's machine x mesh grid cells) reuses one
        evaluation.  The alignment's ``mutation_count`` is part of the
        key, so a later ``rotate_component`` naturally invalidates
        every entry cached before the rotation.
        """
        key = (
            tuple(sorted(self.params.items())),
            self.mapping.alignment.mutation_count,
        )
        cache = self.mapping.__dict__.setdefault("_virtual_batch_cache", {})
        hit = cache.get(key)
        if hit is not None:
            return hit
        al = self.mapping.alignment
        sched = self.mapping.schedules
        out = []
        for stmt in al.nest.statements:
            idx = _domain_matrix(stmt, self.params)
            theta = sched.schedule_of(stmt.name).theta
            m_s = al.allocation_of_stmt(stmt.name)
            a_s = al.offset_of_stmt(stmt.name)
            if not _vector_bound_ok(idx, (theta, None)) or not _vector_bound_ok(
                idx, (m_s, a_s)
            ):
                cache[key] = None  # poison: caller falls back per call
                return None
            times = _affine_rows(idx, theta, None)
            stmt_v = _affine_rows(idx, m_s, a_s)
            for acc in stmt.accesses:
                label = acc.label or f"{stmt.name}:{acc.array}"
                m_x = al.allocation_of_array(acc.array)
                a_x = al.offset_of_array(acc.array)
                if not _vector_bound_ok(idx, (acc.F, acc.c), (m_x, a_x)):
                    cache[key] = None
                    return None
                # one exact stage (M_x F) I + (M_x c + a_x): composed in
                # IntMat arithmetic, and no partial sum of it exceeds
                # the chained bound just proven
                owner_v = _affine_rows(idx, m_x @ acc.F, m_x @ acc.c + a_x)
                if acc.kind is AccessKind.READ:
                    sv, rv = owner_v, stmt_v
                else:
                    sv, rv = stmt_v, owner_v
                out.append((label, stmt.name, times, sv, rv))
        cache[key] = out
        return out

    def comm_batches(self) -> List[CommBatch]:
        """The communications of :meth:`comm_events_python` as dense
        per-access arrays (one :class:`CommBatch` per access, rows in
        event order), memoized on the program instance.

        Falls back to building the batches from the per-element path in
        the (pathological) case where the int64 overflow bound cannot be
        proven for the affine stages.
        """
        gen = self.mapping.alignment.mutation_count
        cached = self.__dict__.get("_comm_batches")
        if cached is not None and cached[0] == gen:
            return cached[1]
        virtual = self._virtual_batches()
        if virtual is None:
            batches = self._batches_from_events(self.comm_events_python())
        else:
            # a statement's placement array is shared by all of its
            # accesses: fold each distinct virtual array once
            distinct = {id(v): v for *_, sv, rv in virtual for v in (sv, rv)}
            folded = {k: self._fold_batch(v) for k, v in distinct.items()}
            batches = [
                CommBatch(
                    access_label=label,
                    stmt=stmt,
                    times=times,
                    sender_virtual=sv,
                    receiver_virtual=rv,
                    sender=folded[id(sv)],
                    receiver=folded[id(rv)],
                )
                for label, stmt, times, sv, rv in virtual
            ]
        self.__dict__["_comm_batches"] = (gen, batches)
        return batches

    def _fold_batch(self, virtual: np.ndarray) -> np.ndarray:
        if virtual.shape[0] == 0:
            return np.empty_like(virtual)
        return self.folding.fold_array(virtual)

    def _batches_from_events(self, events: List[CommEvent]) -> List[CommBatch]:
        """Exact-arithmetic fallback: regroup the per-element event
        stream (statement-major, ``itertools.product`` order — exactly
        how :meth:`comm_events_python` emits it) into the batch layout."""

        def rows(vals: List[Tuple[int, ...]], width: int) -> np.ndarray:
            return np.array(vals, dtype=np.int64).reshape(len(vals), width)

        m = self.mapping.alignment.m
        rank = self.folding.rank
        sched = self.mapping.schedules
        batches: List[CommBatch] = []
        pos = 0
        for stmt in self.mapping.alignment.nest.statements:
            n = stmt.domain_size(self.params)
            t_dims = sched.schedule_of(stmt.name).time_dims
            for acc in stmt.accesses:
                label = acc.label or f"{stmt.name}:{acc.array}"
                evs = events[pos : pos + n]
                pos += n
                batches.append(
                    CommBatch(
                        access_label=label,
                        stmt=stmt.name,
                        times=rows([e.time for e in evs], t_dims),
                        sender_virtual=rows(
                            [e.sender_virtual for e in evs], m
                        ),
                        receiver_virtual=rows(
                            [e.receiver_virtual for e in evs], m
                        ),
                        sender=rows([e.sender for e in evs], rank),
                        receiver=rows([e.receiver for e in evs], rank),
                    )
                )
        return batches

    def comm_events(self) -> List[CommEvent]:
        """Element-level communications of the whole execution (same
        list as :meth:`comm_events_python`), memoized on the instance —
        ``execute()`` and ``count_nonlocal_virtual()`` no longer
        re-enumerate the iteration domain on separate calls.

        Built from the vectorized :meth:`comm_batches` arrays; the
        object construction only happens when a caller actually wants
        per-element events.
        """
        gen = self.mapping.alignment.mutation_count
        cached = self.__dict__.get("_comm_events")
        if cached is not None and cached[0] == gen:
            return cached[1]
        out: List[CommEvent] = []
        for b in self.comm_batches():
            label = b.access_label
            times = [tuple(t) for t in b.times.tolist()]
            svs = [tuple(v) for v in b.sender_virtual.tolist()]
            rvs = [tuple(v) for v in b.receiver_virtual.tolist()]
            sps = [tuple(p) for p in b.sender.tolist()]
            rps = [tuple(p) for p in b.receiver.tolist()]
            for t, sv, rv, sp, rp in zip(times, svs, rvs, sps, rps):
                out.append(
                    CommEvent(
                        access_label=label,
                        time=t,
                        sender_virtual=sv,
                        receiver_virtual=rv,
                        sender=sp,
                        receiver=rp,
                    )
                )
        self.__dict__["_comm_events"] = (gen, out)
        return out
