"""Communication extraction, vectorization and costing.

Turns the element-level communications of a mapped program into
per-time-step message sets, applies message vectorization (Section 4.5)
where the mapping allows it, recognizes macro-communications (costed
with the machine's collective support when available) and prices
everything on a machine model.

The report distinguishes, per access:

* ``local`` — sender == receiver on the *virtual* grid (the zeroed-out
  communications of step 1; they cost nothing);
* ``translation`` / ``macro`` / ``decomposed`` / ``general`` — as
  classified by step 2 of the heuristic.

:func:`execute_group` is the one vectorized pricing path (:func:`execute`
is its one-cell case).  It consumes the dense per-access arrays of
:meth:`~repro.runtime.mapping.MappedProgram.comm_batches` (one row per
element communication; polyhedral domains arrive already masked down to
their in-domain rows, so the executor never re-enumerates an iteration
set) and replaces the per-event Python bucketing with array reductions:
virtual/physical locality masks are whole-column comparisons, and the
per-time-step phase split plus the ``(sender, receiver)`` pair
coalescing are one packed ``unique_rows`` group-by per batch
(:meth:`~repro.runtime.mapping.CommBatch.phase_partition`).  All phases
of one label then price in one call of the machine's
``time_phases_segmented`` kernel (or the collectives'
``macro_times_segmented`` lane for macro labels).  The original
per-event implementation is kept as :func:`execute_python`; the two are
bit-identical (asserted on randomized generated workloads and the
paper's seed scenarios in ``tests/runtime/test_runtime_vectorized.py``
and measured against each other in ``benchmarks/bench_runtime_exec.py``
— the same old-vs-new pattern as ``phase_time_python`` in the machine
layer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..machine import CM5Model, MachineModel, Message
from ..obs import span
from .mapping import CommEvent, MappedProgram, PhaseSegments


@dataclass
class AccessCommStats:
    """Per-access communication statistics for one execution."""

    label: str
    classification: str
    events: int = 0
    virtual_local: int = 0
    phys_local: int = 0
    messages_before_vectorization: int = 0
    messages_after_vectorization: int = 0
    volume: int = 0
    macro_ops: int = 0  # number of collective operations issued
    time: float = 0.0


@dataclass
class CommReport:
    """Execution-wide communication report."""

    per_access: Dict[str, AccessCommStats]
    total_time: float
    total_messages: int
    total_volume: int

    def stats(self, label: str) -> AccessCommStats:
        return self.per_access[label]

    def describe(self) -> str:
        lines = [
            f"total: time={self.total_time:.1f} msgs={self.total_messages} "
            f"volume={self.total_volume}"
        ]
        for label in sorted(self.per_access):
            s = self.per_access[label]
            lines.append(
                f"  {label:6s} [{s.classification:11s}] events={s.events} "
                f"virt-local={s.virtual_local} msgs={s.messages_after_vectorization} "
                f"macro_ops={s.macro_ops} time={s.time:.1f}"
            )
        return "\n".join(lines)


def _classification_of(program: MappedProgram, label: str) -> str:
    al = program.mapping.alignment
    if label in al.local_labels:
        return "local"
    try:
        return program.mapping.residual_by_label(label).classification
    except KeyError:
        return "general"


def _vectorizable(program: MappedProgram, label: str) -> bool:
    try:
        return program.mapping.residual_by_label(label).vectorizable
    except KeyError:
        return False


def _price_label(
    program: MappedProgram,
    machine: MachineModel,
    collectives: Optional[CM5Model],
    st: AccessCommStats,
    label: str,
    seg: PhaseSegments,
    payload: int,
    rank: int,
) -> List[float]:
    """Price every phase of one label in one fused call.

    ``seg`` holds all phases as one phase-major unique-pair matrix plus
    segment offsets; the machine's ``time_phases_segmented`` kernel
    prices all segments at once, macro labels go down the collectives'
    ``macro_times_segmented`` lane.  Returns the **per-phase** times in
    phase order — callers fold them into their running totals one phase
    at a time, the exact float accumulation sequence of
    :func:`execute_python`, so ``CommReport`` totals stay bit-identical.
    """
    n_phases = seg.n_phases
    sizes = seg.counts * payload
    st.messages_before_vectorization += int(seg.n_events.sum())
    st.messages_after_vectorization += seg.pairs.shape[0]
    st.volume += int(sizes.sum())
    with span("exec.segmented", count=n_phases):
        if collectives is not None and st.classification == "macro":
            opt = program.mapping.residual_by_label(label)
            kind = opt.macro.kind.value if opt.macro else "broadcast"
            times = collectives.macro_times_segmented(
                kind, np.maximum.reduceat(sizes, seg.starts[:-1])
            )
            st.macro_ops += n_phases
        else:
            times = machine.time_phases_segmented(
                seg.pairs[:, :rank],
                seg.pairs[:, rank:],
                sizes,
                seg.phase_ids(),
                n_phases,
            ).times
    ts = times.tolist()
    for t in ts:
        st.time += t
    return ts


def _report(
    per_access: Dict[str, AccessCommStats], total_time: float
) -> CommReport:
    return CommReport(
        per_access=per_access,
        total_time=total_time,
        total_messages=sum(
            s.messages_after_vectorization for s in per_access.values()
        ),
        total_volume=sum(s.volume for s in per_access.values()),
    )


def execute(
    program: MappedProgram,
    machine: MachineModel,
    collectives: Optional[CM5Model] = None,
    payload: int = 1,
) -> CommReport:
    """Execute the mapped program's communications on a machine model.

    ``machine`` is any registered :class:`~repro.machine.MachineModel`
    (Paragon-style 2-D, T3D-style 3-D, …) and prices point-to-point
    phases (per time step, one phase per access) — the program's folded
    coordinates are tuples of the machine's mesh rank; ``collectives``
    — when given — prices the accesses the heuristic classified as
    macro-communications with hardware collective costs instead (the
    CM-5 situation of Table 1).

    The one-cell case of :func:`execute_group`; the per-event reference
    implementation is :func:`execute_python` (bit-identical).
    """
    return execute_group([(program, machine, collectives)], payload)[0]


def execute_group(
    cells: Sequence[Tuple[MappedProgram, MachineModel, Optional[CM5Model]]],
    payload: int = 1,
) -> List[CommReport]:
    """Price the K machine x mesh cells of one compiled nest — one
    :class:`CommReport` per cell, each bit-identical to
    :func:`execute_python` on that cell (property-tested in
    ``tests/runtime/test_group_pricing.py``).

    Every cell must fold the **same mapping** with the **same size
    bindings** (the campaign's compile-key group invariant: domains,
    schedule times and virtual coordinates are shared arrays; only the
    folded physical coordinates differ per cell), so the virtual-local
    mask of each access is computed once, on cell 0, and seeded into
    every cell's batch.  Each access label owns one batch (label
    uniqueness is enforced by :meth:`repro.ir.LoopNest.add_statement`);
    each cell prices it from the batch's memoized
    :meth:`~repro.runtime.mapping.CommBatch.phase_partition` in one
    fused kernel call.  Labels price in sorted order and phases in
    ascending time order, the order of :func:`execute_python`.
    """
    if not cells:
        return []
    programs = [c[0] for c in cells]
    base = programs[0]
    for p in programs[1:]:
        if p.mapping is not base.mapping:
            raise ValueError(
                "execute_group needs the cells of one compiled nest: "
                "all programs must share one mapping object"
            )
        if p.params != base.params:
            raise ValueError(
                "execute_group needs identical size bindings across "
                f"cells (got {base.params!r} vs {p.params!r})"
            )

    K = len(cells)
    rank = base.folding.rank
    with span("exec.extract"):
        batch_lists = [p.comm_batches() for p in programs]

    per_access: List[Dict[str, AccessCommStats]] = [{} for _ in range(K)]
    # label -> (batch index, per-cell "has send events" flags)
    priced: Dict[str, Tuple[int, List[bool]]] = {}
    for bi, b0 in enumerate(batch_lists[0]):
        if b0.n == 0:
            # no events -> no stats entry, exactly like the per-event
            # path (which only creates entries while iterating events)
            continue
        label = b0.access_label
        if label in priced:
            raise ValueError(f"duplicate access label {label!r}")
        classification = _classification_of(base, label)
        virt_local = b0.virtual_local_mask()
        n_virt_local = int(np.count_nonzero(virt_local))
        sends = []
        for k in range(K):
            b = batch_lists[k][bi]
            b.__dict__.setdefault("_virt_local", virt_local)
            _, phys_local, send = b.locality_masks()
            per_access[k][label] = AccessCommStats(
                label=label,
                classification=classification,
                events=b.n,
                virtual_local=n_virt_local,
                phys_local=int(np.count_nonzero(phys_local)),
            )
            sends.append(bool(send.any()))
        priced[label] = (bi, sends)

    totals = [0.0] * K
    for label in sorted(priced):
        bi, sends = priced[label]
        vec = _vectorizable(base, label)
        for k, (program, machine, coll) in enumerate(cells):
            if not sends[k]:
                continue
            for t in _price_label(
                program, machine, coll, per_access[k][label], label,
                batch_lists[k][bi].phase_partition(vec), payload, rank,
            ):
                totals[k] += t
    return [_report(per_access[k], totals[k]) for k in range(K)]


def execute_python(
    program: MappedProgram,
    machine: MachineModel,
    collectives: Optional[CM5Model] = None,
    payload: int = 1,
) -> CommReport:
    """Pure-Python reference implementation of :func:`execute`.

    Builds one :class:`CommEvent` per access per domain point and
    re-buckets them with Python dicts — the pre-vectorization behaviour,
    kept as the measured baseline and bit-identity cross-check (same
    pattern as ``phase_time_python``).
    """
    events = program.comm_events_python()
    per_access: Dict[str, AccessCommStats] = {}
    # bucket: (label, time) -> events
    buckets: Dict[Tuple[str, Tuple[int, ...]], List[CommEvent]] = {}
    for ev in events:
        label = ev.access_label
        st = per_access.get(label)
        if st is None:
            st = AccessCommStats(
                label=label,
                classification=_classification_of(program, label),
            )
            per_access[label] = st
        st.events += 1
        if ev.sender_virtual == ev.receiver_virtual:
            st.virtual_local += 1
            continue
        if ev.is_local_phys:
            st.phys_local += 1
            continue
        buckets.setdefault((label, ev.time), []).append(ev)

    total_time = 0.0
    # vectorization merges the buckets of all time steps of one access
    merged: Dict[str, List[List[CommEvent]]] = {}
    for (label, _time), evs in sorted(buckets.items()):
        if _vectorizable(program, label):
            merged.setdefault(label, [[]])[0].extend(evs)
        else:
            merged.setdefault(label, []).append(evs)

    for label, phases in merged.items():
        st = per_access[label]
        for evs in phases:
            if not evs:
                continue
            # coalesce per (sender, receiver) pair into one message
            pair_sizes: Dict[Tuple, int] = {}
            for ev in evs:
                key = (ev.sender, ev.receiver)
                pair_sizes[key] = pair_sizes.get(key, 0) + payload
            msgs = [
                Message(src=s, dst=d, size=sz)
                for (s, d), sz in pair_sizes.items()
            ]
            st.messages_before_vectorization += len(evs)
            st.messages_after_vectorization += len(msgs)
            st.volume += sum(m.size for m in msgs)
            if collectives is not None and st.classification == "macro":
                opt = program.mapping.residual_by_label(label)
                kind = opt.macro.kind.value if opt.macro else "broadcast"
                size = max(pair_sizes.values())
                if kind == "reduction":
                    t = collectives.reduction_time(size)
                else:
                    t = collectives.broadcast_time(size)
                st.macro_ops += 1
                st.time += t
                total_time += t
            else:
                rep = machine.time_phase(msgs)
                st.time += rep.time
                total_time += rep.time

    return _report(per_access, total_time)


def count_nonlocal_virtual(program: MappedProgram) -> Dict[str, int]:
    """Per-access count of element communications that are non-local on
    the *virtual* grid (mapping quality independent of folding).

    Vectorized over the program's (memoized) batches, so calling this
    next to :func:`execute` costs no extra domain enumeration.
    """
    out: Dict[str, int] = {}
    for b in program.comm_batches():
        if b.n == 0:
            continue
        moved = b.n - int(np.count_nonzero(b.virtual_local_mask()))
        if moved:
            out[b.access_label] = out.get(b.access_label, 0) + moved
    return out
