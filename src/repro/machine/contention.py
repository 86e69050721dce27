"""Analytic link-contention timing for a mesh (the Paragon-style
model).

All messages of one communication *phase* start simultaneously.  Each
message loads every link of its XY route with its size; links serve
traffic at one size-unit per time-unit, so a phase cannot finish before
its most loaded link has drained.  Adding the per-message start-up cost
(paid serially by each sender for each of its messages) and the pipeline
latency of the longest route gives

    ``T = alpha * max_msgs_per_sender + beta * max_link_load
         + gamma * max_hops``

This is the standard LogGP-flavoured bottleneck bound; it reproduces
the phenomena the paper measures — serial conflicts on shared links —
without modelling flit-level detail (the event-driven simulator in
:mod:`repro.machine.eventsim` cross-checks it).

One kernel, :func:`phase_times_segmented`, prices every phase, many
at once, in closed form: every leg of a dimension-order route is a
contiguous interval of links (:func:`_leg_intervals`), so per-link
loads follow from each leg's two end points (one sort of packed
``key | end-bit | size`` values and a running sum) without building any
route.  The runtime executor calls it through the
machine presets' ``time_phases_segmented``; the single-phase
:func:`phase_time` / :func:`phase_time_arrays` (the presets'
``time_phase``, used by ``execute_python`` and ``time_general``) price
their phase as its one segment, and the event simulator of
:mod:`repro.machine.eventsim` numbers its links the same way.  The
original per-element implementation is kept as
:func:`phase_time_python` — the baseline the perf-core benchmark
measures against, and the oracle the kernel is bit-identical to (see
``tests/machine/test_routecache.py`` and
``tests/machine/test_closed_form_loads.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .backend import rows_equal, segment_max
from .topology import Link, Message


@dataclass(frozen=True)
class CostParams:
    """Machine constants (arbitrary but consistent time units)."""

    alpha: float = 20.0  # per-message start-up at the sender
    beta: float = 1.0  # per size-unit per bottleneck link
    gamma: float = 0.5  # per hop pipeline latency

    def scaled(self, **kw) -> "CostParams":
        vals = {"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma}
        vals.update(kw)
        return CostParams(**vals)


@dataclass
class PhaseReport:
    """Timing breakdown of one communication phase."""

    time: float
    max_link_load: int
    max_hops: int
    max_msgs_per_sender: int
    total_messages: int
    total_volume: int
    local_messages: int

    def describe(self) -> str:
        return (
            f"time={self.time:.1f} (link_load={self.max_link_load}, "
            f"hops={self.max_hops}, sender_fanout={self.max_msgs_per_sender}, "
            f"msgs={self.total_messages}, volume={self.total_volume})"
        )


def phase_time(
    mesh,
    messages: Sequence[Message],
    params: CostParams,
) -> PhaseReport:
    """Time for one phase of simultaneous messages on the mesh.

    Rank-generic: ``mesh`` may be a
    :class:`~repro.machine.topology.Mesh2D` or a
    :class:`~repro.machine.topology3d.Mesh3D`; message endpoints are
    coordinate tuples of the matching rank and sizes must fit in int64.
    Packs the messages into endpoint arrays for
    :func:`phase_time_arrays`.
    """
    rank = len(mesh.dims)
    n = len(messages)
    return phase_time_arrays(
        mesh,
        np.array([m.src for m in messages], dtype=np.int64).reshape(n, rank),
        np.array([m.dst for m in messages], dtype=np.int64).reshape(n, rank),
        np.array([m.size for m in messages], dtype=np.int64),
        params,
    )


def phase_time_arrays(
    mesh,
    senders: np.ndarray,
    receivers: np.ndarray,
    sizes: np.ndarray,
    params: CostParams,
) -> PhaseReport:
    """Array-native :func:`phase_time`: one phase given ``(n, rank)``
    int64 endpoint coordinate rows and the ``(n,)`` message sizes,
    priced as the single segment of :func:`phase_times_segmented`."""
    n = np.shape(sizes)[0]
    return phase_times_segmented(
        mesh, senders, receivers, sizes, np.zeros(n, dtype=np.int64), params,
        n_phases=1,
    ).report(0)


@dataclass
class SegmentedPhaseReport:
    """Per-segment timing breakdown of a fused multi-phase pricing
    call: every field is an ``(S,)`` array, one entry per phase segment
    (:func:`phase_times_segmented`).  :meth:`report` rebuilds the exact
    :class:`PhaseReport` of one segment — the surface the bit-identity
    property suite compares against the per-link oracle."""

    times: np.ndarray
    max_link_load: np.ndarray
    max_hops: np.ndarray
    max_msgs_per_sender: np.ndarray
    total_messages: np.ndarray
    total_volume: np.ndarray
    local_messages: np.ndarray

    def __len__(self) -> int:
        return self.times.shape[0]

    def report(self, i: int) -> PhaseReport:
        return PhaseReport(
            time=float(self.times[i]),
            **{f: int(getattr(self, f)[i]) for f in _INT_FIELDS},
        )


#: the integer per-segment fields (all but ``times``)
_INT_FIELDS = tuple(f.name for f in fields(SegmentedPhaseReport)[1:])


#: float64 integer arithmetic is exact below this
_EXACT_F64 = 2 ** 53


def _flat(dims, cols) -> np.ndarray:
    """Row-major flat index of the coordinate columns ``cols`` on a
    grid of side lengths ``dims`` (Horner form)."""
    out = cols[0]
    for n, c in zip(dims[1:], cols[1:]):
        out = out * n + c
    return out


def _leg_intervals(dims, src, dst):
    """Every route leg as a half-open interval of a leg-contiguous link
    numbering: ``(starts, lens, num_links)``, one array per leg, given
    the endpoints' coordinate columns ``src``/``dst``.

    Injection/ejection at flat node ``f`` are links ``f``/``N + f``.
    Then each axis ``a`` has a block per direction (+, then -) in which
    the link between positions ``x`` and ``x + 1`` of the line through
    the other coordinates ``o`` is ``flat(o) * (n_a - 1) + x``.  Routes
    move the last axis first, so along axis ``a`` the other
    coordinates are ``dst``'s above ``a`` and ``src``'s below it, and
    the leg is ``[min(s_a, d_a), max(s_a, d_a))`` of that line.

    Raises ``ValueError`` if any (non-empty, int64) column leaves its
    axis.
    """
    for n, s, d in zip(dims, src, dst):
        # viewed as uint64, a negative coordinate is >= 2**63, so one
        # max per column checks both bounds
        if max(s.view(np.uint64).max(), d.view(np.uint64).max()) >= n:
            raise ValueError("endpoint outside the mesh")
    n_nodes = 1
    for n in dims:
        n_nodes *= n
    starts = [_flat(dims, src), n_nodes + _flat(dims, dst)]
    lens = [1, 1]
    base = 2 * n_nodes
    for a, n in enumerate(dims):
        block = (n_nodes // n) * (n - 1)
        other = _flat(dims[:a] + dims[a + 1:], src[:a] + dst[a + 1:])
        delta = dst[a] - src[a]
        starts.append(
            base
            + block * (delta < 0)
            + other * (n - 1)
            + np.minimum(src[a], dst[a])
        )
        lens.append(np.abs(delta))
        base += 2 * block
    return starts, lens, base


def phase_times_segmented(
    mesh,
    senders: np.ndarray,
    receivers: np.ndarray,
    sizes: np.ndarray,
    phase_ids: np.ndarray,
    params: CostParams,
    n_phases: Optional[int] = None,
) -> SegmentedPhaseReport:
    """Fused :func:`phase_time_arrays` over many phases in one call.

    ``senders``/``receivers`` are ``(n, rank)`` int64 coordinate rows,
    ``sizes`` the message sizes and ``phase_ids`` each row's segment in
    ``[0, n_phases)`` (segments may be empty).  Every segment is priced
    in closed form, without building a route:

    * each route leg is a contiguous link interval
      (:func:`_leg_intervals`), so a message adds ``+size`` at each
      leg's start and ``-size`` just past its end, keyed by
      ``phase * (num_links + 1) + link``; one sort and one ``cumsum``
      give every loaded link's load, and a per-segment max the
      bottleneck — exact, as the max does not depend on the link
      numbering.  The sort is a plain ``np.sort`` of one int64 array
      packing ``key | end-bit | size``; only where that takes more than
      63 bits, or sizes are Python ints past the magnitude guard, the
      keys are argsorted and the signed sizes gathered instead.  The
      work is O(messages * rank), not O(total hops);
    * hops are ``|dst - src|_1``, fan-out a count per (phase, sender).

    Bit-identical per segment to the per-link oracle
    :func:`phase_time_python` (tested in
    ``tests/machine/test_closed_form_loads.py``): loads are int64 sums
    and volumes float64 sums, both exact below the magnitude guard;
    past it the same closed form runs on Python-int (object) sizes, so
    every sum stays exact at any magnitude.  The cost formula performs
    the same IEEE operations in the same order.  Negative sizes and
    non-local messages with an endpoint outside the mesh raise
    ``ValueError``.
    """
    senders = np.asarray(senders, dtype=np.int64)
    receivers = np.asarray(receivers, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    phase_ids = np.asarray(phase_ids, dtype=np.int64)
    n = senders.shape[0]
    if n and sizes.min() < 0:
        raise ValueError("negative message size")
    if n_phases is None:
        n_phases = int(phase_ids.max()) + 1 if n else 0
    local_messages = np.zeros(n_phases, dtype=np.int64)
    remote = 0
    if n and n_phases:
        nonlocal_mask = ~rows_equal(senders, receivers)
        remote = int(np.count_nonzero(nonlocal_mask))
        if remote < n:
            local_messages = np.bincount(
                phase_ids[~nonlocal_mask], minlength=n_phases
            )
            senders = senders[nonlocal_mask]
            receivers = receivers[nonlocal_mask]
            sizes = sizes[nonlocal_mask]
            phase_ids = phase_ids[nonlocal_mask]
    if remote == 0:
        empty = {f: np.zeros(n_phases, dtype=np.int64) for f in _INT_FIELDS}
        empty["local_messages"] = local_messages
        return SegmentedPhaseReport(times=np.zeros(n_phases), **empty)

    starts, lens, num_links = _leg_intervals(
        tuple(mesh.dims), list(senders.T), list(receivers.T)
    )
    hops = sum(lens[2:])
    total_messages = np.bincount(phase_ids, minlength=n_phases)
    # conservative exactness bound on the float64 volume sums (and,
    # with room to spare, on the int64 load sums)
    max_route = int(hops.max()) + 2
    if int(sizes.max()) * max_route * remote > _EXACT_F64:
        sizes = sizes.astype(object)
        total_volume = np.zeros(n_phases, dtype=object)
        np.add.at(total_volume, phase_ids, sizes)
    else:
        total_volume = np.bincount(
            phase_ids, weights=sizes.astype(np.float64), minlength=n_phases
        ).astype(np.int64)
    max_hops = segment_max(hops, phase_ids, n_phases)

    fan_keys, fan_counts = np.unique(
        phase_ids * mesh.size + starts[0], return_counts=True
    )
    max_fanout = segment_max(fan_counts, fan_keys // mesh.size, n_phases)

    # after sorting, the running sum at the last entry of each run of
    # equal keys is the load of the links from that key to the next;
    # each phase's entries sum to zero, so the sum restarts per phase
    # (and the final run, always zero, is skipped)
    stride = num_links + 1  # an interval may end just past the last link
    base = phase_ids * stride
    keys = np.concatenate(
        [base + s for s in starts] + [base + s + w for s, w in zip(starts, lens)]
    )
    size_bits = max(int(sizes.max()).bit_length(), 1)
    if (
        sizes.dtype != object
        and (n_phases * stride).bit_length() + 1 + size_bits <= 63
    ):
        # one plain sort of packed ``key | end-bit | size`` values; the
        # order within a run of equal keys does not change the running
        # sum at the run's last entry
        end_bit = np.int64(1 << size_bits)
        keys <<= size_bits + 1
        keys |= np.concatenate(
            [sizes] * len(starts) + [sizes | end_bit] * len(starts)
        )
        keys.sort()
        deltas = keys & ((1 << size_bits) - 1)
        np.negative(deltas, out=deltas, where=(keys & end_bit) != 0)
        keys >>= size_bits + 1
    else:
        order = np.argsort(keys)
        keys = keys[order]
        deltas = np.concatenate(
            [sizes] * len(starts) + [-sizes] * len(starts)
        )[order]
    running = np.cumsum(deltas)
    ends = np.flatnonzero(keys[1:] != keys[:-1])
    max_load = segment_max(running[ends], keys[ends] // stride, n_phases)

    times = (
        params.alpha * max_fanout.astype(np.float64)
        + params.beta * max_load.astype(np.float64)
        + params.gamma * max_hops.astype(np.float64)
    )
    return SegmentedPhaseReport(
        times=times,
        max_link_load=max_load,
        max_hops=max_hops,
        max_msgs_per_sender=max_fanout,
        total_messages=total_messages,
        total_volume=total_volume,
        local_messages=local_messages,
    )


def phase_time_python(
    mesh, messages: Sequence[Message], params: CostParams
) -> PhaseReport:
    """Pure-Python reference implementation of :func:`phase_time`.

    Rebuilds every route as tuple links and probes a dict per link —
    the pre-vectorization behaviour, kept as the perf-core baseline and
    the bit-identity oracle of every kernel.  Rank-generic like
    :func:`phase_time`.
    """
    link_load: Dict[Link, int] = {}
    sender_msgs: Dict = {}
    max_hops = 0
    total_volume = 0
    local = 0
    remote = 0
    for m in messages:
        if m.is_local:
            local += 1
            continue
        remote += 1
        total_volume += m.size
        sender_msgs[m.src] = sender_msgs.get(m.src, 0) + 1
        max_hops = max(max_hops, mesh.hops(m.src, m.dst))
        for link in mesh.route(m.src, m.dst):
            link_load[link] = link_load.get(link, 0) + m.size
    max_load = max(link_load.values(), default=0)
    max_fanout = max(sender_msgs.values(), default=0)
    time = (
        params.alpha * max_fanout
        + params.beta * max_load
        + params.gamma * max_hops
    )
    return PhaseReport(
        time=time,
        max_link_load=max_load,
        max_hops=max_hops,
        max_msgs_per_sender=max_fanout,
        total_messages=remote,
        total_volume=total_volume,
        local_messages=local,
    )


def phased_time(
    mesh,
    phases: Iterable[Sequence[Message]],
    params: CostParams,
) -> List[PhaseReport]:
    """Time a sequence of phases executed one after the other (the
    decomposed-communication schedule: L then U, not in parallel).
    Rank-generic like :func:`phase_time`."""
    return [phase_time(mesh, msgs, params) for msgs in phases]


def total_time(reports: Iterable[PhaseReport]) -> float:
    return sum(r.time for r in reports)
