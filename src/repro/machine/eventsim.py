"""Event-driven wormhole-style network simulator.

The analytic contention model of :mod:`repro.machine.contention` is a
bottleneck bound; this simulator executes the same message set with
explicit resource reservation and measures the actual makespan,
providing the A2 ablation (how tight is the analytic model?) and an
independent check of the orderings the benchmarks rely on.

Model: wormhole / circuit-switched semantics, as on the Paragon.  A
message needs *all* links of its XY route at once; it starts when every
link is free (and its sender has finished the per-message start-up of
its earlier messages), holds the whole path for ``beta * size +
gamma * hops`` time units, then releases it.  Conflicting messages thus
serialize path-wise — including the head-of-line blocking that makes
irregular affine patterns slow on real wormhole meshes.

Scheduling is greedy in (ready time, message order): a simple but
deterministic arbitration, adequate for ordering comparisons.

Hop count: ``hops`` is :meth:`~repro.machine.topology.Mesh2D.hops`
(Manhattan distance), which for every remote pair equals
``len(route) - 2`` — the route is exactly injection + one network link
per hop + ejection.  An earlier revision derived hops from the route
length with a defensive ``max(0, ...)`` clamp that could silently
disagree with the mesh's definition; the two are now reconciled and
asserted equal in ``tests/machine/test_routecache.py``.

:meth:`EventSimulator.run` is vectorized: every message's links come
from the closed-form leg intervals of
:func:`~repro.machine.contention._leg_intervals` (the numbering the
pricing kernel uses), expanded once into one flat link-id array for
all remote messages, and the per-link dict probes of the original
become one array ``max`` plus one slice assignment per message over a
dense ``link_free`` vector.  The original is kept as
:meth:`EventSimulator.run_python` — the perf-core baseline and a
bit-identity cross-check.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from .contention import CostParams, _leg_intervals
from .topology import Link, Message


class EventSimulator:
    """Simulate one communication phase; returns the makespan.

    Rank-generic: ``mesh`` may be a
    :class:`~repro.machine.topology.Mesh2D` or a
    :class:`~repro.machine.topology3d.Mesh3D`; the vectorized path
    works off integer link ids and :meth:`run_python` off the mesh's
    dimension-order ``route``.
    """

    def __init__(self, mesh, params: CostParams):
        self.mesh = mesh
        self.params = params

    def run(self, messages: Sequence[Message]) -> float:
        remote = [(order, m) for order, m in enumerate(messages) if not m.is_local]
        if not remote:
            return 0.0
        shape = (len(remote), len(self.mesh.dims))
        src = np.array([m.src for _, m in remote], dtype=np.int64).reshape(shape)
        dst = np.array([m.dst for _, m in remote], dtype=np.int64).reshape(shape)
        starts, lens, num_links = _leg_intervals(
            tuple(self.mesh.dims), list(src.T), list(dst.T)
        )
        # every message's legs laid end to end: message i owns
        # ids[bounds[i]:bounds[i + 1]]
        legs = len(starts)  # injection, one per axis, ejection
        starts = np.stack(starts, axis=1).ravel()
        lens = np.stack(np.broadcast_arrays(*lens), axis=1).ravel()
        leg_ends = np.cumsum(lens)
        ids = np.arange(leg_ends[-1]) + np.repeat(starts - (leg_ends - lens), lens)
        bounds = [0] + leg_ends[legs - 1 :: legs].tolist()
        per_sender: Dict = {}
        pending: List[Tuple[float, int, int, int, int]] = []
        alpha = self.params.alpha
        for i, (order, m) in enumerate(remote):
            k = per_sender.get(m.src, 0)
            per_sender[m.src] = k + 1
            pending.append((alpha * k, order, m.size, bounds[i], bounds[i + 1]))
        pending.sort(key=lambda t: (t[0], t[1]))
        link_free = np.zeros(num_links)
        beta = self.params.beta
        gamma = self.params.gamma
        finish = 0.0
        for ready, _order, size, lo, hi in pending:
            route = ids[lo:hi]
            start = float(link_free[route].max())
            if ready > start:
                start = ready
            done = start + beta * size + gamma * (hi - lo - 2)
            link_free[route] = done
            if done > finish:
                finish = done
        return finish

    def run_python(self, messages: Sequence[Message]) -> float:
        """Pure-Python reference implementation of :meth:`run`
        (per-link dict probes, routes rebuilt per message) — the
        perf-core baseline; bit-identical to :meth:`run`."""
        link_free: Dict[Link, float] = {}
        per_sender: Dict = {}
        pending: List[Tuple[float, int, Message, Tuple[Link, ...]]] = []
        for order, m in enumerate(messages):
            if m.is_local:
                continue
            route = tuple(self.mesh.route(m.src, m.dst))
            k = per_sender.get(m.src, 0)
            per_sender[m.src] = k + 1
            ready = self.params.alpha * k
            pending.append((ready, order, m, route))
        pending.sort(key=lambda t: (t[0], t[1]))
        finish = 0.0
        for ready, _order, m, route in pending:
            start = ready
            for link in route:
                start = max(start, link_free.get(link, 0.0))
            hops = self.mesh.hops(m.src, m.dst)  # == len(route) - 2
            done = start + self.params.beta * m.size + self.params.gamma * hops
            for link in route:
                link_free[link] = done
            finish = max(finish, done)
        return finish

    def run_phases(self, phases: Sequence[Sequence[Message]]) -> float:
        return sum(self.run(msgs) for msgs in phases)
