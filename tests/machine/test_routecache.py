"""Tests for the vectorized mesh-simulation core.

Covers out-of-mesh endpoint rejection on every link-numbering entry
point, bit-identity of the vectorized simulators against the
pure-Python baselines, and the reconciled hop semantics
(``Mesh2D.hops`` == ``route_hops(xy_route)`` everywhere — the
head-of-line edge the event simulator used to paper over with a
``max(0, ...)`` clamp).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import (
    CostParams,
    EventSimulator,
    Mesh2D,
    Mesh3D,
    Message,
    Message3,
    phase_time,
    phase_time_arrays,
    phase_time_python,
    phase_times_segmented,
)

PARAMS = CostParams(alpha=10.0, beta=1.0, gamma=0.5)


def random_messages(mesh, nmsg, seed, local_fraction=0.2):
    rng = random.Random(seed)
    nodes = list(mesh.nodes())
    msg_cls = Message if len(nodes[0]) == 2 else Message3
    out = []
    for _ in range(nmsg):
        if rng.random() < local_fraction:
            n = rng.choice(nodes)
            out.append(msg_cls(src=n, dst=n, size=rng.randint(1, 8)))
        else:
            src, dst = rng.sample(nodes, 2)
            out.append(msg_cls(src=src, dst=dst, size=rng.randint(1, 8)))
    return out


class TestRouteIds2D:
    def test_outside_mesh_rejected(self):
        """Every entry point that numbers a route's links rejects a
        non-local message with an endpoint off the mesh — including two
        out-of-mesh messages that would alias onto one in-mesh link."""
        mesh = Mesh2D(2, 2)
        cases = [
            ([(0, 0)], [(5, 0)]),
            ([(0, 0), (1, 1)], [(0, -1), (1, 0)]),
        ]
        for src, dst in cases:
            senders = np.array(src)
            receivers = np.array(dst)
            sizes = np.full(len(src), 3)
            msgs = [Message(s, d, 3) for s, d in zip(src, dst)]
            entry_points = [
                lambda: phase_times_segmented(
                    mesh, senders, receivers, sizes,
                    np.zeros(len(src), dtype=np.int64), PARAMS,
                ),
                lambda: phase_time(mesh, msgs, PARAMS),
                lambda: phase_time_arrays(
                    mesh, senders, receivers, sizes, PARAMS
                ),
                lambda: EventSimulator(mesh, PARAMS).run(msgs),
            ]
            for price in entry_points:
                with pytest.raises(ValueError, match="outside the mesh"):
                    price()

    def test_outside_local_message_unchecked(self):
        mesh = Mesh2D(2, 2)
        msgs = [Message((5, 5), (5, 5), size=3)]
        assert phase_time(mesh, msgs, PARAMS).local_messages == 1
        assert EventSimulator(mesh, PARAMS).run(msgs) == 0.0


class TestVectorizedBitIdentity:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_phase_time_matches_python(self, seed):
        mesh = Mesh2D(4, 5)
        msgs = random_messages(mesh, 30, seed)
        assert phase_time(mesh, msgs, PARAMS) == phase_time_python(
            mesh, msgs, PARAMS
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_eventsim_matches_python(self, seed):
        mesh = Mesh2D(4, 5)
        msgs = random_messages(mesh, 30, seed)
        sim = EventSimulator(mesh, PARAMS)
        assert sim.run(msgs) == sim.run_python(msgs)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_phase_time_3d_matches_python(self, seed):
        mesh = Mesh3D(2, 3, 2)
        msgs = random_messages(mesh, 20, seed)
        assert phase_time(mesh, msgs, PARAMS) == phase_time_python(
            mesh, msgs, PARAMS
        )

    def test_empty_phase(self):
        mesh = Mesh2D(2, 2)
        assert phase_time(mesh, [], PARAMS) == phase_time_python(mesh, [], PARAMS)
        assert EventSimulator(mesh, PARAMS).run([]) == 0.0

    def test_huge_sizes_stay_exact(self):
        """Loads past 2**53 leave the float64 bincount fast path; the
        fallback must stay bit-identical to the Python dict sums."""
        mesh = Mesh2D(2, 2)
        big = 2 ** 52
        msgs = [Message((0, 0), (1, 1), size=big) for _ in range(5)]
        fast = phase_time(mesh, msgs, PARAMS)
        slow = phase_time_python(mesh, msgs, PARAMS)
        assert fast == slow
        assert fast.max_link_load == 5 * big  # exact, no float rounding

    def test_all_local_phase(self):
        mesh = Mesh2D(2, 2)
        msgs = [Message((0, 0), (0, 0), size=5), Message((1, 1), (1, 1))]
        rep = phase_time(mesh, msgs, PARAMS)
        assert rep.time == 0.0 and rep.local_messages == 2
        assert rep == phase_time_python(mesh, msgs, PARAMS)


class TestHopSemantics:
    """Satellite: Mesh.hops and route lengths must agree everywhere."""

    def test_route_hops_agree_2d(self):
        mesh = Mesh2D(4, 5)
        for src in mesh.nodes():
            for dst in mesh.nodes():
                route = mesh.xy_route(src, dst)
                assert Mesh2D.route_hops(route) == mesh.hops(src, dst)

    def test_route_hops_agree_3d(self):
        mesh = Mesh3D(2, 3, 2)
        for src in mesh.nodes():
            for dst in mesh.nodes():
                route = mesh.xyz_route(src, dst)
                assert Mesh3D.route_hops(route) == mesh.hops(src, dst)

    def test_neighbor_message_pays_one_hop(self):
        """A 1-hop neighbour message has route inj + net + eje: the
        simulator must charge gamma for exactly one hop, matching
        ``Mesh2D.hops`` (the old ``len(route) - 2`` clamp also gave 1
        here, but only because no remote route can be inj + eje only —
        the invariant now asserted above)."""
        mesh = Mesh2D(1, 2)
        params = CostParams(alpha=0.0, beta=2.0, gamma=7.0)
        sim = EventSimulator(mesh, params)
        msgs = [Message((0, 0), (0, 1), size=3)]
        expected = params.beta * 3 + params.gamma * 1
        assert sim.run(msgs) == expected
        assert sim.run_python(msgs) == expected
        rep = phase_time(mesh, msgs, params)
        assert rep.max_hops == 1

    def test_local_message_costs_nothing_in_sim(self):
        mesh = Mesh2D(2, 2)
        sim = EventSimulator(mesh, PARAMS)
        assert sim.run([Message((0, 0), (0, 0), size=100)]) == 0.0
