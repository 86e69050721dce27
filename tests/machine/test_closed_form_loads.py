"""Closed-form link loads of the fused pricing kernel vs the per-link
Python oracles.

`phase_times_segmented` prices every route leg as one interval of a
leg-contiguous link numbering instead of building routes.  Every
segment's report — max link load, hops, sender fan-out and time — must
equal `phase_time_python` on the same messages, on random and
degenerate (1 x q, p x 1, 1 x 1 x r) meshes, with empty and all-local
segments, and past the float64-exact magnitude guard (and int64).
"""

import numpy as np
import pytest

from repro.machine import (
    CostParams,
    Mesh2D,
    Mesh3D,
    phase_time,
    phase_times_segmented,
)
from repro.machine.contention import (
    _EXACT_F64,
    _leg_intervals,
    phase_time_python,
)
from repro.machine.topology import Message

PARAMS = CostParams(alpha=19.7, beta=1.3, gamma=0.41)

MESHES = [
    (4, 4), (3, 5), (1, 6), (6, 1), (1, 1), (2, 2),
    (3, 2, 4), (2, 2, 2), (1, 1, 5), (1, 4, 1), (3, 1, 1),
]


def make_mesh(dims):
    return Mesh2D(*dims) if len(dims) == 2 else Mesh3D(*dims)


def oracle(mesh, senders, receivers, sizes, params=PARAMS):
    msgs = [
        Message(tuple(s), tuple(d), z)
        for s, d, z in zip(senders.tolist(), receivers.tolist(), sizes.tolist())
    ]
    return phase_time_python(mesh, msgs, params)


def random_messages(rng, dims, n, n_phases, local_share=0.2, max_size=9):
    senders = np.stack([rng.integers(0, d, n) for d in dims], axis=1)
    receivers = np.stack([rng.integers(0, d, n) for d in dims], axis=1)
    local = rng.random(n) < local_share
    receivers[local] = senders[local]
    sizes = rng.integers(1, max_size, n)
    phase_ids = rng.integers(0, n_phases, n)
    return senders, receivers, sizes, phase_ids


def assert_matches_oracle(mesh, senders, receivers, sizes, phase_ids, n_phases):
    srep = phase_times_segmented(
        mesh, senders, receivers, sizes, phase_ids, PARAMS, n_phases=n_phases
    )
    assert len(srep) == n_phases
    for pid in range(n_phases):
        m = phase_ids == pid
        want = oracle(mesh, senders[m], receivers[m], sizes[m])
        got = srep.report(pid)
        assert got.max_link_load == want.max_link_load, (mesh, pid)
        assert got.max_hops == want.max_hops, (mesh, pid)
        assert got.max_msgs_per_sender == want.max_msgs_per_sender, (mesh, pid)
        assert got.time == want.time, (mesh, pid)
        assert got == want, (mesh, pid)


class TestAgainstOracle:
    @pytest.mark.parametrize("dims", MESHES, ids=str)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_segments(self, dims, seed):
        rng = np.random.default_rng([seed, *dims])
        n_phases = int(rng.integers(1, 6))
        n = int(rng.integers(1, 80))
        messages = random_messages(rng, dims, n, n_phases)
        assert_matches_oracle(make_mesh(dims), *messages, n_phases)

    @pytest.mark.parametrize("dims", [(5, 3), (2, 3, 4)], ids=str)
    def test_heavy_sharing(self, dims):
        """Many messages through few links: loads stack up on shared
        legs, and equal interval end points coincide."""
        rng = np.random.default_rng(11)
        senders, receivers, sizes, phase_ids = random_messages(
            rng, dims, 400, 3, local_share=0.05
        )
        senders[::3] = 0  # a hot corner sender
        assert_matches_oracle(
            make_mesh(dims), senders, receivers, sizes, phase_ids, 3
        )

    @pytest.mark.parametrize("dims", [(4, 3), (3, 2, 2)], ids=str)
    def test_empty_and_all_local_segments(self, dims):
        rng = np.random.default_rng(5)
        senders, receivers, sizes, phase_ids = random_messages(
            rng, dims, 60, 5
        )
        receivers[phase_ids == 1] = senders[phase_ids == 1]  # all local
        keep = phase_ids != 3  # segment 3 empty
        senders, receivers = senders[keep], receivers[keep]
        sizes, phase_ids = sizes[keep], phase_ids[keep]
        # segment 6 is an empty tail
        assert_matches_oracle(
            make_mesh(dims), senders, receivers, sizes, phase_ids, 7
        )

    def test_every_pair_alone(self):
        """One message per segment, over every (src, dst) pair of a
        small 3-D mesh: each route's loads in isolation."""
        dims = (2, 3, 2)
        nodes = np.array(list(make_mesh(dims).nodes()))
        src = np.repeat(nodes, len(nodes), axis=0)
        dst = np.tile(nodes, (len(nodes), 1))
        n = src.shape[0]
        assert_matches_oracle(
            make_mesh(dims), src, dst, np.arange(1, n + 1),
            np.arange(n), n,
        )

    def test_all_inputs_empty(self):
        mesh = Mesh2D(3, 3)
        empty = np.empty((0, 2), dtype=np.int64)
        none = np.empty(0, dtype=np.int64)
        srep = phase_times_segmented(mesh, empty, empty, none, none, PARAMS)
        assert len(srep) == 0
        srep = phase_times_segmented(
            mesh, empty, empty, none, none, PARAMS, n_phases=2
        )
        assert [srep.report(i) for i in range(2)] == [
            oracle(mesh, empty, empty, none)
        ] * 2


class TestMagnitudeGuard:
    def test_huge_sizes_take_exact_fallback(self):
        """Past the guard every segment is priced on Python-int sizes;
        the local row of segment 1 still counts in its report."""
        mesh = Mesh2D(4, 4)
        senders = np.array([[0, 0], [0, 0], [1, 0], [2, 2]])
        receivers = np.array([[3, 3], [2, 1], [3, 2], [2, 2]])
        sizes = np.array([_EXACT_F64, 7, 11, 5])
        phase_ids = np.array([0, 0, 1, 1])
        assert_matches_oracle(mesh, senders, receivers, sizes, phase_ids, 2)

    def test_below_guard_stays_closed_form(self):
        rng = np.random.default_rng(2)
        dims = (3, 4, 2)
        messages = random_messages(rng, dims, 50, 2, max_size=2**30)
        assert_matches_oracle(make_mesh(dims), *messages, 2)
        srep = phase_times_segmented(make_mesh(dims), *messages, PARAMS)
        assert srep.total_volume.dtype == np.int64  # no Python-int sums

    def test_sums_past_int64_stay_exact(self):
        """Four 2**62 messages over one link: the segment's volume and
        max link load are 2**64, past int64, and still exact."""
        mesh = Mesh2D(2, 2)
        senders = np.zeros((4, 2), dtype=np.int64)
        receivers = np.array([[0, 1]] * 4)
        sizes = np.full(4, 2**62)
        phase_ids = np.array([0, 0, 0, 0])
        assert_matches_oracle(mesh, senders, receivers, sizes, phase_ids, 1)
        got = phase_times_segmented(
            mesh, senders, receivers, sizes, phase_ids, PARAMS
        ).report(0)
        assert got.max_link_load == got.total_volume == 2**64


class TestPackedSort:
    """Link loads sort one packed ``key | end-bit | size`` array while
    that fits in 63 bits; past it the kernel argsorts the keys.  On a
    4 x 4 mesh (81 link slots) with 64 phases the keys take 13 bits, so
    sizes of 49 bits pack and sizes of 50 bits do not."""

    @pytest.fixture
    def argsorts(self, monkeypatch):
        calls = []
        argsort = np.argsort

        def spy(*args, **kw):
            calls.append(1)
            return argsort(*args, **kw)

        monkeypatch.setattr(np, "argsort", spy)
        return calls

    @pytest.mark.parametrize("size_bits, packed", [(49, True), (50, False)])
    def test_width_boundary(self, size_bits, packed, argsorts):
        mesh = Mesh2D(4, 4)
        senders = np.array([[0, 0], [1, 2], [3, 3], [0, 1]])
        receivers = np.array([[0, 1], [1, 3], [3, 3], [2, 1]])
        sizes = np.array([2 ** (size_bits - 1), 5, 7, 3])
        phase_ids = np.array([0, 63, 63, 63])
        assert_matches_oracle(mesh, senders, receivers, sizes, phase_ids, 64)
        assert bool(argsorts) != packed
        # both below the float64-exact guard: int64 sizes, not Python ints
        srep = phase_times_segmented(
            mesh, senders, receivers, sizes, phase_ids, PARAMS, n_phases=64
        )
        assert srep.total_volume.dtype == np.int64

    @pytest.mark.parametrize("dims", [(5, 3), (2, 3, 4)], ids=str)
    def test_random_segments_packed(self, dims, argsorts):
        rng = np.random.default_rng(len(dims))
        messages = random_messages(rng, dims, 300, 9)
        assert_matches_oracle(make_mesh(dims), *messages, 9)
        assert not argsorts


class TestInputValidation:
    def test_negative_size_rejected(self):
        """A negative size is never valid: the per-link oracle would
        report a negative load, so every pricing entry point raises."""
        mesh = Mesh2D(2, 2)
        with pytest.raises(ValueError, match="negative"):
            phase_time(mesh, [Message((0, 0), (1, 1), -3)], PARAMS)
        with pytest.raises(ValueError, match="negative"):
            phase_times_segmented(
                mesh, np.array([[0, 0]]), np.array([[1, 1]]),
                np.array([-3]), np.array([0]), PARAMS,
            )


class TestLegNumbering:
    @pytest.mark.parametrize(
        "dims", [(3, 4), (1, 3), (2, 3, 2), (1, 1, 3)], ids=str
    )
    def test_intervals_renumber_route_links(self, dims):
        """Walking every leg interval of every (src, dst) route in
        route order — injection, the axes last-first, ejection; a
        backward leg walks its interval downwards — pairs the route's
        links with link numbers one to one, consistently across all
        routes: the renumbering the closed-form loads rely on."""
        mesh = make_mesh(dims)
        rank = len(dims)
        nodes = list(mesh.nodes())
        pairs = [(s, d) for s in nodes for d in nodes if s != d]
        src = np.array([s for s, _ in pairs]).reshape(-1, rank)
        dst = np.array([d for _, d in pairs]).reshape(-1, rank)
        starts, lens, num_links = _leg_intervals(
            dims, list(src.T), list(dst.T)
        )
        to_id, to_link = {}, {}
        for i, (s, d) in enumerate(pairs):
            ids = [int(starts[0][i])]
            for a in reversed(range(rank)):
                first, n = int(starts[2 + a][i]), int(lens[2 + a][i])
                leg = range(first, first + n)
                ids.extend(leg if d[a] >= s[a] else reversed(leg))
            ids.append(int(starts[1][i]))
            route = mesh.route(s, d)
            assert len(ids) == len(route)
            for link, lid in zip(route, ids):
                assert 0 <= lid < num_links
                assert to_id.setdefault(link, lid) == lid, link
                assert to_link.setdefault(lid, link) == link, lid
