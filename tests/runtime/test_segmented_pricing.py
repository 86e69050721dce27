"""Fused segmented pricing vs per-phase and per-event references.

The segmented kernel (`phase_times_segmented`) must be
**bit-identical** per phase to the per-link oracle `phase_time_python`,
and the executor
that feeds it (`execute`) to the per-event reference
`execute_python` — every ``CommReport``/``PhaseReport`` float compares
exactly, over rectangular and triangular corpora, 2-D and 3-D machines,
macro/collective labels and the campaign store payloads.
"""

import hashlib

import numpy as np
import pytest

import repro.runtime
from repro import compile_nest
from repro.campaign import (
    CampaignConfig,
    RunStore,
    clear_baseline_cache,
    default_spec,
    run_campaign,
)
from repro.campaign.sweep import canonical_json
from repro.campaign.workloads import (
    corpus,
    generate_triangular_workloads,
    generate_workloads,
    triangular_corpus,
)
from repro.ir import motivating_example
from repro.machine import (
    CM5Model,
    CostParams,
    ParagonModel,
    machine_spec,
    phase_time_python,
    phase_times_segmented,
)
from repro.machine.contention import _EXACT_F64
from repro.machine.topology import Message
from repro.obs import clear_spans, set_enabled, span_snapshot
from repro.runtime import execute, execute_group, execute_python
from repro.runtime.executor import _running_sum, _vectorizable

from pricing_cells import CELLS_2D, CELLS_3D, compile_cells

PARAMS = {"N": 3, "M": 3}


def random_phases(rng, mesh_dims, n_phases, events_per_phase, max_size=9):
    """Random message matrices with an explicit segment column; some
    rows are deliberately local (src == dst) and one segment may be
    empty."""
    rank = len(mesh_dims)
    rows = []
    for pid in range(n_phases):
        n = events_per_phase if pid != 1 else 0  # keep one empty segment
        for _ in range(n):
            src = [int(rng.integers(0, d)) for d in mesh_dims]
            if rng.random() < 0.15:
                dst = list(src)  # local message
            else:
                dst = [int(rng.integers(0, d)) for d in mesh_dims]
            rows.append([pid] + src + dst + [int(rng.integers(1, max_size))])
    arr = np.array(rows, dtype=np.int64)
    phase_ids = arr[:, 0]
    senders = arr[:, 1: 1 + rank]
    receivers = arr[:, 1 + rank: 1 + 2 * rank]
    sizes = arr[:, 1 + 2 * rank]
    return senders, receivers, sizes, phase_ids


def python_report(mesh, senders, receivers, sizes, params):
    """`phase_time_python` on the messages of endpoint/size arrays."""
    msgs = [
        Message(tuple(s), tuple(d), z)
        for s, d, z in zip(senders.tolist(), receivers.tolist(), sizes.tolist())
    ]
    return phase_time_python(mesh, msgs, params)


class TestKernelBitIdentity:
    """`phase_times_segmented` segment-by-segment against
    `phase_time_python`, on 2-D and 3-D meshes."""

    @pytest.mark.parametrize("dims", [(4, 4), (3, 2), (2, 2, 2), (3, 2, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_phase(self, dims, seed):
        rng = np.random.default_rng(seed)
        mesh = machine_spec("t3d" if len(dims) == 3 else "paragon").make(
            dims
        ).mesh
        senders, receivers, sizes, phase_ids = random_phases(
            rng, dims, n_phases=5, events_per_phase=13
        )
        params = CostParams(alpha=19.7, beta=1.3, gamma=0.41)
        srep = phase_times_segmented(
            mesh, senders, receivers, sizes, phase_ids, params
        )
        assert len(srep) == 5
        for pid in range(5):
            m = phase_ids == pid
            want = python_report(
                mesh, senders[m], receivers[m], sizes[m], params
            )
            assert srep.report(pid) == want, (dims, seed, pid)

    def test_explicit_n_phases_pads_empty_tail(self):
        mesh = ParagonModel(4, 4).mesh
        senders = np.array([[0, 0]], dtype=np.int64)
        receivers = np.array([[3, 3]], dtype=np.int64)
        sizes = np.array([4], dtype=np.int64)
        phase_ids = np.array([0], dtype=np.int64)
        srep = phase_times_segmented(
            mesh, senders, receivers, sizes, phase_ids,
            CostParams(), n_phases=3,
        )
        assert len(srep) == 3
        empty = phase_time_python(mesh, [], CostParams())
        assert srep.report(1) == empty and srep.report(2) == empty

    def test_all_local_and_empty_inputs(self):
        mesh = ParagonModel(2, 2).mesh
        senders = np.array([[1, 1], [0, 1]], dtype=np.int64)
        srep = phase_times_segmented(
            mesh, senders, senders.copy(), np.array([3, 5]),
            np.array([0, 1]), CostParams(),
        )
        assert srep.times.tolist() == [0.0, 0.0]
        assert srep.local_messages.tolist() == [1, 1]
        empty = phase_times_segmented(
            mesh, np.empty((0, 2), dtype=np.int64),
            np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64), CostParams(),
        )
        assert len(empty) == 0

    def test_magnitude_guard_takes_exact_fallback(self):
        """Sizes past the float64-exact bound still price bit-identical
        to the per-link oracle (on exact Python-int sums)."""
        mesh = ParagonModel(4, 4).mesh
        big = _EXACT_F64  # one message already overflows the guard
        senders = np.array([[0, 0], [0, 0], [1, 0]], dtype=np.int64)
        receivers = np.array([[3, 3], [2, 1], [3, 2]], dtype=np.int64)
        sizes = np.array([big, 7, 11], dtype=np.int64)
        phase_ids = np.array([0, 0, 1], dtype=np.int64)
        params = CostParams()
        srep = phase_times_segmented(
            mesh, senders, receivers, sizes, phase_ids, params
        )
        for pid in range(2):
            m = phase_ids == pid
            assert srep.report(pid) == python_report(
                mesh, senders[m], receivers[m], sizes[m], params
            )

    def test_cm5_macro_lane_matches_scalar(self):
        cm5 = CM5Model()
        sizes = np.array([1, 7, 100, 4096], dtype=np.int64)
        red = cm5.macro_times_segmented("reduction", sizes)
        bro = cm5.macro_times_segmented("broadcast", sizes)
        for i, s in enumerate(sizes.tolist()):
            assert red[i] == cm5.reduction_time(s)
            assert bro[i] == cm5.broadcast_time(s)


def assert_segmented_matches_baseline(cells):
    """execute() vs the per-event reference execute_python(): every
    report equal, float for float."""
    for program, machine, coll in cells:
        got = execute(program, machine, collectives=coll)
        want = execute_python(program, machine, collectives=coll)
        assert got == want, (machine, program.folding.mesh.dims)


class TestRunningSum:
    """Per-phase times fold into the label and report totals through
    one ``np.cumsum``; it must add strictly left to right, like the
    Python loop ``for t in times: total += t`` of `execute_python`."""

    @staticmethod
    def loop(total, times):
        for t in times.tolist():
            total += t
        return total

    def test_cancellation_order(self):
        times = np.array([1e16, 1.0, -1e16, 1.0, 0.1, 1e-300, -0.1] * 5)
        for start in (0.0, 3.5, -1e16):
            got = _running_sum(start, times)
            assert got == self.loop(start, times)
            assert type(got) is float
        # a pairwise or reordered sum would differ on these inputs
        assert _running_sum(0.0, times) != float(np.sum(times[::-1]))

    @pytest.mark.parametrize("seed", range(3))
    def test_wide_magnitudes(self, seed):
        rng = np.random.default_rng(seed)
        times = rng.choice([-1.0, 1.0], 500) * 10.0 ** rng.integers(
            -20, 20, 500
        )
        start = float(rng.normal() * 1e10)
        assert _running_sum(start, times) == self.loop(start, times)

    def test_no_times(self):
        assert _running_sum(2.5, np.empty(0)) == 2.5


class TestExecuteGroup:
    def test_maps_execute_over_cells(self):
        [workload] = [w for w in corpus() if w.name == "example1"]
        cells = compile_cells(workload, 2, CELLS_2D)
        assert execute_group(cells) == [
            execute(p, m, collectives=c) for p, m, c in cells
        ]
        assert execute_group([]) == []


class TestExecutorBitIdentityRect:
    @pytest.mark.parametrize("workload", corpus(), ids=lambda w: w.name)
    def test_named_corpus_2d(self, workload):
        assert_segmented_matches_baseline(
            compile_cells(workload, 2, CELLS_2D)
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_generated_2d(self, seed):
        for workload in generate_workloads(seed, 3):
            assert_segmented_matches_baseline(
                compile_cells(workload, 2, CELLS_2D)
            )


class TestExecutorBitIdentityTriangular:
    @pytest.mark.parametrize(
        "workload", triangular_corpus(), ids=lambda w: w.name
    )
    def test_named_corpus_2d(self, workload):
        assert_segmented_matches_baseline(
            compile_cells(workload, 2, CELLS_2D)
        )

    def test_generated_2d(self):
        for workload in generate_triangular_workloads(0, 3):
            assert_segmented_matches_baseline(
                compile_cells(workload, 2, CELLS_2D)
            )


class TestExecutorBitIdentity3D:
    def test_generated_t3d(self):
        for workload in generate_workloads(0, 2):
            assert_segmented_matches_baseline(
                compile_cells(workload, 3, CELLS_3D)
            )

    def test_triangular_t3d(self):
        for workload in generate_triangular_workloads(0, 2):
            assert_segmented_matches_baseline(
                compile_cells(workload, 3, CELLS_3D)
            )


class TestSpanTaxonomy:
    def test_segmented_span_counts_phases(self):
        """One fused kernel launch records ``count = phases``, so stage
        reports keep counting phases after the fusion: the aggregated
        exec.segmented count equals the phases of every priced label's
        partition."""
        compiled = compile_nest(motivating_example(), m=2, params=PARAMS)
        machine = ParagonModel(4, 4)
        prog = compiled.program(machine, PARAMS)
        prev = set_enabled(True)
        try:
            clear_spans()
            execute(prog, machine, collectives=CM5Model())
            fused = {
                p: e["count"]
                for p, e in span_snapshot().items()
                if p.endswith("exec.segmented")
            }
        finally:
            set_enabled(prev)
            clear_spans()
        phases = sum(
            b.phase_partition(_vectorizable(prog, b.access_label)).n_phases
            for b in prog.comm_batches()
            if b.n and b.locality_masks()[2].any()
        )
        assert sum(fused.values()) == phases > 0


class TestStoreGolden:
    def test_campaign_store_identical_on_and_off(self, tmp_path, monkeypatch):
        """The canonical-json record payload of a small campaign is
        byte-identical priced by ``execute`` (the production path) and
        with every task priced by the per-event reference executor."""
        spec = default_spec(seed=0, nests=2, meshes=((2, 2),))
        tasks = spec.expand()

        def digest(tag):
            clear_baseline_cache()  # every baseline priced by this run
            out = str(tmp_path / f"{tag}.jsonl")
            outcome = run_campaign(tasks, out, CampaignConfig(jobs=1), meta={})
            assert outcome.errors == 0 and outcome.timeouts == 0
            _, results = RunStore(out).load()
            payload = canonical_json(
                [results[t.task_id].deterministic_dict() for t in tasks]
            )
            return hashlib.sha1(payload.encode()).hexdigest()

        fast = digest("fast")
        monkeypatch.setattr(repro.runtime, "execute", execute_python)
        reference = digest("reference")
        assert fast == reference
