"""Vectorized extraction: one fold per distinct virtual array, one
composed affine stage per access, and the overflow proof still in
front of both.

`MappedProgram.comm_batches` folds every distinct virtual array once —
a statement's placement is shared by all of its accesses — and
evaluates each array owner as the single integer stage
``(M_x F) I + (M_x c + a_x)``.  The batches must still equal the
per-element `comm_events_python` path on rectangular, triangular and
3-D corpus nests, and a nest whose chained bound fails
`_vector_bound_ok` must still take the per-element fallback.
"""

import numpy as np
import pytest

from repro import compile_nest
from repro.campaign.workloads import (
    corpus,
    generate_triangular_workloads,
    generate_workloads,
    triangular_corpus,
)
from repro.ir import motivating_example
from repro.linalg import IntMat
from repro.machine import ParagonModel
from repro.runtime import mapping
from repro.runtime.mapping import Folding, MappedProgram

from pricing_cells import CELLS_2D, CELLS_3D, compile_cells


@pytest.fixture
def fold_calls(monkeypatch):
    """Every array handed to `Folding.fold_array`, in call order."""
    calls = []
    fold = Folding.fold_array

    def spy(self, virtual):
        calls.append(virtual)
        return fold(self, virtual)

    monkeypatch.setattr(Folding, "fold_array", spy)
    return calls


def distinct_nonempty(program: MappedProgram):
    arrays = {}
    for _label, _stmt, _times, sv, rv in program._virtual_batches():
        for v in (sv, rv):
            if v.shape[0]:
                arrays[id(v)] = v
    return arrays


def assert_batches_match_events(program: MappedProgram):
    got = program.comm_batches()
    want = program._batches_from_events(program.comm_events_python())
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.access_label, g.stmt) == (w.access_label, w.stmt)
        for field in (
            "times", "sender_virtual", "receiver_virtual", "sender", "receiver"
        ):
            assert np.array_equal(getattr(g, field), getattr(w, field)), field
    assert program.comm_events() == program.comm_events_python()


def fresh_programs(cells):
    """New program objects (the batch memo is per instance) over the
    cells' shared compiled mapping."""
    return [
        MappedProgram(p.mapping, p.folding, dict(p.params))
        for p, _m, _c in cells
    ]


class TestFoldOnce:
    def test_statement_placement_folded_once(self, fold_calls):
        """The motivating example has statements with several
        accesses: their shared placement is folded once, not once per
        access."""
        c = compile_nest(motivating_example(), m=2, params={"N": 3, "M": 3})
        prog = c.program(ParagonModel(4, 4), {"N": 3, "M": 3})
        batches = prog.comm_batches()
        distinct = distinct_nonempty(prog)
        assert len(fold_calls) == len(distinct)
        assert {id(v) for v in fold_calls} == set(distinct)
        assert len(fold_calls) < 2 * len(batches)
        # folded arrays are shared between the batches that share the
        # virtual array
        by_virtual = {}
        for b in batches:
            for v, p in (
                (b.sender_virtual, b.sender),
                (b.receiver_virtual, b.receiver),
            ):
                assert by_virtual.setdefault(id(v), p) is p
        # memoized: a second call folds nothing
        prog.comm_batches()
        assert len(fold_calls) == len(distinct)

    @pytest.mark.parametrize(
        "workload", corpus() + triangular_corpus(), ids=lambda w: w.name
    )
    def test_corpus_2d(self, workload, fold_calls):
        for prog in fresh_programs(compile_cells(workload, 2, CELLS_2D)):
            start = len(fold_calls)
            prog.comm_batches()
            assert len(fold_calls) - start == len(distinct_nonempty(prog))
            assert_batches_match_events(prog)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_generated_3d(self, seed, fold_calls):
        workloads = generate_workloads(seed, 2)
        for workload in workloads + generate_triangular_workloads(seed, 2):
            for prog in fresh_programs(compile_cells(workload, 3, CELLS_3D)):
                start = len(fold_calls)
                prog.comm_batches()
                assert len(fold_calls) - start == len(distinct_nonempty(prog))
                assert_batches_match_events(prog)


class TestBoundStillGuards:
    def test_chained_bound_failure_falls_back(self, monkeypatch):
        """An array allocation whose chained bound ``k |M_x| (k |F| |I|
        + |c|)`` passes 2^62 while every actual value fits int64: the
        composed stage must not run; the per-element path builds the
        batches instead, with the same events."""
        params = {"N": 3, "M": 3}
        c = compile_nest(motivating_example(), m=2, params=params)
        al = c.mapping.alignment
        name = next(iter(al.nest.arrays))
        node = f"var:{name}"
        huge = IntMat([[2 ** 59, 0], [0, 1]])
        al.allocations[node] = huge @ al.allocations[node]
        al.offsets[node] = huge @ al.offsets[node]
        prog = c.program(ParagonModel(4, 4), params)

        stages = []
        bound_ok = mapping._vector_bound_ok

        def spy(idx, *st):
            ok = bound_ok(idx, *st)
            stages.append((len(st), ok))
            return ok

        monkeypatch.setattr(mapping, "_vector_bound_ok", spy)
        assert prog._virtual_batches() is None
        assert (2, False) in stages  # the chained access stage failed
        assert prog.comm_events() == prog.comm_events_python()
        big = max(
            int(np.abs(b.sender_virtual).max())
            for b in prog.comm_batches()
            if b.n
        )
        assert big > 2 ** 59  # the huge allocation reached the batches
