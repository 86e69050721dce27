"""Whole-group pricing: ``execute_group`` prices a list of
``(program, machine, collectives)`` cells one ``execute()`` call per
cell, so its reports must be bit-identical to K per-cell ``execute()``
runs and to the per-event reference ``execute_python`` — over
rectangular *and* triangular corpora, generated workloads, 2-D and 3-D
machines.

``CommReport``/``AccessCommStats`` are plain dataclasses with default
equality, so ``report_a == report_b`` compares every float exactly —
the comparisons below are bit-identity checks, not tolerance checks.
"""

import pytest

from repro import compile_nest
from repro.campaign.workloads import (
    corpus,
    generate_triangular_workloads,
    generate_workloads,
    triangular_corpus,
)
from repro.ir import motivating_example
from repro.machine import machine_spec
from repro.runtime import execute, execute_group, execute_python

from pricing_cells import CELLS_2D, CELLS_3D, compile_cells


def assert_group_matches_per_cell(cells):
    batched = execute_group(cells)
    assert len(batched) == len(cells)
    for (program, machine, coll), got in zip(cells, batched):
        want = execute(program, machine, collectives=coll)
        assert got == want, (machine, program.folding.mesh.dims)
        reference = execute_python(program, machine, collectives=coll)
        assert got == reference, (machine, program.folding.mesh.dims)


class TestBitIdentityRect:
    @pytest.mark.parametrize(
        "workload", corpus(), ids=lambda w: w.name
    )
    def test_named_corpus_2d(self, workload):
        assert_group_matches_per_cell(
            compile_cells(workload, 2, CELLS_2D)
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_generated_2d(self, seed):
        for workload in generate_workloads(seed, 3):
            assert_group_matches_per_cell(
                compile_cells(workload, 2, CELLS_2D)
            )


class TestBitIdentityTriangular:
    @pytest.mark.parametrize(
        "workload", triangular_corpus(), ids=lambda w: w.name
    )
    def test_named_corpus_2d(self, workload):
        assert_group_matches_per_cell(
            compile_cells(workload, 2, CELLS_2D)
        )

    def test_generated_2d(self):
        for workload in generate_triangular_workloads(0, 3):
            assert_group_matches_per_cell(
                compile_cells(workload, 2, CELLS_2D)
            )


class TestBitIdentity3D:
    def test_generated_t3d(self):
        for workload in generate_workloads(0, 2):
            assert_group_matches_per_cell(
                compile_cells(workload, 3, CELLS_3D)
            )

    def test_triangular_t3d(self):
        for workload in generate_triangular_workloads(0, 2):
            assert_group_matches_per_cell(
                compile_cells(workload, 3, CELLS_3D)
            )


def _paragon_cell(compiled, params):
    spec = machine_spec("paragon")
    machine = spec.make((4, 4))
    return (
        compiled.program(machine, params),
        machine,
        spec.make_collectives((4, 4)),
    )


class TestGroupContract:
    def test_empty_group(self):
        assert execute_group([]) == []

    def test_single_cell_delegates_to_execute(self):
        compiled = compile_nest(motivating_example(), m=2)
        cell = _paragon_cell(compiled, {"N": 8, "M": 8})
        [got] = execute_group([cell])
        assert got == execute(cell[0], cell[1], collectives=cell[2])

    def test_distinct_mappings_priced_per_cell(self):
        """Cells need not share one mapping: two separate compiles of
        the same nest are each priced on their own, in order."""
        params = {"N": 8, "M": 8}
        cells = [
            _paragon_cell(compile_nest(motivating_example(), m=2), params)
            for _ in range(2)
        ]
        assert cells[0][0].mapping is not cells[1][0].mapping
        assert execute_group(cells) == [
            execute(p, m, collectives=c) for p, m, c in cells
        ]

    def test_distinct_params_priced_per_cell(self):
        """Cells need not share size bindings: each report counts the
        events of its own program's sizes."""
        compiled = compile_nest(motivating_example(), m=2)
        cells = [
            _paragon_cell(compiled, {"N": 8, "M": 8}),
            _paragon_cell(compiled, {"N": 9, "M": 9}),
        ]
        small, large = execute_group(cells)
        assert small == execute(
            cells[0][0], cells[0][1], collectives=cells[0][2]
        )
        assert large == execute(
            cells[1][0], cells[1][1], collectives=cells[1][2]
        )
        assert small != large
