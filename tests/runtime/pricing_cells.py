"""Machine x mesh grid cells shared by the runtime property tests: one
compiled nest folded onto several cells, the campaign's compile-key
group shape."""

from repro import compile_nest
from repro.machine import machine_spec

#: 2-D grid cells: two machine models, square and non-square meshes
CELLS_2D = [
    ("paragon", (4, 4)),
    ("paragon", (3, 2)),
    ("cm5", (4, 4)),
    ("cm5", (2, 2)),
]
CELLS_3D = [
    ("t3d", (2, 2, 2)),
    ("t3d", (3, 2, 2)),
]


def compile_cells(workload, m, grid):
    """Compile a workload once and fold it onto every (machine, mesh)
    cell: a list of ``(program, machine, collectives)``."""
    nest = workload.resolve()
    schedules = workload.resolve_schedules(nest)
    params = dict(workload.params)
    compiled = compile_nest(
        nest,
        m=m,
        schedules=schedules,
        params=params,
        check_legality=workload.check_legality,
        name=workload.name,
    )
    cells = []
    for name, mesh in grid:
        spec = machine_spec(name)
        machine = spec.make(mesh)
        cells.append(
            (
                compiled.program(machine, params),
                machine,
                spec.make_collectives(mesh),
            )
        )
    return cells
