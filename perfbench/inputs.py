"""Inputs of the benchmark workloads and the checks on their outputs.

Shared by ``run.py`` (which times the workloads) and
``record_expected.py`` (which writes ``expected.json`` with the
per-element reference executor).  Everything here is a pure function
of the input seed, so the recorder and the timed runs see identical
inputs.

The benchmark seed selects one of ``INPUT_SETS`` recorded input sets
(``seed % INPUT_SETS``): the output check compares against outputs
recorded once with the reference executor, so only recorded input sets
can be checked without running that executor during a timed run.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

#: number of recorded input sets; the seed picks one of them
INPUT_SETS = 16

#: machine x mesh cells of ``campaign_cold`` / ``campaign_parallel``:
#: 5 compatible cells per nest (paragon and cm5 on 8x8 and 4x4 at
#: m=2, t3d on 4x4x4 at m=3)
CAMPAIGN_CELLS = dict(
    machines=("paragon", "cm5", "t3d"),
    meshes=((8, 8), (4, 4), (4, 4, 4)),
    ms=(2, 3),
)
#: the campaign's nests: the 12 named kernels and 22 rectangular + 22
#: triangular nests generated from a fixed generator seed, plus 2 + 2
#: nests generated from the benchmark seed — 60 nests, 300 tasks, 120
#: compile-key groups.  Compile cost varies several-fold between
#: generated nests, so a grid drawn wholly from the benchmark seed
#: moved throughput by ~20% from seed to seed; the fixed base keeps the
#: seed's share of the work small.
CAMPAIGN_BASE = dict(seed=0, nests=22, shapes=("rect", "tri"))
CAMPAIGN_SEEDED_NESTS = 2
#: offset of the seeded generator stream (keeps its nest names and
#: sources apart from the base's)
CAMPAIGN_SEED_OFFSET = 1000

#: the seed-independent ``nest_large`` ops: (named nest, machine, mesh,
#: size bindings); each prices 0.24-2.1 M element communications
REFERENCE_OPS = (
    ("example1", "paragon", (16, 16), {"N": 64, "M": 64}),
    ("example1", "cm5", (16, 16), {"N": 64, "M": 64}),
    ("matmul", "cm5", (16, 16), {"N": 48}),
    ("tri-matmul", "paragon", (16, 16), {"N": 48}),
    ("example1", "t3d", (8, 8, 8), {"N": 64, "M": 64}),
    ("matmul", "t3d", (8, 8, 8), {"N": 64}),
    ("example1", "paragon", (32, 32), {"N": 64, "M": 64}),
)
#: where the seed's generated nests (one rectangular, one triangular) run
GENERATED_CELL = ("paragon", (16, 16), {"N": 48, "M": 48})


def use_source_tree() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; refuse to run
    outside a checkout that holds the program."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no program source under {SRC} "
            "(run from the root of a repository checkout)"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


def clear_library_caches() -> None:
    """Empty every library cache through its public clear function and
    collect the previous unit's garbage, so each timed unit starts cold
    and does not pay for (or hold memory of) the one before it."""
    import gc

    from repro.campaign import clear_baseline_cache, clear_compile_cache
    from repro.ir import clear_dependence_caches
    from repro.linalg import clear_caches
    from repro.machine import clear_route_caches

    clear_compile_cache()
    clear_baseline_cache()
    clear_route_caches()
    clear_caches()
    clear_dependence_caches()
    gc.collect()


def campaign_tasks(iset: int) -> list:
    from repro.campaign import (
        SweepSpec,
        default_spec,
        generate_triangular_workloads,
        generate_workloads,
    )

    base = default_spec(**CAMPAIGN_BASE, **CAMPAIGN_CELLS)
    seed = CAMPAIGN_SEED_OFFSET + iset
    seeded = generate_workloads(
        seed, CAMPAIGN_SEEDED_NESTS
    ) + generate_triangular_workloads(seed, CAMPAIGN_SEEDED_NESTS)
    return SweepSpec(workloads=base.workloads + seeded, **CAMPAIGN_CELLS).expand()


@dataclass
class NestOp:
    """One cold single-nest op: compile, fold onto the cell, price."""

    workload: object  # repro.campaign.Workload
    machine: str
    mesh: Tuple[int, ...]
    params: Dict[str, int]
    reference: bool  # seed-independent op: the only ops the timing metrics count

    @property
    def op_id(self) -> str:
        mesh = "x".join(map(str, self.mesh))
        binds = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.workload.name}@{self.machine}:{mesh}:{binds}"


def nest_ops(iset: int) -> List[NestOp]:
    from repro.campaign import (
        corpus,
        generate_triangular_workloads,
        generate_workloads,
        triangular_corpus,
    )

    named = {w.name: w for w in corpus() + triangular_corpus()}
    ops = [
        NestOp(named[name], machine, mesh, dict(params), True)
        for name, machine, mesh, params in REFERENCE_OPS
    ]
    machine, mesh, params = GENERATED_CELL
    for wl in (
        generate_workloads(iset, 1)[0],
        generate_triangular_workloads(iset, 1)[0],
    ):
        ops.append(NestOp(wl, machine, mesh, dict(params), False))
    return ops


def run_nest_op(op: NestOp, execute=None):
    """Compile ``op``'s nest (legality checked on the workload's small
    bindings), fold it onto the op's machine and price it at the op's
    bindings.  Entry points are looked up on their modules at call
    time, so the traced run's wrappers see these calls."""
    import repro.driver
    import repro.machine
    import repro.runtime

    wl = op.workload
    nest = wl.resolve()
    compiled = repro.driver.compile_nest(
        nest,
        m=len(op.mesh),
        schedules=wl.resolve_schedules(nest),
        params=dict(wl.params),
        check_legality=wl.check_legality,
        name=wl.name,
    )
    spec = repro.machine.machine_spec(op.machine)
    machine = spec.make(op.mesh)
    program = compiled.program(machine, op.params)
    execute = execute or repro.runtime.execute
    return execute(program, machine, collectives=spec.make_collectives(op.mesh))


def report_totals(report) -> Dict[str, object]:
    """The checked outputs of one op: the ``CommReport`` totals plus
    the number of element communications it priced."""
    return {
        "total_time": report.total_time,
        "total_messages": report.total_messages,
        "total_volume": report.total_volume,
        "events": sum(s.events for s in report.per_access.values()),
    }


def store_digest(path: str) -> Tuple[str, list]:
    """``(digest, records)`` of a campaign store: the digest is a
    SHA-256 over the canonical JSON of every record's
    ``deterministic_dict``, in task-id order."""
    from repro.campaign import RunStore

    _meta, results = RunStore(path).load()
    records = [results[task_id] for task_id in sorted(results)]
    h = hashlib.sha256()
    for rec in records:
        h.update(
            json.dumps(
                rec.deterministic_dict(), sort_keys=True, separators=(",", ":")
            ).encode()
        )
        h.update(b"\n")
    return h.hexdigest(), records


def load_expected() -> Dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)
