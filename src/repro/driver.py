"""End-to-end compiler façade.

``compile_nest`` chains the whole pipeline the way a downstream user
wants it: parse (or accept an IR nest) → infer/validate schedules →
run the two-step heuristic → generate the SPMD program → build an
executable mapped program for a mesh.  Each stage's artefact is kept on
the result object so nothing has to be recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from .alignment import MappingResult, two_step_heuristic
from .ir import (
    LoopNest,
    ScheduledNest,
    infer_schedules,
    parse_nest,
    schedule_is_legal,
)
from .machine import MachineModel
from .obs import span
from .runtime import CommReport, Folding, MappedProgram, execute


@dataclass
class CompiledNest:
    """Everything the pipeline produced for one nest."""

    nest: LoopNest
    schedules: ScheduledNest
    mapping: MappingResult
    spmd: str

    def program(
        self,
        machine: MachineModel,
        params: Dict[str, int],
        extent: Optional[int] = None,
        **folding_kw,
    ) -> MappedProgram:
        """Fold onto ``machine``'s mesh and build an executable program.

        ``machine`` may be any registered machine model; the mesh rank
        must equal the ``m`` this nest was compiled with (a mismatch
        raises a friendly ``ValueError``).
        """
        folding = Folding(
            mesh=machine.mesh,
            extent=extent or 4 * max(machine.mesh.dims),
            **folding_kw,
        )
        return MappedProgram(mapping=self.mapping, folding=folding, params=params)

    def run(
        self,
        machine: MachineModel,
        params: Dict[str, int],
        collectives=None,
        **kw,
    ) -> CommReport:
        """Compile-and-run shortcut: price the communications."""
        return execute(
            self.program(machine, params, **kw), machine, collectives=collectives
        )

    def summary(self) -> str:
        from .report import format_mapping_summary

        return format_mapping_summary(self.mapping)


def compile_nest(
    source: Union[str, LoopNest],
    m: int = 2,
    schedules: Optional[ScheduledNest] = None,
    params: Optional[Dict[str, int]] = None,
    check_legality: bool = True,
    name: str = "nest",
    **heuristic_kw,
) -> CompiledNest:
    """Compile a loop nest (source text or IR) into a mapped program.

    Parameters
    ----------
    source:
        Nest source text (see :mod:`repro.ir.parser`) or an existing
        :class:`~repro.ir.LoopNest`.
    m:
        Target virtual grid dimension; to execute the result, pick the
        rank of the machine's mesh (2 for Paragon/CM-5, 3 for T3D).
    schedules:
        Optional explicit schedules; inferred from the dependences when
        omitted (``params`` bounds the inference domains, default small).
    check_legality:
        Validate the (given or inferred) schedule against the bounded
        dependence enumeration and raise ``ValueError`` on conflicts.
    """
    with span("parse"):
        nest = (
            parse_nest(source, name=name) if isinstance(source, str) else source
        )
    bounds = params or {p: 3 for p in _collect_params(nest)}
    if schedules is None:
        with span("schedule.infer"):
            schedules = infer_schedules(nest, bounds)
    if check_legality:
        with span("schedule.legality"):
            legal = schedule_is_legal(schedules, bounds)
        if not legal:
            raise ValueError(
                "schedule is illegal: dependent instances share a time step "
                "(see repro.ir.schedule_violations for witnesses)"
            )
    with span("align"):
        mapping = two_step_heuristic(
            nest, m=m, schedules=schedules, **heuristic_kw
        )
    from .codegen import generate_spmd

    with span("codegen"):
        spmd = generate_spmd(mapping)
    return CompiledNest(
        nest=nest,
        schedules=schedules,
        mapping=mapping,
        spmd=spmd,
    )


def _collect_params(nest: LoopNest):
    names = set()
    for s in nest.statements:
        for l in s.loops:
            for bound in (l.lower, l.upper):
                for name, _k in bound.coeffs:
                    names.add(name)
    return names
