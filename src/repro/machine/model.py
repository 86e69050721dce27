"""The machine-model abstraction: one protocol, one name registry.

Every mesh machine the pipeline can price — Paragon-style 2-D, Cray
T3D-style 3-D, and any future backend — implements the same
:class:`MachineModel` surface:

* ``mesh`` — the physical topology (anything with ``dims``/``route``);
* ``params`` — the :class:`~repro.machine.contention.CostParams`;
* ``time_phase(messages) -> PhaseReport`` — price one phase of
  simultaneous point-to-point messages;
* ``time_phases(phases) -> float`` — price a sequence of phases;
* ``time_phases_segmented(senders, receivers, sizes, phase_ids,
  n_phases) -> SegmentedPhaseReport`` — price many phases given as one
  coordinate matrix plus a segment column (the executor's pricing
  call);
* ``time_general(dists, t_mat, size) -> float`` — direct element-wise
  execution of a data-flow matrix;
* ``time_decomposed(dists, factors, size) -> float`` — the factored
  axis-parallel schedule.

The **registry** maps the machine names the CLI and the campaign layer
speak (``paragon``, ``cm5``, ``t3d``) to a :class:`MachineSpec`: the
expected mesh rank, a point-to-point model factory and an optional
hardware-collectives factory (the CM-5 situation of Table 1 is "Paragon
point-to-point pricing plus fat-tree collectives", so ``cm5`` shares
Paragon's factory).  New backends register once and are immediately
reachable from ``python -m repro`` and ``repro.campaign`` — the
extension point for every multi-backend direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from ..report import format_mesh
from .contention import CostParams, PhaseReport, SegmentedPhaseReport


@runtime_checkable
class MachineModel(Protocol):
    """Structural interface every mesh machine model implements."""

    mesh: object
    params: CostParams

    def time_phase(self, messages) -> PhaseReport:
        ...

    def time_phases(self, phases) -> float:
        ...

    def time_phases_segmented(
        self, senders, receivers, sizes, phase_ids, n_phases=None
    ) -> SegmentedPhaseReport:
        ...

    def time_general(self, dists, t_mat, size: int = 1) -> float:
        ...

    def time_decomposed(self, dists, factors, size: int = 1) -> float:
        ...


@dataclass(frozen=True)
class MachineSpec:
    """One registry entry: how to build a named machine for a mesh.

    ``factory`` receives the mesh side lengths as positional arguments
    (``factory(p, q)`` / ``factory(p, q, r)``); ``collectives`` — when
    set — receives the node count and returns the hardware-collectives
    model priced alongside the point-to-point machine.
    """

    name: str
    mesh_rank: int
    factory: Callable[..., MachineModel]
    collectives: Optional[Callable[[int], object]] = None
    description: str = ""

    def make(self, mesh: Sequence[int]) -> MachineModel:
        """Instantiate the model, validating the mesh rank."""
        dims = tuple(int(d) for d in mesh)
        if len(dims) != self.mesh_rank:
            raise ValueError(
                f"machine {self.name!r} needs a {self.mesh_rank}-D mesh, "
                f"got {format_mesh(dims)} ({len(dims)}-D)"
            )
        if any(d <= 0 for d in dims):
            raise ValueError(
                f"machine {self.name!r}: mesh sides must be positive, "
                f"got {format_mesh(dims)}"
            )
        return self.factory(*dims)

    def make_collectives(self, mesh: Sequence[int]):
        """The hardware-collectives model for this mesh, or ``None``."""
        if self.collectives is None:
            return None
        nodes = 1
        for d in mesh:
            nodes *= int(d)
        return self.collectives(nodes)


_REGISTRY: "Dict[str, MachineSpec]" = {}


def register_machine(spec: MachineSpec) -> MachineSpec:
    """Register (or replace) a named machine model; returns ``spec``."""
    _REGISTRY[spec.name] = spec
    return spec


def machine_names() -> Tuple[str, ...]:
    """All registered machine names, in registration order."""
    return tuple(_REGISTRY)


def machine_spec(name: str) -> MachineSpec:
    """Look up a registered machine by name (friendly error)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown machine {name!r} (choose from {machine_names()})"
        ) from None


def make_machine(name: str, mesh: Sequence[int]) -> MachineModel:
    """Build the named machine on ``mesh`` (shorthand for
    ``machine_spec(name).make(mesh)``)."""
    return machine_spec(name).make(mesh)


def machine_for_mesh(mesh: Sequence[int]) -> MachineSpec:
    """The default point-to-point machine of a mesh rank (the first
    registered spec without a collectives factory whose rank matches:
    ``paragon`` for 2-D, ``t3d`` for 3-D)."""
    rank = len(tuple(mesh))
    for spec in _REGISTRY.values():
        if spec.mesh_rank == rank and spec.collectives is None:
            return spec
    ranks = sorted({s.mesh_rank for s in _REGISTRY.values()})
    raise ValueError(
        f"no machine model for a {rank}-D mesh {format_mesh(mesh)} "
        f"(registered mesh ranks: {ranks})"
    )
