"""Machine model presets: Paragon-style 2-D mesh, T3D-style 3-D mesh
and the CM-5-style fat tree — all behind one
:class:`~repro.machine.model.MachineModel` interface.

**Paragon model** — a 2-D mesh with per-link serialization; costs come
from the analytic contention model (cross-checked by the event-driven
simulator).  Used for Table 2, Figure 7 and Figure 8.

**T3D model** — the same cost structure one dimension up (the paper's
m = 3 case): same ``PhaseReport`` timing surface, same event-driven
cross-check, over XYZ dimension-order routes.

**CM-5 model** — what Table 1 needs is the *structure* of the CM-5:

* a control network with hardware combine/broadcast: collectives cost a
  few hardware cycles per tree level plus a tiny per-element cost;
* a fat-tree data network where a translation is a contention-free
  permutation paid at software message overhead + bandwidth;
* general affine communication additionally pays per-element software
  address generation and fat-tree contention.

The constants below encode plausible magnitude *relationships* (a
hardware tree cycle is much cheaper than a software message dispatch;
per-element software handling costs a few bandwidth units); Table 1's
qualitative ordering — reduction ≈ broadcast ≪ translation ≪ general —
follows from the structure, not from fitting the paper's numbers.

The name→factory **registry** lives in :mod:`repro.machine.model`; the
presets register themselves at import: ``paragon`` (2-D), ``cm5``
(2-D point-to-point + fat-tree collectives) and ``t3d`` (3-D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from .contention import (
    CostParams,
    PhaseReport,
    SegmentedPhaseReport,
    phase_time,
    phase_time_arrays,
    phase_times_segmented,
    phased_time,
    total_time,
)
from .eventsim import EventSimulator
from .model import MachineSpec, register_machine
from .topology import Mesh2D, Message


@dataclass
class ParagonModel:
    """2-D mesh machine with link contention (Paragon-like)."""

    p: int
    q: int
    params: CostParams = field(default_factory=CostParams)

    def __post_init__(self):
        self.mesh = Mesh2D(self.p, self.q)

    def time_phase(self, messages: Sequence[Message]) -> PhaseReport:
        return phase_time(self.mesh, messages, self.params)

    def time_phase_arrays(self, senders, receivers, sizes) -> PhaseReport:
        """Array-native :meth:`time_phase` (endpoint coordinate
        matrices, no ``Message`` objects; bit-identical)."""
        return phase_time_arrays(
            self.mesh, senders, receivers, sizes, self.params
        )

    def time_phases_segmented(
        self, senders, receivers, sizes, phase_ids, n_phases=None
    ) -> SegmentedPhaseReport:
        """Fused multi-phase :meth:`time_phase_arrays`: all phases of a
        pricing call enter as one coordinate matrix plus an int64
        segment column and are priced by one kernel
        (:func:`~repro.machine.contention.phase_times_segmented`) —
        the executor's pricing call (bit-identical to per-phase
        pricing)."""
        return phase_times_segmented(
            self.mesh, senders, receivers, sizes, phase_ids, self.params,
            n_phases=n_phases,
        )

    def time_phases(self, phases: Sequence[Sequence[Message]]) -> float:
        return total_time(phased_time(self.mesh, phases, self.params))

    def time_event_driven(self, phases: Sequence[Sequence[Message]]) -> float:
        sim = EventSimulator(self.mesh, self.params)
        return sim.run_phases(phases)

    # -- compiler-level communication costing ---------------------------
    #
    # A *general* affine communication has no compile-time regular
    # structure: the runtime sends one message per element (this is the
    # situation the paper describes — "letting all processors send
    # their messages simultaneously" — and the reason decomposition
    # helps).  An *elementary* (axis-parallel) phase has regular
    # strides, so all elements for one destination coalesce into a
    # single vectorized message.

    def time_general(self, dist, t_mat, size: int = 1) -> float:
        """Direct execution of data-flow matrix ``t_mat``: element-wise
        messages (not vectorizable by the compiler)."""
        from .patterns import affine_pattern

        msgs = affine_pattern(dist, t_mat, size=size, merge=False)
        return self.time_phase(msgs).time

    def time_decomposed(self, dist, factors, size: int = 1) -> float:
        """Execution of ``t = f1 @ f2 @ ...`` as coalesced axis-parallel
        phases."""
        from .patterns import decomposed_phases

        return self.time_phases(decomposed_phases(dist, factors, size=size))


@dataclass
class T3DModel:
    """3-D mesh machine (Cray T3D-like) — the paper's m = 3 case.

    Same cost structure and same interface as the Paragon model, one
    more dimension: ``time_phase`` returns the full
    :class:`~repro.machine.contention.PhaseReport` (time plus per-link
    utilization) and the event-driven simulator cross-checks the
    analytic bound, exactly as in 2-D.
    """

    p: int
    q: int
    r: int
    params: CostParams = field(default_factory=CostParams)

    def __post_init__(self):
        from .topology3d import Mesh3D

        self.mesh = Mesh3D(self.p, self.q, self.r)

    def time_phase(self, messages) -> PhaseReport:
        return phase_time(self.mesh, messages, self.params)

    def time_phase_arrays(self, senders, receivers, sizes) -> PhaseReport:
        """Array-native :meth:`time_phase`, as on the 2-D model."""
        return phase_time_arrays(
            self.mesh, senders, receivers, sizes, self.params
        )

    def time_phases_segmented(
        self, senders, receivers, sizes, phase_ids, n_phases=None
    ) -> SegmentedPhaseReport:
        """Fused multi-phase pricing on the cube, as on the 2-D model."""
        return phase_times_segmented(
            self.mesh, senders, receivers, sizes, phase_ids, self.params,
            n_phases=n_phases,
        )

    def time_phases(self, phases) -> float:
        return total_time(phased_time(self.mesh, phases, self.params))

    def time_event_driven(self, phases) -> float:
        sim = EventSimulator(self.mesh, self.params)
        return sim.run_phases(phases)

    def time_general(self, dists, t_mat, size: int = 1) -> float:
        """Direct element-wise execution of a 3x3 data-flow matrix;
        ``dists`` is a triple of 1-D distributions."""
        from .topology3d import affine_pattern_3d

        return self.time_phase(
            affine_pattern_3d(dists, t_mat, size=size, merge=False)
        ).time

    def time_decomposed(self, dists, factors, size: int = 1) -> float:
        """Execution of ``t = f1 @ f2 @ ...`` as coalesced axis-parallel
        phases on the cube."""
        from .topology3d import affine_pattern_3d

        return self.time_phases(
            affine_pattern_3d(dists, f, size=size)
            for f in reversed(list(factors))
        )


@dataclass
class CM5Model:
    """Fat-tree machine with hardware collectives (CM-5-like).

    Parameters (time units are arbitrary but shared):

    * ``hw_cycle`` — control-network cost per tree level;
    * ``ctl_per_elem`` — per-element cost on the control network
      (combine/broadcast bandwidth);
    * ``sw_overhead`` — software cost of posting one message on the
      data network;
    * ``data_per_elem`` — data-network bandwidth cost per element;
    * ``addr_per_elem`` — per-element software address generation for
      irregular (general affine) patterns;
    * ``contention`` — fat-tree slowdown factor for non-permutation /
      irregular traffic.
    """

    nodes: int = 32
    hw_cycle: float = 1.0
    ctl_per_elem: float = 0.25
    sw_overhead: float = 25.0
    data_per_elem: float = 1.0
    addr_per_elem: float = 3.0
    contention: float = 2.0

    @property
    def tree_depth(self) -> int:
        return max(1, math.ceil(math.log2(self.nodes)))

    def reduction_time(self, size: int = 100) -> float:
        """Hardware combine on the control network."""
        return self.hw_cycle * self.tree_depth + self.ctl_per_elem * size

    def broadcast_time(self, size: int = 100) -> float:
        """Hardware broadcast: same tree, slightly more per-element
        traffic (every node receives the payload)."""
        return self.hw_cycle * self.tree_depth + 1.2 * self.ctl_per_elem * size

    def macro_times_segmented(self, kind: str, sizes) -> np.ndarray:
        """Vectorized collective pricing: the time of one ``kind``
        collective per entry of ``sizes`` (the macro/collective segment
        lane of the fused pricing path).  Performs the same IEEE float
        operations in the same order as :meth:`reduction_time` /
        :meth:`broadcast_time`, so each entry is bit-identical to the
        scalar call."""
        sizes = np.asarray(sizes, dtype=np.int64).astype(np.float64)
        if kind == "reduction":
            return self.hw_cycle * self.tree_depth + self.ctl_per_elem * sizes
        return (
            self.hw_cycle * self.tree_depth
            + 1.2 * self.ctl_per_elem * sizes
        )

    def translation_time(self, size: int = 100) -> float:
        """Uniform shift: a contention-free permutation on the data
        network, one software message per node."""
        return self.sw_overhead + self.data_per_elem * size

    def general_time(self, size: int = 100) -> float:
        """General affine pattern: software address generation per
        element plus contended fat-tree traffic."""
        return self.sw_overhead + size * (
            self.data_per_elem * self.contention + self.addr_per_elem
        )

    def table1_ratios(self, size: int = 100) -> List[float]:
        """Execution-time ratios normalised to the reduction (the
        paper's Table 1 row)."""
        base = self.reduction_time(size)
        return [
            1.0,
            self.broadcast_time(size) / base,
            self.translation_time(size) / base,
            self.general_time(size) / base,
        ]


# ---------------------------------------------------------------------------
# registry entries — the names the CLI and the campaign layer speak
# ---------------------------------------------------------------------------

register_machine(
    MachineSpec(
        name="paragon",
        mesh_rank=2,
        factory=ParagonModel,
        description="2-D mesh, analytic link contention (Paragon-like)",
    )
)
register_machine(
    MachineSpec(
        name="cm5",
        mesh_rank=2,
        factory=ParagonModel,
        collectives=lambda nodes: CM5Model(nodes=nodes),
        description=(
            "2-D mesh point-to-point pricing + fat-tree hardware "
            "collectives (CM-5-like)"
        ),
    )
)
register_machine(
    MachineSpec(
        name="t3d",
        mesh_rank=3,
        factory=T3DModel,
        description="3-D mesh, analytic link contention (Cray T3D-like)",
    )
)
