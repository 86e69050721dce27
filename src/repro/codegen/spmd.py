"""SPMD node-program generation.

The compiler side of the paper ultimately emits a node program per
physical processor: local loop bounds (owner-computes over the
allocation), plus the communication schedule — translations,
macro-communication calls (``broadcast``/``reduce``), and the phase
sequence for decomposed residuals.  This module renders that program
as readable pseudo-code, which doubles as the human-auditable form of a
mapping and as documentation output for the examples.
"""

from __future__ import annotations

from typing import List

from ..alignment import MappingResult
from ..ir import AccessKind


def _matrix_expr(m, var_names: List[str]) -> str:
    """Render ``M @ I`` as a tuple of affine expressions."""
    rows = []
    for row in m.rows():
        terms = []
        for coef, var in zip(row, var_names):
            if coef == 0:
                continue
            if coef == 1:
                terms.append(var)
            elif coef == -1:
                terms.append(f"-{var}")
            else:
                terms.append(f"{coef}*{var}")
        rows.append(" + ".join(terms).replace("+ -", "- ") or "0")
    return "(" + ", ".join(rows) + ")"


def generate_spmd(result: MappingResult) -> str:
    """Emit the SPMD pseudo-program of a mapping."""
    nest = result.alignment.nest
    lines: List[str] = [
        f"// SPMD node program for nest {nest.name!r}",
        f"// virtual grid dimension m = {result.alignment.m}",
        "",
    ]
    for arr in nest.arrays.values():
        m = result.alignment.allocation_of_array(arr.name)
        lines.append(
            f"distribute {arr.name}[{arr.dim}D]  owner(idx) = "
            f"{_matrix_expr(m, [f'idx{t}' for t in range(arr.dim)])}"
        )
    lines.append("")

    for stmt in nest.statements:
        ms = result.alignment.allocation_of_stmt(stmt.name)
        vars_ = list(stmt.index_names)
        lines.append(f"on_processor p = {_matrix_expr(ms, vars_)}:")
        loop_txt = ", ".join(
            f"{l.var} in {l.lower.describe()}..{l.upper.describe()}"
            for l in stmt.loops
        )
        lines.append(f"  forall ({loop_txt}) owned by p:")
        for acc in stmt.accesses:
            label = acc.label or acc.array
            cls = result.classification_of(label)
            verb = "recv" if acc.kind is AccessKind.READ else "send"
            target = f"{acc.array}{_matrix_expr(acc.F, vars_)}"
            if cls == "local":
                lines.append(f"    local   {label}: {target}  // no communication")
            elif cls == "translation":
                lines.append(f"    shift   {label}: {target}  // constant translation")
            elif cls == "macro":
                opt = result.residual_by_label(label)
                kind = opt.macro.kind.value if opt.macro else "broadcast"
                axis = ""
                if opt.macro is not None:
                    d = opt.macro.direction_matrix()
                    if d is not None:
                        axis = f" along {d.tolist()}"
                lines.append(f"    {kind:7s} {label}: {target}{axis}")
            elif cls == "decomposed":
                opt = result.residual_by_label(label)
                phases = " ; ".join(
                    f"phase{k}={f.tolist()}"
                    for k, f in enumerate(reversed(opt.decomposition.factors))
                )
                lines.append(f"    {verb}*   {label}: {target}  // {phases}")
            else:
                lines.append(f"    {verb}    {label}: {target}  // general affine")
        lines.append("")
    return "\n".join(lines)
