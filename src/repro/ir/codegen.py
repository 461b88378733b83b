"""Code generation: lower loop-nest IR to standalone Python source.

This is the "simulator generator" output stage in the spirit of the paper's
HiFiber backend (section 4.3): the IR becomes a plain Python function whose
nested loops co-iterate fibertrees through a small runtime
(:mod:`repro.ir.codegen_runtime`).  The generated source is readable,
importable, and produces exactly the same outputs as the interpreting
executor (the differential suite in ``tests/ir/test_codegen_differential``
enforces this over every registered accelerator).

Supported: plain/flat/upper levels, eager shape and occupancy splits,
occupancy *followers* (virtual levels with runtime partition windows),
flattening, inferred swizzles, lookups (including chunk search), affine
projection, intersect/union/single co-iteration, take()/Mul/Add leaves,
dense iteration for undriven ranks.  The generator refuses (with
:class:`CodegenError`) an Einsum that reads the same tensor twice with
*different* preprocessing, or an access with no physical level; such
specs run on the interpreter.

One kernel is generated per Einsum: the arena-native *vector* kernel of
:mod:`repro.ir.codegen_flat`.  It walks
:class:`~repro.fibertree.arena.FlatArena` spans, tallies the aggregates
of the interpreter's trace-event stream into a
:class:`~repro.model.traces.KernelCounters`, drives the buffet/cache
state machines a routing plan hands it, and batches eligible
innermost-rank spans through numpy.  This module holds the pieces the
generator shares: the emitter, the index-expression helpers, the module
prelude, and :func:`compile_ir`.

Backend selection lives in :mod:`repro.model.backend`: ``evaluate(...,
backend="compiled"|"interpreter"|"auto")`` and ``evaluate_many(spec,
workloads, ...)`` pick kernels out of a process-wide compile cache.
"""

from __future__ import annotations

from typing import Dict, List, Set

from .nodes import FLAT, FLAT_UPPER, PLAIN, UPPER, VIRTUAL, LoopNestIR


class CodegenError(NotImplementedError):
    pass


class _Emitter:
    def __init__(self):
        self.lines: List[str] = []
        self.indent = 0

    def emit(self, text: str = "") -> None:
        self.lines.append("    " * self.indent + text if text else "")

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _expr_code(e) -> str:
    """Python expression computing an IndexExpr from bound loop variables."""
    parts = [f"v_{v}" for v in e.vars]
    if e.const or not parts:
        parts.append(str(e.const))
    return " + ".join(parts)


def _coord_code(lvl) -> str:
    if lvl.kind == FLAT or len(lvl.exprs) > 1:
        return "(" + ", ".join(_expr_code(e) for e in lvl.exprs) + ")"
    return _expr_code(lvl.exprs[0])


def _point_code(exprs) -> str:
    parts = [_expr_code(e) for e in exprs]
    if not parts:
        return "()"
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


def _physical_below(plan, depth, of):
    for lvl in plan.levels[depth + 1:]:
        if lvl.of == of and lvl.kind in (PLAIN, FLAT):
            return lvl
    return None


def _drivable(lvl, binds) -> bool:
    if lvl.kind == VIRTUAL:
        return False
    if lvl.kind in (UPPER, FLAT_UPPER):
        return True
    if lvl.kind == FLAT:
        return tuple(v for e in lvl.exprs for v in e.vars) == binds
    expr = lvl.exprs[0]
    if expr.is_var:
        return binds == expr.vars
    return len(binds) == 1 and binds[0] in expr.vars and expr.vars


def _statically_driven(ir) -> set:
    out = set()
    for plan in ir.accesses:
        for lvl in plan.levels:
            if lvl.kind != VIRTUAL and _drivable(
                lvl, ir.binds.get(lvl.rank, ())
            ):
                out.add(lvl.rank)
    return out


def _existential_ranks(ir: LoopNestIR) -> Set[str]:
    """Ranks that only gate a take() output: the first match suffices."""
    out: Set[str] = set()
    if ir.einsum.is_take:
        out_vars = set(ir.einsum.output.index_vars)
        kept = set(ir.einsum.expr.args[ir.einsum.expr.which].index_vars)
        for rank in ir.loop_ranks:
            binds = set(ir.binds.get(rank, ()))
            if binds and not (binds & (out_vars | kept)):
                out.add(rank)
    return out


_PRELUDE = '''"""TeAAL-generated simulator module."""

from bisect import bisect_left as _bl

from repro.fibertree.fiber import Fiber
from repro.fibertree.tensor import Tensor
import repro.ir.codegen_runtime as rt


'''


def compile_ir(ir: LoopNestIR, func_name: str = "kernel"):
    """Compile one Einsum's vector kernel and return ``(function, source)``.

    The kernel's signature is ``kernel(arenas, opset, shapes, kc, fm)``
    (see :mod:`repro.ir.codegen_flat`).  Raises :class:`CodegenError`
    when the generator cannot express the Einsum.
    """
    from .codegen_flat import generate_flat_source

    source = _PRELUDE + generate_flat_source(ir, func_name)
    namespace: Dict[str, object] = {}
    exec(compile(source, f"<teaal:{ir.name}>", "exec"), namespace)
    return namespace[func_name], source
