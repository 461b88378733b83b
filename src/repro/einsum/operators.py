"""Operator sets: the algebra an Einsum cascade computes over.

The paper (section 8, Figure 12) notes that a specific graph algorithm
"manifests by redefining the x and + operators (e.g., for SSSP, to addition
and minimum, respectively)".  An :class:`OpSet` carries those definitions;
the executor threads it through every compute and reduction.

``sub`` supports the mask-building Einsums of the vertex-centric cascades
(``M[v] = P1[v] - P0[v]``); its result of 0 means "unchanged", and zero
results are pruned from the output fibertree, so the mask is sparse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class OpSet:
    """The (x, +, -) operator bindings for one Einsum or a whole cascade."""

    name: str = "arithmetic"
    mul: Callable[[Any, Any], Any] = lambda a, b: a * b
    add: Callable[[Any, Any], Any] = lambda a, b: a + b
    sub: Callable[[Any, Any], Any] = lambda a, b: a - b
    # Identity of `add`, used to seed reductions.
    zero: Any = 0
    # Whether `mul` is numpy-elementwise and `add` is IEEE `+`, so the
    # vector kernels may evaluate whole leaf spans with batched
    # numpy ops (and reduce them with np.add.accumulate) bit-identically
    # to the scalar loop.  Off by default: a custom OpSet must opt in.
    vector_ok: bool = False

    def reduce_into(self, acc: Any, value: Any) -> Any:
        return self.add(acc, value) if acc is not None else value


ARITHMETIC = OpSet(vector_ok=True)

# Tropical / min-plus algebra: x = +, + = min.  SSSP relaxation (section 8).
MIN_PLUS = OpSet(
    name="min-plus",
    mul=lambda a, b: a + b,
    add=min,
    sub=lambda a, b: a if a != b else 0,
    zero=float("inf"),
)

# BFS: combining an edge with a source property yields (hops + 1); reduction
# keeps the minimum hop count.
BFS_HOPS = OpSet(
    name="bfs-hops",
    mul=lambda edge, prop: prop + 1,
    add=min,
    sub=lambda a, b: a if a != b else 0,
    zero=float("inf"),
)

NAMED_OPSETS = {
    "arithmetic": ARITHMETIC,
    "min-plus": MIN_PLUS,
    "bfs-hops": BFS_HOPS,
}


def opset(name_or_opset) -> OpSet:
    """Resolve an operator-set name or pass an OpSet through."""
    if isinstance(name_or_opset, OpSet):
        return name_or_opset
    try:
        return NAMED_OPSETS[name_or_opset]
    except KeyError:
        raise KeyError(
            f"unknown operator set {name_or_opset!r}; "
            f"known: {sorted(NAMED_OPSETS)}"
        ) from None
