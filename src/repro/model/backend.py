"""Execution backends: the interpreter and the compiled fast path.

TeAAL's pitch is that one declarative spec yields a *generated* simulator,
so the generated-Python backend is the default execution engine.  This
module provides:

* :func:`spec_cache_key` — a canonical, dict-order-insensitive key for the
  parts of a spec that determine lowering (einsum + mapping + params);
* :class:`CompileCache` — a process-wide memo from canonical spec keys to
  lowered IR plus compiled vector kernels, so repeated evaluations —
  sweeps, batched workloads, figure benchmarks — lower and compile
  exactly once;
* :class:`InterpreterBackend` / :class:`CompiledBackend` — interchangeable
  engines behind :func:`repro.model.evaluate.evaluate`.  The interpreter
  is the reference and the only source of the per-event trace stream;
  the compiled backend runs the generated vector kernels, which tally
  the aggregates of that stream instead.  With ``fallback=True`` (the
  default engine) any mapping the generator cannot express transparently
  falls back to the interpreter.

Select an engine with ``evaluate(..., backend="compiled")`` (or
``"interpreter"`` / ``"auto"`` / a :class:`Backend` instance), and batch
with ``evaluate_many(spec, workloads, workers=N)`` which compiles once and
fans out across workloads.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import fields, is_dataclass
from typing import Any, Callable, Dict, List, Optional

from ..einsum.operators import ARITHMETIC, OpSet
from ..fibertree.arena import FlatArena, arena_from_tensor
from ..fibertree.tensor import Tensor
from ..ir.builder import build_cascade_ir
from ..ir.codegen import CodegenError, compile_ir
from ..ir.nodes import LoopNestIR
from ..spec.loader import AcceleratorSpec
from .executor import (
    ExecutionError,
    cascade_context,
    execute_cascade,
    prepare_tensor,
)
from .traces import KernelCounters, TraceSink


# ----------------------------------------------------------------------
# Canonical spec keys
# ----------------------------------------------------------------------
def canonical_key(obj: Any):
    """A hashable, canonical form of (nested) spec data.

    Dataclasses canonicalize field by field, dicts sort their items (so
    YAML/dict insertion order never affects the key), sequences preserve
    order (lists of directives are applied in order — that *is*
    semantic).  Values are tagged with their type name so e.g. ``1`` and
    ``True`` cannot collide.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        return (
            obj.__class__.__name__,
            tuple((f.name, canonical_key(getattr(obj, f.name)))
                  for f in fields(obj)),
        )
    if isinstance(obj, dict):
        items = [(canonical_key(k), canonical_key(v))
                 for k, v in obj.items()]
        items.sort(key=lambda kv: repr(kv[0]))
        return ("dict", tuple(items))
    if isinstance(obj, (list, tuple)):
        return ("seq", tuple(canonical_key(x) for x in obj))
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted((canonical_key(x) for x in obj),
                                    key=repr)))
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return (type(obj).__name__, obj)
    return ("repr", repr(obj))


def spec_cache_key(spec: AcceleratorSpec):
    """Canonical key over the spec layers that determine lowering.

    Format, architecture, and binding shape only the *pricing* of trace
    events (handled by the sink), never the generated loop nest, so two
    specs differing only there share compiled kernels.  ``spec.name`` is
    cosmetic and excluded.
    """
    return canonical_key((spec.einsum, spec.mapping, spec.params))


def spec_fingerprint(spec: AcceleratorSpec) -> str:
    """A stable hex digest identifying a spec's full semantics.

    Unlike :func:`spec_cache_key` (which keys compiled kernels and so
    deliberately ignores the pricing-only layers), this covers *every*
    layer that can change an evaluation result — einsum, mapping,
    format, architecture, binding, and params — because it identifies
    sweep artifacts (journal manifests), where "same fingerprint" must
    mean "bit-identical metrics".  ``spec.name`` stays excluded: it is
    cosmetic, and candidate application rewrites it.
    """
    key = canonical_key((spec.einsum, spec.mapping, spec.format,
                         spec.architecture, spec.binding, spec.params))
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Compile cache
# ----------------------------------------------------------------------
class CompiledEinsum:
    """Lowered IR plus the compiled vector kernel for one Einsum of a
    cascade (see :mod:`repro.ir.codegen_flat`).  The kernel compiles
    eagerly: its success defines "this spec compiles"."""

    def __init__(self, ir: LoopNestIR):
        self.ir = ir
        self.vector, self.source = compile_ir(ir)


class CompiledCascade:
    """Every Einsum of one spec, lowered and compiled."""

    def __init__(self, spec: AcceleratorSpec):
        from ..analysis.ir_verify import verify_cascade_irs

        irs = build_cascade_ir(spec)
        verify_cascade_irs(irs)
        self.units: List[CompiledEinsum] = [CompiledEinsum(ir) for ir in irs]

    @classmethod
    def from_irs(cls, irs: List[LoopNestIR]) -> "CompiledCascade":
        """Rebuild a cascade from already-lowered IR (a persistent
        kernel-store hit): compilation re-runs — it is cheap and its
        output is process-local code objects — but lowering, the
        dominant cost of a cold compile, is skipped entirely.  The IR
        is structurally verified first, so a corrupted-but-checksummed
        store entry fails loudly here instead of driving codegen into
        nonsense."""
        from ..analysis.ir_verify import verify_cascade_irs

        verify_cascade_irs(irs)
        cascade = cls.__new__(cls)
        cascade.units = [CompiledEinsum(ir) for ir in irs]
        return cascade


class CompileCache:
    """Memoizes lowering + compilation per canonical spec key.

    ``persistent`` (duck-typed: ``get_kernels(spec)`` returning lowered
    IR units or None, and ``put_kernels(spec, irs)`` — see
    :class:`repro.store.PersistentStore`) adds a cross-process layer
    under the in-memory memo: a memory miss consults the store before
    lowering, and a fresh compile publishes its IR so every other
    process (and every future one) skips lowering for that spec.
    """

    def __init__(self, persistent=None):
        self._cache: Dict[Any, CompiledCascade] = {}
        self._failed: Dict[Any, CodegenError] = {}
        self._lock = threading.Lock()
        self.persistent = persistent
        self.hits = 0
        self.misses = 0
        self.persistent_hits = 0

    def __len__(self) -> int:
        return len(self._cache)

    def get(self, spec: AcceleratorSpec) -> CompiledCascade:
        key = spec_cache_key(spec)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self.hits += 1
                return cached
            failed = self._failed.get(key)
            if failed is not None:
                # Negative hit: an unsupported spec stays unsupported, so
                # repeated evaluations (e.g. a fallback backend sweeping
                # workloads) must not pay the full lowering cost again.
                self.hits += 1
                raise failed
        # Lowering/compilation run outside the lock: both can be slow.
        if self.persistent is not None:
            irs = self.persistent.get_kernels(spec)
            if irs is not None:
                from ..analysis.ir_verify import IRVerificationError

                try:
                    compiled = CompiledCascade.from_irs(irs)
                except IRVerificationError as err:
                    # A checksum-valid entry with malformed IR: evict it
                    # so future readers recompile, then fall through to
                    # a fresh lower+compile ourselves.
                    invalidate = getattr(self.persistent,
                                         "invalidate_kernels", None)
                    if invalidate is not None:
                        invalidate(spec, f"kernel IR failed verification: "
                                         f"{err}")
                else:
                    with self._lock:
                        winner = self._cache.setdefault(key, compiled)
                        self.persistent_hits += 1
                    return winner
        try:
            compiled = CompiledCascade(spec)
        except CodegenError as err:
            with self._lock:
                self._failed.setdefault(key, err)
                self.misses += 1
            raise
        if self.persistent is not None:
            self.persistent.put_kernels(spec,
                                        [unit.ir for unit in compiled.units])
        with self._lock:
            winner = self._cache.setdefault(key, compiled)
            self.misses += 1
        return winner

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()
            self._failed.clear()
            self.hits = 0
            self.misses = 0
            self.persistent_hits = 0


#: Process-wide cache shared by the default backends.
GLOBAL_COMPILE_CACHE = CompileCache()


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class Backend:
    """An execution engine for a spec's cascade on real tensors."""

    name = "base"

    def run_cascade(
        self,
        spec: AcceleratorSpec,
        tensors: Dict[str, Tensor],
        opset: OpSet = ARITHMETIC,
        opsets: Optional[Dict[str, OpSet]] = None,
        sink: Optional[TraceSink] = None,
        shapes: Optional[Dict[str, int]] = None,
        env: Optional[Dict[str, Tensor]] = None,
    ) -> Dict[str, Tensor]:
        raise NotImplementedError


class InterpreterBackend(Backend):
    """The reference engine: interprets loop-nest IR over fibertrees."""

    name = "interpreter"

    def run_cascade(self, spec, tensors, opset=ARITHMETIC, opsets=None,
                    sink=None, shapes=None, env=None):
        return execute_cascade(spec, tensors, opset=opset, opsets=opsets,
                               sink=sink, shapes=shapes, env=env)


class _NullRoutingPlan:
    """Routing plan that sends every touch to DRAM: a vector kernel run
    with it is a pure counter kernel."""

    @staticmethod
    def port(tensor: str, rank: str, kind: str):
        return None


_NULL_ROUTING = _NullRoutingPlan()


class PrepCache:
    """Memoizes tensor preparation and arena conversion across
    evaluations that share input tensor objects.

    A mapping sweep (:func:`repro.search.search`) evaluates many
    candidate specs over the *same* input tensors; without a shared
    cache every candidate re-swizzles, re-partitions, and re-flattens
    each input from scratch.  One ``PrepCache`` per sweep memoizes both
    the prepared tensor (keyed by source-object identity, rank order,
    and the exact prep-step sequence — candidates that share a storage
    order share the work) and its :class:`~repro.fibertree.arena.FlatArena`
    conversion (keyed by prepared-object identity).

    Entries pin their source objects so ``id()`` keys can never be
    recycled.  The cache is thread-safe: a parallel mapping search
    (:mod:`repro.search`) shares one instance across every worker thread
    of a sweep, so lookups and inserts synchronize on an internal lock.
    Builds run *outside* the lock (preparation can be slow); when two
    threads race to prepare the same form, one build is discarded and
    both threads share the first-inserted object — keeping the
    ``id()``-keyed arena memo coherent.
    """

    __slots__ = ("_prepared", "_arenas", "_owned", "_lock", "hits",
                 "misses")

    def __init__(self):
        # (id(src), rank_order, prep) -> (src pin, prepared tensor)
        self._prepared: Dict[tuple, tuple] = {}
        # id(prepared) -> (prepared pin, arena)
        self._arenas: Dict[int, tuple] = {}
        # ids of tensors this cache produced (the only ones worth — and
        # safe — memoizing arenas for: per-run intermediates would pin
        # every evaluation's outputs for the life of the sweep).
        self._owned: set = set()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def prepared(self, src: Tensor, rank_order, prep, build) -> Tensor:
        key = (id(src), tuple(rank_order), tuple(prep))
        with self._lock:
            entry = self._prepared.get(key)
            if entry is not None:
                self.hits += 1
                return entry[1]
        t = build()
        with self._lock:
            entry = self._prepared.get(key)
            if entry is not None:
                # Lost a build race: adopt the winner so the id()-keyed
                # arena memo sees one object per form.
                self.hits += 1
                return entry[1]
            self.misses += 1
            self._prepared[key] = (src, t)
            self._owned.add(id(t))
            return t

    def arena(self, prepared: Tensor) -> FlatArena:
        key = id(prepared)
        with self._lock:
            entry = self._arenas.get(key)
            if entry is not None:
                self.hits += 1
                return entry[1]
            owned = key in self._owned
        if not owned:
            # A tensor this cache never prepared (an intermediate, or a
            # caller mixing tensors in): convert without memoizing —
            # the id can never recur meaningfully, and pinning it would
            # leak one tensor + arena per evaluation.
            return arena_from_tensor(prepared)
        arena = arena_from_tensor(prepared)
        with self._lock:
            entry = self._arenas.get(key)
            if entry is not None:
                self.hits += 1
                return entry[1]
            self.misses += 1
            self._arenas[key] = (prepared, arena)
            return arena


def _arenas_of(prepared: Dict[str, Tensor],
               prep_cache: Optional[PrepCache] = None
               ) -> Dict[str, FlatArena]:
    """Convert prepared tensors to flat arenas, deduping shared objects."""
    converted: Dict[int, FlatArena] = {}
    out: Dict[str, FlatArena] = {}
    for name, t in prepared.items():
        key = id(t)
        arena = converted.get(key)
        if arena is None:
            if prep_cache is not None:
                arena = prep_cache.arena(t)
            else:
                arena = arena_from_tensor(t)
            converted[key] = arena
        out[name] = arena
    return out


class CompiledBackend(Backend):
    """Runs the generated vector kernels out of a compile cache.

    Untraced runs (``sink=None``) convert inputs to
    :class:`~repro.fibertree.arena.FlatArena` buffers and run each
    Einsum's vector kernel under a null routing plan, so outputs come
    from the arena loops and the tallies are simply dropped.  Traced runs
    need the per-event stream only the interpreter produces, so they run
    the interpreter; :meth:`run_vector` is how the compiled path
    prices (see :func:`repro.model.evaluate.evaluate`).  With
    ``fallback=True`` a mapping the code generator cannot express uses
    the interpreter for that spec instead of raising
    :class:`CodegenError`.
    """

    name = "compiled"

    def __init__(self, cache: Optional[CompileCache] = None,
                 fallback: bool = False):
        self.cache = cache if cache is not None else GLOBAL_COMPILE_CACHE
        self.fallback = fallback
        self._interpreter = InterpreterBackend()

    def compile(self, spec: AcceleratorSpec) -> CompiledCascade:
        """Warm the cache for a spec (raises CodegenError if unsupported)."""
        return self.cache.get(spec)

    def run_cascade(self, spec, tensors, opset=ARITHMETIC, opsets=None,
                    sink=None, shapes=None, env=None, prep_cache=None):
        if sink is None:
            try:
                return self.run_vector(
                    spec, tensors, opset=opset, opsets=opsets, shapes=shapes,
                    env=env, prep_cache=prep_cache,
                )
            except CodegenError:
                if not self.fallback:
                    raise
        elif not self.fallback:
            self.cache.get(spec)  # an inexpressible spec still raises
        return self._interpreter.run_cascade(
            spec, tensors, opset=opset, opsets=opsets, sink=sink,
            shapes=shapes, env=env,
        )

    def run_vector(self, spec, tensors, opset=ARITHMETIC, opsets=None,
                   sink=None, shapes=None, env=None, make_machines=None,
                   on_priced=None, prep_cache=None):
        """Run the cascade through the vector kernels.

        No per-element trace events are emitted.  Each Einsum's kernel
        drives the buffet/cache state machines supplied by
        ``make_machines(name, ir)`` (a routing plan with a
        ``port(tensor, rank, kind)`` method — see
        :class:`repro.model.evaluate.FusedMachines`); without
        ``make_machines`` every touch routes to DRAM.  After the kernel
        returns, ``on_priced(name, counters, machines)`` prices both the
        aggregate :class:`~repro.model.traces.KernelCounters` and the
        machine tallies, right before ``einsum_end``.  ``sink``, when
        given, receives the per-Einsum brackets and the swizzle events
        (those originate outside the kernels).

        Raises :class:`CodegenError` — before any Einsum runs — when the
        generator cannot express some Einsum of the cascade.
        """
        compiled = self.cache.get(spec)
        env, all_shapes, rank_orders = cascade_context(spec, tensors,
                                                       shapes, env)
        for unit in compiled.units:
            ir = unit.ir
            ops = (opsets or {}).get(ir.name, opset)
            if sink:
                sink.einsum_begin(ir.name, ir)
            prepared = self._prepare(ir, env, rank_orders, sink,
                                     prep_cache)
            counters = KernelCounters()
            machines = make_machines(ir.name, ir) \
                if make_machines else _NULL_ROUTING
            out = unit.vector(_arenas_of(prepared, prep_cache), ops,
                              all_shapes, counters, machines)
            if sink and ir.output.needs_producer_swizzle:
                sink.swizzle(out.name, out.nnz, side="producer")
            if on_priced:
                on_priced(ir.name, counters, machines)
            env[ir.name] = out.prune_empty()
            if sink:
                sink.einsum_end(ir.name)
        return env

    @staticmethod
    def _prepare(ir, env, rank_orders, sink,
                 prep_cache: Optional[PrepCache] = None
                 ) -> Dict[str, Tensor]:
        """Prepared inputs for one Einsum, with consumer-swizzle events.

        Mirrors the interpreter's per-(tensor, prep) dedup so swizzle
        events on intermediates are emitted exactly once.  With a
        ``prep_cache``, non-intermediate inputs memoize across
        evaluations that share the source tensor objects (intermediates
        are per-run and never cached — caching them would pin every
        candidate's outputs for the life of a sweep).
        """
        prepared: Dict[str, Tensor] = {}
        seen: Dict[tuple, Tensor] = {}
        for plan in ir.accesses:
            key = (plan.tensor, tuple(plan.prep))
            if key not in seen:
                if plan.tensor not in env:
                    raise ExecutionError(
                        f"missing input tensor {plan.tensor!r} for Einsum "
                        f"{ir.name}"
                    )
                src = env[plan.tensor]
                order = rank_orders[plan.tensor]
                if prep_cache is not None and not plan.is_intermediate:
                    seen[key] = prep_cache.prepared(
                        src, order, plan.prep,
                        lambda: prepare_tensor(src, order, plan.prep),
                    )
                else:
                    seen[key] = prepare_tensor(src, order, plan.prep)
                if sink and plan.is_intermediate:
                    for step in plan.prep:
                        if step.kind == "swizzle":
                            sink.swizzle(plan.tensor, seen[key].nnz,
                                         side="consumer")
            prepared[plan.tensor] = seen[key]
        return prepared


#: The default engine: compiled kernels with interpreter fallback.
DEFAULT_BACKEND = CompiledBackend(fallback=True)

_NAMED: Dict[str, Callable[[], Backend]] = {
    "auto": lambda: DEFAULT_BACKEND,
    "compiled": lambda: CompiledBackend(),
    "interpreter": lambda: InterpreterBackend(),
}


def resolve_backend(backend: Any = None) -> Backend:
    """Resolve a backend argument: None/'auto', a name, or an instance."""
    if backend is None:
        return DEFAULT_BACKEND
    if isinstance(backend, Backend):
        return backend
    if isinstance(backend, str):
        try:
            return _NAMED[backend]()
        except KeyError:
            raise ValueError(
                f"unknown backend {backend!r}; known: {sorted(_NAMED)}"
            ) from None
    raise TypeError(f"cannot resolve a backend from {type(backend).__name__}")
