"""Outside-in layer tracing for the benchmark.

The program carries no instrumentation: :func:`install` wraps the public
entry points of each layer at the namespace each call is made from, and
every wrapped call records a span (name, start, end, parent, thread,
segment).  Span stacks are thread-local, because the mapping search runs
a 2-thread pool; a span opened on a pool thread has no parent there.
Spans stay in memory until the benchmark writes them out at the end.

A span's *self time* is its duration minus the durations of its direct
children; children run on the parent's thread, so they never overlap.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict, namedtuple
from typing import Callable, Dict, List, Optional, Tuple


#: One recorded call; ``parent`` is 0 for a root span on its thread.
Span = namedtuple("Span", "sid parent thread name start end segment")


class Tracer:
    """Records spans while ``active``; inactive wrappers only forward."""

    def __init__(self):
        self.active = False
        #: Label stamped on spans opened from now on (set by the
        #: workload, e.g. "cold"/"warm" in the mapping search).
        self.segment: Optional[str] = None
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self._caches: Dict[int, tuple] = {}

    # ---- spans --------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (when active)."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1] if stack else 0
        segment = self.segment
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, parent, threading.get_ident(),
                                       name, start, end, segment))

    def count(self, name: str, n: int = 1) -> None:
        if self.active:
            with self._lock:
                self.counts[name] += n

    def take(self) -> Tuple[List[Span], Dict[str, int]]:
        """Hand over and forget the spans and counts recorded so far."""
        with self._lock:
            spans, counts = self.spans, dict(self.counts)
            self.spans, self.counts = [], defaultdict(int)
        return spans, counts

    # ---- wrapping -----------------------------------------------------
    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is a span name or a function of ``(args, kwargs)``
        returning one; ``after(result)`` runs on return.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            result = tracer.call(label, original, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``, remembering the original for uninstall."""
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def watch_cache(self, cache) -> None:
        """Remember a compile cache's counters the first time it is
        used in a pass, so the pass's hits and misses can be read off
        as deltas (caches are per-search objects in the mapping search).
        """
        with self._lock:
            if id(cache) not in self._caches:
                self._caches[id(cache)] = (
                    cache, cache.hits + cache.persistent_hits,
                    cache.misses)

    def take_cache_counts(self) -> Tuple[int, int]:
        with self._lock:
            caches, self._caches = self._caches, {}
        hits = sum(c.hits + c.persistent_hits - h0
                   for c, h0, _ in caches.values())
        misses = sum(c.misses - m0 for c, _, m0 in caches.values())
        return hits, misses


def install(tracer: Tracer) -> None:
    """Wrap each layer's entry points where its callers look them up."""
    import repro.analysis
    import repro.graph
    import repro.graph.driver
    import repro.model
    import repro.model.analytical
    import repro.model.backend
    import repro.model.executor
    import repro.search
    import repro.search.runner
    from repro.fibertree import Tensor
    from repro.model.backend import CompileCache
    from repro.search.runner import SearchRunner
    from repro.store import MISS, PersistentStore

    # The package re-export of evaluate() shadows the module.
    evaluate_mod = sys.modules["repro.model.evaluate"]
    backend = repro.model.backend

    # fibertree
    tracer.wrap(backend, "prepare_tensor", "fibertree.prepare")
    tracer.wrap(backend, "arena_from_tensor", "fibertree.arena")
    tracer.wrap(Tensor, "prune_empty", "fibertree.prune")
    # ir
    for mod in (backend, repro.model.executor, repro.model.analytical):
        tracer.wrap(mod, "build_cascade_ir", "ir.lower")
    tracer.wrap(backend, "compile_ir", "ir.codegen")
    get = CompileCache.__dict__["get"]

    def cache_get(self, spec):
        if tracer.active:
            tracer.watch_cache(self)
        return get(self, spec)

    tracer.patch(CompileCache, "get", cache_get)
    # model
    for owner in (repro.model, evaluate_mod, repro.search.runner):
        tracer.wrap(owner, "evaluate", "model.evaluate")
    for owner in (evaluate_mod, repro.model.analytical):
        tracer.wrap(owner, "fuse_blocks", "model.price")
    tracer.wrap(evaluate_mod.FusedMachines, "settle", "model.price")
    tracer.wrap(repro.model.analytical, "evaluate_analytical",
                "model.analytical")
    tracer.wrap(repro.model.executor, "execute_einsum", "model.interp")
    # analysis
    tracer.wrap(repro.analysis, "feasibility_findings",
                "analysis.feasibility")
    tracer.wrap(repro.analysis, "verify_spec", "analysis.lint")
    # search
    tracer.wrap(repro.search, "search", "search.run")

    def phase(args, kwargs):
        p = kwargs.get("phase", args[3] if len(args) > 3 else 1)
        return f"search.phase{p}"

    tracer.wrap(SearchRunner, "_evaluate_batch", phase)
    # store
    tracer.wrap(PersistentStore, "put", "store.put")
    tracer.wrap(PersistentStore, "get", "store.get",
                after=lambda res: tracer.count(
                    f"store.get_hits.{tracer.segment}", res is not MISS))
    # graph
    tracer.wrap(repro.graph, "run_vertex_centric", "graph.run")
    tracer.wrap(repro.graph.driver, "execute_cascade", "graph.cascade")


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of every span, keyed by span id."""
    child = defaultdict(float)
    for s in spans:
        if s.parent:
            child[s.parent] += s.end - s.start
    return {s.sid: s.end - s.start - child[s.sid] for s in spans}
