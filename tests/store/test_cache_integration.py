"""The ``cache=`` seam through ``evaluate``/``evaluate_many``/``search``.

The contract under test: a cache *hit* is bit-identical to a cold run
(same fingerprint, same action counts), incompatible arguments bypass
the store loudly instead of mis-keying, the analytical tier never
touches disk, and the store composes with the sweep journal — resume
adopts from the journal, re-evaluation hits the store.
"""

import os
import warnings

import pytest

from repro.model import EnergyModel
from repro.model.backend import CompileCache, CompiledCascade
from repro.model.evaluate import StoreBypassWarning, evaluate, evaluate_many
from repro.search import search
from repro.search.results import metrics_fingerprint
from repro.spec import load_spec
from repro.store import PersistentStore
from repro.workloads import uniform_random

BASE = """
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    Z: [M, N]
  expressions:
    - Z[m, n] = A[k, m] * B[k, n]
"""

BUFFERED = BASE + """
architecture:
  Buffered:
    clock: 1.0e9
    subtree:
      - name: System
        local:
          - name: DRAM
            class: DRAM
            attributes: {bandwidth: 128}
          - name: ABuf
            class: Buffer
            attributes: {type: buffet, width: 64, depth: 256}
          - name: ALU
            class: Compute
            attributes: {type: mul}
binding:
  Z:
    config: Buffered
    components:
      ABuf:
        - {tensor: A, rank: K, type: elem, style: lazy, evict-on: M}
      ALU:
        - op: mul
"""


@pytest.fixture
def tensors():
    return {
        "A": uniform_random("A", ["K", "M"], (24, 20), 0.25, seed=1),
        "B": uniform_random("B", ["K", "N"], (24, 16), 0.25, seed=2),
    }


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def _object_count(path):
    n = 0
    for _, _, files in os.walk(os.path.join(path, "objects")):
        n += len(files)
    return n


class TestEvaluateThroughCache:
    def test_warm_hit_is_bit_identical(self, tensors, cache_dir):
        spec = load_spec(BUFFERED)
        cold = evaluate(spec, tensors, cache=cache_dir)
        store = PersistentStore(cache_dir)
        warm = evaluate(spec, tensors, cache=store)
        assert store.stats.hits == 1
        assert metrics_fingerprint(warm) == metrics_fingerprint(cold)
        assert warm.action_counts() == cold.action_counts()
        ref = evaluate(spec, tensors)  # never saw the cache
        assert metrics_fingerprint(ref) == metrics_fingerprint(cold)

    def test_auto_result_hits_for_later_trace(self, tensors, cache_dir):
        """Both cached modes are exact, so they share one key: an
        ``auto`` result serves a later ``trace`` request (equal
        fingerprint) without evaluating again."""
        spec = load_spec(BUFFERED)
        store = PersistentStore(cache_dir)
        cold = evaluate(spec, tensors, metrics="auto", cache=store)
        warm = evaluate(spec, tensors, metrics="trace", cache=store)
        assert store.stats.puts == 1
        assert store.stats.hits == 1
        reference = evaluate(spec, tensors, metrics="trace",
                             backend="interpreter")
        assert metrics_fingerprint(warm) == metrics_fingerprint(cold) \
            == metrics_fingerprint(reference)

    def test_analytical_tier_never_touches_disk(self, tensors, cache_dir):
        spec = load_spec(BASE)
        evaluate(spec, tensors, metrics="analytical", cache=cache_dir)
        evaluate_many(spec, [tensors], metrics="analytical", workers=1,
                      cache=cache_dir)
        search(spec, tensors, tile_sizes={"K": [8]}, workers=1,
               metrics="analytical", cache=cache_dir)
        assert not os.path.exists(cache_dir) \
            or _object_count(cache_dir) == 0

    def test_custom_energy_model_bypasses_loudly(self, tensors, cache_dir):
        spec = load_spec(BASE)
        with pytest.warns(StoreBypassWarning, match="energy_model"):
            evaluate(spec, tensors, energy_model=EnergyModel(),
                     cache=cache_dir)
        assert _object_count(cache_dir) == 0


class TestStoreAndEngine:
    """The one ``cache=`` resolver behind ``evaluate_many``, the search
    runner and job workers."""

    def test_fresh_store_backed_engine_per_call(self, cache_dir):
        from repro.model.evaluate import store_and_engine

        store_a, engine_a = store_and_engine(cache_dir)
        store_b, engine_b = store_and_engine(cache_dir)
        # Nothing is memoized: a sweep opening a new store directory per
        # pass must not grow a process-wide table.
        assert store_a is not store_b and engine_a is not engine_b
        assert store_a.path == store_b.path
        assert engine_a.cache is not engine_b.cache
        assert engine_a.cache.persistent is store_a
        assert engine_a.fallback

    def test_no_cache_and_bypass_yield_no_store(self, cache_dir):
        from repro.model.backend import resolve_backend
        from repro.model.evaluate import store_and_engine

        assert store_and_engine(None) == (None, resolve_backend(None))
        with pytest.warns(StoreBypassWarning, match="this sweep.*energy"):
            store, engine = store_and_engine(cache_dir,
                                             energy_model=EnergyModel())
        assert store is None
        assert engine is resolve_backend(None)


class TestKernelPersistence:
    def test_second_compile_cache_hits_persistently(self, cache_dir):
        spec = load_spec(BUFFERED)
        store = PersistentStore(cache_dir)
        first = CompileCache(persistent=store)
        first.get(spec)
        assert first.persistent_hits == 0
        # A *fresh* in-memory cache — a new process, effectively — finds
        # the lowered IR on disk instead of re-lowering.
        second = CompileCache(persistent=store)
        compiled = second.get(spec)
        assert second.persistent_hits == 1
        assert compiled.units


class TestEvaluateManyThroughCache:
    def test_thread_and_process_pools_hit_bit_identically(
            self, tensors, cache_dir):
        """Pooled and serial thread sweeps both hit the store exactly;
        cross-process hits are covered by the jobs suite."""
        spec = load_spec(BASE)
        workloads = [tensors, {
            "A": uniform_random("A", ["K", "M"], (24, 20), 0.25, seed=7),
            "B": uniform_random("B", ["K", "N"], (24, 16), 0.25, seed=8),
        }]
        cold = evaluate_many(spec, workloads, workers=2, cache=cache_dir)
        store = PersistentStore(cache_dir)
        warm_pool = evaluate_many(spec, workloads, workers=2, cache=store)
        warm_serial = evaluate_many(spec, workloads, workers=1, cache=store)
        fp = lambda rs: [metrics_fingerprint(r) for r in rs]
        assert fp(warm_pool) == fp(cold)
        assert fp(warm_serial) == fp(cold)
        assert store.stats.hits >= len(workloads)
        assert store.stats.puts == 0  # nothing was recomputed

    def test_populates_both_namespaces(self, tensors, cache_dir):
        spec = load_spec(BUFFERED)
        evaluate_many(spec, [tensors], workers=1, cache=cache_dir)
        store = PersistentStore(cache_dir)
        assert store.get_kernels(spec) is not None
        assert _object_count(cache_dir) >= 2  # kernels + result


class TestSearchThroughCache:
    def test_warm_sweep_is_bit_identical(self, tensors, cache_dir):
        spec = load_spec(BASE)
        ref = search(spec, tensors, tile_sizes={"K": [8, 24]}, workers=1)
        cold = search(spec, tensors, tile_sizes={"K": [8, 24]}, workers=1,
                      cache=cache_dir)
        store = PersistentStore(cache_dir)
        warm = search(spec, tensors, tile_sizes={"K": [8, 24]}, workers=1,
                      cache=store)
        fp = lambda r: [(c, metrics_fingerprint(res))
                        for c, res in r.candidates]
        assert fp(cold) == fp(ref)
        assert fp(warm) == fp(ref)
        assert warm.best()[0] == ref.best()[0]
        assert store.stats.hits == len(ref.candidates)

    def test_pruned_sweep_caches_both_phases(self, tensors, cache_dir):
        """Phase 1 prices analytically (never cached); the phase-2
        re-pricing goes through the store."""
        spec = load_spec(BASE)
        kwargs = dict(workers=1, prune_to=2, prune_metrics="analytical")
        ref = search(spec, tensors, **kwargs)
        search(spec, tensors, cache=cache_dir, **kwargs)
        store = PersistentStore(cache_dir)
        warm = search(spec, tensors, cache=store, **kwargs)
        fp = lambda r: [(c, metrics_fingerprint(res))
                        for c, res in r.candidates]
        assert fp(warm) == fp(ref)
        assert store.stats.hits > 0
        assert store.stats.puts == 0  # everything came from the cache

    def test_process_pool_sweep_shares_the_store(self, tensors, cache_dir):
        """A thread-pool sweep's puts serve a later serial sweep; the
        multi-process case runs through repro.search.jobs
        (test_jobs.py::test_workers_share_a_store)."""
        spec = load_spec(BASE)
        ref = search(spec, tensors, workers=1)
        search(spec, tensors, workers=2, cache=cache_dir)
        store = PersistentStore(cache_dir)
        warm = search(spec, tensors, workers=1, cache=store)
        fp = lambda r: [(c, metrics_fingerprint(res))
                        for c, res in r.candidates]
        assert fp(warm) == fp(ref)
        # The pool workers' puts are visible to the serial warm pass.
        assert store.stats.hits == len(ref.candidates)

    def test_incompatible_sweep_bypasses_loudly(self, tensors, cache_dir):
        spec = load_spec(BASE)
        with pytest.warns(StoreBypassWarning, match="energy_model"):
            search(spec, tensors, max_loop_orders=2, workers=1,
                   energy_model=EnergyModel(), cache=cache_dir)
        assert _object_count(cache_dir) == 0


class TestJournalComposesWithCache:
    def test_resume_adopts_then_hits(self, tensors, tmp_path, cache_dir):
        from repro.search.journal import JOURNAL_NAME

        spec = load_spec(BASE)
        baseline = search(spec, tensors, workers=1)
        path = str(tmp_path / "sweep")
        search(spec, tensors, workers=1, journal=path, cache=cache_dir)

        journal_file = os.path.join(path, JOURNAL_NAME)
        lines = open(journal_file).readlines()
        open(journal_file, "w").write("".join(lines[:3]))

        store = PersistentStore(cache_dir)
        resumed = search(spec, tensors, workers=1, resume=path,
                         cache=store)
        fp = lambda r: [(c, metrics_fingerprint(res))
                        for c, res in r.candidates]
        assert fp(resumed) == fp(baseline)
        # Journal checkpoints cover the truncated prefix; the store
        # serves the re-evaluated tail without recomputing it.
        assert resumed.stats["n_adopted"] == 3
        assert store.stats.hits > 0
        assert store.stats.puts == 0
