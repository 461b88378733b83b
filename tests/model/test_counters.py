"""Counter pricing through the vector kernels (``metrics="auto"``) and
the untraced compiled backend path.

The vector kernels tally the aggregates of the trace-event stream, so
every assertion here is strict equality against the interpreter's
traced evaluation, not a tolerance band.
"""

import numpy as np
import pytest

from repro.accelerators import accelerator
from repro.fibertree import tensor_from_dense
from repro.model import (
    CompileCache,
    CompiledBackend,
    InterpreterBackend,
    default_workers,
    evaluate,
    evaluate_many,
)
from repro.model.evaluate import MAX_DEFAULT_WORKERS
from repro.spec import load_spec

MATMUL = """
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    Z: [M, N]
  expressions:
    - Z[m, n] = A[k, m] * B[k, n]
"""

SPLIT = MATMUL + """
mapping:
  partitioning:
    Z:
      K: [uniform_occupancy(A.6)]
  loop-order:
    Z: [K1, M, N, K0]
"""

ISECT_BOUND = SPLIT + """
architecture:
  Main:
    clock: 1.0e9
    subtree:
      - name: System
        local:
          - name: DRAM
            class: DRAM
            attributes: {bandwidth: 64}
          - name: ISect
            class: Intersection
            attributes: {type: two-finger}
          - name: ALU
            class: Compute
            attributes: {type: mul}
binding:
  Z:
    config: Main
    components:
      ISect:
        - op: intersect
          rank: K0
      ALU:
        - op: mul
"""


def tensors(seed=0, k=12, m=9, n=8, density=0.4):
    rng = np.random.default_rng(seed)
    a = (rng.random((k, m)) < density) * rng.integers(1, 9, (k, m))
    b = (rng.random((k, n)) < density) * rng.integers(1, 9, (k, n))
    return {
        "A": tensor_from_dense("A", ["K", "M"], a.astype(float)),
        "B": tensor_from_dense("B", ["K", "N"], b.astype(float)),
    }


def assert_results_equal(a, b):
    assert a.traffic_bytes() == b.traffic_bytes()
    assert a.exec_seconds == b.exec_seconds
    assert a.energy_pj == b.energy_pj
    assert a.total_ops() == b.total_ops()
    assert a.utilization() == b.utilization()
    assert a.action_counts() == b.action_counts()
    for name in a.env:
        assert a.env[name].points() == b.env[name].points()


def traced(spec, work):
    """The reference: the interpreter streaming events to the models."""
    return evaluate(spec, dict(work), backend=InterpreterBackend(),
                    metrics="trace")


@pytest.mark.parametrize("spec_yaml", [MATMUL, SPLIT, ISECT_BOUND])
def test_counter_pricing_equals_traced(spec_yaml):
    spec = load_spec(spec_yaml, name="ctr")
    backend = CompiledBackend(cache=CompileCache())
    work = tensors()
    counted = evaluate(spec, dict(work), backend=backend, metrics="auto")
    assert_results_equal(traced(spec, work), counted)


def test_buffered_specs_fall_back_to_trace():
    """Buffered specs price exactly on ``auto`` too (the buffets run as
    inlined machines), and a compiled backend asked for ``trace`` runs
    the interpreter: all three agree."""
    spec = accelerator("gamma")
    backend = CompiledBackend(cache=CompileCache())
    work = tensors(seed=3)
    reference = traced(spec, work)
    assert_results_equal(reference, evaluate(spec, dict(work),
                                             backend=backend,
                                             metrics="trace"))
    assert_results_equal(reference, evaluate(spec, dict(work),
                                             backend=backend,
                                             metrics="auto"))


def test_unknown_metrics_mode_rejected():
    spec = load_spec(MATMUL)
    with pytest.raises(ValueError, match="metrics"):
        evaluate(spec, tensors(), metrics="vibes")


ONE_BUFFER = SPLIT + """
architecture:
  Main:
    clock: 1.0e9
    subtree:
      - name: System
        local:
          - name: DRAM
            class: DRAM
            attributes: {bandwidth: 64}
          - name: ABuf
            class: Buffer
            attributes: {type: buffet, width: 64, depth: 64}
binding:
  Z:
    config: Main
    components:
      ABuf:
        - {tensor: A, rank: K, type: elem, style: lazy, evict-on: K1}
"""


def test_priceability_rekeys_after_binding_mutation():
    """Kernels are shared across bindings (the compile cache keys only
    the lowering layers), so the routing must follow a spec whose
    bindings were mutated in place after a first evaluation."""
    spec = load_spec(ONE_BUFFER, name="mutate-binding")
    backend = CompiledBackend(cache=CompileCache())
    before = evaluate(spec, tensors(seed=1), backend=backend)
    # Strip every data binding: the spec is now unbuffered.
    for eb in spec.binding.einsums.values():
        eb.data.clear()
    after = evaluate(spec, tensors(seed=1), backend=backend)
    assert_results_equal(after, traced(spec, tensors(seed=1)))
    # The buffered evaluation really was different (the buffet changed
    # DRAM traffic), so the two answers describe different specs.
    assert before.traffic_bytes() != after.traffic_bytes()


def test_priceability_rekeys_after_architecture_mutation():
    """Mutating the architecture in place (Buffer -> DRAM class) drops
    the buffet; the routing must follow the content, not the object."""
    spec = load_spec(ONE_BUFFER, name="mutate-arch")
    backend = CompiledBackend(cache=CompileCache())
    before = evaluate(spec, tensors(seed=1), backend=backend)
    spec.architecture.topologies["Main"].components["ABuf"].klass = "DRAM"
    after = evaluate(spec, tensors(seed=1), backend=backend)
    assert_results_equal(after, traced(spec, tensors(seed=1)))
    assert before.traffic_bytes() != after.traffic_bytes()


def test_evaluate_many_counters_and_workers():
    spec = load_spec(SPLIT, name="sweep")
    backend = CompiledBackend(cache=CompileCache())
    workloads = [tensors(seed=i) for i in range(5)]
    sequential = evaluate_many(spec, [dict(w) for w in workloads],
                               backend=InterpreterBackend(), workers=1,
                               metrics="trace")
    threaded = evaluate_many(spec, [dict(w) for w in workloads],
                             backend=backend, workers=4)
    for a, b in zip(sequential, threaded):
        assert_results_equal(a, b)


def test_default_workers_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_EVALUATE_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.delenv("REPRO_EVALUATE_WORKERS")
    import os

    expected = max(1, min(os.cpu_count() or 1, MAX_DEFAULT_WORKERS))
    assert default_workers() == expected


def test_default_workers_rejects_non_numeric_env(monkeypatch):
    """A garbage REPRO_EVALUATE_WORKERS used to crash with an opaque
    ValueError from int(); it now raises a named error that points at
    the variable and the fix."""
    from repro.model import EnvVarError

    monkeypatch.setenv("REPRO_EVALUATE_WORKERS", "many")
    with pytest.raises(EnvVarError, match="REPRO_EVALUATE_WORKERS"):
        default_workers()


def test_default_workers_rejects_zero_and_negative_env(monkeypatch):
    """0 used to be silently clamped to 1, masking a broken deployment
    config; 0 and negatives are now rejected with the named error."""
    from repro.model import EnvVarError

    for bogus in ("0", "-3"):
        monkeypatch.setenv("REPRO_EVALUATE_WORKERS", bogus)
        with pytest.raises(EnvVarError, match="REPRO_EVALUATE_WORKERS"):
            default_workers()


def test_flat_and_object_flavors_agree_untraced():
    """An untraced compiled run (the vector kernel under the null routing
    plan) reproduces the interpreter's outputs, with no fallback."""
    spec = load_spec(SPLIT, name="flavors")
    work = tensors(seed=9)
    env_i = InterpreterBackend().run_cascade(spec, dict(work))
    env_v = CompiledBackend(cache=CompileCache()).run_cascade(spec,
                                                              dict(work))
    assert env_i["Z"].points() == env_v["Z"].points()


def test_bad_kernel_flavor_rejected():
    """The retired kernel-flavor metrics modes are rejected by name,
    listing the three that remain."""
    for mode in ("counters", "counters-only", "fused", "vector"):
        with pytest.raises(ValueError,
                           match="'auto', 'trace', 'analytical'"):
            evaluate(load_spec(MATMUL), tensors(), metrics=mode)
