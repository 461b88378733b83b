PYTHON ?= python
export PYTHONPATH := src
export HYPOTHESIS_PROFILE ?= repro

.PHONY: test test-differential coverage bench-backend bench-nnz bench-smoke benchmarks example

# Tier-1: unit + integration + the codegen differential suite, with the
# fixed hypothesis profile for reproducibility.
test:
	$(PYTHON) -m pytest tests -q

# Just the backend-equivalence harness — the vector kernels against the
# interpreter (fast inner loop while hacking on the code generator).
test-differential:
	$(PYTHON) -m pytest tests/ir/test_codegen_differential.py \
	    tests/model/test_vector.py tests/model/test_fused.py \
	    tests/integration/test_published_metrics.py -q

# Tier-1 with the CI coverage floor (needs pytest-cov).
coverage:
	$(PYTHON) -m pytest tests -q --cov=repro --cov-report=term \
	    --cov-fail-under=80

# Every engine (interpreter+trace / vector / analytical) on 24-workload
# sweeps; appends to benchmarks/BENCH_backend.json.
bench-backend:
	$(PYTHON) benchmarks/bench_backend.py

# Interpreter+trace vs vector scaling curve, 1e4 -> 1e6 nonzeros
# (fingerprints asserted bit-identical per size); appends the nnz_sweep
# series to benchmarks/BENCH_backend.json.
bench-nnz:
	$(PYTHON) benchmarks/bench_backend.py --nnz-sweep

# Tiny sweep, no trajectory write: the CI smoke gate.
bench-smoke:
	$(PYTHON) benchmarks/bench_backend.py --workloads 3 --no-json

# Full figure-reproduction benchmarks (slow).  The bench files are named
# bench_*.py, which pytest's default collection pattern skips, so the
# pattern is widened here only (not globally: the gates take minutes).
benchmarks:
	$(PYTHON) -m pytest benchmarks -q -o python_files='bench_*.py'

example:
	$(PYTHON) examples/generated_simulator.py
