# Developer entry points for the NeuroSelect reproduction.

PYTHON ?= python

.PHONY: install kernel test bench bench-bcp bench-bcp-smoke report trace-report quick-bench fuzz-smoke serve-smoke session-smoke chaos-smoke store-smoke examples clean

install:
	$(PYTHON) setup.py develop

# Build the compiled CDCL conflict loop (needs cffi and a C compiler)
# into src/repro/solver/_build/; the first Solver builds it otherwise.
# Prints the engine new solvers will use, and fails on the fallback.
kernel:
	PYTHONPATH=src $(PYTHON) -c "from repro.solver import kernel; \
		engine, why = kernel.engine_info(); print(engine, why); \
		raise SystemExit(engine != 'c')"

test:
	$(PYTHON) -m pytest tests/

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-output:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Rewrite BENCH_bcp.json with the full two-engine BCP comparison: the
# solver's arena engine against the benchmark's in-file copy of the
# seed engine (legacy).  Run on a quiet machine; the committed aggregate
# is the baseline the CI smoke job guards against.
bench-bcp:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_bcp_micro.py

# The CI BCP gate: measure in smoke mode (full-size workloads, fewer
# replay passes) into BENCH_bcp_smoke.json, then let `repro trend`, the
# one regression gate, fail if the aggregate arena-vs-legacy ratio is
# >10% below the committed BENCH_bcp.json.  A fresh store each time, as
# in CI, so the baseline is the committed file alone.
TREND_STORE ?= /tmp/repro-trend.sqlite
bench-bcp-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_bcp_micro.py --smoke
	rm -f $(TREND_STORE)
	PYTHONPATH=src $(PYTHON) -m repro trend BENCH_bcp.json \
		BENCH_bcp_smoke.json --store $(TREND_STORE) --check-regression

# Smaller, faster benchmark settings for smoke runs.
quick-bench:
	REPRO_BENCH_PER_YEAR=3 REPRO_BENCH_LABEL_BUDGET=2000 \
	REPRO_BENCH_EPOCHS=8 REPRO_BENCH_SOLVE_BUDGET=100000 \
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Small deterministic differential-fuzzing campaign; mirrors the CI
# fuzz-smoke job.  Shrunk repros land in $(FUZZ_CORPUS).
FUZZ_SEEDS ?= 60
FUZZ_CORPUS ?= fuzz-corpus
fuzz-smoke:
	$(PYTHON) -m repro fuzz --seeds $(FUZZ_SEEDS) --budget 2000 \
		--workers 2 --shrink --corpus $(FUZZ_CORPUS) \
		--trace $(FUZZ_CORPUS)/traces

# Solve-service smoke: start `repro serve`, fire a concurrent burst,
# assert answers match direct solves and the serve.batch_size metric
# proves amortized inference.  Mirrors the CI service-smoke job.
serve-smoke:
	$(PYTHON) scripts/serve_smoke.py

# Incremental-session smoke: a seeded 200-step add/assume fuzz schedule
# (warm answers bit-identical to fresh re-solves, failed cores
# consistent) plus a 50-delta family through one
# drift-gated selector session, with the forward-passes < instances
# amortization claim read from session-select trace events.  Mirrors
# the CI session-smoke job.
session-smoke:
	$(PYTHON) scripts/session_smoke.py

# Chaos smoke: run the seeded CI storm (inference crash + breaker trip
# and recovery + worker kill + journal write failure + mid-scenario
# restart) against a live service, twice, and demand identical outcome
# fingerprints.  Mirrors the CI chaos-smoke job.
CHAOS_SCENARIO ?= mixed
CHAOS_TRACE ?= chaos-traces
chaos-smoke:
	$(PYTHON) -m repro chaos --scenario $(CHAOS_SCENARIO) \
		--check-determinism --trace $(CHAOS_TRACE)

# Run-store smoke: traced solve + dataset auto-ingest into the run
# store, `repro query` round trip, and the trend gate tripping on a
# degraded bench result.  Mirrors the CI store-query-smoke job.
store-smoke:
	$(PYTHON) scripts/store_smoke.py

report:
	$(PYTHON) -m repro.bench.reporting

# Validate and render the observability traces under TRACE_DIR (the
# directory passed to `--trace` / $REPRO_TRACE_DIR).
TRACE_DIR ?= out
trace-report:
	$(PYTHON) -m repro report --validate $(TRACE_DIR)/*.jsonl

# solve_dimacs.py needs a formula and exits 10 (SAT) by SAT-competition
# convention, so it runs apart from the loop on a small SAT instance.
examples:
	for script in examples/*.py; do \
		[ $$script = examples/solve_dimacs.py ] && continue; \
		echo "== $$script"; $(PYTHON) $$script || exit 1; \
	done
	echo "== examples/solve_dimacs.py"; \
	$(PYTHON) examples/solve_dimacs.py tests/data/binary_chain.cnf; \
	test $$? -eq 10

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .benchmarks \
		src/repro/solver/_build
	find . -name __pycache__ -type d -exec rm -rf {} +
