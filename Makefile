# Convenience targets; everything assumes the in-tree layout (src/).
PY ?= python
export PYTHONPATH := src

.PHONY: check test test-all lattice trace-smoke artifacts stress bench perf-gate gates bless-baseline speedup loc

## check: tier-1 test suite + trace-determinism smoke (the pre-commit gate)
check: trace-smoke
	$(PY) -m pytest -q

## test: full test suite (`-m ""` lifts pyproject's `not slow`)
test:
	$(PY) -m pytest -x -q -m ""

## lattice: the whole equivalence lattice (tests/test_lattice.py), every
## admissible row of the product whose all-pairs cover tier-1 runs
lattice:
	$(PY) -m pytest -q tests/test_lattice.py -m slow

test-all: test

## trace-smoke: two identical simulated runs must export identical bytes
trace-smoke:
	$(PY) scripts/trace_report.py --selftest

## artifacts: regenerate every executable paper artifact (the DES-derived
## tables and figures) into a throwaway store and byte-compare it with
## benchmarks/output — the determinism gate CI runs, ≈ 10 s
artifacts:
	$(PY) scripts/run_missing.py --check --workers 2

## stress: race hunt over the process transport — its own tests and the
## process rows of the equivalence lattice, STRESS_N (default 10) times each on one
## CPU beside a CPU hog, with _POLL / _SPIN / ring depth redrawn per run from
## a printed seed (STRESS_SEED replays; flight rings of a failure in .stress/)
stress:
	$(PY) tests/stress_transport.py

## bench: run the pinned core benchmark matrix + multi-core speedup curve
## (writes BENCH_core.json and appends PerfReport lines to
## benchmarks/output/BENCH_runs.jsonl)
bench:
	$(PY) benchmarks/bench_core.py

## speedup: just the multi-core speedup curve (serial vs 2/4 OS-process
## ranks on the paper's 250x100 grid), printed to stdout
speedup:
	$(PY) -c "import benchmarks.bench_core as b; b.run_speedup()"

## perf-gate: compare fresh bench results against the committed baseline
perf-gate:
	$(PY) scripts/perf_gate.py

## gates: "two ranks beat one", "the compiled step is under 0.30 of the
## fused one" and "the half-width block is under 0.56 of the step" — one
## traced harness run of the 2-rank workload, then the ratio rows of
## scripts/perf_gate.py over its report (ratios measured inside one
## process: no baseline, no host calibration)
GATES_REPORT ?= benchmarks/output/GATES_p2_blocking.json
gates:
	$(PY) benchmarks/harness/run.py --workload jet250-p2-blocking \
		--seconds 3 --trace 1 --out $(GATES_REPORT) > /dev/null
	$(PY) scripts/perf_gate.py --harness-report $(GATES_REPORT)

## bless-baseline: accept the current bench results as the new baseline
bless-baseline:
	$(PY) scripts/perf_gate.py --update-baseline

## loc: tracked python line counts, the figure ROADMAP item 6 asks every PR
## to report (per directory, and src/repro/obs/ alone)
loc:
	@for d in src tests "benchmarks scripts" src/repro/obs; do \
		printf '%-20s %6d\n' "$$d" $$(git ls-files -- $$d | grep '\.py$$' | xargs cat | wc -l); \
	done
