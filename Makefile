# Convenience targets; everything assumes the in-tree layout (src/).
PY ?= python
export PYTHONPATH := src

.PHONY: check test test-all lattice artifacts stress bench gates speedup loc

## check: tier-1 test suite (the pre-commit gate)
check:
	$(PY) -m pytest -q

## test: full test suite (`-m ""` lifts pyproject's `not slow`)
test:
	$(PY) -m pytest -x -q -m ""

## lattice: the whole equivalence lattice (tests/test_lattice.py), every
## admissible row of the product whose all-pairs cover tier-1 runs
lattice:
	$(PY) -m pytest -q tests/test_lattice.py -m slow

test-all: test

## artifacts: regenerate all 21 committed paper artifacts (Tables 1-2,
## Figures 1-13, the ablations, the workload cross-check; two of them run
## the real solver) into a throwaway store and byte-compare them with
## benchmarks/output — the determinism gate CI runs, ≈ 13 s
artifacts:
	$(PY) scripts/run_missing.py --check --workers 2

## stress: race hunt over the process transport — its own tests and the
## process rows of the equivalence lattice, STRESS_N (default 10) times each on one
## CPU beside a CPU hog, with _POLL / _SPIN / ring depth redrawn per run from
## a printed seed (STRESS_SEED replays; flight rings of a failure in .stress/)
stress:
	$(PY) tests/stress_transport.py

## bench: what the five harness workloads do not measure — the 1/2/4-rank
## speedup curve, V5 vs V6, the three process decompositions — written in
## the harness --out shape to benchmarks/output/BENCH_core.json
bench:
	$(PY) benchmarks/bench_core.py

## speedup: just the multi-core speedup curve (serial vs 2/4 OS-process
## ranks on the paper's 250x100 grid), printed to stdout
speedup:
	$(PY) -c "import benchmarks.bench_core as b; b.run_speedup()"

## gates: every row of scripts/perf_gate.py — "two ranks beat one", "the
## compiled step is under 0.30 of the fused one", "the half-width block is
## under 0.56 of the step", the 4-rank speedup, radial vs axial, V6 vs V5 —
## over one traced harness run of the 2-rank workload and one bench_core.py
## run (ratios measured inside one run: no baseline, no host calibration)
GATES_REPORT ?= benchmarks/output/GATES_p2_blocking.json
gates:
	$(PY) benchmarks/harness/run.py --workload jet250-p2-blocking \
		--seconds 3 --trace 1 --out $(GATES_REPORT) > /dev/null
	$(PY) benchmarks/bench_core.py
	$(PY) scripts/perf_gate.py $(GATES_REPORT) benchmarks/output/BENCH_core.json

## loc: tracked python line counts — the code size every change reports
## in CHANGES.md (per directory, and src/repro/obs/ and src/repro/service/
## alone)
loc:
	@for d in src tests "benchmarks scripts" src/repro/obs src/repro/service; do \
		printf '%-20s %6d\n' "$$d" $$(git ls-files -- $$d | grep '\.py$$' | xargs cat | wc -l); \
	done
