# Convenience targets; everything assumes the in-tree layout (src/).
PY ?= python
export PYTHONPATH := src

.PHONY: check test test-all lattice artifacts stress bench gates speedup ab loc \
	ci ci-service ci-compiled ci-process ci-chaos

## check: tier-1 test suite (the pre-commit gate)
check:
	$(PY) -m pytest

## test: full test suite (`-m ""` lifts pyproject's `not slow`)
test:
	$(PY) -m pytest -x -m ""

## lattice: the whole equivalence lattice (tests/test_lattice.py), every
## admissible row of the product whose all-pairs cover tier-1 runs
lattice:
	$(PY) -m pytest tests/test_lattice.py -m slow

test-all: test

## artifacts: regenerate all 22 committed paper artifacts (Tables 1-2,
## Figures 1-13, the ablations, the workload cross-check, the paper-claims
## table; two of them run the real solver) into a throwaway store and
## byte-compare them with benchmarks/output — the determinism gate CI
## runs, ≈ 5 s on 2 vCPUs
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
## run (ratios measured inside one run: no baseline, no host calibration);
## both reports are git-ignored GATES_*.json files, so no tracked file moves
GATES_REPORT ?= benchmarks/output/GATES_p2_blocking.json
gates:
	$(PY) benchmarks/harness/run.py --workload jet250-p2-blocking \
		--seconds 3 --trace 1 --out $(GATES_REPORT) > /dev/null
	$(PY) benchmarks/bench_core.py --output benchmarks/output/GATES_core.json
	$(PY) scripts/perf_gate.py $(GATES_REPORT) \
		benchmarks/output/GATES_core.json

## ci: every entry of CI's matrix (.github/workflows/ci.yml runs each as
## `make <entry>`) in turn, each one's wall time printed; exits 1 naming the
## entries that failed
ci:
	@failed=; for t in check artifacts ci-service ci-compiled ci-process ci-chaos; do \
		t0=$$(date +%s); \
		$(MAKE) --no-print-directory $$t || failed="$$failed $$t"; \
		echo "== make $$t: $$(($$(date +%s) - t0)) s"; \
	done; \
	if [ -n "$$failed" ]; then echo "== failed:$$failed"; exit 1; fi

## ci-service: the worker-death tests five rounds over (a pool that a killed
## worker wedges fails them only now and then), then one traced service-mix
## harness run and the store's perf_gate.py rows over its report: a hit
## behind 300 stored results ≤ 1.5 × one on an empty store, refresh() ≤ 1 ms
ci-service:
	for round in 1 2 3 4 5; do \
		$(PY) -m pytest tests/test_service.py::TestFailures || exit 1; \
		$(PY) -m pytest tests/test_telemetry.py -k sigkilled || exit 1; \
	done
	$(PY) benchmarks/harness/run.py --workload service-mix \
		--seconds 3 --trace 1 --out benchmarks/output/GATES_service_mix.json > /dev/null
	$(PY) scripts/perf_gate.py benchmarks/output/GATES_service_mix.json

## ci-compiled: the backend ladder (Versions 1-6 step times at 250x100,
## written to the git-ignored benchmarks/output/GATES_kernels.json); its
## printout names the C engine, or records the compiled rung as
## "available": false
ci-compiled:
	$(PY) -m pytest -s benchmarks/bench_solver_kernels.py::test_backend_ladder

## ci-process: the transport race hunt, then every perf_gate.py row of
## `make gates`
ci-process: stress gates

## ci-chaos: the fault layer's tests and the equivalence lattice under the
## chaos seeds 11, 23 and 47, then under a freshly drawn one (printed:
## replay it with --chaos-seed=<seed>)
ci-chaos:
	for seed in 11 23 47 random; do \
		$(PY) -m pytest -s tests/test_faults.py tests/test_lattice.py \
			--chaos-seed=$$seed || exit 1; \
	done

## ab: alternating A/B pairs of harness workloads (AB_WORKLOAD, one or
## several), AB_REV (a git revision, default HEAD) against this checkout —
## one table per workload: per end-to-end metric the parent's median
## [quartiles] -> the change's median, "k of N" better
AB_REV ?= HEAD
AB_WORKLOAD ?= des-sweep
AB_PAIRS ?= 10
ab:
	$(PY) scripts/ab.py $(AB_REV) $(foreach w,$(AB_WORKLOAD),--workload $(w)) \
		--pairs $(AB_PAIRS)

## loc: tracked python line counts — the code size every change reports
## in CHANGES.md (per directory, and src/repro/obs/ and src/repro/service/
## alone)
loc:
	@for d in src tests "benchmarks scripts" src/repro/obs src/repro/service; do \
		printf '%-20s %6d\n' "$$d" $$(git ls-files -- $$d | grep '\.py$$' | xargs cat | wc -l); \
	done
