"""Pinned core benchmark matrix feeding the performance-regression gate.

Not a pytest benchmark: this is a plain script (``make bench``) that runs a
small fixed matrix of solver configurations through the
:func:`repro.api.run` facade with metrics enabled, records the best-of-N
step time per case alongside a machine *calibration* measurement (a fixed
numpy workload, so baselines transfer across machines), and writes

* ``benchmarks/output/BENCH_core.json`` — the matrix results
  ``scripts/perf_gate.py`` compares against the committed baseline in
  ``benchmarks/baseline/BENCH_core.json``;
* one :class:`~repro.obs.PerfReport` ledger line per case appended to
  ``benchmarks/output/BENCH_runs.jsonl``.

The matrix is deliberately tiny (seconds, not minutes): small grids, few
steps, serial + fused + a 4-rank virtual-cluster case for both Euler and
Navier-Stokes, plus process-substrate cases for all three decompositions
(axial, radial, 2-D Cartesian — all fused, all bitwise-equal), so the
gate exercises every hot seam the metrics layer instruments without
making CI slow.  One case is full size: the paper's 250 x 100 grid on two
compiled process ranks, the configuration the multi-core work targets.
A separate speedup curve (serial vs 2/4 OS-process ranks on the paper's
full 250 x 100 grid) is measured once per run and stored under
``"speedup"`` — the repo's real multi-core numbers.  A blocking-vs-overlap
communication comparison (the paper's Version 5 -> Version 6 transition,
measured on the process substrate and predicted by the DES on the LACE)
is stored under ``"overlap"``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

SCHEMA = "repro.bench-core/1"

#: The pinned matrix.  ``tolerance`` is the per-case relative step-time
#: regression the gate allows (parallel cases breathe more: thread
#: scheduling noise).  Do not edit casually — baselines key off ``id``.
MATRIX = (
    {
        "id": "ns-serial-baseline",
        "scenario": "jet",
        "kw": {"nx": 64, "nr": 32},
        "steps": 20,
        "nprocs": 1,
        "backend": "baseline",
        "tolerance": 0.15,
    },
    {
        "id": "ns-serial-fused",
        "scenario": "jet",
        "kw": {"nx": 64, "nr": 32},
        "steps": 20,
        "nprocs": 1,
        "backend": "fused",
        "tolerance": 0.15,
    },
    {
        # Compiled ("V6") rung: on hosts with no engine this silently
        # benchmarks the fused fallback — the regression gate's
        # calibration normalization keeps that honest because the
        # committed baseline records which engine produced it.
        "id": "ns-serial-compiled",
        "scenario": "jet",
        "kw": {"nx": 64, "nr": 32},
        "steps": 20,
        "nprocs": 1,
        "backend": "compiled",
        "tolerance": 0.20,
    },
    {
        "id": "euler-serial-fused",
        "scenario": "jet-euler",
        "kw": {"nx": 64, "nr": 32},
        "steps": 20,
        "nprocs": 1,
        "backend": "fused",
        "tolerance": 0.15,
    },
    {
        "id": "ns-p4-fused",
        "scenario": "jet",
        "kw": {"nx": 64, "nr": 32},
        "steps": 20,
        "nprocs": 4,
        "backend": "fused",
        "tolerance": 0.25,
    },
    {
        "id": "euler-p4-fused",
        "scenario": "jet-euler",
        "kw": {"nx": 64, "nr": 32},
        "steps": 20,
        "nprocs": 4,
        "backend": "fused",
        "tolerance": 0.25,
    },
    {
        "id": "ns-p2-process-fused",
        "scenario": "jet",
        "kw": {"nx": 64, "nr": 32},
        "steps": 20,
        "nprocs": 2,
        "backend": "fused",
        "substrate": "process",
        "tolerance": 0.35,
    },
    {
        # The paper's grid split over two OS processes on the compiled
        # kernels — the configuration the benchmark harness's
        # jet250-p2-blocking workload times.  Per-rank busy time here is
        # the serial C step on the halo-extended block, so a fallback to
        # numpy (or a slower descriptor pipe) shows as a regression.
        "id": "ns-p2-process-compiled",
        "scenario": "jet",
        "kw": {"nx": 250, "nr": 100},
        "steps": 100,
        "nprocs": 2,
        "backend": "compiled",
        "substrate": "process",
        "tolerance": 0.35,
    },
    {
        "id": "ns-p2-radial-fused",
        "scenario": "jet",
        "kw": {"nx": 64, "nr": 32},
        "steps": 20,
        "nprocs": 2,
        "backend": "fused",
        "substrate": "process",
        "decomposition": "radial",
        "tolerance": 0.35,
    },
    {
        # ns-p2-process-fused on paper Version 6: identical physics
        # (results are bitwise-equal), one grouped halo message whose
        # receive is posted.  The "overlap" section of the output compares
        # Versions 5 and 6's communication time head to head.
        "id": "ns-p2-overlap-fused",
        "scenario": "jet",
        "kw": {"nx": 64, "nr": 32},
        "steps": 20,
        "nprocs": 2,
        "backend": "fused",
        "substrate": "process",
        "version": 6,
        "tolerance": 0.35,
    },
    {
        "id": "ns-p4-2d-fused",
        "scenario": "jet",
        "kw": {"nx": 64, "nr": 32},
        "steps": 20,
        "nprocs": 4,
        "backend": "fused",
        "substrate": "process",
        "decomposition": "2d",
        "px": 2,
        "pr": 2,
        "tolerance": 0.40,
    },
)

#: The multi-core speedup measurement (the paper's Table 2 analogue):
#: serial vs the process substrate at 2 and 4 ranks on the paper's full
#: 250 x 100 jet grid, on the ``compiled`` backend — the product, and the
#: fast serial step a slower backend would flatter the ratio against.
#: ``scripts/perf_gate.py`` requires this section and — on hosts with
#: >= 4 cores — a >= 2x speedup at 4 ranks.
SPEEDUP = {
    "scenario": "jet",
    "kw": {"nx": 250, "nr": 100},
    "steps": 200,
    "backend": "compiled",
    "substrate": "process",
    "ranks": (1, 2, 4),
}


def calibration_ms(repeats: int = 5) -> float:
    """Best-of-N milliseconds for a fixed numpy workload.

    Stored with every BENCH_core.json so the gate can normalize a baseline
    recorded on one machine against results from another: the ratio of
    calibrations approximates the ratio of solver step times.
    """
    import numpy as np

    best = float("inf")
    a = np.linspace(0.0, 1.0, 200_000)
    m = np.linspace(0.0, 1.0, 160_000).reshape(400, 400)
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(5):
            b = np.sqrt(a * a + 1.0)
            c = np.cumsum(b)
            d = m @ m
            float(c[-1] + d[0, 0])
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def run_case(case: dict, repeats: int, ledger_path: str | None):
    """Best-of-``repeats`` metrics run of one matrix case."""
    from repro.api import run

    best = None
    for _ in range(repeats):
        res = run(
            case["scenario"],
            steps=case["steps"],
            nprocs=case["nprocs"],
            backend=case["backend"],
            substrate=case.get("substrate", "virtual"),
            decomposition=case.get("decomposition", "axial"),
            px=case.get("px"),
            pr=case.get("pr"),
            version=case.get("version", 7),
            metrics=True,
            **case["kw"],
        )
        if best is None or res.perf.ms_per_step < best.perf.ms_per_step:
            best = res
    if ledger_path:
        from repro.obs import append_ledger

        append_ledger(best.perf, ledger_path)
    return best.perf


def run_speedup(repeats: int = 1, quick: bool = False) -> dict:
    """Measure the wall-clock speedup curve of the process substrate.

    Rank 1 is the serial solver (the honest baseline — no cluster
    overhead at all); ranks 2 and 4 run on real OS processes.  The host
    core count is recorded with the curve: on a single-core machine the
    "speedup" is genuinely < 1 (IPC cost, no parallel hardware), and the
    gate only enforces >= 2x at 4 ranks when >= 4 cores exist.
    """
    from repro.api import run

    steps = max(SPEEDUP["steps"] // 10, 2) if quick else SPEEDUP["steps"]
    rows = []
    serial_ms = None
    for nprocs in SPEEDUP["ranks"]:
        best_ms = None
        for _ in range(repeats):
            res = run(
                SPEEDUP["scenario"],
                steps=steps,
                nprocs=nprocs,
                backend=SPEEDUP["backend"],
                substrate=SPEEDUP["substrate"] if nprocs > 1 else "virtual",
                **SPEEDUP["kw"],
            )
            ms = res.timings.ms_per_step
            if best_ms is None or ms < best_ms:
                best_ms = ms
        if serial_ms is None:
            serial_ms = best_ms
        rows.append({
            "nprocs": nprocs,
            "ms_per_step": best_ms,
            "speedup": serial_ms / best_ms,
        })
        print(
            f"  speedup p={nprocs}          {best_ms:8.2f} ms/step  "
            f"x{serial_ms / best_ms:.2f}",
            flush=True,
        )
    return {
        "scenario": SPEEDUP["scenario"],
        "grid": [SPEEDUP["kw"]["nx"], SPEEDUP["kw"]["nr"]],
        "steps": steps,
        "backend": SPEEDUP["backend"],
        "substrate": SPEEDUP["substrate"],
        "cpu_count": os.cpu_count(),
        "rows": rows,
    }


#: The blocking-vs-overlap communication measurement: the same 2-rank
#: process-substrate run executed with the halo receive blocked on
#: (Version 5) and with it posted (Version 6: post / rank-local dt
#: estimate / finish).  Results are bitwise-identical; the point of the
#: section is the *communication time* — under overlap only the residual
#: ``finish()`` wait counts, so
#: ``comm_ms_per_step`` is the paper's non-overlapped communication
#: component.  ``scripts/perf_gate.py`` reports both and, on hosts with
#: real parallel hardware, requires overlap's step time not to regress.
OVERLAP = {
    "scenario": "jet",
    "kw": {"nx": 96, "nr": 48},
    "steps": 40,
    "nprocs": 2,
    "backend": "fused",
    "substrate": "process",
}


def _comm_ms_per_step(perf) -> float:
    """Mean per-rank communication milliseconds per step of one run."""
    rows = perf.per_rank or []
    if not rows:
        return 0.0
    comm = sum(r.get("comm_seconds", 0.0) for r in rows) / len(rows)
    return 1e3 * comm / perf.steps


def run_overlap_comparison(repeats: int = 3, quick: bool = False) -> dict:
    """Blocking vs overlapped exchange, measured and DES-predicted.

    The real half runs the :data:`OVERLAP` configuration as Version 5 and
    as Version 6 (bitwise-equal results) and reports each mode's step time
    and non-overlapped communication time.  The DES half simulates the
    same Version 5 -> Version 6 transition on the paper's LACE/560 —
    the model this measurement validates — so the JSON carries the
    predicted and measured comm-time reductions side by side.
    """
    from repro.api import run
    from repro.machines import LACE_560
    from repro.simulate import NAVIER_STOKES, SimulatedMachine

    steps = max(OVERLAP["steps"] // 4, 4) if quick else OVERLAP["steps"]
    modes = {}
    for label, version in (("blocking", 5), ("overlap", 6)):
        best = None
        for _ in range(repeats):
            res = run(
                OVERLAP["scenario"],
                steps=steps,
                nprocs=OVERLAP["nprocs"],
                backend=OVERLAP["backend"],
                substrate=OVERLAP["substrate"],
                version=version,
                metrics=True,
                **OVERLAP["kw"],
            )
            if best is None or res.perf.ms_per_step < best.perf.ms_per_step:
                best = res
        modes[label] = {
            "ms_per_step": best.perf.ms_per_step,
            "comm_ms_per_step": _comm_ms_per_step(best.perf),
        }
        print(
            f"  overlap[{label}]       {modes[label]['ms_per_step']:8.2f} "
            f"ms/step  comm={modes[label]['comm_ms_per_step']:6.2f} ms/step",
            flush=True,
        )
    b, o = modes["blocking"]["comm_ms_per_step"], modes["overlap"]["comm_ms_per_step"]
    real_reduction = (1.0 - o / b) if b > 0.0 else None

    des = {}
    for vnum in (5, 6):
        sim = SimulatedMachine(LACE_560, OVERLAP["nprocs"], version=vnum).run(
            NAVIER_STOKES, steps_window=40
        )
        des[f"v{vnum}_comm_s_per_step"] = sim.comm_time / sim.total_steps
    des_b = des["v5_comm_s_per_step"]
    des_reduction = (
        (1.0 - des["v6_comm_s_per_step"] / des_b) if des_b > 0.0 else None
    )
    return {
        "scenario": OVERLAP["scenario"],
        "grid": [OVERLAP["kw"]["nx"], OVERLAP["kw"]["nr"]],
        "steps": steps,
        "nprocs": OVERLAP["nprocs"],
        "backend": OVERLAP["backend"],
        "substrate": OVERLAP["substrate"],
        "cpu_count": os.cpu_count(),
        "real": {**modes, "comm_reduction": real_reduction},
        "des": {
            "platform": LACE_560.name,
            "app": NAVIER_STOKES.name,
            "nprocs": OVERLAP["nprocs"],
            **des,
            "comm_reduction": des_reduction,
        },
    }


def run_matrix(
    repeats: int = 3, ledger_path: str | None = None, quick: bool = False
) -> dict:
    cases = {}
    for case in MATRIX:
        spec = dict(case)
        if quick:
            spec["steps"] = max(spec["steps"] // 4, 2)
        perf = run_case(spec, repeats, ledger_path)
        engine = None
        if case["backend"] == "compiled":
            from repro.numerics.kernels import get_backend

            be = get_backend("compiled")
            engine = be.ops().engine if be.available() else "fused-fallback"
        cases[case["id"]] = {
            "ms_per_step": perf.ms_per_step,
            "mflops": perf.mflops_total,
            "comp_comm_ratio": perf.comp_comm_ratio,
            "fingerprint": perf.fingerprint,
            "tolerance": case["tolerance"],
            "config": {
                "scenario": case["scenario"],
                "steps": spec["steps"],
                "nprocs": case["nprocs"],
                "backend": case["backend"],
                "substrate": case.get("substrate", "virtual"),
                "decomposition": case.get("decomposition", "axial"),
                **case["kw"],
                **({"engine": engine} if engine is not None else {}),
            },
        }
        print(
            f"  {case['id']:22s} {perf.ms_per_step:8.2f} ms/step  "
            f"MFLOPS={perf.mflops_total:7.1f}",
            flush=True,
        )
    return {
        "schema": SCHEMA,
        "calibration_ms": calibration_ms(),
        "repeats": repeats,
        "cases": cases,
        "speedup": run_speedup(quick=quick),
        "overlap": run_overlap_comparison(quick=quick),
    }


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--output",
        default=os.path.join(here, "output", "BENCH_core.json"),
        help="where to write the matrix results JSON",
    )
    ap.add_argument(
        "--ledger",
        default=os.path.join(here, "output", "BENCH_runs.jsonl"),
        help="PerfReport ledger to append to ('' disables)",
    )
    ap.add_argument("--repeats", type=int, default=3, help="best-of-N runs")
    ap.add_argument(
        "--quick", action="store_true",
        help="quarter-length steps (smoke-testing the harness itself)",
    )
    args = ap.parse_args(argv)
    print(f"core benchmark matrix ({len(MATRIX)} cases, best of {args.repeats}):")
    doc = run_matrix(
        repeats=args.repeats,
        ledger_path=args.ledger or None,
        quick=args.quick,
    )
    os.makedirs(os.path.dirname(args.output), exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"calibration: {doc['calibration_ms']:.2f} ms")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    )
    raise SystemExit(main())
