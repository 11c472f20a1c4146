"""Performance gate: ratios measured inside one run, no baseline.

Checks rows against the flat ``{name: value}`` metrics of the report files
named on the command line — each in the harness ``--out`` shape
(``workload``, ``result.metrics.<name>.value``, ``result.failed``,
``result.attempted``).  A report's ``workload`` picks the row group of
:data:`GROUPS` that reads it, and only the groups of the reports given
run:

* a traced ``benchmarks/harness/run.py --workload jet250-p2-blocking``
  report, read by the :data:`HARNESS_GATES` rows (``make gates``);
* ``benchmarks/output/BENCH_core.json`` from ``benchmarks/bench_core.py``
  (``workload`` ``bench_core``), read by the :data:`CORE_GATES` rows
  (``make gates``);
* a traced ``benchmarks/harness/run.py --workload service-mix`` report,
  read by the :data:`SERVICE_GATES` rows (``make ci-service``).

Every row compares numbers measured in the same run on the same host
(interleaved serial and 2-rank runs, ping-pong probes, the 1/2/4-rank
curve, V5 beside V6, a hit on a full store beside one on an empty store),
so the host's speed cancels and nothing is compared with another machine.
A row whose ``min_cores`` exceeds ``os.cpu_count()`` is printed as "not
enforced" and cannot fail: ranks that time-share a CPU cannot show the
speedup it asks for.  A metric a row reads that is missing from its report
fails the row.  The :data:`NOTES` are printed and never fail.

Usage::

    python scripts/perf_gate.py REPORT [REPORT ...]

Exit codes: 0 = every enforced row holds, 1 = a row failed (or a report
counts failed operations), 2 = a report is missing, not in that shape, or
of a ``workload`` no row group reads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: "Two ranks beat one", as rows over a traced harness
#: report's per-layer metrics: ``(what must hold, metric names read, test,
#: min_cores)``.  Two process ranks must step the paper's grid faster than
#: one, and a message between two processes must not cost more than one
#: between two threads — the sign that blocked receives are sleeping their
#: vCPU again.  And the compiled rung must stay a rung: the C kernels step
#: the grid in under 0.30 of the fused numpy step of the same process
#: (0.33–0.35 while four of their hot loops did not vectorize, ≈ 0.23 since
#: they all do).  And no per-step cost may ignore the block width (Amdahl's
#: serial fraction): the half-width block steps in under 0.56 of the full
#: step (0.60 while Python sequenced the kernels between 19 foreign calls).
HARNESS_GATES = [
    (
        "parallel.speedup.v5 >= 1.0",
        ("parallel.speedup.v5",),
        lambda speedup: speedup >= 1.0,
        2,
    ),
    (
        "msglib.process.oneway_us.6400B <= msglib.virtual.oneway_us.6400B",
        ("msglib.process.oneway_us.6400B", "msglib.virtual.oneway_us.6400B"),
        lambda process, virtual: process <= virtual,
        2,
    ),
    (
        "numerics.step_ms.compiled <= 0.30 * numerics.step_ms.fused",
        ("numerics.step_ms.compiled", "numerics.step_ms.fused"),
        lambda compiled, fused: compiled <= 0.30 * fused,
        1,
    ),
    (
        "numerics.block_step_ms.compiled <= 0.56 * numerics.step_ms.compiled",
        ("numerics.block_step_ms.compiled", "numerics.step_ms.compiled"),
        lambda block, full: block <= 0.56 * full,
        1,
    ),
]

#: The rows over ``BENCH_core.json``.  Four process ranks must beat the
#: serial solver on the paper's grid by x2 — where four cores exist.  Every
#: block grid steps the same serial kernels on its halo-extended block and
#: ships one halo per neighbour, so a radial split more than x2 the axial
#: step time at the same rank count means a decomposition-specific slow
#: path crept back in.  A posted receive (V6) can hide only the rank-local
#: ``dt`` estimate, one step in ten, so V6 is not promised a lower
#: communication time — only a step no more than 15 % over V5's, where the
#: ranks do not time-share a CPU.
CORE_GATES = [
    (
        "curve.speedup.p4 >= 2.0",
        ("curve.speedup.p4",),
        lambda speedup: speedup >= 2.0,
        4,
    ),
    (
        "step_ms.ns-p2-radial-fused <= 2.0 * step_ms.ns-p2-process-fused",
        ("step_ms.ns-p2-radial-fused", "step_ms.ns-p2-process-fused"),
        lambda radial, axial: radial <= 2.0 * axial,
        1,
    ),
    (
        "overlap.step_ms.v6 <= 1.15 * overlap.step_ms.v5",
        ("overlap.step_ms.v6", "overlap.step_ms.v5"),
        lambda v6, v5: v6 <= 1.15 * v5,
        4,
    ),
]

#: The store's gate over a traced ``service-mix`` report: a hit behind the
#: 300 stored results of its pre-filled store must cost no more than x1.5 a
#: hit on an empty store, and ``refresh()`` must not re-read the index.
SERVICE_GATES = [
    (
        "service.hit_growth <= 1.5",
        ("service.hit_growth",),
        lambda growth: growth <= 1.5,
        1,
    ),
    (
        "service.store_refresh_ms <= 1.0",
        ("service.store_refresh_ms",),
        lambda refresh: refresh <= 1.0,
        1,
    ),
]

#: Each row group, keyed by the ``workload`` of the report it reads.
GROUPS = {
    "jet250-p2-blocking": HARNESS_GATES,
    "bench_core": CORE_GATES,
    "service-mix": SERVICE_GATES,
}

GATES = [row for rows in GROUPS.values() for row in rows]

#: Printed beside the rows, never failing: ``(label, metric names, format)``
#: per group.  The DES line is the cost model's first known miss on this
#: program — the model predicts V6 hides all of V5's communication; nothing
#: else computes it.  The per-call cost of a kept service connection has no
#: runner-measured baseline yet, so it is printed, not bounded.
NOTES = {
    "bench_core": [
        (
            "2-D 2x2 vs axial p=2 step time (different rank counts)",
            ("step_ms.ns-p4-2d-fused", "step_ms.ns-p2-process-fused"),
            lambda two_d, axial: f"x{two_d / axial:.2f}",
        ),
        (
            "speedup curve, 250x100 compiled process ranks",
            ("curve.speedup.p1", "curve.speedup.p2", "curve.speedup.p4"),
            lambda *xs: ", ".join(
                f"p={p}: x{x:.2f}" for p, x in zip((1, 2, 4), xs)),
        ),
        (
            "V5 -> V6 comm reduction, DES-predicted (LACE) vs measured",
            ("overlap.comm_reduction.des", "overlap.comm_reduction.measured"),
            lambda des, measured:
                f"{des:+.0%} predicted, {measured:+.0%} measured",
        ),
    ],
    "service-mix": [
        (
            "per call over a kept connection",
            ("service.socket_rtt_ms", "service.hit_ms", "service.submit_ms.hit"),
            lambda rtt, hit, submit:
                f"rtt {rtt:.3f} ms, hit {hit:.3f} ms, submit {submit:.3f} ms",
        ),
    ],
}


def check(paths) -> int:
    """The row group of each report at ``paths``, over that report."""
    reports: dict = {}
    failures: list[str] = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            workload, result = doc["workload"], doc["result"]
            values = {k: v["value"] for k, v in result["metrics"].items()}
        except (OSError, KeyError, TypeError, json.JSONDecodeError) as exc:
            print(f"perf_gate: {path}: not a harness --out shaped report "
                  f"({exc!r})", file=sys.stderr)
            return 2
        if workload not in GROUPS:
            print(f"perf_gate: {path}: no row group reads workload "
                  f"{workload!r} (known: {', '.join(GROUPS)})", file=sys.stderr)
            return 2
        reports[workload] = values
        if result["failed"]:
            failures.append(
                f"{path}: {result['failed']}/{result['attempted']} operations failed"
            )
    cores = os.cpu_count() or 1
    for workload, values in reports.items():
        print(f"{workload}:")
        for what, names, holds, min_cores in GROUPS[workload]:
            missing = [n for n in names if n not in values]
            args = [values.get(n) for n in names]
            shown = ", ".join(
                f"{n}={v:.4g}" for n, v in zip(names, args) if v is not None
            )
            if min_cores > cores:
                print(f"  [    ] {what}  ({shown or 'absent'})  not enforced: "
                      f"{cores} core(s) < {min_cores}")
                continue
            if missing:
                failures.append(f"{what}: not in the {workload} report: {missing}")
                print(f"  [FAIL] {what}  (missing {missing})")
                continue
            ok = holds(*args)
            print(f"  [{'ok  ' if ok else 'FAIL'}] {what}  ({shown})")
            if not ok:
                failures.append(f"{what}: {shown}")
        for label, names, fmt in NOTES.get(workload, ()):
            if all(n in values for n in names):
                print(f"  note: {label}: {fmt(*(values[n] for n in names))}")
    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("perf gate passed.")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("reports", nargs="+", metavar="REPORT",
                    help="harness --out shaped report(s): a traced "
                         "jet250-p2-blocking or service-mix harness run, "
                         "BENCH_core.json")
    return check(ap.parse_args(argv).reports)


if __name__ == "__main__":
    raise SystemExit(main())
