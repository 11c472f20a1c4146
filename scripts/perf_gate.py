"""Benchmark-regression gate over the core matrix.

Compares a fresh ``benchmarks/output/BENCH_core.json`` (written by
``benchmarks/bench_core.py``) against the committed baseline in
``benchmarks/baseline/BENCH_core.json`` and exits non-zero when any
case's step time regressed beyond its tolerance (default 15%).

Cross-machine noise is handled two ways:

* each results file carries ``calibration_ms`` — a fixed numpy workload
  timed at generation — and the gate scales the baseline's step times by
  the calibration ratio before comparing, so a baseline recorded on a
  faster machine doesn't fail every run on a slower one;
* each case carries its own relative tolerance (parallel cases allow
  more: rank threads are at the scheduler's mercy).

Usage::

    python scripts/perf_gate.py                      # compare, exit 0/1
    python scripts/perf_gate.py --update-baseline    # bless current results
    python scripts/perf_gate.py --summary gate.md    # also write a markdown table
    python scripts/perf_gate.py --harness-report R   # the harness rows (make gates)

``--harness-report`` reads the ``--out`` report of one traced
``benchmarks/harness/run.py --workload jet250-p2-blocking`` run and checks
the rows of :data:`HARNESS_GATES` — ratios measured inside one process
(interleaved serial / 2-rank runs, ping-pong probes), so the host's speed
cancels and no baseline is involved.

Exit codes: 0 = within tolerance, 1 = regression, 2 = missing/invalid input.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CURRENT = os.path.join(REPO, "benchmarks", "output", "BENCH_core.json")
BASELINE = os.path.join(REPO, "benchmarks", "baseline", "BENCH_core.json")
SCHEMA = "repro.bench-core/1"

#: Relative step-time regression allowed when a case doesn't pin its own.
DEFAULT_TOLERANCE = 0.15

#: MFLOPS may drop this much (normalized) before the gate *warns*; MFLOPS
#: never fails the gate on its own — it is derived from the same clock as
#: the step time, so a real regression always shows up there first.
MFLOPS_WARN_DROP = 0.20

#: Multi-core acceptance: with at least this many cores, the 4-rank
#: process-substrate run must beat serial by this factor.  On smaller
#: hosts the speedup curve is still required and reported, but the
#: threshold is informational (one core cannot show parallel speedup).
SPEEDUP_MIN_CORES = 4
SPEEDUP_REQUIRED = 2.0

#: Cross-decomposition parity: a non-axial process-substrate case must
#: stay within this factor of its axial reference at the same rank count.
#: Every block grid steps the same serial kernels on its halo-extended
#: block and ships the same one halo per neighbour, so a larger gap means
#: a decomposition-specific slow path crept back in.  Keys map a case id
#: to its axial reference; cases at rank counts with no axial
#: process-substrate peer (e.g. the 4-rank 2-D case) are reported as
#: notes only.
DECOMP_PARITY_FACTOR = 2.0
DECOMP_PARITY = {"ns-p2-radial-fused": "ns-p2-process-fused"}
DECOMP_NOTES = {"ns-p4-2d-fused": "ns-p2-process-fused"}


def check_decomposition_parity(current: dict) -> tuple[list[str], list[str]]:
    """Gate non-axial process cases against their axial reference."""
    failures: list[str] = []
    notes: list[str] = []
    cases = current.get("cases", {})

    def ratio_of(case_id, ref_id):
        cur, ref = cases.get(case_id), cases.get(ref_id)
        if cur is None or ref is None:
            return None  # compare() already reports missing cases
        return float(cur["ms_per_step"]) / float(ref["ms_per_step"])

    for case_id, ref_id in sorted(DECOMP_PARITY.items()):
        ratio = ratio_of(case_id, ref_id)
        if ratio is None:
            continue
        notes.append(
            f"decomposition parity: {case_id} runs x{ratio:.2f} the "
            f"step time of {ref_id}"
        )
        if ratio > DECOMP_PARITY_FACTOR:
            failures.append(
                f"{case_id}: x{ratio:.2f} the step time of its axial "
                f"reference {ref_id} (allowed x{DECOMP_PARITY_FACTOR:.1f})"
            )
    for case_id, ref_id in sorted(DECOMP_NOTES.items()):
        ratio = ratio_of(case_id, ref_id)
        if ratio is not None:
            notes.append(
                f"decomposition parity (informational, different rank "
                f"count): {case_id} runs x{ratio:.2f} the step time of "
                f"{ref_id}"
            )
    return failures, notes


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: schema {doc.get('schema')!r} != expected {SCHEMA!r}"
        )
    return doc


def compare(current: dict, baseline: dict) -> tuple[list[dict], list[str]]:
    """Per-case comparison rows + hard-failure messages.

    The baseline's step times are scaled by the machines' calibration
    ratio before the tolerance test.
    """
    cal_cur = float(current.get("calibration_ms") or 0.0)
    cal_base = float(baseline.get("calibration_ms") or 0.0)
    scale = (cal_cur / cal_base) if cal_cur > 0.0 and cal_base > 0.0 else 1.0
    rows: list[dict] = []
    failures: list[str] = []
    for case_id, base in sorted(baseline["cases"].items()):
        cur = current["cases"].get(case_id)
        if cur is None:
            failures.append(f"{case_id}: missing from current results")
            continue
        if cur.get("fingerprint") != base.get("fingerprint"):
            failures.append(
                f"{case_id}: config fingerprint changed "
                f"({base.get('fingerprint')} -> {cur.get('fingerprint')}); "
                "re-bless the baseline with --update-baseline"
            )
            continue
        tol = float(base.get("tolerance", DEFAULT_TOLERANCE))
        expected = float(base["ms_per_step"]) * scale
        measured = float(cur["ms_per_step"])
        ratio = measured / expected if expected > 0.0 else float("inf")
        ok = ratio <= 1.0 + tol
        warn = ""
        b_mf, c_mf = base.get("mflops"), cur.get("mflops")
        if b_mf and c_mf and c_mf < b_mf / scale * (1.0 - MFLOPS_WARN_DROP):
            warn = f"MFLOPS dropped {b_mf / scale:.1f} -> {c_mf:.1f}"
        rows.append(
            {
                "id": case_id,
                "expected_ms": expected,
                "measured_ms": measured,
                "ratio": ratio,
                "tolerance": tol,
                "mflops": c_mf,
                "ok": ok,
                "warn": warn,
            }
        )
        if not ok:
            failures.append(
                f"{case_id}: {measured:.2f} ms/step vs expected "
                f"{expected:.2f} (x{ratio:.2f}, tolerance +{tol:.0%})"
            )
    for case_id in sorted(set(current["cases"]) - set(baseline["cases"])):
        rows.append(
            {
                "id": case_id,
                "expected_ms": None,
                "measured_ms": float(current["cases"][case_id]["ms_per_step"]),
                "ratio": None,
                "tolerance": None,
                "mflops": current["cases"][case_id].get("mflops"),
                "ok": True,
                "warn": "new case (not in baseline)",
            }
        )
    return rows, failures


def check_speedup(current: dict) -> tuple[list[str], list[str]]:
    """Gate the multi-core speedup curve: (failures, notes).

    The curve must exist (bench_core.py always measures it).  The >= 2x
    at 4 ranks acceptance threshold only binds where the hardware can
    deliver it (``cpu_count >= SPEEDUP_MIN_CORES``); elsewhere the
    measured curve is reported as a note so single-core CI stays honest
    instead of vacuously green.
    """
    sp = current.get("speedup")
    if not sp or not sp.get("rows"):
        return (
            ["speedup: no multi-core speedup curve in current results; "
             "re-run benchmarks/bench_core.py (make bench)"],
            [],
        )
    cores = sp.get("cpu_count") or 0
    curve = ", ".join(
        f"p={r['nprocs']}: x{r['speedup']:.2f}" for r in sp["rows"]
    )
    notes = [
        f"speedup ({sp['grid'][0]}x{sp['grid'][1]}, {sp['steps']} steps, "
        f"{sp['backend']}, {cores} core(s)): {curve}"
    ]
    failures: list[str] = []
    if cores >= SPEEDUP_MIN_CORES:
        by_ranks = {r["nprocs"]: r for r in sp["rows"]}
        four = by_ranks.get(4)
        if four is None:
            failures.append("speedup: no 4-rank row in the speedup curve")
        elif four["speedup"] < SPEEDUP_REQUIRED:
            failures.append(
                f"speedup: x{four['speedup']:.2f} at 4 ranks on {cores} "
                f"cores (required >= x{SPEEDUP_REQUIRED:.1f})"
            )
    else:
        notes.append(
            f"speedup threshold not enforced: {cores} core(s) < "
            f"{SPEEDUP_MIN_CORES} (need parallel hardware to show speedup)"
        )
    return failures, notes


def check_overlap(current: dict) -> tuple[list[str], list[str]]:
    """Gate the blocking-vs-overlap comm comparison: (failures, notes).

    The section must exist (bench_core.py always measures it).  Since the
    one-halo-per-step exchange a posted receive can hide only the
    rank-local ``dt`` estimate, one step in ten, so a strictly lower
    communication time is no longer a promise: both modes' numbers are
    notes, and on hosts with real parallel hardware
    (``cpu_count >= SPEEDUP_MIN_CORES``) the overlapped step time must not
    regress past blocking's.
    """
    ov = current.get("overlap")
    if not ov or "real" not in ov:
        return (
            ["overlap: no blocking-vs-overlap comparison in current "
             "results; re-run benchmarks/bench_core.py (make bench)"],
            [],
        )
    real = ov["real"]
    blocking, overlap = real.get("blocking", {}), real.get("overlap", {})
    b_comm = float(blocking.get("comm_ms_per_step") or 0.0)
    o_comm = float(overlap.get("comm_ms_per_step") or 0.0)
    b_ms = float(blocking.get("ms_per_step") or 0.0)
    o_ms = float(overlap.get("ms_per_step") or 0.0)
    cores = ov.get("cpu_count") or 0
    notes = [
        f"overlap (p={ov.get('nprocs')}, {cores} core(s)): comm "
        f"{b_comm:.2f} -> {o_comm:.2f} ms/step, step "
        f"{b_ms:.2f} -> {o_ms:.2f} ms"
    ]
    des = ov.get("des") or {}
    if des.get("comm_reduction") is not None:
        red = real.get("comm_reduction")
        measured = f", measured {red:+.0%}" if red is not None else ""
        notes.append(
            f"overlap DES check ({des.get('platform')}): predicted comm "
            f"reduction {des['comm_reduction']:+.0%}{measured}"
        )
    failures: list[str] = []
    if cores >= SPEEDUP_MIN_CORES:
        if o_ms > b_ms * (1.0 + DEFAULT_TOLERANCE):
            failures.append(
                f"overlap: step time {o_ms:.2f} ms regressed past blocking's "
                f"{b_ms:.2f} (+{DEFAULT_TOLERANCE:.0%} allowed)"
            )
    else:
        notes.append(
            f"overlap threshold not enforced: {cores} core(s) < "
            f"{SPEEDUP_MIN_CORES} (ranks time-share the CPU)"
        )
    return failures, notes


#: "Two ranks beat one" (ROADMAP item 2), as rows over a traced harness
#: report's per-layer metrics: ``(what must hold, metric names read, test)``.
#: Two process ranks must step the paper's grid faster than one, and a
#: message between two processes must not cost more than one between two
#: threads — the sign that blocked receives are sleeping their vCPU again.
#: And the compiled rung must stay a rung: the C kernels step the grid in
#: under 0.30 of the fused numpy step of the same process (0.33–0.35 while
#: four of their hot loops did not vectorize, ≈ 0.23 since they all do).
HARNESS_GATES = [
    (
        "parallel.speedup.v5 >= 1.0",
        ("parallel.speedup.v5",),
        lambda speedup: speedup >= 1.0,
    ),
    (
        "msglib.process.oneway_us.6400B <= msglib.virtual.oneway_us.6400B",
        ("msglib.process.oneway_us.6400B", "msglib.virtual.oneway_us.6400B"),
        lambda process, virtual: process <= virtual,
    ),
    (
        "numerics.step_ms.compiled <= 0.30 * numerics.step_ms.fused",
        ("numerics.step_ms.compiled", "numerics.step_ms.fused"),
        lambda compiled, fused: compiled <= 0.30 * fused,
    ),
]


def check_harness_report(path: str) -> int:
    """The :data:`HARNESS_GATES` rows over one harness ``--out`` report."""
    try:
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)["result"]
        values = {k: v["value"] for k, v in result["metrics"].items()}
    except (OSError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"perf_gate: {path}: not a harness --out report ({exc!r})",
              file=sys.stderr)
        return 2
    failures = []
    if result["failed"]:
        failures.append(f"{result['failed']}/{result['attempted']} operations failed")
    for what, names, holds in HARNESS_GATES:
        missing = [n for n in names if n not in values]
        if missing:
            failures.append(f"{what}: not in the report (needs --trace 1): {missing}")
            continue
        args = [values[n] for n in names]
        ok = holds(*args)
        shown = ", ".join(f"{n}={v:.2f}" for n, v in zip(names, args))
        print(f"  [{'ok  ' if ok else 'FAIL'}] {what}  ({shown})")
        if not ok:
            failures.append(f"{what}: {shown}")
    if (os.cpu_count() or 1) < 2:
        print("harness gates not enforced: one CPU — two ranks cannot beat one here")
        return 0
    if failures:
        print("\nharness gates FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("harness gates passed.")
    return 0


def render_text(rows: list[dict], scale_note: str) -> str:
    lines = [f"perf gate ({scale_note})"]
    for r in rows:
        status = "ok  " if r["ok"] else "FAIL"
        exp = f"{r['expected_ms']:.2f}" if r["expected_ms"] is not None else "-"
        ratio = f"x{r['ratio']:.2f}" if r["ratio"] is not None else "-"
        mflops = f"{r['mflops']:.1f}" if r["mflops"] else "-"
        line = (
            f"  [{status}] {r['id']:22s} {r['measured_ms']:8.2f} ms/step "
            f"(expected {exp:>8s}, {ratio:>6s})  MFLOPS={mflops:>8s}"
        )
        if r["warn"]:
            line += f"  ! {r['warn']}"
        lines.append(line)
    return "\n".join(lines)


def render_markdown(rows: list[dict], scale_note: str) -> str:
    lines = [
        f"### Core benchmark gate ({scale_note})",
        "",
        "| case | measured ms/step | expected | ratio | MFLOPS | status |",
        "|---|---|---|---|---|---|",
    ]
    for r in rows:
        exp = f"{r['expected_ms']:.2f}" if r["expected_ms"] is not None else "-"
        ratio = f"{r['ratio']:.2f}" if r["ratio"] is not None else "-"
        mflops = f"{r['mflops']:.1f}" if r["mflops"] else "-"
        status = "✅" if r["ok"] else "❌"
        if r["warn"]:
            status += f" ({r['warn']})"
        lines.append(
            f"| {r['id']} | {r['measured_ms']:.2f} | {exp} | {ratio} "
            f"| {mflops} | {status} |"
        )
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--current", default=CURRENT)
    ap.add_argument("--baseline", default=BASELINE)
    ap.add_argument(
        "--update-baseline", action="store_true",
        help="copy the current results over the committed baseline",
    )
    ap.add_argument(
        "--summary", default=None,
        help="also write a markdown summary table to this path",
    )
    ap.add_argument(
        "--harness-report", default=None, metavar="REPORT",
        help="check the HARNESS_GATES rows over a traced harness --out "
             "report instead of the core matrix",
    )
    args = ap.parse_args(argv)
    if args.harness_report:
        return check_harness_report(args.harness_report)
    if not os.path.exists(args.current):
        print(
            f"perf_gate: no current results at {args.current}; run "
            "benchmarks/bench_core.py (make bench) first", file=sys.stderr,
        )
        return 2
    try:
        current = load(args.current)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"perf_gate: {exc}", file=sys.stderr)
        return 2
    if args.update_baseline:
        os.makedirs(os.path.dirname(args.baseline), exist_ok=True)
        shutil.copyfile(args.current, args.baseline)
        print(f"baseline updated: {args.baseline}")
        return 0
    if not os.path.exists(args.baseline):
        print(
            f"perf_gate: no baseline at {args.baseline}; bless one with "
            "--update-baseline", file=sys.stderr,
        )
        return 2
    try:
        baseline = load(args.baseline)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"perf_gate: {exc}", file=sys.stderr)
        return 2
    rows, failures = compare(current, baseline)
    speedup_failures, speedup_notes = check_speedup(current)
    failures.extend(speedup_failures)
    parity_failures, parity_notes = check_decomposition_parity(current)
    failures.extend(parity_failures)
    speedup_notes.extend(parity_notes)
    overlap_failures, overlap_notes = check_overlap(current)
    failures.extend(overlap_failures)
    speedup_notes.extend(overlap_notes)
    cal_cur = current.get("calibration_ms") or 0.0
    cal_base = baseline.get("calibration_ms") or 0.0
    scale_note = (
        f"calibration {cal_cur:.2f} ms vs baseline {cal_base:.2f} ms"
        if cal_cur and cal_base
        else "no calibration normalization"
    )
    print(render_text(rows, scale_note))
    for note in speedup_notes:
        print(f"  {note}")
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            fh.write(render_markdown(rows, scale_note))
            if speedup_notes:
                fh.write("\n")
                for note in speedup_notes:
                    fh.write(f"- {note}\n")
    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("perf gate passed.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
