#!/usr/bin/env python3
"""The repo benchmark: five named workloads, end-to-end metrics, and
per-layer probes taken from outside the program.

    python3 benchmarks/harness/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every
``end_to_end`` metric of ``BENCHMARK.json`` (``--trace 0``) or every
``per_layer`` metric (``--trace 1``).  Without ``--workload`` all five run
(each in its own process) and a table is printed; see README.md for
``--smoke``, ``--repeat-check`` and ``--out``.
"""

from __future__ import annotations

import time

_ENTRY = time.perf_counter()  # set-up time counts from here: imports included

import argparse
import json
import math
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HARNESS_DIR = Path(__file__).resolve().parent
REPO_ROOT = HARNESS_DIR.parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from isolation import Stalled, Watchdog, Workdir, leaks, provenance, shm_names
from stats import describe, median, quartile_spread

#: Set-ups per untraced run: this process's own plus fresh child processes
#: (a cold kernel build cannot be repeated inside one process) — at least
#: MIN, and for cheap set-ups more, until BUDGET seconds are spent or MAX.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET = 3, 7, 2.5
#: Share of ``--seconds`` a traced run gives the workload; the probes are
#: fixed-size and take the rest.
TRACED_SHARE = 0.35
#: Calibration drift beyond this marks the run ``noisy_host``.
NOISY = 0.10
#: Hard limit on one child process (the contract allows 180 s).
CHILD_TIMEOUT = 170.0
LAYERS = ("api", "numerics", "parallel", "msglib", "service", "simulate")


def load_spec() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true",
                    help="all-workload mode: add a --trace 1 run per workload")
    ap.add_argument("--out", help="write the full report (JSON) here")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload and probe at tiny sizes, all checks on")
    ap.add_argument("--repeat-check", type=int, metavar="K",
                    help="run the untraced suite K times (seeds seed..seed+K-1) "
                         "and compare each metric's spread with its bound")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args()


# -- one workload, in this process ------------------------------------------------


class Session:
    """Work directory, watchdog and context of one in-process run, torn
    down — and checked for leaks — however the run ends."""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.leaked: list[str] = []

    def __enter__(self):
        self._shm = shm_names()
        self.work = Workdir()
        self.dog = Watchdog()
        self.ctx = None
        try:
            from workloads import Context, Sizes  # numpy + repro: part of set-up

            sizes = Sizes.for_smoke() if self.smoke else Sizes()
            self.ctx = Context(self.seed, sizes, self.work, self.dog)
        except BaseException:
            self.__exit__(*sys.exc_info())
            raise
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.dog.enter("teardown", 30.0)
            if self.ctx is not None:
                self.ctx.close()
        finally:
            self.dog.stop()
            self.leaked = leaks(self._shm, self.work)
            self.work.close()
            for what in self.leaked:
                print(f"LEAK: {what}", file=sys.stderr)


def peak_rss_mb() -> float:
    """Largest resident set of this process plus that of its largest
    waited-for child (ru_maxrss is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def timed_setup(ses: "Session", w) -> tuple[float, float]:
    """Set up; returns seconds since process entry, restated at the
    reference host speed and raw.  The yardstick needs numpy, which the
    session has imported by now: its first samples fall inside set-up."""
    from yardstick import Yardstick

    yard = Yardstick(w.yard)
    for _ in range(3):
        yard.sample(force=True)
    ses.ctx.need(*w.needs)
    for _ in range(3):
        yard.sample(force=True)
    now = time.perf_counter()
    return (now - _ENTRY) * yard.scale(_ENTRY, now), now - _ENTRY


def child_setup(args) -> tuple[float, float]:
    """One more cold set-up, in a fresh process."""
    cmd = [
        sys.executable, str(HARNESS_DIR / "run.py"), "--setup-only",
        "--workload", args.workload[0], "--seed", str(args.seed),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr[-2000:]}")
    got = json.loads(proc.stdout.splitlines()[-1])
    return got["setup_s"], got["raw_s"]


def setup_only(args) -> int:
    from workloads import WORKLOADS

    with Session(args.seed) as ses:
        norm, raw = timed_setup(ses, WORKLOADS[args.workload[0]])
    print(json.dumps({"setup_s": norm, "raw_s": raw}))
    return 0


def run_untraced(args, spec: dict) -> tuple[dict, dict]:
    from probes import calibration_ms
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload[0]]
    began = time.perf_counter()
    with Session(args.seed) as ses:
        ctx = ses.ctx
        setups = [timed_setup(ses, w)]
        ses.dog.enter("setup:children", SETUP_MAX * CHILD_TIMEOUT)
        while len(setups) < SETUP_MIN or (
            len(setups) < SETUP_MAX and sum(raw for _, raw in setups) < SETUP_BUDGET
        ):
            setups.append(child_setup(args))
        cal = [calibration_ms()]
        w.warm_up(ctx)
        t0 = time.perf_counter()
        out = w.measure(ctx, args.seconds, None)
        timed = time.perf_counter() - t0
        cal.append(calibration_ms())
    for what in ses.leaked:
        out.fail(f"leak: {what}")
    out.attempted += 1  # the leak check itself
    metrics = {
        "setup_s": median(norm for norm, _ in setups),
        "op_ms": median(out.op_ms) if out.op_ms else math.nan,
        "throughput": median(out.rates) if out.rates else math.nan,
        "peak_rss_mb": peak_rss_mb(),
    }
    report = {
        "workload": w.name,
        "why": w.why,
        "trace": 0,
        "provenance": provenance(args.seed),
        "seconds": args.seconds,
        "wall_s": time.perf_counter() - began,
        "timed_s": timed,
        "n": {"setup_s": len(setups), "op_ms": len(out.op_ms),
              "throughput": len(out.rates), "peak_rss_mb": 1},
        "throughput_unit": f"{w.unit}/s",
        "setup_parts_s": ctx.parts,
        "setup_samples_s": setups,
        "setup_raw_s": median(raw for _, raw in setups),
        "detail": {k: describe(v) for k, v in out.detail.items() if v},
        "counts": out.counts,
        "calibration_ms": cal,
        "yardstick": out.yardstick,
        "noisy_host": abs(cal[1] / cal[0] - 1) > NOISY,
        "errors": out.errors[:20],
    }
    return finish(report, metrics, spec["end_to_end"], out.attempted, out.failed)


def run_traced(args, spec: dict) -> tuple[dict, dict]:
    import probes
    from spans import SpanLog
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload[0]]
    log = SpanLog()
    metrics: dict[str, float] = {}
    broken: list[str] = []
    began = time.perf_counter()
    with Session(args.seed) as ses:
        ctx = ses.ctx
        ctx.need(*w.needs)
        metrics["harness.calibration_ms.before"] = probes.calibration_ms()
        w.warm_up(ctx)
        out = w.measure(ctx, args.seconds * TRACED_SHARE, log)
        metrics.update(run_probes(ctx, log, broken))
        metrics["harness.calibration_ms.after"] = probes.calibration_ms()
    for what in ses.leaked:
        out.fail(f"leak: {what}")
    metrics.update(budget(log, ctx.sizes.jet_steps,
                          metrics.get("numerics.block_step_ms.compiled")))
    metrics["harness.probes_failed"] = len(broken)
    cal = (metrics["harness.calibration_ms.before"], metrics["harness.calibration_ms.after"])
    report = {
        "workload": w.name,
        "trace": 1,
        "provenance": provenance(args.seed),
        "seconds": args.seconds,
        "wall_s": time.perf_counter() - began,
        "noisy_host": abs(cal[1] / cal[0] - 1) > NOISY,
        "errors": (out.errors + broken)[:20],
        "spans": log.to_rows() if args.out else len(log.spans),
    }
    attempted = out.attempted + 1 + len(PROBES)
    return finish(report, metrics, spec["per_layer"], attempted, out.failed + len(broken))


PROBES = ("numerics", "msglib", "parallel", "service", "simulate", "obs")


def run_probes(ctx, log, broken: list[str]) -> dict[str, float]:
    """Every layer's probe.  A failing probe loses only its own metrics
    (reported absent, with the reason) and never the others."""
    import probes

    metrics: dict[str, float] = {}
    for name in PROBES:
        ctx.watchdog.enter(f"probe:{name}", CHILD_TIMEOUT)
        fn = getattr(probes, f"probe_{name}")
        try:
            if name == "parallel":
                block = metrics.get("numerics.block_step_ms.compiled")
                if block is None:
                    raise RuntimeError("needs numerics.block_step_ms.compiled")
                metrics.update(fn(ctx, log, block))
            else:
                metrics.update(fn(ctx, log))
        except Stalled:
            raise
        except Exception as exc:
            broken.append(f"probe {name}: {type(exc).__name__}: {exc}")
    metrics["msglib.probe_failed"] = int(any(b.startswith("probe msglib") for b in broken))
    return metrics


def budget(log, jet_steps: int, block_step_ms: float | None) -> dict[str, float]:
    """Where the traced reps' wall went, by layer.  The shares add up to
    100 %; ``harness`` (the reps' own self time: checks and loop glue) is
    the residual no program layer explains."""
    wall, layers = log.budget("harness.rep")
    reps = sum(1 for sp in log.spans if sp.parent is None and sp.name == "harness.rep")
    if not wall:
        return {}
    if "parallel" in layers and block_step_ms is not None:
        # derived: a rank loop outside msglib is kernels plus exchange
        # code; the kernels' part is the block-step probe times the steps.
        kernels = min(layers["parallel"], reps * jet_steps * block_step_ms / 1e3)
        layers["parallel"] -= kernels
        layers["numerics"] = layers.get("numerics", 0.0) + kernels
    residual = 100 * layers.get("harness", 0.0) / wall
    m = {
        "budget.op_ms": 1e3 * wall / reps,
        "budget.accounted_pct": 100 - residual,
        "budget.residual_pct": residual,
    }
    for layer in LAYERS:
        m[f"budget.share_pct.{layer}"] = 100 * layers.get(layer, 0.0) / wall
    m["harness.trace_overhead_pct"] = 100 * log.cost / wall
    return m


def finish(report, metrics, declared, attempted, failed) -> tuple[dict, dict]:
    """Shape the contract's result: exactly the declared metrics, every
    value a finite number; one that is missing reads -1 and counts as a
    failed operation."""
    shaped = {}
    for spec in declared:
        value = metrics.get(spec["name"])
        if value is None or not math.isfinite(value):
            print(f"ABSENT: {spec['name']}", file=sys.stderr)
            value, failed = -1.0, failed + 1
        shaped[spec["name"]] = {"value": value, "unit": spec["unit"]}
    result = {
        "correct": failed == 0,
        "attempted": max(int(attempted), int(failed), 1),
        "failed": int(failed),
        "metrics": shaped,
    }
    report["result"] = result
    return report, result


def print_report(report: dict, declared: list[dict]) -> None:
    res = report["result"]
    print(f"== {report['workload']}  trace={report['trace']}  "
          f"seed={report['provenance']['seed']}  wall={report['wall_s']:.1f}s  "
          f"attempted={res['attempted']} failed={res['failed']}"
          + ("  NOISY HOST" if report.get("noisy_host") else ""))
    n = report.get("n", {})
    for spec in declared:
        m = res["metrics"][spec["name"]]
        line = f"  {spec['name']:<44} {m['value']:>14.4f} {spec['unit']:<8} {spec['better']:<6}"
        if "bound" in spec:
            line += f" n={n.get(spec['name'], '-'):<6} bound={100 * spec['bound']:.0f}%"
        print(line)
    for name, d in report.get("detail", {}).items():
        extra = f"  p{d['tail_pct']:.0f}={d['tail']:.4f}" if "tail" in d else ""
        print(f"  . {name:<42} {d['median']:>14.4f} (median, n={d['n']}){extra}")
    for name, value in report.get("counts", {}).items():
        print(f"  . {name:<42} {value:>14.4f} (count)")
    for err in report.get("errors", []):
        print(f"  ! {err}")


def run_one(args, spec: dict) -> int:
    runner = run_traced if args.trace else run_untraced
    report, result = runner(args, spec)
    print_report(report, spec["per_layer" if args.trace else "end_to_end"])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    print(json.dumps(result))
    return 0


# -- smoke: everything once, tiny, in this process ----------------------------------


def smoke(args, spec: dict) -> int:
    from spans import SpanLog
    from workloads import WORKLOADS

    log, broken, failed = SpanLog(), [], 0
    began = time.perf_counter()
    with Session(args.seed, smoke=True) as ses:
        for w in WORKLOADS.values():
            ses.ctx.need(*w.needs)
            w.warm_up(ses.ctx)
            out = w.measure(ses.ctx, 1.0, log)
            print(f"{w.name:<20} attempted={out.attempted:<4} failed={out.failed:<3} "
                  f"op_ms={median(out.op_ms):.2f}")
            for err in out.errors:
                print(f"  ! {err}")
            failed += out.failed
        metrics = run_probes(ses.ctx, log, broken)
    declared = {m["name"] for m in spec["per_layer"]}
    missing = sorted(
        declared - set(metrics) - {k for k in declared if k.startswith(("budget.", "harness."))}
    )
    for line in broken + [f"metric never produced: {m}" for m in missing] + [
        f"leak: {x}" for x in ses.leaked
    ]:
        print(f"  ! {line}")
    failed += len(broken) + len(missing) + len(ses.leaked)
    print(f"smoke: {len(metrics)} per-layer metrics, {len(log.spans)} spans, "
          f"{failed} failures, {time.perf_counter() - began:.1f} s")
    return 1 if failed else 0


# -- several workloads, one process each ---------------------------------------------


def child_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One contract-mode run in its own process; returns its full report."""
    from isolation import WORK_ROOT

    WORK_ROOT.mkdir(exist_ok=True)
    # A directory of our own keeps WORK_ROOT alive while the child, done
    # with its run directory, tries to remove the empty root.
    outdir = Path(tempfile.mkdtemp(prefix="reports-", dir=WORK_ROOT))
    out = outdir / "report.json"
    cmd = [
        sys.executable, str(HARNESS_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--out", str(out),
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(
                f"{workload} (seed {seed}, trace {trace}) exited "
                f"{proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def run_all(args, spec: dict) -> int:
    names = args.workload or [w["name"] for w in spec["workloads"]]
    reports, failed = [], 0
    for name in names:
        for trace in (0, 1) if args.traced else (args.trace,):
            report = child_run(name, args.seed, args.seconds, trace)
            print_report(report, spec["per_layer" if trace else "end_to_end"])
            failed += report["result"]["failed"]
            reports.append(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(reports, fh, indent=1)
    print(f"failed_frac = {failed} / "
          f"{sum(r['result']['attempted'] for r in reports)}")
    return 1 if failed else 0


def repeat_check(args, spec: dict) -> int:
    """K untraced runs per workload, each with another seed; per metric the
    quartile spread over its median, against the metric's bound."""
    names = args.workload or [w["name"] for w in spec["workloads"]]
    k = args.repeat_check
    if k < 2:
        raise SystemExit("--repeat-check needs K >= 2")
    breaches = failed = 0
    summary = {}
    for name in names:
        reports = [child_run(name, args.seed + i, args.seconds, 0) for i in range(k)]
        runs = [r["result"] for r in reports]
        failed += sum(r["failed"] for r in runs)
        print(f"== {name}: {k} runs, seeds {args.seed}..{args.seed + k - 1}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            spread = quartile_spread(values)
            # set-up time is gated on its median only, never on its spread
            over = spread > m["bound"] and m["name"] != "setup_s"
            breaches += over
            summary.setdefault(name, {})[m["name"]] = {
                "median": median(values), "spread": spread, "values": values,
            }
            print(f"  {m['name']:<14} median={median(values):>12.4f} {m['unit']:<6} "
                  f"spread={100 * spread:6.2f}%  bound={100 * m['bound']:.0f}%"
                  + ("  BREACH" if over else ""))
        raw = [r["detail"]["op_ms.raw"]["median"] for r in reports if "op_ms.raw" in r["detail"]]
        if len(raw) == k:  # what the yardstick took out
            print(f"  {'op_ms.raw':<14} median={median(raw):>12.4f} ms     "
                  f"spread={100 * quartile_spread(raw):6.2f}%  (not gated)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    print(f"repeat-check: {breaches} breaches, {failed} failed operations")
    return 1 if breaches or failed else 0


def main() -> int:
    spec = load_spec()
    args = parse_args(spec)
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {REPO_ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args)
    if args.smoke:
        return smoke(args, spec)
    if args.repeat_check:
        return repeat_check(args, spec)
    if args.workload and len(args.workload) == 1 and not args.traced:
        return run_one(args, spec)
    return run_all(args, spec)


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)  # unwinds through every Session's teardown


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except Stalled as exc:
        print(f"STALLED: {exc}", file=sys.stderr)
        sys.exit(3)
