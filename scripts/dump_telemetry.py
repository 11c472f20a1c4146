#!/usr/bin/env python3
"""Collect post-mortem telemetry into one directory (CI failure triage).

When the chaos or process CI job goes red, this script gathers everything
the telemetry plane knows into ``--out`` (default ``ci-debug/``) for the
``upload-artifact`` step:

1. **Existing flight files** — any ``*.flight.jsonl`` / ``*.flight.ring``
   post-mortems the failed tests left in the service store or a directory
   passed via ``--scan``.
2. **A deterministic chaos reproduction** — one crash-preset run on the
   process substrate with the flight recorder and step streaming enabled;
   its flight post-mortem (``chaos_repro.flight.jsonl``) shows what every
   rank was doing when the injected crash hit, and the last ``--last``
   step records of its step ring land in ``stream_tail.jsonl`` (the ring
   is a file every rank writes, so the records survive the crash).

Everything is best-effort: a triage helper must never turn a red job into
a hang or mask the original failure, so each stage reports and continues.

Usage::

    PYTHONPATH=src python scripts/dump_telemetry.py --out ci-debug
    PYTHONPATH=src python -m repro report ci-debug/chaos_repro.flight.jsonl
"""

import argparse
import glob
import json
import os
import shutil
import sys


def _copy_existing(out: str, scan_dirs: list[str]) -> list[str]:
    """Copy flight post-mortems the failed run already left behind."""
    copied = []
    for d in scan_dirs:
        for pattern in ("*.flight.jsonl", "*.flight.ring"):
            for path in sorted(glob.glob(os.path.join(d, pattern))):
                try:
                    shutil.copy(path, out)
                except OSError as exc:
                    print(f"  skip {path}: {exc}")
                    continue
                copied.append(path)
    return copied


def _chaos_repro(out: str, steps: int, last: int) -> None:
    """One deterministic crash run with flight + streaming captured."""
    from repro.api import run
    from repro.msglib.virtual import RankFailure
    from repro.obs import FlightRing, read_steps, write_flight_jsonl
    from repro.obs.stream import STEP_DEPTH, STEP_SLOT_BYTES

    stream = FlightRing.create(
        nranks=2, capacity=STEP_DEPTH, slot_bytes=STEP_SLOT_BYTES
    )
    flight = None
    outcome = "completed cleanly (crash preset did not fire in window)"
    try:
        res = run(
            "sod",
            steps=steps,
            nprocs=2,
            substrate="process",
            faults="crash-rank1",
            fault_seed=7,
            max_restarts=0,
            flight=True,
            stream=stream,
        )
        flight = res.flight
    except RankFailure as failure:
        outcome = (
            f"RankFailure on rank {failure.rank} "
            f"(last_good_step={getattr(failure, 'last_good_step', '?')})"
        )
        flight = getattr(failure, "flight", None)
    except Exception as exc:  # triage helper: report, never crash
        outcome = f"unexpected {type(exc).__name__}: {exc}"
    finally:  # the ranks wrote the ring up to the crash
        records = read_steps(stream)
        stream.close()
    print(f"  chaos repro: {outcome}")
    if flight:
        path = os.path.join(out, "chaos_repro.flight.jsonl")
        write_flight_jsonl(flight, path)
        total = sum(len(v) for v in flight.values())
        print(f"  flight post-mortem: {path} "
              f"({len(flight)} rank(s), {total} events)")
    tail = records[-last:]
    path = os.path.join(out, "stream_tail.jsonl")
    with open(path, "w") as fh:
        for rec in tail:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"  stream tail: {path} (last {len(tail)} of "
          f"{len(records)} records)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="ci-debug",
                    help="artifact directory (default ci-debug)")
    ap.add_argument("--last", type=int, default=50,
                    help="streamed step records to keep (default 50)")
    ap.add_argument("--steps", type=int, default=60,
                    help="steps of the chaos reproduction run")
    ap.add_argument("--scan", action="append", default=[],
                    help="extra directories to scan for *.flight.* files")
    args = ap.parse_args(argv)

    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
    )
    os.makedirs(args.out, exist_ok=True)

    scan = list(args.scan)
    try:
        from repro.config import default_service_dir

        scan.append(str(default_service_dir() / "results"))
    except Exception as exc:
        print(f"service store not resolvable: {exc}")
    print(f"scanning for existing flight files: {scan}")
    copied = _copy_existing(args.out, scan)
    for path in copied:
        print(f"  copied {path}")
    if not copied:
        print("  none found")

    print("running deterministic chaos reproduction (process substrate):")
    _chaos_repro(args.out, args.steps, args.last)

    print(f"telemetry dump complete: {sorted(os.listdir(args.out))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
