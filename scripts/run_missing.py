#!/usr/bin/env python
"""Batch driver: regenerate missing paper artifacts via the run service.

Every committed ``benchmarks/output/<slug>.txt`` — Tables 1-2, Figures
1-13, the Section-8 ablations, the workload cross-check and the
paper-claims table — is one entry of :data:`repro.experiments.ARTIFACTS`
(header, experiment id, literal kwargs).  This script runs those entries' experiments through a
:class:`repro.service.RunService` worker pool over a throwaway result
store, so every artifact is rendered afresh rather than served from an
earlier render.

Modes
-----
default
    Regenerate every artifact missing from ``benchmarks/output``.  To
    refresh a stale artifact, delete it and run this.
``--check``
    Regenerate *all* artifacts and byte-compare them with the committed
    files.  Exit 1 on any drift or missing artifact — CI's determinism
    gate for the committed outputs.
``--list``
    Print the table and exit.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OUTPUT_DIR = REPO / "benchmarks" / "output"

sys.path.insert(0, str(REPO / "src"))

from repro.experiments import ARTIFACTS  # noqa: E402


def _path(a) -> Path:
    return OUTPUT_DIR / f"{a.slug}.txt"


def regenerate(artifacts, workers: int) -> dict:
    """Run each artifact's experiment through the service; return
    {slug: rendered artifact text}."""
    from repro.service import ExperimentRequest, ResultStore, RunService

    rendered: dict[str, str] = {}
    with (
        tempfile.TemporaryDirectory(prefix="repro-artifacts-") as tmp,
        RunService(workers=workers, store=ResultStore(tmp), ledger=False) as svc,
    ):
        jobs = [
            (a, svc.submit(ExperimentRequest(a.experiment, a.kw)))
            for a in artifacts
        ]
        for a, job in jobs:
            done = svc.wait(job.id, timeout=1800)
            if not done.terminal or done.status == "failed":
                raise RuntimeError(
                    f"{a.slug}: {a.experiment} {done.status}"
                    + (f" — {done.error}" if done.error else "")
                )
            rendered[a.slug] = a.render(svc.result(job.id))
    return rendered


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="regenerate everything and fail on any byte "
                         "drift vs the committed artifacts")
    ap.add_argument("--workers", type=int, default=2,
                    help="service worker processes (default 2)")
    ap.add_argument("--list", action="store_true",
                    help="print the artifact table and exit")
    args = ap.parse_args(argv)

    if args.list:
        for a in ARTIFACTS:
            print(f"{_path(a).name:<64} {a.experiment}{a.kw or ''}")
        return 0
    print(f"{len(ARTIFACTS)} artifact(s) in repro.experiments.ARTIFACTS")

    if args.check:
        rendered = regenerate(ARTIFACTS, args.workers)
        failures: list[str] = []
        for a in ARTIFACTS:
            path = _path(a)
            if not path.exists():
                failures.append(f"missing artifact {path.name}")
            elif path.read_text() != rendered[a.slug]:
                failures.append(f"DRIFT: {path.name} ({a.experiment})")
            else:
                print(f"ok: {path.name}")
        if failures:
            print(f"\n{len(failures)} problem(s):", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            return 1
        print(f"all {len(ARTIFACTS)} committed artifacts reproduce "
              "byte-identically")
        return 0

    missing = [a for a in ARTIFACTS if not _path(a).exists()]
    if not missing:
        print("nothing to do: every artifact is present")
        return 0
    print(f"regenerating {len(missing)} missing artifact(s) ...")
    rendered = regenerate(missing, args.workers)
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    for a in missing:
        _path(a).write_text(rendered[a.slug])
        print(f"wrote {_path(a).relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
