#!/usr/bin/env python
"""Batch driver: regenerate missing/stale paper artifacts via the run service.

Every ``benchmarks/bench_*.py`` renders one paper table/figure and writes
it to ``benchmarks/output/<slug>.txt`` (see ``benchmarks/conftest.py``).
This script discovers those targets *statically* — it AST-parses the
``run_and_print(benchmark, <payload>, "<header>")`` calls, so the header
strings and experiment payloads come from the benchmark sources, never
from guesses — and regenerates the deterministic ones through a
:class:`repro.service.RunService` worker pool, deduplicated against the
persistent result store.

Targets whose payload is ``run_experiment("<id>")`` or ``run_fig01(...)``
with literal arguments are *executable* (regenerable here); ablation and
workload benchmarks time locally-defined sweeps, so they are checked for
presence only.

Modes
-----
default
    Regenerate any executable artifact missing from ``benchmarks/output``
    (cache hits allowed) and report presence-only gaps.
``--check``
    Regenerate *all* executable artifacts into a throwaway store
    (bypassing the cache) and byte-compare against the committed files.
    Exit 1 on any drift or missing artifact — CI's determinism gate for
    the committed outputs.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO / "benchmarks"
OUTPUT_DIR = BENCH_DIR / "output"

sys.path.insert(0, str(REPO / "src"))


@dataclass
class Target:
    """One artifact a benchmark file writes to ``benchmarks/output``."""

    source: str                      # bench_*.py file name
    header: str                      # run_and_print header literal
    experiment: str | None = None    # experiment id when regenerable here
    kw: dict = field(default_factory=dict)

    @property
    def slug(self) -> str:
        return re.sub(r"[^a-z0-9]+", "_", self.header.lower()).strip("_")[:60]

    @property
    def path(self) -> Path:
        return OUTPUT_DIR / f"{self.slug}.txt"

    @property
    def executable(self) -> bool:
        return self.experiment is not None

    def render(self, text: str) -> str:
        """Wrap experiment text exactly as the benchmark harness does."""
        return f"{'=' * 78}\n{self.header}\n{'=' * 78}\n{text}\n"


def _const_kwargs(call: ast.Call) -> dict | None:
    """The call's keyword arguments, if every one is a literal."""
    kw = {}
    for k in call.keywords:
        if k.arg is None or not isinstance(k.value, ast.Constant):
            return None
        kw[k.arg] = k.value.value
    return kw


def _payload_experiment(node: ast.expr) -> tuple[str, dict] | None:
    """Map a run_and_print payload to (experiment id, kwargs) when the
    payload is a zero-arg lambda around run_experiment()/run_fig01()."""
    if not (isinstance(node, ast.Lambda) and isinstance(node.body, ast.Call)):
        return None
    call = node.body
    if not isinstance(call.func, ast.Name):
        return None
    kw = _const_kwargs(call)
    if kw is None:
        return None
    if call.func.id == "run_experiment":
        if (
            len(call.args) == 1
            and isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, str)
        ):
            return call.args[0].value, kw
        return None
    if call.func.id == "run_fig01" and not call.args:
        return "fig01", kw
    return None


def discover_targets() -> list[Target]:
    """AST-scan benchmarks/bench_*.py for run_and_print() artifacts."""
    targets: list[Target] = []
    for bench in sorted(BENCH_DIR.glob("bench_*.py")):
        tree = ast.parse(bench.read_text(), filename=str(bench))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "run_and_print"
                and len(node.args) >= 3
                and isinstance(node.args[2], ast.Constant)
                and isinstance(node.args[2].value, str)
            ):
                continue
            t = Target(source=bench.name, header=node.args[2].value)
            exp = _payload_experiment(node.args[1])
            if exp is not None:
                t.experiment, t.kw = exp
            targets.append(t)
    return targets


def regenerate(targets: list[Target], workers: int, store_root=None) -> dict:
    """Run each target's experiment through the service; return
    {slug: rendered artifact text}."""
    from repro.service import ExperimentRequest, ResultStore, RunService

    store = ResultStore(store_root) if store_root else None
    rendered: dict[str, str] = {}
    with RunService(workers=workers, store=store, ledger=False) as svc:
        jobs = [
            (t, svc.submit(ExperimentRequest(t.experiment, t.kw)))
            for t in targets
        ]
        for t, job in jobs:
            done = svc.wait(job.id, timeout=1800)
            if not done.terminal or done.status == "failed":
                raise RuntimeError(
                    f"{t.source}: {t.experiment} {done.status}"
                    + (f" — {done.error}" if done.error else "")
                )
            rendered[t.slug] = t.render(svc.result(job.id))
        print(
            f"service executed {svc.executed} of {len(jobs)} job(s) "
            f"({len(jobs) - svc.executed} served from cache)"
        )
    return rendered


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="regenerate everything (no cache) and fail on "
                         "any byte drift vs the committed artifacts")
    ap.add_argument("--workers", type=int, default=2,
                    help="service worker processes (default 2)")
    ap.add_argument("--list", action="store_true",
                    help="print the discovered targets and exit")
    args = ap.parse_args(argv)

    targets = discover_targets()
    runnable = [t for t in targets if t.executable]
    static = [t for t in targets if not t.executable]
    if args.list:
        for t in targets:
            mode = (
                f"run:{t.experiment}{t.kw or ''}" if t.executable
                else "presence-only"
            )
            print(f"{t.path.name:<64} {t.source:<36} {mode}")
        return 0
    print(
        f"{len(targets)} artifact target(s) from benchmark sources "
        f"({len(runnable)} regenerable, {len(static)} presence-only)"
    )

    failures: list[str] = []

    if args.check:
        with tempfile.TemporaryDirectory(prefix="repro-check-") as tmp:
            rendered = regenerate(runnable, args.workers, store_root=tmp)
        for t in runnable:
            if not t.path.exists():
                failures.append(f"missing artifact {t.path.name}")
            elif t.path.read_text() != rendered[t.slug]:
                failures.append(f"DRIFT: {t.path.name} ({t.source})")
            else:
                print(f"ok: {t.path.name}")
        for t in static:
            if t.path.exists():
                print(f"ok (presence): {t.path.name}")
            else:
                failures.append(f"missing artifact {t.path.name} "
                                f"(regenerate with: pytest benchmarks/"
                                f"{t.source} --benchmark-only -s)")
        if failures:
            print(f"\n{len(failures)} problem(s):", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            return 1
        print("all committed artifacts reproduce byte-identically")
        return 0

    missing = [t for t in runnable if not t.path.exists()]
    for t in static:
        if not t.path.exists():
            print(f"cannot regenerate {t.path.name} here — run: "
                  f"pytest benchmarks/{t.source} --benchmark-only -s")
    if not missing:
        print("nothing to do: every regenerable artifact is present")
        return 0
    print(f"regenerating {len(missing)} missing artifact(s) ...")
    rendered = regenerate(missing, args.workers)
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    for t in missing:
        t.path.write_text(rendered[t.slug])
        print(f"wrote {t.path.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
