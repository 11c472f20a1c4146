#!/usr/bin/env python3
"""Alternating A/B pairs of harness workloads: a git revision against
this checkout.

    python scripts/ab.py REV --workload W [--workload W2 ...] --pairs N

``REV`` is exported with ``git archive`` into a fresh run directory; for
each workload in turn, each pair then runs ``benchmarks/harness/run.py
--workload W --seed i`` once in that tree (the parent) and once in this
checkout (the change), the parent first in odd pairs and the change first
in even ones, so a host that drifts while the pairs run loads both sides
alike.  Every ``--out`` report is kept in the one run directory.  The
summary prints one table per workload: per end-to-end metric of
``BENCHMARK.json``, the parent's median [first quartile, third quartile]
→ the change's median, in how many pairs the change was better, and
whether the medians differ by more than the parent's quartile distance
(the bar a claimed gain has to clear).  Under them, marked "(not gated)",
the same row for each raw median a report's ``detail`` carries beside a
restated metric (``op_ms.raw``, ``throughput.raw``): the value before the
harness restates it against its host yardstick.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks" / "harness"))

from stats import median  # noqa: E402


def archive(rev: str, dest: Path) -> None:
    """Export ``rev``'s committed files into ``dest``."""
    dest.mkdir()
    tar = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def run_side(root: Path, workload: str, seed: int, out: Path) -> dict:
    """One harness run of ``workload`` in the tree at ``root``; its whole
    ``--out`` report."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [
        sys.executable, "benchmarks/harness/run.py", "--workload", workload,
        "--seed", str(seed), "--out", str(out),
    ]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def row(name: str, higher: bool, a: list[float], b: list[float], note: str = "") -> None:
    """One table row: the parent's runs ``a`` against the change's ``b``."""
    wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
    ma, mb = median(a), median(b)
    q1, _, q3 = statistics.quantiles(a, n=4)
    beyond = abs(mb - ma) > q3 - q1
    print(f"{name:<14} {ma:>12.4g} [{q1:.4g}, {q3:.4g}]".ljust(49)
          + f" → {mb:>10.4g}  {wins} of {len(a)}"
          + ("  (beyond the parent's quartiles)" if beyond else "") + note)


def summarize(declared: list[dict], pairs: list[tuple[dict, dict]]) -> None:
    print(f"{'metric':<14} {'parent median [q1, q3]':<34}   {'change':>10}  change better")
    for spec in declared:
        name, higher = spec["name"], spec["better"] == "higher"
        row(name, higher, *([side["result"]["metrics"][name]["value"] for side in sides]
                            for sides in zip(*pairs)))
    for spec in declared:
        raw = spec["name"] + ".raw"
        if all(raw in side.get("detail", {}) for sides in pairs for side in sides):
            row(raw, spec["better"] == "higher",
                *([side["detail"][raw]["median"] for side in sides] for sides in zip(*pairs)),
                note="  (not gated)")
    results = [[side["result"] for side in sides] for sides in zip(*pairs)]
    failed = [sum(r["failed"] for r in side) for side in results]
    attempted = [sum(r["attempted"] for r in side) for side in results]
    correct = [all(r["correct"] for r in side) for side in results]
    print(f"failed operations: parent {failed[0]} of {attempted[0]}, "
          f"change {failed[1]} of {attempted[1]}; every run correct: "
          f"parent {correct[0]}, change {correct[1]}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="the git revision to compare against (the parent)")
    ap.add_argument("--workload", required=True, action="append",
                    help="a harness workload; repeat for several")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 (quartiles need two runs a side)")
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end"]
    run_dir = Path(tempfile.mkdtemp(prefix="ab-"))
    parent = run_dir / "parent-tree"
    archive(args.rev, parent)
    pairs: dict[str, list] = {w: [] for w in args.workload}
    try:
        for workload, done in pairs.items():
            for i in range(1, args.pairs + 1):
                sides = {}
                order = ("parent", "change") if i % 2 else ("change", "parent")
                for side in order:
                    root = parent if side == "parent" else REPO
                    began = time.perf_counter()
                    out = run_dir / f"{workload}-pair{i:02d}-{side}.json"
                    sides[side] = run_side(root, workload, i, out)
                    print(f"{workload} pair {i:2d} {side:<6} "
                          f"{time.perf_counter() - began:6.1f} s  "
                          + "  ".join(f"{k}={v['value']:.4g}" for k, v
                                      in sides[side]["result"]["metrics"].items()),
                          flush=True)
                done.append((sides["parent"], sides["change"]))
    finally:
        shutil.rmtree(parent, ignore_errors=True)
    for workload, done in pairs.items():
        print(f"\n{workload}: {args.rev} (parent) → this checkout (change), "
              f"{len(done)} alternating pairs, seeds 1..{len(done)}")
        summarize(declared, done)
    print(f"\nreports: {run_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
