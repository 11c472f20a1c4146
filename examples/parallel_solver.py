#!/usr/bin/env python3
"""Run the distributed jet solver for real and verify it against serial.

Demonstrates the paper's parallelization (Section 5): axial block
decomposition with grouped halo messages, executed over the in-process
virtual cluster with real message passing — both runs going through the
``repro.api.run`` facade.  Verifies that the distributed result is
*bitwise identical* to the serial solver, then reports the measured
per-processor communication characteristics — the package's "measured
Table 1".

Usage::

    python examples/parallel_solver.py [--nranks 4] [--version 5|6|7]
                                       [--steps 50] [--trace par.trace.json]
"""

import argparse

import numpy as np

from repro import jet_scenario, run
from repro.analysis.report import format_table


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nranks", type=int, default=4)
    ap.add_argument("--version", type=int, default=5, choices=(5, 6, 7))
    ap.add_argument("--steps", type=int, default=50)
    ap.add_argument("--nx", type=int, default=80)
    ap.add_argument("--nr", type=int, default=40)
    ap.add_argument(
        "--trace",
        metavar="PATH",
        help="export a per-rank Chrome trace (open in ui.perfetto.dev)",
    )
    args = ap.parse_args()

    sc = jet_scenario(nx=args.nx, nr=args.nr, viscous=True)

    print(f"Serial reference: {args.nx}x{args.nr}, {args.steps} steps ...")
    ref = run(sc, steps=args.steps)

    print(
        f"Distributed run: {args.nranks} ranks, Version {args.version} "
        f"({'one column at a time' if args.version == 7 else 'grouped'}) ..."
    )
    res = run(
        sc,
        steps=args.steps,
        nprocs=args.nranks,
        version=args.version,
        trace=args.trace,
    )

    identical = np.array_equal(res.state.q, ref.state.q)
    print(f"\nBitwise identical to serial: {identical}")
    if not identical:
        raise SystemExit("FAILED: parallel result differs from serial")

    rows = []
    for r, st in enumerate(res.per_rank_stats):
        rows.append(
            [
                r,
                st.sends,
                st.recvs,
                f"{st.bytes_sent / 1024:.1f}",
                f"{st.sends / args.steps:.1f}",
            ]
        )
    print()
    print(
        format_table(
            ["rank", "sends", "recvs", "KB sent", "sends/step"],
            rows,
            title="Measured communication (interior ranks exchange with both "
            "neighbours; edge ranks with one):",
        )
    )
    if args.nranks >= 3:
        mid = res.interior_rank_stats
        print(
            f"\nInterior-rank per-step: {mid.sends / args.steps:.1f} sends, "
            f"{mid.bytes_sent / args.steps / 1024:.2f} KB  "
            f"(paper's Table 1, at nr=100 and 5000 steps: 8 sends/step, 25 KB/step)"
        )
    else:
        print(
            "\n(no interior rank with fewer than 3 ranks — the paper's "
            "per-processor numbers need two-neighbour ranks)"
        )
    if res.trace_path:
        print(
            f"Trace: {res.trace_path} ({len(res.trace.spans)} spans over "
            f"{len(res.trace.ranks())} ranks) — load it at "
            "https://ui.perfetto.dev"
        )


if __name__ == "__main__":
    main()
