#!/usr/bin/env python3
"""Run the distributed jet solver under real MPI (requires mpi4py).

Each MPI process becomes one rank of the paper's SPMD program::

    mpiexec -n 8 python scripts/mpi_runner.py --nx 250 --nr 100 --steps 100
    mpiexec -n 8 python scripts/mpi_runner.py --decomposition radial
    mpiexec -n 8 python scripts/mpi_runner.py --decomposition 2d --px 4 --pr 2

Rank 0 gathers the final field, reports communication statistics, and — if
``--verify`` is given — recomputes the serial reference and checks bitwise
equality (expensive: the full problem runs twice on rank 0).
"""

import argparse

import numpy as np


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nx", type=int, default=250)
    ap.add_argument("--nr", type=int, default=100)
    ap.add_argument("--steps", type=int, default=100)
    ap.add_argument("--version", type=int, default=5, choices=(5, 6, 7))
    ap.add_argument("--decomposition", default="axial",
                    choices=("axial", "radial", "2d"))
    ap.add_argument("--px", type=int, default=None)
    ap.add_argument("--pr", type=int, default=None)
    ap.add_argument("--euler", action="store_true")
    ap.add_argument("--verify", action="store_true",
                    help="rank 0 recomputes the serial reference")
    args = ap.parse_args()

    from repro.msglib.mpi import MPIComm
    from repro.scenarios import jet_scenario

    comm = MPIComm()
    sc = jet_scenario(nx=args.nx, nr=args.nr, viscous=not args.euler)
    grid, q0, config = sc.state.grid, sc.state.q, sc.solver.config

    from repro.parallel.decomposition import CartesianDecomposition
    from repro.parallel.spmd import BlockDistributedSolver

    decomp = CartesianDecomposition.named(
        args.decomposition, grid.nx, grid.nr, comm.size, args.px, args.pr
    )
    solver = BlockDistributedSolver(comm, grid, q0, config, decomp,
                                    version=args.version)

    for _ in range(args.steps):
        solver.step()
    gathered = solver.gather_state()

    if comm.rank == 0:
        st = comm.stats
        print(f"ranks={comm.size} steps={solver.nstep} t={solver.t:.4f}")
        print(f"rank-0 comm: {st.sends} sends, "
              f"{st.bytes_sent / 1e6:.2f} MB sent")
        print(f"max |rho u| = {np.abs(gathered.axial_momentum).max():.4f}  "
              f"physical={gathered.is_physical()}")
        if args.verify:
            from repro.parallel.runner import serial_reference

            ref = serial_reference(sc.state, config, args.steps)
            same = np.array_equal(gathered.q, ref.q)
            print(f"bitwise identical to serial: {same}")
            if not same:
                raise SystemExit(1)


if __name__ == "__main__":
    main()
