"""The paper's core contribution: parallelization of the jet solver.

* :mod:`repro.parallel.decomposition` — the ``px x pr`` block domain
  decomposition.  The paper decomposes "by blocks along the axial direction
  only" (Section 5), here ``nranks x 1``; the radial variant it defers to
  future work (Section 8) is ``1 x nranks``.
* :mod:`repro.parallel.versions` — the optimization-version registry
  (V1..V5 single-processor optimizations, V6 overlapped communication,
  V7 de-burstified communication).
* :mod:`repro.parallel.halo` — the halo depth ``H`` derived from the
  scheme, and the per-rank ``ExchangePlan`` that refreshes a block's ``H``
  ghost lines with one message per neighbour per step (the paper's
  grouping taken to its end).
* :mod:`repro.parallel.spmd` — the one per-rank distributed solver: the
  serial solver stepping its halo-extended block, over any block grid
  (bitwise identical to the serial solver for every decomposition,
  processor count and version).
* :mod:`repro.parallel.runner` — high-level facade over the virtual cluster.
"""

from .decomposition import CartesianDecomposition
from .versions import VERSIONS, Version, version_by_number
from .runner import ParallelJetSolver, ParallelRunResult

__all__ = [
    "CartesianDecomposition",
    "Version",
    "VERSIONS",
    "version_by_number",
    "ParallelJetSolver",
    "ParallelRunResult",
]
