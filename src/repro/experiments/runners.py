"""Dispatch table: experiment id -> reproduction function.

Every entry regenerates one table, figure or Section-8 ablation, or the
paper-vs-measured claims table, and returns the rendered text
(:data:`~repro.experiments.ARTIFACTS` frames it into a committed
``benchmarks/output`` file).

``run_fig01`` is the only experiment that runs the *real* solver — the
excited-jet axial-momentum field.  It defaults to half the paper's
resolution and a short run so it completes in seconds; pass
``full=True`` for the paper's 250x100 grid (16,000 steps took the original
authors many Y-MP hours; our vectorized numpy solver does 250x100 at
roughly 30 ms/step, so the full run is minutes, not hours).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..analysis.figures import (
    fig02_versions,
    fig03_fig04_lace,
    fig05_fig06_components,
    fig07_fig08_comm_versions,
    fig09_fig10_platforms,
    fig11_fig12_libraries,
    fig13_load_balance,
)
from ..analysis.report import ascii_contour
from ..analysis.tables import measured_characteristics, table1, table2
from ..simulate.workload import EULER, NAVIER_STOKES
from . import ablations, claims


def run_fig01(
    nx: int = 125,
    nr: int = 50,
    steps: int = 2000,
    full: bool = False,
    save_npz: str | None = None,
    scenario=None,
    nprocs: int = 1,
    trace=None,
) -> str:
    """Figure 1: axial momentum in the excited axisymmetric jet.

    Runs the actual Navier-Stokes solver with the paper's jet parameters
    (Mach 1.5, Re 1.2e6, St = 1/8) via :func:`repro.api.run` and renders
    the rho*u field as an ASCII contour (optionally saving the raw field to
    ``save_npz``).  Pass a :class:`~repro.scenarios.Scenario` to override
    the setup, ``nprocs`` to run distributed, ``trace`` as in the facade.
    """
    from ..api import run
    from ..scenarios import jet_scenario

    if full:
        nx, nr, steps = 250, 100, 16000
    sc = scenario if scenario is not None else jet_scenario(
        nx=nx, nr=nr, viscous=True
    )
    res = run(sc, steps=steps, nprocs=nprocs, trace=trace)
    # Crop to the jet region (r <= 2.5 radii) — the paper's Figure 1 frame.
    j_max = int(np.searchsorted(sc.grid.r, 2.5))
    mom = res.state.axial_momentum[:, : max(j_max, 4)]
    if save_npz:
        np.savez(
            save_npz,
            axial_momentum=mom,
            x=sc.grid.x,
            r=sc.grid.r,
            t=res.t,
            steps=res.steps,
        )
    title = (
        f"Figure 1: X MOMENTUM — excited axisymmetric jet "
        f"(M=1.5, Re=1.2e6, St=1/8; grid {sc.grid.nx}x{sc.grid.nr}, "
        f"{steps} steps, t={res.t:.1f})"
    )
    return ascii_contour(mom, title=title)


def run_table1(source: str = "both") -> str:
    if source == "both":
        return table1("paper") + "\n\n" + table1("measured")
    return table1(source)


def run_table2() -> str:
    return table2()


def characterize() -> dict:
    """Measured Table-1 characteristics of this package's solver
    (machine-readable; the ``table1`` experiment prints them)."""
    ns = measured_characteristics(viscous=True)
    euler = measured_characteristics(viscous=False)
    return {
        "ns": ns,
        "euler": euler,
        "ns_over_euler_flops": ns.total_flops / euler.total_flops,
        "ns_over_euler_volume": ns.volume_bytes_per_proc
        / euler.volume_bytes_per_proc,
    }


EXPERIMENTS: dict[str, Callable[[], str]] = {
    "table1": run_table1,
    "table2": run_table2,
    "fig01": run_fig01,
    "fig02": lambda: fig02_versions().render(),
    "fig03": lambda: fig03_fig04_lace(NAVIER_STOKES).render(),
    "fig04": lambda: fig03_fig04_lace(EULER).render(),
    "fig05": lambda: fig05_fig06_components(NAVIER_STOKES).render(),
    "fig06": lambda: fig05_fig06_components(EULER).render(),
    "fig07": lambda: fig07_fig08_comm_versions(NAVIER_STOKES).render(),
    "fig08": lambda: fig07_fig08_comm_versions(EULER).render(),
    "fig09": lambda: fig09_fig10_platforms(NAVIER_STOKES).render(),
    "fig10": lambda: fig09_fig10_platforms(EULER).render(),
    "fig11": lambda: fig11_fig12_libraries(NAVIER_STOKES).render(),
    "fig12": lambda: fig11_fig12_libraries(EULER).render(),
    "fig13": lambda: fig13_load_balance().render(),
    "ablation_cache": ablations.ablation_cache,
    "ablation_decomposition": ablations.ablation_decomposition,
    "ablation_imbalance": ablations.ablation_imbalance,
    "ablation_startup": ablations.ablation_startup,
    "ablation_vector": ablations.ablation_vector,
    "workload_comparison": ablations.workload_comparison,
    "claims": claims.render,
}


def run_experiment(exp_id: str, **kw) -> str:
    """Run one experiment by id (``table1``, ``fig01``, ``ablation_cache``..;
    ``repro list`` prints them all).

    Extra keyword arguments are forwarded to the experiment callable
    (``fig01`` accepts ``nx``/``nr``/``steps``/``full``; the others take
    none) — an :data:`~repro.experiments.ARTIFACTS` entry passes the ones
    its committed file was rendered with.
    """
    try:
        fn = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    return fn(**kw) if kw else fn()
