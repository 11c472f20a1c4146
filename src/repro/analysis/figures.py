"""Series generators for every figure of the paper's evaluation.

Each function returns a :class:`FigureResult` whose series can be printed
with :meth:`FigureResult.render` — the same curves the paper plots on its
log-log axes.  Figure 1 (the excited-jet axial-momentum contours) is the
only one produced by actually running the solver; see
``repro.experiments.runners.run_fig01``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machines.platforms import (
    CRAY_T3D,
    CRAY_YMP,
    IBM_SP,
    IBM_SP_PVME,
    LACE_560,
    LACE_560_ETHERNET,
    LACE_590,
    Platform,
)
from ..parallel.versions import VERSIONS
from ..request import ExecutionConfig
from ..simulate.machine import SimulatedMachine
from ..simulate.sharedmem import SharedMemoryMachine
from ..simulate.workload import EULER, NAVIER_STOKES, Application
from .report import format_table, render_series

#: Processor grid used by the scaling figures (the paper runs up to 16;
#: the Y-MP up to 8).
PROC_GRID = (1, 2, 4, 6, 8, 10, 12, 14, 16)

#: Steps simulated per run (scaled to the full 5000; the step pattern is
#: periodic): the window ``repro.run``, ``repro simulate`` and claims share.
STEPS_WINDOW = ExecutionConfig.steps_window


@dataclass
class FigureResult:
    """Series data for one paper figure."""

    figure_id: str
    title: str
    xs: list[float]
    series: dict[str, list[float]]
    xlabel: str = "Number of Processors"
    ylabel: str = "Execution Time (sec)"
    loglog: bool = True
    notes: str = ""

    def to_csv(self, path: str) -> None:
        """Write the series as CSV (x column + one column per series) for
        external plotting tools."""
        import csv

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([self.xlabel] + list(self.series))
            for i, x in enumerate(self.xs):
                w.writerow([x] + [self.series[k][i] for k in self.series])

    def render(self, width: int = 72) -> str:
        chart = render_series(
            self.xs,
            self.series,
            title=f"{self.figure_id}: {self.title}",
            xlabel=self.xlabel,
            ylabel=self.ylabel,
            loglog=self.loglog,
            width=width,
        )
        headers = [self.xlabel] + list(self.series)
        rows = [
            [x] + [f"{self.series[k][i]:.1f}" for k in self.series]
            for i, x in enumerate(self.xs)
        ]
        table = format_table(headers, rows)
        out = chart + "\n\n" + table
        if self.notes:
            out += "\n\n" + self.notes
        return out


def _exec_series(
    platform: Platform,
    app: Application,
    procs=PROC_GRID,
    version: int = 5,
    quantity: str = "execution",
) -> list[float]:
    out = []
    for p in procs:
        r = SimulatedMachine(platform, p, version=version).run(
            app, steps_window=STEPS_WINDOW
        )
        if quantity == "execution":
            out.append(r.execution_time)
        elif quantity == "busy":
            out.append(r.busy_time)
        elif quantity == "comm":
            out.append(r.comm_time)
        else:
            raise ValueError(quantity)
    return out


# ---------------------------------------------------------------------------
# Figure 2: single-processor optimization versions
# ---------------------------------------------------------------------------


def fig02_versions(procs_cpu=None) -> FigureResult:
    """Execution time on a single RS6000/560 for Versions 1..5 (+6, 7).

    The paper's Figure 2: ~16,000 s for the original Navier-Stokes code
    dropping to ~9,000 s for Version 5 (9.3 -> 16.0 MFLOPS)."""
    cpu = (procs_cpu or LACE_560).cpu
    versions = sorted(VERSIONS)
    series: dict[str, list[float]] = {"Navier-Stokes": [], "Euler": []}
    for app, key in ((NAVIER_STOKES, "Navier-Stokes"), (EULER, "Euler")):
        for v in versions:
            t = cpu.time_for_flops(app.total_flops, v)
            series[key].append(t)
    notes_rows = [
        [f"V{v}", f"{cpu.sustained_mflops(v):.1f}", VERSIONS[v].description]
        for v in versions
    ]
    notes = format_table(
        ["Version", "MFLOPS (560)", "Optimization"],
        notes_rows,
        title="Sustained single-processor rates:",
    )
    return FigureResult(
        figure_id="Figure 2",
        title="Execution time on a single processor (RS6000/560)",
        xs=[float(v) for v in versions],
        series=series,
        xlabel="Version",
        loglog=False,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Figures 3/4: LACE networks
# ---------------------------------------------------------------------------


def fig03_fig04_lace(app: Application, procs=PROC_GRID) -> FigureResult:
    """Execution time on LACE under ALLNODE-F / ALLNODE-S / Ethernet."""
    fid = "Figure 3" if app is NAVIER_STOKES else "Figure 4"
    series = {
        "ALLNODE-F": _exec_series(LACE_590, app, procs),
        "ALLNODE-S": _exec_series(LACE_560, app, procs),
        "Ethernet": _exec_series(LACE_560_ETHERNET, app, procs),
    }
    return FigureResult(
        figure_id=fid,
        title=f"{app.name} execution time on LACE",
        xs=list(procs),
        series=series,
    )


# ---------------------------------------------------------------------------
# Figures 5/6: busy vs non-overlapped communication
# ---------------------------------------------------------------------------


def fig05_fig06_components(app: Application, procs=PROC_GRID) -> FigureResult:
    """The execution-time split on LACE (paper Figures 5 and 6)."""
    fid = "Figure 5" if app is NAVIER_STOKES else "Figure 6"
    series = {
        "LACE/590 busy": _exec_series(LACE_590, app, procs, quantity="busy"),
        "ALLNODE-F comm": _exec_series(LACE_590, app, procs, quantity="comm"),
        "LACE/560 busy": _exec_series(LACE_560, app, procs, quantity="busy"),
        "ALLNODE-S comm": _exec_series(LACE_560, app, procs, quantity="comm"),
        "Ethernet comm": _exec_series(
            LACE_560_ETHERNET, app, procs, quantity="comm"
        ),
    }
    return FigureResult(
        figure_id=fid,
        title=f"Components of execution time ({app.name}; LACE)",
        xs=list(procs),
        series=series,
        ylabel="Time (sec)",
    )


# ---------------------------------------------------------------------------
# Figures 7/8: communication-optimization versions
# ---------------------------------------------------------------------------


def fig07_fig08_comm_versions(app: Application, procs=PROC_GRID) -> FigureResult:
    """Versions 5/6/7 on ALLNODE-S and Ethernet (paper Figures 7 and 8)."""
    fid = "Figure 7" if app is NAVIER_STOKES else "Figure 8"
    series = {}
    for v in (5, 6, 7):
        series[f"V{v} ALLNODE-S"] = _exec_series(LACE_560, app, procs, version=v)
        series[f"V{v} Ethernet"] = _exec_series(
            LACE_560_ETHERNET, app, procs, version=v
        )
    return FigureResult(
        figure_id=fid,
        title=f"Communication optimization ({app.name}; LACE)",
        xs=list(procs),
        series=series,
    )


# ---------------------------------------------------------------------------
# Figures 9/10: all platforms
# ---------------------------------------------------------------------------


def fig09_fig10_platforms(app: Application, procs=PROC_GRID) -> FigureResult:
    """Execution time across the four platforms (paper Figures 9 and 10)."""
    fid = "Figure 9" if app is NAVIER_STOKES else "Figure 10"
    ymp_procs = [p for p in procs if p <= CRAY_YMP.max_procs]
    ymp = [
        SharedMemoryMachine(CRAY_YMP, p).run(app).execution_time for p in ymp_procs
    ]
    # Pad the Y-MP series (max 8 CPUs) with its last value marker omitted.
    series = {
        "Cray Y-MP": ymp + [float("nan")] * (len(procs) - len(ymp_procs)),
        "IBM SP (MPL)": _exec_series(IBM_SP, app, procs),
        "ALLNODE-S": _exec_series(LACE_560, app, procs),
        "Cray T3D": _exec_series(CRAY_T3D, app, procs),
        "ALLNODE-F": _exec_series(LACE_590, app, procs),
    }
    # Replace NaN padding with None-safe values for rendering: drop them.
    series["Cray Y-MP"] = [
        v if v == v else 0.0 for v in series["Cray Y-MP"]
    ]  # 0 values are skipped by the log renderer
    return FigureResult(
        figure_id=fid,
        title=f"Execution time of {app.name} on computing platforms",
        xs=list(procs),
        series=series,
    )


# ---------------------------------------------------------------------------
# Figures 11/12: MPL vs PVMe on the SP
# ---------------------------------------------------------------------------


def fig11_fig12_libraries(app: Application, procs=PROC_GRID) -> FigureResult:
    """MPL vs PVMe busy and non-overlapped comm (paper Figures 11 and 12)."""
    fid = "Figure 11" if app is NAVIER_STOKES else "Figure 12"
    series = {
        "busy (MPL)": _exec_series(IBM_SP, app, procs, quantity="busy"),
        "busy (PVMe)": _exec_series(IBM_SP_PVME, app, procs, quantity="busy"),
        "comm (MPL)": _exec_series(IBM_SP, app, procs, quantity="comm"),
        "comm (PVMe)": _exec_series(IBM_SP_PVME, app, procs, quantity="comm"),
    }
    return FigureResult(
        figure_id=fid,
        title=f"Comparison of MPL and PVMe ({app.name}; IBM SP)",
        xs=list(procs),
        series=series,
        ylabel="Time (sec)",
    )


# ---------------------------------------------------------------------------
# Figure 13: load balance
# ---------------------------------------------------------------------------


def fig13_load_balance(
    app: Application = NAVIER_STOKES, nprocs: int = 16
) -> FigureResult:
    """Per-processor busy times on the SP (paper Figure 13)."""
    r = SimulatedMachine(IBM_SP, nprocs).run(app, steps_window=STEPS_WINDOW)
    series = {"busy time": r.per_rank_busy}
    return FigureResult(
        figure_id="Figure 13",
        title=f"Processor busy times ({app.name}; IBM SP, {nprocs} procs)",
        xs=list(range(nprocs)),
        series=series,
        xlabel="Processor Number",
        ylabel="Processor busy time (sec)",
        loglog=False,
    )
