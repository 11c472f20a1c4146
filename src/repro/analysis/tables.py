"""Table 1 (application characteristics) and Table 2 (ratios) generators.

Both tables come in two modes:

* ``source="paper"`` — the published numbers (what the simulated-machine
  figures consume);
* ``source="measured"`` — characteristics measured from this package: FP
  counts from the kernel operation inventory
  (:mod:`repro.numerics.opcount`) and communication from an instrumented
  real run of the distributed solver at the paper's radial resolution (the
  per-step, per-processor message counts and volumes are independent of
  the axial extent and of the processor count, so a short narrow run
  measures them exactly).

:func:`table_deep_halo` puts the measured row in the paper's Table-2 form
— startups, bytes, FP per startup and FP per byte *per processor* at
p = 2, 4, 8, 16 — beside the paper's Version 5, with the column the paper
did not need: the FP a rank recomputes on its ghost lines.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import constants
from ..numerics.opcount import euler_ops, navier_stokes_ops
from .metrics import flops_per_byte, flops_per_startup
from .report import format_table


@dataclass(frozen=True)
class AppCharacteristics:
    """One row of Table 1."""

    name: str
    total_flops: float
    startups_per_proc: float
    volume_bytes_per_proc: float

    def as_row(self) -> list:
        return [
            self.name,
            f"{self.total_flops / 1e6:,.0f}",
            f"{self.startups_per_proc:,.0f}",
            f"{self.volume_bytes_per_proc / constants.MB:,.0f}",
        ]


PAPER_NS = AppCharacteristics(
    "N-S",
    constants.PAPER_TOTAL_FLOPS_NS,
    constants.PAPER_STARTUPS_NS,
    constants.PAPER_VOLUME_NS_MB * constants.MB,
)
PAPER_EULER = AppCharacteristics(
    "Euler",
    constants.PAPER_TOTAL_FLOPS_EULER,
    constants.PAPER_STARTUPS_EULER,
    constants.PAPER_VOLUME_EULER_MB * constants.MB,
)


def _traffic_per_step(viscous: bool, nx: int, nranks: int) -> tuple[float, float]:
    """``(startups, bytes sent)`` per step of the middle rank of an axial
    ``nranks x 1`` split at the paper's radial resolution, read off
    :class:`~repro.msglib.api.CommStats`: the difference between a 20- and
    a 10-step run of the real solver, which drops the run's fixed messages
    (the final gather) and keeps one ``dt`` all-reduce per ten steps.  The
    middle rank has two neighbours whenever any rank has."""
    from ..parallel.runner import ParallelJetSolver
    from ..scenarios import jet_scenario

    sc = jet_scenario(nx=nx, nr=constants.PAPER_NR, viscous=viscous)
    config = sc.config
    config.backend = "fused"
    short, long = (
        ParallelJetSolver(sc.state, config, nranks=nranks, version=5)
        .run(steps).per_rank_stats[nranks // 2]
        for steps in (10, 20)
    )
    return (
        (long.startups - short.startups) / 10,
        (long.bytes_sent - short.bytes_sent) / 10,
    )


def measured_characteristics(
    viscous: bool,
    nx: int = 60,
    nranks: int = 4,
    steps: int = constants.PAPER_STEPS,
) -> AppCharacteristics:
    """Measure our solver's Table-1 row with a short instrumented run.

    Communication per step per interior processor depends only on the
    radial resolution (messages are full radial columns), so the probe runs
    the real distributed solver at ``nr = 100`` with a short axial domain
    and extrapolates linearly in steps.

    The row no longer resembles the paper's: the paper's code exchanges
    per phase (16 startups and 25 kB per processor per step), ours ships
    one halo of ``H`` state columns per neighbour per step — 4 startups
    (2 sends, 2 receives) and ``2 x 4 x H x nr x 8`` bytes, i.e. 51 kB for
    Navier-Stokes (``H = 8``) and 26 kB for Euler (``H = 4``: half the
    depth in the same startups) — plus the ``dt`` all-reduce every tenth
    step.
    """
    startups_per_step, volume_per_step = _traffic_per_step(viscous, nx, nranks)
    ops = navier_stokes_ops() if viscous else euler_ops()
    return AppCharacteristics(
        name="N-S" if viscous else "Euler",
        total_flops=ops.total(steps=steps),
        startups_per_proc=startups_per_step * steps,
        volume_bytes_per_proc=volume_per_step * steps,
    )


def deep_halo_row(viscous: bool, nranks: int) -> dict:
    """One processor count of :func:`table_deep_halo`: per processor and
    per step, for the middle rank of an axial ``nranks x 1`` split of the
    paper's 250x100 grid.

    Startups and bytes are measured (:func:`_traffic_per_step`); they do
    not depend on the axial extent, so the probe's blocks are exactly ``H``
    columns wide.  The FP counts are :mod:`repro.numerics.opcount`'s:
    ``useful`` on the owned ``250 / nranks`` columns, ``redundant`` on the
    rank's ghost columns.
    """
    from ..numerics.solver import SolverConfig
    from ..parallel.halo import halo_depth

    depth = halo_depth(SolverConfig(viscous=viscous))
    startups, nbytes = _traffic_per_step(viscous, max(depth, 5) * nranks, nranks)
    per_cell = (navier_stokes_ops() if viscous else euler_ops()).per_cell_step
    nr = constants.PAPER_NR
    return {
        "startups": startups,
        "bytes": nbytes,
        "useful_flops": per_cell * nr * constants.PAPER_NX / nranks,
        "redundant_flops": per_cell * nr * depth * min(nranks - 1, 2),
    }


def table_deep_halo(procs=(2, 4, 8, 16)) -> str:
    """The deep halo in the paper's Table-2 form, beside the paper's V5.

    The paper's per-processor startups and volume (Table 1) do not change
    with the processor count; neither do ours, except that at p = 2 no
    rank has two neighbours.  What grows with p is the share of a rank's
    arithmetic spent on ghost columns — the price of the startups saved.
    """
    steps = constants.PAPER_STEPS
    rows = []
    for name, viscous, paper in (("N-S", True, PAPER_NS), ("Euler", False, PAPER_EULER)):
        for p in procs:
            row = deep_halo_row(viscous, p)
            rows.append([
                name,
                p,
                f"{paper.startups_per_proc / steps:.1f}",
                f"{row['startups']:.1f}",
                f"{paper.volume_bytes_per_proc / steps:,.0f}",
                f"{row['bytes']:,.0f}",
                f"{100 * row['redundant_flops'] / row['useful_flops']:.1f}%",
                f"{flops_per_startup(paper.total_flops, p, paper.startups_per_proc) / 1e3:.0f}K",
                f"{row['useful_flops'] / row['startups'] / 1e3:.0f}K",
                f"{flops_per_byte(paper.total_flops, p, paper.volume_bytes_per_proc):.0f}",
                f"{row['useful_flops'] / row['bytes']:.0f}",
            ])
    return format_table(
        [
            "Appln", "Procs",
            "Start-ups/step paper", "ours",
            "Bytes/step paper", "ours",
            "Redundant FP",
            "FPs/Start-up paper", "ours",
            "FPs/Byte paper", "ours",
        ],
        rows,
        title=(
            "Deep halo vs the paper's Version 5, per processor per step "
            "(250x100 grid; ours measured)"
        ),
    )


def table1(source: str = "paper") -> str:
    """Render Table 1: application characteristics."""
    if source == "paper":
        rows = [PAPER_NS, PAPER_EULER]
        title = "Table 1: Application Characteristics (paper values)"
    elif source == "measured":
        rows = [
            measured_characteristics(viscous=True),
            measured_characteristics(viscous=False),
        ]
        title = "Table 1: Application Characteristics (measured from this package)"
    else:
        raise ValueError(f"unknown source {source!r}")
    return format_table(
        ["Appln", "Total Comp. (FP Ops x1e6)", "Start-ups/proc", "Volume (MB)/proc"],
        [r.as_row() for r in rows],
        title=title,
    )


def table2(
    procs=(1, 2, 4, 8, 16),
    ns: AppCharacteristics = PAPER_NS,
    euler: AppCharacteristics = PAPER_EULER,
) -> str:
    """Render Table 2: computation-communication ratios."""
    rows = []
    for p in procs:
        if p < 2:
            rows.append([p, "inf", "inf", "inf", "inf"])
            continue
        rows.append(
            [
                p,
                f"{flops_per_byte(ns.total_flops, p, ns.volume_bytes_per_proc):.0f}",
                f"{flops_per_byte(euler.total_flops, p, euler.volume_bytes_per_proc):.0f}",
                f"{flops_per_startup(ns.total_flops, p, ns.startups_per_proc) / 1e3:.0f}K",
                f"{flops_per_startup(euler.total_flops, p, euler.startups_per_proc) / 1e3:.0f}K",
            ]
        )
    return format_table(
        [
            "No. of Procs.",
            "FPs/Byte N-S",
            "FPs/Byte Euler",
            "FPs/Start-up N-S",
            "FPs/Start-up Euler",
        ],
        rows,
        title="Table 2: Computation-Communication Ratios",
    )
