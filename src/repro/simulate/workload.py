"""Application workload descriptions (the paper's Table 1).

A :class:`Workload` captures what one SPMD rank does per time step: compute
segments interleaved with neighbour messages.  Two sources:

* :meth:`Workload.paper` — the paper's measured application
  characteristics (Table 1: 145,000 / 77,000 MFLOP total; 80,000 / 60,000
  startups and 125 / 95 MB per processor over 5000 steps).  This is the
  default for all figure reproductions: it is the workload the original
  experiments actually presented to the machines.
* :meth:`Workload.measured` — characteristics measured from *this
  package's own* distributed solver (per-rank
  :class:`~repro.msglib.api.CommStats` from a real run), for the honest
  cross-check the ``workload_comparison`` artifact prints.  Our halo plan
  exchanges somewhat more than the 1995 code (the fourth-difference
  filter's state halo and both-phase velocity/temperature ghosts), so the
  derived volumes are larger; the ratios and scaling shapes match.

Startup counting: Table 1's per-processor startups divided by 5000 steps
give 16 (NS) and 12 (Euler) per step — consistent with counting each send
*and* each receive at an interior rank with two neighbours (8 and 6 sends
per step respectively).
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import constants


@dataclass(frozen=True)
class Application:
    """Whole-run application characteristics (paper Table 1)."""

    name: str
    total_flops: float
    startups_per_proc: int
    volume_bytes_per_proc: float
    steps: int = constants.PAPER_STEPS
    grid_cells: int = constants.PAPER_NX * constants.PAPER_NR

    @property
    def flops_per_step(self) -> float:
        return self.total_flops / self.steps

    @property
    def sends_per_step(self) -> float:
        """Interior-rank sends per step (startups count sends + receives)."""
        return self.startups_per_proc / (2 * self.steps)

    @property
    def bytes_per_send(self) -> float:
        return self.volume_bytes_per_proc / self.steps / self.sends_per_step


NAVIER_STOKES = Application(
    name="Navier-Stokes",
    total_flops=constants.PAPER_TOTAL_FLOPS_NS,
    startups_per_proc=constants.PAPER_STARTUPS_NS,
    volume_bytes_per_proc=constants.PAPER_VOLUME_NS_MB * constants.MB,
)

EULER = Application(
    name="Euler",
    total_flops=constants.PAPER_TOTAL_FLOPS_EULER,
    startups_per_proc=constants.PAPER_STARTUPS_EULER,
    volume_bytes_per_proc=constants.PAPER_VOLUME_EULER_MB * constants.MB,
)


@dataclass(frozen=True)
class Message:
    """One neighbour message an interior rank sends each step."""

    direction: str
    """'L' (to the left/upstream neighbour) or 'R'."""
    nbytes: int
    kind: str
    """'uvT' (velocity/temperature), 'flux' (stencil columns), 'state'
    (filter halo), 'q' (conservative columns).  Version 7 splits 'flux'
    messages into single columns."""


@dataclass(frozen=True)
class StepPhase:
    """A compute segment followed by its phase-boundary messages."""

    compute_fraction: float
    messages: tuple[Message, ...] = ()


@dataclass(frozen=True)
class Workload:
    """Per-step, per-rank workload: phases of compute + messages."""

    app: Application
    phases: tuple[StepPhase, ...]
    source: str = "paper"

    def __post_init__(self) -> None:
        total = sum(ph.compute_fraction for ph in self.phases)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"compute fractions sum to {total}, expected 1")

    # -- derived quantities ---------------------------------------------------
    def flops_per_step_per_rank(self, nprocs: int) -> float:
        return self.app.flops_per_step / nprocs

    def sends_per_step(self) -> int:
        """Interior-rank sends per step."""
        return sum(len(ph.messages) for ph in self.phases)

    def volume_per_step(self) -> float:
        """Interior-rank bytes sent per step."""
        return float(sum(m.nbytes for ph in self.phases for m in ph.messages))

    def working_set_bytes(self, nprocs: int) -> float:
        """Per-rank sweep working set: local cells x ~10 live double arrays."""
        return self.app.grid_cells / nprocs * 8.0 * 10.0

    # -- constructors -----------------------------------------------------------
    @classmethod
    def paper(cls, app: Application) -> "Workload":
        """The paper's Table-1 communication structure.

        Navier-Stokes (8 sends/step): two velocity/temperature exchanges
        (both directions each, around the predictor and corrector), one
        grouped flux-column message per one-sided phase, and the
        conservative-state halo.  Euler (6 sends/step): no
        velocity/temperature messages.  Message sizes split the Table-1
        per-step volume evenly (the paper reports only totals).
        """
        per_send = int(round(app.bytes_per_send))
        if app.name == "Navier-Stokes":
            phases = (
                StepPhase(
                    0.20,
                    (Message("L", per_send, "uvT"), Message("R", per_send, "uvT")),
                ),
                StepPhase(0.20, (Message("L", per_send, "flux"),)),
                StepPhase(
                    0.20,
                    (Message("L", per_send, "uvT"), Message("R", per_send, "uvT")),
                ),
                StepPhase(0.20, (Message("R", per_send, "flux"),)),
                StepPhase(
                    0.20,
                    (
                        Message("L", per_send, "state"),
                        Message("R", per_send, "state"),
                    ),
                ),
            )
        else:
            phases = (
                StepPhase(
                    0.25,
                    (Message("L", per_send, "q"), Message("R", per_send, "q")),
                ),
                StepPhase(0.25, (Message("L", per_send, "flux"),)),
                StepPhase(0.25, (Message("R", per_send, "flux"),)),
                StepPhase(
                    0.25,
                    (
                        Message("L", per_send, "state"),
                        Message("R", per_send, "state"),
                    ),
                ),
            )
        return cls(app=app, phases=phases, source="paper")

    def with_volume_scale(self, scale: float, label: str = "") -> "Workload":
        """A copy with every message's size multiplied by ``scale``.

        Used to predict the paper's Section-8 radial-blocking variant on
        the 1995 platforms: with radial blocks the halo lines are nx-long
        rows instead of nr-long columns (x2.5 on the 250x100 grid), with
        the same message count and step structure.
        """
        phases = tuple(
            StepPhase(
                ph.compute_fraction,
                tuple(
                    Message(m.direction, int(round(m.nbytes * scale)), m.kind)
                    for m in ph.messages
                ),
            )
            for ph in self.phases
        )
        return Workload(
            app=self.app,
            phases=phases,
            source=label or f"{self.source}*vol{scale:g}",
        )

    @classmethod
    def measured(
        cls,
        app: Application,
        sends_per_step: float,
        bytes_per_step: float,
    ) -> "Workload":
        """Workload with this package's measured communication intensity.

        Keeps the paper's phase structure but rescales message count and
        size to what the instrumented distributed solver actually sends
        (see ``repro.experiments.characterize``).
        """
        base = cls.paper(app)
        scale_n = sends_per_step / base.sends_per_step()
        per_send = bytes_per_step / sends_per_step
        phases = []
        for ph in base.phases:
            msgs = []
            for m in ph.messages:
                n = max(1, round(scale_n))
                for _ in range(n):
                    msgs.append(Message(m.direction, int(per_send), m.kind))
            phases.append(StepPhase(ph.compute_fraction, tuple(msgs)))
        return cls(app=app, phases=tuple(phases), source="measured")


def workload_for(app: Application, source: str = "paper", **kwargs) -> Workload:
    """Convenience dispatcher."""
    if source == "paper":
        return Workload.paper(app)
    if source == "measured":
        return Workload.measured(app, **kwargs)
    raise ValueError(f"unknown workload source {source!r}")
