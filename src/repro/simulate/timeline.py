"""Per-rank time accounting: the paper's execution-time split.

Section 6: "wherever feasible, we have separated the execution time into
two additive components: processor busy time and non-overlapped
communication time.  The processor busy time is itself composed of the
actual computation time and the software overheads associated with sending
and receiving messages."  :class:`RankTimeline` implements exactly that
split: compute and library CPU overheads accumulate into ``busy``;
time blocked waiting on the network or on late messages accumulates into
``comm_wait``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Segment:
    """One traced activity interval of a rank."""

    kind: str  # "compute", "library", or "wait"
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class RankTimeline:
    """Accumulated time components for one rank."""

    rank: int
    busy: float = 0.0
    """Compute + message software overheads (paper's 'processor busy')."""
    compute: float = 0.0
    """The compute-only part of ``busy``."""
    library: float = 0.0
    """The message-software part of ``busy``."""
    comm_wait: float = 0.0
    """Non-overlapped communication (blocked on wire/late messages)."""
    finished_at: float = 0.0
    segments: list[Segment] | None = None
    """Traced activity intervals (``None`` unless tracing was enabled)."""

    @property
    def total(self) -> float:
        return self.busy + self.comm_wait
