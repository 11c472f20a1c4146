"""``FaultyComm``: fault injection + a reliable transport over any
:class:`~repro.msglib.api.Communicator`.

The decorator has two personalities, selected by the plan:

* **Inert** (``plan`` is ``None`` or has nothing enabled): every call
  delegates straight to the wrapped communicator — one attribute load and
  one branch of overhead, bounded by the benchmark suite at <3% of a
  solver step.
* **Active**: sends travel as sequence-numbered frames
  (:mod:`repro.faults.wire`) through an unreliable wire modelled by the
  :class:`~repro.faults.plan.FaultPlan` — attempts may be dropped,
  truncated, duplicated, held back (reordering) or delayed, and failed
  attempts are retransmitted up to ``plan.max_transmits`` times.  Receives
  become idempotent: duplicates are discarded, reordered frames are
  stashed until their turn, corrupt frames are rejected by the length
  check, and a missing message is re-polled with exponential backoff
  before a structured :class:`MessageTimeout` is raised.

Every injected fault and every recovery action is recorded through the
active :mod:`repro.obs` tracer (``cat="fault"`` instants plus per-rank
counters), so ``python -m repro report`` can print a fault timeline.
"""

from __future__ import annotations

import time as _time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..msglib.api import Communicator, MessageView
from ..msglib.vchannel import DeadlockError
from ..obs import current
from .plan import FaultPlan
from .wire import pack_frame, truncate_frame, unpack_frame


class FaultError(RuntimeError):
    """Base class of the structured failures the fault layer raises."""


class RankCrashed(FaultError):
    """Raised on a rank the plan scheduled to crash (fail-stop model)."""

    def __init__(self, rank: int, step: int | None) -> None:
        self.rank = rank
        self.step = step
        at = f" at step {step}" if step is not None else ""
        super().__init__(f"rank {rank} crashed{at} (injected fault)")

    def __reduce__(self):
        # BaseException's default reduce replays args=(message,) into the
        # multi-argument constructor; rebuild from the structured fields
        # instead so the exception survives a process boundary.
        return (type(self), (self.rank, self.step))


class MessageTimeout(FaultError):
    """A message never arrived despite retries — peer dead or frame lost."""

    def __init__(
        self,
        receiver: int,
        source: int,
        tag: str,
        waited: float,
        retries: int,
        step: int | None = None,
    ) -> None:
        self.receiver = receiver
        self.source = source
        self.tag = tag
        self.waited = waited
        self.retries = retries
        self.step = step
        at = f" (step {step})" if step is not None else ""
        super().__init__(
            f"rank {receiver}: receive from rank {source} tag {tag!r} timed "
            f"out after {waited:.2f}s and {retries} retries{at} — sender "
            "crashed or message lost beyond retransmission"
        )

    def __reduce__(self):
        return (
            type(self),
            (self.receiver, self.source, self.tag, self.waited,
             self.retries, self.step),
        )


@dataclass
class FaultStats:
    """Per-rank counts of injected faults and recovery actions."""

    injected: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    retransmissions: int = 0
    dups_discarded: int = 0
    corrupt_discarded: int = 0
    recv_retries: int = 0
    lost_messages: int = 0

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def merged_with(self, other: "FaultStats") -> "FaultStats":
        out = FaultStats()
        for src in (self, other):
            for k, v in src.injected.items():
                out.injected[k] += v
            out.retransmissions += src.retransmissions
            out.dups_discarded += src.dups_discarded
            out.corrupt_discarded += src.corrupt_discarded
            out.recv_retries += src.recv_retries
            out.lost_messages += src.lost_messages
        return out


#: Recovery kind -> the :class:`FaultStats` field it bumps.
_RECOVERY_COUNTER = {
    "retransmission": "retransmissions",
    "recv_retry": "recv_retries",
    "corrupt_rx": "corrupt_discarded",
    "duplicate_rx": "dups_discarded",
}


def _step_of(tag: str) -> int | None:
    """Solver step encoded as the tag's leading ``:``-field, if any."""
    head = tag.split(":", 1)[0]
    return int(head) if head.isdigit() else None


class FaultyComm(Communicator):
    """Fault-injecting, self-healing decorator around a communicator.

    Overrides the public calls (it has no transport of its own) and shares
    the inner endpoint's ``stats``: whatever it puts on the wire is
    accounted once, by the inner endpoint.

    Parameters
    ----------
    inner:
        The real endpoint (a :class:`~repro.msglib.virtual.VirtualComm` or
        :class:`~repro.msglib.mpi.MPIComm`).
    plan:
        The :class:`~repro.faults.plan.FaultPlan`; ``None`` or a plan with
        nothing enabled makes this a transparent pass-through.
    salt:
        Restart-attempt number: decorrelates the fault schedule between
        checkpoint/restart attempts and gates crash injection
        (``plan.crash_attempts``).
    """

    def __init__(
        self, inner: Communicator, plan: FaultPlan | None, salt: int = 0
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.salt = salt
        self.rank = inner.rank
        self.size = inner.size
        self.stats = inner.stats
        self.fault_stats = FaultStats()
        self._enabled = plan is not None and plan.enabled
        self._tx: dict[tuple[int, str], int] = defaultdict(int)
        self._rx: dict[tuple[int, str], dict] = {}
        self._held: list[tuple[int, str, np.ndarray]] = []
        self._step: int = 0
        self._crash_step = plan.crash_step(inner.rank) if plan else None
        self._crashed = False
        self._slow = plan.slow_seconds(inner.rank) if plan else 0.0

    # -- bookkeeping ---------------------------------------------------------
    def _note(self, kind: str, **args) -> None:
        """Record one injected fault."""
        self.fault_stats.injected[kind] += 1
        self._emit(kind, args)

    def _recover(self, kind: str, **ctx) -> None:
        """Record one recovery action; given peer/tag context it also
        lands on the fault timeline."""
        counter = _RECOVERY_COUNTER[kind]
        setattr(self.fault_stats, counter, getattr(self.fault_stats, counter) + 1)
        self._emit(kind, ctx or None)

    def _emit(self, kind: str, args: dict | None) -> None:
        obs = current()
        if args is not None:
            obs.instant(
                f"fault.{kind}", cat="fault", rank=self.rank,
                step=self._step, **args,
            )
        obs.count(f"fault.{kind}", rank=self.rank)

    def _enter_op(self, tag: str) -> None:
        """Per-call prologue: track the step, slow down, maybe crash, and
        release any frames held back for reordering."""
        step = _step_of(tag)
        if step is not None and step > self._step:
            self._step = step
        if self._slow > 0.0:
            _time.sleep(self._slow)
        if (
            not self._crashed
            and self._crash_step is not None
            and self.plan is not None
            and self.salt < self.plan.crash_attempts
            and self._step >= self._crash_step
        ):
            self._crashed = True
            self._note("crash")
        if self._crashed:
            raise RankCrashed(self.rank, self._step)
        self._flush_held()

    def _flush_held(self) -> None:
        while self._held:
            dest, tag, frame = self._held.pop(0)
            self.inner.send(dest, tag, frame)

    def drain(self) -> None:
        """Release held (reordered) frames — call when the program is done
        issuing sends so no frame stays captive forever."""
        self._flush_held()

    # -- point to point ------------------------------------------------------
    def send(self, dest: int, tag: str, array: np.ndarray) -> None:
        if not self._enabled:
            self.inner.send(dest, tag, array)
            return
        self._enter_op(tag)
        plan = self.plan
        seq = self._tx[(dest, tag)]
        self._tx[(dest, tag)] = seq + 1
        frame = pack_frame(seq, array)
        delivered = False
        for attempt in range(max(plan.max_transmits, 1)):
            fate = plan.fate(self.rank, dest, tag, seq, attempt, self.salt)
            if attempt > 0:
                self._recover("retransmission")
            if fate.delay_seconds > 0.0:
                self._note("delay", peer=dest, tag=tag,
                           seconds=round(fate.delay_seconds, 6))
                _time.sleep(fate.delay_seconds)
            if fate.drop:
                self._note("drop", peer=dest, tag=tag, seq=seq)
                continue
            if fate.truncate:
                self._note("truncate", peer=dest, tag=tag, seq=seq)
                self.inner.send(dest, tag, truncate_frame(frame, 0.25))
                continue
            if fate.reorder:
                # Held until the next library call on this endpoint — the
                # following message overtakes it on the wire.
                self._note("reorder", peer=dest, tag=tag, seq=seq)
                self._held.append((dest, tag, frame))
                delivered = True
                break
            self.inner.send(dest, tag, frame)
            delivered = True
            if fate.duplicate:
                self._note("duplicate", peer=dest, tag=tag, seq=seq)
                self.inner.send(dest, tag, frame)
            break
        if not delivered:
            self.fault_stats.lost_messages += 1
            self._note("lost", peer=dest, tag=tag, seq=seq)

    def _stream(self, source: int, tag: str) -> dict:
        stream = self._rx.get((source, tag))
        if stream is None:
            stream = self._rx[(source, tag)] = {"next": 0, "stash": {}}
        return stream

    def recv(
        self, source: int, tag: str, timeout: float | None = None
    ) -> np.ndarray:
        if not self._enabled:
            return self.inner.recv(source, tag, timeout=timeout)
        self._enter_op(tag)
        plan = self.plan
        stream = self._stream(source, tag)
        expected = stream["next"]
        if expected in stream["stash"]:
            stream["next"] = expected + 1
            return stream["stash"].pop(expected)
        poll = plan.recv_timeout if timeout is None else timeout
        retries_left = plan.recv_retries
        waited = 0.0
        while True:
            try:
                raw = self.inner.recv(source, tag, timeout=poll)
            except DeadlockError:
                waited += poll
                if retries_left <= 0:
                    self._recover("recv_retry")
                    raise MessageTimeout(
                        self.rank, source, tag, waited,
                        plan.recv_retries, step=self._step,
                    ) from None
                retries_left -= 1
                poll *= plan.backoff
                self._recover("recv_retry", peer=source, tag=tag)
                continue
            unpacked = unpack_frame(raw)
            if unpacked is None:
                self._recover("corrupt_rx", peer=source, tag=tag)
                continue
            seq, payload = unpacked
            if seq < expected:
                self._recover("duplicate_rx", peer=source, tag=tag, seq=seq)
                continue
            if seq > expected:
                stream["stash"][seq] = payload
                continue
            stream["next"] = expected + 1
            return payload

    def recv_view(self, source: int, tag: str, timeout: float | None = None):
        """:meth:`recv` — framed and healed when injection is on — behind
        the :class:`MessageView` scope."""
        return MessageView(self.recv(source, tag, timeout=timeout))
