"""The one observation seam: a hot seam emits once, this file routes it.

Four sinks can watch a run — the :class:`~repro.obs.tracer.Tracer`
(timeline), the :class:`~repro.obs.metrics.MetricsRegistry` (ledger
aggregates), a step stream publisher (live progress) and a flight
recorder (last events, for post-mortems).  They sit in the four slots of
one :class:`Sinks` record (``None`` = off) behind :func:`current`, and
instrumented code never addresses one of them: it calls a *verb* on
``current()`` and the verb decides which sinks keep the event, and under
which name.  That routing is this table and nothing else:

``span(name, cat, rank, **args)``
    tracer: the interval ``name``.
``stages(rank, n)``, then ``with stage("dt"): ...`` inside it
    tracer: the ``solver.step`` span around one ``solver.<stage>`` span
    each; metrics: the ``stage.<stage>`` histograms, on one clock so that
    they tile the step.
``step(rank, wall, cells, record)``
    metrics: ``solver.step_seconds``, ``solver.steps``,
    ``solver.cell_steps``; stream: ``record()``, built only on demand.
``exchange(kind, comm, tag)``
    tracer: the ``halo.<kind>`` span; metrics: the ``halo.<kind>_seconds``
    histogram, ``halo.seconds``, ``halo.exchanges``, and from the
    communicator's stats delta ``halo.bytes`` and
    ``halo.<kind>_wait_seconds`` (the part of the exchange its receives
    spent blocked).
``message(kind, rank, peer, tag, nbytes, seconds, wait)``
    flight: a ``send`` / ``recv`` / ``recv_view`` event; metrics: the
    ``comm.send_call_seconds`` / ``comm.recv_call_seconds`` histogram and,
    of a receive, ``comm.recv_wait_seconds`` (the blocked part of the call).
``mark(kind, rank, **fields)``
    flight: the event ``kind`` (``collective``, ``slot_wait``,
    ``checkpoint``).
``instant(name, cat, rank, **args)``
    tracer: the instant ``name``.
``count(name, value, rank)``
    metrics: the counter ``name`` (``fault.<kind>``, ``sim.*``,
    ``comm.barrier_wait_seconds``).

No verb keeps a total twice.  A rank's messages, bytes and blocked time
are the communicator's own :class:`~repro.msglib.api.CommStats`
(``RunResult.per_rank_stats``; the report books them as ``comm.*``);
every other total is a registry counter named above or the sum of the
spans of one name (:meth:`Trace.total <repro.obs.tracer.Trace.total>`).
The tracer holds the timeline and counts nothing.

With nothing installed every verb is a slot test; the ones used as
context managers return one shared do-nothing object.

:func:`use` scopes the sinks: a sink it names replaces the enclosing one
(``None`` switches it off), a sink it does not name is inherited.  That
is the whole rule for who observes a run — ``repro.api.run`` names what
the request asked for and inherits the rest from its caller, on every
route.  Ranks on threads share the installed sinks; ranks in forked
processes get local ones that are merged back
(:class:`~repro.obs.ranks.ForkedRanks`).

One hand-off bypasses the verbs: the discrete-event simulator stamps its
records with the *engine's* clock, not the wall clock, so
``repro.api`` passes it ``current().tracer`` explicitly
(``SimulatedMachine.run(tracer=)`` / ``Engine(tracer=)``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


class _Nothing:
    """What a context-manager verb returns when no sink would keep it."""

    __slots__ = ()

    def __enter__(self) -> "_Nothing":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def __call__(self, name: str) -> "_Nothing":
        """``stages`` hands out stages; off, a stage is nothing as well."""
        return self


_NOTHING = _Nothing()


class _Stages:
    """A solver step in flight: its span and the clock its stages share."""

    __slots__ = ("sinks", "rank", "span", "mark")

    def __init__(self, sinks: "Sinks", rank: int, nstep: int) -> None:
        self.sinks = sinks
        self.rank = rank
        self.mark = perf_counter()
        self.span = sinks.span("solver.step", rank=rank, step=nstep)

    def __enter__(self) -> "_Stages":
        self.span.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.span.__exit__(exc_type, exc, tb)

    def __call__(self, name: str) -> "_Stage":
        return _Stage(self, name)


class _Stage:
    """One stage of a step in flight (see :meth:`Sinks.stages`)."""

    __slots__ = ("step", "name", "span")

    def __init__(self, step: _Stages, name: str) -> None:
        self.step = step
        self.name = name
        self.span = step.sinks.span("solver." + name, rank=step.rank)

    def __enter__(self) -> None:
        self.span.__enter__()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.span.__exit__(exc_type, exc, tb)
        step = self.step
        mx = step.sinks.metrics
        if mx is not None and exc_type is None:
            # The clock is read once per stage and handed on, so what runs
            # between two stages is booked to the later one and the
            # histograms add up to the step.
            now = perf_counter()
            mx.observe("stage." + self.name, now - step.mark, rank=step.rank)
            step.mark = now


class _Exchange:
    """One halo exchange in flight (see :meth:`Sinks.exchange`)."""

    __slots__ = ("sinks", "kind", "comm", "span", "s0", "t0")

    def __init__(self, sinks: "Sinks", kind: str, comm, tag: str) -> None:
        self.sinks = sinks
        self.kind = kind
        self.comm = comm
        self.span = sinks.span("halo." + kind, cat="halo", rank=comm.rank, tag=tag)

    def _stats(self) -> tuple[int, float] | None:
        """``(bytes both ways, seconds its receives were blocked)`` so far,
        from the communicator's own accounting — so frames a fault layer
        retransmits are counted as sent."""
        stats = getattr(self.comm, "stats", None)
        if stats is None:
            return None
        return stats.bytes_sent + stats.bytes_received, stats.wait_seconds

    def __enter__(self) -> None:
        self.s0 = None if self.sinks.metrics is None else self._stats()
        self.t0 = perf_counter()
        self.span.__enter__()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.span.__exit__(exc_type, exc, tb)
        mx = self.sinks.metrics
        if mx is None or exc_type is not None:
            return
        seconds = perf_counter() - self.t0
        rank = self.comm.rank
        mx.observe(f"halo.{self.kind}_seconds", seconds, rank=rank)
        mx.count("halo.seconds", seconds, rank=rank)
        mx.count("halo.exchanges", 1.0, rank=rank)
        if self.s0 is not None:
            nbytes, wait = self._stats()
            mx.count("halo.bytes", float(nbytes - self.s0[0]), rank=rank)
            mx.count(f"halo.{self.kind}_wait_seconds", wait - self.s0[1], rank=rank)


@dataclass(slots=True, eq=False)
class Sinks:
    """The four sinks of a scope (``None`` = off) and the verbs that feed
    them.  Never mutated once installed: :func:`use` builds a new record, so
    a seam that fetched ``current()`` works against one consistent set."""

    tracer: object = None
    metrics: object = None
    stream: object = None
    flight: object = None

    # -- timeline ----------------------------------------------------------------
    def span(self, name: str, cat: str = "solver", rank: int | None = None, **args):
        """A named interval on the timeline; use as a context manager."""
        if self.tracer is None:
            return _NOTHING
        return self.tracer.span(name, cat, rank, **args)

    def instant(
        self, name: str, cat: str = "event", rank: int | None = None, **args
    ) -> None:
        """A point on the timeline (an injected fault, a restart)."""
        if self.tracer is not None:
            self.tracer.instant(name, cat, rank, **args)

    # -- the solver step -----------------------------------------------------------
    def stages(self, rank: int, nstep: int):
        """The step about to run, as ``with obs.stages(rank, n) as stage:``;
        inside, ``with stage("dt"): ...`` is one stage of it."""
        if self.tracer is None and self.metrics is None:
            return _NOTHING
        return _Stages(self, rank, nstep)

    def step(self, rank: int, wall: float, cells: int, record) -> None:
        """A finished step: its totals, and — only if someone listens —
        the ``repro.stream/1`` record ``record()`` builds."""
        mx = self.metrics
        if mx is not None:
            mx.observe("solver.step_seconds", wall, rank=rank)
            mx.count("solver.steps", 1.0, rank=rank)
            mx.count("solver.cell_steps", float(cells), rank=rank)
        if self.stream is not None:
            self.stream.publish(record())

    # -- communication -------------------------------------------------------------
    def exchange(self, kind: str, comm, tag: str):
        """One halo exchange over ``comm``; use as a context manager."""
        if self.tracer is None and self.metrics is None:
            return _NOTHING
        return _Exchange(self, kind, comm, tag)

    def message(
        self, kind: str, rank: int, peer: int, tag: str, nbytes: int,
        seconds: float, wait: float = 0.0,
    ) -> None:
        """One completed ``send`` / ``recv`` / ``recv_view``; ``wait`` is
        the part of a receive's ``seconds`` spent blocked before the
        message had arrived."""
        if self.flight is not None:
            self.flight.record(kind, rank=rank, peer=peer, tag=tag, nbytes=nbytes)
        if self.metrics is not None:
            sent = kind == "send"
            self.metrics.observe(
                "comm.send_call_seconds" if sent else "comm.recv_call_seconds",
                seconds, rank=rank,
            )
            if not sent:
                self.metrics.observe("comm.recv_wait_seconds", wait, rank=rank)

    def mark(self, kind: str, rank: int, **fields) -> None:
        """A breadcrumb for post-mortems: ``collective``, ``slot_wait``,
        ``checkpoint``."""
        if self.flight is not None:
            self.flight.record(kind, rank=rank, **fields)

    # -- totals --------------------------------------------------------------------
    def count(self, name: str, value: float = 1.0, rank: int | None = None) -> None:
        """Add to the per-rank ledger counter ``name``."""
        if self.metrics is not None:
            self.metrics.count(name, value, rank=rank)

    # -- reading back --------------------------------------------------------------
    def post_mortem(self) -> dict[int, list] | None:
        """The last events of every rank, when a recorder holding them in
        this process is installed (a forked rank's ring writer is not)."""
        read = getattr(self.flight, "events_by_rank", None)
        return read() if read is not None else None


_current = Sinks()


def current() -> Sinks:
    """The sinks in effect (all four slots ``None`` outside any scope)."""
    return _current


def _install(sinks: Sinks) -> Sinks:
    """Put ``sinks`` in effect.  :func:`use` scopes this; only a forked
    rank, which never returns to its parent's scope, calls it bare
    (:meth:`repro.obs.ranks.ForkedRanks.enter`)."""
    global _current
    _current = sinks
    return sinks


_INHERIT = object()


@contextmanager
def use(tracer=_INHERIT, metrics=_INHERIT, stream=_INHERIT, flight=_INHERIT):
    """Install sinks for a scope; the enclosing ones come back on exit.

    A sink named here replaces the enclosing one, ``None`` switches it
    off, and one not named is inherited.  Yields the :class:`Sinks` in
    effect inside the scope."""
    outer = _current
    inner = Sinks(
        outer.tracer if tracer is _INHERIT else tracer,
        outer.metrics if metrics is _INHERIT else metrics,
        outer.stream if stream is _INHERIT else stream,
        outer.flight if flight is _INHERIT else flight,
    )
    _install(inner)
    try:
        yield inner
    finally:
        _install(outer)
