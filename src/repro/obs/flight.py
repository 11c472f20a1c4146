"""Flight recorder: a bounded ring of the last N events per rank.

When a rank dies — worker SIGKILLed, process crash, hung collective — the
spans and metrics it was accumulating die with it.  The flight recorder
keeps only the *last* ``capacity`` structured events per rank (sends and
recvs with tags, slot-semaphore waits, collective entries, checkpoint
marks) in a fixed-size ring, cheap enough to leave on for whole runs, and
written so a *parent* process can recover the ring after the writer is
killed:

* :class:`FlightRecorder` — in-memory per-rank rings, installed with
  ``obs.use(flight=...)`` and fed by the ``message`` and ``mark`` verbs
  of :mod:`repro.obs.spine`.  Virtual-cluster ranks are threads sharing
  one recorder.
* :class:`FlightRing` — a file-backed mmap ring with one single-writer
  region per rank.  The process substrate gives each forked rank a
  :class:`FlightRingWriter` over the shared file; because the file lives
  on disk (page cache, ``MAP_SHARED``), any process that knows the path
  can :meth:`FlightRing.open` it and read the last events of every rank —
  including after the writers were SIGKILLed mid-write (torn slots are
  detected and skipped, never propagated).

Post-mortems are flushed as JSON lines (``results/<fp>.flight.jsonl`` in
the service store) via :func:`write_flight_jsonl` /
:func:`read_flight_jsonl` under the ``repro.flight/1`` schema.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import threading
import time
from collections import deque

#: Version tag on flushed flight files.
FLIGHT_SCHEMA = "repro.flight/1"

#: Default ring depth per rank.
DEFAULT_CAPACITY = 64
#: Default byte budget per ring slot (one JSON-encoded event).
DEFAULT_SLOT_BYTES = 256


class FlightRecorder:
    """In-memory per-rank rings of the last ``capacity`` events.

    ``ring_path`` does not change this recorder's own behaviour — it names
    the file :class:`~repro.obs.ranks.ForkedRanks` should back a process
    cluster's rank writers with, so the events survive a SIGKILL
    (``None`` means a throwaway temp file).
    """

    def __init__(
        self, capacity: int = DEFAULT_CAPACITY, ring_path: str | None = None
    ) -> None:
        self.capacity = capacity
        self.ring_path = ring_path
        self._events: dict[int, deque] = {}
        self._lock = threading.Lock()
        self._clock = time.time

    def record(self, kind: str, rank: int = 0, **fields) -> None:
        event = {"kind": kind, "rank": rank, "t": self._clock()}
        if fields:
            event.update(fields)
        with self._lock:
            ring = self._events.get(rank)
            if ring is None:
                ring = self._events[rank] = deque(maxlen=self.capacity)
            ring.append(event)

    def ingest(self, rank: int, events: list[dict]) -> None:
        """Fold events recovered from another process's ring into ours."""
        with self._lock:
            ring = self._events.get(rank)
            if ring is None:
                ring = self._events[rank] = deque(maxlen=self.capacity)
            ring.extend(events)

    def events(self, rank: int) -> list[dict]:
        with self._lock:
            return list(self._events.get(rank, ()))

    def events_by_rank(self) -> dict[int, list[dict]]:
        with self._lock:
            return {r: list(d) for r, d in sorted(self._events.items())}


# -- crash-survivable file ring ----------------------------------------------

_MAGIC = b"RFR1"
_HEADER = struct.Struct("<4sIII")  # magic, nranks, capacity, slot_bytes
_COUNTER = struct.Struct("<Q")  # per-rank monotone write count
_SLOT_LEN = struct.Struct("<I")  # payload length prefix per slot


class FlightRingWriter:
    """Single-writer view of one rank's region of a :class:`FlightRing`.

    Satisfies the recorder protocol (``record``), so a forked rank
    process installs one as its flight sink and every hot-path hook
    writes straight into the shared file.  A slot is written payload
    first, length second, counter last — a reader that races (or outlives)
    the writer sees either the previous complete event or a torn slot that
    fails to parse, never a half-event accepted as truth.
    """

    __slots__ = ("_ring", "_rank", "_count", "_clock")

    def __init__(self, ring: "FlightRing", rank: int) -> None:
        self._ring = ring
        self._rank = rank
        self._count = ring._read_counter(rank)
        self._clock = time.time

    def record(self, kind: str, rank: int | None = None, **fields) -> None:
        event = {"kind": kind, "rank": self._rank, "t": self._clock()}
        if fields:
            event.update(fields)
        payload = json.dumps(event, separators=(",", ":")).encode()
        self._ring._write_slot(self._rank, self._count, payload)
        self._count += 1


class FlightRing:
    """File-backed mmap ring: ``header | per-rank (counter + slots)``.

    Layout (all little-endian)::

        [4s magic][I nranks][I capacity][I slot_bytes]
        rank 0: [Q write_count][capacity x (I length + payload)]
        rank 1: ...

    One writer per rank region (no cross-rank locking); readers in any
    process open the same file and tolerate torn slots.
    """

    def __init__(self, path: str, fileobj, mm: mmap.mmap, nranks: int,
                 capacity: int, slot_bytes: int) -> None:
        self.path = path
        self._file = fileobj
        self._mm = mm
        self.nranks = nranks
        self.capacity = capacity
        self.slot_bytes = slot_bytes

    # -- construction ---------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str,
        nranks: int,
        capacity: int = DEFAULT_CAPACITY,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
    ) -> "FlightRing":
        """Create (or truncate) the ring file for ``nranks`` writers."""
        size = _HEADER.size + nranks * cls._rank_region(capacity, slot_bytes)
        fh = open(path, "w+b")
        try:
            fh.truncate(size)
            fh.write(_HEADER.pack(_MAGIC, nranks, capacity, slot_bytes))
            fh.flush()
            mm = mmap.mmap(fh.fileno(), size)
        except BaseException:
            fh.close()
            raise
        return cls(path, fh, mm, nranks, capacity, slot_bytes)

    @classmethod
    def open(cls, path: str) -> "FlightRing":
        """Map an existing ring file (reader side; e.g. post-mortem)."""
        fh = open(path, "r+b")
        try:
            header = fh.read(_HEADER.size)
            magic, nranks, capacity, slot_bytes = _HEADER.unpack(header)
            if magic != _MAGIC:
                raise ValueError(f"{path}: not a flight-ring file")
            size = _HEADER.size + nranks * cls._rank_region(capacity, slot_bytes)
            mm = mmap.mmap(fh.fileno(), size)
        except BaseException:
            fh.close()
            raise
        return cls(path, fh, mm, nranks, capacity, slot_bytes)

    @staticmethod
    def _rank_region(capacity: int, slot_bytes: int) -> int:
        return _COUNTER.size + capacity * (_SLOT_LEN.size + slot_bytes)

    # -- geometry -------------------------------------------------------------
    def _rank_offset(self, rank: int) -> int:
        if not 0 <= rank < self.nranks:
            raise IndexError(f"rank {rank} outside ring (nranks={self.nranks})")
        return _HEADER.size + rank * self._rank_region(
            self.capacity, self.slot_bytes
        )

    def _slot_offset(self, rank: int, index: int) -> int:
        return (
            self._rank_offset(rank)
            + _COUNTER.size
            + (index % self.capacity) * (_SLOT_LEN.size + self.slot_bytes)
        )

    # -- writer side ----------------------------------------------------------
    def writer(self, rank: int) -> FlightRingWriter:
        return FlightRingWriter(self, rank)

    def _read_counter(self, rank: int) -> int:
        off = self._rank_offset(rank)
        return _COUNTER.unpack_from(self._mm, off)[0]

    def _write_slot(self, rank: int, index: int, payload: bytes) -> None:
        payload = payload[: self.slot_bytes]
        off = self._slot_offset(rank, index)
        self._mm[off + _SLOT_LEN.size : off + _SLOT_LEN.size + len(payload)] = (
            payload
        )
        _SLOT_LEN.pack_into(self._mm, off, len(payload))
        _COUNTER.pack_into(self._mm, self._rank_offset(rank), index + 1)

    # -- reader side ----------------------------------------------------------
    def read(self, rank: int) -> list[dict]:
        """The rank's surviving events, oldest first; torn slots skipped."""
        count = self._read_counter(rank)
        if count == 0:
            return []
        events = []
        for index in range(max(0, count - self.capacity), count):
            off = self._slot_offset(rank, index)
            (length,) = _SLOT_LEN.unpack_from(self._mm, off)
            if not 0 < length <= self.slot_bytes:
                continue
            raw = self._mm[off + _SLOT_LEN.size : off + _SLOT_LEN.size + length]
            try:
                event = json.loads(raw.decode())
            except (ValueError, UnicodeDecodeError):
                continue  # torn write from a killed rank
            if isinstance(event, dict):
                events.append(event)
        return events

    def read_all(self) -> dict[int, list[dict]]:
        return {rank: self.read(rank) for rank in range(self.nranks)}

    def close(self) -> None:
        try:
            self._mm.close()
        finally:
            self._file.close()

    def unlink(self) -> None:
        try:
            os.unlink(self.path)
        except OSError:
            pass


# -- post-mortem files --------------------------------------------------------

def write_flight_jsonl(events_by_rank: dict[int, list[dict]], path) -> None:
    """Flush recorder contents as JSON lines: one meta line, then events."""
    ranks = sorted(events_by_rank)
    with open(path, "w") as fh:
        fh.write(
            json.dumps(
                {
                    "schema": FLIGHT_SCHEMA,
                    "ranks": ranks,
                    "events": sum(len(events_by_rank[r]) for r in ranks),
                },
                sort_keys=True,
            )
            + "\n"
        )
        for rank in ranks:
            for event in events_by_rank[rank]:
                fh.write(json.dumps(event, sort_keys=True) + "\n")


def read_flight_jsonl(path) -> dict[int, list[dict]]:
    """Load a flushed flight file back into ``rank -> events``."""
    events: dict[int, list[dict]] = {}
    with open(path) as fh:
        header = json.loads(fh.readline())
        if header.get("schema") != FLIGHT_SCHEMA:
            raise ValueError(
                f"{path}: unknown flight schema {header.get('schema')!r}"
            )
        for line in fh:
            line = line.strip()
            if not line:
                continue
            event = json.loads(line)
            events.setdefault(int(event.get("rank", 0)), []).append(event)
    return events
