"""The persistent result store: content-addressed by request fingerprint.

Layout under one root directory (default
``<data_dir>/service/`` — see :func:`repro.config.default_service_dir`)::

    index.jsonl            one JSON line per completed run (append-only)
    results/<fp>.pkl       pickled payload (RunResult, or experiment text)

The index follows the run-ledger idiom (``BENCH_runs.jsonl``): append-only
JSON lines, last line wins per fingerprint, rebuildable by rescanning.
Payload files are written atomically (temp + ``os.replace``) and named by
fingerprint, so concurrent workers computing the same fingerprint are
idempotent — the bytes they race to write are identical.

Pickle round-trips numpy arrays exactly, so a cached
:class:`~repro.api.RunResult` is **bitwise-identical** to the one the
original execution returned (the end-to-end service test asserts this).
"""

from __future__ import annotations

import json
import os
import pickle
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from ..config import default_service_dir

__all__ = ["STORE_SCHEMA", "ResultStore", "StoreEntry"]

#: Index line format tag; bump on incompatible shape changes.
STORE_SCHEMA = "repro.service/1"


@dataclass
class StoreEntry:
    """One completed run in the store (one ``index.jsonl`` line)."""

    fingerprint: str
    kind: str
    """``"run"`` (a RunRequest) or ``"experiment"``."""
    request: dict
    """The wire form of the request that produced this entry."""
    report: dict
    """Summary manifest: a :class:`~repro.obs.PerfReport` dict for runs,
    a small ``{id, chars, sha256}`` record for experiments."""
    payload: str
    """Payload file path, relative to the store root."""
    created: float = 0.0
    schema: str = STORE_SCHEMA
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, d: dict) -> "StoreEntry":
        return cls(
            schema=d.get("schema", STORE_SCHEMA),
            fingerprint=d["fingerprint"],
            kind=d.get("kind", "run"),
            request=d.get("request") or {},
            report=d.get("report") or {},
            payload=d["payload"],
            created=float(d.get("created", 0.0)),
            meta=d.get("meta") or {},
        )


def write_payload(root: str | os.PathLike, fingerprint: str, payload: Any) -> str:
    """Atomically pickle ``payload`` under ``root``; returns the relative path.

    Reads no index, so workers call it without opening a store.  Temp file
    + ``os.replace``: a concurrent identical write overwrites equal bytes.
    """
    rel = ResultStore.payload_relpath(fingerprint)
    final = Path(root) / rel
    final.parent.mkdir(parents=True, exist_ok=True)
    tmp = final.with_suffix(f".tmp.{os.getpid()}")
    with open(tmp, "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, final)
    return rel


class ResultStore:
    """Fingerprint-keyed persistent cache of run results.

    Single-writer index discipline: only the service parent process (or a
    standalone caller) appends index lines via :meth:`commit` / :meth:`put`;
    worker processes write payload files only (:func:`write_payload`).

    The map follows the append-only index incrementally (:meth:`refresh`)
    under one lock, so a handler thread's refresh cannot drop an entry
    the pump thread commits meanwhile.
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = Path(root) if root is not None else default_service_dir()
        self.index_path = self.root / "index.jsonl"
        self._lock = threading.Lock()
        self._forget(None)
        self.refresh()

    # -- reading -------------------------------------------------------------

    def refresh(self) -> None:
        """Catch up with the index: one ``stat``, then parse only the
        complete lines appended since (last line wins per fingerprint);
        rescan only when the file shrank, vanished or changed identity.
        An unterminated tail (a writer mid-append) waits for its newline."""
        with self._lock:
            try:
                st = os.stat(self.index_path)
                if st.st_size == self._offset and (st.st_dev, st.st_ino) == self._ident:
                    return
                with open(self.index_path, "rb") as fh:
                    st = os.fstat(fh.fileno())  # the file actually opened
                    ident = (st.st_dev, st.st_ino)
                    if ident != self._ident or st.st_size < self._offset:
                        self._forget(ident)
                    fh.seek(self._offset)
                    tail = fh.read()
            except FileNotFoundError:
                self._forget(None)
                return
            for raw in tail[: tail.rfind(b"\n") + 1].split(b"\n")[:-1]:
                self._consume(raw)
                self._offset += len(raw) + 1
                self._lineno += 1

    def _forget(self, ident: tuple[int, int] | None) -> None:
        """Start over, on a possibly different index file."""
        self._entries: dict[str, StoreEntry] = {}
        self._ident = ident
        self._offset = self._lineno = 0  # bytes / lines consumed so far
        self.skipped_lines = 0
        """Terminated index lines that were not JSON objects (torn writes)."""

    def _consume(self, raw: bytes) -> None:
        """Check one terminated index line and fold it into the map."""
        if not raw.strip():
            return
        try:
            d = json.loads(raw)
            schema = d.get("schema")
        except (ValueError, AttributeError):
            # Not a JSON object (a torn write): its fingerprint stays
            # absent, so the request is simply executed again.
            self.skipped_lines += 1
            where = f"{self.index_path}:{self._lineno + 1}"
            warnings.warn(f"{where}: skipping corrupt index line", stacklevel=3)
            return
        if schema != STORE_SCHEMA:
            raise ValueError(
                f"{self.index_path}:{self._lineno + 1}: unknown store "
                f"schema {schema!r} (expected {STORE_SCHEMA!r})"
            )
        entry = StoreEntry.from_dict(d)
        self._entries[entry.fingerprint] = entry

    def __contains__(self, fingerprint: str) -> bool:
        return self.get(fingerprint) is not None

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, fingerprint: str) -> StoreEntry | None:
        with self._lock:  # a rescan in progress is never seen half-done
            return self._entries.get(fingerprint)

    def entries(self) -> Iterable[StoreEntry]:
        with self._lock:
            return list(self._entries.values())

    def load_result(self, fingerprint: str) -> Any:
        """Unpickle the stored payload (RunResult / experiment text)."""
        entry = self.get(fingerprint)
        if entry is None:
            raise KeyError(f"fingerprint {fingerprint!r} not in store")
        with open(self.root / entry.payload, "rb") as fh:
            return pickle.load(fh)

    # -- writing -------------------------------------------------------------

    @staticmethod
    def payload_relpath(fingerprint: str) -> str:
        return str(Path("results") / f"{fingerprint}.pkl")

    def write_payload(self, fingerprint: str, payload: Any) -> str:
        """Atomically write the pickled payload (see :func:`write_payload`)."""
        return write_payload(self.root, fingerprint, payload)

    def commit(
        self,
        fingerprint: str,
        *,
        kind: str,
        request: dict,
        report: dict,
        payload: str | None = None,
        meta: dict | None = None,
    ) -> StoreEntry:
        """Append one index line for an already-written payload."""
        entry = StoreEntry(
            fingerprint=fingerprint,
            kind=kind,
            request=request,
            report=report,
            payload=payload or self.payload_relpath(fingerprint),
            created=time.time(),
            meta=meta or {},
        )
        line = json.dumps(entry.to_dict(), sort_keys=True).encode() + b"\n"
        self.index_path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock, open(self.index_path, "a+b") as fh:
            size = fh.seek(0, os.SEEK_END)
            if size:
                fh.seek(size - 1)
                if fh.read(1) != b"\n":  # never fuse with a torn fragment
                    line = b"\n" + line
            fh.write(line)
            self._entries[fingerprint] = entry
        return entry

    def put(
        self,
        fingerprint: str,
        payload: Any,
        *,
        kind: str,
        request: dict,
        report: dict,
        meta: dict | None = None,
    ) -> StoreEntry:
        """Write payload + index line in one call (standalone use)."""
        return self.commit(
            fingerprint,
            kind=kind,
            request=request,
            report=report,
            payload=self.write_payload(fingerprint, payload),
            meta=meta,
        )
