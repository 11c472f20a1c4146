"""Isolation for one harness run: a private work directory inside the
checkout, pinned environment, a stall watchdog, leak checks and the
provenance block of the report."""

from __future__ import annotations

import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HARNESS_DIR = Path(__file__).resolve().parent
REPO_ROOT = HARNESS_DIR.parents[1]
#: Everything a run writes lands under here (ignored by git, removed at exit).
WORK_ROOT = REPO_ROOT / ".bench_work"

#: AF_UNIX paths are limited to ~107 bytes; the socket is addressed
#: relative to the current directory to stay under it in deep checkouts.
_MAX_SOCKET_PATH = 100


class Stalled(RuntimeError):
    """The watchdog fired: a phase made no progress within its limit."""


class Workdir:
    """Fresh ``REPRO_DATA_DIR``, ``REPRO_CC_CACHE``, store and socket for
    one run, so nothing touches the repo's own ledger or a warm cache."""

    def __init__(self) -> None:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        self._saved = {k: os.environ.get(k) for k in self._pins()}
        for key, value in self._pins().items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        (self.path / "tmp").mkdir()
        tempfile.tempdir = None  # forget any cached default: TMPDIR moved

    def _pins(self) -> dict[str, str | None]:
        return {
            "REPRO_DATA_DIR": str(self.path / "data"),
            "REPRO_CC_CACHE": str(self.path / "cc"),
            "REPRO_COMPILED_ENGINE": "cc",
            "REPRO_BACKEND": None,
            "REPRO_SERVICE_SOCKET": None,
            "TMPDIR": str(self.path / "tmp"),
        }

    def sub(self, name: str) -> Path:
        p = self.path / name
        p.mkdir(parents=True, exist_ok=True)
        return p

    def socket_path(self, name: str) -> str:
        rel = os.path.relpath(self.path / name)
        if len(rel) > _MAX_SOCKET_PATH:
            raise RuntimeError(
                f"socket path too long for AF_UNIX ({len(rel)} bytes): {rel}; "
                "run the harness from the checkout root"
            )
        return rel

    def close(self) -> None:
        for key, value in self._saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        tempfile.tempdir = None
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only succeeds once the last run is gone
        except OSError:
            pass


class Watchdog:
    """Turns a stall into an exception in the main thread, naming the
    phase that was stuck.  Every blocking call also carries its own
    timeout; this is the backstop behind them."""

    def __init__(self) -> None:
        self.phase = "start"
        self._limit = 0.0
        self._old = signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame) -> None:
        raise Stalled(
            f"phase {self.phase!r} made no progress for {self._limit:.0f} s"
        )

    def enter(self, phase: str, limit: float) -> None:
        self.phase, self._limit = phase, limit
        signal.setitimer(signal.ITIMER_REAL, limit)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)


def shm_names() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def descendants(pid: int | None = None) -> list[int]:
    """Live (non-zombie) processes descended from ``pid`` (default: us)."""
    pid = os.getpid() if pid is None else pid
    parent_of: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z":
            parent_of[int(entry)] = int(fields[1])
    found, frontier = [], {pid}
    while frontier:
        frontier = {c for c, p in parent_of.items() if p in frontier}
        found.extend(sorted(frontier))
    return found


def leaks(shm_before: set[str], work: Workdir | None) -> list[str]:
    """What this run left behind: child processes, shared-memory segments,
    socket files.  Surviving processes are killed so the next run starts
    clean."""
    found = []
    # multiprocessing's resource tracker is a helper child that otherwise
    # lives until this process exits; stop it (it restarts on demand).
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + 2.0
    kids = descendants()
    while kids and time.monotonic() < deadline:  # let clean exits finish
        time.sleep(0.05)
        kids = descendants()
    for pid in kids:
        found.append(f"process {pid} still alive")
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    # Reported, not removed: a new segment could be another program's.
    found += [f"/dev/shm/{name} left behind" for name in sorted(shm_names() - shm_before)]
    if work is not None:
        for p in work.path.rglob("*.sock"):
            found.append(f"socket file {p} left behind")
    return found


def _first_line(cmd: list[str]) -> str | None:
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.splitlines()[0].strip() if out.stdout else None


def provenance(seed: int) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "git_commit": _first_line(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"]
        ),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "gcc": _first_line(["gcc", "--version"]),
    }
