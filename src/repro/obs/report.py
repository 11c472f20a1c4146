"""Per-run performance reports and the append-only run ledger.

This module closes the measurement loop the paper's Section 6 runs by
hand: every :func:`repro.api.run` invoked with ``metrics=True`` produces a
:class:`PerfReport` — config fingerprint, wall/step statistics, the
per-stage breakdown with derived MFLOPS (flop counts from
:mod:`repro.numerics.opcount`, seconds from the metrics registry), the
per-rank computation-to-communication split, fault/recovery counters and
the full metrics snapshot — and can append it as one JSON line to the run
ledger (``benchmarks/output/BENCH_runs.jsonl`` by convention).

The ledger is what ``scripts/perf_gate.py`` compares against its committed
baseline and what ``repro report`` renders as the paper's Figure-5-style
component tables.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import warnings
from dataclasses import dataclass, field

from .metrics import MetricsRegistry
from .stream import imbalance_verdict

__all__ = [
    "LEDGER_SCHEMA",
    "PerfReport",
    "append_ledger",
    "build_perf_report",
    "rank_split",
    "read_ledger",
    "render_ledger",
    "render_report",
]

#: Ledger line format tag; bump on incompatible shape changes.
LEDGER_SCHEMA = "repro.perf/1"


@dataclass
class PerfReport:
    """One run's performance manifest (JSON-able, one ledger line)."""

    scenario: str
    mode: str
    """``"serial"``, ``"parallel"`` or ``"simulated"``."""
    nprocs: int
    steps: int
    wall_seconds: float
    ms_per_step: float
    schema: str = LEDGER_SCHEMA
    backend: str | None = None
    platform: str | None = None
    substrate: str | None = None
    """Parallel-route substrate (``"virtual"``/``"process"``), else ``None``."""
    version: int | None = None
    grid: tuple[int, int] | None = None
    viscous: bool | None = None
    fingerprint: str = ""
    """Short hash of the run configuration — ledger lines with equal
    fingerprints measured the same workload and are comparable."""
    mflops_total: float | None = None
    comp_comm_ratio: float | None = None
    stages: list[dict] = field(default_factory=list)
    """Per-stage rows: ``{name, seconds, share, mflops}`` (seconds are the
    mean over ranks — the concurrent-elapsed estimate)."""
    per_rank: list[dict] = field(default_factory=list)
    exchanges: list[dict] = field(default_factory=list)
    """Per-exchange-kind rows of a parallel run: ``{kind, exchanges,
    seconds, wait_seconds}`` — ``seconds`` inside ``halo.<kind>`` and the
    part of it its receives spent blocked waiting for the neighbour (the
    rest is pack, send, transfer and unpack); means over ranks."""
    faults: dict = field(default_factory=dict)
    restarts: int = 0
    trace_summary: dict | None = None
    profile_top: list[dict] | None = None
    balance: dict | None = None
    """Straggler/imbalance verdict over ``per_rank``
    (:func:`repro.obs.stream.imbalance_verdict`); ``None`` for runs with
    fewer than two timed ranks."""
    metrics: dict = field(default_factory=dict)
    """Full registry snapshot (:meth:`MetricsRegistry.snapshot`)."""

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        if self.grid is not None:
            d["grid"] = list(self.grid)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PerfReport":
        """Inverse of :meth:`to_dict`; absent optional keys keep the field
        default, keys this version does not know are ignored."""
        kw = {f.name: d[f.name] for f in dataclasses.fields(cls) if f.name in d}
        if kw.get("grid") is not None:
            kw["grid"] = tuple(kw["grid"])
        for name, number in _NUMERIC_FIELDS.items():
            if name in kw:
                kw[name] = number(kw[name])
        return cls(**kw)


#: Fields coerced on load; a value that cannot be coerced marks a bad line
#: (:func:`read_ledger` skips it with a warning).
_NUMERIC_FIELDS = {
    "nprocs": int, "steps": int, "restarts": int,
    "wall_seconds": float, "ms_per_step": float,
}


# -- fingerprinting -----------------------------------------------------------

def config_fingerprint(**config) -> str:
    """Short stable hash of a run configuration (sorted canonical JSON)."""
    blob = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# -- snapshot readers ---------------------------------------------------------

def _values(snap: dict, name: str) -> dict[int, float]:
    """``{rank: total}`` of one metric in a registry snapshot — a counter's
    value, a histogram's sum; empty when the run did not record it."""
    cells = snap.get("counters", {}).get(name)
    if cells is not None:
        return {int(r): c["value"] for r, c in cells.items()}
    cells = snap.get("histograms", {}).get(name, {})
    return {int(r): h["sum"] for r, h in cells.items()}


def _mean(per_rank: dict[int, float]) -> float | None:
    """Mean over ranks — the concurrent-elapsed estimate."""
    if not per_rank:
        return None
    return math.fsum(per_rank.values()) / len(per_rank)


def _total(snap: dict, name: str) -> float:
    return math.fsum(_values(snap, name).values())


def _mflops(flops: float | None, seconds: float | None) -> float | None:
    if flops is None or seconds is None or seconds <= 0.0:
        return None
    return flops / seconds / 1e6


def _stage_rows(stages: list[tuple[str, float | None, float | None]]) -> list[dict]:
    """``{name, seconds, share, mflops}`` rows from ``(name, seconds,
    flops)``; a stage nobody timed is left out."""
    rows = [
        {"name": name, "seconds": seconds, "share": 0.0,
         "mflops": _mflops(flops, seconds)}
        for name, seconds, flops in stages
        if seconds is not None
    ]
    total = math.fsum(r["seconds"] for r in rows)
    for r in rows:
        r["share"] = r["seconds"] / total if total > 0.0 else 0.0
    return rows


def _solver_stages(snap: dict, ops) -> list[dict]:
    """Stage rows for real (serial/parallel) runs.

    MFLOPS attribution follows :mod:`repro.numerics.opcount`: the sweep and
    filter stages have their own per-cell counts; ``dt`` + ``boundaries``
    together correspond to the amortized ``misc`` count.  A distributed
    rank's step opens with its ``halo`` stage (no flops of its own: what
    it recomputes on ghost lines is inside the sweeps and the filter).
    """
    cell_steps = _total(snap, "solver.cell_steps")

    def stage(name: str) -> float | None:
        return _mean(_values(snap, "stage." + name))

    def flops(per_cell: str) -> float | None:
        return getattr(ops, per_cell) * cell_steps if ops else None

    misc = (stage("dt") or 0.0) + (stage("boundaries") or 0.0)
    return _stage_rows([
        ("halo", stage("halo"), None),
        ("sweep_x", stage("sweep_x"), flops("x_sweep")),
        ("sweep_r", stage("sweep_r"), flops("r_sweep")),
        ("filter", stage("filter"), flops("filter")),
        ("misc (dt+boundaries)", misc if misc > 0.0 else None, flops("misc")),
    ])


def _sim_stages(snap: dict) -> list[dict]:
    """Compute/library/wait rows (the paper's two-component split, with
    the busy side further divided) for simulated runs."""
    return _stage_rows([
        ("compute", _mean(_values(snap, "sim.compute_seconds")),
         _total(snap, "sim.flops")),
        ("library", _mean(_values(snap, "sim.library_seconds")), None),
        ("comm wait", _mean(_values(snap, "sim.wait_seconds")), None),
    ])


def rank_split(snap: dict) -> tuple[str, list[tuple[int, float, float, float]]]:
    """The paper's split of each rank's time, from a registry snapshot (live
    or as a ledger line stores it): ``(source, [(rank, computation, startup,
    transfer), ...])``.  A ``"simulated"`` run recorded the three as
    ``sim.*`` counters; of a ``"measured"`` one, startup is the time inside
    sends, transfer the time inside receives and computation what is left
    of the rank's steps."""
    comp = _values(snap, "sim.compute_seconds")
    if comp:
        source = "simulated"
        startup = _values(snap, "sim.library_seconds")
        transfer = _values(snap, "sim.wait_seconds")
    else:
        source = "measured"
        startup = _values(snap, "comm.send_seconds")
        transfer = _values(snap, "comm.recv_seconds")
        comp = {
            r: max(step - startup.get(r, 0.0) - transfer.get(r, 0.0), 0.0)
            for r, step in _values(snap, "solver.step_seconds").items()
        }
    return source, [
        (r, comp[r], startup.get(r, 0.0), transfer.get(r, 0.0))
        for r in sorted(comp)
    ]


#: What a ``per_rank`` row carries beside the split: ``row key -> metric``.
_RANK_COLUMNS = {
    "measured": {
        "step_seconds": "solver.step_seconds",
        "wait_seconds": "comm.wait_seconds",
        "bytes_sent": "comm.bytes_sent",
        "halo_bytes": "halo.bytes",
        "halo_seconds": "halo.seconds",
    },
    "simulated": {"flops": "sim.flops"},
}


def _per_rank(snap: dict) -> list[dict]:
    """Per-rank computation/communication rows of the report."""
    source, split = rank_split(snap)
    columns = {
        key: _values(snap, name) for key, name in _RANK_COLUMNS[source].items()
    }
    rows = []
    for r, comp_s, startup, transfer in split:
        comm_s = startup + transfer
        rows.append(
            {
                "rank": r,
                "comp_seconds": comp_s,
                "comm_seconds": comm_s,
                "comp_comm": (comp_s / comm_s) if comm_s > 0.0 else None,
                **{key: per.get(r, 0.0) for key, per in columns.items()},
            }
        )
    return rows


def _exchange_rows(snap: dict) -> list[dict]:
    """One row per halo exchange kind: how long the exchanges took and how
    much of that their receives spent blocked (means over ranks)."""
    rows = []
    for name, per_rank in sorted(snap["histograms"].items()):
        if not (name.startswith("halo.") and name.endswith("_seconds")):
            continue
        kind = name[len("halo."):-len("_seconds")]
        cells, n = per_rank.values(), len(per_rank)
        rows.append(
            {
                "kind": kind,
                "exchanges": sum(h["count"] for h in cells) / n,
                "seconds": math.fsum(h["sum"] for h in cells) / n,
                "wait_seconds": _total(snap, f"halo.{kind}_wait_seconds") / n,
            }
        )
    return rows


def _fault_summary(snap: dict, fault_stats) -> dict:
    """``fault.*`` counters summed over ranks, falling back to (and merged
    with) the per-rank :class:`~repro.faults.FaultStats` when present."""
    out: dict[str, float] = {}
    for name in snap["counters"]:
        if name.startswith("fault."):
            out[name[len("fault."):]] = _total(snap, name)
    if fault_stats:
        merged = None
        for fs in fault_stats:
            merged = fs if merged is None else merged.merged_with(fs)
        if merged is not None:
            for k, v in merged.injected.items():
                out.setdefault(k, float(v))
            out.setdefault("retransmission", float(merged.retransmissions))
            out.setdefault("recv_retry", float(merged.recv_retries))
            out.setdefault("duplicate_rx", float(merged.dups_discarded))
            out.setdefault("corrupt_rx", float(merged.corrupt_discarded))
            out.setdefault("lost", float(merged.lost_messages))
    return {k: v for k, v in sorted(out.items()) if v}


def _aggregate_ratio(per_rank: list[dict]) -> float | None:
    comp = math.fsum(r.get("comp_seconds", 0.0) for r in per_rank)
    comm = math.fsum(r.get("comm_seconds", 0.0) for r in per_rank)
    return (comp / comm) if comm > 0.0 else None


# -- building -----------------------------------------------------------------

def build_perf_report(
    result,
    metrics: MetricsRegistry,
    *,
    fingerprint: str,
    backend: str | None = None,
    grid: tuple[int, int] | None = None,
    viscous: bool | None = None,
    profile_top: list[dict] | None = None,
) -> PerfReport:
    """Derive a :class:`PerfReport` from a run outcome + metrics registry.

    ``result`` is a :class:`repro.api.RunResult`; its per-rank
    communication totals are ingested into ``metrics`` here, once, and
    every row of the report is then read from the one snapshot it stores.
    Works for all three substrates: real runs get opcount-derived per-stage
    MFLOPS, simulated runs get the DES timeline split and the modelled
    flop count.

    ``fingerprint`` is the *request-derived* cache key
    (:meth:`repro.request.RunRequest.fingerprint`).
    """
    # Exact post-run totals from the communicators' own accounting: what
    # was recorded live only samples per-call distributions, and these hold
    # even for a registry that was not installed while the run executed.
    for r, st in enumerate(result.per_rank_stats or []):
        metrics.count("comm.sends", float(st.sends), rank=r)
        metrics.count("comm.recvs", float(st.recvs), rank=r)
        metrics.count("comm.bytes_sent", float(st.bytes_sent), rank=r)
        metrics.count("comm.bytes_received", float(st.bytes_received), rank=r)
        metrics.count("comm.send_seconds", st.send_seconds, rank=r)
        metrics.count("comm.recv_seconds", st.recv_seconds, rank=r)
        metrics.count("comm.wait_seconds", st.wait_seconds, rank=r)
        metrics.gauge("comm.max_message_bytes", float(st.max_message_bytes), rank=r)
    snap = metrics.snapshot()
    wall = result.timings.wall_seconds
    ms_per_step = result.timings.ms_per_step
    exchanges: list[dict] = []
    if result.mode == "simulated":
        stages = _sim_stages(snap)
        exec_s = result.sim.execution_time
        ms_per_step = 1e3 * exec_s / max(result.steps, 1)
        mflops_total = _mflops(_total(snap, "sim.flops"), exec_s)
    else:
        ops = None
        if viscous is not None:
            from ..numerics.opcount import euler_ops, navier_stokes_ops

            ops = navier_stokes_ops() if viscous else euler_ops()
        stages = _solver_stages(snap, ops)
        exchanges = _exchange_rows(snap)
        cell_steps = _total(snap, "solver.cell_steps")
        mflops_total = (
            _mflops(ops.per_cell_step * cell_steps, wall)
            if ops is not None and cell_steps > 0.0
            else None
        )
    per_rank = _per_rank(snap)
    trace_summary = None
    if result.trace is not None:
        tr = result.trace
        cats: dict[str, int] = {}
        for s in tr.spans:
            cats[s.cat] = cats.get(s.cat, 0) + 1
        trace_summary = {
            "spans": len(tr.spans),
            "events": len(tr.events),
            "span_cats": dict(sorted(cats.items())),
        }
    return PerfReport(
        scenario=result.scenario,
        mode=result.mode,
        backend=backend,
        platform=result.sim.platform if result.sim is not None else None,
        substrate=getattr(result, "substrate", None),
        nprocs=result.nprocs,
        version=result.version,
        steps=result.steps,
        grid=grid,
        viscous=viscous,
        fingerprint=fingerprint,
        wall_seconds=wall,
        ms_per_step=ms_per_step,
        mflops_total=mflops_total,
        comp_comm_ratio=_aggregate_ratio(per_rank),
        stages=stages,
        per_rank=per_rank,
        exchanges=exchanges,
        faults=_fault_summary(snap, result.fault_stats),
        restarts=result.restarts,
        trace_summary=trace_summary,
        profile_top=profile_top,
        balance=imbalance_verdict(per_rank),
        metrics=snap,
    )


# -- ledger -------------------------------------------------------------------

def append_ledger(report: PerfReport, path: str | os.PathLike) -> str:
    """Append ``report`` as one JSON line; returns the path written."""
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
    return path


def read_ledger(path: str | os.PathLike) -> list[PerfReport]:
    """Parse every ledger line; unknown schemas raise ``ValueError``.

    Truncated or partially-written lines (a worker killed mid-append
    leaves a half JSON object, typically as the *last* line) are skipped
    with a :class:`UserWarning` naming the line — one mangled line must
    not poison the other hundreds of good ones.  An explicit *unknown
    schema* on an otherwise well-formed line still raises: that is a
    format break, not a torn write.
    """
    reports = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
            except ValueError:
                warnings.warn(
                    f"{path}:{lineno}: skipping truncated/corrupt ledger "
                    f"line ({line[:40]!r}...)",
                    stacklevel=2,
                )
                continue
            if not isinstance(d, dict):
                warnings.warn(
                    f"{path}:{lineno}: skipping non-object ledger line",
                    stacklevel=2,
                )
                continue
            if d.get("schema") != LEDGER_SCHEMA:
                raise ValueError(
                    f"{path}:{lineno}: unknown ledger schema "
                    f"{d.get('schema')!r} (expected {LEDGER_SCHEMA!r})"
                )
            try:
                reports.append(PerfReport.from_dict(d))
            except (KeyError, TypeError, ValueError) as exc:
                warnings.warn(
                    f"{path}:{lineno}: skipping partially-written ledger "
                    f"line ({type(exc).__name__}: {exc})",
                    stacklevel=2,
                )
    return reports


# -- rendering ----------------------------------------------------------------

def _fmt(x, pattern: str = "{:.2f}", none: str = "-") -> str:
    return none if x is None else pattern.format(x)


def _table(headers: list[str], rows: list[list[str]], title: str = "") -> str:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def render_ledger(reports: list[PerfReport], title: str = "run ledger") -> str:
    """One-line-per-run summary table of ledger entries."""
    rows = []
    for rp in reports:
        rows.append(
            [
                rp.scenario,
                rp.mode,
                rp.backend or (rp.platform or "-"),
                str(rp.nprocs),
                str(rp.steps),
                _fmt(rp.ms_per_step, "{:.2f}"),
                _fmt(rp.mflops_total, "{:.1f}"),
                _fmt(rp.comp_comm_ratio, "{:.1f}"),
                rp.fingerprint,
            ]
        )
    return _table(
        ["scenario", "mode", "backend", "p", "steps", "ms/step",
         "MFLOPS", "comp:comm", "fingerprint"],
        rows,
        title=title,
    )


def render_report(report: PerfReport) -> str:
    """Full Figure-5-style breakdown of one run."""
    head = (
        f"{report.scenario} [{report.mode}]"
        f" backend={report.backend or report.platform or '-'}"
        f" p={report.nprocs} steps={report.steps}"
    )
    if report.grid:
        head += f" grid={report.grid[0]}x{report.grid[1]}"
    lines = [
        head,
        f"fingerprint={report.fingerprint}"
        f"  wall={report.wall_seconds:.3f}s"
        f"  {report.ms_per_step:.2f} ms/step"
        f"  MFLOPS={_fmt(report.mflops_total, '{:.1f}')}"
        f"  comp:comm={_fmt(report.comp_comm_ratio, '{:.1f}')}",
    ]
    if report.stages:
        rows = [
            [
                s["name"],
                _fmt(s["seconds"], "{:.4f}"),
                _fmt(100.0 * s["share"], "{:.1f}%"),
                _fmt(s.get("mflops"), "{:.1f}"),
            ]
            for s in report.stages
        ]
        lines.append("")
        lines.append(
            _table(["stage", "seconds", "share", "MFLOPS"], rows,
                   title="per-stage breakdown (mean over ranks)")
        )
    if report.per_rank:
        rows = [
            [
                str(r["rank"]),
                _fmt(r.get("comp_seconds"), "{:.4f}"),
                _fmt(r.get("comm_seconds"), "{:.4f}"),
                _fmt(r.get("wait_seconds"), "{:.4f}"),
                _fmt(r.get("comp_comm"), "{:.1f}"),
                _fmt(r.get("bytes_sent"), "{:.0f}"),
            ]
            for r in report.per_rank
        ]
        lines.append("")
        lines.append(
            _table(["rank", "comp s", "comm s", "blocked s", "comp:comm",
                    "bytes sent"],
                   rows, title="per-rank split (blocked: the part of comm "
                               "spent waiting for a message to arrive)")
        )
    if report.exchanges:
        rows = [
            [
                "halo." + x["kind"],
                _fmt(x["exchanges"], "{:.0f}"),
                _fmt(x["seconds"], "{:.4f}"),
                _fmt(x["wait_seconds"], "{:.4f}"),
                _fmt(x["seconds"] - x["wait_seconds"], "{:.4f}"),
            ]
            for x in report.exchanges
        ]
        lines.append("")
        lines.append(
            _table(["exchange", "n", "seconds", "blocked s", "transfer s"],
                   rows, title="per-exchange split (mean over ranks)")
        )
    if report.balance:
        b = report.balance
        lines.append("")
        lines.append(
            f"balance: {b['verdict']}"
            f"  max/mean step={b['max_mean_step_ratio']:.2f}"
            f" (slowest rank {b['slowest_rank']})"
            + (
                f"  comm-bound ranks={b['comm_bound_ranks']}"
                if b["comm_bound_ranks"]
                else ""
            )
        )
    if report.faults:
        rows = [[k, f"{v:.0f}"] for k, v in report.faults.items()]
        lines.append("")
        lines.append(_table(["fault/recovery", "count"], rows,
                            title=f"faults (restarts={report.restarts})"))
    if report.profile_top:
        rows = [
            [
                str(p.get("ncalls", "")),
                _fmt(p.get("cumtime"), "{:.4f}"),
                str(p.get("func", "")),
            ]
            for p in report.profile_top
        ]
        lines.append("")
        lines.append(_table(["ncalls", "cumtime", "function"], rows,
                            title="cProfile top functions (cumulative)"))
    return "\n".join(lines)
