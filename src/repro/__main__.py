"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show all reproducible experiments.
``experiment <id>``
    Regenerate one paper artifact (``table1``, ``table2``, ``fig01`` ..
    ``fig13``) and print it.
``characterize``
    Measure this package's own Table-1 application characteristics with an
    instrumented distributed run.
``simulate --platform NAME --procs P [--euler] [--version V]``
    One simulated-machine run with the execution-time split.
``run <scenario> [request options] [--trace PATH --metrics --ledger PATH]``
    The unified facade (``repro.api.run``): serial, distributed, or
    simulated-platform execution of a named scenario, optionally exporting
    a Chrome/Perfetto trace.  The request options (``--nprocs``,
    ``--backend``, ``--faults``, ...; see ``run --help``) are one table
    shared with ``submit``; a flag not given leaves the default declared
    in :mod:`repro.request` in charge.
``jet [--nx N --nr N --steps S --euler]``
    Run the real solver and print diagnostics plus a momentum contour.
``report [paths ...] [--last N]``
    Render performance ledgers (``BENCH_runs.jsonl`` lines from
    ``run(..., metrics=True)``) or recorded trace files — autodetected
    per path.  Defaults to the standard ledger under
    ``benchmarks/output/``.
``serve [--workers N --socket PATH --store DIR]``
    Start the run service: a worker-pool job queue behind a Unix socket,
    deduplicating identical requests against a persistent result store.
``submit <scenario> [request options] | submit --experiment ID``
    Submit a run (or paper-artifact regeneration) to a running service
    and stream its status; cached fingerprints return instantly.
``jobs [--socket PATH]``
    List the jobs the running service knows about.
``top [--socket PATH]``
    Live service utilization: queue depth, worker occupancy, dedupe hit
    rate, and per-running-job step rates with straggler verdicts.
``tail <job> [--socket PATH --timeout S]``
    Stream a running job's per-step telemetry records (one line per rank
    per step: step, t, dt, ms, comm split) until it completes.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_list(args) -> int:
    from .experiments import EXPERIMENTS

    print("Reproducible experiments (paper tables and figures):")
    for k in sorted(EXPERIMENTS):
        print(f"  {k}")
    return 0


def _cmd_experiment(args) -> int:
    from .experiments import run_experiment

    print(run_experiment(args.id))
    return 0


def _cmd_characterize(args) -> int:
    from .analysis.tables import table1, table2, table_deep_halo

    print(table1("paper"))
    print()
    print(table1("measured"))
    print()
    print(table2())
    print()
    print(table_deep_halo())
    return 0


def _cmd_simulate(args) -> int:
    from .api import run

    res = run(
        "jet-euler" if args.euler else "jet",
        platform=args.platform,
        nprocs=args.procs,
        version=args.version,
        # The machine models' own window (run() defaults to 30): this
        # command's printed times predate the facade and must not move.
        steps_window=40,
    )
    print(res.summary())
    return 0


def _cmd_sweep(args) -> int:
    from .experiments.sweeps import sweep, sweep_table
    from .machines.platforms import platform_by_name
    from .simulate.workload import EULER, NAVIER_STOKES

    platforms = [platform_by_name(n) for n in args.platforms]
    apps = [EULER] if args.euler else [NAVIER_STOKES]
    records = sweep(
        platforms, apps, procs=args.procs, versions=args.versions
    )
    print(sweep_table(records))
    return 0


def _cmd_trace(args) -> int:
    from .analysis.report import render_gantt
    from .machines.platforms import platform_by_name
    from .simulate.machine import SimulatedMachine
    from .simulate.workload import EULER, NAVIER_STOKES

    plat = platform_by_name(args.platform)
    app = EULER if args.euler else NAVIER_STOKES
    r = SimulatedMachine(plat, args.procs, version=args.version).run(
        app, steps_window=4, trace=True
    )
    print(render_gantt(r, title=f"{plat.name}, p={args.procs}, V{args.version}"))
    return 0


#: The request flags ``repro run`` and ``repro submit`` share.  No row
#: carries a default (``_add_request_options`` suppresses absent flags), so
#: the config dataclasses in :mod:`repro.request` — and the scenario
#: constructors, for ``--nx``/``--nr`` — stay the one place a default lives.
_REQUEST_OPTIONS = {
    "--steps": dict(type=int),
    "--nprocs": dict(type=int),
    "--platform": dict(help="simulate on a 1995 platform instead of running"),
    "--version": dict(type=int, choices=(5, 6, 7)),
    "--backend": dict(
        choices=("baseline", "fused", "compiled"),
        help="kernel backend: how the hot-path kernels are evaluated "
             "(results are bitwise-identical)"),
    "--decomposition": dict(choices=("axial", "radial", "2d")),
    "--px": dict(
        type=int,
        help="axial rank-grid extent for --decomposition 2d "
             "(px * pr must equal --nprocs)"),
    "--pr": dict(
        type=int, help="radial rank-grid extent for --decomposition 2d"),
    "--substrate": dict(
        choices=("virtual", "process"),
        help="distributed execution substrate: 'virtual' (one thread per "
             "rank, GIL-serialized) or 'process' (one OS process per rank "
             "over shared memory — real multi-core speedup)"),
    "--faults": dict(
        metavar="PRESET",
        help="inject faults: lossy-ethernet, jittery-now, drop-storm, "
             "crash-rank1, lossy-crash"),
    "--fault-seed": dict(
        type=int, help="re-seed the fault plan (reproduces a printed seed)"),
    "--checkpoint-every": dict(
        type=int, metavar="N",
        help="gather a restart snapshot every N steps (distributed runs; "
             "lets injected crashes recover)"),
    "--nx": dict(type=int),
    "--nr": dict(type=int),
}


def _add_request_options(parser) -> None:
    for flag, kw in _REQUEST_OPTIONS.items():
        parser.add_argument(flag, default=argparse.SUPPRESS, **kw)


def _request_options(args) -> dict:
    """The request keywords the command line actually gave."""
    dests = (flag[2:].replace("-", "_") for flag in _REQUEST_OPTIONS)
    return {dest: getattr(args, dest) for dest in dests if hasattr(args, dest)}


def _cmd_run(args) -> int:
    from .api import run

    try:
        res = run(
            args.scenario,
            trace=args.trace,
            metrics=args.metrics,
            ledger=args.ledger or args.metrics,
            **_request_options(args),
        )
    except (KeyError, TypeError, ValueError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2
    print(res.summary())
    if res.fault_stats is not None:
        injected = sum(s.total_injected for s in res.fault_stats if s)
        recovered = sum(
            s.retransmissions + s.dups_discarded + s.corrupt_discarded
            for s in res.fault_stats if s
        )
        print(
            f"faults: {injected} injected, {recovered} recovery actions, "
            f"{res.restarts} checkpoint restart(s)"
        )
    if res.trace is not None:
        print(
            f"trace: {len(res.trace.spans)} spans, {len(res.trace.events)} "
            f"events over {max(len(res.trace.ranks()), 1)} rank(s)"
        )
    if res.trace_path:
        print(f"chrome trace written to {res.trace_path} "
              "(open at https://ui.perfetto.dev)")
    if res.perf is not None:
        from .obs import render_report

        print()
        print(render_report(res.perf))
    return 0


def _looks_like_ledger(path: str) -> bool:
    """A perf ledger starts with a JSON object carrying our schema tag;
    a trace file is one Chrome JSON document."""
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    return json.loads(line).get("schema", "").startswith(
                        "repro.perf/"
                    )
    except (OSError, ValueError):
        pass
    return False


def _cmd_report(args) -> int:
    from .obs import read_ledger, render_ledger, render_report

    paths = args.paths or ["benchmarks/output/BENCH_runs.jsonl"]
    status = 0
    for path in paths:
        if _looks_like_ledger(path):
            try:
                reports = read_ledger(path)
            except (OSError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                status = 2
                continue
            print(render_ledger(reports, title=path))
            for rp in reports[-args.last:] if args.last else []:
                print()
                print(render_report(rp))
        else:
            # Fall back to the trace component-split report.
            try:
                from .analysis.metrics import component_breakdown
                from .analysis.report import render_components
                from .obs import load_trace

                bd = component_breakdown(load_trace(path))
            except (OSError, ValueError) as exc:
                print(f"error: {path}: {exc}", file=sys.stderr)
                status = 2
                continue
            print(render_components(bd, path))
        print()
    return status


def _cmd_jet(args) -> int:
    from .analysis.report import ascii_contour
    from .api import run

    res = run(
        "jet",
        steps=args.steps,
        nx=args.nx,
        nr=args.nr,
        viscous=not args.euler,
    )
    print(
        f"t={res.t:.2f}  physical={res.state.is_physical()}  "
        f"{res.timings.ms_per_step:.1f} ms/step"
    )
    print(ascii_contour(res.state.axial_momentum, width=90, height=18,
                        title="axial momentum rho*u"))
    return 0


def _cmd_serve(args) -> int:
    from .service import ResultStore, serve

    store = ResultStore(args.store) if args.store else None

    def _announce(server):
        root = server.service.store.root
        print(
            f"repro service: {server.service.workers} worker(s), "
            f"store {root}, socket {server.socket_path}",
            flush=True,
        )

    try:
        serve(
            socket_path=args.socket,
            workers=args.workers,
            store=store,
            ledger=not args.no_ledger,
            ready=_announce,
        )
    except KeyboardInterrupt:
        pass
    return 0


def _format_job(job: dict) -> str:
    extra = ""
    if job.get("status") == "cached":
        extra = "  (served from result store)"
    elif job.get("attached_to"):
        extra = f"  (deduplicated onto {job['attached_to']})"
    elif job.get("error"):
        extra = f"  {job['error'].splitlines()[-1]}"
    return (
        f"{job['id']}  {job['status']:<8}  {job['kind']:<10}  "
        f"fp={job['fingerprint']}{extra}"
    )


def _cmd_submit(args) -> int:
    from .request import RunRequest
    from .service import ExperimentRequest, ServiceClient, ServiceUnavailable

    if args.experiment:
        if args.scenario:
            print("error: give a scenario or --experiment, not both",
                  file=sys.stderr)
            return 2
        req = ExperimentRequest(args.experiment)
    elif args.scenario:
        req = RunRequest.from_run_args(args.scenario, **_request_options(args))
    else:
        print("error: need a scenario or --experiment ID", file=sys.stderr)
        return 2

    client = ServiceClient(args.socket)
    try:
        job = client.submit(req)
        print(_format_job(job))
        if args.no_wait:
            return 0
        for snap in client.watch(job["id"], timeout=args.timeout):
            if snap["status"] != job["status"]:
                print(_format_job(snap))
            job = snap
        if job["status"] == "failed":
            return 1
        if not args.quiet:
            result = client.result(job["id"])
            print()
            print(result if isinstance(result, str) else result.summary())
    except ServiceUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_jobs(args) -> int:
    from .service import ServiceClient, ServiceUnavailable

    client = ServiceClient(args.socket)
    try:
        info = client.ping()
        jobs = client.jobs()
    except ServiceUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"service pid {info['pid']}: {info['workers']} worker(s), "
        f"{info['executed']} executed, {info['store_entries']} stored "
        f"result(s) in {info['store_root']}"
    )
    for job in jobs:
        print(_format_job(job))
    if not jobs:
        print("no jobs submitted yet")
    return 0


def _cmd_top(args) -> int:
    from .service import ServiceClient, ServiceUnavailable

    client = ServiceClient(args.socket)
    try:
        top = client.top()
    except ServiceUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    busy, workers = top["busy"], top["workers"]
    util = 100.0 * busy / workers if workers else 0.0
    print(
        f"workers {busy}/{workers} busy ({util:.0f}%)  "
        f"queue depth {top['queue_depth']}  "
        f"jobs {top['jobs_total']} ({top['executed']} executed, "
        f"dedupe hit rate {100.0 * top['dedupe_rate']:.0f}%)  "
        f"stream records {top['stream_records']}"
    )
    for row in top["running"]:
        line = (
            f"  {row['id']}  {row.get('scenario') or '?':<12} "
            f"pid={row['worker_pid']}"
        )
        if row.get("step") is not None:
            line += f"  step {row['step']}"
        if row.get("records_per_s") is not None:
            line += f"  {row['records_per_s']:.1f} rec/s"
        balance = row.get("balance")
        if balance:
            line += (
                f"  [{balance['verdict']}: max/mean "
                f"{balance['max_mean_step_ratio']:.2f}, slowest rank "
                f"{balance['slowest_rank']}]"
            )
        print(line)
    if not top["running"]:
        print("  no running jobs")
    return 0


def _cmd_tail(args) -> int:
    from .service import ServiceClient, ServiceUnavailable

    client = ServiceClient(args.socket)
    try:
        for rec in client.tail(args.job, timeout=args.timeout):
            if rec.get("kind") == "cached":
                # Dedupe hit: the job never executed, so there is no
                # per-step telemetry to follow.
                print(
                    f"{args.job}: served from cache "
                    f"(fingerprint {rec.get('fingerprint')}); "
                    "no step records"
                )
                continue
            comm = (
                f"  comm {rec['comm_ms']:.2f} ms"
                if rec.get("comm_ms") is not None
                else ""
            )
            if rec.get("wait_ms") is not None:
                comm += f" ({rec['wait_ms']:.2f} blocked)"
            extra = ""
            if rec.get("retries"):
                extra += f"  retries {rec['retries']}"
            if rec.get("lost"):
                extra += f"  lost {rec['lost']}"
            print(
                f"rank {rec.get('rank', 0)}  step {rec.get('step'):>5}  "
                f"t={rec.get('t'):.4f}  dt={rec.get('dt'):.2e}  "
                f"{rec.get('ms'):7.2f} ms{comm}{extra}"
            )
    except ServiceUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(fn=_cmd_list)

    p = sub.add_parser("experiment", help="regenerate one paper artifact")
    p.add_argument("id", help="table1, table2, fig01 .. fig13")
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("characterize", help="measured Table 1 / Table 2")
    p.set_defaults(fn=_cmd_characterize)

    p = sub.add_parser("simulate", help="one simulated platform run")
    p.add_argument("--platform", required=True,
                   help="e.g. 'LACE/560+ALLNODE-S', 'IBM SP', 'Cray T3D'")
    p.add_argument("--procs", type=int, default=8)
    p.add_argument("--version", type=int, default=5)
    p.add_argument("--euler", action="store_true")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("sweep", help="platform x procs x version grid")
    p.add_argument("--platforms", nargs="+", required=True)
    p.add_argument("--procs", type=int, nargs="+", default=[1, 2, 4, 8, 16])
    p.add_argument("--versions", type=int, nargs="+", default=[5])
    p.add_argument("--euler", action="store_true")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("trace", help="per-rank Gantt of a simulated step")
    p.add_argument("--platform", required=True)
    p.add_argument("--procs", type=int, default=8)
    p.add_argument("--version", type=int, default=5)
    p.add_argument("--euler", action="store_true")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "run", help="unified facade: serial / distributed / simulated"
    )
    p.add_argument("scenario",
                   help="jet, jet-euler, advection, acoustic, sod")
    _add_request_options(p)
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="export a Chrome/Perfetto trace of the run")
    p.add_argument("--metrics", action="store_true",
                   help="collect per-stage/per-rank metrics, print the "
                        "performance report, and append it to the run "
                        "ledger")
    p.add_argument("--ledger", metavar="PATH", default=None,
                   help="append the performance report to this JSON-lines "
                        "ledger (implies --metrics semantics for output "
                        "location; default with --metrics: "
                        "benchmarks/output/BENCH_runs.jsonl)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "report", help="render performance ledgers / trace breakdowns"
    )
    p.add_argument("paths", nargs="*",
                   help="ledger (.jsonl) or trace files; default: "
                        "benchmarks/output/BENCH_runs.jsonl")
    p.add_argument("--last", type=int, default=1, metavar="N",
                   help="also print the full per-stage report of the last "
                        "N ledger entries (0 disables)")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser(
        "serve", help="start the run service (worker pool + result cache)"
    )
    p.add_argument("--workers", type=int, default=2,
                   help="worker processes executing jobs (default 2)")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="Unix control socket (default: "
                        "$REPRO_SERVICE_SOCKET or the service store dir)")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="result-store directory (default: "
                        "benchmarks/output/service under $REPRO_DATA_DIR "
                        "or the repo)")
    p.add_argument("--no-ledger", action="store_true",
                   help="don't append worker runs to the perf ledger")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "submit", help="submit a run to the service (dedupes by fingerprint)"
    )
    p.add_argument("scenario", nargs="?", default=None,
                   help="jet, jet-euler, advection, acoustic, sod")
    p.add_argument("--experiment", default=None, metavar="ID",
                   help="submit a paper artifact instead (table1, fig01 ..)")
    _add_request_options(p)
    p.add_argument("--socket", default=None, metavar="PATH")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="seconds to wait for completion (default 600)")
    p.add_argument("--no-wait", action="store_true",
                   help="enqueue and return without watching the job")
    p.add_argument("--quiet", action="store_true",
                   help="don't print the result payload when done")
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser("jobs", help="list jobs on the running service")
    p.add_argument("--socket", default=None, metavar="PATH")
    p.set_defaults(fn=_cmd_jobs)

    p = sub.add_parser(
        "top", help="live service utilization and per-job step rates"
    )
    p.add_argument("--socket", default=None, metavar="PATH")
    p.set_defaults(fn=_cmd_top)

    p = sub.add_parser(
        "tail", help="stream a job's per-rank per-step telemetry records"
    )
    p.add_argument("job", help="job id (from submit / jobs)")
    p.add_argument("--socket", default=None, metavar="PATH")
    p.add_argument("--timeout", type=float, default=None,
                   help="stop following after this many seconds")
    p.set_defaults(fn=_cmd_tail)

    p = sub.add_parser("jet", help="run the real solver")
    p.add_argument("--nx", type=int, default=96)
    p.add_argument("--nr", type=int, default=40)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--euler", action="store_true")
    p.set_defaults(fn=_cmd_jet)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
