"""Per-layer probes: each layer's public functions called from outside,
under the harness's own spans.

A probe returns ``{metric name: value}``.  Times are medians over the
stated sample counts; values marked *derived* in the README are
differences of two measurements, and *computed* ones come from operation
counts and array sizes, not from counters.  Probes never feed the
end-to-end numbers: they run only in a ``--trace 1`` run.
"""

from __future__ import annotations

import itertools
import os
import statistics
import time
from dataclasses import replace

import numpy as np

from repro.api import run
from repro.machines.platforms import platform_by_name
from repro.msglib import ProcessCluster, VirtualCluster
from repro.numerics.kernels import get_backend
from repro.numerics.opcount import navier_stokes_ops
from repro.physics.state import FlowState
from repro.request import RunRequest
from repro.scenarios import scenario_by_name
from repro.service import ResultStore
from repro.simulate import (
    NAVIER_STOKES, Acquire, Delay, Engine, Release, Resource, SimulatedMachine,
)

from spans import SpanLog
from stats import median
from workloads import (
    CALL_TIMEOUT, Context, DesWorkload, JetWorkload, start_service, stop_service,
)

US, MS = 1e6, 1e3


def _timed(log: SpanLog, name: str, fn, n: int, warm: int = 0) -> list[float]:
    """Seconds of ``n`` calls of ``fn``, each under its own span."""
    for _ in range(warm):
        fn()
    out = []
    for i in range(n):
        with log.span(name, i) as sp:
            fn()
        out.append(sp.end - sp.start)
    return out


def _p(values, tenth: int) -> float:
    """The ``tenth``-th decile (8 -> p80, 9 -> p90)."""
    return statistics.quantiles(values, n=10)[tenth - 1]


def calibration_ms() -> float:
    """A fixed in-cache numpy workload (best of 5): tells host drift during
    a run apart from a change in the program.  Like bench_core's, minus
    its matrix product (threaded BLAS is bimodal on a 2-vCPU host) and its
    large temporaries (page faults drown the CPU speed being measured)."""
    a = np.linspace(0.0, 1.0, 20_000)
    b, c = np.empty_like(a), np.empty(a.size - 2)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(100):
            np.multiply(a, a, out=b)
            np.add(b, 1.0, out=b)
            np.sqrt(b, out=b)
            np.subtract(b[2:], b[1:-1], out=c)
            np.cumsum(c, out=c)
            float(c[-1])
        best = min(best, time.perf_counter() - t0)
    return MS * best


# -- numerics -------------------------------------------------------------------


def _solver(ctx: Context, scenario: str, nx: int, nr: int, backend: str):
    sc = scenario_by_name(
        scenario, nx=nx, nr=nr,
        epsilon=ctx.jet_kw["epsilon"], strouhal=ctx.jet_kw["strouhal"],
    )
    config = replace(sc.solver.config, backend=backend)
    state = FlowState(sc.grid, sc.state.q.copy(), config.gamma)
    return type(sc.solver)(state, config)


def probe_numerics(ctx: Context, log: SpanLog) -> dict[str, float]:
    ctx.need("kernel")
    nx, nr = ctx.sizes.jet_grid
    n = 20 if ctx.sizes.smoke else 100

    def steps(scenario, nx_, backend, count):
        solver = _solver(ctx, scenario, nx_, nr, backend)
        return solver, _timed(
            log, f"numerics.step.{backend}", solver.step, count, warm=3
        )

    solver, full = steps("jet", nx, "compiled", n)
    _, fused = steps("jet", nx, "fused", max(n // 4, 10))
    _, euler = steps("jet-euler", nx, "compiled", n)
    _, block = steps("jet", nx // 2, "compiled", n)
    ws = get_backend("compiled").step_workspace(solver)
    q = solver.state.q
    filt = _timed(log, "numerics.filter", lambda: solver.apply_filter(q, ws), n, warm=3)
    fresh = _solver(ctx, "jet", nx, nr, "compiled")  # nstep 0: dt is recomputed
    dt = _timed(log, "numerics.dt", fresh.current_dt, n, warm=3)

    step_ms = MS * median(full)
    ops = navier_stokes_ops().per_cell_step
    flops = ops * nx * nr
    every = max(solver.config.dt_recompute_every, 1)
    return {
        "numerics.step_ms.compiled": step_ms,
        "numerics.step_p90_ms.compiled": MS * _p(full, 9),
        "numerics.step_ms.fused": MS * median(fused),
        "numerics.step_ms.euler.compiled": MS * median(euler),
        "numerics.block_step_ms.compiled": MS * median(block),
        "numerics.filter_ms.compiled": MS * median(filt),
        "numerics.dt_ms": MS * median(dt),
        # derived: what is left of a step after the filter and the
        # amortised time-step recomputation
        "numerics.sweeps_ms.compiled": step_ms
        - MS * median(filt) - MS * median(dt) / every,
        "numerics.flops_per_step": flops,
        # computed: compulsory traffic is one read and one write of the
        # four conserved 8-byte fields per cell
        "numerics.flops_per_byte_computed": ops / (2 * 4 * 8),
        "numerics.mflops.compiled": flops / (step_ms * 1e3),
        "numerics.compile_s": ctx.parts["kernel"],
    }


# -- msglib ---------------------------------------------------------------------

_SIZES = (8, 2400, 6400, 48 * 1024)


def _rank_program(comm, n: int, warm: int, full: bool):
    """Ping-pong rank program over the ``Communicator`` ABC only.
    Returns rank 0's median round-trip seconds per section."""
    peer = 1 - comm.rank
    lead = comm.rank == 0

    def rounds(one_round) -> float:
        times = []
        for i in range(warm + n):
            t0 = time.perf_counter()
            one_round(i)
            if i >= warm:
                times.append(time.perf_counter() - t0)
        return median(times)

    def pingpong(tag, buf, receive):
        def one_round(_):
            if lead:
                comm.send(peer, tag, buf)
                receive(tag)
            else:
                receive(tag)
                comm.send(peer, tag, buf)

        return rounds(one_round)

    def copy(tag):
        comm.recv(peer, tag, timeout=CALL_TIMEOUT)

    def borrow(tag):
        with comm.recv_view(peer, tag, timeout=CALL_TIMEOUT) as view:
            float(view.array[0])

    out = {
        f"rtt.{nbytes}": pingpong("p", np.zeros(nbytes // 8), copy)
        for nbytes in _SIZES
    }
    if full:
        buf = np.zeros(6400 // 8)
        out["view"] = pingpong("v", buf, borrow)

        def posted(_):  # the receive is posted before the peer sends
            req = comm.irecv_view(peer, "i", timeout=CALL_TIMEOUT)
            if lead:
                comm.send(peer, "i", buf)
            with req.wait() as view:
                float(view.array[0])
            if not lead:
                comm.send(peer, "i", buf)

        out["irecv"] = rounds(posted)
        out["allreduce"] = rounds(lambda i: comm.allreduce_min(float(i)))
    return out


def _noop(comm):
    return comm.rank


def probe_msglib(ctx: Context, log: SpanLog) -> dict[str, float]:
    n, warm = (30, 5) if ctx.sizes.smoke else (400, 20)
    launches = 2 if ctx.sizes.smoke else 3
    out: dict[str, float] = {}
    for kind, make in (
        ("process", lambda: ProcessCluster(2, timeout=CALL_TIMEOUT)),
        ("virtual", lambda: VirtualCluster(2, timeout=CALL_TIMEOUT)),
    ):

        def on_cluster(fn, *args):
            cluster = make()
            try:
                return cluster.run(fn, *args)
            finally:
                if hasattr(cluster, "close"):  # only the process one owns resources
                    cluster.close()

        out[f"msglib.{kind}.launch_ms"] = MS * median(
            _timed(log, f"msglib.{kind}.launch", lambda: on_cluster(_noop), launches)
        )
        with log.span(f"msglib.{kind}.pingpong"):
            res = on_cluster(_rank_program, n, warm, kind == "process")[0]
        oneway = {size: res[f"rtt.{size}"] / 2 for size in _SIZES}
        out[f"msglib.{kind}.startup_us"] = US * oneway[8]
        out[f"msglib.{kind}.oneway_us.6400B"] = US * oneway[6400]
        out[f"msglib.{kind}.bw_MBps.48KB"] = 48 * 1024 / oneway[48 * 1024] / 1e6
        if kind == "process":
            out["msglib.process.oneway_us.2400B"] = US * oneway[2400]
            out["msglib.process.recv_view_us.6400B"] = US * res["view"] / 2
            out["msglib.process.irecv_wait_us.6400B"] = US * res["irecv"] / 2
            out["msglib.process.allreduce_us"] = US * res["allreduce"]
    return out


# -- parallel -------------------------------------------------------------------


def probe_parallel(ctx: Context, log: SpanLog, block_step_ms: float) -> dict[str, float]:
    ctx.need("kernel", "jet_ref")
    out: dict[str, float] = {}
    serial = _jet(None)
    with log.span("api.run.serial"):
        base = serial.run_once(ctx)
    serial_step = serial.loop_seconds(base) / base.steps
    for version in (5, 6, 7):
        tag = f"v{version}"
        w = _jet(version)
        with log.span(f"api.run.p2.{tag}") as sp:
            res = w.run_once(ctx)
        if not np.array_equal(res.state.q, ctx.jet_ref):
            raise RuntimeError(f"{tag}: state differs from the serial reference")
        walls = res.timings.per_rank_wall
        slow = walls.index(max(walls))
        st, steps = res.per_rank_stats[slow], res.steps
        step_ms = MS * walls[slow] / steps
        comm = MS * st.comm_seconds / steps
        # Rank 0 roots the final gather, so its sends are halo and
        # reduction traffic only: the paper's per-processor quantities.
        counts = res.per_rank_stats[0]
        out.update({
            f"parallel.step_ms.{tag}": step_ms,
            f"parallel.speedup.{tag}": MS * serial_step / step_ms,
            f"parallel.msgs_per_step.{tag}": counts.sends / steps,
            f"parallel.bytes_per_step.{tag}": counts.bytes_sent / steps,
            f"parallel.max_msg_bytes.{tag}": counts.max_message_bytes,
            f"parallel.comm_ms_per_step.{tag}": comm,
            f"parallel.send_ms_per_step.{tag}": MS * st.send_seconds / steps,
            f"parallel.recv_ms_per_step.{tag}": MS * st.recv_seconds / steps,
            f"parallel.noncomm_ms_per_step.{tag}": step_ms - comm,
            # derived: pack/unpack, edge recompute and spmd Python
            f"parallel.exchange_self_ms_per_step.{tag}": step_ms - comm - block_step_ms,
            f"parallel.imbalance.{tag}": max(walls) / min(walls),
        })
        if version == 5:
            out["parallel.launch_ms.process"] = MS * (sp.end - sp.start - max(walls))

    short = 10 if ctx.sizes.smoke else 30
    w5 = _jet(5)
    with log.span("api.run.p2.virtual"):
        virt = w5.run_once(ctx, steps=short, substrate="virtual")
    with log.span("api.run.p2.radial"):
        rad = w5.run_once(ctx, steps=short, decomposition="radial")
    if not np.array_equal(virt.state.q, rad.state.q):
        raise RuntimeError("virtual/axial and process/radial states differ")
    out["parallel.step_ms.virtual.p2"] = MS * max(virt.timings.per_rank_wall) / short
    out["parallel.step_ms.radial.p2"] = MS * max(rad.timings.per_rank_wall) / short

    # Exact per-step traffic of an interior rank: the difference between a
    # 20- and a 10-step run drops the run's fixed messages (final gather).
    for key, scenario, nprocs in (("p4", "jet", 4), ("euler", "jet-euler", 2)):
        stats = []
        for steps in (10, 20):
            with log.span(f"api.run.counts.{key}"):
                res = run(
                    scenario, steps=steps, nprocs=nprocs, substrate="process",
                    version=5, backend="compiled", ledger=False,
                    timeout=CALL_TIMEOUT, **ctx.jet_kw,
                )
            stats.append(max(res.per_rank_stats, key=lambda s: s.sends))
        out[f"parallel.msgs_per_step.{key}.v5"] = (stats[1].sends - stats[0].sends) / 10
        out[f"parallel.bytes_per_step.{key}.v5"] = (
            stats[1].bytes_sent - stats[0].bytes_sent
        ) / 10
    return out


def _jet(version: int | None) -> JetWorkload:
    """The workloads' jet run, serial (``None``) or on 2 ranks at a code
    version (V7 has no workload of its own)."""
    return JetWorkload(f"probe-v{version}", version, 0.0, "")


# -- service / request ------------------------------------------------------------


def probe_service(ctx: Context, log: SpanLog) -> dict[str, float]:
    ctx.need("service")
    client, svc = ctx.client, ctx.svc
    smoke = ctx.sizes.smoke
    n_cold, n_hit, n_small = (4, 12, 10) if smoke else (12, 40, 20)
    executed0 = svc.executed
    cached = attached = 0
    out: dict[str, float] = {
        "service.start_s": ctx.notes["service_start_s"],
        "service.prefill_jobs_per_s": ctx.prefilled / ctx.notes["prefill_s"],
    }
    out["service.socket_rtt_ms"] = MS * median(
        _timed(log, "service.client.ping", client.ping, n_small, warm=3)
    )

    def fetch(req, series):
        """submit -> result in hand; appends the two client spans."""
        with log.span("service.client.submit") as s1:
            job = client.submit(req)
        with log.span("service.client.result") as s2:
            res = client.result(job["id"], timeout=CALL_TIMEOUT)
        series.append((s1, s2))
        return job, res

    # Cold requests with their in-flight duplicates; the worker side comes
    # from the job's public timestamps (time.time stamps: shift them).
    shift = time.perf_counter() - time.time()
    cold, follower, rows, requests = [], [], [], []
    for _ in range(n_cold):
        req = ctx.service_request()
        requests.append(req)
        with log.span("service.client.submit") as s1:
            first = client.submit(req)
        with log.span("service.client.submit") as s1b:
            second = client.submit(req)
        with log.span("service.client.result") as s2:
            res = client.result(first["id"], timeout=CALL_TIMEOUT)
        with log.span("service.client.result") as s3:
            client.result(second["id"], timeout=CALL_TIMEOUT)
        attached += second.get("attached_to") == first["id"]
        job = svc.job(first["id"])
        cold.append(s2.end - s1.start)
        follower.append(s3.end - s1b.start)
        rows.append({
            "submit": s1.end - s1.start,
            "queue": job.started - job.submitted,
            "exec": job.finished - job.started,
            "solve": res.timings.wall_seconds,
            "notify_fetch": s2.end - (job.finished + shift),
        })
    col = {k: median(r[k] for r in rows) for k in rows[0]}
    out.update({
        "service.cold_ms": MS * median(cold),
        "service.follower_ms": MS * median(follower),
        "service.submit_ms.cold": MS * col["submit"],
        "service.queue_ms": MS * col["queue"],
        "service.exec_ms": MS * col["exec"],
        "service.solve_ms": MS * col["solve"],
        "service.worker_overhead_ms": MS * (col["exec"] - col["solve"]),
        "service.notify_fetch_ms": MS * col["notify_fetch"],
        "service.cold_overhead_ms": MS * (median(cold) - col["solve"]),
    })

    hits: list = []
    for k in range(n_hit):
        job, _ = fetch(requests[k % n_cold], hits)
        cached += bool(job.get("cached"))
    hit = [s2.end - s1.start for s1, s2 in hits]
    out.update({
        "service.hit_ms": MS * median(hit),
        "service.hit_p80_ms": MS * _p(hit, 8),
        "service.submit_ms.hit": MS * median(s1.end - s1.start for s1, _ in hits),
        "service.fetch_ms": MS * median(s2.end - s2.start for _, s2 in hits),
    })

    def inproc():
        job = svc.submit(requests[0])
        svc.result(job.id)

    out["service.inproc_hit_ms"] = MS * median(
        _timed(log, "service.inproc_hit", inproc, n_small, warm=2)
    )

    # The store on its own: reads against the live (pre-filled) store,
    # writes into a private one.
    store, fp = svc.store, requests[0].fingerprint()
    out["service.store_refresh_ms"] = MS * median(
        _timed(log, "service.store.refresh", store.refresh, n_small // 2, warm=1)
    )
    out["service.store_load_ms"] = MS * median(
        _timed(log, "service.store.load", lambda: store.load_result(fp), n_small, warm=1)
    )
    payload = store.load_result(fp)
    entry = store.get(fp)
    private = ResultStore(ctx.work.sub("probe-store"))
    puts = itertools.count()
    out["service.store_put_ms"] = MS * median(_timed(
        log, "service.store.put",
        lambda: private.put(
            f"probe{next(puts):06d}", payload, kind="run",
            request=entry.request, report=entry.report,
        ),
        n_small, warm=1,
    ))
    out["service.payload_bytes"] = os.path.getsize(store.root / entry.payload)
    out["service.index_bytes_per_entry"] = os.path.getsize(store.index_path) / len(store)

    # Bursts: unique jobs submitted at once, both workers busy.
    rates = []
    for _ in range(1 if smoke else 2):
        burst = [ctx.service_request() for _ in range(16)]
        with log.span("service.burst") as sp:
            jobs = [svc.submit(r) for r in burst]
            for j in jobs:
                if svc.wait(j.id, timeout=CALL_TIMEOUT).status != "done":
                    raise RuntimeError(f"burst job {j.id} did not finish")
        rates.append(len(burst) / (sp.end - sp.start))
    out["service.burst_jobs_per_s"] = median(rates)
    out["service.executed"] = svc.executed - executed0
    out["service.cached"] = cached
    out["service.attached"] = attached

    # The same hit against an empty store: what pre-filling adds.
    svc2, server2, thread2, client2 = start_service(ctx.work, "store-empty", "e.sock")
    try:
        req = ctx.service_request()
        client2.result(client2.submit(req)["id"], timeout=CALL_TIMEOUT)

        def empty_hit():
            client2.result(client2.submit(req)["id"], timeout=CALL_TIMEOUT)

        empty = _timed(log, "service.hit.empty_store", empty_hit, n_small, warm=2)
    finally:
        stop_service(svc2, server2, thread2)
    out["service.hit_ms.empty_store"] = MS * median(empty)
    out["service.hit_growth"] = median(hit) / median(empty)

    req = requests[0]
    out["request.fingerprint_us"] = US * median(
        _timed(log, "request.fingerprint", req.fingerprint, 5 * n_small, warm=3)
    )
    out["request.roundtrip_us"] = US * median(_timed(
        log, "request.roundtrip",
        lambda: RunRequest.from_dict(req.to_dict()), 5 * n_small, warm=3,
    ))
    return out


# -- simulate -------------------------------------------------------------------


def probe_simulate(ctx: Context, log: SpanLog) -> dict[str, float]:
    smoke = ctx.sizes.smoke
    t3d = platform_by_name("Cray T3D")
    out = {}
    for p, n in ((2, 10), (16, 2 if smoke else 6)):
        machine = SimulatedMachine(t3d, p, version=5)
        out[f"simulate.sim_ms.p{p}"] = MS * median(_timed(
            log, f"simulate.machine.p{p}",
            lambda: machine.run(NAVIER_STOKES, steps_window=30), n, warm=1,
        ))
    des = DesWorkload()
    cfgs = [c for c in des.configs(ctx) if c[2] in (2, 4)][: 8 if smoke else 24]
    with log.span("simulate.sweep_part") as sp:
        for cfg in cfgs:
            des.simulate(cfg)
    out["simulate.sims_per_s"] = len(cfgs) / (sp.end - sp.start)

    # The bare event engine under a harness-built contention pattern.
    engine, link = Engine(), Resource(capacity=2, name="link")

    def proc(k: int):
        for _ in range(300 if smoke else 3000):
            yield Delay(1.0 + 0.1 * k)
            yield Acquire(link)
            yield Delay(0.5)
            yield Release(link)

    for k in range(8):
        engine.add_process(proc(k), f"p{k}")
    with log.span("simulate.engine") as sp:
        engine.run()
    out["simulate.engine_events_per_s"] = engine.steps / (sp.end - sp.start)
    return out


# -- obs ------------------------------------------------------------------------


def probe_obs(ctx: Context, log: SpanLog) -> dict[str, float]:
    """``run(metrics=True | trace=True)`` against off, interleaved.  The
    service forces metrics on, so this overhead is inside ``cold_ms``."""
    ctx.need("kernel")
    steps = 10 if ctx.sizes.smoke else 30
    series: dict[str, list[float]] = {"off": [], "metrics": [], "trace": []}
    for _ in range(2):
        for mode in series:
            kw = {} if mode == "off" else {mode: True}
            with log.span(f"api.run.obs.{mode}"):
                res = run(
                    "jet", steps=steps, backend="compiled", ledger=False,
                    **kw, **ctx.jet_kw,
                )
            series[mode].append(res.timings.ms_per_step)
    off = median(series["off"])
    return {
        "obs.metrics_overhead_pct": 100 * (median(series["metrics"]) / off - 1),
        "obs.trace_overhead_pct": 100 * (median(series["trace"]) / off - 1),
    }
