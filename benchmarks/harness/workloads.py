"""Set-up and the five workloads.

Every workload is a closed loop driven by this one process: the next
operation is issued when the previous one is in hand.  Work per run is a
fixed count derived from ``--seconds`` (``rate x seconds``, rates sized on
the 2-vCPU reference host), not a time box, so both sides of a later
comparison do identical work — the store in ``service-mix`` in particular
holds the same number of entries when the hits are timed.

End-to-end numbers use only the stable facade: ``repro.api.run`` /
``run_request``, ``RunRequest`` and ``RunService`` / ``ServiceServer`` /
``ServiceClient``.
"""

from __future__ import annotations

import random
import threading
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro import constants
from repro.api import run, run_request
from repro.numerics.kernels import get_backend
from repro.request import ExecutionConfig, RunRequest
from repro.service import RunService, ServiceClient, ServiceServer

from isolation import Watchdog, Workdir
from spans import SpanLog
from stats import median
from yardstick import Yardstick

#: Bound on any single blocking call into the program (seconds).
CALL_TIMEOUT = 60.0

DES_APPS = ("jet", "jet-euler")
DES_PLATFORMS = (
    "LACE/560+ALLNODE-S", "LACE/590+ALLNODE-F", "IBM SP", "Cray T3D",
)
DES_VERSIONS = (5, 6, 7)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``smoke`` shrinks them so every path runs in seconds."""

    smoke: bool = False
    jet_grid: tuple[int, int] = (250, 100)
    jet_steps: int = 100
    service_grid: tuple[int, int] = (64, 32)
    service_steps: int = 10
    prefill_jobs: int = 300
    prefill_steps: int = 2
    des_procs: tuple[int, ...] = (2, 4, 8, 16)
    verify_direct: int = 16

    @classmethod
    def for_smoke(cls) -> "Sizes":
        return cls(
            smoke=True, jet_steps=20, prefill_jobs=24, des_procs=(2, 4),
            verify_direct=3,
        )

    def reps(self, rate: float, seconds: float, floor: int) -> int:
        return max(2 if self.smoke else floor, round(rate * seconds))


class Context:
    """Set-up products shared by the workloads and the per-layer probes.

    ``need`` builds each part once and records what it cost; the sum, plus
    imports, is ``setup_s``.
    """

    def __init__(
        self, seed: int, sizes: Sizes, work: Workdir, watchdog: Watchdog
    ) -> None:
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.watchdog = watchdog
        self.rng = random.Random(seed)
        self.parts: dict[str, float] = {}
        self.notes: dict[str, float] = {}
        """Set-up timings reported by the service probe, not summed."""
        # Same cost, different bits: the seed moves the jet's excitation
        # within +-5 % and draws the service request stream.
        self.jet_kw = {
            "nx": sizes.jet_grid[0],
            "nr": sizes.jet_grid[1],
            "epsilon": constants.EXCITATION_LEVEL * self.rng.uniform(0.95, 1.05),
            "strouhal": constants.STROUHAL * self.rng.uniform(0.95, 1.05),
        }
        self.jet_ref: np.ndarray | None = None
        self.svc: RunService | None = None
        self.server: ServiceServer | None = None
        self.client: ServiceClient | None = None
        self._server_thread: threading.Thread | None = None
        self.prefilled = 0
        # A fused fallback would silently measure another program.
        warnings.filterwarnings(
            "error", message="compiled backend unavailable", category=RuntimeWarning
        )

    # -- set-up parts --------------------------------------------------------

    def need(self, *parts: str) -> None:
        for part in parts:
            if part not in self.parts:
                self.watchdog.enter(f"setup:{part}", 2 * CALL_TIMEOUT)
                t0 = time.perf_counter()
                getattr(self, f"_setup_{part}")()
                self.parts[part] = time.perf_counter() - t0

    def _setup_kernel(self) -> None:
        """Cold build of the C kernels into this run's fresh cache."""
        ops = get_backend("compiled").ops()
        if ops.engine != "cc":
            raise RuntimeError(f"compiled engine resolved to {ops.engine!r}, not cc")

    def _setup_jet_ref(self) -> None:
        """The oracle every jet rep is compared with: the fused numpy
        kernels on the serial route (compiled == fused == every
        decomposition, bit for bit)."""
        ref = run(
            "jet", steps=self.sizes.jet_steps, backend="fused", ledger=False,
            **self.jet_kw,
        )
        self.jet_ref = ref.state.q.copy()

    def _setup_service(self) -> None:
        """Service + socket server on a private store, pre-filled with real
        jobs so costs that scale with store size are visible."""
        self.need("kernel")  # forked workers inherit the warm kernels
        t0 = time.perf_counter()
        self.svc, self.server, self._server_thread, self.client = start_service(
            self.work, "store", "svc.sock"
        )
        self.client.ping()
        t1 = time.perf_counter()
        jobs = [
            self.svc.submit(self.service_request(steps=self.sizes.prefill_steps))
            for _ in range(self.sizes.prefill_jobs)
        ]
        for job in jobs:
            done = self.svc.wait(job.id, timeout=CALL_TIMEOUT)
            if done.status != "done":
                raise RuntimeError(f"pre-fill {job.id} ended {done.status}: {done.error}")
        self.prefilled = len(jobs)
        self.notes["service_start_s"] = t1 - t0
        self.notes["prefill_s"] = time.perf_counter() - t1

    def service_request(self, steps: int | None = None) -> RunRequest:
        """The next request of the seeded stream (unique fingerprint)."""
        nx, nr = self.sizes.service_grid
        return RunRequest(
            "jet",
            steps=self.sizes.service_steps if steps is None else steps,
            scenario_kw={
                "nx": nx,
                "nr": nr,
                "epsilon": constants.EXCITATION_LEVEL * self.rng.uniform(0.95, 1.05),
            },
            execution=ExecutionConfig(backend="compiled"),
        )

    def close(self) -> None:
        stop_service(self.svc, self.server, self._server_thread)
        self.svc = self.server = self._server_thread = self.client = None


def start_service(work: Workdir, store: str, sock: str):
    svc = RunService(workers=2, store=work.sub(store), ledger=False).start()
    try:
        path = work.socket_path(sock)
        server = ServiceServer(svc, path)
    except BaseException:
        svc.close()
        raise
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.1}, daemon=True
    )
    thread.start()
    return svc, server, thread, ServiceClient(path, timeout=CALL_TIMEOUT)


def stop_service(svc, server, thread) -> None:
    if server is not None:
        server.shutdown()
        server.server_close()
    if thread is not None:
        thread.join(timeout=5.0)
    if svc is not None:
        svc.close()


# -- results -------------------------------------------------------------------


Interval = tuple[float, float]


@dataclass
class Outcome:
    """What one timed series produced.  Operations are kept as the
    intervals they occupied; :meth:`settle` turns them into times, raw and
    restated at the reference host speed (see :mod:`yardstick`)."""

    ops: list[tuple[Interval, ...]] = field(default_factory=list)
    """The pieces of each headline operation (caller-visible wall)."""
    works: list[tuple[float, tuple[Interval, ...]]] = field(default_factory=list)
    """``(units of work, the pieces they took)`` per independent series."""
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    detail: dict[str, list[float]] = field(default_factory=dict)
    """Named raw series for the readable report (``step_ms``, ``hit_ms`` ...)."""
    counts: dict[str, float] = field(default_factory=dict)
    op_ms: list[float] = field(default_factory=list)
    rates: list[float] = field(default_factory=list)
    yardstick: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.errors)

    def fail(self, what: str) -> None:
        self.errors.append(what)

    def series(self, name: str) -> list[float]:
        return self.detail.setdefault(name, [])

    def settle(self, yard: Yardstick) -> None:
        def seconds(pieces, scaled):
            return sum(
                (e - s) * (yard.scale(s, e) if scaled else 1.0) for s, e in pieces
            )

        self.op_ms = [1e3 * seconds(p, True) for p in self.ops]
        self.rates = [units / seconds(p, True) for units, p in self.works]
        self.detail["op_ms.raw"] = [1e3 * seconds(p, False) for p in self.ops]
        self.detail["throughput.raw"] = [
            units / seconds(p, False) for units, p in self.works
        ]
        self.yardstick = {
            "parts": yard.parts,
            "samples": len(yard.samples),
            "median_ms": 1e3 * median(v for _, v in yard.samples),
            "nominal_ms": 1e3 * yard.nominal,
            "spent_s": yard.spent,
        }


class Workload:
    name = ""
    why = ""
    needs: tuple[str, ...] = ()
    unit = ""  # what ``throughput`` counts per second
    yard: tuple[str, ...] = ("py",)  # yardstick parts that resemble the work

    def warm_up(self, ctx: Context) -> None:
        """One untimed operation before the timed series."""

    def measure(self, ctx: Context, seconds: float, log: SpanLog | None) -> Outcome:
        raise NotImplementedError

    def _guard(self, ctx: Context, phase: str) -> None:
        ctx.watchdog.enter(f"{self.name}:{phase}", 2 * CALL_TIMEOUT)


# -- jet250-* -------------------------------------------------------------------


class JetWorkload(Workload):
    """``run("jet", 250x100, 100 steps, compiled)`` serially or on two
    process ranks."""

    needs = ("kernel", "jet_ref")
    unit = "steps"
    yard = ("py", "np")

    def __init__(self, name: str, version: int | None, rate: float, why: str):
        self.name, self.version, self.rate, self.why = name, version, rate, why

    def run_once(self, ctx: Context, **extra):
        kw = dict(
            steps=ctx.sizes.jet_steps, backend="compiled", ledger=False,
            **ctx.jet_kw,
        )
        if self.version is not None:
            kw.update(
                nprocs=2, substrate="process", version=self.version,
                timeout=CALL_TIMEOUT,
            )
        kw.update(extra)
        return run("jet", **kw)

    @staticmethod
    def loop_seconds(res) -> float:
        """Time in the stepping loop: the slowest rank sets it."""
        walls = res.timings.per_rank_wall
        return max(walls) if walls else res.timings.wall_seconds

    def warm_up(self, ctx: Context) -> None:
        self._guard(ctx, "warm-up")
        self.run_once(ctx)

    def measure(self, ctx, seconds, log):
        out, yard = Outcome(), Yardstick(self.yard)
        reps = ctx.sizes.reps(self.rate, seconds, floor=9 if log is None else 4)
        for i in range(reps):
            self._guard(ctx, f"rep {i}")
            out.attempted += 1
            yard.sample()
            try:
                t0 = time.perf_counter()
                res = self.run_once(ctx)
                t1 = time.perf_counter()
            except Exception as exc:  # a failed rep is counted, never timed
                out.fail(f"rep {i}: {type(exc).__name__}: {exc}")
                continue
            loop = self.loop_seconds(res)
            same = np.array_equal(res.state.q, ctx.jet_ref)
            if log is not None:
                with log.overhead():
                    self._record(log, i, t0, t1, time.perf_counter(), res, loop)
            if not same:
                out.fail(f"rep {i}: state differs from the fused serial reference")
                continue
            out.ops.append(((t0, t1),))
            out.works.append((res.steps, ((t1 - loop, t1),)))
            out.series("step_ms").append(1e3 * loop / res.steps)
            out.series("run_s").append(t1 - t0)
            if res.per_rank_stats:
                st = max(res.per_rank_stats, key=lambda s: s.sends)
                for key, val in (
                    ("msgs_per_step", st.sends / res.steps),
                    ("bytes_per_step", st.bytes_sent / res.steps),
                ):
                    if out.counts.setdefault(key, val) != val:
                        out.fail(f"rep {i}: {key} changed between reps")
        yard.sample()
        out.settle(yard)
        return out

    def _record(self, log: SpanLog, rep, t0, t1, t_end, res, loop) -> None:
        root = log.record("harness.rep", t0, t_end, rep=rep)
        call = log.record("api.run", t0, t1, root)
        if res.per_rank_stats is None:
            log.record("numerics.step_loop", t1 - loop, t1, call, kind="synthesized")
            return
        # Only the slowest rank blocks the result; its communicator's own
        # accounting splits its loop into time inside msglib and the rest.
        walls = res.timings.per_rank_wall
        st = res.per_rank_stats[walls.index(max(walls))]
        rank = log.record("parallel.rank_loop", t1 - loop, t1, call, kind="synthesized")
        edge = rank.start + st.send_seconds
        log.record("msglib.send", rank.start, edge, rank, kind="synthesized")
        log.record("msglib.recv", edge, edge + st.recv_seconds, rank, kind="synthesized")


# -- service-mix ----------------------------------------------------------------


class ServiceWorkload(Workload):
    name = "service-mix"
    why = (
        "socket service over a store pre-filled with 300 results: cold, "
        "in-flight-duplicate and stored requests; service/store/socket do "
        "most of the work, kernels little"
    )
    needs = ("kernel", "service")
    unit = "requests"
    cold_rate, hit_rate = 6.0, 10.0

    def warm_up(self, ctx: Context) -> None:
        self._guard(ctx, "warm-up")
        req = ctx.service_request()
        for _ in range(2):  # one cold, one hit
            job = ctx.client.submit(req)
            ctx.client.result(job["id"], timeout=CALL_TIMEOUT)

    def measure(self, ctx, seconds, log):
        out, yard = Outcome(), Yardstick(self.yard)
        client, svc = ctx.client, ctx.svc
        executed_before = svc.executed
        traced = log is not None
        n_cold = ctx.sizes.reps(self.cold_rate, seconds, floor=20 if traced else 60)
        n_hit = ctx.sizes.reps(self.hit_rate, seconds, floor=30 if traced else 100)
        requests = [ctx.service_request() for _ in range(n_cold)]
        states: list[np.ndarray | None] = [None] * n_cold
        pieces: list[Interval] = []

        # Phase A: every never-seen request is submitted twice back to
        # back, so the second attaches to the first while it is in flight.
        for i, req in enumerate(requests):
            self._guard(ctx, f"cold {i}")
            out.attempted += 2
            yard.sample()
            try:
                t0 = time.perf_counter()
                first = client.submit(req)
                t1 = time.perf_counter()
                second = client.submit(req)
                t2 = time.perf_counter()
                res1 = client.result(first["id"], timeout=CALL_TIMEOUT)
                t3 = time.perf_counter()
                res2 = client.result(second["id"], timeout=CALL_TIMEOUT)
                t4 = time.perf_counter()
            except Exception as exc:
                out.fail(f"cold {i}: {type(exc).__name__}: {exc}")
                out.fail(f"follower {i}: primary failed")
                continue
            states[i] = res1.state.q
            out.ops.append(((t0, t3),))
            pieces.append((t0, t4))
            out.series("cold_ms").append(1e3 * (t3 - t0))
            if second.get("attached_to") == first["id"]:
                out.counts["attached"] = out.counts.get("attached", 0) + 1
            if np.array_equal(res2.state.q, res1.state.q):
                out.series("follower_ms").append(1e3 * (t4 - t1))
            else:
                out.fail(f"follower {i}: result differs from its primary")
            if traced:
                with log.overhead():
                    self._record_cold(
                        log, i, svc, first["id"], res1,
                        (t0, t1, t2, t3, t4, time.perf_counter()),
                    )

        # Phase B: stored fingerprints, fetched at a fixed store size.
        for k in range(n_hit):
            i = ctx.rng.randrange(n_cold)
            self._guard(ctx, f"hit {k}")
            out.attempted += 1
            yard.sample()
            try:
                t0 = time.perf_counter()
                job = client.submit(requests[i])
                t1 = time.perf_counter()
                res = client.result(job["id"], timeout=CALL_TIMEOUT)
                t2 = time.perf_counter()
            except Exception as exc:
                out.fail(f"hit {k}: {type(exc).__name__}: {exc}")
                continue
            pieces.append((t0, t2))
            if job.get("cached"):
                out.counts["cached"] = out.counts.get("cached", 0) + 1
            if states[i] is not None and np.array_equal(res.state.q, states[i]):
                out.series("hit_ms").append(1e3 * (t2 - t0))
            else:
                out.fail(f"hit {k}: result differs from the first execution")
            if traced:
                with log.overhead():
                    root = log.record("harness.rep", t0, time.perf_counter(), rep=k)
                    log.record("service.client.submit", t0, t1, root)
                    log.record("service.client.result", t1, t2, root)
        yard.sample()

        fetched = sum(
            len(out.detail.get(k, ())) for k in ("cold_ms", "follower_ms", "hit_ms")
        )
        out.works.append((fetched, tuple(pieces)))
        out.settle(yard)
        self._verify(ctx, out, requests, states, executed_before)
        return out

    def _verify(self, ctx, out, requests, states, executed_before) -> None:
        """Untimed: the service ran each unique request exactly once, and
        a seeded sample equals a direct ``run_request`` bit for bit."""
        self._guard(ctx, "verify")
        out.counts["executed"] = ctx.svc.executed - executed_before
        out.attempted += 1
        if out.counts["executed"] != len(requests):
            out.fail(
                f"service executed {out.counts['executed']} jobs for "
                f"{len(requests)} unique requests"
            )
        sample = random.Random(ctx.seed).sample(
            range(len(requests)), min(ctx.sizes.verify_direct, len(requests))
        )
        for i in sample:
            out.attempted += 1
            direct = run_request(requests[i])
            if states[i] is None or not np.array_equal(direct.state.q, states[i]):
                out.fail(f"request {i}: service result differs from a direct run")

    @staticmethod
    def _record_cold(log, rep, svc, job_id, res, stamps) -> None:
        """Client spans are measured; the worker side is filled in from the
        job's public timestamps and the result's own timings."""
        t0, t1, t2, t3, t4, t_end = stamps
        root = log.record("harness.rep", t0, t_end, rep=rep)
        log.record("service.client.submit", t0, t1, root)
        log.record("service.client.submit", t1, t2, root)
        fetch = log.record("service.client.result", t2, t3, root)
        log.record("service.client.result", t3, t4, root)
        job = svc.job(job_id)
        if job.started is None or job.finished is None:
            return
        # Job stamps are time.time(); shift them onto the harness clock.
        shift = time.perf_counter() - time.time()
        started, finished = job.started + shift, job.finished + shift
        log.record(
            "service.queue", job.submitted + shift, started, fetch, kind="synthesized"
        )
        ex = log.record("service.exec", started, finished, fetch, kind="synthesized")
        log.record(
            "numerics.solve", ex.end - res.timings.wall_seconds, ex.end, ex,
            kind="synthesized",
        )


# -- des-sweep ------------------------------------------------------------------


class DesWorkload(Workload):
    name = "des-sweep"
    why = (
        "96 simulated-platform runs per sweep: pure simulate/machines, a "
        "control no solver, msglib or service change may move"
    )
    unit = "sims"
    rate = 0.3

    def __init__(self) -> None:
        self.reference: dict[tuple, tuple[float, float]] = {}

    def configs(self, ctx: Context) -> list[tuple]:
        cfgs = [
            (app, plat, p, v)
            for app in DES_APPS
            for plat in DES_PLATFORMS
            for p in ctx.sizes.des_procs
            for v in DES_VERSIONS
        ]
        random.Random(ctx.seed).shuffle(cfgs)  # same set, seeded order
        return cfgs

    @staticmethod
    def simulate(cfg):
        app, plat, p, v = cfg
        return run(app, platform=plat, nprocs=p, version=v, ledger=False)

    def warm_up(self, ctx: Context) -> None:
        """The untimed first sweep is also the reference: every later
        result must equal it exactly."""
        self._guard(ctx, "warm-up")
        for cfg in self.configs(ctx):
            sim = self.simulate(cfg).sim
            self.reference[cfg] = (sim.execution_time, sim.comm_time)

    def measure(self, ctx, seconds, log):
        out, yard = Outcome(), Yardstick(self.yard)
        cfgs = self.configs(ctx)
        sweeps = ctx.sizes.reps(self.rate, seconds, floor=3 if log is None else 1)
        for s in range(sweeps):
            self._guard(ctx, f"sweep {s}")
            root = None
            began = time.perf_counter()
            if log is not None:
                root = log.record("harness.rep", began, began, rep=s)
            clean = True
            sims: list[Interval] = []
            for cfg in cfgs:
                out.attempted += 1
                yard.sample()
                try:
                    t0 = time.perf_counter()
                    res = self.simulate(cfg)
                    t1 = time.perf_counter()
                except Exception as exc:
                    out.fail(f"sweep {s} {cfg}: {type(exc).__name__}: {exc}")
                    clean = False
                    continue
                sims.append((t0, t1))
                if root is not None:
                    with log.overhead():
                        root.end = t1  # keep the children inside while it grows
                        call = log.record("api.run", t0, t1, root)
                        log.record(
                            "simulate.machine", t1 - res.timings.wall_seconds, t1,
                            call, kind="synthesized",
                        )
                if (res.sim.execution_time, res.sim.comm_time) != self.reference[cfg]:
                    out.fail(f"sweep {s} {cfg}: result differs from the first sweep")
                    clean = False
            if root is not None:
                root.end = time.perf_counter()
            if clean:
                out.ops.append(tuple(sims))
                out.works.append((len(sims), tuple(sims)))
                out.series("sweep_s").append(sum(e - b for b, e in sims))
        yard.sample()
        out.settle(yard)
        return out


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        JetWorkload(
            "jet250-serial", None, 1.8,
            "the paper's 250x100 grid on one processor: numerics does all the "
            "work; the single-process baseline every speedup refers to",
        ),
        JetWorkload(
            "jet250-p2-blocking", 5, 1.15,
            "paper V5 on 2 process ranks: grouped blocking exchange, about "
            "half of each step inside msglib/parallel, so per-message cost shows",
        ),
        JetWorkload(
            "jet250-p2-overlap", 6, 1.15,
            "paper V6 on 2 process ranks: split-phase exchange over borrowed "
            "slots, the same layers used differently from the blocking path",
        ),
        ServiceWorkload(),
        DesWorkload(),
    )
}
