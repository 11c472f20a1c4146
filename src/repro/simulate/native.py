"""The plan engine in C: ranks, wire transfers and the event heap in one unit.

:func:`run` runs one simulated run's :class:`~repro.simulate.program.Plan`
without a Python frame per event: its arrays go in as they are, and the C
is :func:`repro.simulate.program.run` transcribed — ``Engine.run`` with
``RankProcess.resume`` and ``Transfer.resume``, one heap keyed
``(time, seq)``, the same pushes in the same order, the same float
operands and association.  A traced run logs its schedule/resume instants,
fault notes and segments in event order; Python replays them afterwards.

The unit is built through :func:`repro.numerics.kernels._cc.build_library`
(the kernels' cache) as a second shared object, at the first simulated
run.  Without a C toolchain :func:`run` warns and returns ``False``, and
the caller runs the plan on the Python engine — also the tests' reference.
"""

from __future__ import annotations

import ctypes
import warnings
from array import array

from ..numerics.kernels import _cc
from .engine import MAX_EVENTS
from .program import note_fault
from .timeline import Segment

#: The hand-off, declared once for the C typedef and its ctypes mirror.
#: ``timeline``: six doubles a rank (busy, compute, library, wait,
#: finished_at, done); ``log``: ``nlog`` records (kind, who, time, aux),
#: freed by ``des_free``.
PLAN = """
    int nranks, steps, nres, nkeys, blocking, trace, err_who;
    long max_events, events, nlog, caplog;
    double startup, now, err_dt;
    const int *eoff, *op, *side, *piece, *roff, *route, *cap;
    const double *sec, *wire, *extra;
    double *timeline;
    Rec *log;"""

SOURCE = r"""
#include <stdlib.h>
#include <string.h>

typedef struct { double kind, who, t, aux; } Rec;
typedef struct {""" + PLAN + r"""
} DesPlan;

enum { COMPUTE, SEND, RECV };                       /* program._COMPUTE... */
enum { NEXT, WAITING, CHARGED, SENDING };           /* program._NEXT... */
enum { BUSY, COMP, LIB, WAIT, FIN, DONE, NTL };     /* timeline doubles */
enum { RESUME, SCHEDULE, FAULT, SEGMENT };          /* log kinds */
enum { OK, STALL, BUDGET, NEGATIVE, NOMEM };        /* des_run's status */
#define ARRIVED (-2)                                /* a slot: -1, a rank or this */

/* A process id: a rank r < nranks, or nranks + the transfer of entry e at
   step s, e * steps + s.  Each is in the heap at most once. */
typedef struct { double t; long seq; int pid; } Ev;
typedef struct { int rank, owner, pc, next; double occ; } Tr;
typedef struct { int step, i, stage, next; double t0; } Rk;
typedef struct {
    DesPlan *p;
    Ev *heap; long nheap, seq;
    Tr *tr; Rk *rk;
    int *head, *tail, *arr, *in_use;
} D;

static void note(D *d, int kind, int who, double t, double aux) {
    DesPlan *p = d->p;
    if (p->caplog < 0) return;                        /* out of memory: NOMEM */
    if (p->nlog == p->caplog) {
        Rec *log = realloc(p->log, (2 * p->caplog + 256) * sizeof(Rec));
        if (!log) { p->caplog = -1; return; }
        p->log = log, p->caplog = 2 * p->caplog + 256;
    }
    p->log[p->nlog++] = (Rec){kind, who, t, aux};
}
/* A process's name: 2r is "rank{r}", 2r + 1 "rank{r}.child". */
static int name(D *d, int pid) {
    return pid < d->p->nranks ? 2 * pid : 2 * d->tr[pid - d->p->nranks].rank + 1;
}
static int *link(D *d, int pid) {
    return pid < d->p->nranks ? &d->rk[pid].next : &d->tr[pid - d->p->nranks].next;
}
static int before(const Ev *a, const Ev *b) {
    return a->t < b->t || (a->t == b->t && a->seq < b->seq);
}
static void push(D *d, double at, int pid) {
    Ev ev = {at, ++d->seq, pid};
    long i = d->nheap++;
    for (; i > 0 && before(&ev, &d->heap[(i - 1) / 2]); i = (i - 1) / 2)
        d->heap[i] = d->heap[(i - 1) / 2];
    d->heap[i] = ev;
    if (d->p->trace) note(d, SCHEDULE, name(d, pid), d->p->now, at);
}
static Ev pop(D *d) {
    Ev top = d->heap[0], last = d->heap[--d->nheap];
    long i = 0, c, n = d->nheap;
    for (; (c = 2 * i + 1) < n; i = c) {
        if (c + 1 < n && before(&d->heap[c + 1], &d->heap[c])) c++;
        if (!before(&d->heap[c], &last)) break;
        d->heap[i] = d->heap[c];
    }
    if (n) d->heap[i] = last;
    return top;
}

static int *arrival(D *d, int r, int e, int s) {     /* Plan.slot, at step s */
    return &d->arr[((r - 1 + d->p->side[e]) * d->p->nkeys + d->p->piece[e]) * d->p->steps + s];
}

/* Transfer.resume: 0 parked, 1 a delay in *dt, 2 done. */
static int tr_resume(D *d, int k, double now, double *dt) {
    const DesPlan *p = d->p;
    Tr *t = &d->tr[k];
    int e = k / p->steps, rt = 2 * t->rank + p->side[e], pc = t->pc;
    int n = p->roff[rt + 1] - p->roff[rt];
    const int *route = p->route + p->roff[rt];
    if (pc == 0) {
        t->pc = pc = 1;
        if (p->startup > 0.0) return *dt = p->startup, 1;
    }
    while (pc <= n) {                                 /* the engine's Acquire */
        int r = route[pc++ - 1], pid = t->owner >= 0 ? t->owner : p->nranks + k;
        if (d->in_use[r] < p->cap[r] && d->head[r] < 0) { d->in_use[r]++; continue; }
        *link(d, pid) = -1;                           /* queue it */
        if (d->tail[r] < 0) d->head[r] = pid; else *link(d, d->tail[r]) = pid;
        d->tail[r] = pid, t->pc = pc;
        return 0;
    }
    if (pc == n + 1) return t->pc = n + 2, *dt = t->occ, 1;
    for (int j = n - 1; j >= 0; j--) {                /* the engine's Release */
        int r = route[j];
        if (--d->in_use[r] < p->cap[r] && d->head[r] >= 0) {
            int pid = d->head[r];
            if ((d->head[r] = *link(d, pid)) < 0) d->tail[r] = -1;
            d->in_use[r]++;
            push(d, now, pid);
        }
    }
    int *slot = arrival(d, t->rank, e, k % p->steps), waiter = *slot;
    *slot = ARRIVED;
    if (waiter >= 0) push(d, now, waiter);
    return 2;
}
static void segment(D *d, int r, int kind, double t0, double now) {
    if (d->p->trace && now > t0) note(d, SEGMENT, 3 * r + kind, t0, now);
}

/* RankProcess.resume: 0 parked or done, 1 a delay in *dt. */
static int rk_resume(D *d, int r, double now, double *dt) {
    const DesPlan *p = d->p;
    Rk *k = &d->rk[r];
    double *tl = p->timeline + NTL * r;
    int base = p->eoff[r], len = p->eoff[r + 1] - base, i = k->i, stage = k->stage, e;
    int t = (base + i) * p->steps + k->step;          /* entry i's transfer */
    if (stage == WAITING) {
        tl[WAIT] += now - k->t0;
        segment(d, r, 2, k->t0, now);
    } else {
        if (stage == CHARGED) {
            e = base + i;
            segment(d, r, p->op[e] != COMPUTE, k->t0, now);
            if (p->op[e] == SEND) {
                double extra = p->extra ? p->extra[t] : 0.0;
                if (extra > 0.0 && p->trace) note(d, FAULT, t, now, 0.0);
                d->tr[t] = (Tr){r, -1, 0, -1, p->wire[e] + extra};
                if (p->blocking)                      /* the rank runs it inline */
                    d->tr[t].owner = r, k->t0 = now, stage = SENDING;
                else
                    push(d, now, p->nranks + t);
            }
        }
        if (stage == SENDING) {
            int s = tr_resume(d, t, now, dt);
            if (s != 2) return k->stage = SENDING, s;
            tl[WAIT] += now - k->t0;
        }
        if (++i == len) {
            i = 0;
            if (++k->step == p->steps) return tl[FIN] = now, tl[DONE] = 1.0, 0;
        }
        e = base + i;
        if (p->op[e] == RECV) {                       /* wait for the arrival */
            int *slot = arrival(d, r, e, k->step);
            k->t0 = now;
            if (*slot != ARRIVED) return *slot = r, k->i = i, k->stage = WAITING, 0;
            tl[WAIT] += now - k->t0;
        }
    }
    e = base + i;
    k->t0 = now;
    tl[BUSY] += p->sec[e];
    tl[p->op[e] == COMPUTE ? COMP : LIB] += p->sec[e];
    k->i = i, k->stage = CHARGED;
    return *dt = p->sec[e], 1;
}

int des_run(DesPlan *p) {
    int n = p->nranks, status = OK;
    long nq = p->nres, ntr = (long)p->eoff[n] * p->steps;
    long na = (long)(n - 1) * p->nkeys * p->steps, nint = 3 * nq + na + 1;
    D d = {p, .heap = malloc((n + ntr) * sizeof(Ev)), .tr = malloc((ntr + 1) * sizeof(Tr)),
           .rk = malloc(n * sizeof(Rk)), .head = malloc(nint * sizeof(int))};
    if (!d.heap || !d.tr || !d.rk || !d.head) { status = NOMEM; goto out; }
    memset(d.head, 0xff, nint * sizeof(int));        /* nobody queued, nothing arrived */
    d.tail = d.head + nq, d.arr = d.tail + nq, d.in_use = d.arr + na;
    memset(d.in_use, 0, nq * sizeof(int));
    p->now = 0.0, p->events = 0;
    for (int r = 0; r < n; r++) {
        d.rk[r] = (Rk){0, -1, NEXT, -1, 0.0};
        push(&d, 0.0, r);
    }
    while (d.nheap) {
        Ev ev = pop(&d);
        double dt, now = p->now = ev.t;
        if (p->trace) note(&d, RESUME, name(&d, ev.pid), now, 0.0);
        int s = ev.pid < n ? rk_resume(&d, ev.pid, now, &dt)
                           : tr_resume(&d, ev.pid - n, now, &dt);
        if (s == 1) {
            if (dt < 0) { p->err_who = name(&d, ev.pid), p->err_dt = dt; status = NEGATIVE; goto out; }
            push(&d, now + dt, ev.pid);
        }
        if (++p->events > p->max_events) { status = BUDGET; goto out; }
    }
    for (int r = 0; r < n && status == OK; r++)
        if (p->timeline[NTL * r + DONE] == 0.0) status = STALL;
    if (p->caplog < 0) status = NOMEM;
out:
    free(d.heap), free(d.tr), free(d.rk), free(d.head);
    return status;
}

void des_free(DesPlan *p) {
    free(p->log);
    p->log = NULL, p->nlog = p->caplog = 0;
}
"""

DesPlan = _cc._mirror("DesPlan", PLAN)
#: The plan's arrays, passed to the C as they are.
_ARRAYS = ("eoff", "op", "side", "piece", "roff", "route", "cap", "sec", "wire")
#: Segment kinds by the C engine's code (``RankProcess._record``).
_KINDS = ("compute", "library", "wait")
_LIB = None


def _library():
    """The loaded unit, built at the first call; ``None`` (with a
    ``RuntimeWarning``) where it cannot be built — a later call retries."""
    global _LIB
    if _LIB is None:
        try:
            lib = ctypes.CDLL(_cc.build_library(units={"des_engine": SOURCE}, stem="repro_des"))
        except (RuntimeError, OSError) as exc:
            warnings.warn(f"native DES engine unavailable ({exc}); running the Python "
                          "plan engine (bitwise-identical, slower)", RuntimeWarning, stacklevel=3)
            return None
        lib.des_run.argtypes = lib.des_free.argtypes = [ctypes.POINTER(DesPlan)]
        lib.des_run.restype, lib.des_free.restype = ctypes.c_int, None
        _LIB = lib
    return _LIB


def _name(code: int) -> str:
    return f"rank{code // 2}" + (".child" if code % 2 else "")


def run(plan, timelines, tracer=None, max_events=MAX_EVENTS):
    """Run ``plan`` (a :class:`~repro.simulate.program.Plan`) to the end
    natively, leaving what :func:`repro.simulate.program.run` would: the
    ``timelines``, the tracer's instants, the same errors, and its return,
    the end time and the event count.  ``False`` where the unit cannot be
    built: nothing has run."""
    lib = _library()
    if lib is None:
        return False
    n, steps = plan.nranks, plan.steps
    tl = array("d", bytes(48 * n))
    des = DesPlan(
        nranks=n, steps=steps, nres=len(plan.cap), nkeys=len(plan.keys),
        blocking=plan.blocking, trace=timelines[0].segments is not None,
        max_events=max_events, startup=plan.startup, timeline=tl.buffer_info()[0],
        **{k: getattr(plan, k).buffer_info()[0] for k in _ARRAYS},
        extra=plan.extra.buffer_info()[0] if plan.extra is not None else None,
    )
    try:
        status = lib.des_run(ctypes.byref(des))
        log = (ctypes.c_double * (4 * des.nlog)).from_address(des.log) if des.nlog else ()
        it = iter(log)
        for kind, who, t, aux in zip(it, it, it, it):
            who = int(who)
            if kind == 3.0:
                timelines[who // 3].segments.append(Segment(_KINDS[who % 3], t, aux))
            elif tracer is None:
                continue
            elif kind == 0.0:
                tracer.instant("proc.resume", cat="engine", ts=t, proc=_name(who))
            elif kind == 1.0:
                tracer.instant("proc.schedule", cat="engine", ts=t, proc=_name(who), at=aux)
            else:
                note_fault(tracer, plan, t, *divmod(who, steps))
    finally:
        lib.des_free(ctypes.byref(des))
    for r, t in enumerate(timelines):
        t.busy, t.compute, t.library, t.comm_wait, t.finished_at, _ = tl[6 * r:6 * r + 6]
    if status:  # Engine.run's errors, word for word
        raise {
            1: RuntimeError(
                "simulation stalled with blocked processes: "
                f"{[f'rank{r}' for r in range(n) if tl[6 * r + 5] == 0.0][:8]} "
                "(resource or event deadlock)"),
            2: RuntimeError("event budget exceeded (runaway simulation?)"),
            3: ValueError(f"negative delay {des.err_dt} in {_name(des.err_who)}"),
        }.get(status, MemoryError("the native DES engine ran out of memory"))
    return des.now, des.events
