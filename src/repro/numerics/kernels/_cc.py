"""C kernel source and the gcc/ctypes JIT engine for the compiled backend.

The C source below transcribes the fused backend's numpy kernels
*operation for operation*: every per-element expression keeps the exact
association order of the ``np.<ufunc>(..., out=...)`` chains in
``fused.py``/``fluxes.py``/``viscous.py``/``stencils.py``, divisions stay
divisions, and the build disables floating-point contraction
(``-ffp-contract=off``, no ``-ffast-math``), so each kernel produces
bitwise-identical IEEE-754 doubles: ``tests/test_compiled.py`` holds the
plans and entry points to their numpy chains, ``tests/test_lattice.py``
each run to serial.

The source is three translation units (:data:`UNITS`), cut along kernel
boundaries and balanced by compile time: primitives + inviscid flux +
rate, the viscous stresses, and the filter + plans.  Each starts with one
:data:`PRELUDE` (includes, the shared inline helpers, the plan typedefs,
the entry-point prototypes).  :func:`build_library` starts one compiler
process per unit, all at once, and links the objects into one shared
object: on a host with more than one core the units' compile times
overlap.

The kernels are composed into a step by *plans* (the last unit): C
structs the compiled workspace fills once from the solver's
configuration, so a step is four foreign calls — ``k_sweep`` twice,
``k_filter_step`` and ``k_boundaries``.  Each struct is declared once, in
:data:`PLANS`; the C typedef and its ctypes mirror are both generated from
that text, so the two layouts cannot drift.

The units are built for the CPU they run on (:data:`HOST_CFLAGS`:
``-march=native`` at 256-bit vectors) and the bits do not depend on it —
``tests/test_compiled.py`` holds whole runs of the host build to a build
with the generic flags.  Where the CPU's identity cannot be read, or the
compiler refuses the host flags, the generic flags build the library.

The shared object is cached on disk keyed by a hash of the units, the
compiler command and the CPU's instruction-set identity
(``$REPRO_CC_CACHE`` or ``~/.cache/repro-cc``), so only the first process
on a machine ever pays the compile; later processes — including forked
process-substrate ranks — just ``dlopen`` the cached library, and a cache
shared between CPUs keeps one library per instruction set.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import shutil
import subprocess
import tempfile

#: Environment overrides for the compiler and the on-disk build cache.
CC_ENV_VAR = "REPRO_CC"
CACHE_ENV_VAR = "REPRO_CC_CACHE"

#: Flags of every build, pinned for bitwise reproducibility: optimization
#: without value changes (no fast-math, no FMA contraction of a*b+c), at
#: any vector width.  A call to an undeclared function is an error: a unit
#: that lost a definition fails its build instead of producing a library
#: that cannot be loaded.  Loop splitting is off: it made the objects and
#: the compile time about a tenth larger and the step no faster (DESIGN.md
#: section 7).  Alone, these flags are the generic build.
CFLAGS = (
    "-O3", "-fPIC", "-ffp-contract=off", "-fno-split-loops",
    "-Werror=implicit-function-declaration",
)
#: The host build adds the CPU's own instruction set at 256-bit vectors:
#: 512-bit ones ran no faster on an AVX-512 Xeon and compile slower
#: (DESIGN.md section 7).  The values do not move: without contraction and
#: fast-math, add, multiply, divide and sqrt round exactly at any width,
#: and no libm call is vectorized.
HOST_CFLAGS = ("-march=native", "-mprefer-vector-width=256")
#: The units' objects are linked into one shared object.
LDFLAGS = ("-shared",)

_HEAD = r"""
#include <math.h>
#include <stddef.h>
#include <string.h>

/* Cubic (4-point Lagrange) ghost extrapolation, transcribing
   stencils.cubic_ghosts per element: Python's sum() starts from int 0,
   so the chain is ((((0 + w0*p0) + w1*p1) + w2*p2) + w3*p3) — the
   leading 0.0 + t is kept for signed-zero fidelity. */
static inline double cubic_g1(double p0, double p1, double p2, double p3)
{
    double t = 4.0 * p0;
    double g = 0.0 + t;
    t = -6.0 * p1;
    g = g + t;
    t = 4.0 * p2;
    g = g + t;
    t = -1.0 * p3;
    g = g + t;
    return g;
}

static inline double cubic_g2(double p0, double p1, double p2, double p3)
{
    double t = 10.0 * p0;
    double g = 0.0 + t;
    t = -20.0 * p1;
    g = g + t;
    t = 15.0 * p2;
    g = g + t;
    t = -4.0 * p3;
    g = g + t;
    return g;
}

/* The power-law viscosity callback of a sweep plan: it fills the
   viscosity and its conductivity from T in Python (numpy's power is not
   libm's pow bit for bit); NULL for a constant viscosity. */
typedef void (*mu_fn)(void);
"""

_PRIM_FLUX = r"""
/* Primitives + inviscid flux of one split direction at one element
   (primitives_into, then axial_inviscid_into or radial_inviscid_into).
   With m the momentum along the sweep and a, b the velocities along and
   across it, both directions are (m, m*a + p, m*b, a*(E + p)), the
   second and third landing in rows (1, 2) axially and (2, 1) radially —
   fn and fs. */
typedef struct {
    double ir, u, v, p, f0, fn, fs, f3;
} point_flux;

static inline point_flux prim_flux_point(double q0, double q1, double q2,
                                         double q3, double gm1, int radial)
{
    point_flux s;
    s.ir = 1.0 / q0;
    s.u = q1 * s.ir;
    s.v = q2 * s.ir;
    double ta = q1 * s.u;
    double tb = q2 * s.v;
    ta = ta + tb;
    ta = ta * 0.5;
    ta = q3 - ta;
    s.p = ta * gm1;
    double a = radial ? s.v : s.u;
    double b = radial ? s.u : s.v;
    double ep = q3 + s.p;
    s.f0 = radial ? q2 : q1;
    double fn = s.f0 * a;
    s.fn = fn + s.p;
    s.fs = s.f0 * b;
    s.f3 = a * ep;
    return s;
}

/* The Navier-Stokes form keeps u, v, p, T for the stress kernel and
   leaves the r weight to it. */
static void prim_flux_ns(const double* restrict q0, const double* restrict q1,
                         const double* restrict q2, const double* restrict q3,
                         double gamma, double* restrict u, double* restrict v,
                         double* restrict p, double* restrict T,
                         double* restrict F0, double* restrict Fn,
                         double* restrict Fs, double* restrict F3, long n,
                         int radial)
{
    double gm1 = gamma - 1.0;
    for (long i = 0; i < n; i++) { /* vec */
        point_flux s = prim_flux_point(q0[i], q1[i], q2[i], q3[i], gm1,
                                       radial);
        double tt = s.p * gamma;
        u[i] = s.u;
        v[i] = s.v;
        p[i] = s.p;
        T[i] = tt * s.ir;
        F0[i] = s.f0;
        Fn[i] = s.fn;
        Fs[i] = s.fs;
        F3[i] = s.f3;
    }
}

/* The Euler form: nothing reads the primitives afterwards, so only the
   flux (times the per-j weight w: r on the axisymmetric radial sweep, a
   row of ones otherwise) and the pressure (the geometric source's row on
   that sweep) are stored. */
static void prim_flux_euler(const double* restrict q0,
                            const double* restrict q1,
                            const double* restrict q2,
                            const double* restrict q3, double gamma,
                            double* restrict p, const double* restrict w,
                            double* restrict F0, double* restrict Fn,
                            double* restrict Fs, double* restrict F3,
                            long n, int radial)
{
    double gm1 = gamma - 1.0;
    for (long j = 0; j < n; j++) { /* vec */
        point_flux s = prim_flux_point(q0[j], q1[j], q2[j], q3[j], gm1,
                                       radial);
        p[j] = s.p;
        F0[j] = s.f0 * w[j];
        Fn[j] = s.fn * w[j];
        Fs[j] = s.fs * w[j];
        F3[j] = s.f3 * w[j];
    }
}

/* T == NULL selects the Euler form (u, v unused, w required); otherwise
   w is unused. */
void k_prim_flux(const double* q, double gamma, double* u, double* v,
                 double* p, double* T, double* F, const double* w, long nx,
                 long nr, int radial)
{
    long n = nx * nr;
    double* Fn = F + (radial ? 2 : 1) * n;
    double* Fs = F + (radial ? 1 : 2) * n;
    if (T) {
        prim_flux_ns(q, q + n, q + 2 * n, q + 3 * n, gamma, u, v, p, T, F,
                     Fn, Fs, F + 3 * n, n, radial);
        return;
    }
    for (long i = 0; i < nx; i++) {
        long b = i * nr;
        prim_flux_euler(q + b, q + n + b, q + 2 * n + b, q + 3 * n + b, gamma,
                        p + b, w, F + b, Fn + b, Fs + b, F + 3 * n + b, nr,
                        radial);
    }
}
"""

_VISC = r"""
/* Coefficients of numpy.gradient's interior/edge formulas for spacing h
   (viscous.gradient_axis): interior (f[i+1]-f[i-1])/(2h), edges
   (a*f0 + b*f1) + c*f2 with the same left-associated order. */
typedef struct {
    double h2, a0, b0, c0, a1, b1, c1;
} gcoef;

static gcoef mk_gcoef(double h)
{
    gcoef c;
    c.h2 = 2.0 * h;
    c.a0 = -1.5 / h;
    c.b0 = 2.0 / h;
    c.c0 = -0.5 / h;
    c.a1 = 0.5 / h;
    c.b1 = -2.0 / h;
    c.c1 = 1.5 / h;
    return c;
}

/* Second-order gradients at one element: central in the interior,
   numpy's one-sided formulas on the first/last line. */
static double grad_x(const double* f, long i, long j, long nx, long nr,
                     const gcoef* c)
{
    if (i == 0)
        return (c->a0 * f[j] + c->b0 * f[nr + j]) + c->c0 * f[2 * nr + j];
    if (i == nx - 1)
        return (c->a1 * f[(nx - 3) * nr + j] + c->b1 * f[(nx - 2) * nr + j])
               + c->c1 * f[(nx - 1) * nr + j];
    return (f[(i + 1) * nr + j] - f[(i - 1) * nr + j]) / c->h2;
}

static double grad_r(const double* f, long i, long j, long nr, const gcoef* c)
{
    const double* fi = f + i * nr;
    if (j == 0)
        return (c->a0 * fi[0] + c->b0 * fi[1]) + c->c0 * fi[2];
    if (j == nr - 1)
        return (c->a1 * fi[nr - 3] + c->b1 * fi[nr - 2]) + c->c1 * fi[nr - 1];
    return (fi[j + 1] - fi[j - 1]) / c->h2;
}

/* Stress assembly from the five gradient values at one element
   (fused._two_thirds_dilatation, the stress rows, _heat_flux and the
   energy row of _subtract_viscous): tn is tau_xx (axial) / tau_rr
   (radial), ts tau_xr, en the energy row's u*tau + v*tau - heat, tt
   tau_theta_theta.  The heat flux is -(g_t * k): numpy's scalar path
   multiplies by -k and its field path negates the product, and IEEE
   multiplication is sign-symmetric, so one form serves both. */
typedef struct {
    double tn, ts, en, tt;
} stress;

static inline __attribute__((always_inline)) stress visc_stress(
    double g_ux, double g_ur, double g_vx, double g_vr, double g_t, double u,
    double v, double r, double mu, double k, const int radial)
{
    stress s;
    double vr = v / r;
    double dil = g_ux + g_vr;
    dil = dil + vr;
    dil = dil * (2.0 / 3.0);
    double tn = (radial ? g_vr : g_ux) * 2.0;
    tn = tn - dil;
    s.tn = tn * mu;
    double ts = g_ur + g_vx;
    s.ts = ts * mu;
    double heat = g_t * k;
    heat = -heat;
    double ta = u * (radial ? s.ts : s.tn);
    double tb = v * (radial ? s.tn : s.ts);
    ta = ta + tb;
    s.en = ta - heat;
    double tt = vr * 2.0;
    tt = tt - dil;
    s.tt = tt * mu;
    return s;
}

/* Everything one k_visc call works on.  mu and k are rows: row i of a
   field (stride nr) or one constant row (stride 0), so the inner loop
   never asks which. */
typedef struct {
    double *F0, *Fn, *Fs, *F3, *tau_tt, *S2;
    const double *u, *v, *T, *p, *r, *w, *mu, *k;
    long nx, nr, mu_stride, k_stride;
    gcoef cx, cr;
    int radial;
} visc_args;

/* Subtract one element's stresses from its flux rows.  The three
   forms, by what else they store:
     axial            F rows (1, 2, 3) -= (tn, ts, en);
     radial           the same on rows (2, 1, 3), and tt = tau_theta_theta;
     radial + finish  the axisymmetric finish folded in — the whole flux
                      times w (= r) and S2 = p - tau_theta_theta. */
static inline __attribute__((always_inline)) void visc_store(
    double* F0, double* Fn, double* Fs, double* F3, double* tt, double* S2,
    const double* p, long idx, double w, stress s, const int radial,
    const int finish)
{
    double fn = Fn[idx] - s.tn;
    double fs = Fs[idx] - s.ts;
    double f3 = F3[idx] - s.en;
    if (finish) {
        F0[idx] = F0[idx] * w;
        fn = fn * w;
        fs = fs * w;
        f3 = f3 * w;
        S2[idx] = p[idx] - s.tt;
    } else if (radial) {
        tt[idx] = s.tt;
    }
    Fn[idx] = fn;
    Fs[idx] = fs;
    F3[idx] = f3;
}

/* The interior columns of an interior row: central differences only, so
   the loop is branch-free.  Pointers are to column 0 of the row.  radial
   and finish are literal at each call site, so each expansion keeps only
   its own form of visc_store. */
static inline __attribute__((always_inline)) void visc_row(
    double* restrict F0, double* restrict Fn, double* restrict Fs,
    double* restrict F3, double* restrict tt, double* restrict S2,
    const double* restrict u, const double* restrict v,
    const double* restrict T, const double* restrict p,
    const double* restrict r, const double* restrict w,
    const double* restrict mu, const double* restrict k, long nr, double hx2,
    double hr2, const int radial, const int finish)
{
    const double* tP = radial ? T + 1 : T + nr;
    const double* tM = radial ? T - 1 : T - nr;
    double ht2 = radial ? hr2 : hx2;
    for (long j = 1; j < nr - 1; j++) { /* vec */
        stress s = visc_stress(
            (u[j + nr] - u[j - nr]) / hx2, (u[j + 1] - u[j - 1]) / hr2,
            (v[j + nr] - v[j - nr]) / hx2, (v[j + 1] - v[j - 1]) / hr2,
            (tP[j] - tM[j]) / ht2, u[j], v[j], r[j], mu[j], k[j], radial);
        visc_store(F0, Fn, Fs, F3, tt, S2, p, j, finish ? w[j] : 0.0, s,
                   radial, finish);
    }
}

/* One element anywhere, edges included: numpy's one-sided gradients on
   the first/last line of either axis. */
static void visc_point(const visc_args* a, long i, long j)
{
    long nx = a->nx, nr = a->nr, idx = i * nr + j;
    int radial = a->radial, finish = a->w != NULL;
    stress s = visc_stress(
        grad_x(a->u, i, j, nx, nr, &a->cx), grad_r(a->u, i, j, nr, &a->cr),
        grad_x(a->v, i, j, nx, nr, &a->cx), grad_r(a->v, i, j, nr, &a->cr),
        radial ? grad_r(a->T, i, j, nr, &a->cr)
               : grad_x(a->T, i, j, nx, nr, &a->cx),
        a->u[idx], a->v[idx], a->r[j], a->mu[i * a->mu_stride + j],
        a->k[i * a->k_stride + j], radial);
    visc_store(a->F0, a->Fn, a->Fs, a->F3, a->tau_tt, a->S2, a->p, idx,
               finish ? a->w[j] : 0.0, s, radial, finish);
}

/* One fused pass of velocity/temperature gradients + dilatation + stress
   assembly + viscous subtraction (viscous.field_gradients and the
   fused.py chains named at visc_stress).  The five gradients are
   evaluated per element — the same values the fused backend materializes
   into its g_* buffers, without the five intermediate array passes.
   radial=0 subtracts (tau_xx, tau_xr, heat_x) from F rows (1, 2, 3) and
   takes dT/dx; radial=1 subtracts (tau_rr, tau_xr, heat_r) from G rows
   (2, 1, 3), takes dT/dr, and either stores tau_theta_theta (w == NULL)
   or finishes the axisymmetric flux (w, p, S2 given; see visc_store).  A
   distributed rank calls this on its halo-extended block, so its owned
   lines are interior lines here too.  Needs nx, nr >= 3. */
void k_visc(double* F, double* tau_tt, double* S2, const double* u,
            const double* v, const double* T, const double* p,
            const double* r, const double* w, const double* mu,
            long mu_stride, const double* k, long k_stride, long nx, long nr,
            double dx, double dr, int radial)
{
    long n = nx * nr;
    visc_args a = {F, F + (radial ? 2 : 1) * n, F + (radial ? 1 : 2) * n,
                   F + 3 * n, tau_tt, S2, u, v, T, p, r, w, mu, k, nx, nr,
                   mu_stride, k_stride, mk_gcoef(dx), mk_gcoef(dr), radial};
    for (long i = 0; i < nx; i++) {
        if (i == 0 || i == nx - 1) {
            for (long j = 0; j < nr; j++)
                visc_point(&a, i, j);
            continue;
        }
        long b = i * nr;
        const double* mi = mu + i * mu_stride;
        const double* ki = k + i * k_stride;
        if (!radial)
            visc_row(a.F0 + b, a.Fn + b, a.Fs + b, a.F3 + b, NULL, NULL,
                     u + b, v + b, T + b, NULL, r, NULL, mi, ki, nr, a.cx.h2,
                     a.cr.h2, 0, 0);
        else if (!w)
            visc_row(a.F0 + b, a.Fn + b, a.Fs + b, a.F3 + b, tau_tt + b,
                     NULL, u + b, v + b, T + b, NULL, r, NULL, mi, ki, nr,
                     a.cx.h2, a.cr.h2, 1, 0);
        else
            visc_row(a.F0 + b, a.Fn + b, a.Fs + b, a.F3 + b, NULL, S2 + b,
                     u + b, v + b, T + b, p + b, r, w, mi, ki, nr, a.cx.h2,
                     a.cr.h2, 1, 1);
        visc_point(&a, i, 0);
        visc_point(&a, i, nr - 1);
    }
}
"""

_RATE = r"""
/* One-sided 2-4 difference from its two stencil pairs, matching the
   fused forward/backward_difference ufunc chains op for op:
   forward  (7*(f[+1]-f[0]) - (f[+2]-f[+1])) / 6h,
   backward (7*(f[0]-f[-1]) - (f[-1]-f[-2])) / 6h
   — both are (7*(x1-x0) - (y2-y1)) / 6h. */
static inline double diff24(double x1, double x0, double y2, double y1,
                            double h6)
{
    double t = x1 - x0;
    t = t * 7.0;
    double t2 = y2 - y1;
    double d = t - t2;
    return d / h6;
}

/* rate = (S - d) * iw, or (-d) * iw without a source, over n contiguous
   elements whose stencil values are the four streams.  iw is always a
   row (ones for the identity weight: x * 1.0 is a bitwise identity). */
static void rate_row(double* restrict out, const double* restrict x1,
                     const double* restrict x0, const double* restrict y2,
                     const double* restrict y1, const double* restrict S,
                     const double* restrict iw, double h6, long n)
{
    if (S) {
        for (long j = 0; j < n; j++) { /* vec */
            double d = diff24(x1[j], x0[j], y2[j], y1[j], h6);
            double rr = S[j] - d;
            out[j] = rr * iw[j];
        }
    } else {
        for (long j = 0; j < n; j++) { /* vec */
            double d = diff24(x1[j], x0[j], y2[j], y1[j], h6);
            out[j] = (-d) * iw[j];
        }
    }
}

/* The MacCormack combines, in place on a row that holds the rate:
   mode 1 (predictor)  out = q + rate*dt;
   mode 2 (corrector)  out = ((q + q_star) + rate*dt) * 0.5. */
static void combine_row(double* restrict out, const double* restrict q,
                        const double* restrict qs, double dt, int mode,
                        long n)
{
    if (mode == 1) {
        for (long j = 0; j < n; j++) { /* vec */
            double rr = out[j] * dt;
            out[j] = q[j] + rr;
        }
    } else {
        for (long j = 0; j < n; j++) { /* vec */
            double o = q[j] + qs[j];
            double rr = out[j] * dt;
            o = o + rr;
            out[j] = o * 0.5;
        }
    }
}

/* Fused ghost extension + one-sided 2-4 difference + source/negate + 1/r
   weight + predictor/corrector combine (stencils.extend_axis +
   forward/backward_difference + SplitOperator._rate_into + the combines
   of SplitOperator.apply in one pass over the unextended flux): each row
   of the rate is differenced into the output row and, unless mode is 0
   (the plain rate), combined there with q / q_star while it is still in
   cache — the rate array is never materialised.  The one-sided stencil
   only ever reaches past one boundary (high for forward, low for
   backward); ``gh`` supplies that side's two ghost planes — layout
   (2, 4, plane) ordered outward, exactly what the sweep's ghost provider
   returns — or NULL for the serial cubic extrapolation, computed inline
   at the edge rows.  out must not overlap f, q or q_star. */
void k_rate(const double* f, const double* gh, const double* S,
            const double* iw, double* out, long nx, long nr, int axis,
            double h, int forward, int mode, const double* q,
            const double* qs, double dt)
{
    double h6 = 6.0 * h;
    long n = nx * nr;
    long gplane = (axis == 1) ? nr : nx;
    long s1 = (axis == 1) ? nr : 1; /* stride along the sweep axis */
    /* Offsets of the stencil pairs (x1, x0) and (y2, y1) from the point. */
    long ox1 = forward ? s1 : 0, ox0 = forward ? 0 : -s1;
    long oy2 = forward ? 2 * s1 : -s1, oy1 = forward ? s1 : -2 * s1;
    for (int vv = 0; vv < 4; vv++) {
        const double* fv = f + (long)vv * n;
        const double* Sv = S ? S + (long)vv * n : NULL;
        double* ov = out + (long)vv * n;
        const double* G1 = gh ? gh + (long)vv * gplane : NULL;
        const double* G2 = gh ? gh + (4 + (long)vv) * gplane : NULL;
        for (long i = 0; i < nx; i++) {
            const double* r0 = fv + i * nr;
            const double* Svr = Sv ? Sv + i * nr : NULL;
            double* ovr = ov + i * nr;
            if (axis == 1 && (forward ? (i + 2 < nx) : (i >= 2))) {
                /* Whole row away from the reached-past boundary. */
                rate_row(ovr, r0 + ox1, r0 + ox0, r0 + oy2, r0 + oy1, Svr,
                         iw, h6, nr);
            } else if (axis == 1) {
                /* Last (forward) / first (backward) two rows reach into
                   the ghost planes (or cubic extrapolation). */
                long e0 = forward ? (nx - 1) * nr : 0;
                long estep = forward ? -nr : nr;
                int outermost = forward ? (i == nx - 1) : (i == 0);
                for (long j = 0; j < nr; j++) {
                    const double* e = fv + e0 + j;
                    double g1 = G1 ? G1[j]
                                   : cubic_g1(e[0], e[estep], e[2 * estep],
                                              e[3 * estep]);
                    double f1 = g1, f2;
                    if (outermost) {
                        f2 = G2 ? G2[j]
                                : cubic_g2(e[0], e[estep], e[2 * estep],
                                           e[3 * estep]);
                    } else {
                        f1 = r0[j - estep];
                        f2 = g1;
                    }
                    double d = forward ? diff24(f1, r0[j], f2, f1, h6)
                                       : diff24(r0[j], f1, f1, f2, h6);
                    double rr = Svr ? (Svr[j] - d) : (-d);
                    ovr[j] = rr * iw[j];
                }
            } else {
                /* Radial sweep: the columns whose stencil stays inside
                   the row, then the two that reach past the boundary
                   (their ghost values depend only on the row). */
                long jlo = forward ? 0 : 2;
                const double* c = r0 + jlo;
                rate_row(ovr + jlo, c + ox1, c + ox0, c + oy2, c + oy1,
                         Svr ? Svr + jlo : NULL, iw + jlo, h6, nr - 2);
                long e0 = forward ? nr - 1 : 0;
                long estep = forward ? -1 : 1;
                double g1 = G1 ? G1[i]
                               : cubic_g1(r0[e0], r0[e0 + estep],
                                          r0[e0 + 2 * estep],
                                          r0[e0 + 3 * estep]);
                double g2 = G2 ? G2[i]
                               : cubic_g2(r0[e0], r0[e0 + estep],
                                          r0[e0 + 2 * estep],
                                          r0[e0 + 3 * estep]);
                long jn = e0 + estep; /* next-to-edge column */
                double dn = forward ? diff24(r0[e0], r0[jn], g1, r0[e0], h6)
                                    : diff24(r0[jn], r0[e0], r0[e0], g1, h6);
                double de = forward ? diff24(g1, r0[e0], g2, g1, h6)
                                    : diff24(r0[e0], g1, g1, g2, h6);
                ovr[jn] = (Svr ? (Svr[jn] - dn) : (-dn)) * iw[jn];
                ovr[e0] = (Svr ? (Svr[e0] - de) : (-de)) * iw[e0];
            }
            if (mode)
                combine_row(ovr, q + (long)vv * n + i * nr,
                            qs ? qs + (long)vv * n + i * nr : NULL, dt, mode,
                            nr);
        }
    }
}
"""

_FILTER = r"""
/* The scaled fourth difference from the five stencil values, matching
   the in-place ufunc chain in CompressibleSolver.apply_filter op for
   op. */
static inline double filter_d4(double qm2, double qm1, double q0, double qp1,
                               double qp2, double eps)
{
    double d4 = qm1 * 4.0;
    d4 = qm2 - d4;
    double t = q0 * 6.0;
    d4 = d4 + t;
    t = qp1 * 4.0;
    d4 = d4 - t;
    d4 = d4 + qp2;
    return d4 * eps;
}

/* Axial filter, one row of the fourth difference from its five rows. */
static void d4_row(double* restrict d, const double* restrict m2,
                   const double* restrict m1, const double* restrict c,
                   const double* restrict p1, const double* restrict p2,
                   double eps, long n)
{
    for (long j = 0; j < n; j++) /* vec */
        d[j] = filter_d4(m2[j], m1[j], c[j], p1[j], p2[j], eps);
}

static void sub_row(double* restrict q, const double* restrict d, long n)
{
    for (long j = 0; j < n; j++) /* vec */
        q[j] = q[j] - d[j];
}

/* Radial filter, one row in place from its ghost-extended copy. */
static void filter_row(double* restrict q, const double* restrict ext,
                       double eps, long n)
{
    for (long j = 0; j < n; j++) /* vec */
        q[j] = q[j] - filter_d4(ext[j], ext[j + 1], ext[j + 2], ext[j + 3],
                                ext[j + 4], eps);
}

/* Two ghost rows by cubic extrapolation from the four rows nearest the
   boundary (p0 the boundary row). */
static void cubic_rows(double* restrict g1, double* restrict g2,
                       const double* restrict p0, const double* restrict p1,
                       const double* restrict p2, const double* restrict p3,
                       long n)
{
    for (long j = 0; j < n; j++) {
        g1[j] = cubic_g1(p0[j], p1[j], p2[j], p3[j]);
        g2[j] = cubic_g2(p0[j], p1[j], p2[j], p3[j]);
    }
}

/* Conservative fourth-difference filter applied in place to q, mirroring
   the in-place ufunc chain in CompressibleSolver.apply_filter, with the
   ghost extension folded in (lo/hi planes, layout (2, 4, plane) ordered
   outward, or NULL -> cubic) and no trailing q -= d4 pass over the array:
   a fourth difference is still only ever evaluated from unmutated values.
   Radially the stencil stays inside a row, so each row is updated at once
   from a ghost-extended copy of itself (scratch: nr + 4).  Axially row i
   needs rows i-2 .. i+2, so the subtraction runs two rows behind the
   difference, out of a three-row ring; cubic ghost rows are materialised
   first, from rows nothing has touched yet (scratch: 7 * nr). */
static void k_filter(double* q, const double* lo, const double* hi,
                     double* scratch, double eps, long nx, long nr, int axis)
{
    long n = nx * nr;
    for (int vv = 0; vv < 4; vv++) {
        double* qv = q + (long)vv * n;
        long gplane = (axis == 1) ? nr : nx;
        const double* lo1 = lo ? lo + (long)vv * gplane : NULL;
        const double* lo2 = lo ? lo + (4 + (long)vv) * gplane : NULL;
        const double* hi1 = hi ? hi + (long)vv * gplane : NULL;
        const double* hi2 = hi ? hi + (4 + (long)vv) * gplane : NULL;
        if (axis == 2) {
            double* ext = scratch;
            for (long i = 0; i < nx; i++) {
                double* c = qv + i * nr;
                const double* e = c + nr - 1;
                ext[1] = lo ? lo1[i] : cubic_g1(c[0], c[1], c[2], c[3]);
                ext[0] = lo ? lo2[i] : cubic_g2(c[0], c[1], c[2], c[3]);
                ext[nr + 2] = hi ? hi1[i]
                                 : cubic_g1(e[0], e[-1], e[-2], e[-3]);
                ext[nr + 3] = hi ? hi2[i]
                                 : cubic_g2(e[0], e[-1], e[-2], e[-3]);
                memcpy(ext + 2, c, nr * sizeof(double));
                filter_row(c, ext, eps, nr);
            }
            continue;
        }
        double* ring = scratch;
        if (!lo) {
            double* g = scratch + 3 * nr;
            cubic_rows(g, g + nr, qv, qv + nr, qv + 2 * nr, qv + 3 * nr, nr);
            lo1 = g;
            lo2 = g + nr;
        }
        if (!hi) {
            double* g = scratch + 5 * nr;
            const double* e = qv + (nx - 1) * nr;
            cubic_rows(g, g + nr, e, e - nr, e - 2 * nr, e - 3 * nr, nr);
            hi1 = g;
            hi2 = g + nr;
        }
        for (long i = 0; i < nx + 2; i++) {
            if (i < nx) {
                const double* row[5]; /* rows i-2 .. i+2, ghosts included */
                for (long k = i - 2; k <= i + 2; k++)
                    row[k - i + 2] = k < 0 ? (k == -1 ? lo1 : lo2)
                                     : k >= nx ? (k == nx ? hi1 : hi2)
                                               : qv + k * nr;
                d4_row(ring + (i % 3) * nr, row[0], row[1], row[2], row[3],
                       row[4], eps, nr);
            }
            if (i >= 2)
                sub_row(qv + (i - 2) * nr, ring + ((i - 2) % 3) * nr, nr);
        }
    }
}
"""

#: The plan structs, as C declarations.  A sweep plan is one split
#: operator on one workspace: its flux and primitive buffers (``p`` is
#: where the Euler form stores the pressure, ``tt`` / ``S2`` what the
#: Navier-Stokes form stores besides the flux), the rate's source, the
#: Euler weight ``w``, the axisymmetric finish weight ``fw``, ``1/r`` (or
#: ones) as ``iw``, the viscosity rows, and a ghost rule per side (low,
#: high) with the mirror's signs.  A filter plan holds the rules and ghost
#: buffers of both axes (x low, x high, r low, r high); a boundary plan
#: the outflow window's two sweep plans and what the sponge needs.
PLANS = {
    "sweep_plan": """
    double *F, *p, *u, *v, *T, *tt, *S2, *q_star, *g;
    const double *src, *w, *fw, *r, *iw, *mu, *k, *signs;
    long nx, nr, mu_stride, k_stride;
    double h, dx, dr, gamma;
    int axis, fwd, rule[2];
    mu_fn fill_mu;""",
    "filter_plan": """
    double *scratch, *g[4];
    const double *signs;
    long nx, nr;
    int rule[4];""",
    "bound_plan": """
    const sweep_plan *ax, *rad;
    double *dF, *rate;
    const double *ramp, *amb;
    long nx, nr, nw, width;
    double h, gamma;
    int outflow;""",
}

_ENTRY_POINTS = r"""
/* The entry points: the kernels the plan code calls from another unit,
   and the plan entry points ctypes calls. */
void k_prim_flux(const double* q, double gamma, double* u, double* v,
                 double* p, double* T, double* F, const double* w, long nx,
                 long nr, int radial);
void k_visc(double* F, double* tau_tt, double* S2, const double* u,
            const double* v, const double* T, const double* p,
            const double* r, const double* w, const double* mu,
            long mu_stride, const double* k, long k_stride, long nx, long nr,
            double dx, double dr, int radial);
void k_rate(const double* f, const double* gh, const double* S,
            const double* iw, double* out, long nx, long nr, int axis,
            double h, int forward, int mode, const double* q,
            const double* qs, double dt);
void k_sweep(const sweep_plan* P, const double* q, double* out, double dt);
void k_filter_step(const filter_plan* P, double* q, double eps);
void k_boundaries(const bound_plan* P, double* q, const double* qt,
                  const double* inflow, double dt);
"""

_PLAN_CODE = r"""
/* ---- The step as plans ----------------------------------------------------

   What the Python step sequenced between the kernels, as data.  How the
   two planes beyond one side of a stencil are supplied
   (boundary.ghost_rules): cubic extrapolation, inline in the kernels; the
   axis mirror, line k of this side times its variable's sign; or the
   periodic wrap, line k of the far side. */
enum { GHOST_CUBIC, GHOST_MIRROR, GHOST_WRAP };
/* The plan code below runs once per call, not once per point: compiled at
   -O1 (the kernels they call keep -O3), they take 0.07 s off a 0.67 s
   build and nothing off a step. */
#pragma GCC push_options
#pragma GCC optimize("O1", "fp-contract=off")

/* The two ghost planes beyond side hi of f along axis by rule, into g
   (layout (2, 4, plane), ordered outward) — boundary.apply_axis_ghosts and
   solver._wrap_ghosts — or NULL for the kernels' inline cubic. */
static const double* ghost_planes(const double* f, double* g, int rule,
                                  const double* signs, long nx, long nr,
                                  int axis, int hi)
{
    if (rule == GHOST_CUBIC)
        return NULL;
    long len = axis == 1 ? nx : nr, plane = axis == 1 ? nr : nx;
    long line = axis == 1 ? nr : 1, step = axis == 1 ? 1 : nr;
    for (int k = 0; k < 2; k++) {
        long near = hi ? len - 1 - k : k, far = hi ? k : len - 1 - k;
        const double* s = f + (rule == GHOST_MIRROR ? near : far) * line;
        for (int vv = 0; vv < 4; vv++) {
            const double* sv = s + (long)vv * nx * nr;
            double* d = g + (k * 4 + vv) * plane;
            for (long m = 0; m < plane; m++)
                d[m] = rule == GHOST_MIRROR ? signs[vv] * sv[m * step]
                                            : sv[m * step];
        }
    }
    return g;
}

/* The workspace flux of q into the plan's F (fused_axial_flux /
   fused_radial_flux): primitives + inviscid flux, then the viscosity and
   the stresses. */
static void plan_flux(const sweep_plan* P, const double* q)
{
    int radial = P->axis == 2;
    k_prim_flux(q, P->gamma, P->u, P->v, P->p, P->T, P->F, P->w, P->nx,
                P->nr, radial);
    if (!P->T)
        return;
    if (P->fill_mu)
        P->fill_mu();
    k_visc(P->F, P->tt, P->S2, P->u, P->v, P->T, P->p, P->r, P->fw, P->mu,
           P->mu_stride, P->k, P->k_stride, P->nx, P->nr, P->dx, P->dr,
           radial);
}

/* One phase of a split operator: the flux of in, the ghost planes its
   stencil reaches past and the rate into out — combined with q (and
   qs) per k_rate's mode. */
static void plan_phase(const sweep_plan* P, const double* in, double* out,
                       int fwd, int mode, const double* q, const double* qs,
                       double dt)
{
    plan_flux(P, in);
    const double* gh = ghost_planes(P->F, P->g, P->rule[fwd], P->signs, P->nx,
                                    P->nr, P->axis, fwd);
    k_rate(P->F, gh, P->src, P->iw, out, P->nx, P->nr, P->axis, P->h, fwd,
           mode, q, qs, dt);
}

/* One split operator (SplitOperator.apply): the predictor into
   q_star = q + dt*rate, then the corrector, differenced the other way,
   into out = ((q + q_star) + dt*rate) * 0.5. */
void k_sweep(const sweep_plan* P, const double* q, double* out, double dt)
{
    plan_phase(P, q, P->q_star, P->fwd, 1, q, NULL, dt);
    plan_phase(P, P->q_star, out, !P->fwd, 2, q, P->q_star, dt);
}

/* The fourth-difference filter along x, then r
   (CompressibleSolver.apply_filter), each axis's ghost planes taken from
   the state as filtered so far. */
void k_filter_step(const filter_plan* P, double* q, double eps)
{
    for (int axis = 1; axis <= 2; axis++) {
        const double* gh[2];
        for (int hi = 0; hi < 2; hi++) {
            int s = 2 * (axis - 1) + hi;
            gh[hi] = ghost_planes(q, P->g[s], P->rule[s], P->signs, P->nx,
                                  P->nr, axis, hi);
        }
        k_filter(q, gh[0], gh[1], P->scratch, eps, P->nx, P->nr, axis);
    }
}

/* The characteristic outflow at one point: the conservative rates t of
   the state c with the incoming acoustic wave zeroed where the flow is
   subsonic (boundary.characteristic_outflow_rates, primitive_rates and
   conservative_rates, expression for expression) into out. */
static void characteristic(const double* c, const double* t, double gamma,
                           double* out)
{
    double gm1 = gamma - 1.0, rho = c[0], u = c[1] / rho, v = c[2] / rho;
    double p = gm1 * (c[3] - 0.5 * (c[1] * c[1] + c[2] * c[2]) / rho);
    double cs = sqrt(gamma * p / rho);
    double rho_t = t[0];
    double u_t = (t[1] - u * rho_t) / rho;
    double v_t = (t[2] - v * rho_t) / rho;
    double p_t = gm1 * (t[3] + 0.5 * (u * u + v * v) * rho_t - u * t[1]
                        - v * t[2]);
    if (u < cs) { /* p_t - rho c u_t = 0 with the outgoing R2, R3, R4 */
        double R2 = p_t + rho * cs * u_t, R3 = p_t - cs * cs * rho_t;
        p_t = 0.5 * R2;
        u_t = 0.5 * R2 / (rho * cs);
        rho_t = (p_t - R3) / (cs * cs);
    }
    out[0] = rho_t;
    out[1] = u * rho_t + rho * u_t;
    out[2] = v * rho_t + rho * v_t;
    out[3] = p_t / gm1 + 0.5 * (u * u + v * v) * rho_t
             + rho * (u * u_t + v * v_t);
}

/* The post-sweep boundary update (CompressibleSolver._apply_boundaries),
   each part run only on a side the block owns: the characteristic outflow
   column from the pre-step strip qt (the interior rate of its window: the
   axial dF stencil and the radial rate of the predictor), the inflow
   column the caller computed (NULL when not owned), the far-field
   sponge. */
void k_boundaries(const bound_plan* P, double* q, const double* qt,
                  const double* inflow, double dt)
{
    long nx = P->nx, nr = P->nr, n = nx * nr, wn = P->nw * nr;
    if (P->outflow) {
        const sweep_plan *A = P->ax, *R = P->rad;
        plan_flux(A, qt);
        for (int vv = 0; vv < 4; vv++) {
            const double* F = A->F + vv * wn + wn - nr;
            for (long j = 0; j < nr; j++)
                P->dF[vv * nr + j] = (7.0 * (F[j] - F[j - nr])
                                      - (F[j - nr] - F[j - 2 * nr]))
                                     / (6.0 * P->h);
        }
        plan_phase(R, qt, P->rate, R->fwd, 0, NULL, NULL, 0.0);
        for (long j = 0; j < nr; j++) {
            double c[4], t[4], rates[4];
            for (int vv = 0; vv < 4; vv++) {
                c[vv] = qt[vv * wn + wn - nr + j];
                t[vv] = -P->dF[vv * nr + j] + P->rate[vv * wn + wn - nr + j];
            }
            characteristic(c, t, P->gamma, rates);
            for (int vv = 0; vv < 4; vv++)
                q[vv * n + n - nr + j] = c[vv] + dt * rates[vv];
        }
    }
    for (int vv = 0; inflow && vv < 4; vv++)
        memcpy(q + vv * n, inflow + vv * nr, nr * sizeof(double));
    long j0 = nr - P->width; /* Sponge.apply */
    for (int vv = 0; vv < 4; vv++)
        for (long i = 0; i < nx; i++) {
            double* qi = q + vv * n + i * nr + j0;
            const double* a = P->amb + vv * nr + j0;
            for (long j = 0; j < P->width; j++)
                qi[j] = qi[j] + P->ramp[j] * (a[j] - qi[j]);
        }
}
#pragma GCC pop_options
"""

#: What every unit starts with: the includes, the helpers more than one
#: unit inlines, the plan typedefs and the entry-point prototypes.
PRELUDE = (
    _HEAD
    + "".join(f"\ntypedef struct {{{body}\n}} {name};\n" for name, body in PLANS.items())
    + _ENTRY_POINTS
)

#: The translation units, each the prelude plus whole kernels, balanced
#: by compile time: the viscous stresses alone cost about as much as
#: either other unit, so the rate goes with the flux (together, the whole
#: Euler phase) and the filter with the plans that call it.
UNITS = {
    "inviscid": PRELUDE + _PRIM_FLUX + _RATE,
    "viscous": PRELUDE + _VISC,
    "filter_plans": PRELUDE + _FILTER + _PLAN_CODE,
}

MuFn = ctypes.CFUNCTYPE(None)
_SCALARS = {"double": ctypes.c_double, "long": ctypes.c_long, "int": ctypes.c_int,
            "mu_fn": MuFn}


def _mirror(name: str, body: str) -> type:
    """The ctypes mirror of one :data:`PLANS` struct: every pointer is a
    ``c_void_p``, ``name[n]`` an array."""
    fields = []
    for decl in filter(None, (d.strip() for d in body.split(";"))):
        base, names = re.fullmatch(r"(?:const )?(\w+) (.*)", decl).groups()
        for item in names.split(","):
            ptr, field, n = re.fullmatch(r"\s*(\*?)(\w+)(?:\[(\d)\])?", item).groups()
            ctype = ctypes.c_void_p if ptr else _SCALARS[base]
            fields.append((field, ctype * int(n) if n else ctype))
    return type(name, (ctypes.Structure,), {"_fields_": fields})


SweepPlan, FilterPlan, BoundPlan = (_mirror(n, b) for n, b in PLANS.items())


def find_compiler() -> str | None:
    """The C compiler to use, or ``None`` when the host has none."""
    cc = os.environ.get(CC_ENV_VAR)
    if cc:
        return cc if shutil.which(cc) else None
    for cand in ("cc", "gcc", "clang"):
        if shutil.which(cand):
            return cand
    return None


def _cache_dir() -> str:
    root = os.environ.get(CACHE_ENV_VAR)
    if not root:
        root = os.path.join(
            os.path.expanduser("~"), ".cache", "repro-cc"
        )
    return root


def isa_identity() -> str | None:
    """The instruction-set extensions of this host's CPU — the ``flags``
    line of ``/proc/cpuinfo`` — or ``None`` where it cannot be read."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return None


class CompileError(RuntimeError):
    """A unit of :data:`UNITS` failed to compile.  ``every_unit`` when all
    of them did: the command line or the prelude, not one kernel."""

    def __init__(self, message: str, every_unit: bool) -> None:
        super().__init__(message)
        self.every_unit = every_unit


def compile_units(cc: str, out_dir: str, extra: tuple[str, ...] = ()) -> dict[str, str]:
    """Compile every unit of :data:`UNITS` to ``out_dir/<unit>.o``, one
    compiler process per unit, all started together; returns each unit's
    diagnostics.

    Every process has exited when this returns or raises.  Raises
    :class:`CompileError` with the diagnostics of the first unit that
    failed.
    """
    procs = {}
    try:
        for name, text in UNITS.items():
            src = os.path.join(out_dir, f"{name}.c")
            with open(src, "w", encoding="utf-8") as fh:
                fh.write(text)
            obj = os.path.join(out_dir, f"{name}.o")
            procs[name] = subprocess.Popen(
                [cc, *CFLAGS, *extra, "-c", src, "-o", obj],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
        diagnostics = {name: proc.communicate()[1] for name, proc in procs.items()}
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    failed = [name for name, proc in procs.items() if proc.returncode != 0]
    if failed:
        name = failed[0]
        raise CompileError(
            f"{cc} failed on unit {name!r} ({procs[name].returncode}): "
            f"{diagnostics[name].strip()}",
            every_unit=len(failed) == len(procs),
        )
    return diagnostics


def build_library(cc: str | None = None) -> str:
    """Compile (or reuse) the kernel shared object; returns its path.

    The units are built for this host's CPU (:data:`HOST_CFLAGS`), keyed
    by its :func:`isa_identity` so a shared cache never hands one CPU's
    instructions to another.  Where that identity cannot be read, or every
    unit fails under the host flags (a compiler that rejects them), the
    build uses :data:`CFLAGS` alone.

    Raises ``RuntimeError`` with the compiler diagnostics on failure; the
    caller (``compiled.CcOps``) converts that into
    ``BackendUnavailable``.
    """
    cc = cc or find_compiler()
    if cc is None:
        forced = os.environ.get(CC_ENV_VAR)
        if forced:
            raise RuntimeError(
                f"C compiler ${CC_ENV_VAR}={forced!r} not found on PATH"
            )
        raise RuntimeError("no C compiler found (cc/gcc/clang; set $REPRO_CC)")
    isa = isa_identity()
    if isa is not None:
        try:
            return _build(cc, HOST_CFLAGS, isa)
        except CompileError as exc:
            if not exc.every_unit:
                raise
    return _build(cc, (), "")


def _build(cc: str, flags: tuple[str, ...], isa: str) -> str:
    """The library of the units built with ``CFLAGS + flags``, cached
    under a key of the compiler, every flag, ``isa`` and every unit."""
    key = hashlib.sha256(
        "\x00".join((cc, *CFLAGS, *flags, isa, *LDFLAGS, *UNITS, *UNITS.values())).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = os.path.join(cache, f"repro_kernels_{key}.so")
    if os.path.exists(lib_path):
        return lib_path
    os.makedirs(cache, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cache) as tmp:
        compile_units(cc, tmp, flags)
        out = os.path.join(tmp, "repro_kernels.so")
        objects = [os.path.join(tmp, f"{name}.o") for name in UNITS]
        proc = subprocess.run(
            [cc, *LDFLAGS, *objects, "-o", out], capture_output=True, text=True
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{cc} failed to link ({proc.returncode}): {proc.stderr.strip()}"
            )
        # Atomic publish: concurrent builders (forked ranks racing on a
        # cold cache) each rename their own file onto the same key.
        os.replace(out, lib_path)
    return lib_path


_P, _D, _L, _I = ctypes.c_void_p, ctypes.c_double, ctypes.c_long, ctypes.c_int

_SIGNATURES = {
    "k_visc": [
        _P, _P, _P, _P, _P, _P, _P, _P, _P, _P, _L, _P, _L, _L, _L, _D, _D, _I,
    ],
    "k_rate": [_P, _P, _P, _P, _P, _L, _L, _I, _D, _I, _I, _P, _P, _D],
    "k_sweep": [_P, _P, _P, _D],
    "k_filter_step": [_P, _P, _D],
    "k_boundaries": [_P, _P, _P, _P, _D],
}


def load_library(cc: str | None = None) -> ctypes.CDLL:
    """Build if needed, load, and type the kernel library."""
    lib = ctypes.CDLL(build_library(cc))
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = None
    return lib
