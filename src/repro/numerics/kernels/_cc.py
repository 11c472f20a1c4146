"""C kernel source and the gcc/ctypes JIT engine for the compiled backend.

The C translation unit below transcribes the fused backend's numpy kernels
*operation for operation*: every per-element expression keeps the exact
association order of the ``np.<ufunc>(..., out=...)`` chains in
``fused.py``/``fluxes.py``/``viscous.py``/``stencils.py``, divisions stay
divisions, and the build disables floating-point contraction
(``-ffp-contract=off``, no ``-ffast-math``), so each kernel produces
bitwise-identical IEEE-754 doubles.  See ``tests/test_compiled.py`` for the
differential wall that enforces this.

The shared object is cached on disk keyed by a hash of the source and the
compiler command (``$REPRO_CC_CACHE`` or ``~/.cache/repro-cc``), so only
the first process on a machine ever pays the compile; later processes —
including forked process-substrate ranks — just ``dlopen`` the cached
library.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

#: Environment overrides for the compiler and the on-disk build cache.
CC_ENV_VAR = "REPRO_CC"
CACHE_ENV_VAR = "REPRO_CC_CACHE"

#: Flags pinned for bitwise reproducibility: optimization without value
#: changes (no fast-math, no FMA contraction of a*b+c).
CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

SOURCE = r"""
#include <stddef.h>

/* Primitives: 1/rho, u, v, p (and T when requested), transcribing
   physics.fluxes.primitives_into per element. */
void k_prim(const double* q, double gamma, double* inv_rho, double* u,
            double* v, double* p, double* T, long n)
{
    const double* q0 = q;
    const double* q1 = q + n;
    const double* q2 = q + 2 * n;
    const double* q3 = q + 3 * n;
    double gm1 = gamma - 1.0;
    for (long i = 0; i < n; i++) {
        double ir = 1.0 / q0[i];
        double ui = q1[i] * ir;
        double vi = q2[i] * ir;
        double ta = q1[i] * ui;
        double tb = q2[i] * vi;
        ta = ta + tb;
        ta = ta * 0.5;
        ta = q3[i] - ta;
        double pi = ta * gm1;
        inv_rho[i] = ir;
        u[i] = ui;
        v[i] = vi;
        p[i] = pi;
        if (T) {
            double tt = pi * gamma;
            T[i] = tt * ir;
        }
    }
}

/* Axial inviscid flux rows (fluxes.axial_inviscid_into). */
void k_ax_inv(const double* q, const double* u, const double* v,
              const double* p, double* F, long n)
{
    const double* q1 = q + n;
    const double* q3 = q + 3 * n;
    double* F0 = F;
    double* F1 = F + n;
    double* F2 = F + 2 * n;
    double* F3 = F + 3 * n;
    for (long i = 0; i < n; i++) {
        F0[i] = q1[i];
        double f1 = q1[i] * u[i];
        f1 = f1 + p[i];
        F1[i] = f1;
        F2[i] = q1[i] * v[i];
        double ep = q3[i] + p[i];
        F3[i] = u[i] * ep;
    }
}

/* Radial inviscid flux rows (fluxes.radial_inviscid_into). */
void k_rad_inv(const double* q, const double* u, const double* v,
               const double* p, double* G, long n)
{
    const double* q2 = q + 2 * n;
    const double* q3 = q + 3 * n;
    double* G0 = G;
    double* G1 = G + n;
    double* G2 = G + 2 * n;
    double* G3 = G + 3 * n;
    for (long i = 0; i < n; i++) {
        G0[i] = q2[i];
        G1[i] = q2[i] * u[i];
        double g2 = q2[i] * v[i];
        g2 = g2 + p[i];
        G2[i] = g2;
        double ep = q3[i] + p[i];
        G3[i] = v[i] * ep;
    }
}

/* Cubic (4-point Lagrange) ghost extrapolation, transcribing
   stencils.cubic_ghosts per element: Python's sum() starts from int 0,
   so the chain is ((((0 + w0*p0) + w1*p1) + w2*p2) + w3*p3) — the
   leading 0.0 + t is kept for signed-zero fidelity. */
static double cubic_g1(double p0, double p1, double p2, double p3)
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

static double cubic_g2(double p0, double p1, double p2, double p3)
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

/* One fused pass of velocity/temperature gradients + dilatation + stress
   assembly + viscous subtraction (viscous.field_gradients,
   fused._two_thirds_dilatation, the stress rows, and _subtract_viscous).
   The five gradients are evaluated per element with the formulas above —
   the same values the fused backend materializes into its g_* buffers,
   without the five intermediate array passes.
   radial=0 subtracts (tau_xx, tau_xr, heat_x) from F rows (1, 2, 3) and
   takes dT/dx; radial=1 subtracts (tau_rr, tau_xr, heat_r) from G rows
   (2, 1, 3), takes dT/dr, and stores tau_theta_theta for the geometric
   source.  mu and k are each a field (pointer) or a scalar: the scalar
   heat path receives -k pre-negated (numpy computes g_t * (-k)); the
   field path mirrors numpy's multiply-then-negate.  A distributed rank
   calls this on its halo-extended block, so its owned lines are interior
   lines here too.  Needs nx, nr >= 3. */
/* Stress assembly + subtraction from the five gradient values at one
   element (shared by the interior fast loops and the edge epilogues). */
static void visc_store(double* F1, double* F2, double* F3,
                       double* tau_tt_out, const double* u, const double* v,
                       const double* r, const double* mu_a, double mu_s,
                       const double* k_a, double negk_s, int radial,
                       long idx, long j, double g_ux, double g_ur,
                       double g_vx, double g_vr, double g_t)
{
    double two_thirds = 2.0 / 3.0;
    double mu = mu_a ? mu_a[idx] : mu_s;
    double vr = v[idx] / r[j];
    double dil = g_ux + g_vr;
    dil = dil + vr;
    dil = dil * two_thirds;
    double tn = (radial ? g_vr : g_ux) * 2.0;
    tn = tn - dil;
    tn = tn * mu;
    double ts = g_ur + g_vx;
    ts = ts * mu;
    double heat;
    if (k_a) {
        heat = g_t * k_a[idx];
        heat = -heat;
    } else {
        heat = g_t * negk_s;
    }
    double ta, tb;
    if (radial) {
        ta = u[idx] * ts;
        tb = v[idx] * tn;
    } else {
        ta = u[idx] * tn;
        tb = v[idx] * ts;
    }
    ta = ta + tb;
    ta = ta - heat;
    if (radial) {
        double ttt = vr * 2.0;
        ttt = ttt - dil;
        ttt = ttt * mu;
        tau_tt_out[idx] = ttt;
        F2[idx] = F2[idx] - tn;
        F1[idx] = F1[idx] - ts;
    } else {
        F1[idx] = F1[idx] - tn;
        F2[idx] = F2[idx] - ts;
    }
    F3[idx] = F3[idx] - ta;
}

void k_visc(double* F, double* tau_tt_out, const double* u, const double* v,
            const double* T, const double* r, const double* mu_a,
            double mu_s, const double* k_a, double negk_s, long nx, long nr,
            double dx, double dr, int radial)
{
    long n = nx * nr;
    double* F1 = F + n;
    double* F2 = F + 2 * n;
    double* F3 = F + 3 * n;
    gcoef cx = mk_gcoef(dx);
    gcoef cr = mk_gcoef(dr);
    for (long i = 0; i < nx; i++) {
        long base = i * nr;
        const double* ui = u + base;
        const double* vi = v + base;
        const double* ti = T + base;
        /* Interior columns, with the row-invariant x-stencil kind hoisted
           so the inner loops stay branch-free (and vectorizable). */
        if (i > 0 && i < nx - 1) {
            const double* uM = u + base - nr;
            const double* uP = u + base + nr;
            const double* vM = v + base - nr;
            const double* vP = v + base + nr;
            const double* tM = T + base - nr;
            const double* tP = T + base + nr;
            if (radial) {
                for (long j = 1; j < nr - 1; j++) {
                    long idx = base + j;
                    double g_ux = (uP[j] - uM[j]) / cx.h2;
                    double g_ur = (ui[j + 1] - ui[j - 1]) / cr.h2;
                    double g_vx = (vP[j] - vM[j]) / cx.h2;
                    double g_vr = (vi[j + 1] - vi[j - 1]) / cr.h2;
                    double g_t = (ti[j + 1] - ti[j - 1]) / cr.h2;
                    visc_store(F1, F2, F3, tau_tt_out, u, v, r, mu_a, mu_s,
                               k_a, negk_s, radial, idx, j, g_ux, g_ur,
                               g_vx, g_vr, g_t);
                }
            } else {
                for (long j = 1; j < nr - 1; j++) {
                    long idx = base + j;
                    double g_ux = (uP[j] - uM[j]) / cx.h2;
                    double g_ur = (ui[j + 1] - ui[j - 1]) / cr.h2;
                    double g_vx = (vP[j] - vM[j]) / cx.h2;
                    double g_vr = (vi[j + 1] - vi[j - 1]) / cr.h2;
                    double g_t = (tP[j] - tM[j]) / cx.h2;
                    visc_store(F1, F2, F3, tau_tt_out, u, v, r, mu_a, mu_s,
                               k_a, negk_s, radial, idx, j, g_ux, g_ur,
                               g_vx, g_vr, g_t);
                }
            }
        } else {
            /* First/last row: one-sided x gradients, coefficients and row
               pointers hoisted; the inner loop stays branch-free. */
            double xa, xb, xc;
            const double* x0;
            const double* x1;
            const double* x2;
            if (i == 0) {
                xa = cx.a0;
                xb = cx.b0;
                xc = cx.c0;
                x0 = u;
                x1 = u + nr;
                x2 = u + 2 * nr;
            } else {
                xa = cx.a1;
                xb = cx.b1;
                xc = cx.c1;
                x0 = u + (nx - 3) * nr;
                x1 = u + (nx - 2) * nr;
                x2 = u + (nx - 1) * nr;
            }
            long off = x0 - u; /* same row offsets apply to v and T */
            for (long j = 1; j < nr - 1; j++) {
                long idx = base + j;
                double g_ux = (xa * x0[j] + xb * x1[j]) + xc * x2[j];
                double g_ur = (ui[j + 1] - ui[j - 1]) / cr.h2;
                double g_vx = (xa * v[off + j] + xb * v[off + nr + j])
                              + xc * v[off + 2 * nr + j];
                double g_vr = (vi[j + 1] - vi[j - 1]) / cr.h2;
                double g_t = radial
                                 ? (ti[j + 1] - ti[j - 1]) / cr.h2
                                 : (xa * T[off + j] + xb * T[off + nr + j])
                                       + xc * T[off + 2 * nr + j];
                visc_store(F1, F2, F3, tau_tt_out, u, v, r, mu_a, mu_s,
                           k_a, negk_s, radial, idx, j, g_ux, g_ur, g_vx,
                           g_vr, g_t);
            }
        }
        /* First/last column: fully general per-element epilogue. */
        for (long jj = 0; jj < 2; jj++) {
            long j = jj ? nr - 1 : 0;
            long idx = base + j;
            double g_ux = grad_x(u, i, j, nx, nr, &cx);
            double g_ur = grad_r(u, i, j, nr, &cr);
            double g_vx = grad_x(v, i, j, nx, nr, &cx);
            double g_vr = grad_r(v, i, j, nr, &cr);
            double g_t = radial ? grad_r(T, i, j, nr, &cr)
                                : grad_x(T, i, j, nx, nr, &cx);
            visc_store(F1, F2, F3, tau_tt_out, u, v, r, mu_a, mu_s, k_a,
                       negk_s, radial, idx, j, g_ux, g_ur, g_vx, g_vr, g_t);
        }
    }
}

/* Axisymmetric radial finish: G *= r weight; S2 = p - tau_tt (viscous)
   or S2 = p (Euler; p - 0.0 is a bitwise identity). */
void k_rad_finish(double* G, double* S2, const double* p,
                  const double* tau_tt, const double* r, long nx, long nr,
                  int viscous)
{
    long n = nx * nr;
    for (int vv = 0; vv < 4; vv++) {
        double* Gv = G + (long)vv * n;
        for (long i = 0; i < nx; i++) {
            double* Gi = Gv + i * nr;
            for (long j = 0; j < nr; j++)
                Gi[j] = Gi[j] * r[j];
        }
    }
    if (viscous) {
        for (long idx = 0; idx < n; idx++)
            S2[idx] = p[idx] - tau_tt[idx];
    } else {
        for (long idx = 0; idx < n; idx++)
            S2[idx] = p[idx];
    }
}

/* Fused ghost extension + one-sided 2-4 difference + source/negate + 1/r
   weight (stencils.extend_axis + forward/backward_difference +
   SplitOperator._rate_into in one pass over the unextended flux):
   d = (7*(f1-f0) - (f2-f1)) / (6h) forward, the mirrored backward form
   otherwise; rate = S - d when a source exists else -d; then *= iw[j]
   when the radial 1/r weight applies.  The one-sided stencil only ever
   reaches past one boundary (high for forward, low for backward); ``gh``
   supplies that side's two ghost planes — layout (2, 4, plane) ordered
   outward, exactly what the sweep's ghost provider returns — or NULL for
   the serial cubic extrapolation, computed inline at the edge rows. */
/* One-sided 2-4 difference from three stencil values, matching the
   fused forward/backward_difference ufunc chains op for op. */
static double rate_tail(double f0, double f1, double f2, int forward,
                        double h6)
{
    double t, t2;
    if (forward) {
        t = f1 - f0;
        t = t * 7.0;
        t2 = f2 - f1;
    } else {
        t = f0 - f1;
        t = t * 7.0;
        t2 = f1 - f2;
    }
    double d = t - t2;
    return d / h6;
}

void k_rate(const double* f, const double* gh, const double* S,
            const double* iw, double* out, long nx, long nr, int axis,
            double h, int forward)
{
    double h6 = 6.0 * h;
    long n = nx * nr;
    long gplane = (axis == 1) ? nr : nx;
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
            if (axis == 1) {
                int interior = forward ? (i + 2 < nx) : (i >= 2);
                if (interior) {
                    /* Whole row away from the reached-past boundary: the
                       stencil rows are fixed, the inner loop is
                       branch-free and contiguous. */
                    const double* rA = forward ? r0 + nr : r0 - nr;
                    const double* rB = forward ? r0 + 2 * nr : r0 - 2 * nr;
                    for (long j = 0; j < nr; j++) {
                        double d = rate_tail(r0[j], rA[j], rB[j], forward,
                                             h6);
                        double rr = Svr ? (Svr[j] - d) : (-d);
                        if (iw)
                            rr = rr * iw[j];
                        ovr[j] = rr;
                    }
                } else {
                    /* Last (forward) / first (backward) two rows reach
                       into the ghost planes (or cubic extrapolation). */
                    long e0 = forward ? (nx - 1) * nr : 0;
                    long estep = forward ? -nr : nr;
                    int outermost = forward ? (i == nx - 1) : (i == 0);
                    for (long j = 0; j < nr; j++) {
                        double g1 =
                            G1 ? G1[j]
                               : cubic_g1(fv[e0 + j], fv[e0 + estep + j],
                                          fv[e0 + 2 * estep + j],
                                          fv[e0 + 3 * estep + j]);
                        double f1, f2;
                        if (outermost) {
                            f1 = g1;
                            f2 = G2 ? G2[j]
                                    : cubic_g2(fv[e0 + j],
                                               fv[e0 + estep + j],
                                               fv[e0 + 2 * estep + j],
                                               fv[e0 + 3 * estep + j]);
                        } else {
                            f1 = forward ? r0[nr + j] : r0[j - nr];
                            f2 = g1;
                        }
                        double d = rate_tail(r0[j], f1, f2, forward, h6);
                        double rr = Svr ? (Svr[j] - d) : (-d);
                        if (iw)
                            rr = rr * iw[j];
                        ovr[j] = rr;
                    }
                }
            } else {
                /* Radial sweep: branch-free interior columns, then the
                   two columns that reach past the boundary (their ghost
                   values depend only on the row, so hoist them). */
                long jlo, jhi; /* [jlo, jhi) interior range */
                if (forward) {
                    jlo = 0;
                    jhi = nr - 2;
                } else {
                    jlo = 2;
                    jhi = nr;
                }
                long d1 = forward ? 1 : -1;
                for (long j = jlo; j < jhi; j++) {
                    double d = rate_tail(r0[j], r0[j + d1], r0[j + 2 * d1],
                                         forward, h6);
                    double rr = Svr ? (Svr[j] - d) : (-d);
                    if (iw)
                        rr = rr * iw[j];
                    ovr[j] = rr;
                }
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
                long jn = forward ? nr - 2 : 1; /* next-to-edge column */
                double d = rate_tail(r0[jn], r0[e0], g1, forward, h6);
                double rr = Svr ? (Svr[jn] - d) : (-d);
                if (iw)
                    rr = rr * iw[jn];
                ovr[jn] = rr;
                d = rate_tail(r0[e0], g1, g2, forward, h6);
                rr = Svr ? (Svr[e0] - d) : (-d);
                if (iw)
                    rr = rr * iw[e0];
                ovr[e0] = rr;
            }
        }
    }
}

/* MacCormack predictor combine: rate *= dt (the numpy path mutates the
   rate buffer in place); q_star = q + rate. */
void k_predict(const double* q, double* rate, double dt, double* qs, long n)
{
    for (long i = 0; i < n; i++) {
        double rr = rate[i] * dt;
        rate[i] = rr;
        qs[i] = q[i] + rr;
    }
}

/* MacCormack corrector combine: out = 0.5 * ((q + q_star) + dt*rate). */
void k_correct(const double* q, const double* qs, double* rate, double dt,
               double* out, long n)
{
    for (long i = 0; i < n; i++) {
        double o = q[i] + qs[i];
        double rr = rate[i] * dt;
        rate[i] = rr;
        o = o + rr;
        out[i] = o * 0.5;
    }
}

/* One stencil value q(center + off) along the filter axis, reading this
   variable's ghost planes (g1/g2 per side, each of length plane, possibly
   NULL -> cubic from the unmutated variable plane) past the boundaries. */
static double filter_pt2(const double* qv, long i, long j, long off, long nx,
                         long nr, int axis, const double* lo1,
                         const double* lo2, const double* hi1,
                         const double* hi2)
{
    long m = (axis == 1) ? nx : nr;
    long c = (axis == 1) ? i : j;
    long k = c + off;
    if (k >= 0 && k < m)
        return (axis == 1) ? qv[k * nr + j] : qv[i * nr + k];
    long p = (axis == 1) ? j : i;
    long g = (k < 0) ? (-k - 1) : (k - m); /* 0 = nearest ghost, 1 = next */
    const double* gh = (k < 0) ? (g == 0 ? lo1 : lo2) : (g == 0 ? hi1 : hi2);
    if (gh)
        return gh[p];
    double p0, p1, p2, p3;
    if (axis == 1) {
        if (k < 0) {
            p0 = qv[j];
            p1 = qv[nr + j];
            p2 = qv[2 * nr + j];
            p3 = qv[3 * nr + j];
        } else {
            p0 = qv[(nx - 1) * nr + j];
            p1 = qv[(nx - 2) * nr + j];
            p2 = qv[(nx - 3) * nr + j];
            p3 = qv[(nx - 4) * nr + j];
        }
    } else {
        const double* r0 = qv + i * nr;
        if (k < 0) {
            p0 = r0[0];
            p1 = r0[1];
            p2 = r0[2];
            p3 = r0[3];
        } else {
            p0 = r0[nr - 1];
            p1 = r0[nr - 2];
            p2 = r0[nr - 3];
            p3 = r0[nr - 4];
        }
    }
    return (g == 0) ? cubic_g1(p0, p1, p2, p3) : cubic_g2(p0, p1, p2, p3);
}

/* Conservative fourth-difference filter applied in place to q, mirroring
   the in-place ufunc chain in CompressibleSolver.apply_filter, with the
   ghost extension folded in (lo/hi planes or NULL -> cubic).  Each
   variable runs two passes over a caller-supplied scratch plane — the
   fourth difference is fully evaluated from the unmutated plane before
   any element of it is updated, exactly as the extended-copy path did. */
/* The scaled fourth difference from the five stencil values, matching
   the in-place ufunc chain in apply_filter op for op. */
static double filter_d4(double qm2, double qm1, double q0, double qp1,
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

void k_filter(double* q, const double* lo, const double* hi, double* d4s,
              double eps, long nx, long nr, int axis)
{
    long n = nx * nr;
    for (int vv = 0; vv < 4; vv++) {
        double* qv = q + (long)vv * n;
        long gplane = (axis == 1) ? nr : nx;
        const double* lov = lo ? lo + (long)vv * gplane : NULL;
        const double* lov2 = lo ? lo + (4 + (long)vv) * gplane : NULL;
        const double* hiv = hi ? hi + (long)vv * gplane : NULL;
        const double* hiv2 = hi ? hi + (4 + (long)vv) * gplane : NULL;
        for (long i = 0; i < nx; i++) {
            const double* c0 = qv + i * nr;
            double* dr = d4s + i * nr;
            if (axis == 1 && i >= 2 && i + 2 < nx) {
                /* Interior row, axial stencil: fixed neighbour rows,
                   branch-free contiguous inner loop. */
                const double* cm2 = c0 - 2 * nr;
                const double* cm1 = c0 - nr;
                const double* cp1 = c0 + nr;
                const double* cp2 = c0 + 2 * nr;
                for (long j = 0; j < nr; j++)
                    dr[j] = filter_d4(cm2[j], cm1[j], c0[j], cp1[j],
                                      cp2[j], eps);
                continue;
            }
            if (axis == 2) {
                /* Radial stencil: branch-free interior columns, then the
                   (up to) four edge columns via the general helper.
                   Duplicate j's on tiny grids just recompute the same
                   value into d4s. */
                for (long j = 2; j + 2 < nr; j++)
                    dr[j] = filter_d4(c0[j - 2], c0[j - 1], c0[j],
                                      c0[j + 1], c0[j + 2], eps);
                long edges[4] = {0, 1, nr - 2, nr - 1};
                for (int e = 0; e < 4; e++) {
                    long j = edges[e];
                    if (j < 0 || j >= nr)
                        continue;
                    dr[j] = filter_d4(
                        filter_pt2(qv, i, j, -2, nx, nr, axis, lov, lov2,
                                   hiv, hiv2),
                        filter_pt2(qv, i, j, -1, nx, nr, axis, lov, lov2,
                                   hiv, hiv2),
                        c0[j],
                        filter_pt2(qv, i, j, 1, nx, nr, axis, lov, lov2,
                                   hiv, hiv2),
                        filter_pt2(qv, i, j, 2, nx, nr, axis, lov, lov2,
                                   hiv, hiv2),
                        eps);
                }
                continue;
            }
            /* Axial stencil, edge row: per-element general helper. */
            for (long j = 0; j < nr; j++)
                dr[j] = filter_d4(
                    filter_pt2(qv, i, j, -2, nx, nr, axis, lov, lov2, hiv,
                               hiv2),
                    filter_pt2(qv, i, j, -1, nx, nr, axis, lov, lov2, hiv,
                               hiv2),
                    c0[j],
                    filter_pt2(qv, i, j, 1, nx, nr, axis, lov, lov2, hiv,
                               hiv2),
                    filter_pt2(qv, i, j, 2, nx, nr, axis, lov, lov2, hiv,
                               hiv2),
                    eps);
        }
        for (long idx = 0; idx < n; idx++)
            qv[idx] = qv[idx] - d4s[idx];
    }
}
"""


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


def build_library(cc: str | None = None) -> str:
    """Compile (or reuse) the kernel shared object; returns its path.

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
    key = hashlib.sha256(
        ("\x00".join((cc, *CFLAGS)) + SOURCE).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = os.path.join(cache, f"repro_kernels_{key}.so")
    if os.path.exists(lib_path):
        return lib_path
    os.makedirs(cache, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cache) as tmp:
        src = os.path.join(tmp, "repro_kernels.c")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(SOURCE)
        out = os.path.join(tmp, "repro_kernels.so")
        proc = subprocess.run(
            [cc, *CFLAGS, src, "-o", out],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{cc} failed ({proc.returncode}): {proc.stderr.strip()}"
            )
        # Atomic publish: concurrent builders (forked ranks racing on a
        # cold cache) each rename their own file onto the same key.
        os.replace(out, lib_path)
    return lib_path


_SIGNATURES = {
    "k_prim": [
        ctypes.c_void_p, ctypes.c_double, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long,
    ],
    "k_ax_inv": [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_long,
    ],
    "k_rad_inv": [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_long,
    ],
    "k_visc": [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_double,
        ctypes.c_void_p, ctypes.c_double, ctypes.c_long, ctypes.c_long,
        ctypes.c_double, ctypes.c_double, ctypes.c_int,
    ],
    "k_rad_finish": [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_int,
    ],
    "k_rate": [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_int,
        ctypes.c_double, ctypes.c_int,
    ],
    "k_predict": [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_double, ctypes.c_void_p,
        ctypes.c_long,
    ],
    "k_correct": [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_double,
        ctypes.c_void_p, ctypes.c_long,
    ],
    "k_filter": [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_double, ctypes.c_long, ctypes.c_long, ctypes.c_int,
    ],
}


def load_library(cc: str | None = None) -> ctypes.CDLL:
    """Build if needed, load, and type the kernel library."""
    lib = ctypes.CDLL(build_library(cc))
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = None
    return lib
