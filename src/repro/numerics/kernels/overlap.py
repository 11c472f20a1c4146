"""Boundary-strip rate recompute for the overlapped (V6) exchange.

The overlapped MacCormack phase runs the *full* rate kernel while the
active-side flux ghosts are still in flight, substituting the serial
cubic extrapolation (or the local axis mirror) for the missing planes.
The one-sided 2-4 stencil reaches at most two points past the domain
edge, so only the **two** outermost rate columns on the in-flight side
depend on the exchanged ghosts — every interior column of the
provisional pass is already final.  Once the exchange finishes,
:func:`rate_edges` recomputes exactly those two columns.

Bitwise identity with the blocking path holds because the recompute
replays the *identical* IEEE-754 operation chain the rate kernels use —
``7*(Δ₁) - Δ₂``, divide by ``6h``, negate / subtract source, multiply by
``1/r`` — element by element on the strip.  numpy ufuncs and the
compiled C kernels (built strict-IEEE, no fastmath/FMA; see the
``bitwise`` flag on :class:`~repro.numerics.kernels.compiled.CcOps`)
agree per element, which the compiled differential test wall already
proves array-wide, so a strip recomputed here matches what either
backend would have produced for those columns with the real ghosts.
"""

from __future__ import annotations

import numpy as np


def _col(a: np.ndarray, axis: int, idx: int) -> np.ndarray:
    sl = [slice(None)] * a.ndim
    sl[axis] = idx
    return a[tuple(sl)]


def rate_edges(
    flux: np.ndarray,
    ghosts: np.ndarray,
    axis: int,
    h: float,
    forward: bool,
    source: np.ndarray | None,
    inv_weight: np.ndarray | float,
    out: np.ndarray,
) -> np.ndarray:
    """Recompute the two ghost-dependent rate columns into ``out``.

    ``ghosts`` is the outward-ordered ``(2, ...)`` stack the finished
    exchange returned for the active side: the high side for a forward
    difference (columns ``n-2, n-1``), the low side for a backward one
    (columns ``0, 1``).  ``source`` / ``inv_weight`` carry the same
    values the full rate pass used; ``out`` is the provisional rate
    array whose edge columns are overwritten in place.
    """
    n = flux.shape[axis]
    g1, g2 = ghosts[0], ghosts[1]
    if forward:
        # Along-axis window [F[n-2], F[n-1], g1, g2]; column n-2+j uses
        # (f0, f1, f2) = (win[j], win[j+1], win[j+2]).
        win = (_col(flux, axis, n - 2), _col(flux, axis, n - 1), g1, g2)
        cols = (n - 2, n - 1)
    else:
        # Window [g2, g1, F[0], F[1]]; column j uses
        # (f0, fm1, fm2) = (win[2+j], win[1+j], win[j]).
        win = (g2, g1, _col(flux, axis, 0), _col(flux, axis, 1))
        cols = (0, 1)
    h6 = 6.0 * h
    identity_iw = isinstance(inv_weight, float) and inv_weight == 1.0
    if not identity_iw:
        iw_full = np.broadcast_to(np.asarray(inv_weight), flux.shape)
    for j, col in enumerate(cols):
        if forward:
            f0, f1, f2 = win[j], win[j + 1], win[j + 2]
            d = np.subtract(f1, f0)
            np.multiply(d, 7.0, out=d)
            t = np.subtract(f2, f1)
        else:
            f0, fm1, fm2 = win[2 + j], win[1 + j], win[j]
            d = np.subtract(f0, fm1)
            np.multiply(d, 7.0, out=d)
            t = np.subtract(fm1, fm2)
        np.subtract(d, t, out=d)
        np.divide(d, h6, out=d)
        if source is None:
            np.negative(d, out=d)
        else:
            np.subtract(_col(source, axis, col), d, out=d)
        if not identity_iw:
            np.multiply(d, _col(iw_full, axis, col), out=d)
        np.copyto(_col(out, axis, col), d)
    return out
