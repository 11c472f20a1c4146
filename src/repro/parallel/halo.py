"""The one halo a rank exchanges: ``H`` lines of conservative state per
neighbour, once per step (paper Section 5, taken to its end).

The paper reduces communication startups by *grouping*: "first, all the
velocity and temperature values along a boundary are calculated and then
packaged into a single send.  We use a similar scheme for the flux values."
Grouped to the limit, every quantity a neighbour would have shipped during
a step — primitives for the stresses, flux lines for the one-sided
stencils, state lines for the filter — is a function of the neighbour's
*state* at the start of the step.  So a rank holds its block extended by
:func:`halo_depth` ghost lines on every side that has a neighbour, and its
:class:`ExchangePlan` refreshes those lines with one message per neighbour
at the top of the step; everything else is recomputed locally.

The code versions keep their meaning as *how that one halo travels*:
Version 5 ships it as one grouped message, Version 7 one line per message
(``H`` startups, the same bytes), Version 6 as Version 5 with the receive
posted instead of blocked on (:class:`PendingHalo`).

All sends are buffered (deposit-and-return), so the send-then-receive
ordering is deadlock-free for any processor count.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..obs import current
from .versions import Version


def _stencil_reach(config) -> tuple[int, int]:
    """``(filter, sweeps)`` lines one step reaches across a block edge."""
    g = 1 if config.viscosity() else 0  # central gradients of (u, v, T)
    # Along the split axis a sweep's predictor and corrector difference
    # one-sidedly in opposite directions — one reach of 2 per side — and
    # each phase evaluates stresses (g); the cross sweep's two phases
    # evaluate them again.
    return (2 if config.dissipation > 0.0 else 0), (2 + 2 * g) + 2 * g


def halo_depth(config) -> int:
    """Ghost lines ``H`` a split side needs so that one *serial* step on the
    extended block leaves every owned cell bit-equal to the global step.

    The extended block's outer edge is a fake boundary: its cubic /
    one-sided closures are wrong, and the error travels inward by the
    stencil reach of every stage.  ``H`` is the total reach of a step —
    8 for Navier-Stokes, 4 for Euler, 2 fewer without the filter — so
    the contamination stops exactly at the first owned line, and the
    next refresh overwrites all of it.  Derived from the scheme, never
    configured: one line fewer is a wrong answer
    (``tests/test_lattice.py`` pins that it bites).
    """
    return sum(_stencil_reach(config))


def describe_depth(config) -> str:
    """``halo_depth`` spelled out, for the thin-block error."""
    filt, sweeps = _stencil_reach(config)
    parts = [
        f"{sweeps} for the two sweeps "
        + ("with viscous stresses" if config.viscosity() else "(inviscid)")
    ]
    if filt:
        parts.append(f"{filt} for the filter")
    return " + ".join(parts)


class _Piece(NamedTuple):
    """One message of a refresh and the message that answers it."""

    peer: int
    send_tag: str
    ship: tuple
    """Index of the owned lines shipped to ``peer``."""
    recv_tag: str
    ghost: tuple
    """Index of the ghost lines ``peer``'s message fills."""


def _lines(axis: int, first: int, count: int, across: slice) -> tuple:
    """Index of ``count`` lines normal to ``axis`` of a ``(4, nx, nr)`` array."""
    lines = slice(first, first + count)
    if axis == 1:
        return (slice(None), lines, across)
    return (slice(None), across, lines)


class PendingHalo:
    """A halo refresh whose receives are posted, not yet waited on (V6).

    Created by :meth:`ExchangePlan.refresh` with ``post=True`` *after* the
    sends were deposited and the receives posted; the caller runs whatever
    does not read ghost lines — the rank-local ``stable_dt`` — and then
    calls :meth:`finish` exactly once, which waits and fills the ghosts.
    """

    __slots__ = ("_comm", "_tag", "_q", "_pieces", "_reqs", "_done")

    def __init__(self, comm, tag, q, pieces, reqs) -> None:
        self._comm = comm
        self._tag = tag
        self._q = q
        self._pieces = pieces
        self._reqs = reqs
        self._done = False

    def finish(self) -> None:
        """Wait for the posted receives and fill the ghost lines; observed
        as a ``halo.state`` exchange of its own, so the metrics cover the
        part of the refresh that was not hidden."""
        if self._done:
            raise RuntimeError("PendingHalo.finish() called twice")
        self._done = True
        with current().exchange("state", self._comm, self._tag):
            for piece, req in zip(self._pieces, self._reqs):
                self._q[piece.ghost] = req.wait()


class ExchangePlan:
    """One rank's halo refresh, for any ``px x pr`` decomposition.

    ``shape`` is the *extended* local state shape and ``depth`` the ghost
    lines on every side that has a neighbour.  The axial neighbours are
    served first, over the owned radial range; then the radial ones over
    the full extended axial width — so the corner ghosts of a ``px x pr``
    grid arrive with the second message, never a third.
    """

    def __init__(self, comm, topology, version: Version, shape, depth: int) -> None:
        self.comm = comm
        H = depth
        _nvars, nx, nr = shape
        pad = [
            H if nb is not None else 0
            for nb in (topology.left, topology.right, topology.lower, topology.upper)
        ]
        #: Index of the owned cells within the extended block.
        self.owned = (
            slice(None), slice(pad[0], nx - pad[1]), slice(pad[2], nr - pad[3])
        )
        # Version 7 ships the same lines one per message.
        split = version.split_flux_columns
        offsets, width = (range(H), 1) if split else ((0,), H)
        #: Per split axis, its wire name and its messages.
        self._phases: list[tuple[str, list[_Piece]]] = []
        for name, axis, across in (("x", 1, self.owned[2]), ("r", 2, slice(None))):
            lo, hi = topology.neighbours(axis)
            own, n = self.owned[axis], shape[axis]
            pieces = [
                _Piece(
                    peer,
                    f"{name}:{out}:{k}" if split else f"{name}:{out}",
                    _lines(axis, ship + k, width, across),
                    f"{name}:{back}:{k}" if split else f"{name}:{back}",
                    _lines(axis, ghost + k, width, across),
                )
                # Lines shipped down arrive at the neighbour as the lines
                # *its* upper neighbour shipped down, and vice versa.
                for peer, ship, ghost, out, back in (
                    (lo, own.start, 0, "dn", "up"),
                    (hi, own.stop - H, n - H, "up", "dn"),
                )
                if peer is not None
                for k in offsets
            ]
            if pieces:
                self._phases.append((name, pieces))

    def refresh(self, q: np.ndarray, step: int, post: bool = False):
        """Overwrite every ghost line of ``q`` with the neighbours' owned
        lines: one observed ``halo.state`` exchange per split axis.

        With ``post=True`` the *last* axis's receives are posted
        (``irecv``) instead of waited on and a :class:`PendingHalo`
        comes back — same messages, same tags, same order on the wire.
        An earlier axis always completes: its ghosts ride in the last
        axis's messages.
        """
        comm = self.comm
        tag = f"{step}:halo"
        pending = None
        for name, pieces in self._phases:
            with current().exchange("state", comm, f"{tag}:{name}"):
                for piece in pieces:
                    comm.send(piece.peer, f"{tag}:{piece.send_tag}", q[piece.ship])
                if post and pieces is self._phases[-1][1]:
                    reqs = [
                        comm.irecv(piece.peer, f"{tag}:{piece.recv_tag}")
                        for piece in pieces
                    ]
                    # Opportunistic probe: a message that already landed is
                    # completed now.
                    for r in reqs:
                        r.test()
                    pending = PendingHalo(comm, f"{tag}:{name}", q, pieces, reqs)
                else:
                    for piece in pieces:
                        q[piece.ghost] = comm.recv(
                            piece.peer, f"{tag}:{piece.recv_tag}"
                        )
        return pending
