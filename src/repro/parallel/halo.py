"""Grouped halo-exchange operations (paper Section 5).

The paper reduces communication startups by *grouping*: "first, all the
velocity and temperature values along a boundary are calculated and then
packaged into a single send.  We use a similar scheme for the flux values."
A rank's :class:`ExchangePlan` implements exactly those grouped messages
for the distributed solver, through two entry points:

* :meth:`ExchangePlan.uvT` — one packed ``(u, v, T)`` edge line to each
  neighbour, for the viscous stress gradients (Navier-Stokes only),
  returned in the one ``(xlo, xhi, rlo, rhi)`` shape the kernels take;
* :meth:`ExchangePlan.exchange` — the one send-two-lines /
  receive-two-lines operation, in four kinds (:data:`_KINDS`):
  ``flux_high`` / ``flux_low`` carry the two flux lines feeding the
  one-sided predictor/corrector stencils, grouped into a single send
  (Version 5/6) or sent one line at a time (Version 7), blocking or
  split-phase (``post=True``, the overlapped V6 protocol);
  ``state_low`` / ``state_high`` carry two conservative-state lines for
  the fourth-difference filter.

All sends are buffered (deposit-and-return), so the send-then-receive
ordering used throughout is deadlock-free for any processor count.

Every exchange returns ghost planes in the orientation
:func:`repro.numerics.stencils.extend_axis` expects — ordered *outward*,
nearest ghost first — or ``None`` at physical boundaries (which selects the
serial cubic extrapolation, keeping parallel and serial arithmetic
identical).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import current
from .versions import Version


@dataclass(frozen=True)
class ExchangePolicy:
    """Message-grouping policy derived from a code version."""

    overlap: bool = False
    split_flux_columns: bool = False

    @classmethod
    def from_version(cls, version: Version) -> "ExchangePolicy":
        return cls(
            overlap=version.overlap_communication,
            split_flux_columns=version.split_flux_columns,
        )


#: The four pair exchanges as rows of constants: wire-tag suffix, whether
#: the pair travels toward the higher rank (then it is the sender's *last*
#: two lines, received from the lower neighbour and stacked nearest-first,
#: i.e. reversed), and whether Version 7 splits it into single lines.
_KINDS = {
    "flux_high": ("fxh", False, True),
    "flux_low": ("fxl", True, True),
    "state_low": ("qlo", True, False),
    "state_high": ("qhi", False, False),
}


def _pair(F: np.ndarray, axis: int, sl: slice, buf: np.ndarray | None = None) -> np.ndarray:
    """Two edge lines of a ``(4, nx, nr)`` array along ``axis`` as a
    ``(4, 2, n_perp)`` pair, optionally packed into ``buf``."""
    if axis == 1:
        src = F[:, sl, :]
    else:
        src = F[:, :, sl].transpose(0, 2, 1)
    if buf is not None:
        np.copyto(buf, src)
        return buf
    return np.ascontiguousarray(src)


def _stack(c0: np.ndarray, c1: np.ndarray, reverse: bool) -> np.ndarray:
    """Two received lines as a ``(2, 4, n_perp)`` outward-ordered stack."""
    return np.stack([c1, c0]) if reverse else np.stack([c0, c1])


def _unpack(lines, split: bool, reverse: bool) -> np.ndarray:
    """The ghost stack from the received message(s).

    ``lines`` holds the two single-line arrays of a split (Version 7)
    exchange, or the one view of a grouped ``(4, 2, n_perp)`` pair.  The
    ``recv_view`` / ``irecv_view`` handle is part of the
    :class:`~repro.msglib.api.Communicator` contract: zero-copy on the
    shared-memory substrate (the stack copies straight out of the ring
    slot, released on leaving the ``with`` — one copy instead of two), an
    owned read-only view everywhere else, so no substrate guard is needed.
    """
    if split:
        return _stack(lines[0], lines[1], reverse)
    with lines[0] as view:
        cols = view.array
        return _stack(cols[:, 0], cols[:, 1], reverse)


class PendingGhosts:
    """An in-flight flux-ghost exchange (the split-phase V6 protocol).

    Created by :meth:`ExchangePlan.exchange` with ``post=True`` *after*
    the send legs have been deposited and the receive has been posted;
    the caller runs its interior compute while the message crosses, then
    calls :meth:`finish` exactly once to wait, unpack and get back the
    same outward-ordered ``(2, 4, n_perp)`` ghost stack the blocking
    exchange returns.  ``finish`` returns ``None`` when nothing was in
    flight (a physical boundary on the receive side) — the provisional
    ghosts used during the overlap window were already final.

    Borrow lifetime: on the process substrate the grouped (non-split)
    receive borrows a ring slot zero-copy from ``test()``-completion
    until ``finish`` unpacks it.  ``finish`` releases the slot before
    returning, so a plan that posts at most one exchange per peer per
    phase can never exhaust the ring; holding ``finish`` off across
    *further* receives from the same peer risks the borrow deadlock
    :class:`~repro.msglib.vchannel.DeadlockError` documents.
    """

    __slots__ = ("comm", "tag", "_reqs", "_split", "_reverse", "_done")

    def __init__(self, comm, tag, reqs, split, reverse) -> None:
        self.comm = comm
        self.tag = tag
        self._reqs = reqs
        self._split = split
        self._reverse = reverse
        self._done = False

    @property
    def in_flight(self) -> bool:
        return self._reqs is not None and not self._done

    def finish(self):
        """Wait for the posted receive; the ghost stack, or ``None``.

        Observed as a ``finish`` exchange so halo metrics cover the
        non-overlapped remainder of the exchange."""
        if self._done:
            raise RuntimeError("PendingGhosts.finish() called twice")
        self._done = True
        if self._reqs is None:
            return None
        with current().exchange("finish", self.comm, self.tag):
            return _unpack(
                [r.wait() for r in self._reqs], self._split, self._reverse
            )


class ExchangePlan:
    """Decomposition-agnostic exchange core for one rank.

    Owns the rank's :class:`~repro.parallel.decomposition.HaloTopology`,
    the message-grouping :class:`ExchangePolicy`, and preallocated pack
    buffers for every halo kind on every decomposed axis — so both the
    baseline and the fused kernel paths exchange without per-call pack
    allocations, for any decomposition.  The buffers are safe to reuse
    across directions and steps because ``Communicator.send`` copies its
    payload before returning.

    ``axis`` is the ``(4, nx, nr)`` state-array axis the exchange crosses:
    1 talks to the axial (``left``/``right``) neighbours, 2 to the radial
    (``lower``/``upper``) ones.  Ghosts are ``None`` at physical
    boundaries.  Exchanges on arrays whose perpendicular extent differs
    from the state's — e.g. the 5-column characteristic-outflow window —
    automatically fall back to allocating packs.
    """

    def __init__(self, comm, topology, policy: ExchangePolicy, shape) -> None:
        nvars, nx, nr = shape
        self.comm = comm
        self.topo = topology
        self.policy = policy
        split_x, split_r = topology.exchanges_x, topology.exchanges_r
        self._uvT_x = np.empty((3, nr)) if split_x else None
        self._pair_x = np.empty((nvars, 2, nr)) if split_x else None
        self._uvT_r = np.empty((3, nx)) if split_r else None
        self._pair_r = np.empty((nvars, 2, nx)) if split_r else None
        # Wire-tag suffixes of the per-axis uvT exchanges: needed only to
        # tell the two apart, i.e. when both axes are split.
        self._uvT_axes = tuple(
            (axis, suffix if split_x and split_r else "")
            for axis, split, suffix in ((1, split_x, ":hx"), (2, split_r, ":hr"))
            if split
        )

    def _route(self, axis: int, uvT: bool, n_perp: int):
        """``(low neighbour, high neighbour, pack buffer or None)``."""
        topo = self.topo
        if axis == 1:
            lo, hi = topo.left, topo.right
            buf = self._uvT_x if uvT else self._pair_x
        else:
            lo, hi = topo.lower, topo.upper
            buf = self._uvT_r if uvT else self._pair_r
        if buf is not None and buf.shape[-1] != n_perp:
            buf = None
        return lo, hi, buf

    def uvT(self, tag: str, u, v, T, include_x: bool = True):
        """Exchange one packed ``(u, v, T)`` ghost line with each neighbour.

        Edge *columns* go to the axial neighbours and edge *rows* to the
        radial ones (``include_x=False`` skips the former: the outflow
        window differences one-sidedly along ``x``, as the serial helper
        does).  Returns ``(xlo, xhi, rlo, rhi)`` — each a ``(3, n_perp)``
        array, or ``None`` at a physical boundary — the shape
        :func:`repro.physics.viscous.field_gradients` and the ghost-aware C
        kernel both take; ``None`` when no axis exchanged.  Each axis is
        one observed exchange; its wire tag carries an ``:hx``/``:hr`` suffix
        only when both axes are split.  The one pack buffer per axis
        serves both directions because sends are buffered: the payload is
        copied before ``send`` returns.
        """
        lines = None
        for axis, suffix in self._uvT_axes:
            if axis == 1 and not include_x:
                continue
            if lines is None:
                lines = [None] * 4
            t = tag + suffix
            with current().exchange("uvT", self.comm, t):
                lines[2 * axis - 2 : 2 * axis] = self._uvT(axis, t, u, v, T)
        return None if lines is None else tuple(lines)

    def _uvT(self, axis, tag, u, v, T):
        comm = self.comm
        lo, hi, buf = self._route(axis, True, u.shape[2 - axis])

        def edge(f, k):
            return f[k] if axis == 1 else f[:, k]

        def pack(k):
            if buf is None:
                return np.stack([edge(u, k), edge(v, k), edge(T, k)])
            # Strided edge rows copy straight into the pack buffer.
            buf[0] = edge(u, k)
            buf[1] = edge(v, k)
            buf[2] = edge(T, k)
            return buf

        if lo is not None:
            comm.send(lo, f"{tag}:uvT:toleft", pack(0))
        if hi is not None:
            comm.send(hi, f"{tag}:uvT:toright", pack(-1))
        halo_lo = comm.recv(lo, f"{tag}:uvT:toright") if lo is not None else None
        halo_hi = comm.recv(hi, f"{tag}:uvT:toleft") if hi is not None else None
        return halo_lo, halo_hi

    def exchange(self, kind: str, axis: int, tag: str, arr, *, post: bool = False):
        """Ship two edge lines of ``arr`` one way, receive the neighbour's.

        ``kind`` picks the row of :data:`_KINDS`.  ``flux_high`` feeds a
        *forward* one-sided difference: every rank ships its two lowest
        lines to the lower neighbour, so the ghosts beyond a rank's high
        edge are its upper neighbour's first two lines.  ``flux_low``
        (backward difference) is the mirror image: the two highest lines
        travel up and the nearest low ghost is the lower neighbour's last
        line.  ``state_low`` / ``state_high`` move conservative-state
        lines the same two ways for the filter, always grouped.

        Returns the ``(2, 4, n_perp)`` ghost stack ordered outward, or
        ``None`` at a physical boundary on the receive side (the send leg
        still runs).  With ``post=True`` the same send legs are deposited
        (same wire tags, same message granularity, so the on-wire traffic
        is indistinguishable from the blocking exchange) and the receive
        is *posted* instead of blocked on — per-line messages via
        ``irecv``, grouped pairs via ``irecv_view`` so the process
        substrate borrows the ring slot zero-copy across the overlap
        window — and a :class:`PendingGhosts` is returned.
        """
        with current().exchange("post" if post else kind, self.comm, tag):
            return self._exchange(kind, axis, tag, arr, post)

    def _exchange(self, kind, axis, tag, arr, post):
        comm = self.comm
        lo, hi, buf = self._route(axis, False, arr.shape[3 - axis])
        suffix, upward, splittable = _KINDS[kind]
        split = splittable and self.policy.split_flux_columns
        send_to, recv_from = (hi, lo) if upward else (lo, hi)
        t = f"{tag}:{suffix}"
        tags = (f"{t}:c0", f"{t}:c1") if split else (t,)
        if send_to is not None:
            cols = _pair(arr, axis, slice(-2, None) if upward else slice(0, 2), buf)
            if split:
                for k, line_tag in enumerate(tags):
                    comm.send(send_to, line_tag, np.ascontiguousarray(cols[:, k]))
            else:
                comm.send(send_to, t, cols)
        if not post:
            if recv_from is None:
                return None
            recv = comm.recv if split else comm.recv_view
            return _unpack([recv(recv_from, x) for x in tags], split, upward)
        if recv_from is None:
            return PendingGhosts(comm, t, None, split, upward)
        irecv = comm.irecv if split else comm.irecv_view
        reqs = [irecv(recv_from, x) for x in tags]
        # Opportunistic probe: when phase skew means the neighbour's message
        # already landed, complete the receive now — on the process substrate
        # the grouped pair's ring slot is then borrowed zero-copy across the
        # whole interior compute and only unpacked at finish().
        for r in reqs:
            r.test()
        return PendingGhosts(comm, t, reqs, split, upward)
