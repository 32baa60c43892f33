"""Hybrid fluid/packet fast path for the DES.

The pure-Python engine spends one heap event (plus several callbacks) per
packet; at Fig 16 scale that is tens of thousands of events per message.
This module models a *steady bulk transfer* as a rate segment instead: the
whole byte range is advanced in one step with vectorized NumPy --
per-packet serialization-done times from the channel's FIFO booking
horizon, loss outcomes from the loss model's ``drop_mask`` (bit-identical
RNG draws for Bernoulli/no-loss models), and DPA completion-drain times
from a closed-form max-plus recurrence -- and only a handful of events
(one per chunk, one segment-end wakeup) touch the heap.

Steady state is detected per segment, never assumed: a transfer is handed
to the solver only when nothing can perturb it mid-flight -- no pacer (or
a quiescent null-rate controller), a plain :class:`~repro.net.channel.Channel`
with no jitter/duplication/ECN/bounded buffer (epoch boundaries such as
ECN-onset backlog crossings or fault windows therefore force packet mode
by construction: fault wrappers are distinct channel types, ECN-armed
channels are ineligible), a first-transmission range (retransmissions are
epoch boundaries), and dedicated live DPA workers on the receive side.
Anything else falls back to the per-packet path for that segment, so
per-packet semantics around interesting events are preserved exactly.

Packet mode (the default, ``SimConfig(fluid=False)``) is untouched:
same-seed traces stay byte-identical.  In fluid mode, per-packet ``tx``
trace instants collapse into one ``fluid_segment`` record per booking
(see ``docs/simulation.md`` for the full list of observable differences).
"""

from __future__ import annotations

import numpy as np

from repro.net.channel import Channel
from repro.net.loss import BernoulliLoss, NoLoss
from repro.sim.engine import SimConfig, Simulator  # noqa: F401  (re-export)

__all__ = ["SimConfig", "FluidSolver", "drain_times"]

#: Loss models whose vectorized ``drop_mask`` consumes the channel RNG in
#: exactly the same order/count as per-packet ``drops()`` calls, so fluid
#: and packet mode agree bit-for-bit on which packets die.
PARITY_LOSS_MODELS = (NoLoss, BernoulliLoss)


def drain_times(
    arrivals: np.ndarray,
    *,
    free_at: float,
    per_item: float,
    extras: np.ndarray | None = None,
) -> np.ndarray:
    """Closed-form FIFO server drain: completion time of each arrival.

    A single server processes items in order: item ``i`` starts at
    ``max(arrival_i, prev completion + prev extra)`` and completes
    ``per_item`` later; ``extras[i]`` is an extra cost paid *after* item
    ``i`` completes, delaying item ``i + 1`` (the DPA's PCIe chunk-update
    write).  Vectorized max-plus recurrence::

        done_i = (i+1)*c + E_i + max(free_at, max_{k<=i}(a_k - k*c - E_k))

    where ``E`` is the exclusive prefix sum of ``extras``.
    """
    n = len(arrivals)
    if n == 0:
        return np.empty(0, dtype=np.float64)
    c = per_item
    steps = c * np.arange(n, dtype=np.float64)
    if extras is None:
        slack = arrivals - steps
    else:
        prefix = np.zeros(n, dtype=np.float64)
        np.cumsum(extras[:-1], out=prefix[1:])
        slack = arrivals - steps - prefix
        steps = steps + prefix
    base = np.maximum.accumulate(np.maximum(slack, free_at))
    return base + steps + c


class _PeerMap:
    """Resolved receive-side wiring for one (generation row, channel)."""

    __slots__ = ("channel", "peer", "workers", "cqs", "owd")

    def __init__(self, channel, peer, workers, cqs):
        self.channel = channel
        self.peer = peer
        self.workers = workers
        self.cqs = cqs
        self.owd = channel.config.one_way_delay


class FluidSolver:
    """Per-:class:`~repro.sdr.qp.SdrQp` fluid segment planner.

    Owns the persistent per-worker "free at" horizon so back-to-back
    segments chain correctly (the channel's FIFO booking makes later
    segments arrive later, so the chain is order-consistent), plus the
    cached peer/worker resolution.  Created lazily by
    ``SdrQp._inject_range`` when ``sim.config.fluid`` is set.
    """

    def __init__(self, qp):
        self.qp = qp
        self.sim: Simulator = qp.sim
        self._maps: dict[int, _PeerMap] = {}  # generation -> wiring
        #: DpaWorker -> absolute sim time its fluid timeline frees up.
        self._worker_free: dict = {}

    # -- eligibility -----------------------------------------------------------

    def _resolve(self, generation: int, qps, channel) -> _PeerMap | None:
        """Map one generation row to the peer QP's workers, cached."""
        cached = self._maps.get(generation)
        if cached is not None and cached.channel is channel:
            return cached
        from repro.sdr.qp import SdrQp  # late import: cycle guard

        device = getattr(channel._sink, "__self__", None)
        if device is None or not hasattr(device, "qps"):
            return None
        workers, cqs = [], []
        peer = None
        for qp in qps:
            peer_uc = device.qps.get(qp.dst_qpn)
            if peer_uc is None:
                return None
            cq = peer_uc.recv_cq
            consumer = getattr(cq, "consumer", None)
            if consumer is None:
                return None
            worker, handler = consumer
            func = getattr(handler, "__func__", None)
            owner = getattr(handler, "__self__", None)
            if func is not SdrQp._process_data_cqe or owner is None:
                return None
            if peer is None:
                peer = owner
            elif peer is not owner:
                return None
            workers.append(worker)
            cqs.append(cq)
        if peer is None or len(set(map(id, workers))) != len(workers):
            # The closed-form drain needs a dedicated worker per channel
            # CQ; shared workers interleave queues and must fall back.
            return None
        pmap = _PeerMap(channel, peer, workers, cqs)
        self._maps[generation] = pmap
        return pmap

    def _eligible(self, hdl, offset, length, payload, user_imm, attempt):
        """Return (channel, peer map, recv handle) or None -> packet mode."""
        if payload is not None or user_imm is not None or attempt != 0:
            return None
        pacer = self.qp.pacer
        if pacer is not None:
            ctl = pacer.controller
            if not (ctl.is_quiescent and ctl.rate_bps is None):
                return None
        qps = self.qp.data_qps[hdl.generation]
        channel = qps[0].channel
        if type(channel) is not Channel:
            return None
        if any(qp.channel is not channel for qp in qps[1:]):
            return None
        if not channel.fluid.fifo_eligible():
            return None
        if type(channel.loss) not in PARITY_LOSS_MODELS:
            return None
        pmap = self._resolve(hdl.generation, qps, channel)
        if pmap is None:
            return None
        now = self.sim.now
        for worker, cq in zip(pmap.workers, pmap.cqs):
            if worker.crashed or worker._stall_until > now or len(cq):
                return None
            if len(worker._queues) != 1:
                return None
        rhdl = pmap.peer._recv_table.get(hdl.msg_id)
        if (
            rhdl is None
            or rhdl.generation != hdl.generation
            or rhdl.completed
        ):
            return None
        mtu = self.qp.config.mtu_bytes
        if (offset + length + mtu - 1) // mtu > rhdl.npackets:
            # A range beyond the posted receive would hit the late filter
            # per packet; leave that path to packet mode.
            return None
        return channel, pmap, rhdl

    # -- segment advance -------------------------------------------------------

    def try_inject(self, hdl, offset, length, payload, user_imm, attempt) -> bool:
        """Advance one send range fluidly; False -> caller uses packet mode."""
        state = self._eligible(hdl, offset, length, payload, user_imm, attempt)
        if state is None:
            return False
        channel, pmap, rhdl = state
        qp = self.qp
        sim = self.sim
        now = sim.now
        mtu = qp.config.mtu_bytes
        ppc = qp.config.packets_per_chunk
        nch = len(pmap.workers)
        per_cqe = qp.ctx.dpa_config.per_cqe_seconds
        pcie = qp.ctx.dpa_config.pcie_update_seconds

        n = -(-length // mtu)
        sizes = np.full(n, mtu, dtype=np.int64)
        sizes[-1] = length - (n - 1) * mtu
        pkt0 = offset // mtu
        pkt_idx = pkt0 + np.arange(n, dtype=np.int64)

        # Wire booking: FIFO serialization in packet-index order (the UC
        # send pumps self-clock into exactly this order in packet mode).
        dones, dropped = channel.fluid.book_fifo(sizes, now, hdl.seq)
        arrivals = dones + pmap.owd
        delivered = ~dropped

        already = rhdl.packet_bitmap.as_array()[pkt0 : pkt0 + n]
        fresh = delivered & ~already

        # Per-worker closed-form CQE drain (pass 1: no PCIe extras).
        # Duplicates still cost per-CQE time; drops never reach a CQ.
        worker_of = pkt_idx % nch
        exec_t = np.zeros(n, dtype=np.float64)
        per_worker: list[np.ndarray] = []
        for w in range(nch):
            sel = np.flatnonzero(delivered & (worker_of == w))
            per_worker.append(sel)
            if sel.size == 0:
                continue
            free = self._worker_free.get(pmap.workers[w], 0.0)
            exec_t[sel] = drain_times(
                arrivals[sel], free_at=free, per_item=per_cqe
            )

        # Chunk-close attribution from pass-1 times: within each chunk the
        # k-th fresh completion (in processing order) that raises the fill
        # to the goal closes it.  ``_apply_chunk`` re-derives the actual
        # close transition at run time, so a mispredicted closer (e.g. two
        # segments racing on a shared boundary chunk) only shifts timing
        # attribution, never state.
        chunks = np.unique(pkt_idx // ppc)
        closers: dict[int, int] = {}  # chunk -> local index of closer
        for chunk in chunks.tolist():
            lo = max(chunk * ppc - pkt0, 0)
            hi = min((chunk + 1) * ppc - pkt0, n)
            local = np.arange(lo, hi)
            fresh_local = local[fresh[lo:hi]]
            needed = rhdl._chunk_goal[chunk] - rhdl._chunk_fill[chunk]
            if needed <= 0 or fresh_local.size < needed:
                continue
            order = fresh_local[np.lexsort((fresh_local, exec_t[fresh_local]))]
            closers[chunk] = int(order[needed - 1])

        # Pass 2: charge the PCIe chunk-update cost after each closing
        # completion and recompute the drain (closer attribution is kept
        # from pass 1; the sub-cost shifts it could cause are below the
        # equivalence tolerance and deterministic either way).
        closer_set = set(closers.values())
        if closer_set and pcie > 0:
            extra = np.zeros(n, dtype=np.float64)
            extra[list(closer_set)] = pcie
            for w in range(nch):
                sel = per_worker[w]
                if sel.size == 0:
                    continue
                free = self._worker_free.get(pmap.workers[w], 0.0)
                exec_t[sel] = drain_times(
                    arrivals[sel], free_at=free, per_item=per_cqe,
                    extras=extra[sel],
                )
        for w in range(nch):
            sel = per_worker[w]
            if sel.size == 0:
                continue
            last = float(exec_t[sel[-1]])
            if pcie > 0 and int(sel[-1]) in closer_set:
                last += pcie
            prev = self._worker_free.get(pmap.workers[w], 0.0)
            self._worker_free[pmap.workers[w]] = max(last, prev)

        # -- schedule the few remaining heap events ---------------------------

        # Sender side: the last send CQE in packet mode drains when the
        # final packet finishes serializing; account all of them there.
        def _complete_send(hdl=hdl, n=int(n)):
            hdl.packets_injected += n
            hdl._maybe_finish()
            if hdl.poll():
                qp._send_handles.pop(hdl.seq, None)

        sim.call_at(float(dones[-1]), _complete_send)

        # Receiver side: one event per chunk applies that chunk's packet
        # state in bulk at its last (or closing) completion time.
        for chunk in chunks.tolist():
            lo = max(chunk * ppc - pkt0, 0)
            hi = min((chunk + 1) * ppc - pkt0, n)
            fresh_pkts = pkt_idx[lo:hi][fresh[lo:hi]]
            ndeliv = int(delivered[lo:hi].sum())
            if ndeliv == 0:
                continue
            ndup = ndeliv - int(fresh_pkts.size)
            closer = closers.get(chunk)
            if closer is not None:
                at = float(exec_t[closer])
            else:
                sel = np.flatnonzero(delivered[lo:hi]) + lo
                at = float(exec_t[sel].max())
            sim.call_at(
                at, self._apply_chunk, rhdl, int(chunk), fresh_pkts, ndeliv, ndup
            )

        # DPA counters advance in bulk once the segment fully drains.
        counts = [
            (
                pmap.workers[w],
                int(per_worker[w].size),
                sum(1 for i in closer_set if worker_of[i] == w),
            )
            for w in range(nch)
            if per_worker[w].size
        ]
        if counts:
            drained = max(
                float(exec_t[per_worker[w]].max())
                for w in range(nch)
                if per_worker[w].size
            )

            def _account(counts=counts, per_cqe=per_cqe, pcie=pcie):
                for worker, ncqes, nclosed in counts:
                    worker._m_cqes.inc(ncqes)
                    worker._m_busy.inc(ncqes * per_cqe + nclosed * pcie)
                    if nclosed:
                        worker._m_chunks.inc(nclosed)

            sim.call_at(drained, _account)
        return True

    # -- deferred bulk state application ---------------------------------------

    def _apply_chunk(self, rhdl, chunk, fresh_pkts, ndeliv, ndup):
        """Apply one chunk's worth of fluid arrivals (segment-advance cb).

        Mirrors ``SdrQp._process_data_cqe`` over the whole batch: bitmap
        bits, fill counters, seen/duplicate accounting, user-immediate
        fragments, and -- when the fill transitions to the goal -- the
        chunk-close publish after the PCIe delay.
        """
        if rhdl.completed:
            return
        peer = rhdl.qp
        newly = rhdl.packet_bitmap.set_many(fresh_pkts)
        fill_before = rhdl._chunk_fill[chunk]
        rhdl._chunk_fill[chunk] = fill_before + newly
        rhdl.packets_seen += ndeliv
        dup = ndup + (int(fresh_pkts.size) - newly)
        if dup:
            rhdl.duplicate_packets += dup
            peer._m_duplicate_packets.inc(dup)
        if newly:
            uf = peer.layout.user_fragments
            if uf:
                # No user immediate rides fluid segments (eligibility), so
                # every fragment is 0 -- same as packet mode's feeds.
                for k in np.unique(fresh_pkts % uf).tolist():
                    rhdl._imm.feed(int(k), 0)
        goal = rhdl._chunk_goal[chunk]
        if fill_before < goal <= fill_before + newly:
            peer._m_chunks_completed.inc()
            if peer._trace.enabled:
                peer._trace.instant(
                    "chunk_close", cat="sdr", track=peer._track,
                    msg=rhdl.seq, msg_id=rhdl.msg_id, chunk=chunk,
                )
            delay = peer.ctx.dpa_config.pcie_update_seconds
            if delay > 0:
                self.sim.call_in(delay, lambda: rhdl._publish_chunk(chunk))
            else:
                rhdl._publish_chunk(chunk)
