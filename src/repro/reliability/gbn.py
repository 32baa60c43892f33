"""Go-Back-N reliability over the SDR bitmap.

The commodity-NIC baseline scheme, reimplemented as an SDR *user* so it can
be compared head-to-head with Selective Repeat on identical substrate.  The
paper chooses SR "since it can be proven theoretically that SR efficiency
is at least as good as Go-back-N's" (Section 4); this module provides the
other side of that comparison (claim row ``ablation_sr_vs_gbn``).

Protocol: the sender maintains a window of unacknowledged chunks starting
at ``snd_una``; the receiver only advances its cumulative ACK (it ignores
out-of-order chunks *for acknowledgment purposes* -- the SDR bitmap still
records them, but GBN does not exploit that information).  On RTO the
sender rewinds and retransmits everything from ``snd_una``, which is
exactly the bandwidth waste SR avoids.
"""

from __future__ import annotations

import numpy as np

from repro.reliability.base import (
    ControlPath,
    Receiver,
    ReceiveTicket,
    Sender,
    WriteState,
    WriteTicket,
    register_scheme,
)
from repro.reliability.messages import Ack
from repro.reliability.sr import ACK_INTERVAL_RTTS, SrConfig
from repro.sdr.handles import RecvHandle
from repro.sdr.qp import SdrQp


class _GbnState(WriteState):
    """A GBN write: the cumulative point and the pump's RTO timer."""

    def __init__(self, ticket: WriteTicket, handles, nchunks: int, payload):
        super().__init__(ticket, handles, nchunks, payload)
        self.una = 0
        self.next_to_send = 0
        self.rto = None

    @property
    def delivered(self) -> np.ndarray:
        # Cumulative ACKs are all GBN knows: the first ``una`` chunks.
        return np.arange(self.nchunks) < self.una


class GbnSender(Sender):
    """Sender endpoint of the Go-Back-N protocol."""

    scheme = "gbn"
    config_type = SrConfig
    state_type = _GbnState

    def __init__(
        self,
        qp: SdrQp,
        ctrl: ControlPath,
        config: SrConfig | None = None,
        *,
        window_chunks: int = 256,
        rtt: float | None = None,
    ):
        super().__init__(qp, ctrl, config, rtt=rtt)
        self.window_chunks = window_chunks
        self.rto = self.config.rto_rtts * self.rtt
        self._m_rewinds = self._scope.counter("rto_rewinds")
        self._m_retransmitted = self._scope.counter("retransmitted_chunks")

    def _start(self, state: _GbnState) -> None:
        self.sim.call_in(0.0, self._pump, state)

    def _pump(self, state: _GbnState, una: int | None = None, rounds: int = 0):
        """(Re)fill the window from the cumulative point, then wait for
        progress or the RTO; ``una`` is the point the woken wait began at,
        ``rounds`` the RTOs in a row without progress before it.

        Both ends of the wait keep the same-instant hop of the ``any_of``
        gate they replaced (docs/simulation.md).
        """
        ticket, nchunks = state.ticket, state.nchunks
        if una is not None and state.una == una:
            # RTO: rewind the whole window (the GBN waste).
            rounds += 1
            if rounds > self.config.max_chunk_retransmits:
                self._fail(state, "GBN retransmit budget")
                return
            window_end = min(una + self.window_chunks, nchunks)
            ticket.retransmitted_chunks += window_end - una
            self._m_rewinds.inc()
            self._m_retransmitted.inc(window_end - una)
            if self._trace.enabled:
                self._trace.instant(
                    "rto_rewind", cat="gbn", track=self._track,
                    msg=ticket.seq, seq=ticket.seq, una=una,
                    chunks=window_end - una, attempt=rounds,
                )
            for i in range(una, window_end):
                self._send_chunk(state, i, attempt=rounds)
            state.next_to_send = window_end
        else:
            rounds = 0
        una = state.una
        if una >= nchunks:
            del self._states[ticket.seq]
            self._complete_write(state, retransmits=ticket.retransmitted_chunks)
            return
        state.next_to_send = max(state.next_to_send, una)
        while state.next_to_send < min(una + self.window_chunks, nchunks):
            self._send_chunk(state, state.next_to_send)
            state.next_to_send += 1
        state.rto = self.sim.timer(
            self.sim.call_in, 0.0, self._pump, state, una, rounds
        )
        state.rto.arm(self.rto)

    def _on_ctrl(self, msg) -> None:
        if not isinstance(msg, Ack):
            return
        state = self._states.get(msg.msg_seq)
        if state is not None and msg.cumulative > state.una:
            state.una = msg.cumulative
            if state.rto is not None:  # progress ends the wait, one hop on
                self.sim.call_in(0.0, state.rto.expire_now)


class GbnReceiver(Receiver):
    """Receiver endpoint: cumulative-only acknowledgments."""

    scheme = "gbn"
    config_type = SrConfig

    def __init__(
        self,
        qp: SdrQp,
        ctrl: ControlPath,
        config: SrConfig | None = None,
        *,
        rtt: float | None = None,
    ):
        super().__init__(qp, ctrl, config, rtt=rtt)
        self._m_acks_sent = self._scope.counter("acks_sent")

    def _serve(self, ticket: ReceiveTicket, rh: RecvHandle) -> None:
        def ack() -> None:
            # Cumulative-only: no selective window (the GBN restriction).
            self.ctrl.send(
                Ack(msg_seq=ticket.seq, cumulative=rh.bitmap().cumulative())
            )
            self._m_acks_sent.inc()

        def finish() -> None:
            ack()
            self._finish(ticket, [rh], ack, self.config.rto_rtts * self.rtt)

        interval = ACK_INTERVAL_RTTS * self.rtt
        self._watch(ticket, rh, interval, ack, finish)


register_scheme("gbn", GbnSender, GbnReceiver)
