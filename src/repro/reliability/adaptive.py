"""Adaptive per-connection reliability provisioning.

Section 2.1 of the paper: "a single endpoint might communicate with remote
endpoints at varying distances.  Achieving optimal message completion times
in this scenario may require per-connection reliability protocol
provisioning."  This module is that provisioner.

Design
------

* :class:`ProtocolAdvisor` -- the offline decision engine.  Given link
  parameters and a message size it evaluates the Section 4.2
  completion-time models for SR RTO, SR NACK and a menu of EC
  configurations and returns the ranking (the same engine behind
  ``examples/reliability_planner.py``).
* :class:`AdaptiveReceiver` -- owns the ground truth: it observes loss
  directly (duplicate packets delivered by retransmissions, submessages
  that needed parity decoding) and keeps an EWMA drop-rate estimate.  For
  every posted receive it asks the advisor, posts through the chosen
  protocol, and announces the choice to the peer in a ``Provision``
  control message (receives are posted before sends anyway -- the
  announcement rides the same ordering that clear-to-send relies on).
* :class:`AdaptiveSender` -- queues writes until the matching provision
  arrives, then dispatches each write through the protocol the receiver
  chose, in write order: the n-th write takes the n-th receive's slots
  whichever provision arrives first.  Provisions are re-announced on a
  short timer until the message completes, so a dropped control datagram
  cannot wedge the connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.common.errors import ConfigError, DeliveryError
from repro.models.ec_model import ec_expected_completion
from repro.models.params import ModelParams
from repro.models.sr_model import sr_expected_completion
from repro.reliability.base import (
    ControlPath,
    Endpoint,
    ReceiveTicket,
    WriteTicket,
    register_scheme,
)
from repro.reliability.ec import EcConfig, EcReceiver, EcSender
from repro.reliability.messages import Provision
from repro.reliability.sr import SrConfig, SrReceiver, SrSender
from repro.sdr.qp import SdrQp
from repro.verbs.mr import MemoryRegion

#: RTTs a write waits for the receiver's provision before failing cleanly.
PROVISION_TIMEOUT_RTTS = 200.0


@dataclass(frozen=True)
class Recommendation:
    """One ranked protocol option."""

    name: str
    expected_seconds: float
    detail: str = ""


class ProtocolAdvisor:
    """Model-driven protocol selection for one link."""

    def __init__(
        self,
        *,
        bandwidth_bps: float,
        rtt: float,
        chunk_bytes: int,
        ec_menu: tuple[tuple[str, int, int], ...] = (
            ("mds", 32, 8),
            ("mds", 32, 4),
            ("xor", 32, 8),
        ),
    ):
        if not ec_menu:
            raise ConfigError("EC menu must not be empty")
        self.bandwidth_bps = bandwidth_bps
        self.rtt = rtt
        self.chunk_bytes = chunk_bytes
        self.ec_menu = ec_menu

    def rank(
        self, message_bytes: int, chunk_drop_probability: float
    ) -> list[Recommendation]:
        """All options ordered by expected completion time."""
        p = min(max(chunk_drop_probability, 0.0), 0.99)
        params = ModelParams(
            bandwidth_bps=self.bandwidth_bps,
            rtt=self.rtt,
            chunk_bytes=self.chunk_bytes,
            drop_probability=p,
        )
        chunks = params.chunks_in(message_bytes)
        out = [
            Recommendation(
                "sr_rto", sr_expected_completion(params, chunks), "RTO = 3 RTT"
            ),
        ]
        for codec, k, m in self.ec_menu:
            out.append(
                Recommendation(
                    f"ec_{codec}_{k}_{m}",
                    ec_expected_completion(params, chunks, k=k, m=m, codec=codec),
                    f"{codec.upper()}({k},{m})",
                )
            )
        out.sort(key=lambda r: r.expected_seconds)
        return out

    def best(
        self, message_bytes: int, chunk_drop_probability: float
    ) -> Recommendation:
        return self.rank(message_bytes, chunk_drop_probability)[0]


class DropRateEstimator:
    """EWMA of the observed chunk drop rate, clamped to [floor, ceiling]."""

    def __init__(
        self,
        *,
        initial: float = 1e-6,
        alpha: float = 0.3,
        floor: float = 0.0,
        ceiling: float = 0.99,
    ):
        if not 0 < alpha <= 1:
            raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
        if not 0.0 <= floor <= ceiling <= 1.0:
            raise ConfigError(
                f"need 0 <= floor <= ceiling <= 1, got [{floor}, {ceiling}]"
            )
        self.alpha = alpha
        self.floor = float(floor)
        self.ceiling = float(ceiling)
        self.estimate = min(max(float(initial), self.floor), self.ceiling)
        self.observations = 0

    def observe(self, lost_chunks: float, total_chunks: int) -> float:
        """Fold one message's loss observation into the estimate.

        A ``total_chunks == 0`` sample carries no information (a zero-length
        message observed nothing), so it leaves the estimate untouched
        instead of dividing through.
        """
        if total_chunks <= 0:
            return self.estimate
        sample = max(lost_chunks, 0.0) / total_chunks
        sample = min(max(sample, self.floor), self.ceiling)
        blended = (1 - self.alpha) * self.estimate + self.alpha * sample
        self.estimate = min(max(blended, self.floor), self.ceiling)
        self.observations += 1
        return self.estimate


def _default_advisor(qp: SdrQp, rtt: float, ec_config: EcConfig) -> ProtocolAdvisor:
    bw = (
        qp.data_qps[0][0].channel.config.bandwidth_bps
        if qp.connected and qp.data_qps[0][0].channel is not None
        else 100e9
    )
    return ProtocolAdvisor(
        bandwidth_bps=bw,
        rtt=rtt,
        chunk_bytes=qp.config.chunk_bytes,
        ec_menu=((ec_config.codec, ec_config.k, ec_config.m),),
    )


class AdaptiveReceiver(Endpoint):
    """Chooses the protocol per message and announces it to the sender."""

    scheme = "adaptive"

    def __init__(
        self,
        qp: SdrQp,
        ctrl: ControlPath,
        *,
        sr_config: SrConfig | None = None,
        ec_config: EcConfig | None = None,
        estimator: DropRateEstimator | None = None,
        rtt: float | None = None,
    ):
        super().__init__(qp, ctrl, rtt=rtt)
        ec_config = ec_config if ec_config is not None else EcConfig()
        self.sr = SrReceiver(qp, ctrl, sr_config, rtt=self.rtt)
        self.ec = EcReceiver(qp, ctrl, ec_config, rtt=self.rtt)
        self.advisor = _default_advisor(qp, self.rtt, ec_config)
        self.estimator = estimator if estimator is not None else DropRateEstimator()
        self.protocol_history: list[str] = []
        self._msg_index = 0
        self._m_choices_sr = self._scope.counter("choices_sr")
        self._m_choices_ec = self._scope.counter("choices_ec")
        self._m_provisions_sent = self._scope.counter("provisions_sent")
        self._g_drop_estimate = self._scope.gauge("drop_estimate")

    def post_receive(
        self, mr: MemoryRegion, length: int, mr_offset: int = 0
    ) -> ReceiveTicket:
        choice = self._choose(length)
        index = self._msg_index
        self._msg_index += 1
        self.protocol_history.append(choice)
        (self._m_choices_ec if choice == "ec" else self._m_choices_sr).inc()
        if self._trace.enabled:
            self._trace.instant(
                "provision_choice", cat="adaptive", track=self._track,
                msg=index, index=index, protocol=choice,
                drop_estimate=self.estimator.estimate,
            )
        backend = self.ec if choice == "ec" else self.sr
        ticket = backend.post_receive(mr, length, mr_offset)
        self.sim.call_in(
            0.0, self._announce, index, choice, ticket, max(self.rtt, 1e-4)
        )
        ticket.done.callbacks.append(lambda ev: self._learn(ticket, length))
        return ticket

    def abandon(self, ticket: ReceiveTicket) -> None:
        """Stop serving a failed write's receive, in whichever protocol has it."""
        self.sr.abandon(ticket)
        self.ec.abandon(ticket)

    def _choose(self, length: int) -> str:
        best = self.advisor.best(length, self.estimator.estimate)
        return "ec" if best.name.startswith("ec") else "sr"

    def _announce(self, index: int, choice: str, ticket, interval: float, sent=0):
        """Send the provision, re-announcing with capped exponential backoff
        until the message completes (or fails), 20 times at most."""
        if sent == 20:
            return
        self.ctrl.send(Provision(msg_seq=index, protocol=choice))
        self._m_provisions_sent.inc()
        if not ticket.done.triggered:
            backoff = min(interval * 2.0, 32.0 * max(self.rtt, 1e-4))
            self.sim.call_in(
                interval, self._announce, index, choice, ticket, backoff, sent + 1
            )

    def _learn(self, ticket: ReceiveTicket, length: int) -> None:
        total = self.qp.config.chunks_in(length)
        ppc = max(1, self.qp.config.packets_per_chunk)
        # Two receiver-side loss signals: duplicate packets (chunks the SR
        # path retransmitted) and parity-decoded chunks (losses the EC path
        # absorbed without retransmission).
        duplicates = sum(rh.duplicate_packets for rh in ticket.recv_handles)
        lost_chunks = duplicates / ppc + float(ticket.decoded_chunks)
        self._g_drop_estimate.set(self.estimator.observe(lost_chunks, total))


class AdaptiveSender(Endpoint):
    """Dispatches each write through the receiver-provisioned protocol."""

    scheme = "adaptive"

    def __init__(
        self,
        qp: SdrQp,
        ctrl: ControlPath,
        *,
        sr_config: SrConfig | None = None,
        ec_config: EcConfig | None = None,
        rtt: float | None = None,
    ):
        super().__init__(qp, ctrl, rtt=rtt)
        ec_config = ec_config if ec_config is not None else EcConfig()
        self.sr = SrSender(qp, ctrl, sr_config, rtt=self.rtt)
        self.ec = EcSender(qp, ctrl, ec_config, rtt=self.rtt)
        self.protocol_history: list[str] = []
        self._provisions: dict[int, str] = {}
        self._waiters: dict[int, object] = {}
        self._msg_index = 0
        #: The index of the next write to take its slots.
        self._turn = 0
        self._m_provision_timeouts = self._scope.counter("provision_timeouts")

    def attach_recovery(self, recovery) -> None:
        """Feed plane-recovery signals to both underlying protocols."""
        self.sr.attach_recovery(recovery)
        self.ec.attach_recovery(recovery)

    def attach_cc(self, pacer) -> None:
        """Feed congestion signals into a :class:`repro.cc.Pacer`.

        Signals flow from the SR backend (the only one whose ACK path
        carries RTT samples and ECN echoes); actuation through the shared
        SDR QP pacer covers EC injections too.
        """
        self.sr.attach_cc(pacer)

    def write(self, length: int, payload: bytes | None = None) -> WriteTicket:
        """Reliable write via whatever protocol the receiver provisioned.

        Returns a facade ticket that resolves once the underlying protocol
        write completes (the provision may not have arrived yet when this
        is called, hence the indirection).
        """
        index = self._msg_index
        self._msg_index += 1
        facade = self._write_ticket(index, length)
        deadline = self.sim.now + PROVISION_TIMEOUT_RTTS * self.rtt
        self.sim.call_in(0.0, self._dispatch, facade, index, length, payload, deadline)
        return facade

    def _dispatch(self, facade, index: int, length: int, payload, deadline):
        """Write through the provisioned protocol once the provision is in
        and every earlier write took its slots (order-based matching)."""
        choice = self._provisions.get(index)
        turn = index == self._turn
        if (choice is None or not turn) and self.sim.now < deadline:
            resume = partial(self._dispatch, facade, index, length, payload, deadline)
            # Both ends of the race keep the ``any_of`` gate's hop.
            timer = self.sim.timer(self.sim.call_in, 0.0, resume)
            timer.arm(max(deadline - self.sim.now, 0.0))
            self._waiters[index] = timer.expire_now
            return
        if turn:
            self._turn += 1
            if self._turn in self._provisions:
                self._wake(self._turn)
        if choice is None or not turn:
            # The control plane never delivered a provision: surface a
            # clean failure instead of queueing the write forever.
            self._waiters.pop(index, None)
            self._m_provision_timeouts.inc()
            facade.failed = True
            if not facade.done.triggered:
                facade.done.fail(DeliveryError(
                    f"no provision for message {index} within "
                    f"{PROVISION_TIMEOUT_RTTS:g} RTTs",
                    total_chunks=self.qp.config.chunks_in(length),
                ))
            return
        self.protocol_history.append(choice)
        backend = self.ec if choice == "ec" else self.sr
        inner = backend.write(length, payload)

        def _relay(ev) -> None:
            facade.retransmitted_chunks = inner.retransmitted_chunks
            facade.nacks_received = inner.nacks_received
            facade.fell_back_to_sr = inner.fell_back_to_sr
            if inner.failed:
                facade.failed = True
                if not facade.done.triggered:
                    facade.done.fail(ev._error)
            else:
                facade._finish(self.sim.now)

        inner.done.callbacks.append(_relay)

    def _on_ctrl(self, msg) -> None:
        if not isinstance(msg, Provision):
            return
        if msg.msg_seq not in self._provisions:
            self._provisions[msg.msg_seq] = msg.protocol
            if msg.msg_seq == self._turn:
                self._wake(msg.msg_seq)

    def _wake(self, index: int) -> None:
        wake = self._waiters.pop(index, None)
        if wake is not None:
            self.sim.call_in(0.0, wake)


register_scheme("adaptive", AdaptiveSender, AdaptiveReceiver)
