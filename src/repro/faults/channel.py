"""A Channel/BondedChannel wrapper that executes a :class:`FaultSchedule`.

:class:`FaultyChannel` honors the same ``transmit`` / ``attach_sink`` /
``next_free`` interface as :class:`~repro.net.channel.Channel`, so devices
and QPs use it unchanged.  It intervenes at two points:

* **transmit side** -- during ``blackout`` / ``brownout`` windows the inner
  channel's loss model is overridden (loss override): the packet still
  consumes wire time exactly like a natural wire drop, and it rides the
  inner channel's ``loss_drop`` trace path, plus a ``fault_drop`` instant
  with ``cat="fault"`` for attribution.
* **delivery side** -- the wrapper interposes itself between the inner
  channel and its sink: ``delay_spike`` / ``reorder`` windows add extra
  latency before handing the packet downstream, ``duplicate`` windows emit
  a second delivery, and ``corrupt`` windows discard the packet at the
  receiving port (the NIC's ICRC check fails, so corruption is loss that
  *did* spend wire time and flight time).

Asymmetric faults classify each packet into ``"control"`` (UD sends
carrying ACK/NACK/CTS/Provision messages, plus transport ACKs) or
``"data"`` (RDMA Write packets) and apply only the windows whose
``selector`` matches.

All fault randomness comes from a dedicated named RNG substream, so a
faulty run is byte-identical for the same seed and the inner channel's own
stochastic processes (jitter, natural loss) consume exactly the same draws
as a fault-free run.

Ordering constraint: QPs cache their channel object when they connect
(``verbs/qp.py``), so the wrapper must be installed **before** QPs and
control paths connect -- use :func:`repro.faults.install_link_faults`,
which swaps the device link table via ``Device.replace_link``.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from repro.common.errors import ConfigError
from repro.net.loss import LossModel
from repro.net.packet import Opcode, Packet
from repro.faults.schedule import FaultSchedule

#: Opcodes that constitute the control plane: reliability-layer datagrams
#: (ACK / NACK / CTS / Provision all travel as UD sends) and transport ACKs.
_CONTROL_OPCODES = frozenset({Opcode.UD_SEND, Opcode.ACK})


def packet_class(packet: Packet) -> str:
    """``"control"`` or ``"data"`` -- the axis asymmetric faults select on."""
    return "control" if packet.opcode in _CONTROL_OPCODES else "data"


class _OverrideLoss(LossModel):
    """Wraps a channel's loss model; a FaultyChannel can override it.

    While ``owner`` has an active blackout/brownout window for the packet
    being transmitted (and matching this wrapper's plane, for bonded
    links), the window's drop probability *replaces* the base loss process
    (the base model's state does not advance), which is what "loss
    override" means: the fault is the channel during the window.
    """

    def __init__(
        self, base: LossModel, owner: "FaultyChannel", plane: int | None = None
    ):
        self.base = base
        self.owner = owner
        self.plane = plane

    def drops(self, rng: np.random.Generator, size_bytes: int) -> bool:
        p = self.owner._override_for(self.plane)
        if p is None:
            return self.base.drops(rng, size_bytes)
        dropped = p >= 1.0 or self.owner._rng.random() < p
        if dropped:
            self.owner._note_fault_drop(size_bytes, plane=self.plane)
        return dropped


class FaultyChannel:
    """Executes a :class:`FaultSchedule` around an inner (possibly bonded)
    channel while presenting the inner channel's interface."""

    def __init__(
        self,
        inner,
        schedule: FaultSchedule,
        *,
        rng: np.random.Generator,
    ):
        self.inner = inner
        self.schedule = schedule
        self.sim = inner.sim
        self.config = inner.config
        self.name = inner.name
        self._rng = rng
        self._tx_windows: tuple = ()
        self._current_packet: Packet | None = None
        self._downstream: Callable[[Packet], None] | None = None

        planes = getattr(inner, "planes", None)
        nplanes = len(planes) if planes else 0
        for w in schedule.channel_windows:
            if w.plane is None:
                continue
            if nplanes == 0:
                raise ConfigError(
                    f"window {w.kind!r} targets plane {w.plane} but link "
                    f"{self.name!r} is not bonded"
                )
            if w.plane >= nplanes:
                raise ConfigError(
                    f"window {w.kind!r} targets plane {w.plane} but link "
                    f"{self.name!r} has {nplanes} planes"
                )

        # Transmit-side interposition: override the loss process of the
        # inner channel (every plane of a bonded channel shares the owner,
        # each wrapper remembering its plane index for plane-scoped
        # windows).
        if planes:
            for i, ch in enumerate(planes):
                ch.loss = _OverrideLoss(ch.loss, self, plane=i)
        else:
            inner.loss = _OverrideLoss(inner.loss, self)

        # Delivery-side interposition: steal whatever sink the inner
        # channel already delivers to and slot ourselves in front of it.
        # Bonded planes get per-plane closures so plane-scoped delivery
        # faults know which plane carried the packet.
        current = (planes[0] if planes else inner)._sink
        if current is not None:
            self._downstream = current
        if planes:
            for i, ch in enumerate(planes):
                ch.attach_sink(self._plane_deliver(i))
        else:
            inner.attach_sink(self._on_deliver)

        scope = self.sim.telemetry.metrics.scope(f"faults.{self.name}")
        self._m_drops = scope.counter("fault_drops")
        self._m_corrupted = scope.counter("fault_corrupted")
        self._m_delayed = scope.counter("fault_delayed")
        self._m_duplicated = scope.counter("fault_duplicated")
        self._trace = self.sim.telemetry.trace
        self._track = f"faults.{self.name}"
        self._announce_windows()

    def _announce_windows(self) -> None:
        """Trace window boundaries so chaos traces are self-describing."""
        for w in self.schedule.channel_windows:
            self.sim.call_at(
                max(w.start, self.sim.now), self._mark, "fault_window_start", w
            )
            if math.isfinite(w.end):
                self.sim.call_at(
                    max(w.end, self.sim.now), self._mark, "fault_window_end", w
                )

    def _mark(self, name: str, w) -> None:
        if self._trace.enabled:
            extra = {} if w.plane is None else {"plane": w.plane}
            self._trace.instant(
                name, cat="fault", track=self._track,
                kind=w.kind, selector=w.selector, **extra,
            )

    # -- Channel interface -----------------------------------------------------

    def attach_sink(self, sink: Callable[[Packet], None]) -> None:
        self._downstream = sink

    def transmit(self, packet: Packet) -> float:
        cls = packet_class(packet)
        self._tx_windows = tuple(
            w
            for w in self.schedule.active_channel(self.sim.now, cls)
            if w.kind in ("blackout", "brownout", "edge_down")
        )
        # Stash the in-flight packet so a loss-override drop decided inside
        # the inner channel (``_note_fault_drop``) can carry its lineage key.
        self._current_packet = packet
        try:
            return self.inner.transmit(packet)
        finally:
            self._tx_windows = ()
            self._current_packet = None

    def _override_for(self, plane: int | None) -> float | None:
        """Loss-override probability for the packet in flight on ``plane``."""
        p = None
        for w in self._tx_windows:
            if not w.matches_plane(plane):
                continue
            if w.kind in ("blackout", "edge_down"):
                p = 1.0
            else:
                p = max(p or 0.0, w.drop_probability)
        return p

    @property
    def next_free(self) -> float:
        return self.inner.next_free

    @property
    def stats(self):
        return self.inner.stats

    # -- fault execution -------------------------------------------------------

    @staticmethod
    def _lineage(packet: Packet | None) -> dict:
        """Correlation-key args for fault events touching ``packet``."""
        if packet is None or packet.msg_seq is None:
            return {}
        return {
            "msg": packet.msg_seq,
            "pkt": packet.pkt_idx,
            "chunk": packet.chunk,
            "attempt": packet.attempt,
        }

    def _note_fault_drop(self, size_bytes: int, plane: int | None = None) -> None:
        self._m_drops.inc()
        if self._trace.enabled:
            extra = {} if plane is None else {"plane": plane}
            self._trace.instant(
                "fault_drop", cat="fault", track=self._track, bytes=size_bytes,
                **extra, **self._lineage(self._current_packet),
            )

    def _plane_deliver(self, plane: int) -> Callable[[Packet], None]:
        """Delivery-side sink closure remembering the carrying plane."""

        def sink(packet: Packet) -> None:
            self._on_deliver(packet, plane=plane)

        return sink

    def _on_deliver(self, packet: Packet, plane: int | None = None) -> None:
        """Inner channel delivered ``packet``; apply delivery-side faults.

        RNG draw order is fixed (corrupt, then delay, then duplicate) so
        same-seed runs replay identically.
        """
        now = self.sim.now
        active = [
            w
            for w in self.schedule.active_channel(now, packet_class(packet))
            if w.matches_plane(plane)
        ]
        if not active:
            self._pass(packet)
            return
        extra = 0.0
        duplicated = False
        for w in active:
            if w.kind == "corrupt":
                if (
                    w.corrupt_probability >= 1.0
                    or self._rng.random() < w.corrupt_probability
                ):
                    self._m_corrupted.inc()
                    if self._trace.enabled:
                        self._trace.instant(
                            "fault_corrupt", cat="fault", track=self._track,
                            psn=packet.psn, bytes=packet.length,
                            **self._lineage(packet),
                        )
                    return  # ICRC failure: the port discards the frame
            elif w.kind == "delay_spike":
                extra += w.delay_seconds
                if w.delay_jitter > 0:
                    extra += self._rng.uniform(0.0, w.delay_jitter)
            elif w.kind == "reorder":
                if w.delay_jitter > 0:
                    extra += self._rng.uniform(0.0, w.delay_jitter)
            elif w.kind == "duplicate":
                if not duplicated and self._rng.random() < w.duplicate_probability:
                    duplicated = True
        if duplicated:
            self._m_duplicated.inc()
            if self._trace.enabled:
                self._trace.instant(
                    "fault_dup", cat="fault", track=self._track, psn=packet.psn,
                    **self._lineage(packet),
                )
        if extra > 0.0:
            self._m_delayed.inc()
            if self._trace.enabled:
                self._trace.instant(
                    "fault_delay", cat="fault", track=self._track,
                    psn=packet.psn, extra=extra,
                    **self._lineage(packet),
                )
            self.sim.call_at(now + extra, self._pass, packet)
        else:
            self._pass(packet)
        if duplicated:
            # The copy takes its own (identically delayed) path.
            if extra > 0.0:
                self.sim.call_at(now + extra, self._pass, packet)
            else:
                self._pass(packet)

    def _pass(self, packet: Packet) -> None:
        if self._downstream is not None:
            self._downstream(packet)
