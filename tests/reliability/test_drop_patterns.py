"""Every drop pattern of a tiny write, not a sample.

``ScriptedLoss`` drops a channel's n-th packet when bit n of its pattern
is set, and nothing after the pattern; it never draws from the RNG.  A
4-chunk write (1 KiB chunks at a 1 KiB MTU, 10 Gb/s, 10 km) is small
enough to try all 256 patterns of the first 8 packets on either path:
the forward (data) path, or the reverse (control) path that carries the
ACKs, NACKs and provisioning.  The FTO and NACK rounds these patterns
force sit at small absolute times, where a timer re-armed from ``now``
lands an ulp off its deadline unless ``now`` is past half of it: the EC
serve is held to its generator reference there, trace for trace, and to
the payload byte for byte.  SR, SR with gap NACKs, Go-Back-N and the
adaptive scheme (SR or EC per message) must complete under every pattern
on both paths too, with the payload intact and at least one chunk
retransmission per first-transmission packet the pattern drops.
"""

from __future__ import annotations

import io

import pytest

from repro.common.config import ChannelConfig, SdrConfig
from repro.common.errors import DeliveryError
from repro.common.units import KiB
from repro.net.loss import LossModel
from repro.reliability.adaptive import AdaptiveReceiver, AdaptiveSender
from repro.reliability.ec import EcConfig, EcReceiver, EcSender
from repro.reliability.gbn import GbnReceiver, GbnSender
from repro.reliability.sampling import (
    SamplingConfig,
    SamplingReceiver,
    SamplingSender,
)
from repro.reliability.sr import SrConfig, SrReceiver, SrSender
from repro.stack import build_pair
from repro.telemetry import JsonlSink, Telemetry

from tests.reliability.conftest import random_payload
from tests.reliability.test_watch_differential import GeneratorEcReceiver

LENGTH = 4 * KiB
#: Packets of the scripted path a pattern covers.
PACKETS = 8
DIRECTIONS = ("forward", "reverse")
#: Past EC's global timeout (200 RTTs) and sampling's idle watchdog; a
#: serve with no deadline of its own may otherwise poll forever.
HORIZON = 0.05
EC = EcConfig(k=4, m=2)


class ScriptedLoss(LossModel):
    """Drops packet ``n`` (in transmit order) iff bit ``n`` of ``pattern``
    is set, among the first ``packets``; ignores the RNG."""

    def __init__(self, pattern: int, packets: int):
        self.script = [bool(pattern >> n & 1) for n in range(packets)]
        self.sent = 0

    def drops(self, rng, size_bytes: int) -> bool:
        n = self.sent
        self.sent = n + 1
        return n < len(self.script) and self.script[n]


def write_once(sender_type, receiver_type, config, pattern: int, direction="forward"):
    """One ``LENGTH``-byte write under ``pattern`` on the ``direction`` path:
    (its ticket, whether the MR holds the payload, the trace).

    ``config`` is the one config both endpoints take, or a dict of the
    keyword configs they take.
    """
    trace = io.StringIO()
    st = build_pair(
        ChannelConfig(bandwidth_bps=10e9, distance_km=10.0, mtu_bytes=KiB),
        SdrConfig(
            chunk_bytes=KiB, mtu_bytes=KiB, max_message_bytes=64 * KiB,
            msg_id_bits=4, offset_bits=24, channels=2,
        ),
        telemetry=Telemetry(trace=True, trace_sinks=[JsonlSink(trace)]),
    )
    link = st.fabric.links[("dc-a", "dc-b")]
    getattr(link, direction).loss = ScriptedLoss(pattern, PACKETS)
    args, kwargs = ((), config) if isinstance(config, dict) else ((config,), {})
    sender = sender_type(st.qp_a, st.ctrl_a, *args, **kwargs)
    receiver = receiver_type(st.qp_b, st.ctrl_b, *args, **kwargs)
    buf = bytearray(LENGTH)
    payload = random_payload(LENGTH, pattern)
    receiver.post_receive(st.ctx_b.mr_reg(LENGTH, data=buf), LENGTH)
    ticket = sender.write(LENGTH, payload)
    st.sim.run(until=HORIZON)
    return ticket, buf == payload, trace.getvalue()


def test_ec_survives_every_forward_drop_pattern_like_its_reference():
    for pattern in range(1 << PACKETS):
        ticket, intact, trace = write_once(EcSender, EcReceiver, EC, pattern)
        assert ticket.done.ok and intact, (pattern, ticket.done._error)
        reference = write_once(EcSender, GeneratorEcReceiver, EC, pattern)
        assert trace == reference[2], pattern


#: The schemes that recover by retransmission: (sender, receiver, config).
RETRANSMITTING = {
    "sr": (SrSender, SrReceiver, SrConfig()),
    "sr_nack": (SrSender, SrReceiver, SrConfig(nack_enabled=True)),
    "gbn": (GbnSender, GbnReceiver, SrConfig()),
    "adaptive": (
        AdaptiveSender, AdaptiveReceiver, {"sr_config": SrConfig(), "ec_config": EC},
    ),
}


def assert_recovers_from(scheme, patterns, direction="forward"):
    sender_type, receiver_type, config = RETRANSMITTING[scheme]
    for pattern in patterns:
        ticket, intact, _ = write_once(
            sender_type, receiver_type, config, pattern, direction
        )
        assert ticket.done.ok and intact, (pattern, ticket.done._error)
        # Forward bits 0-3 are the write's four first-transmission packets.
        dropped = bin(pattern & 0xF).count("1") if direction == "forward" else 0
        assert ticket.retransmitted_chunks >= dropped, pattern


@pytest.mark.parametrize("scheme", sorted(RETRANSMITTING))
def test_retransmitting_schemes_survive_the_first_64_patterns(scheme):
    assert_recovers_from(scheme, range(64))


@pytest.mark.parametrize("scheme", sorted(RETRANSMITTING))
def test_retransmitting_schemes_survive_the_first_64_reverse_patterns(scheme):
    assert_recovers_from(scheme, range(64), "reverse")


@pytest.mark.slow
@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("scheme", sorted(RETRANSMITTING))
def test_retransmitting_schemes_survive_every_drop_pattern(scheme, direction):
    assert_recovers_from(scheme, range(1 << PACKETS), direction)


@pytest.mark.xfail(
    strict=True, raises=DeliveryError,
    reason="a sampling receiver that saw no chunk has nothing to sample, "
    "and the sender's watchdog gives up after its idle windows",
)
def test_sampling_survives_losing_the_whole_first_transmission():
    ticket, intact, _ = write_once(
        SamplingSender, SamplingReceiver, SamplingConfig(), 0b1111
    )
    ticket.done.value  # raises the write's DeliveryError
    assert intact
