"""What the verbs layer refuses, and what its traced paths record.

Each refusal is a call a user can make on a device, a QP or a completion
record; each traced path is checked with tracing on, where the instant it
emits is the only place its state shows.
"""

import pytest

from repro.common.config import ChannelConfig
from repro.common.errors import ConfigError, SdrStateError
from repro.common.units import KiB, MiB
from repro.net.packet import Opcode, Packet
from repro.sim.engine import Simulator
from repro.stack import build_link
from repro.telemetry import RingBufferSink, Telemetry
from repro.verbs.cq import Cqe
from repro.verbs.device import Fabric
from repro.verbs.mr import MemoryRegion
from repro.verbs.qp import RcQp, SendWr, UcQp

from tests.verbs.conftest import cq


def _traced_wire(*, drop=0.0, seed=0):
    ring = RingBufferSink()
    channel = ChannelConfig(
        bandwidth_bps=100e9, distance_km=50.0, drop_probability=drop
    )
    wire = build_link(
        channel, seed=seed, names=("a", "b"),
        telemetry=Telemetry(trace=True, trace_sinks=[ring]),
    )
    return wire, ring


class TestDevice:
    def test_a_second_link_to_a_peer_is_refused(self, wire):
        link = wire.fabric.links[("a", "b")]
        with pytest.raises(ConfigError, match="already linked to b"):
            wire.dev_a.attach_link("b", link.forward, link.reverse)

    def test_replacing_a_link_that_does_not_exist_is_refused(self, wire):
        link = wire.fabric.links[("a", "b")]
        with pytest.raises(ConfigError, match="has no link to c"):
            wire.dev_a.replace_link(
                "c", outgoing=link.forward, incoming=link.reverse
            )


class TestQp:
    def test_an_unlinked_qp_has_no_mtu(self):
        device = Fabric(Simulator()).add_device("alone")
        qp = UcQp(device, send_cq=None, recv_cq=None)
        with pytest.raises(SdrStateError, match="MTU unknown"):
            qp.info()

    def test_a_connected_qp_cannot_connect_again(self, wire):
        qa = UcQp(wire.dev_a, send_cq=cq(wire), recv_cq=cq(wire))
        qb = UcQp(wire.dev_b, send_cq=cq(wire), recv_cq=cq(wire))
        qa.connect(qb.info())
        with pytest.raises(SdrStateError, match="already connected"):
            qa.connect(qb.info())

    def test_an_rc_window_must_be_positive(self, wire):
        with pytest.raises(ConfigError, match="window must be > 0"):
            RcQp(wire.dev_a, send_cq=cq(wire), recv_cq=cq(wire), window_packets=0)


class TestCqe:
    def test_a_completion_equals_no_other_type(self):
        cqe = Cqe(1, Opcode.UD_SEND, 64, 0.0)
        assert cqe != (1, Opcode.UD_SEND, 64, 0.0)
        assert not cqe == "cqe"


class TestTracedPaths:
    def test_a_uc_psn_gap_records_the_abort(self):
        wire, ring = _traced_wire()
        qb = UcQp(wire.dev_b, send_cq=cq(wire), recv_cq=cq(wire))
        mr = MemoryRegion(64 * KiB)
        wire.dev_b.reg_mr(mr)
        for op, psn in ((Opcode.WRITE_FIRST, 0), (Opcode.WRITE_LAST_IMM, 2)):
            qb.on_packet(Packet(
                dst_qpn=qb.qpn, opcode=op, psn=psn, rkey=mr.rkey,
                remote_offset=0, length=8, immediate=5,
            ))
        (abort,) = [e for e in ring.events if e.name == "psn_abort"]
        assert abort.args == {"expected_psn": 1}  # PSN 1 never came
        assert qb.messages_aborted == 1

    def test_an_rc_timeout_records_the_rewind(self):
        wire, ring = _traced_wire(drop=0.05, seed=3)
        qa = RcQp(wire.dev_a, send_cq=cq(wire), recv_cq=cq(wire))
        qb = RcQp(wire.dev_b, send_cq=cq(wire), recv_cq=cq(wire))
        qa.connect(qb.info())
        qb.connect(qa.info())
        mr = MemoryRegion(MiB)
        wire.dev_b.reg_mr(mr)
        qa.post_send(SendWr(length=MiB, rkey=mr.rkey, wr_id=0))
        wire.sim.run(until=30.0)
        assert len(qa.send_cq.poll(10)) == 1
        rewinds = [e for e in ring.events if e.name == "rto_rewind"]
        metric = f"verbs.a.qp{qa.qpn}.rto_rewinds"
        assert len(rewinds) == wire.sim.telemetry.metrics.value(metric) > 0
        assert all(e.args["snd_una"] <= e.args["snd_nxt"] for e in rewinds)
