"""Bonded multi-plane channels (the Section 3.4.1 ECMP/multi-plane hook)."""

import numpy as np
import pytest

from repro.common.config import ChannelConfig, SdrConfig
from repro.common.errors import ConfigError
from repro.common.units import KiB, MiB
from repro.net.loss import BernoulliLoss
from repro.net.multipath import BondedChannel, connect_bonded
from repro.net.packet import Opcode, Packet
from repro.sdr import context_create
from repro.sdr.qp import SdrRecvWr, SdrSendWr
from repro.sim.engine import Simulator
from repro.verbs.device import Fabric


def make_bonded(planes=4, spread="flow", bandwidth=100e9, **cfg_kw):
    sim = Simulator()
    cfg = ChannelConfig(
        bandwidth_bps=bandwidth, distance_km=10.0, mtu_bytes=4 * KiB, **cfg_kw
    )
    bonded = BondedChannel(
        sim, cfg, planes=planes, rng=np.random.default_rng(0), spread=spread
    )
    return sim, bonded


def pkt(src_qpn=0, length=4 * KiB, psn=0):
    return Packet(
        dst_qpn=1, src_qpn=src_qpn, opcode=Opcode.WRITE_ONLY,
        psn=psn, length=length,
    )


class TestSpreading:
    def test_flow_spread_pins_flows_to_planes(self):
        sim, bonded = make_bonded(planes=4, spread="flow")
        bonded.attach_sink(lambda p: None)
        for _ in range(8):
            bonded.transmit(pkt(src_qpn=5))
        sim.run()
        loads = [p.stats.packets_offered for p in bonded.planes]
        assert loads[5 % 4] == 8
        assert sum(loads) == 8

    def test_packet_spray_balances_load(self):
        sim, bonded = make_bonded(planes=4, spread="packet")
        bonded.attach_sink(lambda p: None)
        for i in range(16):
            bonded.transmit(pkt(src_qpn=0, psn=i))
        sim.run()
        loads = [p.stats.packets_offered for p in bonded.planes]
        assert loads == [4, 4, 4, 4]

    def test_aggregate_bandwidth_preserved(self):
        """4 planes of BW/4 drain a burst in the same time as one link."""
        arrivals = []
        sim, bonded = make_bonded(planes=4, spread="packet")
        bonded.attach_sink(lambda p: arrivals.append(sim.now))
        n = 64
        for i in range(n):
            bonded.transmit(pkt(psn=i))
        sim.run()
        span = max(arrivals) - min(arrivals)
        # One plane serializes 16 packets at 25 Gb/s; aggregate equals
        # 64 packets at 100 Gb/s (within one packet time).
        per_pkt_aggregate = 4 * KiB / (100e9 / 8)
        assert span <= n * per_pkt_aggregate + 1e-6

    def test_validation(self):
        sim = Simulator()
        cfg = ChannelConfig()
        with pytest.raises(ConfigError):
            BondedChannel(sim, cfg, planes=0, rng=np.random.default_rng(0))
        with pytest.raises(ConfigError):
            BondedChannel(
                sim, cfg, planes=2, rng=np.random.default_rng(0), spread="magic"
            )

    def test_a_connected_pair_is_refused_a_second_link(self):
        fabric = Fabric(Simulator(), seed=0)
        a, b = fabric.add_device("a"), fabric.add_device("b")
        fabric.connect(a, b, ChannelConfig())
        with pytest.raises(ConfigError, match="b and a are already connected"):
            connect_bonded(fabric, b, a, ChannelConfig(), planes=2)
        assert list(fabric.links) == [("a", "b")]

    def test_single_plane_matches_plain_channel(self):
        """planes=1 is a degenerate bond: identical delivery schedule to a
        plain Channel at the same aggregate bandwidth (loss/jitter off, so
        both are fully deterministic)."""
        from repro.net.channel import Channel

        def deliveries(make_channel):
            sim = Simulator()
            chan = make_channel(sim)
            got = []
            chan.attach_sink(lambda p: got.append((sim.now, p.psn)))
            for i in range(50):
                chan.transmit(pkt(psn=i))
            sim.run()
            return got

        cfg = ChannelConfig(
            bandwidth_bps=100e9, distance_km=10.0, mtu_bytes=4 * KiB
        )
        plain = deliveries(
            lambda sim: Channel(sim, cfg, rng=np.random.default_rng(0))
        )
        bonded = deliveries(
            lambda sim: BondedChannel(
                sim, cfg, planes=1, rng=np.random.default_rng(0),
                spread="packet",
            )
        )
        assert bonded == plain

    def test_packet_spray_deterministic_under_fixed_seed(self):
        """Same-seed sprayed runs over lossy planes see identical survivors
        in identical order; a different seed diverges."""

        def survivors(seed):
            sim = Simulator()
            cfg = ChannelConfig(
                bandwidth_bps=100e9, distance_km=10.0, mtu_bytes=4 * KiB,
                drop_probability=0.2,
            )
            bonded = BondedChannel(
                sim, cfg, planes=4, rng=np.random.default_rng(seed),
                spread="packet",
            )
            got = []
            bonded.attach_sink(lambda p: got.append((sim.now, p.psn)))
            for i in range(300):
                bonded.transmit(pkt(psn=i))
            sim.run()
            return got

        first, second = survivors(7), survivors(7)
        assert first == second
        assert 0 < len(first) < 300
        assert survivors(8) != first


class TestAsymmetricPlanes:
    def test_per_plane_loss_isolated(self):
        sim, _ = make_bonded()
        cfg = ChannelConfig(bandwidth_bps=100e9, distance_km=1.0, mtu_bytes=4 * KiB)
        bonded = BondedChannel(
            sim, cfg, planes=2, rng=np.random.default_rng(1), spread="packet",
        )
        bonded.planes[1].loss = BernoulliLoss(0.5)
        got = []
        bonded.attach_sink(lambda p: got.append(p))
        for i in range(400):
            bonded.transmit(pkt(psn=i))
        sim.run()
        assert bonded.planes[0].stats.packets_dropped == 0
        assert bonded.planes[1].stats.packets_dropped > 50
        assert sum(p.stats.packets_offered for p in bonded.planes) == 400


class TestSdrOverBondedLink:
    def test_sdr_message_survives_packet_spray(self):
        """SDR's per-packet writes make packet spraying safe: a message
        whose packets traverse 4 different planes still completes."""
        sim = Simulator()
        fabric = Fabric(sim, seed=3)
        a, b = fabric.add_device("a"), fabric.add_device("b")
        cfg = ChannelConfig(
            bandwidth_bps=100e9, distance_km=100.0, mtu_bytes=4 * KiB,
            jitter_fraction=0.05,
        )
        connect_bonded(fabric, a, b, cfg, planes=4, spread="packet")
        sdr_cfg = SdrConfig(chunk_bytes=8 * KiB, max_message_bytes=1 * MiB, channels=4)
        ctx_a, ctx_b = context_create(a, sdr_config=sdr_cfg), context_create(
            b, sdr_config=sdr_cfg
        )
        qa, qb = ctx_a.qp_create(), ctx_b.qp_create()
        qa.connect(qb.info_get())
        qb.connect(qa.info_get())
        size = 256 * KiB
        payload = np.random.default_rng(0).integers(
            0, 256, size, dtype=np.uint8
        ).tobytes()
        buf = bytearray(size)
        mr = ctx_b.mr_reg(size, data=buf)
        rh = qb.recv_post(SdrRecvWr(mr=mr, length=size))
        qa.send_post(SdrSendWr(length=size, payload=payload))
        sim.run(rh.wait_all_chunks())
        assert bytes(buf) == payload
        # Traffic really used all planes.
        fwd, _rev = fabric.links[("a", "b")]
        assert all(p.stats.packets_offered > 0 for p in fwd.planes)
