"""Device and fabric wiring."""

import pytest

from repro.common.config import ChannelConfig
from repro.common.errors import ConfigError, ResourceError
from repro.sim.engine import Simulator
from repro.verbs.device import Fabric
from repro.verbs.mr import MemoryRegion


class TestFabric:
    def test_duplicate_device_rejected(self):
        fabric = Fabric(Simulator())
        fabric.add_device("x")
        with pytest.raises(ConfigError):
            fabric.add_device("x")

    def test_duplicate_link_rejected(self):
        fabric = Fabric(Simulator())
        a, b = fabric.add_device("a"), fabric.add_device("b")
        cfg = ChannelConfig()
        fabric.connect(a, b, cfg)
        with pytest.raises(ConfigError):
            fabric.connect(b, a, cfg)

    def test_multi_device_topology(self):
        fabric = Fabric(Simulator())
        devs = [fabric.add_device(f"dc{i}") for i in range(4)]
        cfg = ChannelConfig()
        for i in range(4):
            fabric.connect(devs[i], devs[(i + 1) % 4], cfg)
        assert devs[0].peers == ["dc1", "dc3"]


class TestDevice:
    def test_qpn_allocation_unique(self, wire):
        qpns = {wire.dev_a.alloc_qpn() for _ in range(10)}
        assert len(qpns) == 10

    def test_unknown_rkey(self, wire):
        with pytest.raises(ResourceError):
            wire.dev_a.lookup_mkey(424242)

    def test_reg_mr_lookup(self, wire):
        mr = MemoryRegion(64)
        wire.dev_a.reg_mr(mr)
        assert wire.dev_a.lookup_mkey(mr.rkey) is mr

    def test_link_to_unknown_peer(self, wire):
        with pytest.raises(ConfigError):
            wire.dev_a.link_to("nonexistent")

    def test_packets_to_unknown_qpn_vanish(self, wire):
        # Deliver directly: must not raise.
        from repro.net.packet import Opcode, Packet

        wire.dev_a._rx(Packet(dst_qpn=999, opcode=Opcode.WRITE_ONLY, length=1))
