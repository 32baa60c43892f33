"""FaultyChannel unit tests: each fault kind observed at the packet level."""

import pytest

from repro.common.config import ChannelConfig
from repro.common.errors import ConfigError
from repro.common.units import KiB
from repro.dpa.worker import DpaEngine
from repro.common.config import DpaConfig
from repro.faults import (
    FaultSchedule,
    FaultWindow,
    install_dpa_faults,
    install_link_faults,
    packet_class,
)
from repro.net.multipath import connect_bonded
from repro.net.packet import Opcode, Packet
from repro.sim.engine import Simulator
from repro.telemetry import RingBufferSink, Telemetry
from repro.verbs.device import Fabric


def data_pkt(psn=0):
    return Packet(dst_qpn=1, opcode=Opcode.WRITE_ONLY, psn=psn, length=4 * KiB)


def ctrl_pkt(psn=0):
    return Packet(dst_qpn=1, opcode=Opcode.UD_SEND, psn=psn, length=64, immediate=0)


def make_link(schedule, *, seed=0, drop=0.0, telemetry=None):
    """A two-device fabric whose a->b direction runs ``schedule``."""
    sim = Simulator(telemetry=telemetry)
    fabric = Fabric(sim, seed=seed)
    a = fabric.add_device("a")
    b = fabric.add_device("b")
    cfg = ChannelConfig(
        bandwidth_bps=100e9,
        distance_km=100.0,  # rtt 1 ms, one-way 0.5 ms
        mtu_bytes=4 * KiB,
        drop_probability=drop,
    )
    fabric.connect(a, b, cfg)
    fwd, rev = install_link_faults(fabric, a, b, schedule)
    return sim, fabric, fwd, cfg


class TestPacketClass:
    def test_control_vs_data(self):
        assert packet_class(ctrl_pkt()) == "control"
        assert packet_class(Packet(dst_qpn=1, opcode=Opcode.ACK)) == "control"
        assert packet_class(data_pkt()) == "data"
        assert packet_class(
            Packet(dst_qpn=1, opcode=Opcode.WRITE_LAST_IMM, immediate=0)
        ) == "data"


class TestBlackout:
    def test_drops_only_inside_window(self):
        sched = FaultSchedule(
            (FaultWindow(kind="blackout", start=1.0, end=2.0),)
        )
        sim, fabric, fwd, cfg = make_link(sched)
        got = []
        fwd.attach_sink(lambda p: got.append((sim.now, p.psn)))
        for t, psn in [(0.5, 0), (1.5, 1), (2.5, 2)]:
            sim.call_at(t, lambda psn=psn: fwd.transmit(data_pkt(psn)))
        sim.run(until=3.0)
        assert [psn for _, psn in got] == [0, 2]
        # The faulted packet still consumed wire time: it was offered and
        # counted as a loss-model drop by the inner channel.
        reg = sim.telemetry.metrics
        assert reg.value(f"faults.{fwd.name}.fault_drops") == 1
        assert reg.value(f"net.{fwd.name}.packets_dropped") == 1

    def test_control_selector_is_asymmetric(self):
        sched = FaultSchedule(
            (FaultWindow(kind="blackout", start=0.0, end=1.0, selector="control"),)
        )
        sim, fabric, fwd, cfg = make_link(sched)
        got = []
        fwd.attach_sink(lambda p: got.append(p.opcode))
        fwd.transmit(ctrl_pkt())
        fwd.transmit(data_pkt())
        sim.run(until=1.0)
        assert got == [Opcode.WRITE_ONLY]


class TestDelayAndReorder:
    def test_delay_spike_adds_latency(self):
        spike = 10e-3
        sched = FaultSchedule(
            (FaultWindow(kind="delay_spike", start=0.0, end=1.0,
                         delay_seconds=spike),)
        )
        sim, fabric, fwd, cfg = make_link(sched)
        got = []
        fwd.attach_sink(lambda p: got.append(sim.now))
        fwd.transmit(data_pkt())
        sim.run(until=1.0)
        assert len(got) == 1
        assert got[0] >= spike + cfg.one_way_delay
        assert sim.telemetry.metrics.value(
            f"faults.{fwd.name}.fault_delayed"
        ) == 1

    def test_delay_spike_jitter_spreads_arrivals_past_the_spike(self):
        spike, jitter = 10e-3, 1e-3
        sched = FaultSchedule(
            (FaultWindow(kind="delay_spike", start=0.0, end=1.0,
                         delay_seconds=spike, delay_jitter=jitter),)
        )
        sim, fabric, fwd, cfg = make_link(sched)
        got = []
        fwd.attach_sink(lambda p: got.append(sim.now))
        for psn in range(10):
            fwd.transmit(data_pkt(psn))
        sim.run(until=1.0)
        floor = spike + cfg.one_way_delay
        assert len(got) == 10
        assert all(floor <= t <= floor + jitter + 1e-5 for t in got)
        # Back to back, ten packets serialize in 3.3 us; the jitter spreads them.
        assert max(got) - min(got) > 0.1 * jitter

    def test_reorder_storm_scrambles_order(self):
        sched = FaultSchedule(
            (FaultWindow(kind="reorder", start=0.0, end=1.0,
                         delay_jitter=1e-3),)
        )
        sim, fabric, fwd, cfg = make_link(sched)
        got = []
        fwd.attach_sink(lambda p: got.append(p.psn))
        for psn in range(20):
            fwd.transmit(data_pkt(psn))
        sim.run(until=1.0)
        assert sorted(got) == list(range(20))  # nothing lost
        assert got != list(range(20))  # but not in order


class TestDuplicateAndCorrupt:
    def test_duplicate_delivers_twice(self):
        sched = FaultSchedule(
            (FaultWindow(kind="duplicate", start=0.0, end=1.0,
                         duplicate_probability=1.0),)
        )
        sim, fabric, fwd, cfg = make_link(sched)
        got = []
        fwd.attach_sink(lambda p: got.append(p.psn))
        fwd.transmit(data_pkt(7))
        sim.run(until=1.0)
        assert got == [7, 7]
        assert sim.telemetry.metrics.value(
            f"faults.{fwd.name}.fault_duplicated"
        ) == 1

    def test_corrupt_discards_after_flight(self):
        sched = FaultSchedule(
            (FaultWindow(kind="corrupt", start=0.0, end=1.0,
                         corrupt_probability=1.0),)
        )
        sim, fabric, fwd, cfg = make_link(sched)
        got = []
        fwd.attach_sink(lambda p: got.append(p.psn))
        fwd.transmit(data_pkt())
        sim.run(until=1.0)
        assert got == []
        reg = sim.telemetry.metrics
        assert reg.value(f"faults.{fwd.name}.fault_corrupted") == 1
        # Corruption is not a wire drop: the inner channel delivered it.
        assert reg.value(f"net.{fwd.name}.packets_dropped") == 0

    def test_a_traced_corruption_names_the_packet(self):
        ring = RingBufferSink()
        sched = FaultSchedule(
            (FaultWindow(kind="corrupt", start=0.0, end=1.0, corrupt_probability=1.0),)
        )
        sim, fabric, fwd, cfg = make_link(
            sched, telemetry=Telemetry(trace=True, trace_sinks=[ring])
        )
        fwd.transmit(data_pkt(5))
        sim.run(until=1.0)
        [event] = [e for e in ring.events if e.name == "fault_corrupt"]
        assert (event.cat, event.args["psn"], event.args["bytes"]) == ("fault", 5, 4 * KiB)


class TestDeterminism:
    def run_brownout(self, seed):
        sched = FaultSchedule(
            (FaultWindow(kind="brownout", start=0.0, end=1.0,
                         drop_probability=0.5),)
        )
        sim, fabric, fwd, cfg = make_link(sched, seed=seed)
        got = []
        fwd.attach_sink(lambda p: got.append(p.psn))
        for psn in range(200):
            fwd.transmit(data_pkt(psn))
        sim.run(until=1.0)
        return got

    def test_same_seed_identical_survivors(self):
        a = self.run_brownout(3)
        b = self.run_brownout(3)
        assert a == b
        assert 0 < len(a) < 200

    def test_different_seed_differs(self):
        assert self.run_brownout(3) != self.run_brownout(4)


class TestInstallation:
    def test_double_install_rejected(self):
        sched = FaultSchedule((FaultWindow(kind="blackout", start=0.0, end=1.0),))
        sim, fabric, fwd, cfg = make_link(sched)
        a = fabric.devices["a"]
        b = fabric.devices["b"]
        with pytest.raises(ConfigError):
            install_link_faults(fabric, a, b, sched)

    def test_unconnected_devices_rejected(self):
        sim = Simulator()
        fabric = Fabric(sim, seed=0)
        a = fabric.add_device("a")
        b = fabric.add_device("b")
        sched = FaultSchedule((FaultWindow(kind="blackout", start=0.0, end=1.0),))
        with pytest.raises(ConfigError):
            install_link_faults(fabric, a, b, sched)

    def test_a_link_named_in_reverse_order_keeps_the_schedule_on_that_direction(self):
        sched = FaultSchedule((FaultWindow(kind="blackout", start=0.0),))
        sim = Simulator()
        fabric = Fabric(sim, seed=0)
        a, b = fabric.add_device("a"), fabric.add_device("b")
        fabric.connect(a, b, ChannelConfig(distance_km=100.0))
        link = fabric.links[("a", "b")]
        orig_fwd, orig_rev = link.forward, link.reverse
        b_to_a, a_to_b = install_link_faults(fabric, b, a, sched)
        assert (b_to_a.inner, a_to_b.inner) == (orig_rev, orig_fwd)
        assert (link.forward, link.reverse) == (a_to_b, b_to_a)
        assert b.link_to("a") is b_to_a

    def test_a_bonded_link_records_its_wrappers(self):
        sim = Simulator()
        fabric = Fabric(sim, seed=0)
        a, b = fabric.add_device("a"), fabric.add_device("b")
        connect_bonded(fabric, a, b, ChannelConfig(distance_km=100.0), planes=2)
        orig = fabric.links[("a", "b")]
        sched = FaultSchedule((FaultWindow(kind="blackout", start=0.0),))
        fwd, rev = install_link_faults(fabric, a, b, sched)
        assert (fwd.inner, rev.inner) == orig
        assert fabric.links[("a", "b")] == (fwd, rev)
        assert a.link_to("b") is fwd

    def test_dpa_install_validates_worker_index(self):
        sim = Simulator()
        engine = DpaEngine(sim, DpaConfig(worker_threads=2))
        engine.spawn_workers()
        sched = FaultSchedule(
            (FaultWindow(kind="dpa_stall", start=0.0, end=1.0, worker=9),)
        )
        with pytest.raises(ConfigError):
            install_dpa_faults(sim, engine, sched)


class TestPlaneScopedWindows:
    """Satellite: ``FaultWindow(plane=...)`` on bonded links."""

    def _bonded(self, sched, planes=2):
        sim = Simulator()
        fabric = Fabric(sim, seed=0)
        a = fabric.add_device("a")
        b = fabric.add_device("b")
        cfg = ChannelConfig(
            bandwidth_bps=100e9, distance_km=100.0, mtu_bytes=4 * KiB
        )
        connect_bonded(fabric, a, b, cfg, planes=planes, spread="packet")
        fwd, rev = install_link_faults(fabric, a, b, sched)
        return sim, fwd

    def test_blackout_hits_only_target_plane(self):
        sched = FaultSchedule(
            (FaultWindow(kind="blackout", start=0.0, plane=0),)
        )
        sim, fwd = self._bonded(sched)
        got = []
        fwd.attach_sink(lambda p: got.append(p.psn))
        for psn in range(8):  # round-robin: even psn -> plane 0, odd -> 1
            fwd.transmit(data_pkt(psn))
        sim.run()
        assert got == [1, 3, 5, 7]
        assert fwd.inner.planes[0].stats.packets_dropped == 4
        assert fwd.inner.planes[1].stats.packets_dropped == 0

    def test_plane_window_on_plain_link_rejected(self):
        sched = FaultSchedule(
            (FaultWindow(kind="blackout", start=0.0, plane=0),)
        )
        sim = Simulator()
        fabric = Fabric(sim, seed=0)
        a = fabric.add_device("a")
        b = fabric.add_device("b")
        fabric.connect(a, b, ChannelConfig())
        with pytest.raises(ConfigError, match="not bonded"):
            install_link_faults(fabric, a, b, sched)

    def test_plane_index_out_of_range_rejected(self):
        sched = FaultSchedule(
            (FaultWindow(kind="blackout", start=0.0, plane=5),)
        )
        with pytest.raises(ConfigError, match="has 2 planes"):
            self._bonded(sched, planes=2)
