"""Unit + integration tests for plane health and circuit-breaker failover."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import ChannelConfig
from repro.common.errors import ConfigError
from repro.common.units import KiB
from repro.net.loss import LossModel, NoLoss
from repro.net.multipath import BondedChannel
from repro.net.packet import Opcode, Packet
from repro.fabric.health import EdgeHealthMonitor
from repro.recovery import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerConfig,
    BreakerSet,
    CircuitBreaker,
    PlaneHealth,
    PlaneRecovery,
)
from repro.sim.engine import Simulator


class FlipLoss(LossModel):
    """Deterministic loss you can toggle mid-run (a repairable plane)."""

    def __init__(self, dropping: bool = True):
        self.dropping = dropping

    def drops(self, rng, size_bytes) -> bool:
        return self.dropping


def pkt(psn=0, src_qpn=0):
    return Packet(
        dst_qpn=1, src_qpn=src_qpn, opcode=Opcode.WRITE_ONLY,
        psn=psn, length=4 * KiB,
    )


class TestBreakerConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(min_samples=-1),
            dict(open_rtts=-1.0),
            dict(backoff_factor=0.0),
            dict(probe_packets=-1),
            dict(min_samples=0),
            dict(open_rtts=0.0),
            dict(backoff_factor=0.5),
            dict(backoff_cap=-1),
            dict(probe_packets=0),
            dict(probe_successes=0),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ConfigError):
            BreakerConfig(**kw)


class TestPlaneHealth:
    def test_first_sample_seeds_at_full_strength(self):
        h = PlaneHealth(alpha=0.4)
        h.update(10, 10, 0.0)  # 100% loss
        assert h.loss == 1.0

    def test_ewma_blends_after_seeding(self):
        h = PlaneHealth(alpha=0.5)
        h.update(10, 0, 0.0)
        h.update(20, 10, 0.0)  # delta: 10 offered, 10 dropped
        assert h.loss == pytest.approx(0.5)

    def test_penalize_is_floor_only(self):
        """A diluted penalty must never drag a dead plane's loss back below
        what the counters established."""
        h = PlaneHealth(alpha=0.4)
        h.update(10, 10, 0.0)
        assert h.loss == 1.0
        h.penalize(0.25)  # blended 0.6*1.0 + 0.4*0.25 = 0.7 < 1.0
        assert h.loss == 1.0
        # But a penalty can still raise a low estimate.
        h2 = PlaneHealth(alpha=0.4)
        h2.penalize(1.0)
        assert h2.loss == pytest.approx(0.4)

    def test_penalize_does_not_seed(self):
        """The first counter-based ratio must land at full strength even if
        penalties arrived before it."""
        h = PlaneHealth(alpha=0.4)
        h.penalize(0.5)  # loss = 0.2, but not seeded
        h.update(8, 8, 0.0)  # first real sample: 100% loss
        assert h.loss == 1.0

    def test_window_counts_offered_since_close(self):
        h = PlaneHealth(alpha=0.4)
        h.update(5, 0, 0.0)
        h.update(12, 0, 0.0)
        assert h.window_offered == 12
        h.reset_window()
        assert h.window_offered == 0


class TestCircuitBreaker:
    def test_backoff_escalates_and_caps(self):
        cfg = BreakerConfig(open_rtts=8.0, backoff_factor=2.0, backoff_cap=3)
        br = CircuitBreaker(cfg, rtt=1e-3)
        base = 8.0 * 1e-3
        expected = [base, base * 2, base * 4, base * 8, base * 8, base * 8]
        for want in expected:
            br.trip(now=0.0)
            assert br.backoff == pytest.approx(want)
            assert br.reopen_at == pytest.approx(want)
            assert br.state == OPEN

    def test_close_resets_escalation(self):
        br = CircuitBreaker(BreakerConfig(), rtt=1e-3)
        br.trip(0.0)
        br.trip(0.0)
        br.close()
        assert br.state == CLOSED
        assert br.consecutive_opens == 0
        br.trip(0.0)
        assert br.backoff == pytest.approx(8.0 * 1e-3)  # first-open backoff

    def test_probe_budget(self):
        cfg = BreakerConfig(probe_packets=2)
        br = CircuitBreaker(cfg, rtt=1e-3)
        assert not br.admits_probe  # closed
        br.trip(0.0)
        assert not br.admits_probe  # open
        br.half_open()
        assert br.admits_probe
        br.probes_sent = 2
        assert not br.admits_probe  # budget spent


RTT = 1e-3


def make_recovery(*, planes=2, spread="packet", losses=(), config=None, seed=0):
    sim = Simulator()
    cfg = ChannelConfig(
        bandwidth_bps=100e9, distance_km=100.0, mtu_bytes=4 * KiB
    )
    bonded = BondedChannel(
        sim, cfg, planes=planes, rng=np.random.default_rng(seed),
        spread=spread, name="bond",
    )
    for plane, loss in zip(bonded.planes, losses):
        plane.loss = loss
    bonded.attach_sink(lambda p: None)
    recovery = PlaneRecovery(
        sim, bonded, rtt=RTT,
        # open_rtts is long relative to the drive windows below, so a
        # tripped breaker stays open unless a test explicitly drives past
        # reopen_at.
        config=config or BreakerConfig(min_samples=4, open_rtts=50.0,
                                       probe_packets=2, probe_successes=2),
    )
    return sim, bonded, recovery


class TestPlaneRecovery:
    def test_requires_bonded_channel(self):
        sim = Simulator()

        class Plain:
            planes = None

        with pytest.raises(ConfigError, match="BondedChannel"):
            PlaneRecovery(sim, Plain(), rtt=RTT)
        sim2, bonded, _ = make_recovery()
        with pytest.raises(ConfigError, match="rtt"):
            PlaneRecovery(sim2, bonded, rtt=0.0)

    def test_all_closed_pick_falls_through(self):
        sim, bonded, recovery = make_recovery()
        assert recovery.states() == [CLOSED, CLOSED]
        assert recovery.pick(bonded, pkt()) is None

    def _drive(self, sim, bonded, start, count, spacing=RTT):
        """Transmit ``count`` packets spaced ``spacing`` apart from ``start``."""
        for i in range(count):
            sim.call_at(start + i * spacing, lambda i=i: bonded.transmit(pkt(psn=i)))
        end = start + count * spacing
        sim.run(until=end)
        return end

    def test_dead_plane_trips_and_traffic_fails_over(self):
        flip = FlipLoss(dropping=True)
        sim, bonded, recovery = make_recovery(losses=[flip, NoLoss()])
        t = self._drive(sim, bonded, 0.0, 16)
        assert recovery.states()[0] == OPEN
        assert recovery.states()[1] == CLOSED
        # After the trip, everything sprays onto the surviving plane.
        before = bonded.planes[0].stats.packets_offered
        self._drive(sim, bonded, t, 6)
        assert bonded.planes[0].stats.packets_offered == before
        reg = sim.telemetry.metrics
        assert reg.value("recovery.bond.breaker_opens") == 1
        assert reg.value("recovery.bond.failover_packets") >= 6

    def test_failed_probe_reopens_with_doubled_backoff(self):
        flip = FlipLoss(dropping=True)
        sim, bonded, recovery = make_recovery(losses=[flip, NoLoss()])
        self._drive(sim, bonded, 0.0, 16)
        br = recovery.breakers[0]
        assert br.state == OPEN
        first_backoff = br.backoff
        # Keep traffic flowing past reopen_at: the breaker half-opens,
        # admits probes onto the still-dead plane, and re-trips.
        self._drive(sim, bonded, br.reopen_at + RTT, 12)
        assert br.state == OPEN
        assert br.consecutive_opens == 2
        assert br.backoff == pytest.approx(2 * first_backoff)

    def test_recovered_plane_closes_after_probe_successes(self):
        flip = FlipLoss(dropping=True)
        sim, bonded, recovery = make_recovery(losses=[flip, NoLoss()])
        self._drive(sim, bonded, 0.0, 16)
        br = recovery.breakers[0]
        assert br.state == OPEN
        flip.dropping = False  # the fiber is spliced
        self._drive(sim, bonded, br.reopen_at + RTT, 20)
        assert br.state == CLOSED
        assert br.consecutive_opens == 0
        assert recovery.health[0].loss == 0.0
        reg = sim.telemetry.metrics
        assert reg.value("recovery.bond.breaker_closes") == 1
        assert reg.value("recovery.bond.probes_sent") >= 2

    def test_trip_fires_listeners(self):
        flip = FlipLoss(dropping=True)
        sim, bonded, recovery = make_recovery(losses=[flip, NoLoss()])
        tripped = []
        recovery.add_listener(tripped.append)
        self._drive(sim, bonded, 0.0, 16)
        assert tripped == [0]

    def test_nack_signals_accelerate_trip_on_flow_spread(self):
        """Counter-based polling needs wire traffic; NACK signals trip the
        flow's plane between polls."""
        sim, bonded, recovery = make_recovery(
            spread="flow", losses=[NoLoss(), NoLoss()]
        )
        # Give plane 0 its min_samples window of (clean) traffic first.
        self._drive(sim, bonded, 0.0, 8)
        assert recovery.states()[0] == CLOSED
        for _ in range(3):
            recovery.note_nack(src_qpn=0, missing=4)  # weight 1.0 each
        assert recovery.states()[0] == OPEN
        assert sim.telemetry.metrics.value("recovery.bond.nack_signals") == 3

    def test_flow_spread_rehashes_around_open_plane(self):
        flip = FlipLoss(dropping=True)
        sim, bonded, recovery = make_recovery(
            spread="flow", losses=[flip, NoLoss()]
        )
        # src_qpn=0 hashes to the dead plane 0.
        for i in range(16):
            sim.call_at(i * RTT, lambda i=i: bonded.transmit(pkt(psn=i)))
        sim.run(until=16 * RTT)
        assert recovery.states()[0] == OPEN
        choice = recovery.pick(bonded, pkt(src_qpn=0))
        assert choice == 1  # re-hashed onto the surviving plane

    def test_flow_spread_fails_static_when_every_plane_is_open(self):
        """Both planes dead and open: there is nowhere to fail over to, so
        a packet keeps its preferred plane and no failover is counted."""
        sim, bonded, recovery = make_recovery(
            spread="flow", losses=[FlipLoss(), FlipLoss()]
        )
        for i in range(16):
            sim.call_at(
                i * RTT, lambda i=i: bonded.transmit(pkt(psn=i, src_qpn=i % 2))
            )
        sim.run(until=16 * RTT)
        assert recovery.states() == [OPEN, OPEN]
        reg = sim.telemetry.metrics
        failovers = reg.value("recovery.bond.failover_packets")
        assert recovery.pick(bonded, pkt(src_qpn=0)) == 0
        assert recovery.pick(bonded, pkt(src_qpn=1)) == 1
        assert reg.value("recovery.bond.failover_packets") == failovers

    def test_deterministic_and_event_free(self):
        """Lazy evaluation schedules no simulator events: after traffic
        drains, the sim terminates with no recovery residue."""

        def run(seed):
            flip = FlipLoss(dropping=True)
            sim, bonded, recovery = make_recovery(
                losses=[flip, NoLoss()], seed=seed
            )
            got = []
            bonded.attach_sink(lambda p: got.append((sim.now, p.psn)))
            for i in range(24):
                sim.call_at(i * RTT, lambda i=i: bonded.transmit(pkt(psn=i)))
            sim.run()  # unbounded: must terminate
            return got, recovery.states()

        first = run(3)
        second = run(3)
        assert first == second


# -- the shared loop: state-machine legality, and one loop under both owners --------

LEGAL = {(CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED), (HALF_OPEN, OPEN)}
EDGES = [("a", "b"), ("b", "c"), ("c", "d")]


class Counters:
    """A fake sample source: one plane's / edge channel's counters."""

    queue_delay = 0.0
    next_free = 0.0

    def __init__(self):
        self.stats = self
        self.packets_offered = 0
        self.packets_dropped = 0


class AuditedSet(BreakerSet):
    """The bare loop over fake counters, asserting legality at every move."""

    def __init__(self, sim, sources, config):
        super().__init__(sim, range(len(sources)), rtt=RTT, config=config, track="t")
        self.sources = sources
        self.was = dict.fromkeys(self.breakers, CLOSED)

    def _sample(self, key, now):
        src = self.sources[key]
        return src.packets_offered, src.packets_dropped, src.queue_delay

    def _trace_args(self, key):
        return {"key": key}

    def _transitioned(self, keys, state):
        now, cfg = self.sim.now, self.config
        for key in keys:
            br = self.breakers[key]
            assert br.state == state
            assert (self.was[key], state) in LEGAL
            if state == HALF_OPEN:
                assert now >= br.reopen_at
            elif state == OPEN:
                if self.was[key] == CLOSED:
                    assert self.health[key].window_offered >= cfg.min_samples
                    assert self.health[key].loss >= cfg.open_threshold
                escalations = min(br.consecutive_opens - 1, cfg.backoff_cap)
                assert br.reopen_at - now == pytest.approx(
                    cfg.open_rtts * RTT * cfg.backoff_factor**escalations
                )
            self.was[key] = state


class StubBonded:
    name = "stub"
    spread = "flow"

    def __init__(self, planes):
        self.planes = planes

    def set_recovery(self, recovery):
        pass


class StubNetwork:
    def __init__(self, sim, channels):
        self.sim = sim
        self.channels = channels
        self.invalidations = 0

    def set_health(self, monitor):
        pass

    def routes_changed(self):
        self.invalidations += 1


STEP = st.tuples(
    st.sampled_from([0.0, 0.3 * RTT, RTT, 3 * RTT, 9 * RTT, 40 * RTT]),
    st.integers(0, 2),   # key the traffic / penalty lands on
    st.integers(0, 12),  # packets offered since the last step
    st.integers(0, 12),  # ... of which dropped (clamped to offered)
    st.booleans(),       # an RTO penalty after the evaluation
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 3),
    steps=st.lists(STEP, max_size=60),
    backoff_factor=st.sampled_from([1.0, 2.0]),
)
def test_shared_loop_is_legal_and_identical_under_both_owners(
    n, steps, backoff_factor
):
    config = BreakerConfig(
        min_samples=4, open_rtts=4.0, backoff_factor=backoff_factor,
        backoff_cap=2, probe_successes=2,
    )
    sims = [Simulator() for _ in range(3)]
    sources = [[Counters() for _ in range(n)] for _ in range(3)]
    bare = AuditedSet(sims[0], sources[0], config)
    bonded = StubBonded(sources[1])
    planes = PlaneRecovery(sims[1], bonded, rtt=RTT, config=config)
    network = StubNetwork(sims[2], dict(zip(EDGES, sources[2])))
    edges = EdgeHealthMonitor(network, rtt=RTT, config=config)
    assert list(edges.breakers) == EDGES[:n]

    def view(owner):
        return [
            (br.state, br.reopen_at, br.consecutive_opens, owner.health[key].loss)
            for key, br in owner.breakers.items()
        ]

    now = 0.0
    for dt, key, offered, dropped, penalty in steps:
        now += dt
        key %= n
        for sim, src in zip(sims, sources):
            sim.run(until=now)
            src[key].packets_offered += offered
            src[key].packets_dropped += min(dropped, offered)
        bare.evaluate(now)
        planes.pick(bonded, pkt())
        edges.on_datapath(now)
        if penalty:
            before = [h.loss for h in bare.health.values()]
            bare._penalize([key], 0.5)
            assert all(
                h.loss >= was for h, was in zip(bare.health.values(), before)
            )
            planes.note_rto(src_qpn=key)
            edges.note_rto(EDGES[key])
        assert view(planes) == view(edges) == view(bare)
    assert planes.states() == [br.state for br in bare.breakers.values()]
    assert set(edges.excluded()) == {
        EDGES[k] for k, br in bare.breakers.items() if br.state == OPEN
    }
