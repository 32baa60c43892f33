"""UD-style staging backend: correctness and the copy-bandwidth ceiling.

``GeneratorStagedSdrQp`` keeps the copy engine as the generator process it
was before it became a callback chain: the differential below holds the
callback form to it dispatch for dispatch.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import ChannelConfig, SdrConfig
from repro.common.errors import ConfigError
from repro.common.units import KiB, MiB
from repro.sdr import context_create
from repro.sdr.qp import SdrQp, SdrRecvWr, SdrSendWr
from repro.sdr.staged import StagedSdrQp
from repro.sim import Simulator
from repro.verbs import Fabric


class GeneratorStagedSdrQp(StagedSdrQp):
    """``StagedSdrQp`` with the pre-callback copier: a process woken by an ``Event``."""

    def __init__(self, ctx, config, *, copy_bps=200e9):
        SdrQp.__init__(self, ctx, config)
        self.copy_bps = copy_bps
        self._copy_queue = deque()
        self._copy_wake = None
        self.bytes_copied = 0
        self.copy_busy_seconds = 0.0
        self._copier = self.sim.process(self._copy_engine())

    def _process_data_cqe(self, cqe):
        validated = self._validate_data_cqe(cqe)
        if validated is None:
            return False
        hdl, pkt_idx, frag = validated
        self._copy_queue.append((hdl, pkt_idx, frag, cqe.byte_len))
        if self._copy_wake is not None and not self._copy_wake.triggered:
            self._copy_wake.succeed(None)
        return False

    def _copy_engine(self):
        rate = self.copy_bps / 8.0
        while True:
            if not self._copy_queue:
                self._copy_wake = self.sim.event()
                yield self._copy_wake
                continue
            hdl, pkt_idx, frag, nbytes = self._copy_queue.popleft()
            cost = nbytes / rate
            yield self.sim.timeout(cost)
            self.bytes_copied += nbytes
            self.copy_busy_seconds += cost
            if not hdl.completed:
                self._record_packet(hdl, pkt_idx, frag)


def make_staged_pair(*, copy_bps=200e9, bandwidth=400e9, seed=0, qp_cls=StagedSdrQp):
    sim = Simulator()
    fabric = Fabric(sim, seed=seed)
    a, b = fabric.add_device("a"), fabric.add_device("b")
    channel = ChannelConfig(
        bandwidth_bps=bandwidth, distance_km=0.5, mtu_bytes=4 * KiB
    )
    fabric.connect(a, b, channel)
    cfg = SdrConfig(chunk_bytes=16 * KiB, max_message_bytes=8 * MiB, channels=8)
    ctx_a, ctx_b = context_create(a, sdr_config=cfg), context_create(
        b, sdr_config=cfg
    )
    qa = ctx_a.qp_create()
    qb = qp_cls(ctx_b, cfg, copy_bps=copy_bps)
    ctx_b.qps.append(qb)
    qa.connect(qb.info_get())
    qb.connect(qa.info_get())
    return sim, ctx_b, qa, qb, channel


class TestStagedCorrectness:
    def test_message_completes_through_copy_engine(self):
        sim, ctx_b, qa, qb, channel = make_staged_pair()
        size = 256 * KiB
        mr = ctx_b.mr_reg(size)
        rh = qb.recv_post(SdrRecvWr(mr=mr, length=size))
        qa.send_post(SdrSendWr(length=size))
        sim.run(rh.wait_all_chunks())
        assert rh.bitmap().all_set()
        assert qb.bytes_copied == size

    def test_packets_into_an_abandoned_slot_are_never_copied(self):
        """The receive is abandoned before its packets land: stage two
        filters their CQEs, so the copier never sees them."""
        sim, ctx_b, qa, qb, channel = make_staged_pair()
        size = 64 * KiB
        mr = ctx_b.mr_reg(size)
        rh = qb.recv_post(SdrRecvWr(mr=mr, length=size))
        qa.send_post(SdrSendWr(length=size))
        sim.run(until=channel.rtt / 2)  # too early for any packet to land
        assert not rh.bitmap().count()
        qb.recv_abandon(rh)
        sim.run()
        assert qb.bytes_copied == 0
        late = sim.telemetry.metrics.value("sdr.b.late_cqes_filtered")
        assert late == size // (4 * KiB)

    def test_invalid_copy_bandwidth(self):
        with pytest.raises(ConfigError):
            make_staged_pair(copy_bps=0)


class TestCopyBottleneck:
    def test_slow_copier_delays_completion(self):
        """Copy engine slower than the wire: completion is copy-bound."""
        size = 2 * MiB
        # Fast copier (wire-bound) vs slow copier (copy-bound).
        times = {}
        for label, copy_bps in (("fast", 800e9), ("slow", 50e9)):
            sim, ctx_b, qa, qb, channel = make_staged_pair(copy_bps=copy_bps)
            mr = ctx_b.mr_reg(size)
            rh = qb.recv_post(SdrRecvWr(mr=mr, length=size))
            qa.send_post(SdrSendWr(length=size))
            sim.run(rh.wait_all_chunks())
            times[label] = sim.now
        assert times["slow"] > times["fast"] * 2
        # Copy-bound completion ~ size / copy_bw.
        assert times["slow"] >= size * 8 / 50e9 * 0.9

    def test_backlog_builds_when_wire_outruns_copier(self):
        sim, ctx_b, qa, qb, channel = make_staged_pair(copy_bps=20e9)
        size = 1 * MiB
        mr = ctx_b.mr_reg(size)
        rh = qb.recv_post(SdrRecvWr(mr=mr, length=size))
        qa.send_post(SdrSendWr(length=size))
        # Run just past the wire delivery window: queue must be deep.
        wire_time = size * 8 / channel.bandwidth_bps
        sim.run(until=channel.rtt + wire_time * 2)
        assert qb.copy_backlog > 0
        sim.run(rh.wait_all_chunks())
        assert rh.bitmap().all_set()
        assert qb.copy_busy_seconds > 0


def copy_run(qp_cls, copy_bps, sends):
    """Post one receive per send, the sends at their ticks; step to the last chunk."""
    sim, ctx_b, qa, qb, channel = make_staged_pair(copy_bps=copy_bps, qp_cls=qp_cls)
    handles, mrs = [], []
    for n, (kib, _) in enumerate(sends):
        mr = ctx_b.mr_reg(kib * KiB, data=bytearray(kib * KiB))
        mrs.append(mr)
        handles.append(qb.recv_post(SdrRecvWr(mr=mr, length=kib * KiB)))
    # Sends match receives in post order, so they go out in list order.
    ticks = sorted(tick for _, tick in sends)
    for n, ((kib, _), tick) in enumerate(zip(sends, ticks)):
        wr = SdrSendWr(length=kib * KiB, payload=bytes([n + 1]) * (kib * KiB))
        sim.call_at(tick * 1e-7, qa.send_post, wr)
    dispatched, finished = [], {}
    while len(finished) < len(handles):
        dispatched.append(sim._heap[0][:2])
        sim.step()
        for i, h in enumerate(handles):
            if i not in finished and h.all_chunks_received():
                finished[i] = sim.now
    return {
        "dispatched": dispatched,
        "finished": finished,
        "copied": (qb.bytes_copied, qb.copy_busy_seconds, qb.copy_backlog),
        "memory": [bytes(mr.data) for mr in mrs],
    }


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([20e9, 100e9, 800e9]),
    st.lists(
        st.tuples(st.sampled_from([4, 16, 60, 64, 100]), st.integers(0, 30)),
        min_size=1, max_size=3,
    ),
)
def test_copy_chain_matches_generator_copier(copy_bps, sends):
    """Every dispatch, chunk completion, copied byte and landed byte agree."""
    got = copy_run(StagedSdrQp, copy_bps, sends)
    assert got == copy_run(GeneratorStagedSdrQp, copy_bps, sends)
    assert got["copied"][0] == sum(kib * KiB for kib, _ in sends)
