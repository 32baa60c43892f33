"""Packet-level ring Allreduce: ground truth for the model simulator.

``generator_drive`` keeps the ring's round loop as it stood before it
became callback chains: one process per datacenter, joined per round by an
``all_of`` gate.  The differential below holds the callbacks to it.
"""

from unittest import mock

import numpy as np
import pytest

from repro.collectives import des_ring
from repro.collectives.bounds import allreduce_lower_bound
from repro.collectives.des_ring import run_des_ring_allreduce
from repro.collectives.ring_allreduce import RingAllreduce, sr_stage_sampler
from repro.common.config import ChannelConfig
from repro.common.errors import ConfigError, DeliveryError
from repro.common.units import KiB, MiB
from repro.models.params import ModelParams, packet_to_chunk_drop
from repro.reliability.sr import SrConfig

from tests.conftest import all_of, live_dispatches, recording_sims


def channel(drop=0.0):
    return ChannelConfig(
        bandwidth_bps=100e9, distance_km=375.0, mtu_bytes=4 * KiB,
        drop_probability=drop,
    )


class TestLossless:
    def test_completes_and_respects_bound(self):
        ch = channel()
        result = run_des_ring_allreduce(
            n_datacenters=4, buffer_bytes=4 * MiB, channel=ch, protocol="sr"
        )
        assert result.rounds == 6
        assert result.total_retransmitted_chunks == 0
        params = ModelParams(
            bandwidth_bps=ch.bandwidth_bps, rtt=ch.rtt, chunk_bytes=16 * KiB,
            drop_probability=0.0,
        )
        bound = allreduce_lower_bound(4, params.ideal_completion(1 * MiB))
        assert result.completion_time >= bound * 0.99

    @pytest.mark.parametrize("protocol", ["sr", "sr_nack", "ec", "gbn"])
    def test_all_protocols_complete(self, protocol):
        result = run_des_ring_allreduce(
            n_datacenters=3,
            buffer_bytes=768 * KiB,
            channel=channel(),
            protocol=protocol,
        )
        assert result.completion_time > 0
        assert result.protocol == protocol


class TestLossy:
    def test_sr_ring_survives_loss(self):
        result = run_des_ring_allreduce(
            n_datacenters=4, buffer_bytes=4 * MiB,
            channel=channel(drop=5e-3), protocol="sr", seed=3,
        )
        assert sum(result.per_edge_drops) > 0
        assert result.total_retransmitted_chunks > 0

    @pytest.mark.slow
    def test_ec_beats_sr_on_lossy_ring(self):
        """End-to-end (packet-level) confirmation of Figure 13's claim."""
        times = {}
        for protocol in ("sr", "ec"):
            total = 0.0
            for seed in (5, 6):
                result = run_des_ring_allreduce(
                    n_datacenters=4,
                    buffer_bytes=4 * MiB,
                    channel=channel(drop=5e-3),
                    protocol=protocol,
                    seed=seed,
                )
                total += result.completion_time
            times[protocol] = total
        assert times["ec"] < times["sr"]

    def test_des_brackets_model_simulator(self):
        """The DES and the model-based sampler agree within protocol
        overhead factors (the repo's cross-validation at collective scale)."""
        ch = channel(drop=2e-3)
        des = run_des_ring_allreduce(
            n_datacenters=4, buffer_bytes=4 * MiB, channel=ch,
            protocol="sr", seed=9,
        )
        params = ModelParams(
            bandwidth_bps=ch.bandwidth_bps,
            rtt=ch.rtt,
            chunk_bytes=16 * KiB,
            drop_probability=packet_to_chunk_drop(2e-3, 4),
        )
        ring = RingAllreduce(n_datacenters=4, buffer_bytes=4 * MiB)
        model = ring.sample(
            sr_stage_sampler(params), 500, rng=np.random.default_rng(0)
        )
        assert des.completion_time >= model.mean() * 0.4
        assert des.completion_time <= np.percentile(model, 99.9) * 2.5


class TestEcSizing:
    def test_parity_receive_larger_than_the_segment(self):
        """MDS(8, 4) over 16 KiB chunks posts 64 KiB parity receives for a
        48 KiB segment: the SDR message limit must cover them."""
        ch = ChannelConfig(bandwidth_bps=100e9, distance_km=1000.0, mtu_bytes=4 * KiB)
        result = run_des_ring_allreduce(
            n_datacenters=3, buffer_bytes=144 * KiB, channel=ch, protocol="ec",
        )
        assert result.rounds == 4
        assert result.completion_time > 0


class TestValidation:
    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            run_des_ring_allreduce(
                n_datacenters=1, buffer_bytes=1 * MiB, channel=channel()
            )
        with pytest.raises(ConfigError):
            run_des_ring_allreduce(
                n_datacenters=4, buffer_bytes=1 * MiB, channel=channel(),
                protocol="tcp",
            )


def generator_drive(sim, contexts, senders, receivers, segment, rounds):
    """``des_ring._drive`` before the callbacks: a process per datacenter."""
    n = len(contexts)
    done = sim.event()
    state = {"finished": 0, "retx": 0}

    def datacenter(i):
        mr = contexts[i].mr_reg(segment, name=f"dc{i}.segment")
        for _ in range(rounds):
            ticket_in = receivers[(i - 1) % n].post_receive(mr, segment)
            ticket_out = senders[i].write(segment)
            yield all_of(sim, [ticket_in.done, ticket_out.done])
            state["retx"] += ticket_out.retransmitted_chunks
        state["finished"] += 1
        if state["finished"] == n:
            done.succeed((sim.now, state["retx"]))

    for i in range(n):
        sim.process(datacenter(i))
    return done


def ring_run(drive, **kw):
    """One ring under ``drive``: its result (or error) and its live dispatches.

    The generator ends each datacenter with a dead entry the callbacks do
    not make, so the two are compared on :func:`live_dispatches`.
    """
    with recording_sims() as sims, mock.patch.object(des_ring, "_drive", drive):
        try:
            outcome = run_des_ring_allreduce(**kw)
        except DeliveryError as error:
            outcome = repr(error)
    return outcome, live_dispatches(sims[0].dispatched)


@pytest.mark.parametrize(
    "protocol, n, drop, sr_config",
    [
        ("sr", 3, 0.05, None),
        ("sr_nack", 4, 0.02, None),
        ("ec", 3, 0.05, None),
        ("gbn", 3, 0.02, None),
        # A write runs out of retransmits: the round's first failure
        # raises out of run() in its own entry, as the gate threw it.
        ("sr", 3, 0.3, SrConfig(max_chunk_retransmits=1)),
    ],
)
def test_callback_rounds_match_generator_rounds(protocol, n, drop, sr_config):
    kw = dict(
        n_datacenters=n, buffer_bytes=n * 64 * KiB, channel=channel(drop=drop),
        protocol=protocol, sr_config=sr_config, seed=3,
    )
    got = ring_run(des_ring._drive, **kw)
    assert got == ring_run(generator_drive, **kw)
    if sr_config is not None:
        assert "DeliveryError" in got[0]
