"""Model parameter derivations and conversions."""

import pytest

from repro.common.config import ChannelConfig
from repro.common.errors import ConfigError
from repro.common.units import KiB, MiB
from repro.models.params import ModelParams, packet_to_chunk_drop
from repro.models.stats import summarize

import numpy as np


class TestPacketToChunk:
    def test_single_packet_chunk_identity(self):
        assert packet_to_chunk_drop(1e-5, 1) == pytest.approx(1e-5)

    def test_sixteen_packet_chunk(self):
        # Figure 15: P_chunk = 1 - (1-p)^16 ~ 1.6e-4 at p = 1e-5.
        assert packet_to_chunk_drop(1e-5, 16) == pytest.approx(1.6e-4, rel=1e-3)

    def test_zero(self):
        assert packet_to_chunk_drop(0.0, 64) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            packet_to_chunk_drop(1.0, 4)
        with pytest.raises(ConfigError):
            packet_to_chunk_drop(0.1, 0)


class TestModelParams:
    def test_t_inj(self):
        p = ModelParams(bandwidth_bps=400e9, chunk_bytes=64 * KiB)
        assert p.t_inj == pytest.approx(64 * KiB / 50e9)

    def test_rto_and_overhead(self):
        p = ModelParams(rtt=25e-3, rto_rtts=3.0)
        assert p.rto == pytest.approx(75e-3)
        assert p.retransmission_overhead == pytest.approx(75e-3 + p.t_inj)

    def test_ideal_completion(self):
        p = ModelParams(bandwidth_bps=400e9, rtt=25e-3, chunk_bytes=64 * KiB)
        assert p.ideal_completion(128 * MiB) == pytest.approx(
            2048 * p.t_inj + 25e-3
        )

    def test_from_channel_converts_drop(self):
        cfg = ChannelConfig(drop_probability=1e-5, mtu_bytes=4 * KiB)
        p = ModelParams.from_channel(cfg, chunk_bytes=64 * KiB)
        assert p.drop_probability == pytest.approx(
            packet_to_chunk_drop(1e-5, 16)
        )
        assert p.rtt == pytest.approx(cfg.rtt)

    def test_from_channel_chunk_drop_passthrough(self):
        cfg = ChannelConfig(drop_probability=1e-3)
        p = ModelParams.from_channel(cfg, chunk_drop=True)
        assert p.drop_probability == 1e-3

    def test_modifiers(self):
        p = ModelParams()
        assert p.at_distance(3750.0).rtt == pytest.approx(25e-3)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ModelParams(bandwidth_bps=0)
        with pytest.raises(ConfigError):
            ModelParams(drop_probability=1.0)
        with pytest.raises(ConfigError):
            ModelParams(rto_rtts=0)
        with pytest.raises(ConfigError):
            ModelParams().chunks_in(0)


class TestStats:
    def test_summary_fields(self):
        s = summarize(np.arange(1, 1001, dtype=float))
        assert s.samples == 1000
        assert s.mean == pytest.approx(500.5)
        assert s.p50 == pytest.approx(500.5)
        assert s.minimum == 1.0
        assert s.maximum == 1000.0
        assert s.p999 > s.p99 > s.p50

    def test_slowdown_normalization(self):
        s = summarize(np.array([2.0, 4.0])).slowdown(2.0)
        assert s.mean == pytest.approx(1.5)
        assert s.minimum == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            summarize(np.array([]))
        with pytest.raises(ConfigError):
            summarize(np.array([1.0])).slowdown(0.0)
