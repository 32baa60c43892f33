"""Configuration dataclass validation and derived quantities."""

import pytest

from repro.common.config import ChannelConfig, DpaConfig, SdrConfig
from repro.common.errors import ConfigError
from repro.common.units import GiB, KiB


class TestChannelConfig:
    def test_defaults_are_cross_continent(self):
        cfg = ChannelConfig()
        assert cfg.rtt == pytest.approx(25e-3)
        assert cfg.bandwidth_bps == 400e9

    def test_bdp(self):
        cfg = ChannelConfig(bandwidth_bps=400e9, distance_km=3750.0)
        # 50 GB/s * 25 ms = 1.25 GB
        assert cfg.bytes_per_second * cfg.rtt == pytest.approx(1.25e9)

    def test_packet_time(self):
        cfg = ChannelConfig(bandwidth_bps=400e9, mtu_bytes=4 * KiB)
        assert cfg.packet_time() == pytest.approx(81.92e-9)
        assert cfg.packet_time(64) == pytest.approx(1.28e-9)

    @pytest.mark.parametrize(
        "kw",
        [
            {"bandwidth_bps": 0},
            {"distance_km": -1},
            {"mtu_bytes": 0},
            {"drop_probability": 1.0},
            {"drop_probability": -0.1},
            {"jitter_fraction": -0.5},
            {"duplicate_probability": 1.0},
            {"duplicate_probability": -0.1},
            {"buffer_bytes": -1},
            {"ecn_threshold_bytes": -1},
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            ChannelConfig(**kw)


class TestSdrConfig:
    def test_default_immediate_split(self):
        cfg = SdrConfig()
        assert cfg.msg_id_bits + cfg.offset_bits + cfg.user_imm_bits == 32
        assert cfg.max_message_ids == 1024

    def test_packets_per_chunk(self):
        cfg = SdrConfig(chunk_bytes=64 * KiB, mtu_bytes=4 * KiB)
        assert cfg.packets_per_chunk == 16

    def test_chunks_in(self):
        cfg = SdrConfig(chunk_bytes=64 * KiB, mtu_bytes=4 * KiB)
        assert cfg.chunks_in(64 * KiB) == 1
        assert cfg.chunks_in(64 * KiB + 1) == 2

    def test_chunk_must_be_mtu_multiple(self):
        with pytest.raises(ConfigError):
            SdrConfig(chunk_bytes=6 * KiB, mtu_bytes=4 * KiB)

    def test_offset_bits_limit_addressing(self):
        # 18 offset bits at 4 KiB MTU cover exactly 1 GiB.
        SdrConfig(max_message_bytes=1 * GiB, mtu_bytes=4 * KiB)
        with pytest.raises(ConfigError):
            SdrConfig(max_message_bytes=2 * GiB, mtu_bytes=4 * KiB)

    def test_alternative_split_8_22_2(self):
        # The paper's wider split supports larger messages.
        cfg = SdrConfig(
            msg_id_bits=8,
            offset_bits=22,
            user_imm_bits=2,
            max_message_bytes=8 * GiB,
        )
        assert cfg.max_message_ids == 256

    def test_split_must_total_32(self):
        with pytest.raises(ConfigError):
            SdrConfig(msg_id_bits=10, offset_bits=18, user_imm_bits=8)

    def test_inflight_bounded_by_msg_ids(self):
        with pytest.raises(ConfigError):
            SdrConfig(inflight_messages=2000)

    def test_message_size_validation(self):
        with pytest.raises(ConfigError):
            SdrConfig().chunks_in(0)


class TestDpaConfig:
    def test_calibration_16_threads_15mpps(self):
        cfg = DpaConfig()
        assert cfg.worker_threads / cfg.per_cqe_seconds == pytest.approx(15e6, rel=0.01)

    def test_worker_bounds(self):
        with pytest.raises(ConfigError):
            DpaConfig(worker_threads=0)
        with pytest.raises(ConfigError):
            DpaConfig(worker_threads=300)

    def test_invalid_costs(self):
        with pytest.raises(ConfigError):
            DpaConfig(per_cqe_seconds=0)
        with pytest.raises(ConfigError):
            DpaConfig(pcie_update_seconds=-1)


class TestDefaultWan:
    def test_default_wan_channel(self):
        cfg = ChannelConfig(drop_probability=1e-4)
        assert cfg.drop_probability == 1e-4
        assert cfg.distance_km == 3750.0
