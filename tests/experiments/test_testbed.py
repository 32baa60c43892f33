"""The Section 5.4 client-server testbed harness."""

import pytest

from repro.common.config import ChannelConfig, DpaConfig, SdrConfig
from repro.common.errors import ConfigError
from repro.common.units import KiB
from repro.experiments.testbed import run_rc_throughput, run_sdr_throughput


def channel():
    return ChannelConfig(bandwidth_bps=100e9, distance_km=0.1, mtu_bytes=4 * KiB)


class TestThroughput:
    def test_sdr_loop_reaches_most_of_line_rate(self):
        res = run_sdr_throughput(
            message_bytes=512 * KiB,
            n_messages=8,
            channel=channel(),
            sdr=SdrConfig(chunk_bytes=64 * KiB, max_message_bytes=512 * KiB),
        )
        assert res.total_bytes == 8 * 512 * KiB
        assert res.throughput_bps > 0.7 * 100e9
        assert res.packet_rate > 0

    def test_rc_baseline_near_line_rate(self):
        res = run_rc_throughput(
            message_bytes=512 * KiB, n_messages=8, channel=channel()
        )
        assert res.throughput_bps > 0.9 * 100e9

    def test_small_messages_slower_than_rc(self):
        """The Figure 14 repost-overhead effect."""
        ch = channel()
        sdr = run_sdr_throughput(
            message_bytes=16 * KiB,
            n_messages=16,
            channel=ch,
            sdr=SdrConfig(chunk_bytes=16 * KiB, max_message_bytes=64 * KiB),
        )
        rc = run_rc_throughput(message_bytes=16 * KiB, n_messages=16, channel=ch)
        assert sdr.throughput_bps < rc.throughput_bps

    def test_dpa_bottleneck_caps_packet_rate(self):
        """With one slow worker, throughput is worker-bound, not wire-bound."""
        res = run_sdr_throughput(
            message_bytes=256 * KiB,
            n_messages=8,
            channel=channel(),
            sdr=SdrConfig(
                chunk_bytes=64 * KiB, max_message_bytes=256 * KiB, channels=1
            ),
            dpa=DpaConfig(worker_threads=1, per_cqe_seconds=4e-6),
        )
        # 1 worker at 4 us/CQE = 250 kpps = ~8.2 Gbit/s at 4 KiB.
        assert res.throughput_bps < 12e9
        assert res.packet_rate == pytest.approx(250e3, rel=0.2)

    def test_validation(self):
        with pytest.raises(ConfigError):
            run_sdr_throughput(message_bytes=4 * KiB, n_messages=0)
