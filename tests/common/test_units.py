"""Unit and constant conversions."""

import pytest

from repro.common.config import ChannelConfig
from repro.common.errors import ConfigError
from repro.common.units import GiB, KiB, MiB, distance_to_rtt


class TestSizes:
    def test_byte_constants(self):
        assert KiB == 1024
        assert MiB == 1024 * KiB
        assert GiB == 1024 * MiB


class TestDistanceRtt:
    def test_paper_anchor_3750km_is_25ms(self):
        assert distance_to_rtt(3750.0) == pytest.approx(25e-3)

    def test_1000km_adds_about_6_7ms(self):
        # The paper quotes ~6.5 ms per 1000 km of extra cable.
        assert distance_to_rtt(1000.0) == pytest.approx(6.67e-3, rel=0.01)

    def test_zero_distance(self):
        assert distance_to_rtt(0.0) == 0.0

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            distance_to_rtt(-1.0)

class TestBandwidth:
    def test_bytes_per_second(self):
        assert ChannelConfig(bandwidth_bps=400e9).bytes_per_second == 50e9

    def test_injection_time_4kib_at_400g(self):
        # One MTU at 400 Gbit/s is ~82 ns.
        assert ChannelConfig(bandwidth_bps=400e9).packet_time(4 * KiB) == pytest.approx(
            81.92e-9
        )

    def test_injection_time_zero_size(self):
        assert ChannelConfig(bandwidth_bps=100e9).packet_time(0) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            ChannelConfig(bandwidth_bps=0)
