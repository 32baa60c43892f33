"""Unit and constant conversions."""

import pytest

from repro.common.units import (
    GiB,
    KiB,
    MiB,
    bytes_per_second,
    distance_to_rtt,
    format_bandwidth,
    format_bytes,
    injection_time,
    rtt_to_distance,
)


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

    def test_roundtrip(self):
        for d in (1.0, 350.0, 3750.0, 1e5):
            assert rtt_to_distance(distance_to_rtt(d)) == pytest.approx(d)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            distance_to_rtt(-1.0)

    def test_negative_rtt_rejected(self):
        with pytest.raises(ValueError):
            rtt_to_distance(-1e-3)


class TestBandwidth:
    def test_bytes_per_second(self):
        assert bytes_per_second(400e9) == 50e9

    def test_injection_time_4kib_at_400g(self):
        # One MTU at 400 Gbit/s is ~82 ns.
        assert injection_time(4 * KiB, 400e9) == pytest.approx(81.92e-9)

    def test_injection_time_zero_size(self):
        assert injection_time(0, 100e9) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bytes_per_second(0)
        with pytest.raises(ValueError):
            injection_time(-1, 100e9)
        with pytest.raises(ValueError):
            injection_time(10, 0)


class TestFormatting:
    @pytest.mark.parametrize(
        "size,expected",
        [(512, "512 B"), (2 * KiB, "2 KiB"), (128 * MiB, "128 MiB"), (8 * GiB, "8 GiB")],
    )
    def test_format_bytes(self, size, expected):
        assert format_bytes(size) == expected

    @pytest.mark.parametrize(
        "bw,expected",
        [(400e9, "400 Gbit/s"), (3.2e12, "3.2 Tbit/s"), (100e6, "100 Mbit/s"),
         (5e5, "500000 bit/s")],
    )
    def test_format_bandwidth(self, bw, expected):
        assert format_bandwidth(bw) == expected
