"""Shared fixtures: wired SDR pairs and protocol endpoints."""

from __future__ import annotations

import pytest

from repro.common.config import ChannelConfig, DpaConfig, SdrConfig
from repro.common.units import KiB, MiB
from repro.faults import FaultSchedule
from repro.sim.engine import SimConfig
from repro.stack import Stack, build_pair
from repro.telemetry import Telemetry


#: The fixtures hand out the public record under their older name.
SdrPair = Stack


def make_sdr_pair(
    *,
    drop: float = 0.0,
    bandwidth_bps: float = 100e9,
    distance_km: float = 100.0,
    mtu: int = 4 * KiB,
    chunk: int = 8 * KiB,
    max_message: int = 4 * MiB,
    channels: int = 4,
    generations: int = 4,
    inflight: int = 16,
    jitter: float = 0.0,
    seed: int = 0,
    dpa: DpaConfig | None = None,
    faults: FaultSchedule | None = None,
    planes: int | None = None,
    spread: str = "flow",
    buffer_bytes: int = 0,
    ecn_threshold_bytes: int = 0,
    sim_config: SimConfig | None = None,
    telemetry: Telemetry | None = None,
) -> SdrPair:
    """The fixture's flattened kwargs over :func:`repro.stack.build_pair`."""
    channel = ChannelConfig(
        bandwidth_bps=bandwidth_bps,
        distance_km=distance_km,
        mtu_bytes=mtu,
        drop_probability=drop,
        jitter_fraction=jitter,
        buffer_bytes=buffer_bytes,
        ecn_threshold_bytes=ecn_threshold_bytes,
    )
    sdr_cfg = SdrConfig(
        chunk_bytes=chunk,
        max_message_bytes=max_message,
        mtu_bytes=mtu,
        channels=channels,
        generations=generations,
        inflight_messages=inflight,
    )
    return build_pair(
        channel, sdr_cfg, dpa=dpa, planes=planes, spread=spread, faults=faults,
        seed=seed, sim_config=sim_config, telemetry=telemetry,
    )


@pytest.fixture
def sdr_pair() -> SdrPair:
    """Lossless default pair."""
    return make_sdr_pair()


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--chaos-seed",
        type=int,
        default=0,
        help="base RNG seed for the fault-injection chaos suite (-m chaos)",
    )


@pytest.fixture
def chaos_seed(request: pytest.FixtureRequest) -> int:
    """Seed for chaos tests; CI sweeps it via ``--chaos-seed``."""
    return request.config.getoption("--chaos-seed")
