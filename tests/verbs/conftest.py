"""Shared verbs-level fixtures: two devices over one link."""

from __future__ import annotations

import pytest

from repro.common.config import ChannelConfig
from repro.common.units import KiB
from repro.stack import Link, build_link
from repro.verbs.cq import CompletionQueue


def cq(link: Link, name: str = "cq") -> CompletionQueue:
    return CompletionQueue(link.sim, name=name)


def make_wire(
    *,
    drop: float = 0.0,
    jitter: float = 0.0,
    bandwidth_bps: float = 100e9,
    distance_km: float = 10.0,
    mtu: int = 4 * KiB,
    seed: int = 0,
) -> Link:
    channel = ChannelConfig(
        bandwidth_bps=bandwidth_bps,
        distance_km=distance_km,
        mtu_bytes=mtu,
        drop_probability=drop,
        jitter_fraction=jitter,
    )
    return build_link(channel, seed=seed, names=("a", "b"))


@pytest.fixture
def wire() -> Link:
    return make_wire()
