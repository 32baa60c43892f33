"""Protocol-level fixtures: SR and EC endpoint pairs."""

from __future__ import annotations

import numpy as np

from repro.reliability.ec import EcConfig, EcReceiver, EcSender
from repro.reliability.sampling import (
    SamplingConfig,
    SamplingReceiver,
    SamplingSender,
)
from repro.reliability.sr import SrConfig, SrReceiver, SrSender
from repro.stack import endpoints

from tests.conftest import SdrPair, make_sdr_pair


def _make(scheme, default, *, drop=0.0, config=None, seed=0, **pair_kw):
    pair = make_sdr_pair(drop=drop, seed=seed, **pair_kw)
    return (pair, *endpoints(scheme, pair, config if config is not None else default))


def make_sr(**kw) -> tuple[SdrPair, SrSender, SrReceiver]:
    return _make("sr", SrConfig(), **kw)


def make_ec(*, inflight: int = 64, **kw) -> tuple[SdrPair, EcSender, EcReceiver]:
    return _make("ec", EcConfig(k=8, m=4), inflight=inflight, **kw)


def make_sampling(**kw) -> tuple[SdrPair, SamplingSender, SamplingReceiver]:
    return _make("sampling", SamplingConfig(), **kw)


def random_payload(size: int, seed: int = 0) -> bytes:
    return np.random.default_rng(seed).integers(
        0, 256, size, dtype=np.uint8
    ).tobytes()
