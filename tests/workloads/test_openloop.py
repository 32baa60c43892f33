"""Open-loop multi-tenant workload generator."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.units import KiB, MiB
from repro.sim.rng import RngStreams
from repro.workloads.openloop import OpenLoopConfig, generate


def cfg(**kw):
    defaults = dict(
        tenants=50,
        duration=0.1,
        offered_load_bps=10e9,
        mean_message_bytes=32 * KiB,
    )
    defaults.update(kw)
    return OpenLoopConfig(**defaults)



def schedule(wl) -> tuple[bytes, bytes, bytes]:
    """A workload's arrival times, tenants and sizes, bit for bit."""
    return wl.times.tobytes(), wl.tenants.tobytes(), wl.sizes.tobytes()

class TestGenerate:
    def test_schedule_shape(self):
        wl = generate(cfg())
        assert len(wl.times) == len(wl.tenants) == len(wl.sizes)
        assert (np.diff(wl.times) >= 0).all()  # time-sorted
        assert (wl.times < 0.1).all()
        assert (wl.times >= 0).all()
        assert wl.tenants.min() >= 0
        assert wl.tenants.max() < 50
        assert len(wl.tenant_rates_bps) == 50

    def test_message_count_near_expectation(self):
        c = cfg()
        wl = generate(c)
        expected = c.offered_load_bps / 8.0 * c.duration / c.mean_message_bytes
        assert len(wl) == pytest.approx(expected, rel=0.15)

    def test_mean_size_near_target(self):
        wl = generate(cfg(tenants=10, offered_load_bps=40e9))
        # Truncation biases the Pareto mean down somewhat; the order of
        # magnitude must hold.
        assert wl.sizes.mean() == pytest.approx(32 * KiB, rel=0.35)
        assert wl.sizes.min() >= 256
        assert wl.sizes.max() <= 8 * MiB

    def test_heavy_tail_present(self):
        wl = generate(cfg(tenants=10, offered_load_bps=40e9))
        # Pareto(1.5): the largest draw dwarfs the median.
        assert wl.sizes.max() > 10 * np.median(wl.sizes)

    def test_lognormal_and_fixed_families(self):
        log = generate(cfg(size_dist="lognormal"))
        assert log.sizes.std() > 0
        fixed = generate(cfg(size_dist="fixed"))
        assert (fixed.sizes == 32 * KiB).all()

    def test_rate_skew_concentrates_load(self):
        equal = generate(cfg(rate_skew=0.0))
        skewed = generate(cfg(rate_skew=1.2))
        assert np.allclose(
            equal.tenant_rates_bps, equal.tenant_rates_bps[0]
        )
        top = np.sort(skewed.tenant_rates_bps)[-5:].sum()
        assert top > 0.3 * skewed.tenant_rates_bps.sum()


class TestDeterminism:
    def test_same_seed_same_digest(self):
        a = generate(cfg(), seed=3)
        b = generate(cfg(), seed=3)
        assert schedule(a) == schedule(b)

    def test_different_seed_different_digest(self):
        assert schedule(generate(cfg(), seed=0)) != schedule(generate(cfg(), seed=1))

    def test_streams_equivalent_to_seed(self):
        via_seed = generate(cfg(), seed=9)
        via_streams = generate(cfg(), streams=RngStreams(9))
        assert schedule(via_seed) == schedule(via_streams)

    def test_substreams_are_isolated(self):
        # Drawing from an unrelated named substream first must not shift
        # the workload (the RngStreams spawn-key invariant).
        streams = RngStreams(4)
        streams.get("some.other.component").random(1000)
        perturbed = generate(cfg(), streams=streams)
        assert schedule(perturbed) == schedule(generate(cfg(), seed=4))


class TestForTenant:
    def test_subschedule_masks_one_tenant(self):
        wl = generate(cfg())
        sub = wl.for_tenant(3)
        assert (sub.tenants == 3).all()
        mask = wl.tenants == 3
        assert sub.times.tobytes() == wl.times[mask].tobytes()
        assert sub.sizes.tobytes() == wl.sizes[mask].tobytes()


def test_a_window_shorter_than_every_first_gap_is_an_empty_schedule():
    wl = generate(cfg(duration=1e-9, offered_load_bps=1e6), seed=0)
    assert (len(wl.times), len(wl.tenants), len(wl.sizes)) == (0, 0, 0)
    assert wl.tenants.dtype == np.int32


class TestValidation:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            cfg(tenants=0)
        with pytest.raises(ConfigError):
            cfg(duration=0.0)
        with pytest.raises(ConfigError):
            cfg(offered_load_bps=0.0)
        with pytest.raises(ConfigError):
            cfg(size_dist="weibull")
        with pytest.raises(ConfigError):
            cfg(max_message_bytes=1 * KiB)  # below mean
        with pytest.raises(ConfigError):
            cfg(rate_skew=-1.0)
        with pytest.raises(ConfigError):
            cfg(min_message_bytes=0)
