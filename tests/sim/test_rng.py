"""Deterministic RNG stream semantics."""

from repro.sim.rng import RngStreams


class TestStreams:
    def test_same_seed_same_draws(self):
        a = RngStreams(seed=7).get("channel")
        b = RngStreams(seed=7).get("channel")
        assert a.random(5).tolist() == b.random(5).tolist()

    def test_named_streams_are_independent(self):
        streams = RngStreams(seed=1)
        a = streams.get("drops").random(5)
        b = streams.get("jitter").random(5)
        assert a.tolist() != b.tolist()

    def test_streams_are_memoised(self):
        streams = RngStreams(seed=0)
        assert streams.get("x") is streams.get("x")

    def test_different_seeds_differ(self):
        a = RngStreams(seed=1).get("s").random(4)
        b = RngStreams(seed=2).get("s").random(4)
        assert a.tolist() != b.tolist()
