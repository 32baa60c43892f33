"""Availability-sampling math: the edges of the hypergeometric model and
what it refuses.  The values in between are pinned by
tests/golden/test_model_vectors.py."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.ec.sampling import draw_probes, miss_probability


class TestMissProbability:
    def test_a_zero_gap_is_never_detected_however_many_probes(self):
        assert miss_probability(4, 0, 9) == 1.0
        assert miss_probability(4, 0, 4) == 1.0

    def test_more_probes_than_present_chunks_always_detect(self):
        assert miss_probability(4, 1, 4) == 0.0

    @pytest.mark.parametrize(
        "population, missing, probes, message",
        [
            (0, 0, 1, "population must be > 0, got 0"),
            (4, 5, 1, r"missing must be in \[0, 4\], got 5"),
            (4, -1, 1, r"missing must be in \[0, 4\], got -1"),
            (4, 1, -1, "probes must be >= 0, got -1"),
        ],
    )
    def test_refusals(self, population, missing, probes, message):
        with pytest.raises(ConfigError, match=message):
            miss_probability(population, missing, probes)


class TestDrawProbes:
    def test_probing_the_whole_population_probes_each_chunk_once(self):
        rng = np.random.default_rng(0)
        assert draw_probes(rng, 5, 9).tolist() == [0, 1, 2, 3, 4]
        probes = draw_probes(rng, 100, 7)
        assert len(set(probes.tolist())) == 7 and probes.max() < 100

    @pytest.mark.parametrize(
        "population, probes, message",
        [(0, 1, "population must be > 0, got 0"), (4, 0, "probes must be > 0, got 0")],
    )
    def test_refusals(self, population, probes, message):
        with pytest.raises(ConfigError, match=message):
            draw_probes(np.random.default_rng(0), population, probes)
