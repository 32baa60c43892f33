"""Deterministic random-number streams for reproducible simulations.

Every stochastic component (channel drops, jitter, WAN congestion, workload
generators) draws from its own named substream so that adding a component or
changing its draw count never perturbs the others -- the standard trick for
reproducible parallel stochastic simulation.
"""

from __future__ import annotations

import zlib

import numpy as np


class RngStreams:
    """A family of independent :class:`numpy.random.Generator` substreams.

    >>> streams = RngStreams(seed=42)
    >>> drops = streams.get("channel.drops")
    >>> jitter = streams.get("channel.jitter")

    Streams are memoised: asking for the same name twice returns the same
    generator instance (so a component keeps its position in the stream).
    """

    def __init__(self, seed: int = 0):
        self._seed = int(seed)
        self._root = np.random.SeedSequence(self._seed)
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the substream for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            # Stable across processes (unlike built-in hash(), which is
            # randomized by PYTHONHASHSEED) so that the same seed always
            # reproduces the same simulation.
            child = np.random.SeedSequence(
                entropy=self._root.entropy,
                spawn_key=(zlib.crc32(name.encode()) & 0x7FFFFFFF,),
            )
            gen = np.random.default_rng(child)
            self._streams[name] = gen
        return gen
