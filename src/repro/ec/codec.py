"""Common erasure-code interface and registry.

An :class:`ErasureCode` turns ``k`` data chunks into ``m`` parity chunks and
recovers the data from any sufficient subset of the ``k + m`` coded chunks.
Chunks are equal-length uint8 NumPy arrays; the EC reliability layer maps
them one-to-one onto SDR bitmap chunks (Section 4.1.2 of the paper).

``get_codec("mds", k, m)`` / ``get_codec("xor", k, m)`` construct the two
codes the paper evaluates.
"""

from __future__ import annotations

import abc
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.common import Registry
from repro.common.errors import ConfigError, DecodeFailure


@dataclass
class CodecStats:
    """Cumulative encode/decode accounting (drives the Figure 11 bench)."""

    encode_calls: int = 0
    encode_bytes: int = 0
    encode_seconds: float = 0.0
    decode_calls: int = 0
    decode_failures: int = 0
    #: Data bytes and host seconds of the decodes that succeeded (a failed
    #: decode moves ``decode_calls`` and ``decode_failures`` only).
    decode_bytes: int = 0
    decode_seconds: float = 0.0

    @property
    def encode_throughput_bps(self) -> float:
        """Encoding throughput in bits/s of *data* processed."""
        if self.encode_seconds <= 0:
            return 0.0
        return self.encode_bytes * 8.0 / self.encode_seconds

    @property
    def decode_throughput_bps(self) -> float:
        """Decoding throughput in bits/s of *data* recovered."""
        if self.decode_seconds <= 0:
            return 0.0
        return self.decode_bytes * 8.0 / self.decode_seconds


class ErasureCode(abc.ABC):
    """A (k, m) erasure code over equal-sized byte chunks."""

    #: Upper bound on ``k + m`` (the GF(256) symbol space).  Product codes
    #: that compose per-axis GF(256) codes (e.g. :class:`~repro.ec.rs2d.
    #: Rs2dCode`) validate each axis separately and set this to ``None``.
    max_total_chunks: int | None = 256

    def __init__(self, k: int, m: int):
        if k <= 0 or m <= 0:
            raise ConfigError(f"need k > 0 and m > 0, got k={k}, m={m}")
        limit = self.max_total_chunks
        if limit is not None and k + m > limit:
            raise ConfigError(
                f"k + m must be <= {limit} for GF(256) codes, got {k + m}"
            )
        self.k = k
        self.m = m
        self.stats = CodecStats()

    # -- mandatory interface -------------------------------------------------------

    @abc.abstractmethod
    def _encode(self, data: np.ndarray) -> np.ndarray:
        """Compute the (m, chunk_bytes) parity array for (k, chunk_bytes) data."""

    @abc.abstractmethod
    def _decode(
        self, chunks: dict[int, np.ndarray], chunk_bytes: int
    ) -> np.ndarray:
        """Recover the (k, chunk_bytes) data from available coded chunks.

        ``chunks`` maps coded-chunk index (0..k-1 data, k..k+m-1 parity) to
        its bytes.  Raises :class:`DecodeFailure` when unrecoverable.
        """

    @abc.abstractmethod
    def recoverable(self, present: np.ndarray) -> bool:
        """Whether a boolean presence vector of length k+m is decodable."""

    # -- public wrappers (validation + accounting) ----------------------------------

    @property
    def parity_ratio(self) -> float:
        """The paper's R = k/m."""
        return self.k / self.m

    @property
    def rate(self) -> float:
        """Code rate k / (k + m): fraction of wire bytes carrying data."""
        return self.k / (self.k + self.m)

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Parity chunks for a (k, chunk_bytes) uint8 data array."""
        data = np.ascontiguousarray(data, dtype=np.uint8)
        if data.ndim != 2 or data.shape[0] != self.k:
            raise ConfigError(
                f"expected ({self.k}, chunk_bytes) data array, got {data.shape}"
            )
        start = time.perf_counter()
        parity = self._encode(data)
        self.stats.encode_seconds += time.perf_counter() - start
        self.stats.encode_calls += 1
        self.stats.encode_bytes += data.nbytes
        return parity

    def decode(self, chunks: dict[int, np.ndarray]) -> np.ndarray:
        """Recover the k data chunks from available coded chunks."""
        if not chunks:
            raise DecodeFailure("no chunks available")
        sizes = {c.shape[-1] for c in chunks.values()}
        if len(sizes) != 1:
            raise ConfigError(f"chunk sizes differ: {sorted(sizes)}")
        for idx in chunks:
            if not 0 <= idx < self.k + self.m:
                raise ConfigError(
                    f"coded chunk index {idx} out of range "
                    f"[0, {self.k + self.m})"
                )
        self.stats.decode_calls += 1
        start = time.perf_counter()
        try:
            data = self._decode(chunks, sizes.pop())
        except DecodeFailure:
            self.stats.decode_failures += 1
            raise
        self.stats.decode_seconds += time.perf_counter() - start
        self.stats.decode_bytes += data.nbytes
        return data

    def __repr__(self) -> str:
        return f"{type(self).__name__}(k={self.k}, m={self.m})"


#: Codec factories by lower-case name; a built-in registers when its module
#: is imported, at the latest by the first lookup of its name.
_REGISTRY: Registry = Registry({
    "mds": "repro.ec.reed_solomon",
    "rs": "repro.ec.reed_solomon",
    "xor": "repro.ec.xor_code",
    "rs2d": "repro.ec.rs2d",
})


def register_codec(name: str, factory: Callable[[int, int], ErasureCode]) -> None:
    """Register an erasure-code implementation under ``name``.

    Re-registering the *same* factory is a no-op (module reloads are
    harmless); binding an existing name to a different factory raises, so a
    codec can never be silently replaced.
    """
    key = name.lower()
    existing = _REGISTRY.get(key)
    if existing is not None:
        if existing is factory:
            return
        raise ConfigError(f"codec {name!r} already registered")
    _REGISTRY[key] = factory


def get_codec(name: str, k: int, m: int) -> ErasureCode:
    """Construct a registered codec, e.g. ``get_codec("mds", 32, 8)``."""
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown codec {name!r}; available: {_REGISTRY.names()}"
        ) from None
    return factory(k, m)
