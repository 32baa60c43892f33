"""``Bitmap`` against the NumPy-backed bitmap it replaced.

The bits used to live in a ``uint8`` array, one byte per 8 bits, set and
tested through NumPy scalar ops; they now live in one Python ``int``.
``NumpyBitmap`` below is the old class verbatim.  Hypothesis drives both
with the same random operation sequences and compares every return value,
every raised ``IndexError`` and, after every step, every query, including
the wire bytes of any window.  Indices are drawn as Python and NumPy
integers: ``1 << np.int64(70)`` wraps where ``1 << 70`` does not.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bitmap import Bitmap

_BIT_MASKS = np.left_shift(np.uint8(1), np.arange(8, dtype=np.uint8))


class NumpyBitmap:
    """The ``uint8``-array bitmap, as it was before it became an ``int``."""

    __slots__ = ("_bits", "_nbits", "_nset")

    def __init__(self, nbits: int):
        if nbits <= 0:
            raise ValueError(f"bitmap must have at least 1 bit, got {nbits}")
        self._nbits = int(nbits)
        self._bits = np.zeros((self._nbits + 7) // 8, dtype=np.uint8)
        self._nset = 0

    def set(self, index):
        self._check(index)
        byte, mask = index >> 3, _BIT_MASKS[index & 7]
        if self._bits[byte] & mask:
            return False
        self._bits[byte] |= mask
        self._nset += 1
        return True

    def reset(self):
        self._bits[:] = 0
        self._nset = 0

    def __len__(self):
        return self._nbits

    def count(self):
        return self._nset

    def all_set(self):
        return self._nset == self._nbits

    def missing(self):
        unpacked = np.unpackbits(self._bits, bitorder="little")[: self._nbits]
        return np.flatnonzero(unpacked == 0)

    def cumulative(self):
        if self._nset == self._nbits:
            return self._nbits
        raw = self._bits.tobytes()
        full = len(raw) - len(raw.lstrip(b"\xff"))
        byte = raw[full]
        return 8 * full + (~byte & (byte + 1)).bit_length() - 1

    def as_array(self):
        return np.unpackbits(self._bits, bitorder="little")[: self._nbits].astype(bool)

    def to_bytes(self, start_bit=0, max_bytes=None):
        if start_bit < 0 or start_bit > self._nbits:
            raise IndexError(f"start_bit {start_bit} out of range")
        first = start_bit >> 3
        window = self._bits[first:]
        if max_bytes is not None:
            window = window[:max_bytes]
        return window.tobytes()

    def _check(self, index):
        if not 0 <= index < self._nbits:
            raise IndexError(f"bit {index} out of range [0, {self._nbits})")


def _outcome(fn, *args):
    """A call's return value, or the fact that it raised ``IndexError``."""
    try:
        out = fn(*args)
    except IndexError:
        return IndexError
    if isinstance(out, np.ndarray):
        return (out.dtype.kind, out.tolist())
    return out


def _assert_same(new: Bitmap, old: NumpyBitmap, windows) -> None:
    assert len(new) == len(old)
    for query in ("count", "all_set", "cumulative", "as_array", "missing"):
        assert _outcome(getattr(new, query)) == _outcome(getattr(old, query)), query
    assert new.to_bytes() == old.to_bytes()
    for start, max_bytes in windows:
        assert _outcome(new.to_bytes, start, max_bytes) == _outcome(
            old.to_bytes, start, max_bytes
        ), (start, max_bytes)


def _index(nbits):
    """An index a little outside the map too, as an ``int`` or NumPy int."""
    raw = st.integers(-2, nbits + 2)
    return st.one_of(raw, raw.map(np.int64), raw.map(np.int32))


@st.composite
def _ops(draw, nbits):
    op = draw(st.sampled_from(["set", "set", "set", "reset"]))
    if op == "reset":
        return (op,)
    return op, draw(_index(nbits))


@st.composite
def _windows(draw, nbits):
    start = st.integers(-1, nbits + 1)
    max_bytes = st.one_of(st.none(), st.integers(0, (nbits + 7) // 8 + 1))
    return draw(st.lists(st.tuples(start, max_bytes), min_size=1, max_size=4))


@settings(max_examples=200, deadline=None)
@given(nbits=st.integers(1, 300), data=st.data())
def test_random_op_sequences_match_the_numpy_bitmap(nbits, data):
    new, old = Bitmap(nbits), NumpyBitmap(nbits)
    # A solid prefix first, sometimes: whole 0xff bytes are where
    # ``cumulative`` and the window encoder differ most in shape.
    prefix = data.draw(st.integers(0, nbits))
    for i in range(prefix):
        assert new.set(i) and old.set(i)
    for op, *args in data.draw(st.lists(_ops(nbits), max_size=40)):
        assert _outcome(getattr(new, op), *args) == _outcome(getattr(old, op), *args)
        _assert_same(new, old, data.draw(_windows(nbits)))


def test_a_numpy_index_past_bit_63_sets_that_bit():
    new, old = Bitmap(100), NumpyBitmap(100)
    assert new.set(np.int64(70)) and old.set(np.int64(70))
    _assert_same(new, old, [(64, 2)])
    assert np.flatnonzero(new.as_array()).tolist() == [70]
