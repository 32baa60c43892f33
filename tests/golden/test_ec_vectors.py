"""Cross-commit wire bytes: replay pinned erasure-codec test vectors.

``trace_digests.json`` hashes traces and the registry, never payload, so a
codec change that moved one parity byte -- and every peer still decoding
with the old generator with it -- would pass it.  This file pins, per
case, the sha256 of the input, of the parity and of the decoded output in
``ec_vectors.json``, recorded on the commit *before* a codec change and
replayed after it (the Animica ERASURE rule: all writers use the same
generator matrix, proven by committed test vectors).

The ``scheme_cases`` section pins the EC *scheme* the same way: one write
through ``EcSender`` / ``EcReceiver`` in payload mode, hashing every parity
scratch MR the receiver registered and the receive buffer after decode, on
a lossless link and on a lossy one whose seed forces a parity decode.

Inputs come from integer arithmetic (splitmix64), not a NumPy generator,
so the vectors do not depend on a NumPy stream staying stable.  Regenerate
(``PYTHONPATH=src python tests/golden/test_ec_vectors.py <commit>``) only
in a PR that declares a wire-format change.
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.common.config import ChannelConfig, SdrConfig
from repro.common.units import KiB
from repro.ec import ReedSolomonCode, SegmentedCode, get_codec
from repro.reliability.ec import EcConfig
from repro.stack import build_pair, endpoints

GOLDEN = Path(__file__).with_name("ec_vectors.json")


def vector_bytes(n: int, seed: int) -> np.ndarray:
    """``n`` reproducible bytes: the top byte of splitmix64(seed, index)."""
    z = (np.arange(n, dtype=np.uint64) + np.uint64(seed << 32)) * np.uint64(
        0x9E3779B97F4A7C15
    )
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return ((z ^ (z >> np.uint64(31))) >> np.uint64(56)).astype(np.uint8)


def _sha(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _block(codec_name: str, k: int, m: int, chunk_bytes: int, lost, seed: int) -> dict:
    """Encode one (k, chunk_bytes) block, erase ``lost``, decode the rest."""
    code = get_codec(codec_name, k, m)
    data = vector_bytes(k * chunk_bytes, seed).reshape(k, chunk_bytes)
    parity = code.encode(data)
    chunks = {i: data[i] for i in range(k) if i not in lost}
    chunks.update({k + j: parity[j] for j in range(code.m) if k + j not in lost})
    decoded = code.decode(chunks)
    return {
        "data_sha256": _sha(data.tobytes()),
        "parity_sha256": _sha(np.ascontiguousarray(parity).tobytes()),
        "decoded_sha256": _sha(np.ascontiguousarray(decoded).tobytes()),
    }


def _segmented() -> dict:
    """A 5-segment message with a partial tail; each segment loses its
    first data chunk and its last parity chunk."""
    code = SegmentedCode(ReedSolomonCode(4, 2), chunk_bytes=24)
    length = 427
    payload = vector_bytes(length, seed=5).tobytes()
    layout = code.layout(length)
    chunks: dict[int, np.ndarray] = {}
    parity_hash = hashlib.sha256()
    for seg, parity in code.iter_encode(payload, length):
        parity_hash.update(np.ascontiguousarray(parity).tobytes())
        start, real = layout.chunk_range(seg)
        data = code.segment_data(payload, layout, seg)
        for j in range(1, real):
            chunks[start + j] = data[j]
        for j in range(layout.m - 1):
            chunks[layout.nchunks + seg * layout.m + j] = parity[j]
    return {
        "data_sha256": _sha(payload),
        "parity_sha256": parity_hash.hexdigest(),
        "decoded_sha256": _sha(code.decode(length, chunks)),
    }


CASES = {
    # The benchmark's shape: one 8-row lane block, four erased data chunks.
    "mds_32_8_16KiB_4_erasures": lambda: _block(
        "mds", 32, 8, 16 * KiB, lost=(1, 9, 17, 25), seed=1
    ),
    # Odd chunk length; one data and one parity chunk lost.
    "mds_4_2_101B_odd": lambda: _block("mds", 4, 2, 101, lost=(1, 5), seed=2),
    # m = 11 and ten erasures: both encode and decode cross a lane block.
    "mds_12_11_64B_10_erasures": lambda: _block(
        "mds", 12, 11, 64, lost=(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13), seed=3
    ),
    "rs2d_16_8_4KiB_lost_0_5": lambda: _block(
        "rs2d", 16, 8, 4 * KiB, lost=(0, 5), seed=4
    ),
    "segmented_mds_4_2_24B_427B": _segmented,
}


def _scheme(codec_name: str, nbytes: int, drop: float, seed: int) -> dict:
    """One (k=4, m=2) EC write of ``nbytes`` over 1 KiB chunks / 512 B MTU."""
    channel = ChannelConfig(
        bandwidth_bps=10e9, distance_km=100.0, mtu_bytes=512,
        drop_probability=drop,
    )
    sdr = SdrConfig(
        chunk_bytes=1 * KiB, mtu_bytes=512, max_message_bytes=64 * KiB,
        channels=2,
    )
    stack = build_pair(channel, sdr, seed=seed)
    sender, receiver = endpoints("ec", stack, EcConfig(codec=codec_name, k=4, m=2))
    payload = vector_bytes(nbytes, seed=9).tobytes()
    buf = bytearray(nbytes)
    rx = receiver.post_receive(stack.ctx_b.mr_reg(nbytes, data=buf), nbytes)
    stack.sim.run(sender.write(nbytes, payload).done)
    parity = rx.recv_handles[len(rx.recv_handles) // 2 :]
    return {
        "data_sha256": _sha(payload),
        "parity_sha256": [_sha(bytes(h.mr.data)) for h in parity],
        "decoded_sha256": _sha(bytes(buf)),
        "decoded_chunks": rx.decoded_chunks,
    }


#: Under one chunk, a partial tail segment, and an exact multiple of k
#: chunks; each lossy seed is one that makes the receiver decode.
SCHEME_CASES = {
    f"{codec}_{nbytes}B_{link}": partial(_scheme, codec, nbytes, drop, seed)
    for codec in ("mds", "xor")
    for nbytes, lossy_seed in ((700, 13), (6444, 0), (8192, 0))
    for link, drop, seed in (("lossless", 0.0, 0), ("lossy", 0.1, lossy_seed))
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_vectors_match_the_recorded_commit(name):
    recorded = json.loads(GOLDEN.read_text())["cases"]
    assert CASES[name]() == recorded[name]


@pytest.mark.parametrize("name", sorted(SCHEME_CASES))
def test_scheme_vectors_match_the_recorded_commit(name):
    recorded = json.loads(GOLDEN.read_text())["scheme_cases"]
    assert SCHEME_CASES[name]() == recorded[name]


def test_every_case_is_recorded():
    recorded = json.loads(GOLDEN.read_text())
    assert sorted(recorded["cases"]) == sorted(CASES)
    assert sorted(recorded["scheme_cases"]) == sorted(SCHEME_CASES)


def test_decoded_vectors_are_the_input():
    """The pinned decode hash is the input hash: the vectors pin a correct
    codec, not merely an unchanged one."""
    recorded = json.loads(GOLDEN.read_text())
    for name, case in {**recorded["cases"], **recorded["scheme_cases"]}.items():
        assert case["decoded_sha256"] == case["data_sha256"], name


def test_lossy_scheme_vectors_decode():
    """Every lossy scheme case pins bytes the receiver rebuilt from parity."""
    for name, case in json.loads(GOLDEN.read_text())["scheme_cases"].items():
        assert (case["decoded_chunks"] > 0) == name.endswith("_lossy"), name


if __name__ == "__main__":
    payload = {
        "note": (
            "sha256 of input, parity and decoded bytes per codec case "
            "(scheme_cases: per parity scratch MR and receive buffer of one "
            "EC write); regenerate only in a PR that declares a wire-format "
            "change"
        ),
        "recorded_at": sys.argv[1] if len(sys.argv) > 1 else "unknown",
        "cases": {name: CASES[name]() for name in sorted(CASES)},
        "scheme_cases": {
            name: SCHEME_CASES[name]() for name in sorted(SCHEME_CASES)
        },
    }
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
