"""Cross-commit model values: replay pinned closed-form and sampling tables.

Fig 9 / 11 tables and ``AdaptiveSender``'s scheme choice read
``p_decode_mds`` to the last bit, and the sampling receiver sizes its
probe rounds from ``miss_probability``; neither is covered by
``trace_digests.json`` (no golden replay calls them) or by
``ec_vectors.json`` (wire bytes).  This file pins them in the same idiom
(the Animica DA spec ships ``erasure.json`` *and* ``availability.json``):
every float as ``float.hex()`` in ``model_vectors.json``, recorded on the
commit *before* a change to ``repro.models`` / ``repro.ec.sampling`` and
compared bit for bit after it.

The decode and completion tables run over the Fig 9 grid (message sizes x
packet drop rates at 16 packets per chunk).  ``p_decode_rs2d`` is a seeded
Monte-Carlo estimate, so its row also pins the NumPy ``default_rng``
stream.  Regenerate
(``PYTHONPATH=src python tests/golden/test_model_vectors.py <commit>``)
only in a PR that declares a model change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.common.units import distance_to_rtt
from repro.ec.sampling import miss_probability
from repro.experiments.fig09 import CHUNK, DEFAULT_DROPS, DEFAULT_SIZES, PPC
from repro.models.decode_prob import (
    p_decode_mds,
    p_decode_rs2d,
    p_decode_xor,
    p_fallback,
)
from repro.models.ec_model import ec_expected_completion
from repro.models.params import ModelParams, packet_to_chunk_drop

GOLDEN = Path(__file__).with_name("model_vectors.json")

#: (k, m) per codec: Fig 9's MDS(32, 8), Fig 11's XOR at the same point,
#: a second geometry each, and one square rs2d grid (2000 peels a point).
GEOMETRIES = {
    "mds": ((32, 8), (16, 4), (8, 8)),
    "xor": ((32, 8), (16, 4)),
    "rs2d": ((16, 8),),
}
DECODE = {"mds": p_decode_mds, "xor": p_decode_xor, "rs2d": p_decode_rs2d}
#: Fig 11's extra drop rate on top of the Fig 9 columns.
DROPS = sorted({*DEFAULT_DROPS, 5e-2})

#: Sampling table: (population, missing) rows x probe counts.
POPULATIONS = ((16, 1), (64, 1), (64, 8), (1024, 1), (1024, 32), (16384, 164))
PROBES = (0, 1, 2, 4, 8, 16, 64)


#: Fig 9's link at each packet drop rate.
PARAMS = {
    p: ModelParams(
        bandwidth_bps=400e9,
        rtt=distance_to_rtt(3750.0),
        chunk_bytes=CHUNK,
        drop_probability=packet_to_chunk_drop(p, PPC),
    )
    for p in DROPS
}


def _decode_tables() -> dict:
    return {
        f"p_decode_{codec}": {
            f"k={k},m={m},p={p:g}": fn(params.drop_probability, k, m).hex()
            for k, m in GEOMETRIES[codec]
            for p, params in PARAMS.items()
        }
        for codec, fn in DECODE.items()
    }


def _fallback_table() -> dict:
    """``p_fallback`` at every (MDS(32,8) decode probability, L) of Fig 9."""
    return {
        f"size={size},p={p:g}": p_fallback(
            p_decode_mds(params.drop_probability, 32, 8),
            -(-params.chunks_in(size) // 32),
        ).hex()
        for size in DEFAULT_SIZES
        for p, params in PARAMS.items()
    }


def _completion_table() -> dict:
    return {
        f"{codec},size={size},p={p:g}": ec_expected_completion(
            params, params.chunks_in(size), k=32, m=8, codec=codec
        ).hex()
        for codec in ("mds", "xor")
        for size in DEFAULT_SIZES
        for p, params in PARAMS.items()
    }


def _miss_table() -> dict:
    return {
        f"n={n},g={g},s={s}": miss_probability(n, g, s).hex()
        for n, g in POPULATIONS
        for s in PROBES
        if s <= n
    }


def tables() -> dict:
    return {
        **_decode_tables(),
        "p_fallback": _fallback_table(),
        "ec_expected_completion": _completion_table(),
        "miss_probability": _miss_table(),
    }


@pytest.fixture(scope="module")
def computed() -> dict:
    return tables()


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(GOLDEN.read_text())["tables"]


def test_every_table_is_recorded(computed, recorded):
    assert sorted(recorded) == sorted(computed)


@pytest.mark.parametrize(
    "table",
    [
        "p_decode_mds", "p_decode_xor", "p_decode_rs2d", "p_fallback",
        "ec_expected_completion", "miss_probability",
    ],
)
def test_values_match_the_recorded_commit_bit_for_bit(table, computed, recorded):
    assert computed[table] == recorded[table]


def test_recorded_values_are_probabilities_and_times(recorded):
    """The pinned values are sane, not merely unchanged."""
    for name in ("p_decode_mds", "p_decode_xor", "p_decode_rs2d", "p_fallback",
                 "miss_probability"):
        for key, value in recorded[name].items():
            assert 0.0 <= float.fromhex(value) <= 1.0, (name, key)
    base = PARAMS[1e-8].rtt
    for key, value in recorded["ec_expected_completion"].items():
        assert float.fromhex(value) > base, key


if __name__ == "__main__":
    payload = {
        "note": (
            "float.hex() of the App. B decode probabilities, the Sec. 4.2.3 "
            "EC completion bound over the Fig 9 grid and the sampling "
            "hypergeometric tables; regenerate only in a PR that declares "
            "a model change"
        ),
        "recorded_at": sys.argv[1] if len(sys.argv) > 1 else "unknown",
        "tables": tables(),
    }
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
