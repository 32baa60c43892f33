"""Reed-Solomon and XOR erasure codes: roundtrips, tolerances, registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError, DecodeFailure
from repro.ec import ReedSolomonCode, XorCode, get_codec
from repro.ec import reed_solomon
from repro.ec.codec import register_codec


def random_data(k, chunk_bytes, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(k, chunk_bytes), dtype=np.uint8)


def coded_chunks(code, data):
    parity = code.encode(data)
    return {i: data[i] for i in range(code.k)} | {
        code.k + i: parity[i] for i in range(code.m)
    }


class TestReedSolomon:
    def test_no_loss_roundtrip(self):
        code = ReedSolomonCode(6, 3)
        data = random_data(6, 128)
        assert np.array_equal(code.decode(coded_chunks(code, data)), data)

    @pytest.mark.parametrize(
        "losses",
        [
            (0,), (5,), (6,),            # single data / parity losses
            (0, 1, 2),                    # burst of data chunks
            (0, 4, 7),                    # mixed data + parity
            (6, 7, 8),                    # all parity lost
        ],
    )
    def test_recovers_up_to_m_losses(self, losses):
        code = ReedSolomonCode(6, 3)
        data = random_data(6, 64, seed=1)
        chunks = coded_chunks(code, data)
        for idx in losses:
            del chunks[idx]
        assert np.array_equal(code.decode(chunks), data)

    def test_fails_beyond_m_losses(self):
        code = ReedSolomonCode(6, 3)
        data = random_data(6, 64, seed=2)
        chunks = coded_chunks(code, data)
        for idx in (0, 1, 2, 3):
            del chunks[idx]
        with pytest.raises(DecodeFailure):
            code.decode(chunks)

    def test_recoverable_predicate(self):
        code = ReedSolomonCode(4, 2)
        ok = np.ones(6, dtype=bool)
        assert code.recoverable(ok)
        ok[:2] = False
        assert code.recoverable(ok)
        ok[2] = False
        assert not code.recoverable(ok)

    def test_odd_chunk_size_fallback_path(self):
        code = ReedSolomonCode(4, 2)
        data = random_data(4, 101, seed=3)
        chunks = coded_chunks(code, data)
        del chunks[1]
        assert np.array_equal(code.decode(chunks), data)

    def test_all_data_lost_decodes_from_parity_alone(self):
        # No survivor rows: the solve matrix is the e x e inverse alone.
        code = ReedSolomonCode(3, 4)
        data = random_data(3, 33, seed=4)
        chunks = coded_chunks(code, data)
        for idx in (0, 1, 2, 4):
            del chunks[idx]
        assert np.array_equal(code.decode(chunks), data)

    def test_generator_is_systematic(self):
        code = ReedSolomonCode(8, 4)
        assert np.array_equal(
            code.generator[:8], np.eye(8, dtype=np.uint8)
        )

    def test_a_generator_that_is_not_systematic_is_refused(self, monkeypatch):
        # An inverse that is not one leaves V[:k] @ inv != I on top.
        monkeypatch.setattr(reed_solomon, "gf_mat_inv", lambda m: np.eye(len(m), dtype=np.uint8))
        with pytest.raises(ConfigError, match="systematic construction failed"):
            ReedSolomonCode(4, 2)


class TestXor:
    def test_roundtrip_no_loss(self):
        code = XorCode(8, 4)
        data = random_data(8, 64, seed=4)
        assert np.array_equal(code.decode(coded_chunks(code, data)), data)

    def test_one_loss_per_group_recovered(self):
        code = XorCode(8, 4)  # groups {0,4}, {1,5}, {2,6}, {3,7}
        data = random_data(8, 64, seed=5)
        chunks = coded_chunks(code, data)
        for idx in (0, 1, 6, 7):  # one per group
            del chunks[idx]
        assert np.array_equal(code.decode(chunks), data)

    def test_two_losses_in_group_fail(self):
        code = XorCode(8, 4)
        data = random_data(8, 64, seed=6)
        chunks = coded_chunks(code, data)
        del chunks[0]
        del chunks[4]  # same modulo group
        with pytest.raises(DecodeFailure) as exc:
            code.decode(chunks)
        assert set(exc.value.failed_submessages) == {0, 4}

    def test_data_loss_with_parity_loss_fails(self):
        code = XorCode(8, 4)
        data = random_data(8, 64, seed=7)
        chunks = coded_chunks(code, data)
        del chunks[0]       # data in group 0
        del chunks[8 + 0]   # parity of group 0
        with pytest.raises(DecodeFailure):
            code.decode(chunks)

    def test_parity_only_loss_is_fine(self):
        code = XorCode(8, 4)
        data = random_data(8, 64, seed=8)
        chunks = coded_chunks(code, data)
        for i in range(4):
            del chunks[8 + i]
        assert np.array_equal(code.decode(chunks), data)

    def test_recoverable_predicate_matches_decode(self):
        code = XorCode(4, 2)
        data = random_data(4, 16, seed=9)
        rng = np.random.default_rng(10)
        for _ in range(50):
            present = rng.random(6) > 0.35
            chunks = coded_chunks(code, data)
            for idx in np.flatnonzero(~present):
                del chunks[int(idx)]
            if code.recoverable(present):
                assert np.array_equal(code.decode(chunks), data)
            else:
                with pytest.raises(DecodeFailure):
                    code.decode(chunks)

    def test_k_must_be_multiple_of_m(self):
        with pytest.raises(ConfigError):
            XorCode(7, 3)


class TestCodecInterface:
    def test_registry(self):
        assert isinstance(get_codec("mds", 4, 2), ReedSolomonCode)
        assert isinstance(get_codec("rs", 4, 2), ReedSolomonCode)
        assert isinstance(get_codec("XOR", 4, 2), XorCode)
        with pytest.raises(ConfigError):
            get_codec("fountain", 4, 2)
        # Re-registering the *same* factory is an idempotent no-op (module
        # re-imports must not explode)...
        register_codec("mds", ReedSolomonCode)
        assert isinstance(get_codec("mds", 4, 2), ReedSolomonCode)
        # ...but silently replacing a name with a different factory is not.
        with pytest.raises(ConfigError):
            register_codec("mds", XorCode)

    def test_stats_accumulate(self):
        code = get_codec("mds", 4, 2)
        data = random_data(4, 32, seed=11)
        code.encode(data)
        assert code.stats.encode_calls == 1
        assert code.stats.encode_bytes == data.nbytes
        assert code.stats.encode_seconds > 0
        chunks = coded_chunks(code, data)
        del chunks[0]
        del chunks[1]
        del chunks[2]  # 3 losses > m=2
        with pytest.raises(DecodeFailure):
            code.decode(chunks)
        assert code.stats.decode_failures == 1
        # A failed decode is a call, not bytes or seconds.
        assert code.stats.decode_calls == 1
        assert code.stats.decode_bytes == 0
        assert code.stats.decode_seconds == 0.0
        chunks[2] = data[2]
        assert np.array_equal(code.decode(chunks), data)
        assert code.stats.decode_calls == 2
        assert code.stats.decode_bytes == data.nbytes
        assert code.stats.decode_seconds > 0

    def test_shape_validation(self):
        code = get_codec("mds", 4, 2)
        with pytest.raises(ConfigError):
            code.encode(np.zeros((3, 8), np.uint8))
        with pytest.raises(ConfigError):
            code.decode({0: np.zeros(4, np.uint8), 1: np.zeros(8, np.uint8)})
        with pytest.raises(ConfigError):
            code.decode({99: np.zeros(4, np.uint8)})
        with pytest.raises(DecodeFailure):
            code.decode({})

    def test_invalid_geometry(self):
        with pytest.raises(ConfigError):
            get_codec("mds", 0, 2)
        with pytest.raises(ConfigError):
            get_codec("mds", -1, 2)
        with pytest.raises(ConfigError):
            get_codec("mds", 4, 0)
        with pytest.raises(ConfigError):
            get_codec("mds", 4, -2)
        with pytest.raises(ConfigError):
            get_codec("mds", 250, 50)  # k + m > 256

    def test_reed_solomon_needs_255_symbols(self):
        # The base class admits k + m = 256, but RS Vandermonde bases are
        # nonzero GF(256) elements -- only 255 exist.
        with pytest.raises(ConfigError, match="255"):
            ReedSolomonCode(200, 56)
        assert ReedSolomonCode(200, 55).k == 200

    def test_decode_rejects_mismatched_chunk_sizes(self):
        code = get_codec("mds", 4, 2)
        data = random_data(4, 32, seed=13)
        chunks = coded_chunks(code, data)
        chunks[2] = np.zeros(16, np.uint8)  # wrong chunk_bytes
        with pytest.raises(ConfigError):
            code.decode(chunks)

    @pytest.mark.parametrize("codec, k, m", [("mds", 4, 2), ("xor", 4, 2), ("rs2d", 16, 8)])
    def test_a_presence_vector_must_cover_every_coded_chunk(self, codec, k, m):
        code = get_codec(codec, k, m)
        assert code.recoverable(np.ones(k + m, dtype=bool))
        with pytest.raises(ConfigError, match=f"presence vector must have {k + m} entries"):
            code.recoverable(np.ones(k + m - 1, dtype=bool))

    def test_decode_rejects_out_of_range_index(self):
        code = get_codec("mds", 4, 2)
        with pytest.raises(ConfigError, match="out of range"):
            code.decode({6: np.zeros(32, np.uint8)})


@settings(max_examples=30, deadline=None)
@given(
    codec=st.sampled_from(["mds", "xor"]),
    k_groups=st.integers(1, 4),
    m=st.integers(1, 4),
    chunk_bytes=st.sampled_from([2, 16, 64]),
    seed=st.integers(0, 10_000),
)
def test_property_roundtrip_under_recoverable_loss(
    codec, k_groups, m, chunk_bytes, seed
):
    """Random recoverable loss patterns always decode to the original."""
    k = k_groups * m
    code = get_codec(codec, k, m)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=(k, chunk_bytes), dtype=np.uint8)
    chunks = coded_chunks(code, data)
    present = np.ones(k + m, dtype=bool)
    # Drop random chunks while staying recoverable.
    order = rng.permutation(k + m)
    for idx in order[:m]:
        trial = present.copy()
        trial[idx] = False
        if code.recoverable(trial):
            present = trial
    for idx in np.flatnonzero(~present):
        del chunks[int(idx)]
    assert np.array_equal(code.decode(chunks), data)
