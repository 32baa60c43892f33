"""2-D row+column product code: peel patterns single-axis RS cannot."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ConfigError, DecodeFailure
from repro.ec import ReedSolomonCode, Rs2dCode, get_codec

from tests.ec.test_codecs import coded_chunks, random_data


def erase(code, data, missing):
    chunks = coded_chunks(code, data)
    for idx in missing:
        del chunks[idx]
    return chunks


class TestGeometry:
    def test_counts(self):
        code = Rs2dCode(4, 4, 2, 2)
        assert code.k == 16
        # 4 rows x 2 row-parity + 2 col-parity x 4 cols (no corner).
        assert code.m == 16

    def test_registry_factory(self):
        code = get_codec("rs2d", 16, 8)
        assert isinstance(code, Rs2dCode)
        assert (code.k_rows, code.k_cols) == (4, 4)
        assert (code.m_rows, code.m_cols) == (1, 1)

    def test_registry_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            get_codec("rs2d", 15, 8)  # k not a perfect square
        with pytest.raises(ConfigError):
            get_codec("rs2d", 16, 6)  # m not divisible by 2*sqrt(k)
        with pytest.raises(ConfigError, match="need k > 0 and m > 0, got k=0, m=8"):
            get_codec("rs2d", 0, 8)  # 0 is a perfect square: refused first

    def test_axes_validated(self):
        with pytest.raises(ConfigError):
            Rs2dCode(0, 4, 1, 1)
        with pytest.raises(ConfigError):
            Rs2dCode(4, 4, 0, 1)
        with pytest.raises(ConfigError):
            Rs2dCode(300, 4, 1, 1)  # row axis exceeds GF(256)

    def test_large_grids_allowed(self):
        # The whole point of the product construction: total symbols can
        # exceed the GF(256) bound because each axis stays under it.
        code = Rs2dCode(32, 32, 2, 2)
        assert code.k + code.m > 256


class TestPeeling:
    def test_roundtrip_no_loss(self):
        code = Rs2dCode(3, 4, 1, 2)
        data = random_data(12, 64, seed=1)
        assert np.array_equal(code.decode(coded_chunks(code, data)), data)

    def test_pattern_unrecoverable_per_axis_but_peels(self):
        """The pinned acceptance pattern: 2-D recovers what 1-D RS cannot.

        On a 4x4 grid with one parity per row and per column, erase data
        (0,0), (0,1), (1,0): row 0 lost two chunks (> m_cols = 1) and
        column 0 lost two chunks (> m_rows = 1), so neither a row-only nor
        a column-only RS pass recovers.  Peeling does: row 1 fixes (1,0),
        then column 0 fixes (0,0), then row 0 fixes (0,1).
        """
        code = Rs2dCode(4, 4, 1, 1)
        data = random_data(16, 32, seed=2)
        missing = [code.data_index(0, 0), code.data_index(0, 1),
                   code.data_index(1, 0)]

        # Single-axis view: a flat RS(4, 1) row code cannot fix row 0.
        row_rs = ReedSolomonCode(4, 1)
        row0 = np.ascontiguousarray(data[0:4])
        row_chunks = coded_chunks(row_rs, row0)
        del row_chunks[0]
        del row_chunks[1]
        with pytest.raises(DecodeFailure):
            row_rs.decode(row_chunks)

        # Column-only is equally stuck...
        present = np.ones(code.k + code.m, dtype=bool)
        present[missing] = False
        col_only = Rs2dCode(4, 4, 1, 1)
        assert not col_only.col_code.recoverable(
            np.array([present[code.data_index(r, 0)] for r in range(4)]
                     + [present[code.col_parity_index(0, 0)]])
        )

        # ...but the alternating peel recovers everything.
        assert code.recoverable(present)
        got = code.decode(erase(code, data, missing))
        assert np.array_equal(got, data)

    def test_checkerboard_beyond_single_pass(self):
        # A 2x2 block of losses needs two full row/col alternations.
        code = Rs2dCode(4, 4, 1, 1)
        data = random_data(16, 16, seed=3)
        missing = [code.data_index(r, c) for r in (0, 1) for c in (0, 1)]
        present = np.ones(code.k + code.m, dtype=bool)
        present[missing] = False
        # Two losses in each of rows 0-1 and columns 0-1: one parity per
        # axis cannot start anywhere -- genuinely unrecoverable.
        assert not code.recoverable(present)
        with pytest.raises(DecodeFailure, match="peel stalled"):
            code.decode(erase(code, data, missing))

    def test_stall_reports_missing_data_chunks(self):
        code = Rs2dCode(4, 4, 1, 1)
        data = random_data(16, 16, seed=4)
        missing = [code.data_index(r, c) for r in (0, 1) for c in (0, 1)]
        try:
            code.decode(erase(code, data, missing))
        except DecodeFailure as exc:
            assert sorted(exc.failed_submessages) == sorted(missing)
        else:  # pragma: no cover
            pytest.fail("expected DecodeFailure")

    def test_parity_loss_only(self):
        code = Rs2dCode(3, 3, 2, 2)
        data = random_data(9, 16, seed=5)
        missing = [code.row_parity_index(0, 0), code.col_parity_index(1, 2)]
        got = code.decode(erase(code, data, missing))
        assert np.array_equal(got, data)

    def test_recoverable_matches_decode(self):
        code = Rs2dCode(3, 3, 1, 1)
        data = random_data(9, 8, seed=6)
        rng = np.random.default_rng(7)
        total = code.k + code.m
        for _ in range(200):
            present = rng.random(total) > 0.25
            chunks = coded_chunks(code, data)
            for idx in np.flatnonzero(~present):
                del chunks[int(idx)]
            if code.recoverable(present):
                assert np.array_equal(code.decode(chunks), data)
            else:
                with pytest.raises(DecodeFailure):
                    code.decode(chunks)
