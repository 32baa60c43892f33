"""Run every row of the claims table, :mod:`tests.claims`.

``pytest tests/test_claims.py`` runs the tier-1 miniatures, ``-m slow``
the full-size rows.
"""

import pytest

from tests.claims import CLAIMS


@pytest.mark.parametrize(
    "row",
    [
        pytest.param(row, id=row.id, marks=[pytest.mark.slow] * row.slow)
        for row in CLAIMS
    ],
)
def test_claim(row):
    row.check(row.run())
