"""Docs-vs-table consistency: the prose cites the claims table truthfully.

Every ``## Figure N`` heading of EXPERIMENTS.md has a full-size row in
``tests/claims.py`` and every figure row has a heading; every test name
that EXPERIMENTS.md's ablation table or DESIGN.md's experiment and
extension tables cite is a row id.  Table 1 and Section 5.1.1 are backed
by ``tests/sdr`` and ``tests/models``, so they have no row.
"""

import re
from pathlib import Path

import pytest

from tests.claims import CLAIMS

ROOT = Path(__file__).resolve().parents[1]


def test_every_figure_heading_has_a_full_size_row():
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    headings = {f"Figure {n}" for n in re.findall(r"^## Figure (\d+) ", text, re.M)}
    assert headings, "failed to parse the figure headings of EXPERIMENTS.md"
    full_size = {row.figure for row in CLAIMS if row.slow}
    assert headings <= full_size, f"no full-size row: {sorted(headings - full_size)}"
    figures = {row.figure for row in CLAIMS if row.figure.startswith("Figure")}
    assert figures <= headings, f"rows without a heading: {sorted(figures - headings)}"


@pytest.mark.parametrize(
    "doc, heading, column",
    [
        ("EXPERIMENTS.md", "## Design ablations", 1),
        ("DESIGN.md", "## 4. Per-experiment index", 5),
        ("DESIGN.md", "## 6. Extensions", 4),
    ],
)
def test_cited_tests_are_rows(doc, heading, column):
    """Every test name in ``column`` of the table under ``heading`` is a row id."""
    section = (ROOT / doc).read_text(encoding="utf-8").split(heading, 1)[1]
    lines = section.split("\n## ", 1)[0].splitlines()
    cells = [line.split("|")[column] for line in lines if line.startswith("|")][2:]
    cited = {name for cell in cells for name in re.findall(r"`(\w+)`", cell)}
    assert cited, f"no rows cited under {heading!r} in {doc}"
    unknown = cited - {row.id for row in CLAIMS}
    assert not unknown, f"{doc} cites tests that are no claims rows: {sorted(unknown)}"
