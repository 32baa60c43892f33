"""Plain-text tables for experiment output.

Every experiment returns :class:`Table` objects; benchmarks assert on the
``rows`` and the harness prints ``render()`` -- the textual equivalent of
the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import ConfigError


@dataclass
class Table:
    """A titled grid of results."""

    title: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ConfigError(
                f"row has {len(values)} values, table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> list[Any]:
        """Extract one column by header name."""
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise ConfigError(
                f"no column {name!r}; have {self.columns}"
            ) from None
        return [row[idx] for row in self.rows]

    def render(self) -> str:
        """Fixed-width text rendering."""
        def fmt(v: Any) -> str:
            if isinstance(v, float):
                if v == 0:
                    return "0"
                if abs(v) >= 1e4 or abs(v) < 1e-3:
                    return f"{v:.3g}"
                return f"{v:.4g}"
            return str(v)

        cells = [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in cells)) if cells
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [f"== {self.title} =="]
        header = "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)
