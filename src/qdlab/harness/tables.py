"""Tabular experiment output: declared schema, RFC-4180 CSV, full precision.

Columns are declared (name, unit) pairs before any row is added; the CSV
header renders them as ``name (unit)``.  Floats are written with 17
significant digits so files round-trip exactly.  Non-finite values are
rejected unless the table declares a ``flag`` column, which forces a visible
marker for every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["ResultTable", "emit_table"]

FLAG_COLUMN = "flag"


@dataclass
class ResultTable:
    """Rows under a fixed (name, unit) column schema."""

    columns: Sequence[tuple[str, str]]
    rows: list[tuple] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("declare at least one column")
        names = [name for name, _ in self.columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in {names}")

    @property
    def has_flag_column(self) -> bool:
        return any(name == FLAG_COLUMN for name, _ in self.columns)

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))


def _render_cell(value: object) -> str:
    text = f"{value:.17g}" if isinstance(value, float) else str(value)
    if any(ch in text for ch in ',"\n\r'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _check_finite(table: ResultTable) -> None:
    for i, row in enumerate(table.rows):
        bad = [
            name
            for (name, _), value in zip(table.columns, row)
            if isinstance(value, float) and not math.isfinite(value)
        ]
        if bad and not table.has_flag_column:
            raise ValueError(
                f"row {i} has non-finite value(s) in {bad}; "
                f"add a {FLAG_COLUMN!r} column to record them explicitly"
            )


def emit_table(table: ResultTable, path) -> None:
    """Write the table as CSV: LF line endings, units in the header."""
    _check_finite(table)
    header = ",".join(
        _render_cell(f"{name} ({unit})" if unit else name)
        for name, unit in table.columns
    )
    lines = [header]
    for row in table.rows:
        lines.append(",".join(_render_cell(v) for v in row))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write table to {path}: {exc}") from exc
