"""Plain-text result tables.

Every experiment driver produces a :class:`Table`: an ordered list of rows
with a fixed column schema. Tables render to aligned monospace text (for the
CLI) and to CSV (for downstream plotting).
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping, Sequence

__all__ = ["Table"]


class Table:
    """An ordered, fixed-schema result table.

    Parameters
    ----------
    columns:
        Ordered column names.
    title:
        Optional human-readable caption printed above the table.
    """

    def __init__(self, columns: Sequence[str], title: str = "") -> None:
        if not columns:
            raise ValueError("a Table requires at least one column")
        if len(set(columns)) != len(columns):
            raise ValueError(f"duplicate column names in {columns!r}")
        self.columns: tuple[str, ...] = tuple(columns)
        self.title = title
        self.rows: list[tuple[Any, ...]] = []

    def add_row(self, *values: Any, **named: Any) -> None:
        """Append a row given positionally or by column name (not both)."""
        if values and named:
            raise ValueError("pass row values positionally or by name, not both")
        if named:
            missing = [c for c in self.columns if c not in named]
            if missing:
                raise ValueError(f"missing columns {missing} in named row")
            extra = [c for c in named if c not in self.columns]
            if extra:
                raise ValueError(f"unknown columns {extra} in named row")
            values = tuple(named[c] for c in self.columns)
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append(tuple(values))

    def add_rows(self, rows: Iterable[Mapping[str, Any]]) -> None:
        """Append many rows given as mappings."""
        for row in rows:
            self.add_row(**row)

    def column(self, name: str) -> list[Any]:
        """Return the values of one column, in row order."""
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column named {name!r}") from None
        return [row[idx] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        for row in self.rows:
            yield dict(zip(self.columns, row))

    # -- rendering --------------------------------------------------------

    @staticmethod
    def _fmt(value: Any) -> str:
        if isinstance(value, float):
            if value != value:  # NaN
                return "nan"
            if abs(value) >= 1000 or (value != 0 and abs(value) < 0.01):
                return f"{value:.3g}"
            return f"{value:.3f}".rstrip("0").rstrip(".")
        return str(value)

    def to_text(self) -> str:
        """Render as an aligned monospace table."""
        cells = [list(self.columns)] + [
            [self._fmt(v) for v in row] for row in self.rows
        ]
        widths = [
            max(len(line[i]) for line in cells) for i in range(len(self.columns))
        ]
        lines = []
        if self.title:
            lines.append(self.title)
        header, *body = cells
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Render as CSV (no quoting; experiment values never contain commas)."""
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(self._fmt(v) for v in row))
        return "\n".join(lines)

    def to_json(self, indent: "int | None" = None) -> str:
        """Render as a JSON object: title, columns, and rows as mappings.

        Values that are not JSON-native (e.g. numpy scalars) fall back to
        their ``str`` form, so every table serializes.
        """
        return json.dumps(
            {
                "title": self.title,
                "columns": list(self.columns),
                "rows": [dict(zip(self.columns, row)) for row in self.rows],
            },
            indent=indent,
            default=str,
        )

    def to_markdown(self) -> str:
        """Render as a GitHub-flavored markdown table."""
        lines = []
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(self._fmt(v) for v in row) + " |")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_text()
