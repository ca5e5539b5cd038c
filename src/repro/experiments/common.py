"""Shared infrastructure for the experiment harnesses.

Every table and figure of the paper's evaluation has a module in this package
exposing

* ``run(...)`` -- compute the result rows (scaled-down instances by default so
  a laptop finishes in seconds-to-minutes), and
* ``main()``   -- print the measured rows next to the corresponding numbers
  reported in the paper, so the qualitative comparison (who wins, rough
  factors, trends) is visible at a glance.

:class:`ExperimentTable` is the small container/formatter those modules share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Union

__all__ = ["ExperimentTable", "format_value"]

Value = Union[int, float, str, bool, None]


def format_value(value: Value) -> str:
    """Compact human formatting for table cells."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.3g}"
        return f"{value:.3g}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


@dataclass
class ExperimentTable:
    """A list of result rows with aligned pretty-printing.

    Attributes
    ----------
    title:
        Shown above the table, e.g. ``"Table 2 -- PMC running time (seconds)"``.
    columns:
        Column keys in display order.
    rows:
        One dict per row; missing keys render as ``-``.
    notes:
        Free-form caveats (scaling factors, substitutions) printed under the
        table.
    metadata:
        Machine-readable side data that is not part of the row grid -- e.g.
        the deterministic cost counters of a shared setup step (probe-matrix
        construction).  Not rendered; carried through pickling/the parallel
        runner so harness gates can assert on it.
    """

    title: str
    columns: Sequence[str]
    rows: List[Dict[str, Value]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def add_row(self, **values: Value) -> None:
        self.rows.append(dict(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column_values(self, column: str) -> List[Value]:
        return [row.get(column) for row in self.rows]

    def deterministic_rows(self) -> List[Dict[str, Value]]:
        """Rows minus the columns declared informational in the metadata.

        Harnesses that time things list those wall-clock columns under
        ``metadata["informational_columns"]``; everything else is a pure
        function of the inputs, so two runs of the same experiment (serial or
        parallel) must agree on this view byte for byte.
        """
        drop = set(self.metadata.get("informational_columns", ()))
        if not drop:
            return [dict(row) for row in self.rows]
        return [
            {key: value for key, value in row.items() if key not in drop}
            for row in self.rows
        ]

    # -------------------------------------------------------------- rendering
    def render(self) -> str:
        headers = list(self.columns)
        body = [[format_value(row.get(column)) for column in headers] for row in self.rows]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in body)) if body else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [self.title, ""]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
        lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
        for row in body:
            lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
        if self.notes:
            lines.append("")
            for note in self.notes:
                lines.append(f"note: {note}")
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """GitHub-flavoured Markdown rendering (for reports)."""
        headers = list(self.columns)
        lines = [f"**{self.title}**", ""]
        lines.append("| " + " | ".join(headers) + " |")
        lines.append("|" + "|".join(["---"] * len(headers)) + "|")
        for row in self.rows:
            lines.append(
                "| " + " | ".join(format_value(row.get(column)) for column in headers) + " |"
            )
        for note in self.notes:
            lines.append("")
            lines.append(f"*note: {note}*")
        return "\n".join(lines)

    def to_csv(self) -> str:
        """CSV rendering with the raw (unformatted) cell values."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(self.columns), extrasaction="ignore")
        writer.writeheader()
        for row in self.rows:
            writer.writerow({column: row.get(column, "") for column in self.columns})
        return buffer.getvalue()

    def write_csv(self, path) -> None:
        """Write :meth:`to_csv` output to a file path."""
        from pathlib import Path

        Path(path).write_text(self.to_csv(), encoding="utf-8")

    def print(self) -> None:  # pragma: no cover - thin convenience wrapper
        print(self.render())
        print()
