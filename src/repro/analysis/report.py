"""Plain-text rendering of the tables and figure-series the paper
reports. The CLI prints these; EXPERIMENTS.md embeds them."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)


@dataclass
class Table:
    """A paper-style table."""

    title: str
    columns: "list[str]"
    rows: "list[list]" = field(default_factory=list)
    notes: str = ""

    def add_row(self, *cells) -> None:
        if len(cells) != len(self.columns):
            raise ConfigurationError(
                f"{self.title}: row has {len(cells)} cells, "
                f"table has {len(self.columns)} columns"
            )
        self.rows.append(list(cells))

    def column(self, name: str) -> "list":
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def render(self) -> str:
        cells = [[_format_cell(c) for c in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(row[i]) for row in cells))
            if cells
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title]
        lines.append(
            " | ".join(col.ljust(w) for col, w in zip(self.columns, widths))
        )
        lines.append(sep)
        for row in cells:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


@dataclass
class Series:
    """A paper-style figure: named (x, y) series."""

    title: str
    x_label: str
    y_label: str
    series: "dict[str, tuple]" = field(default_factory=dict)
    notes: str = ""

    def add(self, name: str, xs, ys) -> None:
        xs, ys = list(xs), list(ys)
        if len(xs) != len(ys):
            raise ConfigurationError(
                f"{self.title}/{name}: {len(xs)} xs vs {len(ys)} ys"
            )
        self.series[name] = (xs, ys)

    def render(self) -> str:
        lines = [f"{self.title}  [{self.x_label} -> {self.y_label}]"]
        for name, (xs, ys) in self.series.items():
            points = ", ".join(
                f"({_format_cell(x)}, {_format_cell(y)})" for x, y in zip(xs, ys)
            )
            lines.append(f"  {name}: {points}")
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)
