"""Labelled (x, y) series — the unit every figure reproduction emits."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Series:
    """One labelled curve of a figure."""

    label: str
    x: list[float] = field(default_factory=list)
    y: list[float] = field(default_factory=list)
    x_name: str = "x"
    y_name: str = "y"

    def add(self, x: float, y: float) -> None:
        """Append one point."""
        self.x.append(x)
        self.y.append(y)

    def __len__(self) -> int:
        return len(self.x)

    def render(self, width: int = 12) -> str:
        """A plain-text rendering: header plus one row per point."""
        lines = [f"# {self.label}  ({self.x_name} vs {self.y_name})"]
        for xv, yv in zip(self.x, self.y):
            lines.append(f"{xv:>{width}.6g}  {yv:>{width}.6g}")
        return "\n".join(lines)

    def as_rows(self) -> list[tuple[float, float]]:
        """The points as (x, y) tuples."""
        return list(zip(self.x, self.y))

    def to_dict(self) -> dict:
        """A JSON-safe dictionary (machine-readable experiment output)."""
        return {
            "label": self.label,
            "x_name": self.x_name,
            "y_name": self.y_name,
            "x": list(self.x),
            "y": list(self.y),
        }


def merge_render(series_list: list[Series], width: int = 12) -> str:
    """Render several series sharing an x-axis as one aligned table."""
    if not series_list:
        return ""
    header = ["#" + series_list[0].x_name.rjust(width - 1)]
    header += [s.label.rjust(width) for s in series_list]
    lines = ["".join(header)]
    for i, xv in enumerate(series_list[0].x):
        row = [f"{xv:>{width}.6g}"]
        for s in series_list:
            row.append(f"{s.y[i]:>{width}.6g}" if i < len(s.y)
                       else " " * width)
        lines.append("".join(row))
    return "\n".join(lines)
