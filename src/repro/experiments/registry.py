"""Experiment registry and report container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.series import Series, merge_render
from repro.errors import CyclopsError


@dataclass
class ExperimentReport:
    """The output of one experiment driver."""

    experiment_id: str
    title: str
    #: What the paper reports for this artifact (the comparison target).
    paper: str
    series: list[Series] = field(default_factory=list)
    tables: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Machine-readable key numbers for EXPERIMENTS.md.
    measurements: dict[str, float] = field(default_factory=dict)
    #: Render the series plot with log axes (Figure 3 is log-log).
    log_plot: bool = False
    #: Names in ``measurements`` that are host wall-clock figures (a
    #: speedup over the exact engine, say). They differ run to run, so
    #: ``run --quick --json`` — which pooled and serial runs must
    #: reproduce exactly — leaves them out, as it leaves out
    #: ``elapsed_seconds``.
    host_timed: list[str] = field(default_factory=list)

    def render(self, plot: bool = True) -> str:
        """Full plain-text report (tables, data series, ASCII figure)."""
        from repro.analysis.plot import render_plot

        lines = [f"== {self.experiment_id}: {self.title} ==", ""]
        lines.append(f"Paper: {self.paper}")
        for note in self.notes:
            lines.append(f"Note: {note}")
        for table in self.tables:
            lines.append("")
            lines.append(table)
        if self.series:
            lines.append("")
            grouped: dict[tuple, list[Series]] = {}
            for s in self.series:
                grouped.setdefault((tuple(s.x), s.x_name), []).append(s)
            for (_, _), group in grouped.items():
                lines.append(merge_render(group))
                lines.append("")
                if plot:
                    lines.append(render_plot(
                        group, log_x=self.log_plot, log_y=self.log_plot,
                        title=f"[{group[0].y_name} vs {group[0].x_name}]",
                    ))
                    lines.append("")
        if self.measurements:
            lines.append("Key measurements:")
            for key, value in self.measurements.items():
                lines.append(f"  {key}: {value:.4g}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """A JSON-safe dictionary (for ``run --json``)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "paper": self.paper,
            "notes": list(self.notes),
            "tables": list(self.tables),
            "series": [s.to_dict() for s in self.series],
            "measurements": dict(self.measurements),
            "log_plot": self.log_plot,
            "host_timed": list(self.host_timed),
        }


#: experiment id -> driver ``run(quick=False, runner=None)`` returning an
#: ExperimentReport; *runner* is the JobRunner its points map through.
REGISTRY: dict[str, Callable[..., ExperimentReport]] = {}


def register(experiment_id: str):
    """Decorator adding a driver to the registry."""

    def wrap(fn: Callable[..., ExperimentReport]):
        REGISTRY[experiment_id] = fn
        return fn

    return wrap


def get_experiment(experiment_id: str) -> Callable[..., ExperimentReport]:
    """Look up a driver, with a helpful error."""
    try:
        return REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise CyclopsError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None
