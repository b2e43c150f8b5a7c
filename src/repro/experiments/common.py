"""Shared infrastructure for the per-figure experiment modules.

Every experiment module registers one :class:`~repro.orchestrate.Experiment`
whose table regenerates one table/figure of the paper as an
:class:`ExperimentResult`; ``python -m repro.orchestrate run --experiment
<name>`` runs it, and ``run_inline()`` from Python, each passing its
execution settings to :func:`repro.parallel.executor.run_cells`. Absolute
numbers come from this repo's simulator, not the authors' testbed;
EXPERIMENTS.md records both and the *shape* comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ExperimentResult", "format_pct"]


@dataclass
class ExperimentResult:
    """One regenerated table/figure."""

    experiment: str
    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        self.rows.append(list(values))

    def column(self, name: str) -> list:
        idx = self.headers.index(name)
        return [row[idx] for row in self.rows]

    def row_for(self, key: str) -> list:
        for row in self.rows:
            if row and row[0] == key:
                return row
        raise KeyError(f"no row {key!r} in {self.experiment}")

    def to_markdown(self) -> str:
        """Render as a markdown table (the run-report companion format).

        Every ``experiments/fig*.py`` result is embeddable in an
        observability report this way; ``python -m repro.orchestrate run
        --experiment <id> --markdown`` prints it.
        """
        headers = [str(h) for h in self.headers]
        lines = [f"## {self.title}", ""]
        lines.append("| " + " | ".join(headers) + " |")
        lines.append("|" + "|".join("---" for _ in headers) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(_fmt(v) for v in row) + " |")
        for note in self.notes:
            lines.append("")
            lines.append(f"*note: {note}*")
        lines.append("")
        return "\n".join(lines)

    def to_text(self) -> str:
        """Render as an aligned text table."""
        headers = [str(h) for h in self.headers]
        str_rows = [[_fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
        lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
        for row in str_rows:
            lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_pct(ratio: float) -> str:
    """Render a speedup ratio as a percent-improvement string."""
    return f"{100.0 * (ratio - 1.0):+.1f}%"
