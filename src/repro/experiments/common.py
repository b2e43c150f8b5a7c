"""Shared infrastructure for the per-figure experiment modules.

Every experiment module registers one :class:`~repro.orchestrate.Experiment`
whose table regenerates one table/figure of the paper as an
:class:`ExperimentResult`; ``python -m repro.orchestrate run --experiment
<name>`` runs it. Absolute numbers come from this repo's simulator, not the
authors' testbed; EXPERIMENTS.md records both and the *shape* comparison.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from ..parallel.executor import CellResult, run_cells as _parallel_run_cells
from ..resilience.policy import RetryPolicy

__all__ = [
    "ExperimentResult",
    "execution_context",
    "format_pct",
    "run_cells",
]


@dataclass(frozen=True)
class ExecutionOptions:
    """How experiment cells execute (docs/PARALLEL.md).

    Library callers get the in-process, uncached default: ``run_inline()``
    simulates every cell in this process. ``execute_run`` (and the
    benchmarks harness) widen this through :func:`execution_context`.
    """

    jobs: int = 1
    cache: object = None  # repro.parallel.ResultCache | None
    #: Retry policy for transient cell failures (docs/RESILIENCE.md);
    #: ``None`` is ``RetryPolicy.immediate(1)``, the executor's default.
    policy: RetryPolicy | None = None
    #: ``--sample`` spec ("off" | "smarts:<d>/<p>" | "simpoint:<k>[/<i>]");
    #: anything but "off" routes run_cells through the sampled estimator.
    sample: str = "off"
    #: ``--engine`` spec ("obj" | "array" | None = defaulting chain, see
    #: docs/ENGINE.md). Applied to every spec that does not pin its own.
    engine: str | None = None


_EXECUTION = ExecutionOptions()


@contextmanager
def execution_context(*, jobs: int | None = None, cache=None,
                      policy: RetryPolicy | None = None,
                      sample: str | None = None, engine: str | None = None):
    """Scope the pool size / result cache for every ``run_cells`` inside."""
    global _EXECUTION
    previous = _EXECUTION
    updates = {}
    if jobs is not None:
        updates["jobs"] = jobs
    if cache is not None:
        updates["cache"] = cache
    if policy is not None:
        updates["policy"] = policy
    if sample is not None:
        updates["sample"] = sample
    if engine is not None:
        updates["engine"] = engine
    _EXECUTION = replace(previous, **updates)
    try:
        yield _EXECUTION
    finally:
        _EXECUTION = previous


def run_cells(specs, *, on_result=None) -> list[CellResult]:
    """Run simulation cells under the active execution context.

    The shared execution path of the figure modules: results come back in
    input order whatever the completion order, so callers index them
    positionally against ``specs``. With a ``sample`` context active, each
    cell's stats are the sampled estimator's extrapolated whole-run view
    (same shape, so figure code is oblivious to the sampling).
    ``on_result`` is invoked per resolved cell in completion order — the
    orchestration layer persists cells incrementally through it.
    """
    specs = list(specs)
    if _EXECUTION.engine is not None:
        # Engine is an execution-only knob (not part of the cell key), so
        # stamping it on the specs changes how cells run, never what they
        # produce (docs/ENGINE.md).
        specs = [
            replace(s, engine=_EXECUTION.engine) if s.engine is None else s
            for s in specs
        ]
    if _EXECUTION.sample != "off":
        from ..sampling import parse_sample, run_cells_sampled

        return run_cells_sampled(
            specs,
            parse_sample(_EXECUTION.sample),
            jobs=_EXECUTION.jobs,
            cache=_EXECUTION.cache,
            policy=_EXECUTION.policy,
            on_result=on_result,
        )
    return _parallel_run_cells(
        specs,
        jobs=_EXECUTION.jobs,
        cache=_EXECUTION.cache,
        policy=_EXECUTION.policy,
        on_result=on_result,
    )


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
