"""Aggregated report tables: median/stdev over the seed axis.

Every experiment that plans cells gets two views of one run:

* its *figure table* (``Experiment.table``) — the paper figure,
  regenerated from resolved cells, and
* the *aggregate table* built here — one row per (workload, instance)
  with n/median/stdev over seed replicas, the statistically honest view
  once ``--seeds`` > 1.

Both are written as markdown and JSON into the run directory
(docs/ORCHESTRATION.md documents the layout).
"""

from __future__ import annotations

import statistics

from ..parallel.executor import CellResult
from .experiment import Experiment, PlannedCell


def aggregate_rows(
    plan: list[PlannedCell], results: list[CellResult]
) -> list[dict]:
    """One JSON row per (workload, instance): IPCs over the seed axis.

    Failed cells are surfaced as ``errors`` rather than silently dropped,
    so a partial run's report never looks like a complete one.
    """
    groups: dict[tuple[str, str], dict] = {}
    for cell, result in zip(plan, results):
        key = (cell.target.workload, cell.instance.name)
        group = groups.setdefault(
            key,
            {
                "workload": cell.target.workload,
                "instance": cell.instance.name,
                "mode": cell.instance.mode,
                "ipcs": [],
                "errors": [],
            },
        )
        if result is not None and result.ok:
            group["ipcs"].append(result.require_stats().ipc)
        else:
            label = cell.target.variant
            error = getattr(result, "error", None) or "missing"
            group["errors"].append(f"{label}: {error}")
    rows = []
    for group in groups.values():
        ipcs = group["ipcs"]
        row = dict(group)
        row["n"] = len(ipcs)
        row["median_ipc"] = statistics.median(ipcs) if ipcs else None
        row["stdev_ipc"] = (
            statistics.stdev(ipcs) if len(ipcs) >= 2 else (0.0 if ipcs else None)
        )
        if not row["errors"]:
            del row["errors"]
        rows.append(row)
    return rows


def aggregate_table(
    experiment: Experiment,
    plan: list[PlannedCell],
    results: list[CellResult],
):
    """The aggregate rows as an ExperimentResult markdown/text table."""
    from ..experiments.common import ExperimentResult

    rows = aggregate_rows(plan, results)
    by_key = {(r["workload"], r["instance"]): r for r in rows}
    names = experiment.instance_names()
    table = ExperimentResult(
        experiment=f"{experiment.name}-aggregate",
        title=f"{experiment.title or experiment.name} — aggregate "
        f"(median ± stdev over {experiment.seeds} seed(s))",
        headers=["workload"] + names,
    )
    for workload in experiment.workloads:
        out = [workload]
        for name in names:
            row = by_key.get((workload, name))
            if row is None or row["median_ipc"] is None:
                out.append("FAILED")
            else:
                out.append(f"{row['median_ipc']:.4f} ±{row['stdev_ipc']:.4f}")
        table.add_row(*out)
    return table
