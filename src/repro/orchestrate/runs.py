"""Run and report orchestrated experiments against run directories.

:func:`execute_run` is the engine behind ``python -m repro.orchestrate
run``: plan the experiment, open (or resume) a run directory, execute the
cells without a ``done`` result through
:func:`~repro.parallel.executor.run_cells` with this call's pool, cache,
retry policy, sample plan and engine, persist every resolved cell
incrementally, and render the reports.
:func:`report_run` re-renders reports from a finished (or partial) run
directory without simulating a cell — after re-verifying the run's
recorded identity against the present code. That check re-plans the
experiment, so one that pins annotations at plan time
(ablation_perfect_bp, ablation_ratio, discussion_smt,
discussion_division) runs those FDO flows again. A run directory is the
one resume format: the job server's drain writes the same layout
(docs/SERVE.md).
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

from ..parallel.cellkey import CACHE_SCHEMA_VERSION
from ..parallel.executor import STATUS_DONE, CellResult, run_cells
from ..resilience.policy import RetryPolicy
from ..sim.simulator import resolve_engine
from .experiment import Experiment, PlannedCell, get_experiment
from .report import aggregate_rows, aggregate_table
from .rundir import (
    RunIdentityError,
    atomic_write_json,
    build_manifest,
    cell_file,
    latest_run_dir,
    load_cells,
    load_manifest,
    manifest_path,
    new_run_dir,
    store_cell,
    verify_identity,
)


def _stored_result(cell: PlannedCell, stored: dict) -> CellResult:
    """A run dir's cell file as a result (``from_cache``: not simulated)."""
    key = stored.get("result_key", cell.key)
    attempts = stored.get("attempts", 0)
    if stored.get("status") == STATUS_DONE:
        return CellResult.done(cell.spec, key, stored, attempts=attempts,
                               from_cache=True)
    return CellResult.failed(cell.spec, key, stored, attempts=attempts)


def _table_json(table) -> dict:
    return {
        "experiment": table.experiment,
        "title": table.title,
        "headers": list(table.headers),
        "rows": [list(row) for row in table.rows],
        "notes": list(table.notes),
    }


def _write_reports(run_dir: Path, manifest: dict, figure, aggregate,
                   agg_rows: list[dict] | None, failed: list[dict]) -> dict:
    """Write report.md / report.json; returns the report dict."""
    report = {
        "experiment": manifest["experiment"],
        "title": manifest["title"],
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "identity": manifest["instance"],
        "args": manifest["args"],
        "figure": _table_json(figure) if figure is not None else None,
        "aggregate": agg_rows,
        "failed": failed,
    }
    atomic_write_json(run_dir / "report.json", report)
    lines = []
    if figure is not None:
        lines.append(figure.to_markdown())
    if aggregate is not None:
        lines.append(aggregate.to_markdown())
    if failed:
        lines.append(f"**{len(failed)} cell(s) failed:**\n")
        for row in failed:
            lines.append(
                f"- `{row['workload']}/{row['variant']}/{row['instance']}`: "
                f"[{row.get('error_type', '?')}] {row.get('error', '')}"
            )
        lines.append("")
    identity = manifest["instance"]
    lines.append(
        f"*identity: engine={identity['engine']}, sample={identity['sample']}, "
        f"cache_schema={identity['cache_schema']}*\n"
    )
    (run_dir / "report.md").write_text("\n".join(lines))
    return report


def _failed_rows(plan: list[PlannedCell], results: list[CellResult | None]) -> list[dict]:
    failed = []
    for cell, result in zip(plan, results):
        if result is None or not result.ok:
            failed.append({
                "workload": cell.target.workload,
                "variant": cell.target.variant,
                "instance": cell.instance.name,
                "key": cell.key,
                "error": getattr(result, "error", None) or "missing",
                "error_type": getattr(result, "error_type", None) or "Missing",
            })
    return failed


def execute_run(
    experiment: Experiment,
    *,
    out: str | Path = "runs",
    run_dir: str | Path | None = None,
    resume: bool = False,
    jobs: int = 1,
    cache=None,
    sample: str = "off",
    engine: str | None = None,
    policy: RetryPolicy | None = None,
    cycle_budget: int | None = None,
    invariants: str | None = None,
    crash_dir: str | None = None,
    on_cell=None,
) -> dict:
    """Run one experiment into a run directory; returns a summary dict.

    ``resume=True`` reopens an existing run directory (``run_dir`` or the
    experiment's latest under ``out``), verifies its recorded identity
    matches this invocation (:class:`RunIdentityError` otherwise), and
    simulates only the cells without a ``done`` result — failed cells
    run again.

    ``policy`` paces retries of transient cell failures
    (docs/RESILIENCE.md). ``cycle_budget``, ``invariants`` and
    ``crash_dir`` are stamped onto the cells this call simulates; they
    are execution-only :class:`~repro.parallel.cellkey.CellSpec` fields,
    so no cell key moves.
    """
    engine = resolve_engine(engine)
    plan = experiment.plan()
    fresh_manifest = build_manifest(experiment, plan, engine=engine, sample=sample)

    if resume:
        path = Path(run_dir) if run_dir else latest_run_dir(out, experiment.name)
        if path is None or not manifest_path(path).is_file():
            raise FileNotFoundError(
                f"no resumable run directory for {experiment.name!r} "
                f"(looked in {run_dir or Path(out) / experiment.name})"
            )
        manifest = load_manifest(path)
        verify_identity(manifest, fresh_manifest, path=str(path))
    else:
        path = Path(run_dir) if run_dir else new_run_dir(out, experiment.name)
        if run_dir is not None and manifest_path(path).is_file():
            raise RunIdentityError(
                f"{path} already holds a run; pass --resume to continue it"
            )
        manifest = fresh_manifest
        atomic_write_json(manifest_path(path), manifest)

    # Index plan positions by key (duplicate specs share one stored cell).
    by_key: dict[str, list[int]] = {}
    for index, cell in enumerate(plan):
        by_key.setdefault(cell.key, []).append(index)

    results: list[CellResult | None] = [None] * len(plan)
    stored = load_cells(path) if resume else {}
    pending: list[PlannedCell] = []
    for key, indices in by_key.items():
        payload = stored.get(key)
        if payload is not None and payload.get("status") == STATUS_DONE:
            for index in indices:
                results[index] = _stored_result(plan[index], payload)
        else:
            pending.append(plan[indices[0]])

    # The manifest records this run's cache traffic, not the cache
    # object's lifetime totals.
    start = replace(cache.stats) if cache is not None else None
    if pending:
        knobs = dict(cycle_budget=cycle_budget, invariants=invariants,
                     crash_dir=crash_dir)
        knobs = {name: value for name, value in knobs.items() if value is not None}
        specs = [c.spec for c in pending]
        if knobs:
            specs = [replace(spec, **knobs) for spec in specs]
        # run_cells hands each result back under the spec object passed
        # here: store it under its cell's planned key, not ``result.key``,
        # which for a sampled cell is the sampled parent's cache key.
        planned = {id(spec): cell.key for spec, cell in zip(specs, pending)}

        def persist(result: CellResult) -> None:
            key = planned[id(result.spec)]
            store_cell(path, key, cell_file(result))
            if on_cell is not None:
                on_cell(key, result)

        fresh = run_cells(specs, jobs=jobs, cache=cache, policy=policy,
                          sample=sample, engine=engine, on_result=persist)
        for cell, result in zip(pending, fresh):
            for index in by_key[cell.key]:
                results[index] = result

    failed = _failed_rows(plan, results)
    # "partial" until the report exists: a table() that raises leaves a
    # run that --resume finishes.
    manifest["status"] = "partial"
    manifest["cells_done"] = len(plan) - len(failed)
    if cache is not None:
        manifest["cache"] = {
            name: getattr(cache.stats, name) - getattr(start, name)
            for name in ("hits", "misses", "stores")
        }
    atomic_write_json(manifest_path(path), manifest)

    report, figure, aggregate = _render(path, manifest, experiment, plan,
                                        results, failed)
    if not failed:
        manifest["status"] = "complete"
        atomic_write_json(manifest_path(path), manifest)
    return {"run_dir": str(path), "failed": len(failed), "figure": figure,
            "aggregate": aggregate, "report": report}


def _render(path: Path, manifest: dict, experiment: Experiment,
            plan: list[PlannedCell], results: list[CellResult | None],
            failed: list[dict]):
    """Build the figure (and, for a run with cells, the aggregate table)
    and write both reports; returns ``(report, figure, aggregate)``."""
    figure = None if failed else experiment.table(plan, results)
    aggregate = agg_rows = None
    if plan:
        aggregate = aggregate_table(experiment, plan, results)
        agg_rows = aggregate_rows(plan, results)
    report = _write_reports(path, manifest, figure, aggregate, agg_rows, failed)
    return report, figure, aggregate


def recorded_experiment(manifest: dict) -> Experiment:
    """The experiment a run manifest records: its registry name + args."""
    return get_experiment(manifest["experiment"])(**manifest.get("args", {}))


def report_run(run_dir: str | Path) -> dict:
    """Re-render reports from a run directory without simulating a cell.

    Verifies the stored identity first: a run recorded under a different
    cache-schema generation, or whose planned cell keys no longer match
    what the present code would produce, raises :class:`RunIdentityError`
    instead of quietly mixing instances. Re-planning runs an experiment's
    plan-time FDO flows again (see the module docstring).
    """
    path = Path(run_dir)
    manifest = load_manifest(path)
    identity = manifest.get("instance", {})
    if identity.get("cache_schema") != CACHE_SCHEMA_VERSION:
        raise RunIdentityError(
            f"{path} was recorded under cache schema "
            f"{identity.get('cache_schema')!r}; this code is "
            f"{CACHE_SCHEMA_VERSION} — re-run instead of re-reporting"
        )

    experiment = recorded_experiment(manifest)
    plan = experiment.plan()
    fresh = build_manifest(
        experiment, plan,
        engine=identity.get("engine"), sample=identity.get("sample", "off"),
    )
    verify_identity(manifest, fresh, path=str(path))

    if not plan:
        # A cell-less experiment computed its figure in table(); no cell
        # holds its inputs, so replay the stored report.
        with open(path / "report.json") as handle:
            return json.load(handle)

    stored = load_cells(path)
    results: list[CellResult | None] = []
    for cell in plan:
        payload = stored.get(cell.key)
        results.append(
            _stored_result(cell, payload) if payload is not None else None
        )
    failed = _failed_rows(plan, results)
    return _render(path, manifest, experiment, plan, results, failed)[0]
