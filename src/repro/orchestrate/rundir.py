"""Per-run result directories: layout, manifest, and identity checks.

One ``orchestrate run`` owns one directory::

    <out>/<experiment>/run-NNN/
        manifest.json        # full run identity + per-cell index
        cells/<key>.json     # one resolved cell per file (atomic writes)
        report.md            # figure table + aggregate table
        report.json          # the same, machine-readable

The manifest records the **full instance identity** — resolved engine,
sample spec, and the result-cache schema version — alongside the
experiment's arguments and every planned cell key. ``run --resume`` and
``report`` verify that identity against the present code and flags before
touching a single cell, so a resumed or re-reported run can never
silently mix engines, sample plans, or schema generations
(:class:`RunIdentityError` names every mismatch instead).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from ..parallel.cellkey import CACHE_SCHEMA_VERSION
from ..sim.simulator import resolve_engine
from .experiment import Experiment, PlannedCell

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
CELLS_DIR = "cells"


class RunIdentityError(ValueError):
    """A run directory whose recorded identity conflicts with this run."""


def atomic_write_json(path: Path, payload: dict) -> None:
    """Write compact sorted-key JSON via temp file + rename (a kill leaves
    old or new).

    No indentation: ``json.dumps`` without ``indent`` runs CPython's C
    encoder, about 4x faster than the pure-Python one any indent selects.
    ``python -m json.tool FILE`` prints a file readably, and readers use
    ``json.load``, so run dirs written indented still load.
    """
    text = json.dumps(payload, sort_keys=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, str(path))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def new_run_dir(out: str | Path, experiment: str) -> Path:
    """Allocate ``<out>/<experiment>/run-NNN`` (NNN = max existing + 1)."""
    base = Path(out) / experiment
    base.mkdir(parents=True, exist_ok=True)
    numbers = [
        int(p.name.split("-", 1)[1])
        for p in base.glob("run-*")
        if p.is_dir() and p.name.split("-", 1)[1].isdigit()
    ]
    run_dir = base / f"run-{max(numbers, default=0) + 1:03d}"
    run_dir.mkdir()
    (run_dir / CELLS_DIR).mkdir()
    return run_dir


def latest_run_dir(out: str | Path, experiment: str) -> Path | None:
    base = Path(out) / experiment
    if not base.is_dir():
        return None
    runs = sorted(p for p in base.glob("run-*") if p.is_dir())
    return runs[-1] if runs else None


def _target_identity(targets) -> dict | None:
    """Workload-build provenance of a run's targets.

    Named analogues are fully determined by the code tree the cell keys
    already hash, but *generated* targets (``gen:`` names, docs/WORKGEN.md)
    additionally depend on the generator's revision. Recording it here —
    and comparing it in :func:`verify_identity` — makes a resume or
    re-report across generator versions a hard :class:`RunIdentityError`
    instead of a silent mix of differently-built workloads.
    """
    generated = sorted({t.workload for t in targets if t.workload.startswith("gen:")})
    if not generated:
        return None
    from ..workgen.spec import GENERATOR_VERSION

    return {"generator_version": GENERATOR_VERSION, "generated_targets": len(generated)}


def build_manifest(
    experiment: Experiment,
    plan: list[PlannedCell],
    *,
    engine: str | None = None,
    sample: str = "off",
) -> dict:
    """The run's full identity: experiment, args, instance, cell index."""
    targets = experiment.targets() if plan else []
    instance_entries: dict[str, dict] = {}
    for cell in plan:
        instance_entries.setdefault(cell.instance.name, cell.instance.describe())
    return {
        "manifest_version": MANIFEST_VERSION,
        "experiment": experiment.name,
        "title": experiment.title,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "args": experiment.args(),
        # The execution identity the bugfix satellite is about: everything
        # that must match between the run that wrote a cell and the run
        # that resumes or re-reports it.
        "instance": {
            "engine": resolve_engine(engine),
            "sample": sample or "off",
            "cache_schema": CACHE_SCHEMA_VERSION,
            "target_identity": _target_identity(targets),
        },
        "targets": [t.describe() for t in targets],
        "instances": instance_entries,
        "cells": {
            cell.key: {
                "workload": cell.target.workload,
                "variant": cell.target.variant,
                "instance": cell.instance.name,
                "mode": cell.instance.mode,
            }
            for cell in plan
        },
        "status": "planned",
    }


def manifest_path(run_dir: str | Path) -> Path:
    return Path(run_dir) / MANIFEST_NAME


def load_manifest(run_dir: str | Path) -> dict:
    path = manifest_path(run_dir)
    if not path.is_file():
        raise FileNotFoundError(f"{run_dir} has no {MANIFEST_NAME}")
    with open(path) as handle:
        manifest = json.load(handle)
    if manifest.get("manifest_version") != MANIFEST_VERSION:
        raise RunIdentityError(
            f"{path} has manifest_version "
            f"{manifest.get('manifest_version')!r}, expected {MANIFEST_VERSION}"
        )
    return manifest


def verify_identity(manifest: dict, fresh: dict, *, path: str = "") -> None:
    """Every identity mismatch between a stored and a fresh manifest.

    ``fresh`` is what this process would have written for the same run;
    any divergence (experiment, args, engine, sample spec, cache schema,
    or the planned cell-key set) raises with the complete list, so a
    resume/report can never silently mix instances.
    """
    problems = []
    for field in ("experiment", "args"):
        if manifest.get(field) != fresh.get(field):
            problems.append(
                f"{field}: run dir has {manifest.get(field)!r}, "
                f"this invocation is {fresh.get(field)!r}"
            )
    stored = manifest.get("instance", {})
    current = fresh.get("instance", {})
    for field in ("engine", "sample", "cache_schema", "target_identity"):
        if stored.get(field) != current.get(field):
            problems.append(
                f"instance.{field}: run dir has {stored.get(field)!r}, "
                f"this invocation is {current.get(field)!r}"
            )
    if set(manifest.get("cells", {})) != set(fresh.get("cells", {})):
        missing = sorted(set(fresh.get("cells", {})) - set(manifest.get("cells", {})))
        extra = sorted(set(manifest.get("cells", {})) - set(fresh.get("cells", {})))
        problems.append(
            f"cell keys diverge (simulator or config changed): "
            f"{len(missing)} newly planned, {len(extra)} no longer planned"
        )
    if problems:
        where = f" in {path}" if path else ""
        raise RunIdentityError(
            "run identity mismatch%s — refusing to mix instances:\n  %s"
            % (where, "\n  ".join(problems))
        )


def cell_path(run_dir: str | Path, key: str) -> Path:
    return Path(run_dir) / CELLS_DIR / f"{key}.json"


def cell_file(result) -> dict:
    """The JSON a run directory stores for one resolved
    :class:`~repro.parallel.executor.CellResult`.

    A done cell's ``ipc``, ``critical_pcs`` and ``stats`` are its record's,
    copied as-is. A sampled parent keeps its estimate's brief; a co-run or
    SMT cell its ``extra``, which resume and report re-render tables from.
    """
    payload = {
        "status": result.status,
        "attempts": result.attempts,
        "cached": result.from_cache,
        "workload": result.spec.workload,
        "variant": result.spec.variant,
        "mode": result.spec.mode,
        "result_key": result.key,
    }
    if result.ok:
        record = result.record
        payload.update(ipc=record["ipc"], critical_pcs=record["critical_pcs"],
                       stats=record["stats"])
        if result.estimate is not None:
            payload["sampled"] = result.estimate.brief()
        elif result.extra:
            payload["extra"] = result.extra
    else:
        payload["error"] = result.error
        payload["error_type"] = result.error_type
        if result.crash_bundle:
            payload["crash_bundle"] = result.crash_bundle
    return payload


def store_cell(run_dir: str | Path, key: str, payload: dict) -> None:
    atomic_write_json(cell_path(run_dir, key), payload)


def load_cells(run_dir: str | Path) -> dict[str, dict]:
    """Every stored cell payload, keyed by cell key; corrupt files skipped."""
    cells_dir = Path(run_dir) / CELLS_DIR
    loaded: dict[str, dict] = {}
    if not cells_dir.is_dir():
        return loaded
    for path in sorted(cells_dir.glob("*.json")):
        try:
            with open(path) as handle:
                loaded[path.stem] = json.load(handle)
        except (OSError, json.JSONDecodeError):
            continue  # treated as not-yet-run; resume re-simulates it
    return loaded
