"""Co-run cells: lowering a CoRunSpec onto the parallel execution layer.

A whole co-run is *one* cell: :func:`corun_cell` wraps a
:class:`~repro.multicore.spec.CoRunSpec` into a
:class:`~repro.parallel.cellkey.CellSpec` whose key covers mix membership,
core order, per-core mode/annotation, and the shared-memory knobs — so the
pool, the content-addressed cache, retries, and orchestrate run
directories all apply to co-runs unchanged. The executor dispatches cells
carrying a ``corun`` field to :func:`run_corun_cell`.

The cell's top-level ``stats`` is the merged mix view (aggregate IPC on
the global clock); per-core SimStats and the
:class:`~repro.multicore.stats.MulticoreStats` travel in the result's
``extra["corun"]`` payload, which round-trips through the cache.
"""

from __future__ import annotations

from ..parallel.cellkey import CellSpec
from ..parallel.executor import cell_record
from .engine import run_corun
from .spec import CoRunSpec, parse_mix

#: The display mode of a co-run cell. Never reaches ``resolve_mode`` — the
#: executor branches on ``spec.corun`` first; per-core modes live in the
#: CoRunSpec.
CORUN_MODE = "corun"


def corun_cell(
    corun: CoRunSpec | str,
    *,
    scale: float = 1.0,
    config=None,
    invariants: str | None = None,
    cycle_budget: int | None = None,
    crash_dir: str | None = None,
    engine: str | None = None,
) -> CellSpec:
    """Build the CellSpec for one co-run (mix string or CoRunSpec)."""
    if isinstance(corun, str):
        corun = parse_mix(corun)
    return CellSpec(
        workload=corun.label,
        mode=CORUN_MODE,
        scale=scale,
        config=config,
        corun=corun,
        invariants=invariants,
        cycle_budget=cycle_budget,
        crash_dir=crash_dir,
        engine=engine,
    )


def run_corun_cell(spec: CellSpec) -> dict:
    """Worker-side execution of a co-run cell (see executor.run_cell_spec)."""
    corun = spec.corun
    assert isinstance(corun, CoRunSpec)
    result = run_corun(
        corun,
        scale=spec.scale,
        config=spec.config,
        engine=spec.engine,
        invariants=spec.invariants,
        cycle_budget=spec.cycle_budget,
        crash_dir=spec.crash_dir,
    )
    return cell_record(spec, result.ipc, result.stats, extra={
        "corun": {
            "mix": corun.label,
            "per_core": [part.to_dict() for part in result.per_core],
            "multicore": result.multicore.to_dict(),
            "critical_pcs": [list(pcs) for pcs in result.critical_pcs],
        }
    })


def corun_extra(result) -> dict:
    """The ``extra["corun"]`` payload of a finished co-run CellResult."""
    extra = result.extra.get("corun")
    if extra is None:
        raise RuntimeError(
            f"cell {result.spec.label()} carries no co-run payload"
        )
    return extra
