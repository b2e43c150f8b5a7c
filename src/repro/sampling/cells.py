"""Interval-parallel sampled execution over the repro.parallel pool.

One sampled workload run fans out into one :class:`~repro.parallel.cellkey.
CellSpec` per detailed interval. Interval cells are first-class cells: they
flow through :func:`~repro.parallel.executor.run_cells`, land in the
content-addressed result cache under a key that includes the interval and
warmup recipe, and distribute over the process pool exactly like full-run
cells. The per-parent results are then combined deterministically (input
order, pure arithmetic), so pooled execution is bit-identical to serial —
guarded by ``tests/parallel/test_sampled_cells.py``.

Every interval cell warms ``[0, start)`` from scratch inside its worker;
warmup is functional (cheap) while detail is cycle-accurate (expensive),
which is the SMARTS trade that makes the fan-out profitable.
"""

from __future__ import annotations

from dataclasses import replace

from ..parallel.cellkey import CellSpec, cell_key
from ..parallel.executor import (
    STATUS_DONE,
    STATUS_FAILED,
    CellResult,
    PoolStats,
    run_cells,
)
from .estimate import estimate_from_intervals
from .intervals import Interval, SamplingPlan
from .sampler import plan_for_trace


def expand_spec(spec: CellSpec, plan: SamplingPlan) -> tuple[list[Interval], list[CellSpec], int, tuple[int, ...]]:
    """Plan one parent spec's intervals and build its interval cells.

    Returns ``(intervals, interval_specs, total_insts, critical_pcs)``.
    In ``crisp`` mode with no explicit annotation the FDO flow runs once
    *here* (driver side) and the derived PCs are embedded in every interval
    cell, instead of re-deriving them per interval in each worker.
    """
    from ..workloads import get_workload

    if spec.interval is not None:
        raise ValueError(f"spec {spec.label()} already carries an interval")
    workload = get_workload(spec.workload, variant=spec.variant, scale=spec.scale)
    trace = workload.trace()
    critical = spec.critical_pcs
    if spec.mode == "crisp" and critical is None:
        from ..core.fdo import run_crisp_flow

        flow = run_crisp_flow(
            spec.workload,
            spec.crisp_config,
            core_config=spec.core_config(),
            scale=spec.scale,
            engine=spec.engine,
        )
        critical = tuple(sorted(flow.critical_pcs))
    intervals = plan_for_trace(plan, trace)
    interval_specs = [
        replace(
            spec,
            interval=(iv.start, iv.end),
            warmup="functional",
            critical_pcs=critical,
        )
        for iv in intervals
    ]
    return intervals, interval_specs, len(trace.insts), tuple(critical or ())


def run_cells_sampled(
    specs: list[CellSpec],
    plan: SamplingPlan,
    *,
    jobs: int = 1,
    cache=None,
    retries: int = 1,
    policy=None,
    stats: PoolStats | None = None,
    on_result=None,
) -> list[CellResult]:
    """Run every spec sampled per ``plan``; results in input order.

    Same contract as :func:`~repro.parallel.executor.run_cells`, but each
    returned :class:`CellResult` is a synthesized whole-run view: ``ipc``
    is the sampled estimate, ``stats`` the extrapolated full-run-shaped
    counters, and ``estimate`` the full
    :class:`~repro.sampling.estimate.SampledEstimate`. All parents'
    interval cells run through one ``run_cells`` call, so the pool stays
    busy across parents.
    """
    if plan.off:
        return run_cells(
            list(specs), jobs=jobs, cache=cache, retries=retries,
            policy=policy, stats=stats, on_result=on_result,
        )
    parents = []
    interval_specs: list[CellSpec] = []
    for spec in specs:
        if spec.corun is not None or spec.smt is not None:
            # Composite cells (co-run / SMT) have no interval form — the
            # whole run *is* the cell. They ride the same pooled run_cells
            # call unsampled and pass through to the results untouched.
            parents.append((spec, None, 0, (), len(interval_specs)))
            interval_specs.append(spec)
            continue
        intervals, children, total_insts, critical = expand_spec(spec, plan)
        parents.append((spec, intervals, total_insts, critical, len(interval_specs)))
        interval_specs.extend(children)

    child_results = run_cells(
        interval_specs, jobs=jobs, cache=cache, retries=retries,
        policy=policy, stats=stats,
    )

    results: list[CellResult] = []
    for spec, intervals, total_insts, critical, offset in parents:
        if intervals is None:
            # Composite pass-through: the single child is the whole cell.
            result = child_results[offset]
            if on_result is not None:
                on_result(result)
            results.append(result)
            continue
        children = child_results[offset:offset + len(intervals)]
        key = f"sampled:{plan.token()}:{cell_key(spec)}"
        attempts = max((r.attempts for r in children), default=0)
        failed = [r for r in children if not r.ok]
        if failed:
            first = failed[0]
            result = CellResult(
                spec=spec,
                key=key,
                status=STATUS_FAILED,
                attempts=attempts,
                error=first.error,
                error_type=first.error_type,
                crash_bundle=first.crash_bundle,
            )
        else:
            estimate = estimate_from_intervals(
                intervals,
                [r.require_stats() for r in children],
                total_insts,
                policy=plan.policy,
            )
            result = CellResult(
                spec=spec,
                key=key,
                status=STATUS_DONE,
                attempts=attempts,
                from_cache=bool(children) and all(r.from_cache for r in children),
                ipc=estimate.ipc,
                stats=estimate.extrapolated,
                critical_pcs=critical,
                estimate=estimate,
            )
        if on_result is not None:
            on_result(result)
        results.append(result)
    return results
