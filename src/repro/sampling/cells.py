"""Interval-parallel sampled execution over the repro.parallel pool.

One sampled workload run fans out into one :class:`~repro.parallel.cellkey.
CellSpec` per detailed interval. Interval cells are first-class cells: they
flow through :func:`~repro.parallel.executor.run_cells`, land in the
content-addressed result cache under a key that includes the interval and
warmup recipe, and distribute over the process pool exactly like full-run
cells. The per-parent results are then combined deterministically (input
order, pure arithmetic), so pooled execution is bit-identical to serial —
guarded by ``tests/parallel/test_sampled_cells.py``.

Each parent's per-workload work happens once per process: expanding a
parent (build, trace, the FDO flow of a crisp parent, the interval plan)
runs as one task on the same pool the interval cells then run on, and every
interval cell of a parent reads the parent's workload and trace from a
one-entry memo (:func:`parent_workload`) instead of rebuilding and
re-emulating it. Each interval cell still warms ``[0, start)`` from scratch
inside its worker; warmup is functional (cheap) while detail is
cycle-accurate (expensive), which is the SMARTS trade that makes the
fan-out profitable.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
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

#: This process's parent workload: ``((name, variant, scale), Workload)``.
_PARENT: tuple | None = None


def parent_workload(name: str, variant: str, scale: float):
    """The workload of a sampled parent, built at most once in a row.

    Expanding a parent and running its interval cells all read the same
    (workload, variant, scale), so the last one built is kept together with
    its memoised trace. Only one is held: the old one is dropped before a
    different one is built, so memory does not grow with the parents. Every
    reader only reads it: trace slices copy the instructions they keep, and
    builders draw from ``variant_rng``, never from the global RNG.
    """
    global _PARENT
    key = (name, variant, scale)
    if _PARENT is None or _PARENT[0] != key:
        from ..workloads import get_workload

        _PARENT = None  # free the old workload before building the next
        _PARENT = (key, get_workload(name, variant=variant, scale=scale))
    return _PARENT[1]


def clear_parent_workload() -> None:
    """Drop the memoised parent workload (see :func:`parent_workload`)."""
    global _PARENT
    _PARENT = None


def _runs_fdo(spec: CellSpec) -> bool:
    return spec.mode == "crisp" and spec.critical_pcs is None


def expand_spec(spec: CellSpec, plan: SamplingPlan) -> tuple[list[Interval], list[CellSpec], int, tuple[int, ...]]:
    """Plan one parent spec's intervals and build its interval cells.

    Returns ``(intervals, interval_specs, total_insts, critical_pcs)``.
    In ``crisp`` mode with no explicit annotation the FDO flow runs once
    *here*, per parent, and the derived PCs are embedded in every interval
    cell instead of being re-derived per interval. :func:`run_cells_sampled`
    runs this on its pool; the parent workload comes from
    :func:`parent_workload`, so interval cells that follow in the same
    process reuse its trace.
    """
    if spec.interval is not None:
        raise ValueError(f"spec {spec.label()} already carries an interval")
    trace = parent_workload(spec.workload, spec.variant, spec.scale).trace()
    critical = spec.critical_pcs
    if _runs_fdo(spec):
        from ..core.fdo import run_crisp_flow

        critical = tuple(sorted(run_crisp_flow(
            spec.workload,
            spec.crisp_config,
            core_config=spec.core_config(),
            scale=spec.scale,
            engine=spec.engine,
        ).critical_pcs))
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


def _expand_all(specs: list[CellSpec], plan: SamplingPlan, pool) -> list:
    """``expand_spec`` of every non-composite spec, in input order.

    On a pool, parents that run the FDO flow are submitted first: they are
    the longest tasks, so starting them first shortens the tail. Composite
    specs expand to ``None``.
    """
    order = sorted(
        (index for index, spec in enumerate(specs)
         if spec.corun is None and spec.smt is None),
        key=lambda index: not _runs_fdo(specs[index]),
    )
    todo = [specs[index] for index in order]
    mapper = map if pool is None else pool.map
    expanded: list = [None] * len(specs)
    for index, expansion in zip(order, mapper(expand_spec, todo, [plan] * len(todo))):
        expanded[index] = expansion
    return expanded


def _assemble(spec: CellSpec, plan: SamplingPlan, expansion, children: list[CellResult]) -> CellResult:
    """Combine one parent's interval results into its whole-run result."""
    intervals, _, total_insts, critical = expansion
    key = f"sampled:{plan.token()}:{cell_key(spec)}"
    attempts = max((r.attempts for r in children), default=0)
    failed = [r for r in children if not r.ok]
    if failed:
        first = failed[0]
        return CellResult(
            spec=spec,
            key=key,
            status=STATUS_FAILED,
            attempts=attempts,
            error=first.error,
            error_type=first.error_type,
            crash_bundle=first.crash_bundle,
        )
    estimate = estimate_from_intervals(
        intervals,
        [r.require_stats() for r in children],
        total_insts,
        policy=plan.policy,
    )
    return CellResult(
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
    :class:`~repro.sampling.estimate.SampledEstimate`. ``on_result`` gets
    each parent as soon as its last interval cell resolves.

    With ``jobs > 1`` one process pool serves the whole run: it first
    expands the parents (:func:`expand_spec`), then runs all parents'
    interval cells through one ``run_cells`` call, so the pool stays busy
    across parents. ``jobs <= 1`` does both in-process.
    """
    if plan.off:
        return run_cells(
            list(specs), jobs=jobs, cache=cache, retries=retries,
            policy=policy, stats=stats, on_result=on_result,
        )
    specs = list(specs)
    pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
    try:
        expanded = _expand_all(specs, plan, pool)
        children: list[CellSpec] = []
        # Interval cells resolve in completion order; each is traced back to
        # its parent slot by the identity of its spec object, which
        # run_cells hands back on the result and which is unique per child.
        slot: dict[int, tuple[int, int]] = {}
        passthrough: dict[int, int] = {}
        for index, spec in enumerate(specs):
            if expanded[index] is None:
                # Composite cells (co-run / SMT) have no interval form — the
                # whole run *is* the cell. They ride the same run_cells call
                # unsampled and pass through to the results untouched.
                passthrough[index] = len(children)
                children.append(spec)
                continue
            for position, child in enumerate(expanded[index][1]):
                slot[id(child)] = (index, position)
                children.append(child)

        results: list[CellResult | None] = [None] * len(specs)
        resolved = {index: [None] * len(expansion[0])
                    for index, expansion in enumerate(expanded) if expansion}
        remaining = {index: len(got) for index, got in resolved.items()}

        def child_done(result: CellResult) -> None:
            if id(result.spec) not in slot:
                if on_result is not None:
                    on_result(result)
                return
            index, position = slot[id(result.spec)]
            resolved[index][position] = result
            remaining[index] -= 1
            if not remaining[index]:
                results[index] = _assemble(
                    specs[index], plan, expanded[index], resolved[index])
                if on_result is not None:
                    on_result(results[index])

        child_results = run_cells(
            children, jobs=jobs, cache=cache, retries=retries,
            policy=policy, stats=stats, on_result=child_done, pool=pool,
        )
        for index, offset in passthrough.items():
            results[index] = child_results[offset]
        return results  # type: ignore[return-value]
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        clear_parent_workload()
