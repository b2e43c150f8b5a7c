"""Sampled parents as ordinary cells of the repro.parallel pool and cache.

A sampled workload run is one :class:`~repro.parallel.cellkey.CellSpec`
per parent whose ``sample`` field holds the plan token; the token joins
the cell key, so a sampled parent and its full run never share a cache
entry. :func:`~repro.parallel.executor.run_cell_spec` hands such a cell to
:func:`run_sampled_cell`, which runs a crisp parent's FDO flow once,
builds and traces the input once (:func:`expand_spec`), and calls
:func:`~repro.sampling.sampler.simulate_sampled`: one functional warmer
walked forward through the trace, each detailed interval started from a
copy of its state. The :class:`~repro.sampling.estimate.SampledEstimate`
travels in the cell payload, so a warm re-run answers each parent with one
cache read, and parents get the pool's crash and retry supervision like
any other cell. Pooled execution is bit-identical to serial — guarded by
``tests/parallel/test_sampled_cells.py``.
"""

from __future__ import annotations

from dataclasses import replace

from ..parallel.cellkey import CellSpec
from ..parallel.executor import (
    CellResult,
    PoolStats,
    cell_annotation,
    cell_input,
    run_cells,
)
from .estimate import SampledEstimate
from .intervals import SamplingPlan, parse_sample
from .sampler import simulate_sampled


def _is_parent(spec: CellSpec) -> bool:
    # Composite cells (co-run / SMT) have no interval form: the whole run
    # *is* the cell.
    return spec.corun is None and spec.smt is None


def expand_spec(spec: CellSpec):
    """Build and trace one parent's input and resolve its annotation.

    Returns ``(workload, critical_pcs)``. A ``crisp`` parent with no
    explicit annotation runs the FDO flow *here*, once per parent, before
    the input is built; parents of one input in one group share it
    (:func:`~repro.parallel.executor.cell_input`).
    """
    critical = cell_annotation(spec)
    workload = cell_input(spec)
    workload.trace()
    return workload, critical


def run_sampled_cell(spec: CellSpec, watchdog=None) -> dict:
    """Worker-side execution of a sampled parent cell (see run_cell_spec)."""
    workload, critical = expand_spec(spec)
    estimate = simulate_sampled(
        workload,
        spec.mode,
        plan=parse_sample(spec.sample),
        config=spec.core_config(),
        critical_pcs=critical,
        invariants=spec.invariants,
        watchdog=watchdog,
        engine=spec.engine,
    )
    return {
        "workload": spec.workload,
        "mode": spec.mode,
        "ipc": estimate.ipc,
        "critical_pcs": sorted(critical),
        "stats": estimate.extrapolated.to_dict(),
        "extra": {"sampled": estimate.to_dict()},
    }


def _restore(result: CellResult, spec: CellSpec) -> CellResult:
    """``result`` under the caller's ``spec``, its estimate rebuilt."""
    sampled = result.extra.get("sampled")
    if sampled is None:
        return replace(result, spec=spec)
    return replace(result, spec=spec, extra={},
                   estimate=SampledEstimate.from_dict(sampled))


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

    Same contract as :func:`~repro.parallel.executor.run_cells`, and one
    ``run_cells`` call: each parent runs as one sampled cell, while co-run
    and SMT cells pass through unsampled. Every result (and every
    ``on_result`` call) carries the caller's spec; a parent's ``ipc`` is
    the sampled estimate, ``stats`` the extrapolated full-run-shaped
    counters, and ``estimate`` the full
    :class:`~repro.sampling.estimate.SampledEstimate`. ``run_cells``
    orders the pool's work (FDO parents first).
    """
    specs = list(specs)
    if plan.off:
        return run_cells(
            specs, jobs=jobs, cache=cache, retries=retries,
            policy=policy, stats=stats, on_result=on_result,
        )
    token = plan.token()
    # replace() makes a distinct object per position, so each result maps
    # back to its caller's position through the identity of its spec.
    cells = [replace(spec, sample=token) if _is_parent(spec) else replace(spec)
             for spec in specs]
    position = {id(cell): index for index, cell in enumerate(cells)}
    results: list[CellResult | None] = [None] * len(specs)

    def done(result: CellResult) -> None:
        index = position[id(result.spec)]
        results[index] = _restore(result, specs[index])
        if on_result is not None:
            on_result(results[index])

    run_cells(
        cells, jobs=jobs, cache=cache, retries=retries,
        policy=policy, stats=stats, on_result=done,
    )
    return results  # type: ignore[return-value]
