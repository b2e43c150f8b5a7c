"""Sampled parents as ordinary cells of the repro.parallel pool and cache.

A sampled workload run is one :class:`~repro.parallel.cellkey.CellSpec`
per parent whose ``sample`` field holds the plan token
(:func:`sampled_parents`, which ``run_cells(..., sample=...)`` applies);
the token joins the cell key, so a sampled parent and its full run never
share a cache entry. :func:`~repro.parallel.executor.run_cell_spec` hands
such a cell to :func:`run_sampled_cell`, which runs a crisp parent's FDO
flow once, builds and traces the input once (:func:`expand_spec`), and
calls :func:`~repro.sampling.sampler.simulate_sampled`: one functional warmer
walked forward through the trace, each detailed interval started from a
copy of its state. The :class:`~repro.sampling.estimate.SampledEstimate`
travels in the cell record, so a warm re-run answers each parent with one
cache read, and parents get the pool's crash and retry supervision like
any other cell. Pooled execution is bit-identical to serial — guarded by
``tests/parallel/test_sampled_cells.py``.
"""

from __future__ import annotations

from dataclasses import replace

from ..parallel.cellkey import CellSpec
from ..parallel.executor import (
    CellResult, cell_annotation, cell_input, cell_record, run_cells)
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
    return cell_record(spec, estimate.ipc, estimate.extrapolated, critical,
                       extra={"sampled": estimate.to_dict()})


def sampled_parents(specs: list[CellSpec], sample: str) -> list[CellSpec]:
    """``specs`` with every parent's ``sample`` set to the plan's token."""
    token = parse_sample(sample).token()
    return [replace(spec, sample=token) if _is_parent(spec) else spec
            for spec in specs]


def run_cells_sampled(specs: list[CellSpec], plan: SamplingPlan,
                      **execution) -> list[CellResult]:
    """:func:`~repro.parallel.executor.run_cells` with ``sample=plan``,
    for callers that hold a parsed plan (``bench/``)."""
    return run_cells(specs, sample=plan.token(), **execution)
