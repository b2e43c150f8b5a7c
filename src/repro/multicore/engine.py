"""The N-core lockstep co-run engine.

Every core is a full single-core pipeline — object or array engine,
unchanged — running its own workload with its own private L1s, MSHRs, and
prefetchers. What makes it a *co-run* is (a) the shared memory below the
private levels (:class:`~repro.memory.shared.SharedMemory`: one LLC, one
DRAM channel, one LLC-MSHR pool, optionally the cross-core prefetcher) and
(b) cycle-lockstep stepping.

Lockstep works through the engines' generator form: ``Pipeline.cycles()``
yields its local clock once per main-loop iteration, *after* the iteration
at the previous clock value completed and time advanced — so the yielded
value is the cycle the next resumption will simulate. The driver keeps a
min-heap of ``(next_cycle, core)`` and always resumes the earliest core
(ties broken by core id), which means every access to the shared memory
happens in globally nondecreasing ``(cycle, core)`` order: the co-run is a
pure function of its spec, independent of host scheduling — the property
behind serial/pooled and obj/array digest equality.

Idle fast-forward inside a core (the engines skip ahead to the next event
when nothing can move) is safe under this ordering: a skipping core makes
no memory accesses in the skipped range, and in-flight completions are
fixed at issue time, so no shared-state interaction is missed.

A 1-core spec takes the solo path — a plain private
:class:`~repro.memory.hierarchy.MemoryHierarchy` through the same drain —
making N=1 digest-identical to :func:`repro.sim.simulator.simulate` *by
construction* (acceptance criterion, asserted in tests/multicore/).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace

from ..memory.shared import SharedMemory, SharedMemoryHierarchy
from ..parallel.cellkey import CellSpec
from ..parallel.executor import cell_annotation, cell_input
from ..resilience.watchdog import cell_watchdog
from ..sim.simulator import pipeline_class, resolve_mode
from ..uarch.config import CoreConfig
from ..uarch.stats import SimStats
from .spec import CoRunSpec
from .stats import MulticoreStats


@dataclass
class CoRunResult:
    """Outcome of one co-run."""

    spec: CoRunSpec
    #: Merged view: per-core counters summed, ``cycles`` = global lockstep
    #: cycles, so ``stats.ipc`` is aggregate mix throughput. For N=1 this
    #: *is* the solo SimStats object, untouched.
    stats: SimStats
    #: Per-core attributed stats (LLC/DRAM fields reflect only that core's
    #: traffic, via the shared-memory views).
    per_core: list[SimStats]
    multicore: MulticoreStats
    #: Annotation each core actually ran with (empty for non-crisp cores).
    critical_pcs: list[tuple[int, ...]]

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    def core_ipc(self, core: int) -> float:
        """Core's own IPC on its own clock (comparable to its solo run)."""
        part = self.per_core[core]
        return part.retired / part.cycles if part.cycles else 0.0


def run_corun(
    spec: CoRunSpec,
    *,
    scale: float = 1.0,
    config: CoreConfig | None = None,
    engine: str | None = None,
    invariants: str | None = None,
    cycle_budget: int | None = None,
    crash_dir: str | None = None,
) -> CoRunResult:
    """Run one co-run to completion and return its result.

    ``config`` is the per-core configuration (every core gets the same
    base; per-core private prefetchers come from the task). Resilience
    knobs mirror :func:`~repro.sim.simulator.simulate`, applied per core.
    Each core takes its annotation and input as a cell of its task would
    (:func:`~repro.parallel.executor.cell_input`), so inside a cell group
    cores that run one input share its build.
    """
    base = config if config is not None else CoreConfig.skylake()
    ncores = spec.ncores
    hcfg = base.hierarchy

    shared = None
    if ncores > 1:
        shared = SharedMemory(
            ncores,
            llc_size=spec.shared_llc_size or hcfg.llc_size,
            llc_assoc=hcfg.llc_assoc,
            line_bytes=hcfg.line_bytes,
            dram=hcfg.dram,
            llc_mshrs_per_core=spec.llc_mshrs_per_core,
            llc_latency=hcfg.llc_latency,
            xcore=spec.llc_xcore,
        )

    pipes = []
    annotations: list[tuple[int, ...]] = []
    for idx, task in enumerate(spec.cores):
        core = CellSpec(
            workload=task.workload, mode=task.mode, scale=scale,
            variant=task.variant, critical_pcs=task.critical_pcs,
            crisp_config=task.crisp_config, config=base, engine=engine,
        )
        critical = cell_annotation(core)
        core_config, used, ibda = resolve_mode(task.mode, base, critical)
        if task.prefetchers is not None:
            core_config = replace(
                core_config,
                hierarchy=replace(core_config.hierarchy,
                                  prefetchers=tuple(task.prefetchers)),
            )
        annotations.append(tuple(sorted(used)))
        hierarchy = None
        if shared is not None:
            hierarchy = SharedMemoryHierarchy(core_config.hierarchy, shared, idx)
        context = {"workload": task.workload, "mode": task.mode,
                   "core": idx, "mix": spec.label}
        watchdog = cell_watchdog(cycle_budget, crash_dir, context)
        pipes.append(pipeline_class(engine)(
            cell_input(core).trace(),
            core_config,
            critical_pcs=used,
            ibda=ibda,
            hierarchy=hierarchy,
            invariants=invariants,
            watchdog=watchdog,
            run_context=context,
        ))

    per_core = _drive_lockstep(pipes, shared)
    return _assemble(spec, pipes, per_core, shared, annotations)


def _drive_lockstep(pipes, shared) -> list[SimStats]:
    """Resume cores in global (cycle, core) order until all complete."""
    gens = [pipe.cycles() for pipe in pipes]
    results: list[SimStats | None] = [None] * len(pipes)
    # Every generator's first resumption simulates from its cycle 0.
    heap = [(0, idx) for idx in range(len(pipes))]
    heapq.heapify(heap)
    while heap:
        now, idx = heapq.heappop(heap)
        if shared is not None:
            shared.advance(now)
        try:
            nxt = next(gens[idx])
        except StopIteration as stop:
            results[idx] = stop.value
            continue
        heapq.heappush(heap, (nxt, idx))
    return results  # type: ignore[return-value]


def _assemble(spec, pipes, per_core, shared, annotations) -> CoRunResult:
    ncores = len(per_core)
    global_cycles = max(part.cycles for part in per_core)
    if ncores == 1:
        # The solo path: hand the single SimStats through untouched so the
        # digest matches simulate() exactly (no merge-float round trips).
        merged = per_core[0]
    else:
        merged = SimStats.merge(per_core)
        merged.cycles = global_cycles

    mc = MulticoreStats(
        ncores=ncores,
        cycles=global_cycles,
        retired=sum(part.retired for part in per_core),
        core_cycles=[part.cycles for part in per_core],
        core_retired=[part.retired for part in per_core],
    )
    if shared is not None:
        llc, dram, pool = shared.llc, shared.dram, shared.pool
        mc.llc_accesses = llc.stats.accesses
        mc.llc_hits = llc.stats.hits
        mc.llc_misses = llc.stats.misses
        mc.llc_xcore_evictions = shared.stats.xcore_evictions
        mc.dram_requests = dram.stats.requests
        mc.dram_bus_stall_cycles = dram.stats.bus_stall_cycles
        mc.pool_allocations = sum(pool.allocations)
        mc.pool_full_stalls = sum(pool.full_stalls)
        mc.pool_peak_occupancy = pool.peak
        if shared.xcore is not None:
            mc.xpf_prefetches = shared.xcore.stats.prefetches
            mc.xpf_fills = shared.xcore.stats.fills
            mc.xpf_useful = shared.xcore.stats.useful
        mc.core_llc_accesses = [v.stats.accesses for v in shared.llc_views]
        mc.core_llc_hits = [v.stats.hits for v in shared.llc_views]
        mc.core_llc_misses = [v.stats.misses for v in shared.llc_views]
        mc.core_dram_requests = [v.stats.requests for v in shared.dram_views]
        mc.core_llc_occupancy = shared.occupancy_by_core()
        mc.core_pool_full_stalls = list(pool.full_stalls)
    else:
        hier = pipes[0].hierarchy
        mc.llc_accesses = hier.llc.stats.accesses
        mc.llc_hits = hier.llc.stats.hits
        mc.llc_misses = hier.llc.stats.misses
        mc.dram_requests = hier.dram.stats.requests
        mc.dram_bus_stall_cycles = hier.dram.stats.bus_stall_cycles
        mc.core_llc_accesses = [hier.llc.stats.accesses]
        mc.core_llc_hits = [hier.llc.stats.hits]
        mc.core_llc_misses = [hier.llc.stats.misses]
        mc.core_dram_requests = [hier.dram.stats.requests]
        mc.core_llc_occupancy = [hier.llc.occupancy()]
        mc.core_pool_full_stalls = [0]

    return CoRunResult(
        spec=spec,
        stats=merged,
        per_core=per_core,
        multicore=mc,
        critical_pcs=annotations,
    )
