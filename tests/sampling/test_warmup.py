"""Functional-warmup fidelity.

Functional warming over a *full* trace must leave the long-lived
microarchitectural state — cache contents + LRU order, TAGE tables, BTB,
RAS — identical to what a detailed simulation of the same trace produces.
The digests canonicalise to content + recency *order* (not raw tick
values), since the two executions run on different clocks.

The table-driven ``FunctionalWarmer.warm`` must also leave *every*
attribute — prefetcher tables, MSHR and DRAM state and raw LRU ticks
included, which the digests leave out and a detailed interval reads —
byte-identical to :func:`reference_warm`, the per-``DynInst`` walk it
replaced.
"""

from __future__ import annotations

import pickle

import pytest
from tests.conftest import make_chase_workload

from repro.core.fdo import run_crisp_flow
from repro.isa import execute
from repro.memory.hierarchy import HierarchyConfig
from repro.sampling import (
    FunctionalWarmer,
    pipeline_state_digest,
    slice_trace,
    state_digest,
    systematic_intervals,
)
from repro.sampling.warmup import CLOCK_STRIDE
from repro.uarch import CoreConfig
from repro.uarch.pipeline import Pipeline
from repro.workloads import build_pointer_chase, get_workload


def fidelity_config() -> CoreConfig:
    """Config whose state evolution is timing-independent.

    Prefetchers and FDIP issue accesses whose addresses/order depend on
    cycle-level timing, so exact state equivalence is only defined without
    them; docs/SAMPLING.md discusses the approximation they introduce.
    """
    return CoreConfig.skylake(
        fdip_lines_per_cycle=0,
        hierarchy=HierarchyConfig(prefetchers=()),
    )


def test_functional_warmup_reproduces_detailed_state():
    program, memory, _ = make_chase_workload(num_nodes=96)
    trace = execute(program, memory=memory)
    config = fidelity_config()

    pipeline = Pipeline(trace, config)
    pipeline.run()
    detailed = pipeline_state_digest(pipeline)

    warmer = FunctionalWarmer(program, config)
    warmer.warm(trace)
    warmed = state_digest(warmer.hierarchy, warmer.predictor, warmer.btb, warmer.ras)

    assert warmed == detailed


def test_warmup_covers_branch_state_of_loop_trace(tiny_loop_program):
    trace = execute(tiny_loop_program)
    config = fidelity_config()

    pipeline = Pipeline(trace, config)
    pipeline.run()

    warmer = FunctionalWarmer(tiny_loop_program, config)
    warmer.warm(trace)

    assert state_digest(
        warmer.hierarchy, warmer.predictor, warmer.btb, warmer.ras
    ) == pipeline_state_digest(pipeline)


def test_finish_resets_stats_but_keeps_content():
    program, memory, _ = make_chase_workload(num_nodes=32)
    trace = execute(program, memory=memory)
    config = fidelity_config()

    warmer = FunctionalWarmer(program, config)
    warmer.warm(trace)
    before = state_digest(
        warmer.hierarchy, warmer.predictor, warmer.btb, warmer.ras
    )
    warmer.finish()

    hier = warmer.hierarchy
    assert hier.l1d.stats.accesses == 0
    assert hier.llc.stats.accesses == 0
    assert hier.dram.stats.requests == 0
    assert warmer.predictor.stats.predictions == 0
    # Timing state is rebased so a fresh pipeline's clock works from 0.
    assert hier.last_advance == 0
    assert hier.dram._bus_free == 0
    # Content (lines + LRU order, predictor tables) survives the reset.
    after = state_digest(
        warmer.hierarchy, warmer.predictor, warmer.btb, warmer.ras
    )
    assert after == before


def test_partial_warmup_then_detailed_interval_runs(tiny_loop_program):
    """The handoff path: warm a prefix, run the suffix in detail."""
    from repro.sampling import slice_trace

    trace = execute(tiny_loop_program)
    n = len(trace.insts)
    config = fidelity_config()
    warmer = FunctionalWarmer(tiny_loop_program, config)
    warmer.warm(trace, 0, n // 2)
    warmer.finish()
    stats = Pipeline(
        slice_trace(trace, n // 2, n), config, **warmer.components()
    ).run()
    assert stats.retired == n - n // 2


@pytest.mark.parametrize("mode", ["ooo", "crisp"])
def test_one_pass_warmer_matches_warming_from_zero(mode):
    """The sampled loop's chained warmer: at every interval start a
    finished copy equals a warmer that replayed ``[0, start)`` afresh, and
    running the interval on a copy leaves the chained warmer untouched."""
    trace = get_workload("mcf", scale=0.1).trace()
    config = CoreConfig.skylake()
    critical = frozenset()
    if mode == "crisp":  # the 1-byte prefixes move every later PC
        critical = frozenset(inst.idx for inst in trace.program if inst.is_load)
    intervals = systematic_intervals(len(trace.insts), 100, 500)
    assert len(intervals) >= 4

    def chained_digest() -> str:
        return state_digest(chained.hierarchy, chained.predictor, chained.btb,
                            chained.ras, drain=False)

    chained = FunctionalWarmer(trace.program, config, critical_pcs=critical)
    warmed_to = 0
    for iv in intervals:
        chained.warm(trace, warmed_to, iv.start)
        warmed_to = iv.start
        fresh = FunctionalWarmer(trace.program, config, critical_pcs=critical)
        fresh.warm(trace, 0, iv.start)
        assert chained.copy().finish().digest() == fresh.finish().digest()

        before = chained_digest()
        Pipeline(slice_trace(trace, iv.start, iv.end), config,
                 critical_pcs=critical, **chained.copy().finish().components()).run()
        assert chained_digest() == before


# -- the reference walk --------------------------------------------------------


def reference_warm(warmer, trace, start=0, end=None) -> None:
    """Warm ``[start, end)`` one ``DynInst`` at a time, every access through
    its ``MemoryHierarchy`` call and every branch through
    :func:`reference_train_branch` (the walk ``warm`` replaced)."""
    insts = trace.insts
    if end is None:
        end = len(insts)
    hier = warmer.hierarchy
    addrs = warmer.layout.addresses
    sizes = warmer.layout.sizes
    line_mask = ~(hier.config.line_bytes - 1)
    for pos in range(start, end):
        d = insts[pos]
        warmer.clock += CLOCK_STRIDE
        now = warmer.clock
        pc_addr = addrs[d.pc]
        end_addr = pc_addr + sizes[d.pc] - 1
        for probe in (pc_addr & line_mask, end_addr & line_mask):
            if probe != warmer._last_line:
                hier.inst_fetch(probe, now)
                warmer._last_line = probe
        sinst = d.sinst
        if sinst.is_branch:
            reference_train_branch(warmer, trace, pos, d, sinst, pc_addr)
        if sinst.is_load:
            if d.mem_src < 0:
                hier.load(pc_addr, d.addr, now)
        elif sinst.is_store:
            hier.store(pc_addr, d.addr, now)
        elif sinst.is_prefetch:
            hier.software_prefetch(pc_addr, d.addr, now)
    warmer.warmed_insts += max(0, end - start)


def reference_train_branch(warmer, trace, pos, d, sinst, pc_addr) -> None:
    """``Pipeline._predict_branch``'s state updates, without its stats."""
    addrs = warmer.layout.addresses
    if sinst.is_cond_branch:
        predicted = warmer.predictor.predict(pc_addr, d.taken)
        warmer.predictor.update(pc_addr, d.taken)
        if predicted != d.taken or not d.taken:
            return
        warmer.btb.lookup(pc_addr)
        warmer.btb.update(pc_addr, addrs[trace.pc_after(pos)])
        return
    warmer.predictor.note_branch(True)
    if sinst.is_ret:
        warmer.ras.pop()
        return
    if sinst.is_call:
        warmer.ras.push(addrs[sinst.idx + 1])
    warmer.btb.lookup(pc_addr)
    warmer.btb.update(pc_addr, addrs[trace.pc_after(pos)])


def warmer_state(warmer) -> bytes:
    """Every attribute but ``layout``, pickled."""
    return pickle.dumps(
        {key: value for key, value in vars(warmer).items() if key != "layout"},
        pickle.HIGHEST_PROTOCOL,
    )


def assert_walks_identical(trace, critical=frozenset()):
    """Walk a SMARTS schedule with both walks, comparing pickled state
    after every chunk, before and after ``finish()``."""
    config = CoreConfig.skylake()  # default prefetchers on
    n = len(trace.insts)
    bounds = [iv.start for iv in systematic_intervals(n, 100, 1000)] + [n]
    assert len(bounds) >= 5
    table = FunctionalWarmer(trace.program, config, critical_pcs=critical)
    reference = FunctionalWarmer(trace.program, config, critical_pcs=critical)
    warmed_to = 0
    for bound in bounds:
        table.warm(trace, warmed_to, bound)
        reference_warm(reference, trace, warmed_to, bound)
        warmed_to = bound
        assert warmer_state(table) == warmer_state(reference), bound
        assert (warmer_state(table.copy().finish())
                == warmer_state(reference.copy().finish())), bound
    assert table.warmed_insts == n


@pytest.mark.parametrize("name", ["mcf", "xz", "perlbench"])
@pytest.mark.parametrize("mode", ["ooo", "crisp"])
def test_table_walk_matches_reference_walk(name, mode):
    trace = get_workload(name, scale=0.2).trace()
    critical = frozenset()
    if mode == "crisp":  # the FDO flow's tags; prefixes straddle lines
        critical = run_crisp_flow(name, scale=0.2).critical_pcs
        assert critical
    assert_walks_identical(trace, critical)


def test_table_walk_matches_reference_walk_with_software_prefetch():
    trace = build_pointer_chase(scale=0.2, manual_prefetch=True).trace()
    assert any(d.sinst.is_prefetch for d in trace.insts)
    assert_walks_identical(trace)
