"""Functional-warmup fidelity (ISSUE satellite: state-digest equivalence).

Functional warming over a *full* trace must leave the long-lived
microarchitectural state — cache contents + LRU order, TAGE tables, BTB,
RAS — identical to what a detailed simulation of the same trace produces.
The digests canonicalise to content + recency *order* (not raw tick
values), since the two executions run on different clocks.
"""

from __future__ import annotations

import pytest
from tests.conftest import make_chase_workload

from repro.isa import execute
from repro.memory.hierarchy import HierarchyConfig
from repro.sampling import (
    FunctionalWarmer,
    pipeline_state_digest,
    slice_trace,
    state_digest,
    systematic_intervals,
)
from repro.uarch import CoreConfig
from repro.uarch.pipeline import Pipeline
from repro.workloads import get_workload


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
