"""Robustness and failure-injection tests across module boundaries."""

import pytest

from repro.core import (
    CrispConfig,
    DelinquencyConfig,
    Rewriter,
    classify,
    extract_slice,
    profile_workload,
    run_crisp_flow,
)
from repro.core.profiler import ProfileReport
from repro.isa import Asm, execute
from repro.sim import simulate
from repro.uarch import CoreConfig, Pipeline
from repro.workloads import Workload


def _trivial_workload():
    a = Asm()
    a.movi("r1", 1)
    a.halt()
    return Workload(name="trivial", program=a.build(), memory={})


def test_flow_on_workload_with_no_memory_traffic():
    """A program with no loads at all must flow through FDO untouched."""
    w = _trivial_workload()
    flow = run_crisp_flow("trivial", train_workload=w)
    assert flow.critical_pcs == frozenset()
    assert flow.classification.delinquent_loads == []
    # And simulate cleanly in CRISP mode with the empty annotation.
    result = simulate(w, "crisp", critical_pcs=flow.critical_pcs)
    assert result.stats.retired == 2


def test_halt_only_program():
    a = Asm()
    a.halt()
    trace = execute(a.build())
    stats = Pipeline(trace, CoreConfig.skylake()).run()
    assert stats.retired == 1
    assert stats.ipc > 0


def test_classifier_on_empty_profile():
    profile = ProfileReport(
        workload_name="empty",
        variant="train",
        total_insts=0,
        total_cycles=0,
        total_loads=0,
        total_llc_load_misses=0,
        ipc=0.0,
        load_fraction=0.0,
    )
    result = classify(profile)
    assert result.delinquent_loads == []
    assert result.hard_branches == []


def test_rewriter_with_zero_execution_counts():
    a = Asm()
    a.movi("r1", 1)
    a.halt()
    rewriter = Rewriter(a.build(), {})
    annotation = rewriter.annotate({0: {0}}, {0: 1.0})
    assert annotation.critical_ratio == 0.0
    assert annotation.dynamic_overhead == 0.0


def test_slice_of_load_with_constant_address():
    a = Asm()
    a.movi("r1", 0x1000)
    a.load("r2", "r1", 0)
    a.halt()
    t = execute(a.build())
    s = extract_slice(t, 1)
    assert s.pcs == {0, 1}


def test_extreme_thresholds_degenerate_gracefully():
    # Threshold above 1.0: nothing can qualify.
    config = CrispConfig(delinquency=DelinquencyConfig().with_threshold(1.5))
    flow = run_crisp_flow("mcf", config, scale=0.25)
    assert flow.classification.delinquent_loads == []
    # Threshold 0: everything missing qualifies; guardrail still bounds it.
    config = CrispConfig(delinquency=DelinquencyConfig().with_threshold(0.0))
    flow = run_crisp_flow("mcf", config, scale=0.25)
    assert flow.annotation.critical_ratio <= 0.45


def test_tagging_nonexistent_pcs_is_harmless():
    """Layout only grows for PCs that exist; stray tags must not crash."""
    w = _trivial_workload()
    result = simulate(w, "crisp", critical_pcs=frozenset({0}))
    assert result.stats.retired == 2


def test_profile_then_mutate_config_does_not_leak():
    """Profiling must not mutate shared workload or config state."""
    from repro.workloads import get_workload

    w = get_workload("mcf", "train", scale=0.25)
    before = len(w.trace())
    profile_workload(w)
    profile_workload(w, CoreConfig.plus100())
    assert len(w.trace()) == before
