"""Sampled-simulation orchestration.

``simulate_sampled`` plans the intervals for a whole workload (systematic
SMARTS schedule or SimPoint selection), walks one functional warmer forward
through the trace in interval-start order, runs each interval through
``simulate_interval`` behind a copy of the warmed state, and combines them
into a :class:`~repro.sampling.estimate.SampledEstimate`. A sampled cell of
the repro.parallel pool runs exactly this loop (:mod:`repro.sampling.cells`).
"""

from __future__ import annotations

from ..sim.simulator import SimResult, pipeline_class, resolve_mode
from ..uarch.config import CoreConfig
from .estimate import SampledEstimate, estimate_from_intervals
from .intervals import Interval, SamplingPlan, slice_trace, systematic_intervals
from .simpoint import simpoint_intervals
from .warmup import FunctionalWarmer


def simulate_interval(
    workload,
    mode: str = "ooo",
    *,
    interval: tuple[int, int],
    config: CoreConfig | None = None,
    critical_pcs: frozenset[int] | None = None,
    warmed: FunctionalWarmer | None = None,
    invariants: str | None = None,
    watchdog=None,
    engine: str | None = None,
) -> SimResult:
    """Detailed-simulate trace positions ``[start, end)`` of ``workload``.

    ``warmed`` is a finished warmer that has replayed ``[0, start)``; its
    cache hierarchy / predictor / BTB / RAS are injected into the pipeline
    (:func:`simulate_sampled` passes one). Without it the interval replays
    ``[0, start)`` through a fresh
    :class:`~repro.sampling.warmup.FunctionalWarmer` first — the reference
    the one-pass warmer is tested against. The returned
    :class:`~repro.sim.simulator.SimResult` carries the *interval's*
    stats (cycles and retired count cover only the detailed region).
    ``engine`` picks the detailed cycle-model implementation
    (docs/ENGINE.md); warmup is functional either way.
    """
    config, critical, ibda = resolve_mode(mode, config, critical_pcs)
    trace = workload.trace()
    start, end = interval
    if not 0 <= start < end <= len(trace.insts):
        raise ValueError(
            f"interval [{start}, {end}) outside trace of {len(trace.insts)} insts"
        )
    if warmed is None and start > 0:
        warmed = FunctionalWarmer(trace.program, config, critical_pcs=critical)
        warmed.warm(trace, 0, start)
        warmed.finish()
    warm_components = warmed.components() if warmed is not None else {}
    run_context = {"workload": workload.name, "mode": mode, "interval": [start, end]}
    pipeline = pipeline_class(engine)(
        slice_trace(trace, start, end),
        config,
        critical_pcs=critical,
        ibda=ibda,
        invariants=invariants,
        watchdog=watchdog,
        run_context=run_context,
        **warm_components,
    )
    return SimResult(
        workload.name, mode, pipeline.run(), critical, registry=pipeline.telemetry
    )


def plan_for_trace(plan: SamplingPlan, trace) -> list[Interval]:
    """Materialise a plan's detailed intervals for one concrete trace."""
    if plan.policy == "smarts":
        return systematic_intervals(len(trace.insts), plan.detail, plan.period)
    if plan.policy == "simpoint":
        return simpoint_intervals(trace, plan.clusters, plan.interval)
    raise ValueError(f"cannot plan intervals for policy {plan.policy!r}")


def simulate_sampled(
    workload,
    mode: str = "ooo",
    *,
    plan: SamplingPlan,
    config: CoreConfig | None = None,
    critical_pcs: frozenset[int] | None = None,
    invariants: str | None = None,
    watchdog=None,
    engine: str | None = None,
) -> SampledEstimate:
    """Run ``workload`` sampled per ``plan`` and return the estimate.

    One :class:`~repro.sampling.warmup.FunctionalWarmer` walks the trace
    forward once, in interval-start order, and each detailed interval
    starts from a finished copy of its state, so warming costs one pass up
    to the last interval start however many intervals there are. That
    state equals what warming ``[0, start)`` afresh gives
    (``tests/sampling/test_warmup.py``), so the estimate does too.
    ``watchdog`` guards each interval's pipeline. ``critical_pcs`` is as
    in :func:`~repro.sim.simulator.simulate`: required in ``"crisp"`` mode.
    """
    if plan.off:
        raise ValueError("plan is 'off'; call repro.sim.simulate instead")
    trace = workload.trace()
    intervals = plan_for_trace(plan, trace)
    warm_config, critical, _ = resolve_mode(mode, config, critical_pcs)
    warmer = FunctionalWarmer(trace.program, warm_config, critical_pcs=critical)
    warmed_to = 0
    interval_stats: list = [None] * len(intervals)
    for position in sorted(range(len(intervals)), key=lambda i: intervals[i].start):
        iv = intervals[position]
        warmer.warm(trace, warmed_to, iv.start)
        warmed_to = iv.start
        interval_stats[position] = simulate_interval(
            workload,
            mode,
            interval=(iv.start, iv.end),
            config=config,
            critical_pcs=critical_pcs,
            warmed=warmer.copy().finish() if iv.start else None,
            invariants=invariants,
            watchdog=watchdog,
            engine=engine,
        ).stats
    return estimate_from_intervals(
        intervals, interval_stats, len(trace.insts), policy=plan.policy
    )
