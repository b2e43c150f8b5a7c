"""Top-level simulation entry points.

``simulate`` runs one workload through one core configuration in one of the
evaluated modes:

* ``"ooo"``   -- the Table 1 baseline (oldest-ready-first scheduler),
* ``"crisp"`` -- CRISP-annotated binary + critical-first scheduler,
* ``"ibda-1k" / "ibda-8k" / "ibda-64k" / "ibda-inf"`` -- hardware IBDA
  marking + critical-first scheduler (the Section 5.2 comparison points).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..core.ibda import make_ibda
from ..resilience.watchdog import Watchdog
from ..telemetry.registry import StatsRegistry
from ..telemetry.report import RunReport, build_report
from ..telemetry.tracer import EventTracer
from ..uarch.config import CoreConfig
from ..uarch.pipeline import Pipeline
from ..uarch.stats import SimStats
from ..workloads.base import Workload

MODES = ("ooo", "crisp", "ibda-1k", "ibda-8k", "ibda-64k", "ibda-inf")

#: Implementations of the cycle model (docs/ENGINE.md): ``"obj"`` is the
#: per-object reference pipeline, ``"array"`` the struct-of-arrays hot
#: path. Both produce identical SimStats digests for every cell.
ENGINES = ("obj", "array")


def resolve_engine(engine: str | None = None) -> str:
    """Validate ``engine`` and apply the defaulting chain.

    ``None`` falls back to the ``REPRO_ENGINE`` environment variable and
    then to ``"array"``. The env hook exists so an entire test suite or CI
    leg can be flipped back to the object engine, the semantics oracle,
    without threading a flag through every call site
    (``REPRO_ENGINE=obj python -m pytest``).
    """
    if engine is None:
        engine = os.environ.get("REPRO_ENGINE") or "array"
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known: {ENGINES}")
    return engine


def pipeline_class(engine: str | None = None) -> type[Pipeline]:
    """The :class:`Pipeline` implementation for ``engine`` (see ENGINES)."""
    if resolve_engine(engine) == "array":
        from ..uarch.array_engine import ArrayPipeline

        return ArrayPipeline
    return Pipeline


def resolve_mode(
    mode: str,
    config: CoreConfig | None = None,
    critical_pcs: frozenset[int] | None = None,
):
    """Validate ``mode`` and return ``(config, critical_pcs, ibda)``.

    The shared mode-resolution used by :func:`simulate` and the sampled
    path (:mod:`repro.sampling.sampler`): the returned config carries the
    mode's scheduler policy, ``critical_pcs`` is non-empty only in
    ``"crisp"`` mode, and ``ibda`` is an engine instance for the hardware
    IBDA modes (``None`` otherwise).

    ``"crisp"`` mode needs an annotation, possibly empty: with
    ``critical_pcs=None`` it raises :class:`ValueError` rather than run
    the crisp scheduler with nothing tagged, which answers like ``"ooo"``.
    A cell's annotation comes from
    :func:`repro.parallel.executor.cell_annotation`.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; known: {MODES}")
    if critical_pcs is None:
        if mode == "crisp":
            raise ValueError(
                "mode 'crisp' needs critical_pcs: pass the FDO flow's "
                "annotation (repro.parallel.executor.cell_annotation gives "
                "a cell's), or frozenset() to tag nothing"
            )
        critical_pcs = frozenset()
    elif critical_pcs and mode != "crisp":
        raise ValueError(
            f"critical_pcs passed in mode {mode!r}: annotations are only "
            "consumed in 'crisp' mode; this usually means a mislabeled sweep"
        )
    config = config or CoreConfig.skylake()
    if mode == "ooo":
        return config.with_scheduler("oldest_first"), frozenset(), None
    if mode == "crisp":
        return config.with_scheduler("crisp"), frozenset(critical_pcs), None
    size = mode.split("-", 1)[1]
    return config.with_scheduler("crisp"), frozenset(), make_ibda(size)


@dataclass
class SimResult:
    """One timing run."""

    workload_name: str
    mode: str
    stats: SimStats
    critical_pcs: frozenset[int]
    #: The run's stats registry (every structure's counters/gauges); see
    #: docs/METRICS.md. None only for hand-built results.
    registry: StatsRegistry | None = None

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    def report(self) -> RunReport:
        """Render this run as a markdown/JSON report (docs/OBSERVABILITY.md)."""
        return build_report(self)


def simulate(
    workload: Workload,
    mode: str = "ooo",
    *,
    config: CoreConfig | None = None,
    critical_pcs: frozenset[int] | None = None,
    upc_window: int = 0,
    tracer: EventTracer | None = None,
    invariants: str | None = None,
    watchdog: Watchdog | None = None,
    engine: str | None = None,
) -> SimResult:
    """Run ``workload`` in ``mode`` and return the result.

    ``critical_pcs`` is required (and only used) in ``"crisp"`` mode: the
    annotation produced by the FDO flow on the train input, which
    :func:`repro.parallel.executor.cell_annotation` gives for a cell's
    :class:`~repro.parallel.cellkey.CellSpec`. Omitting it in crisp mode
    raises :class:`ValueError` (pass ``frozenset()`` to tag nothing). The
    binary is laid out with the one-byte prefix on those instructions, so
    i-cache effects of the annotation are part of the measurement
    (Section 5.7). Passing annotations in any other mode raises
    :class:`ValueError` — they would be silently ignored, which almost
    always means a mislabeled sweep.

    Pass an :class:`~repro.telemetry.tracer.EventTracer` to stream pipeline
    events (and populate the latency/delay histograms) during the run.

    Resilience knobs (docs/RESILIENCE.md): ``invariants`` selects the audit
    cadence (``"off"``/``"periodic"``/``"full"``; default off), and
    ``watchdog`` overrides livelock/cycle limits; a watchdog with a
    ``crash_dir`` makes failures write a crash bundle there.

    ``engine`` picks the cycle-model implementation (``"obj"``/``"array"``,
    default from ``REPRO_ENGINE`` then ``"array"``); results are identical
    either way — see docs/ENGINE.md for the equivalence contract.
    """
    config, used, ibda = resolve_mode(mode, config, critical_pcs)
    run_context = {"workload": workload.name, "mode": mode}
    resilience = dict(invariants=invariants, watchdog=watchdog, run_context=run_context)
    trace = workload.trace()
    pipeline = pipeline_class(engine)(
        trace,
        config,
        critical_pcs=used,
        ibda=ibda,
        upc_window=upc_window,
        tracer=tracer,
        **resilience,
    )
    stats = pipeline.run()
    return SimResult(workload.name, mode, stats, used, registry=pipeline.telemetry)
