"""Simulator observability: stats registry, event tracing, run reports.

Three pieces (see docs/OBSERVABILITY.md for the user guide and
docs/METRICS.md for the metric reference):

* :mod:`repro.telemetry.registry` -- hierarchical counters / gauges /
  histograms every pipeline structure registers into,
* :mod:`repro.telemetry.tracer` -- cycle-sampled pipeline event traces
  (JSONL + ``chrome://tracing``),
* :mod:`repro.telemetry.report` -- per-run markdown/JSON summaries.
"""

from __future__ import annotations

from .registry import Counter, Gauge, Histogram, Metric, Scope, StatsRegistry
from .report import RunReport, build_report, stall_attribution, top_stall_pcs
from .tracer import EVENT_TYPES, JSONL_SCHEMA, EventTracer, validate_event

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "Scope",
    "StatsRegistry",
    "EventTracer",
    "EVENT_TYPES",
    "JSONL_SCHEMA",
    "validate_event",
    "RunReport",
    "build_report",
    "stall_attribution",
    "top_stall_pcs",
    "metrics_catalog",
]


def metrics_catalog() -> StatsRegistry:
    """The canonical registry: every metric a default pipeline registers.

    Builds a minimal :class:`~repro.uarch.pipeline.Pipeline` (no run) so
    registration alone populates the registry, then adds the parallel
    execution layer's cache/pool counters (docs/PARALLEL.md).
    ``docs/METRICS.md`` and the ``scripts/check_metrics_docs.py`` lint are
    defined against this set.
    """
    from ..isa import Asm, execute  # local import: avoids a package cycle
    from ..multicore.stats import MulticoreStats
    from ..parallel.cache import CacheStats
    from ..parallel.executor import PoolStats
    from ..serve.telemetry import ServeStats
    from ..uarch.config import CoreConfig
    from ..uarch.pipeline import Pipeline

    a = Asm()
    a.movi("r1", 0)
    a.halt()
    pipeline = Pipeline(execute(a.build()), CoreConfig.skylake())
    registry = pipeline.telemetry
    CacheStats().register_into(registry)
    PoolStats().register_into(registry)
    ServeStats().register_into(registry)
    MulticoreStats().register_into(registry)
    return registry
