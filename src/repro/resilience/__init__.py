"""Resilience layer: invariant checking, watchdog, faults, crash bundles.

Four pieces (user guide: docs/RESILIENCE.md):

* :mod:`repro.resilience.invariants` -- structural pipeline audits at a
  configurable cadence (``--invariants=off|periodic|full``),
* :mod:`repro.resilience.watchdog` -- no-retire livelock detection that
  replaces the blunt ``max_cycles`` abort and writes crash bundles,
* :mod:`repro.resilience.faults` -- deterministic fault injection used by
  ``tests/resilience`` to prove each fault class is actually caught,
* :mod:`repro.resilience.crash_bundle` -- JSON post-mortems (registry
  snapshot, trace tail, stall attribution, config, run context).

Resumable runs built on top of this layer are orchestrate run dirs
(:func:`repro.orchestrate.execute_run`, docs/ORCHESTRATION.md).

Nothing here imports :mod:`repro.uarch` at module level — the pipeline
imports *us*, and the audits are duck-typed against its structures.
"""

from __future__ import annotations

from .crash_bundle import (
    BUNDLE_VERSION,
    build_bundle,
    bundle_from_pipeline,
    load_crash_bundle,
    write_crash_bundle,
)
from .errors import CellTimeout, DeadlockError, InvariantViolation, SimulationError
from .faults import CHAOS_CLASSES, ChaosInjector, FAULT_CLASSES, FaultInjector, inject
from .policy import (
    CONFIG,
    HARD,
    TRANSIENT,
    RetryPolicy,
    classify,
)
from .invariants import (
    INVARIANT_CLASSES,
    InvariantChecker,
    audit_age_matrix,
    check_age_matrix,
)
from .watchdog import DEFAULT_LIVELOCK_CYCLES, CycleBudgetWatchdog, Watchdog

__all__ = [
    "BUNDLE_VERSION",
    "CellTimeout",
    "CHAOS_CLASSES",
    "ChaosInjector",
    "CONFIG",
    "CycleBudgetWatchdog",
    "DEFAULT_LIVELOCK_CYCLES",
    "DeadlockError",
    "FAULT_CLASSES",
    "FaultInjector",
    "HARD",
    "INVARIANT_CLASSES",
    "InvariantChecker",
    "InvariantViolation",
    "RetryPolicy",
    "SimulationError",
    "TRANSIENT",
    "Watchdog",
    "audit_age_matrix",
    "build_bundle",
    "bundle_from_pipeline",
    "check_age_matrix",
    "classify",
    "inject",
    "load_crash_bundle",
    "write_crash_bundle",
]
