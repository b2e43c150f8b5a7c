"""Declarative experiment orchestration: Target × Instance × Experiment.

The paper's evaluation is a cross product — workloads × core configs ×
modes × seeds — but each figure script used to re-declare its own slice of
it by hand. This package factors that out (docs/ORCHESTRATION.md), in the
style of instrumentation-infra's Target/Instance split:

* a :class:`Target` is one workload input (name + variant, where the
  variant may be a ``ref#<n>`` seed replica),
* an :class:`Instance` is one way of running it (mode + core config +
  CRISP knobs + explicit annotation),
* an :class:`Experiment` is a named selection over the cross product plus
  a report definition, registered under a stable id.

``python -m repro.orchestrate {list,run,report}`` lowers any selection to
:class:`~repro.parallel.cellkey.CellSpec` cells through the existing
pool/cache/sampling stack (``--jobs``/``--cache-dir``/``--resume``/
``--sample``/``--engine`` compose uniformly), writes per-run result
directories with a manifest recording the full instance identity, and
renders aggregated report tables (median/stdev over seed replicas,
markdown + JSON).
"""

from __future__ import annotations

from .experiment import (
    Experiment,
    PlannedCell,
    experiment_names,
    get_experiment,
    register,
    registry,
)
from .instance import Instance
from .report import aggregate_rows, aggregate_table
from .rundir import (
    MANIFEST_VERSION,
    RunIdentityError,
    build_manifest,
    load_manifest,
    new_run_dir,
    verify_identity,
)
from .runs import execute_run, report_run
from .target import Target

__all__ = [
    "Experiment",
    "Instance",
    "MANIFEST_VERSION",
    "PlannedCell",
    "RunIdentityError",
    "Target",
    "aggregate_rows",
    "aggregate_table",
    "build_manifest",
    "execute_run",
    "experiment_names",
    "get_experiment",
    "load_manifest",
    "new_run_dir",
    "register",
    "registry",
    "report_run",
    "verify_identity",
]
