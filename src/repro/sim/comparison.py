"""Paired baseline / CRISP / IBDA evaluation of a workload.

This is the measurement procedure of Section 5.1: the FDO flow (profiling,
slicing, annotation) runs on the *train* input; the annotated binary is
then evaluated on the *ref* input against the OOO baseline and the IBDA
hardware design, all on the same core configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.fdo import CrispConfig, CrispResult, run_crisp_flow
from ..uarch.config import CoreConfig
from ..workloads.base import REGISTRY
from .simulator import SimResult, simulate


@dataclass
class WorkloadComparison:
    """All evaluated modes for one workload on one core configuration."""

    name: str
    crisp_result: CrispResult
    runs: dict[str, SimResult] = field(default_factory=dict)

    def ipc(self, mode: str) -> float:
        return self.runs[mode].ipc

    def speedup(self, mode: str, over: str = "ooo") -> float:
        """IPC ratio of ``mode`` over the baseline (1.0 = no change)."""
        return self.runs[mode].ipc / self.runs[over].ipc

    def improvement_pct(self, mode: str, over: str = "ooo") -> float:
        return (self.speedup(mode, over) - 1.0) * 100.0


def compare_workload(
    name: str,
    *,
    scale: float = 1.0,
    config: CoreConfig | None = None,
    crisp_config: CrispConfig | None = None,
    modes: tuple[str, ...] = ("ooo", "crisp"),
) -> WorkloadComparison:
    """Run the train-input FDO flow, then evaluate ``modes`` on ref input."""
    config = config or CoreConfig.skylake()
    crisp_result = run_crisp_flow(
        name, crisp_config, core_config=config, scale=scale
    )
    ref = REGISTRY.build(name, variant="ref", scale=scale)
    comparison = WorkloadComparison(name=name, crisp_result=crisp_result)
    for mode in modes:
        # Each mode needs a fresh trace-independent pipeline but can share
        # the functional trace (the Workload caches it).
        comparison.runs[mode] = simulate(
            ref,
            mode,
            config=config,
            # Annotations only apply in crisp mode; simulate() rejects them
            # elsewhere to catch mislabeled sweeps.
            critical_pcs=crisp_result.critical_pcs if mode == "crisp" else frozenset(),
        )
    return comparison


def geomean(values: list[float]) -> float:
    """Geometric mean (the paper's summary statistic for speedups)."""
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
