"""Scheduling-delay diagnosis utilities.

These helpers answer the question at the heart of CRISP's mechanism: *how
long do latency-critical instructions sit ready in the reservation station
before the scheduler picks them?* They run a workload under two schedulers
with per-instruction timing recording enabled and report ready->issue
delays for any group of static PCs, plus where each run's cycles went.

Used by the scheduler-behaviour tests and handy for tuning workloads; this
is the software analogue of the per-event pipeline traces a hardware
simulator like Scarab can dump.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.fdo import CrispResult, run_crisp_flow
from ..telemetry.registry import StatsRegistry
from ..uarch.config import CoreConfig
from ..workloads.base import REGISTRY, Workload
from .simulator import pipeline_class


@dataclass
class DelayProfile:
    """Ready->issue delay statistics for one PC group in one run."""

    count: int = 0
    total_delay: int = 0
    max_delay: int = 0

    @property
    def mean_delay(self) -> float:
        return self.total_delay / self.count if self.count else 0.0

    def add(self, delay: int) -> None:
        self.count += 1
        self.total_delay += delay
        self.max_delay = max(self.max_delay, delay)


@dataclass
class DiagnosisRun:
    """One instrumented run.

    Cycle/stall numbers are read from the run's stats registry rather than
    copied field-by-field out of ``SimStats`` (every structure registers
    its counters there; see docs/METRICS.md for the names).
    """

    scheduler: str
    telemetry: StatsRegistry
    groups: dict[str, DelayProfile] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.telemetry.value("core.cycles")

    @property
    def ipc(self) -> float:
        cycles = self.cycles
        return self.telemetry.value("core.retired") / cycles if cycles else 0.0

    @property
    def rob_head_stall(self) -> int:
        return self.telemetry.value("core.stall.rob_head_cycles")

    @property
    def fetch_stall(self) -> int:
        return self.telemetry.value("core.stall.fetch_cycles")


def diagnose(
    workload: Workload,
    pc_groups: dict[str, set[int]],
    *,
    critical_pcs: frozenset[int] = frozenset(),
    config: CoreConfig | None = None,
) -> dict[str, DiagnosisRun]:
    """Run baseline and CRISP schedulers with timing recording.

    ``pc_groups`` maps a label (e.g. "delinquent", "burst") to static PCs;
    the result reports each group's ready->issue delay under both
    schedulers.
    """
    config = config or CoreConfig.skylake()
    trace = workload.trace()
    out: dict[str, DiagnosisRun] = {}
    for scheduler in ("oldest_first", "crisp"):
        pipeline = pipeline_class()(
            trace,
            config.with_scheduler(scheduler),
            critical_pcs=critical_pcs if scheduler == "crisp" else frozenset(),
            record_timing=True,
        )
        pipeline.run()
        run = DiagnosisRun(
            scheduler=scheduler,
            telemetry=pipeline.telemetry,
            groups={label: DelayProfile() for label in pc_groups},
        )
        for seq, issue in pipeline.issue_times.items():
            ready = pipeline.ready_times.get(seq)
            if ready is None:
                continue
            pc = trace.pc[seq]
            for label, pcs in pc_groups.items():
                if pc in pcs:
                    run.groups[label].add(issue - ready)
        out[scheduler] = run
    return out


def diagnose_workload(name: str, *, variant: str = "ref", scale: float = 1.0) -> str:
    """End-to-end diagnosis: run the FDO flow, then report delay profiles.

    Returns a human-readable report; the group split is delinquent loads
    vs. their slices vs. everything else.
    """
    result: CrispResult = run_crisp_flow(name, scale=scale)
    workload = REGISTRY.build(name, variant=variant, scale=scale)
    delinquent = set(result.classification.delinquent_loads)
    slices = set(result.critical_pcs) - delinquent
    groups = {"delinquent": delinquent, "slice": slices}
    runs = diagnose(workload, groups, critical_pcs=result.critical_pcs)
    lines = [f"== {name} ({variant}) =="]
    for scheduler, run in runs.items():
        lines.append(
            f"{scheduler:13s} IPC={run.ipc:.3f} cycles={run.cycles}"
            f" robHeadStall={run.rob_head_stall} fetchStall={run.fetch_stall}"
        )
        for label, profile in run.groups.items():
            lines.append(
                f"    {label:11s} n={profile.count:6d}"
                f" meanDelay={profile.mean_delay:6.1f} maxDelay={profile.max_delay}"
            )
    return "\n".join(lines)
