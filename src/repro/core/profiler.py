"""Simulated PMU / PEBS profiling (Section 3.2's measurement layer).

The paper derives load criticality from Intel PMU counters, PEBS, LBR and
PT. Here the profiling run is a baseline timing simulation whose per-PC
tables play the role of those facilities:

* per-load execution count, LLC miss count, AMAT, and MLP sampled at each
  miss (PEBS-with-latency equivalents),
* per-branch execution and misprediction counts (LBR equivalents),
* head-of-ROB stall attribution (precise back-end stall events),
* whole-program IPC and instruction mix (plain PMU counters).

Real PEBS samples rather than counts exactly; :func:`apply_sampling`
degrades the exact profile to a sampled one (deterministic binomial
thinning) so the robustness of the flow to sampling noise can be tested.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..uarch.config import CoreConfig
from ..uarch.stats import PcBranchStats, PcLoadStats, SimStats
from ..workloads.base import Workload


@dataclass
class ProfileReport:
    """Everything CRISP's software pass needs to know about one run."""

    workload_name: str
    variant: str
    total_insts: int
    total_cycles: int
    total_loads: int
    total_llc_load_misses: int
    ipc: float
    load_fraction: float
    loads: dict[int, PcLoadStats] = field(default_factory=dict)
    branches: dict[int, PcBranchStats] = field(default_factory=dict)
    rob_head_stall_by_pc: dict[int, int] = field(default_factory=dict)

    def miss_contribution(self, pc: int) -> float:
        """Fraction of all LLC load misses contributed by ``pc``."""
        if not self.total_llc_load_misses:
            return 0.0
        stats = self.loads.get(pc)
        return stats.llc_misses / self.total_llc_load_misses if stats else 0.0

    def exec_ratio(self, pc: int) -> float:
        """Fraction of all executed loads that are instances of ``pc``."""
        if not self.total_loads:
            return 0.0
        stats = self.loads.get(pc)
        return stats.execs / self.total_loads if stats else 0.0

    def amat(self, pc: int) -> float:
        stats = self.loads.get(pc)
        return stats.amat if stats else 0.0

    def top_missing_loads(self, count: int = 10) -> list[tuple[int, int]]:
        """(pc, llc_misses) pairs, highest first."""
        pairs = [(pc, s.llc_misses) for pc, s in self.loads.items() if s.llc_misses]
        pairs.sort(key=lambda item: -item[1])
        return pairs[:count]

    def hard_branches(self, threshold: float = 0.15, min_execs: int = 16) -> list[int]:
        """PCs of conditional branches with mispredict rate above ``threshold``."""
        return sorted(
            pc
            for pc, s in self.branches.items()
            if s.execs >= min_execs and s.mispredict_rate > threshold
        )


def profile_workload(
    workload: Workload,
    config: CoreConfig | None = None,
    *,
    engine: str | None = None,
) -> tuple[ProfileReport, SimStats]:
    """Run the baseline core over ``workload`` and distil a profile.

    The profiling run is the ``"ooo"`` run of ``workload`` (Figure 5 step
    1: unmodified binaries on unmodified hardware, before any annotation
    exists), the same :func:`~repro.sim.simulator.simulate` call an
    ``ooo`` cell makes, so a ``config`` with another scheduler still
    profiles on the baseline one. ``engine`` picks the cycle-model
    implementation; the profile is identical either way.
    """
    from ..sim.simulator import simulate

    stats = simulate(workload, "ooo", config=config, engine=engine).stats
    report = ProfileReport(
        workload_name=workload.name,
        variant=workload.variant,
        total_insts=stats.retired,
        total_cycles=stats.cycles,
        total_loads=stats.loads,
        total_llc_load_misses=stats.llc_load_misses,
        ipc=stats.ipc,
        load_fraction=stats.loads / stats.retired if stats.retired else 0.0,
        loads=dict(stats.load_pcs),
        branches=dict(stats.branch_pcs),
        rob_head_stall_by_pc=dict(stats.rob_head_stall_by_pc),
    )
    return report, stats


def apply_sampling(report: ProfileReport, period: int, seed: int = 7) -> ProfileReport:
    """Return a copy of ``report`` as a PEBS-style sampled profile.

    Each per-PC counter is replaced by ``period x Binomial(n, 1/period)``:
    an unbiased estimate with realistic sampling variance. Totals are
    recomputed from the thinned tables.
    """
    if period <= 1:
        return report
    rng = random.Random(seed)

    def thin(n: int) -> int:
        hits = sum(1 for _ in range(n) if rng.randrange(period) == 0)
        return hits * period

    loads: dict[int, PcLoadStats] = {}
    for pc, s in report.loads.items():
        execs = thin(s.execs)
        if not execs:
            continue
        scale = execs / s.execs if s.execs else 0.0
        loads[pc] = PcLoadStats(
            execs=execs,
            l1_hits=int(s.l1_hits * scale),
            llc_hits=int(s.llc_hits * scale),
            llc_misses=thin(s.llc_misses),
            forwarded=int(s.forwarded * scale),
            latency_sum=int(s.latency_sum * scale),
            mlp_sum=int(s.mlp_sum * scale),
        )
    branches: dict[int, PcBranchStats] = {}
    for pc, s in report.branches.items():
        execs = thin(s.execs)
        if not execs:
            continue
        branches[pc] = PcBranchStats(execs=execs, mispredicts=thin(s.mispredicts))
    return ProfileReport(
        workload_name=report.workload_name,
        variant=report.variant,
        total_insts=report.total_insts,
        total_cycles=report.total_cycles,
        total_loads=sum(s.execs for s in loads.values()),
        total_llc_load_misses=sum(s.llc_misses for s in loads.values()),
        ipc=report.ipc,
        load_fraction=report.load_fraction,
        loads=loads,
        branches=branches,
        rob_head_stall_by_pc=dict(report.rob_head_stall_by_pc),
    )
