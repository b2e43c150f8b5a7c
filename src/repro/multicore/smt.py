"""SMT cells: lowering two-thread SMT runs onto the parallel layer.

The two-thread SMT model (:mod:`repro.uarch.smt`) predates the cell
machinery; :class:`SmtCellSpec` gives its runs a canonical, cacheable
identity the same way :class:`~repro.multicore.spec.CoRunSpec` does for
N-core co-runs: thread workloads, priority policy, explicit per-thread
annotations, and the fairness guard are all part of the cell key.

The cell's top-level ``stats`` is a synthesized SimStats (``cycles`` = the
SMT run's cycles, ``retired`` = both threads' sum) so ``ipc`` and the
generic report machinery work; per-thread completion times travel in
``extra["smt"]``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..parallel.cellkey import CellSpec
from ..parallel.executor import cell_input, cell_record
from ..uarch.stats import SimStats

#: Display mode of an SMT cell (branched on before ``resolve_mode``).
SMT_MODE = "smt"


@dataclass(frozen=True)
class SmtCellSpec:
    """One two-thread SMT run: thread assignments + issue policy."""

    #: Thread 0 (the victim/latency thread) and thread 1 (the co-runner).
    workloads: tuple[str, str]
    variants: tuple[str, str] = ("ref", "ref")
    #: ``"none"`` (age order) or ``"thread0"`` (SLO prioritisation).
    priority: str = "none"
    #: Explicit per-thread annotations; ``None`` = no tags. Always explicit
    #: — SMT cells never derive annotations in the worker (the studies pin
    #: them at plan time, like the perfect-BP ablation).
    critical_pcs: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    #: Issue slots per cycle reserved for the oldest ready instructions
    #: regardless of criticality (the DoS mitigation).
    fair_slots: int = 0

    @property
    def label(self) -> str:
        return f"{self.workloads[0]}+{self.workloads[1]}"

    def to_payload(self) -> dict:
        """Canonical JSON component hashed into the cell key."""
        payload: dict = {
            "workloads": list(self.workloads),
            "variants": list(self.variants),
            "priority": self.priority,
            "fair_slots": self.fair_slots,
        }
        if self.critical_pcs is not None:
            payload["critical_pcs"] = [sorted(pcs) for pcs in self.critical_pcs]
        return payload


def smt_cell(
    smt: SmtCellSpec,
    *,
    scale: float = 1.0,
    config=None,
    cycle_budget: int | None = None,
    crash_dir: str | None = None,
) -> CellSpec:
    """Build the CellSpec for one SMT run."""
    return CellSpec(
        workload=smt.label,
        mode=SMT_MODE,
        scale=scale,
        config=config,
        smt=smt,
        cycle_budget=cycle_budget,
        crash_dir=crash_dir,
    )


def run_smt_cell(spec: CellSpec) -> dict:
    """Worker-side execution of an SMT cell (see executor.run_cell_spec)."""
    from ..resilience.watchdog import cell_watchdog
    from ..uarch.smt import SmtPipeline

    smt = spec.smt
    assert isinstance(smt, SmtCellSpec)
    traces = [
        cell_input(CellSpec(name, SMT_MODE, scale=spec.scale, variant=variant)).trace()
        for name, variant in spec.inputs()
    ]
    critical = None
    if smt.critical_pcs is not None:
        critical = [frozenset(pcs) for pcs in smt.critical_pcs]
    context = {"workloads": list(smt.workloads), "mode": SMT_MODE,
               "priority": smt.priority, "fair_slots": smt.fair_slots}
    stats = SmtPipeline(
        traces,
        spec.core_config(),
        priority=smt.priority,
        critical_pcs=critical,
        fair_slots=smt.fair_slots,
        watchdog=cell_watchdog(spec.cycle_budget, spec.crash_dir, context),
        run_context=context,
    ).run()
    merged = SimStats(
        cycles=stats.cycles,
        retired=sum(t.retired for t in stats.threads),
    )
    return cell_record(spec, stats.total_ipc, merged, extra={
        "smt": {
            "cycles": stats.cycles,
            "threads": [
                {"retired": t.retired, "cycles": t.cycles,
                 "issued_critical": t.issued_critical}
                for t in stats.threads
            ],
        }
    })
