"""Section 6.2 study: criticality across SMT threads -- SLOs and DoS.

Two sub-studies on the two-thread SMT model, each with the thread pairing
that actually contends for the resources the mechanism touches:

* **SLO enforcement** (latency-sensitive pointer_chase + memory-bound mcf,
  both load-port users): prioritising the latency thread -- wholesale or
  with its real CRISP annotation -- shortens its completion time while
  aggregate IPC holds or improves.
* **Denial of service** (pointer_chase victim + a streaming attacker whose
  L1-hitting loads keep the two load ports saturated): tagging all attacker
  instructions slows the victim; reserving issue slots for non-critical
  instructions (the paper's proposed mitigation) restores it.

Each row is one SMT cell (:class:`~repro.multicore.smt.SmtCellSpec`)
with its annotations pinned at plan time — the victim's CRISP PCs from
the FDO flow, the attacker's everything-tagged set from its program
length — so every row is an ordinary cacheable cell on the pool. The
pairings are fixed, so the experiment takes no workload selection.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..multicore.smt import SMT_MODE, SmtCellSpec, smt_cell
from ..orchestrate import Experiment, Instance, register
from ..parallel.cellkey import CellSpec
from ..parallel.executor import cell_annotation
from ..workloads import get_workload
from .common import ExperimentResult

VICTIM = "pointer_chase"


@dataclass
class SmtInstance(Instance):
    """An Instance whose cell is a two-thread SMT run."""

    smt: SmtCellSpec = None  # type: ignore[assignment]

    def spec(self, target, scale: float = 1.0):
        smt = self.smt
        if target.variant != "ref":
            # Seed replicas vary both threads' inputs together.
            smt = SmtCellSpec(
                workloads=smt.workloads,
                variants=(target.variant, target.variant),
                priority=smt.priority,
                critical_pcs=smt.critical_pcs,
                fair_slots=smt.fair_slots,
            )
        return smt_cell(smt, scale=scale, config=self.config)

    def describe(self) -> dict:
        entry = super().describe()
        entry["smt"] = self.smt.to_payload()
        return entry


@register
class DiscussionSmt(Experiment):
    """SMT criticality rows (SLO + DoS) as one-cell-per-row matrix."""

    name = "discussion_smt"
    title = "Section 6.2: SMT criticality (SLO enforcement and DoS)"
    default_workloads = (VICTIM,)
    fixed_workloads = True

    def __init__(self, scale: float = 0.4, workloads: list[str] | None = None,
                 seeds: int = 1):
        super().__init__(scale=scale, workloads=workloads, seeds=seeds)
        self._victim_pcs: tuple[int, ...] | None = None
        self._attack_pcs: tuple[int, ...] | None = None

    def _slo_annotation(self) -> tuple[int, ...]:
        """The victim's CRISP PCs, derived once at plan time (FDO train)."""
        if self._victim_pcs is None:
            self._victim_pcs = tuple(sorted(cell_annotation(
                CellSpec(VICTIM, "crisp", scale=self.scale))))
        return self._victim_pcs

    def _attack_annotation(self) -> tuple[int, ...]:
        """Every PC of the attacker's program (the DoS 'tag everything')."""
        if self._attack_pcs is None:
            attacker = get_workload("img_dnn", "ref", self.scale)
            self._attack_pcs = tuple(range(len(attacker.program)))
        return self._attack_pcs

    def instances(self, target) -> list[Instance]:
        slo = ("pointer_chase", "mcf")
        dos = ("pointer_chase", "img_dnn")
        victim_pcs = self._slo_annotation()
        attack_pcs = self._attack_annotation()
        rows = (
            ("SLO pair, fair round-robin", SmtCellSpec(slo)),
            ("SLO pair, latency thread critical",
             SmtCellSpec(slo, priority="thread0")),
            ("SLO pair, latency thread CRISP-annotated",
             SmtCellSpec(slo, critical_pcs=(victim_pcs, ()))),
            ("DoS pair, no attack", SmtCellSpec(dos)),
            ("DoS pair, attacker tags everything",
             SmtCellSpec(dos, critical_pcs=((), attack_pcs))),
            ("DoS pair, attack + fairness guard (2 slots)",
             SmtCellSpec(dos, critical_pcs=((), attack_pcs), fair_slots=2)),
        )
        return [
            SmtInstance(name=label, mode=SMT_MODE, smt=smt)
            for label, smt in rows
        ]

    def table(self, plan, results) -> ExperimentResult:
        cells = self.results_map(plan, results)
        result = ExperimentResult(
            experiment=self.name,
            title=self.title,
            headers=["configuration", "victim cycles", "co-runner cycles",
                     "total IPC"],
        )
        for instance in self.instances(self.targets()[0]):
            cell = cells[(VICTIM, "ref", instance.name)]
            threads = cell.extra["smt"]["threads"]
            result.add_row(
                instance.name, threads[0]["cycles"], threads[1]["cycles"],
                round(cell.ipc, 3),
            )
        result.notes.append(
            "prioritisation must shorten the latency thread's completion; the "
            "fairness guard must undo the DoS slowdown (Section 6.2)."
        )
        return result
