"""Section 6.1 study: criticality for long-latency non-load instructions.

The paper: "other high-latency instructions such as division can be
accelerated with CRISP ... we envision adding new events to the PMU for
determining the PC of arbitrary instructions that induce significant stall
cycles." The simulated PMU already attributes head-of-ROB stalls per PC, so
the envisioned flow runs end to end here: profile the division-chain
microbenchmark, pick the stall-dominating DIV as a slicing root
(:func:`repro.core.delinquency.classify_stalling_instructions`), extract
and filter its slice with the unchanged machinery, and evaluate.

The stall-root annotation is derived once when the plan is built (the
standard FDO flow only roots slices at loads and branches) and pinned into
the crisp cell's ``critical_pcs``, the same way ``discussion_smt`` pins its
victim's PCs.
"""

from __future__ import annotations

from ..core.critical_path import CriticalPathConfig, filter_slice
from ..core.delinquency import classify_stalling_instructions
from ..core.profiler import profile_workload
from ..core.rewriter import Rewriter
from ..core.slicer import extract_slice
from ..orchestrate import Experiment, Instance, register
from ..workloads.divchain import build_div_chain
from .common import ExperimentResult, format_pct

WORKLOAD = "div_chain"


@register
class DiscussionDivision(Experiment):
    """ooo vs crisp with the division chain's stall roots tagged."""

    name = "discussion_division"
    title = "Section 6.1: prioritising a long-latency division chain"
    default_workloads = (WORKLOAD,)
    fixed_workloads = True

    def __init__(self, scale: float = 1.0, workloads: list[str] | None = None,
                 seeds: int = 1):
        super().__init__(scale=scale, workloads=workloads, seeds=seeds)
        self._roots: list[int] | None = None
        self._critical_pcs: tuple[int, ...] = ()

    def _annotation(self) -> tuple[int, ...]:
        """The stall roots' filtered slices, derived once on train."""
        if self._roots is None:
            train = build_div_chain("train", self.scale)
            trace = train.trace()
            profile, _ = profile_workload(train)
            self._roots = classify_stalling_instructions(profile, train.program)
            slices = {
                pc: filter_slice(
                    trace, extract_slice(trace, pc, kind="load"), profile,
                    CriticalPathConfig(),
                )
                for pc in self._roots
            }
            annotation = Rewriter(
                train.program, dict(trace.exec_counts)
            ).annotate(slices, {pc: 1.0 for pc in self._roots})
            self._critical_pcs = tuple(sorted(annotation.critical_pcs))
        return self._critical_pcs

    def _crisp_label(self) -> str:
        return f"division slice prioritised ({len(self._annotation())} tagged)"

    def instances(self, target) -> list[Instance]:
        return [
            Instance(name="baseline OOO", mode="ooo"),
            Instance(name=self._crisp_label(), mode="crisp",
                     critical_pcs=self._annotation()),
        ]

    def table(self, plan, results) -> ExperimentResult:
        cells = self.results_map(plan, results)
        result = ExperimentResult(
            experiment=self.name,
            title=self.title,
            headers=["configuration", "IPC", "vs baseline"],
        )
        base = self.ipc(cells, WORKLOAD, "baseline OOO")
        crisp = self.ipc(cells, WORKLOAD, self._crisp_label())
        result.add_row("baseline OOO", base, format_pct(1.0))
        result.add_row(self._crisp_label(), crisp, format_pct(crisp / base))
        result.notes.append(
            f"stall-dominating roots found by the PMU: {self._roots} "
            "(the DIV and its feeders); no load ever misses in this kernel."
        )
        if self.seeds > 1:
            result.notes.append(
                f"median over {self.seeds} seed replicas per cell"
            )
        return result
