"""Figure 11: total number of critical (tagged) instructions.

Counts the statically distinct instructions CRISP tags per application --
the paper reports >10,000 for perlbench, gcc, and moses, which is the
storage argument against hardware slice tables: IBDA would need hundreds of
KB of metadata, while CRISP stores one prefix byte per instruction inside
the code itself. Our synthetic programs are orders of magnitude smaller
than real SPEC binaries, so the reproduced claim is the *relative* pattern:
the interpreter/compiler/translation workloads tag the most instructions.
The counts come from the FDO flow alone, so the experiment plans no cells.
"""

from __future__ import annotations

from ..core.fdo import run_crisp_flow
from ..orchestrate import Experiment, register
from .common import ExperimentResult


@register
class Fig11Experiment(Experiment):
    """Per-workload tagged-instruction counts from the FDO flow."""

    name = "fig11"
    title = "Figure 11: total number of critical instructions"

    def table(self, plan, results) -> ExperimentResult:
        result = ExperimentResult(
            experiment=self.name,
            title=self.title,
            headers=[
                "workload",
                "critical insts",
                "program insts",
                "static fraction",
                "dynamic ratio",
            ],
        )
        for name in self.workloads:
            flow = run_crisp_flow(name, scale=self.scale)
            program_len = len(flow.annotation.baseline_layout.sizes)
            n_critical = flow.total_critical_instructions
            result.add_row(
                name,
                n_critical,
                program_len,
                n_critical / program_len if program_len else 0.0,
                flow.annotation.critical_ratio,
            )
        result.notes.append(
            "paper: perlbench/gcc/moses exceed 10k unique critical instructions "
            "(real binaries); reproduced claim is the cross-workload ordering."
        )
        return result
