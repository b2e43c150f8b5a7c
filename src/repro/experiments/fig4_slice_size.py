"""Figure 4: average load slice size per application.

The paper plots the average *dynamic* backward-slice size of delinquent
loads -- the number of dynamic instructions a hardware mechanism would need
to buffer -- showing sizes that routinely exceed the ROB (224) and
reservation station (96), which is why CRISP filters slices to their
critical path instead of promoting everything (Section 3.5). Static
(unique-PC) slice sizes are reported alongside. Slice sizes come from the
FDO flow, not from a simulation cell, so the experiment plans no cells.
"""

from __future__ import annotations

from ..core.fdo import run_crisp_flow
from ..orchestrate import Experiment, register
from .common import ExperimentResult


@register
class Fig4Experiment(Experiment):
    """Per-workload load-slice sizes from the train-input FDO flow."""

    name = "fig4"
    title = "Figure 4: average load slice size"

    def table(self, plan, results) -> ExperimentResult:
        result = ExperimentResult(
            experiment=self.name,
            title=self.title,
            headers=[
                "workload",
                "delinquent loads",
                "avg dynamic slice",
                "max dynamic slice",
                "avg static slice",
            ],
        )
        for name in self.workloads:
            load_slices = run_crisp_flow(name, scale=self.scale).load_slices()
            dyn_sizes = [size for s in load_slices for size in s.dynamic_sizes]
            static_sizes = [s.static_size for s in load_slices]
            result.add_row(
                name,
                len(load_slices),
                sum(dyn_sizes) / len(dyn_sizes) if dyn_sizes else 0.0,
                max(dyn_sizes) if dyn_sizes else 0,
                sum(static_sizes) / len(static_sizes) if static_sizes else 0.0,
            )
        result.notes.append(
            "dynamic slices are capped at 4096 nodes; values at the cap mean "
            "'larger than any plausible hardware slice buffer' (ROB=224, RS=96)."
        )
        return result
