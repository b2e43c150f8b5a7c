"""Figure 8: load slices vs branch slices vs both combined.

Section 5.3: branch slicing was developed after observing that lbm's load
slicing only paid off under a perfect branch predictor; prioritising
hard-to-predict branches' slices shortens their resolution time and thus
the misprediction penalty. The paper highlights deepsjeng/lbm/nab/namd as
gaining >3% from branch slices alone, and cactus/lbm/perlbench/memcached as
combining both kinds super-additively.

Each slice kind is one crisp instance whose :class:`CrispConfig` enables
it; the worker derives that annotation, so ``combined`` (the default
config) is the same cell as fig7's ``crisp``.
"""

from __future__ import annotations

from ..core.fdo import CrispConfig
from ..orchestrate import Experiment, Instance, register
from .common import ExperimentResult, format_pct

VARIANTS = (
    ("load slices", dict(use_load_slices=True, use_branch_slices=False)),
    ("branch slices", dict(use_load_slices=False, use_branch_slices=True)),
    ("combined", dict(use_load_slices=True, use_branch_slices=True)),
)


@register
class Fig8Experiment(Experiment):
    """Baseline + one crisp instance per slice-kind flag set."""

    name = "fig8"
    title = "Figure 8: load slices, branch slices, and their combination"

    def instances(self, target) -> list[Instance]:
        return [Instance(name="ooo", mode="ooo")] + [
            Instance(name=label, mode="crisp", crisp_config=CrispConfig(**flags))
            for label, flags in VARIANTS
        ]

    def table(self, plan, results) -> ExperimentResult:
        cells = self.results_map(plan, results)
        result = ExperimentResult(
            experiment=self.name,
            title=self.title,
            headers=["workload", "base IPC"] + [label for label, _ in VARIANTS],
        )
        for name in self.workloads:
            base_ipc = self.ipc(cells, name, "ooo")
            result.add_row(name, base_ipc, *[
                format_pct(self.ipc(cells, name, label) / base_ipc)
                for label, _ in VARIANTS
            ])
        result.notes.append(
            "paper: lbm/deepsjeng/nab/namd gain >3% from branch slices alone; "
            "combining both matches or beats either alone."
        )
        if self.seeds > 1:
            result.notes.append(
                f"median over {self.seeds} seed replicas per cell"
            )
        return result
