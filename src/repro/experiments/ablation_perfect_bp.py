"""Ablation: load slicing under a perfect branch predictor (Section 5.3).

The observation that motivated branch slices: "the benefit of prioritizing
loads ... is significantly higher on a system with a perfect branch
predictor", because mispredictions stop the decoupled front end from
filling the reservation station with reorderable work. This ablation
measures the load-slice-only gain under TAGE and under an oracle predictor;
the oracle gap is the headroom branch slices then recover on real hardware.

The FDO flows (load-only and load+branch) run once per workload at plan
time, on the default core, and their critical PCs pin each crisp instance
explicitly, so every column is an ordinary cacheable cell.
"""

from __future__ import annotations

from ..core.fdo import CrispConfig
from ..orchestrate import Experiment, Instance, register
from ..parallel.cellkey import CellSpec
from ..parallel.executor import cell_annotation
from ..uarch.config import CoreConfig
from .common import ExperimentResult, format_pct

LOAD_ONLY = CrispConfig(use_load_slices=True, use_branch_slices=False)
COMBINED = CrispConfig(use_load_slices=True, use_branch_slices=True)


@register
class PerfectBPAblation(Experiment):
    """Load-slice gain under TAGE vs an oracle predictor, per workload."""

    name = "ablation_perfect_bp"
    title = "Ablation: load-slice gain under TAGE vs a perfect predictor"
    default_workloads = ("lbm", "deepsjeng", "memcached", "mcf")

    def __init__(self, scale: float = 1.0, workloads: list[str] | None = None,
                 seeds: int = 1):
        super().__init__(scale=scale, workloads=workloads, seeds=seeds)
        self._annotations: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {}

    def _tagged(self, workload: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(load-only PCs, load+branch PCs), derived once per workload.

        Plan-time work on the train input and the *default* core: one
        annotation serves both predictors (deriving under the oracle core
        could classify differently and confound the comparison).
        """
        if workload not in self._annotations:
            self._annotations[workload] = tuple(
                tuple(sorted(cell_annotation(CellSpec(
                    workload, "crisp", scale=self.scale, crisp_config=recipe))))
                for recipe in (LOAD_ONLY, COMBINED)
            )
        return self._annotations[workload]

    def instances(self, target) -> list[Instance]:
        load_pcs, both_pcs = self._tagged(target.workload)
        out = []
        for predictor in ("tage", "perfect"):
            core = CoreConfig.skylake(predictor=predictor)
            out.append(Instance(name=f"ooo-{predictor}", mode="ooo", config=core))
            out.append(Instance(
                name=f"crisp-load-{predictor}", mode="crisp", config=core,
                critical_pcs=load_pcs,
            ))
        out.append(Instance(name="ooo", mode="ooo"))
        out.append(Instance(name="crisp-both", mode="crisp", critical_pcs=both_pcs))
        return out

    def table(self, plan, results) -> ExperimentResult:
        cells = self.results_map(plan, results)
        result = ExperimentResult(
            experiment=self.name,
            title=self.title,
            headers=["workload", "TAGE gain", "perfect-BP gain",
                     "branch+load (TAGE)"],
        )
        for name in self.workloads:
            row = [name]
            for predictor in ("tage", "perfect"):
                base = self.ipc(cells, name, f"ooo-{predictor}")
                crisp = self.ipc(cells, name, f"crisp-load-{predictor}")
                row.append(format_pct(crisp / base))
            base = self.ipc(cells, name, "ooo")
            both = self.ipc(cells, name, "crisp-both")
            row.append(format_pct(both / base))
            result.add_row(*row)
        result.notes.append(
            "the perfect-BP column bounds what branch slices can recover on the "
            "real predictor (Section 5.3's motivating experiment for lbm)."
        )
        if self.seeds > 1:
            result.notes.append(f"median over {self.seeds} seed replicas per cell")
        return result
