"""Figure 7: IPC improvement of CRISP and IBDA over the OOO baseline.

The headline evaluation: per workload, IPC of CRISP and of hardware IBDA
(four IST sizes) relative to the Table 1 baseline, plus the geometric-mean
row. The paper reports CRISP at +8.4% on average (max +38%) with IBDA far
behind and regressing on several applications (moses: slices exceed the
IST; namd/xhpcg: dependencies through memory; bwaves: wrong delinquent
loads; fotonik/perlbench/moses: no critical-path filtering).

Targets are the suite workloads (× seed replicas), instances are the
baseline plus one column per mode (docs/ORCHESTRATION.md).
"""

from __future__ import annotations

from ..orchestrate import Experiment, Instance, register
from ..sim.comparison import geomean
from .common import ExperimentResult, format_pct

#: Modes in Figure 7's legend order.
DEFAULT_MODES = ("crisp", "ibda-1k", "ibda-8k", "ibda-64k", "ibda-inf")


@register
class Fig7Experiment(Experiment):
    """Baseline + one instance per prefetch/slice mode, Table 1 core."""

    name = "fig7"
    title = "Figure 7: IPC improvement over the OOO baseline"

    def __init__(
        self,
        scale: float = 1.0,
        workloads: list[str] | None = None,
        seeds: int = 1,
        modes: tuple[str, ...] = DEFAULT_MODES,
    ):
        super().__init__(scale=scale, workloads=workloads, seeds=seeds)
        self.modes = tuple(modes)

    def args(self) -> dict:
        args = super().args()
        args["modes"] = list(self.modes)
        return args

    def instances(self, target) -> list[Instance]:
        return [Instance(name="ooo", mode="ooo")] + [
            Instance(name=mode, mode=mode) for mode in self.modes
        ]

    def table(self, plan, results) -> ExperimentResult:
        cells = self.results_map(plan, results)
        result = ExperimentResult(
            experiment=self.name,
            title=self.title,
            headers=["workload", "base IPC"] + [f"{m} gain" for m in self.modes],
        )
        speedups: dict[str, list[float]] = {m: [] for m in self.modes}
        for name in self.workloads:
            base = self.ipc(cells, name, "ooo")
            row = [name, base]
            for mode in self.modes:
                ratio = self.ipc(cells, name, mode) / base
                speedups[mode].append(ratio)
                row.append(format_pct(ratio))
            result.add_row(*row)
        mean_row = ["geomean", ""]
        for mode in self.modes:
            mean_row.append(format_pct(geomean(speedups[mode])))
        result.add_row(*mean_row)
        result.notes.append(
            "paper: CRISP +8.4% mean / +38% max; IBDA ~+1% mean with "
            "regressions on moses, fotonik, perlbench. Reproduced claim: "
            "ordering and sign pattern, not absolute magnitudes."
        )
        if self.seeds > 1:
            result.notes.append(
                f"median over {self.seeds} seed replicas per cell"
            )
        return result
