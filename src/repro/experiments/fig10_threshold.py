"""Figure 10: sensitivity to the miss-contribution threshold T.

Section 5.5 sweeps the criterion "prioritise a load if it contributes more
than T of the application's total misses" over T = 5%, 1%, 0.2%. A high T
tags too little (misses the moderately-hot delinquent loads); a very low T
tags loads that mostly hit, wasting the scheduler's priority budget. The
paper finds T = 1% best overall, with per-application variation (moses
prefers 2%) motivating its future-work iterative tuning.

The baseline plus one crisp instance per threshold, each pinning its
``CrispConfig`` into the cell identity.
"""

from __future__ import annotations

from ..core.delinquency import DelinquencyConfig
from ..core.fdo import CrispConfig
from ..orchestrate import Experiment, Instance, register
from ..sim.comparison import geomean
from .common import ExperimentResult, format_pct

THRESHOLDS = (0.05, 0.01, 0.002)


def _label(threshold: float) -> str:
    return f"T={threshold:.1%}"


@register
class Fig10Experiment(Experiment):
    """Baseline + one crisp instance per miss-contribution threshold."""

    name = "fig10"
    title = "Figure 10: miss-contribution threshold T sensitivity"

    def __init__(
        self,
        scale: float = 1.0,
        workloads: list[str] | None = None,
        seeds: int = 1,
        thresholds: tuple[float, ...] = THRESHOLDS,
    ):
        super().__init__(scale=scale, workloads=workloads, seeds=seeds)
        self.thresholds = tuple(thresholds)

    def args(self) -> dict:
        args = super().args()
        args["thresholds"] = list(self.thresholds)
        return args

    def instances(self, target) -> list[Instance]:
        out = [Instance(name="ooo", mode="ooo")]
        for t in self.thresholds:
            out.append(
                Instance(
                    name=_label(t),
                    mode="crisp",
                    crisp_config=CrispConfig(
                        delinquency=DelinquencyConfig().with_threshold(t)
                    ),
                )
            )
        return out

    def table(self, plan, results) -> ExperimentResult:
        cells = self.results_map(plan, results)
        result = ExperimentResult(
            experiment=self.name,
            title=self.title,
            headers=["workload"] + [_label(t) for t in self.thresholds],
        )
        ratios: dict[float, list[float]] = {t: [] for t in self.thresholds}
        for name in self.workloads:
            base = self.ipc(cells, name, "ooo")
            row = [name]
            for t in self.thresholds:
                ratio = self.ipc(cells, name, _label(t)) / base
                ratios[t].append(ratio)
                row.append(format_pct(ratio))
            result.add_row(*row)
        result.add_row(
            "geomean",
            *[format_pct(geomean(ratios[t])) for t in self.thresholds],
        )
        result.notes.append(
            "paper: T=1% best overall; per-app optima vary (Section 5.5)."
        )
        if self.seeds > 1:
            result.notes.append(
                f"median over {self.seeds} seed replicas per cell"
            )
        return result
