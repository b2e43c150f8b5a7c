"""Figure 9: RS/ROB size sensitivity of CRISP's gains.

Section 5.4 scales the reservation station and ROB from 64/180 through the
Table 1 Skylake point (96/224) to Sunny-Cove-like +50% (144/336) and +100%
(192/448). Larger windows give the scheduler more reorder opportunity:
xhpcg's gain roughly doubles with a 2x window, while moses peaks at the
*small* window (a large ROB already helps its baseline, shrinking CRISP's
relative headroom).

Each core sizing contributes an ``ooo``/``crisp`` instance pair.
"""

from __future__ import annotations

from ..core.fdo import CrispConfig
from ..orchestrate import Experiment, Instance, register
from ..uarch.config import CoreConfig
from .common import ExperimentResult, format_pct

CONFIGS = (
    ("64RS/180ROB", CoreConfig.small_window),
    ("96RS/224ROB", CoreConfig.skylake),
    ("144RS/336ROB", CoreConfig.plus50),
    ("192RS/448ROB", CoreConfig.plus100),
)


@register
class Fig9Experiment(Experiment):
    """ooo/crisp instance pairs across the four RS/ROB sizings."""

    name = "fig9"
    title = "Figure 9: CRISP gain vs RS/ROB size"

    def __init__(
        self,
        scale: float = 1.0,
        workloads: list[str] | None = None,
        seeds: int = 1,
        crisp_config: CrispConfig | None = None,
    ):
        super().__init__(scale=scale, workloads=workloads, seeds=seeds)
        self.crisp_config = crisp_config

    def args(self) -> dict:
        args = super().args()
        if self.crisp_config is not None:
            # Not JSON-round-trippable; recorded so an identity check on a
            # customized run fails loudly instead of reconstructing wrong.
            import dataclasses

            args["crisp_config"] = dataclasses.asdict(self.crisp_config)
        return args

    def instances(self, target) -> list[Instance]:
        out = []
        for cname, factory in CONFIGS:
            # The FDO flow profiles on the same core it targets (crisp
            # cells derive their annotation in the worker on `config`).
            config = factory()
            out.append(Instance(name=f"{cname}/ooo", mode="ooo", config=config))
            out.append(
                Instance(
                    name=f"{cname}/crisp",
                    mode="crisp",
                    config=config,
                    crisp_config=self.crisp_config,
                )
            )
        return out

    def table(self, plan, results) -> ExperimentResult:
        cells = self.results_map(plan, results)
        result = ExperimentResult(
            experiment=self.name,
            title=self.title,
            headers=["workload"] + [name for name, _ in CONFIGS],
        )
        for name in self.workloads:
            row = [name]
            for cname, _ in CONFIGS:
                base = self.ipc(cells, name, f"{cname}/ooo")
                crisp = self.ipc(cells, name, f"{cname}/crisp")
                row.append(format_pct(crisp / base))
            result.add_row(*row)
        result.notes.append(
            "paper: xhpcg 12.5% -> >25% from Skylake to the doubled window; "
            "moses gains most at 64RS/180ROB."
        )
        if self.seeds > 1:
            result.notes.append(
                f"median over {self.seeds} seed replicas per cell"
            )
        return result
