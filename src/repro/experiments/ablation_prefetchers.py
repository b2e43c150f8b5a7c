"""Ablation: CRISP's gain across baseline prefetcher configurations.

Section 5.1: "we also experimented with a regular stride and GHB prefetcher,
however, we omit these results for brevity as the performance improvement of
CRISP over these baselines was similar in comparison to BOP." CRISP targets
the accesses no pattern prefetcher can cover, so its *relative* gain should
persist whichever regular-pattern prefetcher runs underneath.

One ``ooo``/``crisp`` instance pair per prefetcher set, each pinning its
hierarchy into the core config.
"""

from __future__ import annotations

from ..memory.hierarchy import HierarchyConfig
from ..orchestrate import Experiment, Instance, register
from ..uarch.config import CoreConfig
from .common import ExperimentResult, format_pct

PREFETCHER_SETS = (
    ("none", ()),
    ("stride", ("stride",)),
    ("ghb", ("ghb",)),
    ("bop+stream", ("bop", "stream")),
)


@register
class PrefetcherAblation(Experiment):
    """ooo/crisp instance pairs across baseline prefetcher sets."""

    name = "ablation_prefetchers"
    title = "Ablation: CRISP gain under different baseline prefetchers"
    default_workloads = ("mcf", "moses", "pointer_chase")

    def instances(self, target) -> list[Instance]:
        out = []
        for label, prefetchers in PREFETCHER_SETS:
            config = CoreConfig.skylake(
                hierarchy=HierarchyConfig(prefetchers=tuple(prefetchers))
            )
            out.append(Instance(name=f"{label}/ooo", mode="ooo", config=config))
            out.append(Instance(name=f"{label}/crisp", mode="crisp", config=config))
        return out

    def table(self, plan, results) -> ExperimentResult:
        cells = self.results_map(plan, results)
        result = ExperimentResult(
            experiment=self.name,
            title=self.title,
            headers=["workload"]
            + [f"{label} (base IPC / gain)" for label, _ in PREFETCHER_SETS],
        )
        for name in self.workloads:
            row = [name]
            for label, _ in PREFETCHER_SETS:
                base = self.ipc(cells, name, f"{label}/ooo")
                crisp = self.ipc(cells, name, f"{label}/crisp")
                row.append(f"{base:.3f} / {format_pct(crisp / base)}")
            result.add_row(*row)
        result.notes.append(
            "CRISP's relative gain persists across prefetcher baselines "
            "(Section 5.1); prefetchers raise the baseline but cannot cover "
            "the irregular critical loads."
        )
        if self.seeds > 1:
            result.notes.append(
                f"median over {self.seeds} seed replicas per cell"
            )
        return result
