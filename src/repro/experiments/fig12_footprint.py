"""Figure 12 / Section 5.7: code-footprint overhead of the CRISP prefix.

The one-byte critical prefix grows every tagged instruction's encoding.
Static overhead (binary size) is small; *dynamic* overhead (bytes fetched,
weighted by execution frequency) is larger -- the paper reports +5.2% mean
-- because critical instructions concentrate in hot loops. The extra bytes
shift code across cache-line boundaries; the paper measured a worst-case
i-cache MPKI increase of 2.6%. All three quantities are measured here: the
i-cache effect from an ooo and a crisp cell (the same cells as fig7's), and
the layout overheads from the crisp cell's tagged PCs, laid out on the
train input's program and weighted by its execution counts -- exactly the
rewriter's accounting in the FDO flow.
"""

from __future__ import annotations

import statistics

from ..core.rewriter import Annotation
from ..orchestrate import Experiment, Instance, register
from ..workloads import get_workload
from .common import ExperimentResult


def train_annotation(workload: str, scale: float, critical_pcs) -> Annotation:
    """The rewriter's view of ``critical_pcs`` on the train input."""
    train = get_workload(workload, "train", scale)
    critical = frozenset(critical_pcs)
    return Annotation(
        critical_pcs=critical,
        layout=train.program.layout(critical),
        baseline_layout=train.program.layout(),
        exec_counts=dict(train.trace().exec_counts),
    )


@register
class Fig12Experiment(Experiment):
    """ooo/crisp cells per workload; overheads from the crisp annotation."""

    name = "fig12"
    title = "Figure 12: static/dynamic footprint overhead of the CRISP prefix"

    def instances(self, target) -> list[Instance]:
        return [Instance(name="ooo", mode="ooo"),
                Instance(name="crisp", mode="crisp")]

    def table(self, plan, results) -> ExperimentResult:
        cells = self.results_map(plan, results)
        result = ExperimentResult(
            experiment=self.name,
            title=self.title,
            headers=[
                "workload",
                "static overhead",
                "dynamic overhead",
                "base L1I MPKI",
                "crisp L1I MPKI",
                "L1I MPKI delta",
            ],
        )

        def mpki(name: str, instance: str) -> float:
            return statistics.median(
                cells[(name, variant, instance)].require_stats().l1i_mpki()
                for variant in self.variants()
            )

        static_sum = dynamic_sum = 0.0
        for name in self.workloads:
            # FDO runs on the train input, so every seed replica carries
            # the same annotation.
            annotation = train_annotation(
                name, self.scale, cells[(name, "ref", "crisp")].critical_pcs)
            base_mpki = mpki(name, "ooo")
            crisp_mpki = mpki(name, "crisp")
            delta = (crisp_mpki / base_mpki - 1.0) if base_mpki > 1e-9 else 0.0
            result.add_row(
                name,
                f"{annotation.static_overhead:+.2%}",
                f"{annotation.dynamic_overhead:+.2%}",
                base_mpki,
                crisp_mpki,
                f"{delta:+.1%}",
            )
            static_sum += annotation.static_overhead
            dynamic_sum += annotation.dynamic_overhead
        count = len(self.workloads)
        result.add_row(
            "mean",
            f"{static_sum / count:+.2%}",
            f"{dynamic_sum / count:+.2%}",
            "",
            "",
            "",
        )
        result.notes.append(
            "paper: dynamic footprint +5.2% mean, i-cache MPKI worst case +2.6%."
        )
        if self.seeds > 1:
            result.notes.append(
                f"median over {self.seeds} seed replicas per cell"
            )
        return result
