"""Ablation: the critical-instruction-ratio sweet spot (Section 3.2).

The paper: "we empirically determined that the prioritization of critical
instructions performs best if the ratio of critical instructions among all
instructions is 5%-40% ... there must be a sufficient mix of non-critical
instructions for the scheduler to deprioritize". This ablation starts from
the real CRISP annotation and *dilutes* it -- tagging progressively more
(hot but non-critical) instructions -- sweeping the dynamic critical ratio
towards 1.0. The gain must decay towards zero as the tag loses selectivity,
which is also the paper's §6.2 denial-of-service observation (an attacker
tagging everything gains nothing).

The instances are *derived from the target*: each dilution level pins
its tagged-PC set (computed from the target's own flow and execution
profile) into the cell identity via ``critical_pcs``, so diluted cells
cache and pool like any other cell.
"""

from __future__ import annotations

from ..orchestrate import Experiment, Instance, register
from ..parallel.cellkey import CellSpec
from ..parallel.executor import cell_annotation
from ..workloads import get_workload
from .common import ExperimentResult, format_pct

DEFAULT_TARGETS = (None, 0.25, 0.50, 0.75, 1.0)  # None = the real annotation


def _dilute(critical: frozenset[int], exec_counts: dict[int, int], target: float) -> frozenset[int]:
    """Add hottest non-critical PCs until the dynamic ratio reaches target."""
    total = sum(exec_counts.values())
    tagged = set(critical)
    ratio = sum(exec_counts.get(pc, 0) for pc in tagged) / total
    for pc, count in sorted(exec_counts.items(), key=lambda kv: -kv[1]):
        if ratio >= target:
            break
        if pc in tagged:
            continue
        tagged.add(pc)
        ratio += count / total
    return frozenset(tagged)


def _label(target: float | None) -> str:
    return "CRISP" if target is None else f"ratio>={target:.0%}"


@register
class RatioAblation(Experiment):
    """Baseline + one diluted-annotation crisp instance per ratio target."""

    name = "ablation_ratio"
    title = "Ablation: CRISP gain vs dynamic critical-instruction ratio"
    default_workloads = ("mcf", "moses")

    def __init__(
        self,
        scale: float = 1.0,
        workloads: list[str] | None = None,
        seeds: int = 1,
        ratio_targets: tuple = DEFAULT_TARGETS,
    ):
        super().__init__(scale=scale, workloads=workloads, seeds=seeds)
        self.ratio_targets = tuple(ratio_targets)
        self._annotations: dict[tuple[str, str], list[frozenset[int]]] = {}

    def args(self) -> dict:
        args = super().args()
        args["ratio_targets"] = list(self.ratio_targets)
        return args

    def _tagged_sets(self, target) -> list[frozenset[int]]:
        """One tagged-PC set per ratio target, derived from this target.

        Plan-time work (a profiling flow + a trace walk), cached per
        (workload, variant) — deterministic, so re-planning for a resume
        or report reproduces the exact same cell identities.
        """
        key = (target.workload, target.variant)
        if key not in self._annotations:
            critical = cell_annotation(
                CellSpec(target.workload, "crisp", scale=self.scale))
            workload = get_workload(target.workload, target.variant, self.scale)
            exec_counts = dict(workload.trace().exec_counts)
            self._annotations[key] = [
                critical if ratio is None else _dilute(critical, exec_counts, ratio)
                for ratio in self.ratio_targets
            ]
        return self._annotations[key]

    def instances(self, target) -> list[Instance]:
        out = [Instance(name="ooo", mode="ooo")]
        for ratio, tagged in zip(self.ratio_targets, self._tagged_sets(target)):
            out.append(
                Instance(
                    name=_label(ratio),
                    mode="crisp",
                    critical_pcs=tuple(sorted(tagged)),
                )
            )
        return out

    def table(self, plan, results) -> ExperimentResult:
        cells = self.results_map(plan, results)
        result = ExperimentResult(
            experiment=self.name,
            title=self.title,
            headers=["workload"] + [_label(t) for t in self.ratio_targets],
        )
        for name in self.workloads:
            base = self.ipc(cells, name, "ooo")
            row = [name]
            for ratio in self.ratio_targets:
                ipc = self.ipc(cells, name, _label(ratio))
                row.append(format_pct(ipc / base))
            result.add_row(*row)
        result.notes.append(
            "diluting the annotation towards ratio 1.0 removes the "
            "scheduler's ability to deprioritise anything; gains must decay "
            "(Sections 3.2, 6.2)."
        )
        if self.seeds > 1:
            result.notes.append(
                f"median over {self.seeds} seed replicas per cell"
            )
        return result
