"""The CRISP feedback-driven optimization flow (Figure 5).

Ties the whole software side together, mirroring the paper's deployment
pipeline:

1. **Profile** (Figure 5 step 1): run the *train* input on the unmodified
   baseline core, collecting the simulated PMU/PEBS profile.
2. **Classify**: apply the Section 3.2 delinquency heuristic and the
   Section 3.4 hard-branch rule.
3. **Trace + slice** (step 2): extract backward slices (through registers
   and memory) from the train trace, merging instances per root.
4. **Critical-path filter** (Section 3.5): keep only near-critical-path
   instructions of each slice.
5. **Rewrite** (step 3): merge slices, enforce the 40% cap of the
   dynamic critical-ratio guardrail, and lay the binary out with the
   one-byte prefix applied.

The returned :class:`CrispResult` carries everything the evaluation needs:
the annotation (critical PCs + layout) to run on the *ref* input, plus the
intermediate artefacts Figures 4, 10, 11 and 12 are computed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..uarch.config import CoreConfig
from ..workloads.base import REGISTRY, Workload
from .critical_path import CriticalPathConfig, filter_slice
from .delinquency import (
    Classification,
    DelinquencyConfig,
    classify,
    compute_stride_scores,
)
from .profiler import ProfileReport, profile_workload
from .rewriter import Annotation, Rewriter
from .slicer import Slice, extract_slice


@dataclass(frozen=True)
class CrispConfig:
    """All knobs of the software flow."""

    delinquency: DelinquencyConfig = field(default_factory=DelinquencyConfig)
    critical_path: CriticalPathConfig = field(default_factory=CriticalPathConfig)
    use_load_slices: bool = True
    use_branch_slices: bool = True
    #: Dynamic instances sampled (randomly, deterministic seed) and merged
    #: per root. Must cover all paths feeding a root: a root reached from N
    #: distinct call sites needs ~N*ln(N) random samples for its merged
    #: slice to include every site's address-producing code (Section 4.1's
    #: merge step).
    max_instances: int = 64
    max_critical_ratio: float = 0.40
    #: The paper's 5% lower bound on the dynamic critical ratio. The flow
    #: does not enforce it; the field stays because crisp cell keys hash
    #: the config's recipe, and dropping it would move every one of them.
    min_critical_ratio: float = 0.05


@dataclass
class CrispResult:
    """Output of one FDO run for one workload."""

    workload_name: str
    profile: ProfileReport
    classification: Classification
    slices: list[Slice]
    filtered_pcs: dict[int, set[int]]
    annotation: Annotation

    @property
    def critical_pcs(self) -> frozenset[int]:
        return self.annotation.critical_pcs

    def load_slices(self) -> list[Slice]:
        return [s for s in self.slices if s.kind == "load"]

    def branch_slices(self) -> list[Slice]:
        return [s for s in self.slices if s.kind == "branch"]

    @property
    def avg_load_slice_size(self) -> float:
        """Average dynamic load-slice size (the Figure 4 quantity)."""
        sizes = [size for s in self.load_slices() for size in s.dynamic_sizes]
        return sum(sizes) / len(sizes) if sizes else 0.0

    @property
    def total_critical_instructions(self) -> int:
        """Unique tagged instructions (the Figure 11 quantity)."""
        return len(self.annotation.critical_pcs)


def run_crisp_flow(
    workload_name: str,
    config: CrispConfig | None = None,
    *,
    core_config: CoreConfig | None = None,
    scale: float = 1.0,
    train_workload: Workload | None = None,
    engine: str | None = None,
) -> CrispResult:
    """Run the full Figure 5 software flow on a workload's *train* input.

    The flow builds the train input unless ``train_workload`` hands in one
    already built (a train-input cell's own, see
    :func:`repro.parallel.executor.cell_annotation`). ``engine`` picks the
    cycle model that runs the step-1 profile (see
    :func:`~repro.sim.simulator.resolve_engine`); both engines give the
    same profile, so the annotation does not depend on it.
    """
    config = config or CrispConfig()
    train = train_workload or REGISTRY.build(workload_name, variant="train", scale=scale)

    # Step 1: profile on the baseline core (the train input's ooo run).
    trace = train.trace()
    profile, _ = profile_workload(train, core_config, engine=engine)

    # Step 2: classify delinquent loads and hard branches. Address streams
    # from the trace feed the "not a constant or stride" criterion.
    stride_scores = compute_stride_scores(trace, profile)
    classification = classify(profile, config.delinquency, stride_scores)
    load_roots = classification.delinquent_loads if config.use_load_slices else []
    branch_roots = classification.hard_branches if config.use_branch_slices else []

    # Step 3: slice extraction on the trace.
    slices: list[Slice] = []
    for pc in load_roots:
        slices.append(
            extract_slice(trace, pc, kind="load", max_instances=config.max_instances)
        )
    for pc in branch_roots:
        slices.append(
            extract_slice(trace, pc, kind="branch", max_instances=config.max_instances)
        )

    # Step 4: critical-path filtering.
    filtered: dict[int, set[int]] = {}
    importance: dict[int, float] = {}
    for s in slices:
        filtered[s.root_pc] = filter_slice(trace, s, profile, config.critical_path)
        if s.kind == "load":
            importance[s.root_pc] = profile.miss_contribution(s.root_pc)
        else:
            branch_stats = profile.branches.get(s.root_pc)
            importance[s.root_pc] = (
                branch_stats.mispredict_rate if branch_stats else 0.0
            )

    # Step 5: rewrite with the ratio guardrail.
    rewriter = Rewriter(
        train.program,
        dict(trace.exec_counts),
        max_critical_ratio=config.max_critical_ratio,
    )
    annotation = rewriter.annotate(filtered, importance)

    return CrispResult(
        workload_name=workload_name,
        profile=profile,
        classification=classification,
        slices=slices,
        filtered_pcs=filtered,
        annotation=annotation,
    )
