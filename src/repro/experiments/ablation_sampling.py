"""Ablation: robustness of classification to PEBS sampling noise.

The paper's profiles come from *sampled* hardware facilities (PEBS), not
exact counters. This ablation degrades the exact simulated-PMU profile with
binomial thinning at several sampling periods and checks that the
delinquency classification -- and hence the annotation CRISP ships --
remains stable: set overlap against the exact classification. The overlaps
come from profiling alone, so the experiment plans no cells.
"""

from __future__ import annotations

from ..core.delinquency import classify, compute_stride_scores
from ..core.profiler import apply_sampling, profile_workload
from ..orchestrate import Experiment, register
from ..workloads import REGISTRY
from .common import ExperimentResult

PERIODS = (1, 4, 16, 64)


@register
class SamplingAblation(Experiment):
    """Delinquent-load set overlap vs exact profiling, per PEBS period."""

    name = "ablation_sampling"
    title = "Ablation: delinquency classification under PEBS sampling"
    default_workloads = ("mcf", "moses", "memcached")

    def table(self, plan, results) -> ExperimentResult:
        result = ExperimentResult(
            experiment=self.name,
            title=self.title,
            headers=["workload"] + [f"period {p} (overlap)" for p in PERIODS],
        )
        for name in self.workloads:
            train = REGISTRY.build(name, variant="train", scale=self.scale)
            exact_profile, _ = profile_workload(train)
            strides = compute_stride_scores(train.trace(), exact_profile)
            exact = set(classify(exact_profile, stride_scores=strides).delinquent_loads)
            row = [name]
            for period in PERIODS:
                sampled = apply_sampling(exact_profile, period, seed=13 + period)
                got = set(classify(sampled, stride_scores=strides).delinquent_loads)
                if exact:
                    overlap = len(exact & got) / len(exact | got) if (exact | got) else 1.0
                else:
                    overlap = 1.0 if not got else 0.0
                row.append(f"{overlap:.2f}")
            result.add_row(*row)
        result.notes.append(
            "overlap = Jaccard similarity of the delinquent-load sets vs exact "
            "profiling; CRISP needs rankings and threshold tests, which survive "
            "realistic sampling periods."
        )
        return result
