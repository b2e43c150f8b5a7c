"""Iterative threshold auto-tuning (Section 5.5's future-work mechanism).

The paper: "For future work, we envision an iterative mechanism that
profiles applications with different miss ratio thresholds to enable
additional application-specific optimizations." Because CRISP's criticality
heuristic is software, an FDO deployment can simply try several thresholds
per application and ship the best annotation -- this module implements that
loop (and is what `examples/datacenter_tuning.py` demonstrates).

The tuner evaluates each candidate threshold on the *train* input and
returns the winner; reporting the ref-input score of that winner (what a
deployment would observe) is left to the caller so that the tuner itself
never peeks at evaluation data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .delinquency import DelinquencyConfig
from .fdo import CrispConfig

#: The Figure 10 sweep plus the finer points the paper mentions (moses
#: prefers 2%).
DEFAULT_THRESHOLDS = (0.05, 0.02, 0.01, 0.002)


@dataclass
class AutotuneResult:
    """Outcome of one per-application tuning loop."""

    workload_name: str
    #: threshold -> (train-input IPC with that annotation, its critical PCs)
    candidates: dict[float, tuple[float, frozenset[int]]] = field(default_factory=dict)
    baseline_ipc: float = 0.0
    best_threshold: float | None = None

    @property
    def best_critical_pcs(self) -> frozenset[int]:
        if self.best_threshold is None:
            return frozenset()
        return self.candidates[self.best_threshold][1]

    def summary(self) -> str:
        lines = [f"autotune {self.workload_name}: baseline IPC {self.baseline_ipc:.3f}"]
        for threshold, (ipc, critical) in sorted(self.candidates.items()):
            marker = "  <-- best" if threshold == self.best_threshold else ""
            lines.append(
                f"  T={threshold:5.1%}: {len(critical):4d} tagged,"
                f" train IPC {ipc:.3f}{marker}"
            )
        return "\n".join(lines)


def autotune_threshold(
    workload_name: str,
    *,
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS,
    scale: float = 1.0,
) -> AutotuneResult:
    """Profile-and-select loop over miss-contribution thresholds.

    The baseline and each threshold are ``variant="train"`` cells of
    :func:`~repro.parallel.executor.run_cells` (the threshold through
    :meth:`DelinquencyConfig.with_threshold`, as Figure 10 sets it), so
    the train input is built and emulated once and each candidate's IPC
    and PCs are those cells'. All selection decisions use the *train*
    input only; the returned annotation can then be evaluated (or
    deployed) on anything.
    """
    from ..parallel.cellkey import CellSpec
    from ..parallel.executor import run_cells

    specs = [CellSpec(workload_name, "ooo", scale=scale, variant="train")]
    specs += [
        CellSpec(workload_name, "crisp", scale=scale, variant="train",
                 crisp_config=CrispConfig(
                     delinquency=DelinquencyConfig().with_threshold(t)))
        for t in thresholds
    ]
    cells = run_cells(specs)
    for cell in cells:
        cell.require_stats()
    result = AutotuneResult(workload_name=workload_name,
                            baseline_ipc=cells[0].ipc)
    best_ipc = result.baseline_ipc
    for threshold, cell in zip(thresholds, cells[1:]):
        result.candidates[threshold] = (cell.ipc, frozenset(cell.critical_pcs))
        if cell.ipc > best_ipc:
            best_ipc = cell.ipc
            result.best_threshold = threshold
    return result
