"""Combine per-interval stats into a whole-run estimate with a CI on IPC.

The estimator treats each detailed interval's CPI as one sample:

* point estimate — the weighted mean CPI (weights are interval length ×
  plan weight, so truncated tail intervals and SimPoint cluster fractions
  both come out right), inverted to IPC;
* uncertainty — the weighted sample standard error of the per-interval
  CPIs, widened by the two-sided 95% Student-t critical value for the
  interval count (SMARTS reports confidence the same way);
* counters — :meth:`repro.uarch.stats.SimStats.merge` over the detailed
  intervals (exact for what was simulated), plus an *extrapolated* view
  where each interval's counters are scaled to the run share it
  represents — the full-run-shaped stats experiment tables consume.

CPI (not IPC) is the averaged quantity: per-interval instruction counts
are the fixed design variable and cycles the measured one, so cycles per
instruction is the mean that extrapolates linearly to run length.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from ..uarch.stats import SimStats
from .intervals import Interval

#: Two-sided 95% Student-t critical values by degrees of freedom (1..30);
#: larger samples use the normal approximation.
_T_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}


def t_critical(df: int) -> float:
    """95% two-sided Student-t critical value for ``df`` degrees of freedom."""
    if df < 1:
        return 0.0
    return _T_95.get(df, 1.960)


@dataclass
class SampledEstimate:
    """Whole-run estimate assembled from detailed-interval results."""

    policy: str
    total_insts: int
    detailed_insts: int
    detailed_cycles: int
    intervals: int
    cpi: float
    cpi_stderr: float
    ci_low: float  # 95% CI on CPI
    ci_high: float
    #: Exact merge of the detailed intervals' stats (unscaled).
    stats: SimStats = field(default_factory=SimStats)
    #: Counters extrapolated to run magnitude; cycles/retired are the
    #: whole-run estimate.
    extrapolated: SimStats = field(default_factory=SimStats)

    @property
    def ipc(self) -> float:
        return 1.0 / self.cpi if self.cpi else 0.0

    @property
    def est_cycles(self) -> int:
        return round(self.cpi * self.total_insts)

    @property
    def ipc_ci(self) -> tuple[float, float]:
        """95% CI on IPC (monotone transform of the CPI interval)."""
        low = 1.0 / self.ci_high if self.ci_high else 0.0
        high = 1.0 / self.ci_low if self.ci_low else math.inf
        return (low, high)

    @property
    def detail_fraction(self) -> float:
        return self.detailed_insts / self.total_insts if self.total_insts else 0.0

    def brief(self) -> dict:
        """Small JSON-safe summary (checkpoint rows, bench records)."""
        ipc_lo, ipc_hi = self.ipc_ci
        return {
            "policy": self.policy,
            "intervals": self.intervals,
            "total_insts": self.total_insts,
            "detailed_insts": self.detailed_insts,
            "detailed_cycles": self.detailed_cycles,
            "ipc": self.ipc,
            "ipc_ci95": [ipc_lo, ipc_hi],
        }

    def to_dict(self) -> dict:
        """Every field, JSON-safe (a sampled parent's ``extra["sampled"]``)."""
        data = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        data["stats"] = self.stats.to_dict()
        data["extrapolated"] = self.extrapolated.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SampledEstimate":
        """Inverse of :meth:`to_dict`."""
        return cls(**{
            **data,
            "stats": SimStats.from_dict(data["stats"]),
            "extrapolated": SimStats.from_dict(data["extrapolated"]),
        })

    def summary(self) -> str:
        ipc_lo, ipc_hi = self.ipc_ci
        return (
            f"sampled[{self.policy}] IPC={self.ipc:.3f} "
            f"(95% CI {ipc_lo:.3f}..{ipc_hi:.3f}) "
            f"estCycles={self.est_cycles} "
            f"intervals={self.intervals} "
            f"detail={self.detailed_insts}/{self.total_insts} insts "
            f"({self.detail_fraction:.1%}) detailedCycles={self.detailed_cycles}"
        )


def estimate_from_intervals(
    intervals: list[Interval],
    stats_list: list[SimStats],
    total_insts: int,
    *,
    policy: str = "smarts",
) -> SampledEstimate:
    """Build the whole-run estimate from per-interval detailed stats."""
    if len(intervals) != len(stats_list) or not intervals:
        raise ValueError(
            f"need one stats per interval, got {len(stats_list)} stats "
            f"for {len(intervals)} intervals"
        )
    cpis = []
    weights = []
    for interval, stats in zip(intervals, stats_list):
        if not stats.retired:
            raise ValueError(f"interval {interval.index} retired 0 instructions")
        cpis.append(stats.cycles / stats.retired)
        weights.append(interval.weight * stats.retired)
    wsum = sum(weights)
    cpi = sum(w * c for w, c in zip(weights, cpis)) / wsum
    n = len(cpis)
    if n > 1:
        variance = (
            sum(w * (c - cpi) ** 2 for w, c in zip(weights, cpis))
            / wsum
            * n
            / (n - 1)
        )
        stderr = math.sqrt(variance / n)
    else:
        stderr = 0.0
    half = t_critical(n - 1) * stderr
    merged = SimStats.merge(stats_list)
    # Extrapolate: interval i stands for a (weight-proportional) share of
    # the full run; scale its counters to that share before merging.
    scaled_parts = []
    for weight, stats in zip(weights, stats_list):
        represented = (weight / wsum) * total_insts
        scaled_parts.append(stats.scaled(represented / stats.retired))
    extrapolated = SimStats.merge(scaled_parts)
    extrapolated.retired = total_insts
    extrapolated.cycles = round(cpi * total_insts)
    return SampledEstimate(
        policy=policy,
        total_insts=total_insts,
        detailed_insts=merged.retired,
        detailed_cycles=merged.cycles,
        intervals=n,
        cpi=cpi,
        cpi_stderr=stderr,
        ci_low=cpi - half,
        ci_high=cpi + half,
        stats=merged,
        extrapolated=extrapolated,
    )
