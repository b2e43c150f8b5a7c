"""Delinquent-load and hard-branch classification (Section 3.2 / 3.4).

A load is *delinquent* (worth slicing) when all of the following hold:

* it is not cold-path noise -- its share of all executed loads exceeds
  ``exec_ratio_min``. The paper quotes 5% of all executed loads for its
  SPEC profiles, where a handful of hot loads dominate; applications whose
  code is spread over many blocks (moses-style, Figure 11 shows >10k
  critical instructions) would match nothing at 5%, so the default here is
  0.05% and the *miss-contribution* threshold below is the primary gate --
  which is exactly how Figure 10 defines the criterion ("CRISP prioritizes
  a load if it contributes greater than T misses of the total misses"),
* it actually misses -- its LLC miss *rate* exceeds ``miss_rate_min``
  (paper: 20%, the threshold Section 3.2 motivates),
* it contributes a meaningful share of all LLC misses -- above the
  ``miss_contribution_min`` threshold *T* swept in Figure 10 (5% / 1% /
  0.2%; 1% is the paper's best overall),
* it is latency-critical rather than bandwidth-bound -- either the average
  MLP sampled at its misses is below ``mlp_max`` (paper: 5), or the load
  accounts for a large share of the program's head-of-ROB stall cycles
  (``stall_contribution_min``). The stall arm implements the paper's
  "pipeline stalls induced by the load ... approximated by observing
  precise back-end stalls" signal: a serial load that issues amid an
  unrelated high-MLP volley samples a high instantaneous MLP, yet is
  exactly the load whose latency the pipeline waits on. The MLP arm is
  what keeps CRISP away from bwaves-style batched gathers (whose members
  individually contribute little stall) while IBDA's miss-count-only
  table falls for them (Section 5.2).

Per the paper, the execution-share threshold is scaled linearly with the
program's instruction mix: load-dense programs spread execution over more
load PCs, so the bar is lowered proportionally.

A branch is *hard* when its misprediction rate exceeds
``branch_mispredict_min`` (paper: 15%, Section 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..isa.emulator import ExecutionTrace
from .profiler import ProfileReport

#: Instruction mix at which the exec-ratio threshold applies unscaled; the
#: paper scales its thresholds linearly with the load fraction of the mix.
_REFERENCE_LOAD_FRACTION = 0.25


@dataclass(frozen=True)
class DelinquencyConfig:
    """Thresholds of the Section 3.2 heuristic."""

    exec_ratio_min: float = 0.0005
    miss_rate_min: float = 0.20
    miss_contribution_min: float = 0.01  # Figure 10's T; 1% is best overall
    mlp_max: float = 5.0
    #: A load whose share of all head-of-ROB stall cycles exceeds this is
    #: latency-critical even when its instantaneous MLP sample is high.
    stall_contribution_min: float = 0.15
    #: Loads whose address stream is at least this stride-predictable are
    #: the hardware prefetchers' job, not CRISP's (Section 3.2: "not a
    #: constant or stride"). Applied when address information is available.
    stride_predictable_max: float = 0.7
    branch_mispredict_min: float = 0.15
    min_branch_execs: int = 16
    scale_with_mix: bool = True

    def with_threshold(self, miss_contribution_min: float) -> "DelinquencyConfig":
        """The Figure 10 sweep knob."""
        return replace(self, miss_contribution_min=miss_contribution_min)


@dataclass
class Classification:
    """Outcome of classification over one profile."""

    delinquent_loads: list[int] = field(default_factory=list)
    hard_branches: list[int] = field(default_factory=list)
    #: pc -> human-readable reason, for every load pc considered.
    rejected: dict[int, str] = field(default_factory=dict)


def stride_predictability(trace: ExecutionTrace, pc: int, max_samples: int = 256) -> float:
    """Fraction of ``pc``'s accesses whose delta repeats the previous delta.

    1.0 for constant or constant-stride address streams (covered by the
    stride/stream/BOP prefetchers), ~0 for pointer chases and gathers.
    """
    seqs = trace.pc_index().get(pc, [])[:max_samples]
    addrs = [trace[s].addr for s in seqs if trace[s].addr >= 0]
    if len(addrs) < 3:
        return 0.0
    repeats = 0
    for i in range(2, len(addrs)):
        if addrs[i] - addrs[i - 1] == addrs[i - 1] - addrs[i - 2]:
            repeats += 1
    return repeats / (len(addrs) - 2)


def compute_stride_scores(trace: ExecutionTrace, profile: ProfileReport) -> dict[int, float]:
    """Stride-predictability for every missing load PC in the profile."""
    return {
        pc: stride_predictability(trace, pc)
        for pc, stats in profile.loads.items()
        if stats.llc_misses
    }


def classify(
    profile: ProfileReport,
    config: DelinquencyConfig | None = None,
    stride_scores: dict[int, float] | None = None,
) -> Classification:
    """Apply the Section 3.2/3.4 heuristics to a profile.

    ``stride_scores`` (from :func:`compute_stride_scores`) enables the
    "not a constant or stride" criterion; without it that check is skipped
    (e.g. when only PMU counters, not a trace, are available).
    """
    config = config or DelinquencyConfig()
    result = Classification()
    stride_scores = stride_scores or {}

    exec_ratio_min = config.exec_ratio_min
    if config.scale_with_mix and profile.load_fraction > 0:
        exec_ratio_min *= min(1.0, _REFERENCE_LOAD_FRACTION / profile.load_fraction)

    total_stall = sum(profile.rob_head_stall_by_pc.values())

    for pc, stats in sorted(profile.loads.items()):
        if not stats.llc_misses:
            result.rejected[pc] = "no LLC misses"
            continue
        if profile.exec_ratio(pc) < exec_ratio_min:
            result.rejected[pc] = (
                f"exec ratio {profile.exec_ratio(pc):.3f} < {exec_ratio_min:.3f}"
            )
            continue
        if stats.llc_miss_rate < config.miss_rate_min:
            result.rejected[pc] = (
                f"miss rate {stats.llc_miss_rate:.2f} < {config.miss_rate_min:.2f}"
            )
            continue
        stride = stride_scores.get(pc, 0.0)
        if stride >= config.stride_predictable_max:
            result.rejected[pc] = (
                f"stride-predictable ({stride:.2f} >= "
                f"{config.stride_predictable_max:.2f}): prefetcher territory"
            )
            continue
        if profile.miss_contribution(pc) < config.miss_contribution_min:
            result.rejected[pc] = (
                f"miss contribution {profile.miss_contribution(pc):.4f}"
                f" < {config.miss_contribution_min:.4f}"
            )
            continue
        if stats.avg_mlp >= config.mlp_max:
            stall_share = (
                profile.rob_head_stall_by_pc.get(pc, 0) / total_stall
                if total_stall
                else 0.0
            )
            if stall_share < config.stall_contribution_min:
                result.rejected[pc] = (
                    f"MLP {stats.avg_mlp:.1f} >= {config.mlp_max:.1f} and "
                    f"stall share {stall_share:.3f} < {config.stall_contribution_min:.3f}"
                )
                continue
        result.delinquent_loads.append(pc)

    result.hard_branches = profile.hard_branches(
        threshold=config.branch_mispredict_min, min_execs=config.min_branch_execs
    )
    return result


def classify_stalling_instructions(
    profile: ProfileReport,
    program,
    *,
    stall_contribution_min: float = 0.10,
    exclude_loads: bool = True,
) -> list[int]:
    """PCs of non-load instructions that dominate head-of-ROB stalls.

    Section 6.1: "other high-latency instructions such as division can be
    accelerated with CRISP. Here, the challenge is to determine the exact
    performance impact of a specific instruction ... we envision adding new
    events to the PMU for determining the PC of arbitrary instructions that
    induce significant stall cycles." The simulated PMU already attributes
    head-of-ROB stalls to every PC, so that envisioned facility is directly
    available here: any instruction (division, long FP chains) holding the
    ROB head for more than ``stall_contribution_min`` of all stall cycles
    becomes a slicing root, exactly like a delinquent load.
    """
    total = sum(profile.rob_head_stall_by_pc.values())
    if not total:
        return []
    roots = []
    for pc, stall in sorted(profile.rob_head_stall_by_pc.items()):
        if stall / total < stall_contribution_min:
            continue
        inst = program[pc]
        if inst.is_branch:
            continue
        if exclude_loads and inst.is_load:
            continue
        roots.append(pc)
    return roots
