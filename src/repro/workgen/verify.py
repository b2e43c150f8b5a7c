"""Measure achieved workload properties from the functional trace.

The verifier answers "did the generator deliver what the spec asked for?"
— and, for the hand-built analogues, "does each workload still have its
paper-attributed character?" (tests/workloads/test_property_regression).
It consumes only the emulator's :class:`~repro.isa.emulator.ExecutionTrace`
(dependence links, addresses, branch outcomes), never the timing model,
so a measurement costs one functional execution.

Method, per property:

* The trace is segmented at the most-executed *backward* conditional
  branch (the outer loop's backedge); interior segments are iterations.
* A load is a **miss candidate** when its cache line is absent from an
  LRU recency window of :data:`MISS_RECENCY_LINES` lines — the loads the
  memory system could plausibly miss on; pad/payload traffic to resident
  lines is excluded from the dependence metrics this way.
* ``pointer_chase_depth`` — median over interior segments of the deepest
  within-segment chain of dependent miss-candidate loads.
* ``mlp`` — median over interior segments of the number of *root*
  miss-candidate loads (no miss-candidate load ancestor in the segment):
  the independent chains the memory system can overlap.
* ``branch_entropy`` — max over conditional-branch PCs (with at least
  :data:`MIN_BRANCH_SAMPLES` executions) of the Shannon entropy of the
  empirical taken-rate. Frequency entropy, deliberately: it measures the
  outcome *mix*, not any particular predictor's accuracy.
* ``working_set_kib`` — unique 64-byte lines touched by loads/stores.
* ``slice_length`` — median over miss-candidate loads of the ALU-op count
  along the maximal register-producer path back to the nearest load: the
  address-generation slice CRISP would extract.
* ``load_fraction`` — loads over all dynamic instructions.
"""

from __future__ import annotations

import statistics
from collections import OrderedDict
from dataclasses import dataclass

from ..isa.emulator import ExecutionTrace
from ..isa.opcodes import ALU_FUNCTIONS, Opcode
from ..workloads.base import Workload
from .spec import (
    KNOBS,
    WorkloadSpec,
    binary_entropy,
    tolerance_text,
    within_tolerance,
)

#: LRU line-recency window distinguishing plausibly-missing loads from
#: cache-resident traffic (≈ half an L1's worth of lines).
MISS_RECENCY_LINES = 256

#: Minimum dynamic executions before a branch PC's entropy is trusted.
MIN_BRANCH_SAMPLES = 32

#: Cap on the producer walk of the slice measurement.
MAX_SLICE_WALK = 128

LINE_SHIFT = 6


class PropertyVerificationError(AssertionError):
    """Measured properties fall outside a spec's documented tolerance."""


@dataclass(frozen=True)
class MeasuredProperties:
    """Achieved values for every :class:`WorkloadSpec` knob, plus context."""

    pointer_chase_depth: float
    mlp: float
    branch_entropy: float
    working_set_kib: float
    slice_length: float
    load_fraction: float
    dynamic_insts: int = 0
    segments: int = 0

    def knob_values(self) -> dict:
        return {name: getattr(self, name) for name in KNOBS}


def _loop_segments(trace: ExecutionTrace) -> list[tuple[int, int]]:
    """Split the trace at the hottest backward conditional branch.

    Returns ``[start, end)`` position ranges; a trace without a loop
    backedge (or with too few iterations) is one segment.
    """
    best_pc, best_count = None, 0
    for inst in trace.program:
        if inst.is_cond_branch and inst.target is not None and inst.target <= inst.idx:
            count = trace.dynamic_count(inst.idx)
            if count > best_count:
                best_pc, best_count = inst.idx, count
    if best_pc is None or best_count < 4:
        return [(0, len(trace))]
    bounds = trace.pc_index()[best_pc]
    segments = []
    start = 0
    for pos in bounds:
        segments.append((start, pos + 1))
        start = pos + 1
    if start < len(trace):
        segments.append((start, len(trace)))
    return segments


def _interior(values: list[float]) -> list[float]:
    """Steady-state slice: drop the warmup/drain segments when possible."""
    return values[1:-1] if len(values) > 4 else values


def _mark_miss_candidates(trace: ExecutionTrace) -> list[bool]:
    """Per-position flag: load to a line outside the recency window."""
    recent: OrderedDict[int, None] = OrderedDict()
    flags = [False] * len(trace)
    is_load = [inst.is_load for inst in trace.program]
    for pos, (pc, addr) in enumerate(zip(trace.pc, trace.addr)):
        if addr < 0:
            continue
        line = addr >> LINE_SHIFT
        if is_load[pc] and line not in recent:
            flags[pos] = True
        recent[line] = None
        recent.move_to_end(line)
        if len(recent) > MISS_RECENCY_LINES:
            recent.popitem(last=False)
    return flags


def _segment_depth_and_roots(
    trace: ExecutionTrace, start: int, end: int, is_mc: list[bool]
) -> tuple[int, int]:
    """(max dependent miss-load chain, root miss-load count) in one segment."""
    depth: dict[int, int] = {}
    has_mc_ancestor: dict[int, bool] = {}
    max_depth = 0
    roots = 0
    for pos in range(start, end):
        d = 0
        anc = False
        for producer in trace.producers(pos):
            if producer < start:
                continue
            d = max(d, depth.get(producer, 0))
            if is_mc[producer] or has_mc_ancestor.get(producer, False):
                anc = True
        if is_mc[pos]:
            d += 1
            max_depth = max(max_depth, d)
            if not anc:
                roots += 1
        depth[pos] = d
        has_mc_ancestor[pos] = anc
    return max_depth, roots


def _slice_length_of(trace: ExecutionTrace, pos: int) -> int | None:
    """ALU ops along the max-producer path back to the nearest load."""
    producers = trace.register_producers(pos)
    if not producers:
        return None
    cursor = max(producers)
    count = 0
    for _ in range(MAX_SLICE_WALK):
        inst = trace.program[trace.pc[cursor]]
        if inst.is_load:
            return count
        op = inst.opcode
        if op in ALU_FUNCTIONS or op is Opcode.MOV:
            count += 1
        producers = trace.register_producers(cursor)
        if not producers:
            return None
        cursor = max(producers)
    return None


def measure_trace(trace: ExecutionTrace) -> MeasuredProperties:
    """Measure every knob from one dynamic trace."""
    is_mc = _mark_miss_candidates(trace)
    segments = _loop_segments(trace)

    depths: list[float] = []
    roots: list[float] = []
    for start, end in segments:
        d, r = _segment_depth_and_roots(trace, start, end, is_mc)
        depths.append(d)
        roots.append(r)

    outcome_counts: dict[int, list[int]] = {}
    lines: set[int] = set()
    loads = 0
    is_load = [inst.is_load for inst in trace.program]
    is_cond = [inst.is_cond_branch for inst in trace.program]
    for pc, addr, outcome in zip(trace.pc, trace.addr, trace.taken):
        if addr >= 0:
            lines.add(addr >> LINE_SHIFT)
            if is_load[pc]:
                loads += 1
        if is_cond[pc]:
            taken, total = outcome_counts.setdefault(pc, [0, 0])
            outcome_counts[pc] = [taken + (outcome == 2), total + 1]
    entropy = 0.0
    for taken, total in outcome_counts.values():
        if total >= MIN_BRANCH_SAMPLES:
            entropy = max(entropy, binary_entropy(taken / total))

    slice_lengths = [
        length
        for pos, mc in enumerate(is_mc)
        if mc and (length := _slice_length_of(trace, pos)) is not None
    ]

    total = len(trace)
    return MeasuredProperties(
        pointer_chase_depth=statistics.median(_interior(depths)) if depths else 0.0,
        mlp=statistics.median(_interior(roots)) if roots else 0.0,
        branch_entropy=entropy,
        working_set_kib=len(lines) * (1 << LINE_SHIFT) / 1024.0,
        slice_length=statistics.median(slice_lengths) if slice_lengths else 0.0,
        load_fraction=loads / total if total else 0.0,
        dynamic_insts=total,
        segments=len(segments),
    )


def measure(workload: Workload, max_insts: int = 5_000_000) -> MeasuredProperties:
    return measure_trace(workload.trace(max_insts=max_insts))


def measure_name(
    name: str, variant: str = "ref", scale: float = 1.0
) -> MeasuredProperties:
    """Build a workload by name (``gen:`` or analogue) and measure it."""
    from ..workloads import get_workload

    return measure(get_workload(name, variant=variant, scale=scale))


def violations(spec: WorkloadSpec, measured: MeasuredProperties) -> list[str]:
    """One problem string per knob outside its documented tolerance."""
    problems = []
    for knob in KNOBS:
        requested = getattr(spec, knob)
        achieved = getattr(measured, knob)
        if not within_tolerance(knob, requested, achieved):
            problems.append(
                f"{knob}: requested {requested}, measured {achieved:.3f} "
                f"(tolerance {tolerance_text(knob)})"
            )
    return problems


def verify(spec: WorkloadSpec, measured: MeasuredProperties) -> None:
    """Raise :class:`PropertyVerificationError` on any tolerance miss."""
    problems = violations(spec, measured)
    if problems:
        raise PropertyVerificationError(
            "generated workload missed its spec:\n  " + "\n  ".join(problems)
        )
