"""Interval specs, trace slicing, and the ``--sample`` plan grammar.

Sampled simulation (docs/SAMPLING.md) runs only selected *intervals* of a
dynamic trace through the detailed pipeline. This module owns the three
pure pieces of that machinery:

* :class:`Interval` / :func:`systematic_intervals` / :func:`partition` --
  which trace positions are simulated in detail (SMARTS-style systematic
  scheduling, or the fixed partition BBV clustering selects from),
* :class:`TraceSlice` / :func:`slice_trace` -- a sub-range of an
  :class:`~repro.isa.emulator.ExecutionTrace` re-sequenced so the pipeline
  can replay it stand-alone (producers before the slice become trace-
  external, exactly like values that predate a full trace), and
* :class:`SamplingPlan` / :func:`parse_sample` -- the CLI grammar
  ``off | smarts:<detail>/<period> | simpoint:<k>[/<interval>]``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.emulator import ExecutionTrace

#: Default SimPoint interval length (dynamic instructions) when the plan
#: spells only the cluster count (``simpoint:<k>``).
DEFAULT_SIMPOINT_INTERVAL = 1000


@dataclass(frozen=True)
class Interval:
    """One detailed-simulation interval: trace positions ``[start, end)``.

    ``weight`` is the fraction-of-run this interval stands for relative to
    its peers (1.0 under systematic sampling where every interval
    represents one period; the cluster fraction under SimPoint selection).
    """

    index: int
    start: int
    end: int
    weight: float = 1.0

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ValueError(f"bad interval bounds [{self.start}, {self.end})")
        if self.weight <= 0:
            raise ValueError(f"interval weight must be positive, got {self.weight}")

    def __len__(self) -> int:
        return self.end - self.start


@dataclass
class TraceSlice(ExecutionTrace):
    """A re-sequenced sub-range ``[start, end)`` of a parent trace.

    Looks exactly like a stand-alone :class:`ExecutionTrace` to the
    pipeline; ``boundary_pc`` answers :meth:`pc_after` for the slice's last
    instruction (a branch at the boundary needs its target PC, which lives
    one position past the slice in the parent trace).
    """

    start: int = 0
    end: int = 0
    boundary_pc: int = -1

    def pc_after(self, seq: int) -> int:
        nxt = seq + 1
        if nxt < len(self.pc):
            return self.pc[nxt]
        if self.boundary_pc < 0:
            raise IndexError(f"no instruction follows slice position {seq}")
        return self.boundary_pc


def slice_trace(trace: ExecutionTrace, start: int, end: int) -> TraceSlice:
    """Extract positions ``[start, end)`` of ``trace`` as a TraceSlice.

    Every column is cut with an array slice, so positions rebase to the
    slice with no per-instruction work: a producer link is a distance
    back, and one that reaches before the slice lands on a negative
    position, which reads as "value predates the slice" (``-1`` in a
    built ``DynInst``) -- the convention a full trace uses for the
    initial machine state, and one the pipeline treats as complete.
    """
    n = len(trace)
    if not 0 <= start < end <= n:
        raise ValueError(f"slice [{start}, {end}) outside trace of {n} insts")
    return TraceSlice(
        program=trace.program,
        pc=trace.pc[start:end],
        addr=trace.addr[start:end],
        taken=trace.taken[start:end],
        src_dist=tuple(col[start:end] for col in trace.src_dist),
        mem_dist=trace.mem_dist[start:end],
        final_regs=trace.final_regs,
        halted=trace.halted and end == n,
        start=start,
        end=end,
        boundary_pc=trace.pc[end] if end < n else -1,
    )


def systematic_intervals(n: int, detail: int, period: int) -> list[Interval]:
    """SMARTS-style systematic schedule over a trace of ``n`` instructions.

    One ``detail``-instruction interval per ``period`` instructions, offset
    so each detailed window sits centred in its period. A trace shorter
    than one period degenerates to a single full-detail interval.
    """
    if not 0 < detail <= period:
        raise ValueError(f"need 0 < detail <= period, got {detail}/{period}")
    offset = (period - detail) // 2
    intervals: list[Interval] = []
    start = offset
    while start < n:
        end = min(start + detail, n)
        intervals.append(Interval(len(intervals), start, end))
        start += period
    if not intervals:
        intervals = [Interval(0, 0, n)]
    return intervals


def partition(n: int, size: int) -> list[tuple[int, int]]:
    """Consecutive ``size``-instruction interval bounds covering ``[0, n)``."""
    if size <= 0:
        raise ValueError(f"interval size must be positive, got {size}")
    return [(start, min(start + size, n)) for start in range(0, n, size)]


@dataclass(frozen=True)
class SamplingPlan:
    """Parsed ``--sample`` value; ``policy`` is off / smarts / simpoint."""

    policy: str
    detail: int = 0  # smarts: detailed-interval length (insts)
    period: int = 0  # smarts: one detailed interval per this many insts
    clusters: int = 0  # simpoint: k
    interval: int = 0  # simpoint: BBV interval length (insts)

    @property
    def off(self) -> bool:
        return self.policy == "off"

    def token(self) -> str:
        """Canonical string form (round-trips through parse_sample)."""
        if self.policy == "smarts":
            return f"smarts:{self.detail}/{self.period}"
        if self.policy == "simpoint":
            return f"simpoint:{self.clusters}/{self.interval}"
        return "off"


def parse_sample(spec: str) -> SamplingPlan:
    """Parse ``off | smarts:<detail>/<period> | simpoint:<k>[/<interval>]``."""
    spec = spec.strip()
    if spec == "off":
        return SamplingPlan("off")
    policy, sep, rest = spec.partition(":")
    if policy == "smarts":
        detail, sep2, period = rest.partition("/")
        try:
            detail_i, period_i = int(detail), int(period)
        except ValueError:
            raise ValueError(
                f"bad smarts spec {spec!r}; expected smarts:<detail>/<period>"
            ) from None
        if not sep2 or detail_i <= 0 or period_i < detail_i:
            raise ValueError(
                f"bad smarts spec {spec!r}; need 0 < detail <= period"
            )
        return SamplingPlan("smarts", detail=detail_i, period=period_i)
    if policy == "simpoint":
        clusters, _, interval = rest.partition("/")
        try:
            clusters_i = int(clusters)
            interval_i = int(interval) if interval else DEFAULT_SIMPOINT_INTERVAL
        except ValueError:
            raise ValueError(
                f"bad simpoint spec {spec!r}; expected simpoint:<k>[/<interval>]"
            ) from None
        if clusters_i <= 0 or interval_i <= 0:
            raise ValueError(f"bad simpoint spec {spec!r}; k and interval must be > 0")
        return SamplingPlan("simpoint", clusters=clusters_i, interval=interval_i)
    raise ValueError(
        f"unknown sampling policy {spec!r}; expected "
        "off | smarts:<detail>/<period> | simpoint:<k>[/<interval>]"
    )
